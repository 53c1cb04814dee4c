import operator
import tracemalloc

import numpy as np
import pytest
import heyting_oracle
from heyting_oracle import DEEP_INSTANCES, arrow_by_candidates, first_difference
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench import (
    adjunction_failure,
    check_heyting_axioms,
    direct_product,
    dual_gb_diff,
    generalized_heyting_arrow,
    greens,
    leq_matrix,
    make_algebra,
    quotient,
    subalgebra,
    upset_at,
    vertical_dual,
)
from skewbench import heyting
from skewbench.errors import AmbiguousDiff, InconsistencyDetected, NoArrow, NoTop
from skewbench.heyting import _arrow_by_candidates
from skewbench.identities import bind, named_check, values_at
from skewbench.models import (
    Poset,
    all_posets,
    default_point_names,
    partial_function_algebra,
    upset_heyting,
)


@pytest.fixture(scope="module")
def boolean4(chain2):
    return direct_product(chain2, chain2)


class TestHeytingArrow:
    def test_chain2_table(self, chain2):
        table = generalized_heyting_arrow(chain2)
        # rows indexed by the first argument: 0→0=1, 0→1=1, 1→0=0, 1→1=1
        assert table.tolist() == [[1, 1], [0, 1]]
        assert table.dtype == np.int16 and not table.flags.writeable

    def test_boolean4_is_negation_join(self, boolean4):
        table = generalized_heyting_arrow(boolean4)
        leq = np.asarray(
            (boolean4.join == np.arange(4)[None, :])
            & (boolean4.join.T == np.arange(4)[None, :])
        )
        # a→b = ¬a∨b where ¬a is the complement
        comp = {}
        for a in range(4):
            comp[a] = next(
                w
                for w in range(4)
                if boolean4.meet[a, w] == boolean4.bottom and boolean4.join[a, w] == boolean4.top
            )
        for a in range(4):
            for b in range(4):
                assert table[a, b] == boolean4.join[comp[a], b]

    def test_n5_absent_with_two_maxima(self, n5):
        with pytest.raises(NoArrow) as info:
            generalized_heyting_arrow(n5)
        y, z, *maximal = info.value.witness
        assert (n5.names[y], n5.names[z]) == ("c", "a")
        assert sorted(n5.names[m] for m in maximal) == ["a", "b"]
        assert str(info.value) == "c→a has no value: maximal candidates ('a', 'b')"

    def test_absence_implies_not_distributive(self, n5):
        from skewbench import classify

        assert not classify(n5).holds("distributive")


class TestHeytingAxioms:
    def test_chain2_all_hold(self, chain2):
        arrow = generalized_heyting_arrow(chain2)
        rep = check_heyting_axioms(chain2.with_arrow(arrow))
        assert rep.all_hold()

    def test_perturbed_arrow_breaks_ha(self, boolean4):
        arrow = np.array(generalized_heyting_arrow(boolean4))
        arrow[1, 0] = (arrow[1, 0] + 1) % 4
        rep = check_heyting_axioms(boolean4.with_arrow(arrow))
        assert not rep.holds("HA")
        assert rep["HA"].witness is not None

    def test_esakia_upsets_of_two_chain(self):
        L = upset_heyting(Poset.chain(2, ["a", "b"]))
        rep = check_heyting_axioms(L)
        assert rep.all_hold()

    def test_join_reduction_lemma(self, chain3, boolean4):
        for L in (chain3, boolean4):
            arrow = generalized_heyting_arrow(L)
            rep = check_heyting_axioms(L.with_arrow(arrow))
            assert rep.holds("arrow-join-reduction")


class TestGeneralizedArrow:
    def test_three_chain_without_bottom(self):
        meet = [[min(i, j) for j in range(3)] for i in range(3)]
        join = [[max(i, j) for j in range(3)] for i in range(3)]
        L = make_algebra(["0", "1", "2"], meet, join, top=2)
        assert generalized_heyting_arrow(L).tolist() == [[2, 2, 2], [0, 2, 2], [0, 1, 2]]

    def test_pf22_quotient(self, pf22):
        D, _, _ = greens(pf22)
        Q, _ = quotient(pf22.drop_arrow(), D)
        assert np.array_equal(generalized_heyting_arrow(Q), arrow_by_candidates(Q))

    def test_any_finite_distributive_with_top(self, chain3, boolean4):
        for L in (chain3, boolean4):
            assert np.array_equal(generalized_heyting_arrow(L), arrow_by_candidates(L))


class TestDualDiff:
    def test_chain2_entrywise(self, chain2):
        table = dual_gb_diff(chain2)
        assert table.tolist() == [[1, 0], [1, 1]]
        assert table.dtype == np.int16 and not table.flags.writeable

    def test_boolean4_negation_form_and_arrow_agreement(self, boolean4):
        table = dual_gb_diff(boolean4)
        arrow = generalized_heyting_arrow(boolean4)
        for x in range(4):
            for y in range(4):
                assert table[y, x] == arrow[x, y]
        # frozen spot check: top∖∖bottom = top, bottom∖∖top = bottom∨¬top = bottom
        assert table[boolean4.top, boolean4.bottom] == boolean4.top
        assert table[boolean4.bottom, boolean4.top] == boolean4.bottom

    def test_three_chain_has_no_dual_diff(self, chain3):
        # the middle element has no relative complement in [0, top]: at
        # (y, x) = (0, 1) nothing satisfies both defining identities
        with pytest.raises(NoArrow) as info:
            dual_gb_diff(chain3)
        # Python ints, so that a report prints the pair as (0, 1)
        assert info.value.witness == (0, 1) and str(info.value.witness) == "(0, 1)"
        assert not isinstance(info.value, (AmbiguousDiff, InconsistencyDetected))

    def test_agreement_with_arrow_wherever_solvable(self, chain2, boolean4):
        for L in (chain2, boolean4):
            assert np.array_equal(dual_gb_diff(L).T, generalized_heyting_arrow(L))

    def test_ambiguous_on_diamond(self):
        # M3: three incomparable atoms under a common top; 0∖∖a has both
        # other atoms as candidates
        meet = [
            [0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4],
        ]
        join = [
            [0, 1, 2, 3, 4],
            [1, 1, 4, 4, 4],
            [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4],
        ]
        m3 = make_algebra(["0", "a", "b", "c", "1"], meet, join, top=4, bottom=0)
        with pytest.raises(AmbiguousDiff):
            dual_gb_diff(m3)

    def test_no_top_raises_instead_of_naming_a_pair(self, chain2):
        # the dual difference of a topless algebra is not unsolvable at
        # some pair: its identities name a top that is not there
        for L in (vertical_dual(partial_function_algebra(2, 2)), chain2.replace(top=None)):
            assert L.top is None
            for solve in (dual_gb_diff, heyting_oracle.dual_gb_diff):
                with pytest.raises(NoTop):
                    solve(L)


def _outcome(construct, L):
    """The table as lists, or the exception's class, message and witness."""
    try:
        return "table", construct(L).tolist()
    except (NoArrow, AmbiguousDiff) as exc:
        return type(exc).__name__, str(exc), exc.witness


def _assert_kernel_agrees(L):
    # a failure compares the pair and its maximal candidates, in order
    assert _outcome(_arrow_by_candidates, L) == _outcome(arrow_by_candidates, L)


def _m3():
    # the diamond: 0 < a, b, c < 1 with a, b, c pairwise incomparable
    meet = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1],
        [0, 0, 2, 0, 2],
        [0, 0, 0, 3, 3],
        [0, 1, 2, 3, 4],
    ]
    join = [
        [0, 1, 2, 3, 4],
        [1, 1, 4, 4, 4],
        [2, 4, 2, 4, 4],
        [3, 4, 4, 3, 4],
        [4, 4, 4, 4, 4],
    ]
    return make_algebra(["0", "a", "b", "c", "1"], meet, join, top=4, bottom=0)


class TestKernelAgreesWithOracle:
    """The kernel returns exactly what the candidate loop in
    ``heyting_oracle`` returns: the table, or the first failing pair in
    row-major order together with its maximal candidates."""

    def test_upset_lattices_of_all_posets_up_to_five_points(self):
        for pts in range(1, 6):
            for P in all_posets(pts):
                _assert_kernel_agrees(upset_heyting(P).drop_arrow())

    @pytest.mark.parametrize("name", ["n5", "m3", "n5*chain2", "n5*chain3", "m3*chain2", "m3*chain3"])
    def test_failure_data_on_non_distributive_lattices(self, name, request):
        # in a product with a chain the first failing pair is not the factor's
        factor, *chain = name.split("*")
        L = _m3() if factor == "m3" else request.getfixturevalue(factor)
        if chain:
            L = direct_product(L, request.getfixturevalue(chain[0]))
        with pytest.raises(NoArrow) as info:
            _arrow_by_candidates(L)
        assert len(info.value.witness) >= 2 + 2  # the pair and two maxima
        _assert_kernel_agrees(L)

    def test_boolean_lattice_of_256_elements(self):
        L = upset_heyting(Poset.antichain(8))
        assert np.array_equal(generalized_heyting_arrow(L.drop_arrow()), L.arrow)

    @pytest.mark.parametrize("fixture", ["rect2", "t3", "rect2_bottom", "pf22"])
    def test_agrees_off_lattices(self, fixture, request):
        # the natural order of a skew lattice need not be antisymmetric on
        # the whole carrier; the kernel keeps the oracle's maximal-candidate rule
        _assert_kernel_agrees(request.getfixturevalue(fixture).drop_arrow())

    @pytest.mark.parametrize("label", sorted(DEEP_INSTANCES))
    def test_every_upset_and_the_d_quotient(self, label):
        A = DEEP_INSTANCES[label]().drop_arrow()
        for sub in _upset_algebras(A):
            _assert_kernel_agrees(sub)
        D, _, _ = greens(A)
        Q, _ = quotient(A, D)
        assert np.array_equal(generalized_heyting_arrow(Q), arrow_by_candidates(Q))
        for sub in _upset_algebras(Q):
            _assert_kernel_agrees(sub)


def _upset_algebras(A):
    """Every upset u↑ of ``A`` as an algebra of its own, with u as bottom;
    ``upset_at`` lists the same members."""
    leq = leq_matrix(A)
    for u in range(A.n):
        members = [int(v) for v in np.flatnonzero(leq[u])]
        assert upset_at(A, u).tolist() == members
        yield subalgebra(A, members, bottom=members.index(u))


@st.composite
def _posets(draw):
    n = draw(st.integers(1, 5))
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[i, j] = draw(st.booleans())
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    return Poset(default_point_names(n), leq)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_an_upset_lattice_commutes_with_the_kernel(data):
    L = upset_heyting(data.draw(_posets())).drop_arrow()
    perm = np.array(data.draw(st.permutations(range(L.n))))
    inv = np.argsort(perm)  # new element k is old element inv[k]
    grid = np.ix_(inv, inv)
    relabeled = make_algebra(
        [L.names[int(i)] for i in inv],
        perm[L.meet[grid]],
        perm[L.join[grid]],
        top=int(perm[L.top]),
        bottom=int(perm[L.bottom]),
    )
    want = _arrow_by_candidates(L)
    got = _arrow_by_candidates(relabeled)
    assert np.array_equal(got, perm[want[grid]])


def _diff_inputs():
    for nx in (1, 2, 3):
        for ny in (1, 2):
            yield partial_function_algebra(nx, ny)
    for pts in range(1, 5):
        for P in all_posets(pts):
            L = upset_heyting(P).drop_arrow()
            yield L
            yield vertical_dual(L)
    yield _m3()


def test_dual_diff_agrees_with_the_scalar_loop():
    outcomes = [_outcome(dual_gb_diff, L) for L in _diff_inputs()]
    assert outcomes == [_outcome(heyting_oracle.dual_gb_diff, L) for L in _diff_inputs()]
    # every branch is exercised: solved, unsolvable and ambiguous inputs
    assert {"table", "NoArrow", "AmbiguousDiff"} <= {o[0] for o in outcomes}


class TestAdjunctionFailure:
    """``adjunction_failure`` names the first pair of an upset, in row-major
    order, where an arrow table is not the Heyting arrow of that upset."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_first_differing_pair_of_a_mutated_upset_lattice(self, data):
        L = upset_heyting(data.draw(_posets())).drop_arrow()
        leq = leq_matrix(L)
        oracle = arrow_by_candidates(L)
        u = data.draw(st.integers(0, L.n - 1))
        members = np.flatnonzero(leq[u])
        assert adjunction_failure(L, members, oracle) is None
        a = int(members[data.draw(st.integers(0, len(members) - 1))])
        b = int(members[data.draw(st.integers(0, len(members) - 1))])
        v = data.draw(st.integers(0, L.n - 2))
        mutated = np.array(oracle)
        mutated[a, b] = v + (v >= oracle[a, b])
        got = adjunction_failure(L, members, mutated)
        assert got == first_difference(members, mutated, oracle) == (a, b)
        ha, tables = named_check("HA"), {**bind(L.with_arrow(mutated)), "leq": leq}
        assert any(operator.ne(*values_at(ha, tables, (int(c), a, b))) for c in members)

    def test_generalized_arrow_witness_is_in_the_lattice_indices(self, monkeypatch):
        # the chain bottom < m0 < m1 < top stored as m0, m1, bottom, top, so
        # that m0↑ = {m0, m1, top} is not an initial run of indices
        rank = [1, 2, 0, 3]
        meet = [[min(i, j, key=rank.__getitem__) for j in range(4)] for i in range(4)]
        join = [[max(i, j, key=rank.__getitem__) for j in range(4)] for i in range(4)]
        L = make_algebra(["m0", "m1", "bot", "top"], meet, join, top=3, bottom=2)
        mutated = np.array(arrow_by_candidates(L))
        mutated[1, 3] = 1  # m1→top is top
        monkeypatch.setattr(heyting, "_arrow_by_candidates", lambda L: mutated)
        with pytest.raises(InconsistencyDetected) as info:
            generalized_heyting_arrow(L)
        # m0↑ is the first upset holding (m1, top), which sits at (1, 2) in it
        assert info.value.witness == (0, 1, 3)

    def test_memory_stays_bounded_on_a_large_lattice(self):
        n = 300
        idx = np.arange(n)
        L = make_algebra(
            [str(i) for i in idx], np.minimum.outer(idx, idx), np.maximum.outer(idx, idx), top=n - 1
        )
        leq = leq_matrix(L)
        arrow = np.where(leq, n - 1, idx[None, :])
        tracemalloc.start()
        try:
            ok = adjunction_failure(L, idx, arrow)
            arrow[n - 1, 0] = 1
            bad = adjunction_failure(L, idx, arrow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok is None and bad == (n - 1, 0)
        # the n³ tensor alone would take 27 MB
        assert peak <= 2 * 2**20

    def test_first_pair_is_row_major_across_column_blocks(self):
        # past 256 members a step covers one a and a block of b; a later a
        # in the first block must not come before an earlier a in a later one
        n = 300
        idx = np.arange(n)
        L = make_algebra(
            [str(i) for i in idx], np.minimum.outer(idx, idx), np.maximum.outer(idx, idx), top=n - 1
        )
        oracle = np.where(leq_matrix(L), n - 1, idx[None, :])
        arrow = np.array(oracle)
        arrow[5, 290] = 0
        arrow[6, 3] = 0
        assert adjunction_failure(L, idx, arrow) == first_difference(idx, arrow, oracle) == (5, 290)
