import numpy as np
import pytest
from heyting_oracle import arrow_by_candidates
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench import (
    check_heyting_axioms,
    direct_product,
    dual_gb_diff,
    generalized_heyting_arrow,
    greens,
    heyting_arrow,
    leq_matrix,
    make_algebra,
    quotient,
    subalgebra,
    upset_at,
)
from skewbench.heyting import _arrow_by_candidates
from skewbench.models import (
    Poset,
    SurjectionModel,
    all_posets,
    default_point_names,
    partial_function_algebra,
    poset_sections_algebra,
    upset_heyting,
)


@pytest.fixture(scope="module")
def boolean4(chain2):
    return direct_product(chain2, chain2)


class TestHeytingArrow:
    def test_chain2_table(self, chain2):
        res = heyting_arrow(chain2)
        assert res
        # rows indexed by the first argument: 0→0=1, 0→1=1, 1→0=0, 1→1=1
        assert res.table.tolist() == [[1, 1], [0, 1]]

    def test_boolean4_is_negation_join(self, boolean4):
        res = heyting_arrow(boolean4)
        assert res
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
                assert res.table[a, b] == boolean4.join[comp[a], b]

    def test_n5_absent_with_two_maxima(self, n5):
        res = heyting_arrow(n5)
        assert not res
        y, z = res.offending
        assert (n5.names[y], n5.names[z]) == ("c", "a")
        assert sorted(n5.names[m] for m in res.maximal) == ["a", "b"]

    def test_absence_implies_not_distributive(self, n5):
        from skewbench import classify

        assert not classify(n5).holds("distributive")


class TestHeytingAxioms:
    def test_chain2_all_hold(self, chain2):
        arrow = heyting_arrow(chain2).table
        rep = check_heyting_axioms(chain2, arrow)
        assert rep.all_hold()

    def test_perturbed_arrow_breaks_ha(self, boolean4):
        arrow = np.array(heyting_arrow(boolean4).table)
        arrow[1, 0] = (arrow[1, 0] + 1) % 4
        rep = check_heyting_axioms(boolean4, arrow)
        assert not rep.holds("HA")
        assert rep["HA"].witness is not None

    def test_esakia_upsets_of_two_chain(self):
        L = upset_heyting(Poset.chain(2, ["a", "b"]))
        rep = check_heyting_axioms(L.drop_arrow(), L.arrow)
        assert rep.all_hold()

    def test_join_reduction_lemma(self, chain3, boolean4):
        for L in (chain3, boolean4):
            arrow = heyting_arrow(L).table
            rep = check_heyting_axioms(L, arrow)
            assert rep.holds("arrow-join-reduction")


class TestGeneralizedArrow:
    def test_three_chain_without_bottom(self):
        meet = [[min(i, j) for j in range(3)] for i in range(3)]
        join = [[max(i, j) for j in range(3)] for i in range(3)]
        L = make_algebra(["0", "1", "2"], meet, join, top=2)
        res = generalized_heyting_arrow(L)
        assert res

    def test_pf22_quotient(self, pf22):
        D, _, _ = greens(pf22)
        Q, _ = quotient(pf22.drop_arrow(), D)
        assert generalized_heyting_arrow(Q)

    def test_any_finite_distributive_with_top(self, chain3, boolean4):
        for L in (chain3, boolean4):
            assert generalized_heyting_arrow(L)


class TestDualDiff:
    def test_chain2_entrywise(self, chain2):
        res = dual_gb_diff(chain2)
        assert res.table.tolist() == [[1, 0], [1, 1]]

    def test_boolean4_negation_form_and_arrow_agreement(self, boolean4):
        res = dual_gb_diff(boolean4)
        assert res
        arrow = heyting_arrow(boolean4).table
        for x in range(4):
            for y in range(4):
                assert res.table[y, x] == arrow[x, y]
        # frozen spot check: top∖∖bottom = top, bottom∖∖top = bottom∨¬top = bottom
        assert res.table[boolean4.top, boolean4.bottom] == boolean4.top
        assert res.table[boolean4.bottom, boolean4.top] == boolean4.bottom

    def test_three_chain_has_no_dual_diff(self, chain3):
        # the middle element has no relative complement in [0, top]: at
        # (y, x) = (0, 1) nothing satisfies both defining identities
        res = dual_gb_diff(chain3)
        assert not res
        assert res.offending == (0, 1)

    def test_agreement_with_arrow_wherever_solvable(self, chain2, boolean4):
        for L in (chain2, boolean4):
            res = dual_gb_diff(L)
            assert res
            arrow = heyting_arrow(L).table
            assert np.array_equal(res.table.T, arrow)

    def test_ambiguous_on_diamond(self):
        from skewbench.errors import AmbiguousDiff

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


def _assert_kernel_agrees(L):
    got, want = _arrow_by_candidates(L), arrow_by_candidates(L)
    assert (got.offending, got.maximal) == (want.offending, want.maximal)
    if want.table is None:
        assert got.table is None
    else:
        assert np.array_equal(got.table, want.table)


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


def _chain_plus_point_sections():
    # p < r < s, and q incomparable to all of them
    leq = np.eye(4, dtype=bool)
    for a, b in ((0, 2), (0, 3), (2, 3)):
        leq[a, b] = True
    model = SurjectionModel.from_fiber_sizes(Poset(("p", "q", "r", "s"), leq), (2, 2, 2, 2))
    return poset_sections_algebra(model)


DEEP_INSTANCES = {
    "pfn(6,1)": lambda: partial_function_algebra(6, 1),
    "pfn(4,2)": lambda: partial_function_algebra(4, 2),
    "pfn(3,3)": lambda: partial_function_algebra(3, 3),
    "sections(p<r<s,q;2,2,2,2)": _chain_plus_point_sections,
}


class TestKernelAgreesWithOracle:
    """The matrix-count kernel returns exactly what the candidate loop in
    ``heyting_oracle`` returns: the table, or the first failing pair in
    row-major order together with its maximal candidates."""

    def test_upset_lattices_of_all_posets_up_to_five_points(self):
        for pts in range(1, 6):
            for P in all_posets(pts):
                _assert_kernel_agrees(upset_heyting(P).drop_arrow())

    @pytest.mark.parametrize("name", ["n5", "m3"])
    def test_failure_data_on_non_distributive_lattices(self, name, request):
        L = _m3() if name == "m3" else request.getfixturevalue(name)
        res = _arrow_by_candidates(L)
        assert not res and len(res.maximal) >= 2
        _assert_kernel_agrees(L)

    @pytest.mark.parametrize("fixture", ["rect2", "t3", "rect2_bottom", "pf22"])
    def test_agrees_off_lattices(self, fixture, request):
        # the natural order of a skew lattice need not be antisymmetric on
        # the whole carrier; the kernel keeps the oracle's maximal-candidate rule
        _assert_kernel_agrees(request.getfixturevalue(fixture).drop_arrow())

    @pytest.mark.parametrize("label", sorted(DEEP_INSTANCES))
    def test_every_upset_and_the_d_quotient(self, label):
        A = DEEP_INSTANCES[label]().drop_arrow()
        leq = leq_matrix(A)
        for u in range(A.n):
            _assert_kernel_agrees(upset_at(A, u, leq).algebra)
        D, _, _ = greens(A)
        Q, _ = quotient(A, D)
        lifted = generalized_heyting_arrow(Q)
        oracle = arrow_by_candidates(Q)
        assert lifted and oracle and np.array_equal(lifted.table, oracle.table)
        leq_q = leq_matrix(Q)
        for u in range(Q.n):
            members = [int(v) for v in np.flatnonzero(leq_q[u])]
            sub, _ = subalgebra(Q, members, bottom=members.index(u))
            _assert_kernel_agrees(sub)


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
    assert want and got
    assert np.array_equal(got.table, perm[want.table[grid]])
