import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from heyting_oracle import DEEP_INSTANCES, derive_by_upsets, generalized_arrow, lifting, upset_arrows
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbench import (
    Algebra,
    CheckResult,
    check_arrow_congruences,
    check_imp_or,
    check_lifting,
    check_sh_axioms,
    check_sha,
    derive_arrow,
    dual_gb_diff,
    generalized_heyting_arrow,
    greens,
    lattice_image,
    leq_matrix,
    make_algebra,
    preceq_matrix,
    pullback_check,
    quotient,
    special_case_arrows,
    subalgebra,
    upset_at,
)
from skewbench import core, heyting, skew_heyting
from skewbench.cli import emit_algebra_file, run_command
from skewbench.errors import (
    BadConstant,
    CoherenceFailure,
    InconsistencyDetected,
    NoArrow,
    NoTop,
    NotCoStronglyDistributive,
    PreconditionFailed,
)
from skewbench.heyting import adjunction_failure
from skewbench.models import (
    Poset,
    SurjectionModel,
    all_posets,
    partial_function_algebra,
    poset_sections_algebra,
    upset_heyting,
)


class TestDeriveArrow:
    def test_pf22_matches_residue_formula(self, pf22):
        derived = derive_arrow(pf22.drop_arrow())
        assert np.array_equal(derived, pf22.arrow)
        assert derived.dtype == np.int16 and not derived.flags.writeable

    def test_pf12_comparable_pair_maps_to_top(self, pf12):
        derived = derive_arrow(pf12.drop_arrow())
        p0, p1 = pf12.index("{p:0}"), pf12.index("{p:1}")
        assert derived[p0, p1] == pf12.index("{}")

    def test_x_to_x_is_top(self, pf22, t3, chain2):
        for A in (pf22.drop_arrow(), t3, chain2.drop_arrow()):
            derived = derive_arrow(A)
            assert all(derived[x, x] == A.top for x in range(A.n))

    def test_requires_top(self, rect2):
        with pytest.raises(NoTop):
            derive_arrow(rect2)

    def test_a_missing_precondition_is_a_precondition_failure(self):
        # so that verify, derive and check_sha catch PreconditionFailed alone
        assert issubclass(NoTop, PreconditionFailed)
        assert issubclass(NotCoStronglyDistributive, PreconditionFailed)

    def test_requires_costrong(self):
        from skewbench import make_algebra

        # a rectangular pair over an adjoined bottom, under an adjoined top:
        # has a top but is not conormal, so not co-strongly distributive
        meet = [[0, 0, 2, 0], [1, 1, 2, 1], [2, 2, 2, 2], [0, 1, 2, 3]]
        join = [[0, 1, 0, 3], [0, 1, 1, 3], [0, 1, 2, 3], [3, 3, 3, 3]]
        bad = make_algebra(["a", "b", "0", "1"], meet, join, top=3, bottom=2)
        with pytest.raises(NotCoStronglyDistributive):
            derive_arrow(bad)

    def test_arrow_lands_in_upset_of_second_argument(self, pf22):
        derived = derive_arrow(pf22.drop_arrow())
        leq = leq_matrix(pf22)
        for x in range(pf22.n):
            for y in range(pf22.n):
                assert leq[y, derived[x, y]]

    def test_upset_coherence(self, pf22):
        # x→y computed globally equals the upset-local arrow wherever both live
        derived = derive_arrow(pf22.drop_arrow())
        for members, arrow in upset_arrows(pf22):
            assert np.array_equal(derived[np.ix_(members, members)], arrow)

    def test_builds_no_algebra_per_upset(self, monkeypatch):
        A = partial_function_algebra(4, 2).drop_arrow()
        calls = []
        real = core.make_algebra

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "make_algebra", counting)
        assert derive_arrow(A) is not None
        assert calls == []


    def test_derive_reports_an_inconsistency_where_conormal_fails(self, pf22, monkeypatch, tmp_path):
        # co-strongly distributive implies conormal, so a failing conormal
        # verdict contradicts the precondition just verified
        real = skew_heyting.property_result

        def failing_conormal(A, name):
            res = real(A, name)
            return CheckResult(name, False, (0, 0, 0, 0), res.checked) if name == "conormal" else res

        monkeypatch.setattr(skew_heyting, "property_result", failing_conormal)
        path = tmp_path / "pf22.alg"
        path.write_text(emit_algebra_file(pf22))
        code, out = run_command(["--format", "machine", "derive", str(path)])
        assert code == 3 and b"CHECK: name=inconsistency verdict=error" in out


class TestCoherence:
    """Coherence is checked on the upsets of the ≤-minimal elements; the
    witness is that of the in-order scan over every upset."""

    @staticmethod
    def _scan_every_upset(A, table):
        for u, row in enumerate(leq_matrix(A)):
            bad = adjunction_failure(A, np.flatnonzero(row), table)
            if bad is not None:
                return (u, *bad)
        return None

    @pytest.mark.parametrize(
        "build",
        [
            lambda: partial_function_algebra(2, 2),
            lambda: poset_sections_algebra(SurjectionModel.from_fiber_sizes(Poset.chain(2), (2, 2))),
        ],
        ids=["pf22", "sections(p<q;2,2)"],
    )
    def test_every_single_cell_mutation_gives_the_in_order_witness(self, build):
        A = build().drop_arrow()
        derived = derive_arrow(A)
        assert 1 < (leq_matrix(A).sum(axis=0) == 1).sum() < A.n
        failures = 0
        for x, y, shift in itertools.product(range(A.n), range(A.n), range(1, A.n)):
            table = np.array(derived)
            table[x, y] = (table[x, y] + shift) % A.n
            got = skew_heyting.coherence_failure(A, table)
            assert got == self._scan_every_upset(A, table), (x, y, shift)
            failures += got is not None
        assert failures > 0

    def test_a_failure_is_raised_with_the_in_order_witness(self, monkeypatch):
        A = partial_function_algebra(2, 2).drop_arrow()
        real = skew_heyting.coherence_failure
        seen = []

        def wrong_cell(B, table):
            table = np.array(table)
            table[-1, -1] = (B.top + 1) % B.n  # x→x is the top, so this cell is wrong
            seen.append(self._scan_every_upset(B, table))
            return real(B, table)

        monkeypatch.setattr(skew_heyting, "coherence_failure", wrong_cell)
        with pytest.raises(CoherenceFailure) as info:
            derive_arrow(A)
        assert seen[0] is not None and info.value.witness == seen[0]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: lattice_image(partial_function_algebra(2, 2))[0],
            lambda: upset_heyting(Poset(("p", "q", "r"), [[1, 0, 1], [0, 1, 0], [0, 0, 1]])).drop_arrow(),
        ],
        ids=["S/D of pf22", "upsets(p<r, q)"],
    )
    def test_a_mutated_kernel_fails_the_generalized_arrow_at_the_in_order_witness(self, build, monkeypatch):
        L = build()
        table = generalized_heyting_arrow(L)
        for a, b, shift in itertools.product(range(L.n), range(L.n), range(1, L.n)):
            mutated = np.array(table)
            mutated[a, b] = (mutated[a, b] + shift) % L.n
            monkeypatch.setattr(heyting, "_arrow_by_candidates", lambda L: mutated)
            with pytest.raises(InconsistencyDetected) as info:
                generalized_heyting_arrow(L)
            # a lattice admits one arrow, so every mutation fails somewhere
            assert info.value.witness == self._scan_every_upset(L, mutated), (a, b, shift)


class TestUpset:
    def test_the_upset_is_the_row_of_leq_on_any_algebra(self, rect2_bottom):
        # the upset of the bottom is not commutative there: rect2_bottom is
        # not conormal, and nothing asks derive_arrow for it
        leq = leq_matrix(rect2_bottom)
        for u in range(rect2_bottom.n):
            assert upset_at(rect2_bottom, u).tolist() == np.flatnonzero(leq[u]).tolist()

    def test_members_and_bounds(self, pf22):
        u = pf22.index("{p:0}")
        members = upset_at(pf22, u)
        assert members.tolist() == np.flatnonzero(leq_matrix(pf22)[u]).tolist()
        assert pf22.index("{}") in members
        sub = subalgebra(pf22, members, bottom=members.tolist().index(u))
        # local index i is the i-th least member
        assert sub.names == pf22.name_tuple(members)
        assert members[sub.bottom] == u
        assert members[sub.top] == pf22.index("{}")

    def test_upset_arrow_is_heyting(self, pf22):
        u = pf22.index("{p:0,q:0}")
        members = upset_at(pf22, u)
        sub = subalgebra(pf22.drop_arrow(), members, bottom=members.tolist().index(u))
        derived = derive_arrow(pf22.drop_arrow())
        assert np.array_equal(members[generalized_heyting_arrow(sub)], derived[np.ix_(members, members)])


class TestShAxioms:
    def test_pf22_all_hold(self, pf22):
        rep = check_sh_axioms(pf22)
        assert rep.all_hold()

    def test_chain2_reduces_to_heyting(self, chain2):
        arrow = generalized_heyting_arrow(chain2)
        rep = check_sh_axioms(chain2.with_arrow(arrow))
        assert rep.all_hold()

    def test_mutation_breaks_an_axiom(self, pf22):
        rng = np.random.default_rng(7)
        for _ in range(25):
            arrow = np.array(pf22.arrow)
            x = int(rng.integers(pf22.n))
            y = int(rng.integers(pf22.n))
            delta = 1 + int(rng.integers(pf22.n - 1))
            arrow[x, y] = (arrow[x, y] + delta) % pf22.n
            rep = check_sh_axioms(pf22.with_arrow(arrow))
            sha = check_sha(pf22.with_arrow(arrow))
            assert not (rep.all_hold() and sha.holds)

    def test_uniqueness_every_single_mutation_detected(self, pf12):
        # small enough to try every mutated table exhaustively
        for x in range(pf12.n):
            for y in range(pf12.n):
                for v in range(pf12.n):
                    if v == pf12.arrow[x, y]:
                        continue
                    arrow = np.array(pf12.arrow)
                    arrow[x, y] = v
                    M = pf12.with_arrow(arrow)
                    rep = check_sh_axioms(M)
                    assert not (rep.all_hold() and check_sha(M).holds)


class TestSha:
    def test_pf22(self, pf22):
        assert check_sha(pf22)

    def test_pf12_unit_clause(self, pf12):
        pre = preceq_matrix(pf12)
        p0, p1 = pf12.index("{p:0}"), pf12.index("{p:1}")
        assert pf12.arrow[p0, p1] == pf12.index("{}")
        assert pre[p0, p1]

    def test_chain2(self, chain2):
        arrow = generalized_heyting_arrow(chain2)
        assert check_sha(chain2.with_arrow(arrow))


class TestImpOr:
    def test_pf22(self, pf22):
        assert check_imp_or(pf22)

    def test_chain2(self, chain2):
        arrow = generalized_heyting_arrow(chain2)
        assert check_imp_or(chain2.with_arrow(arrow))

    def test_section_algebra_over_two_chain(self):
        model = SurjectionModel.from_fiber_sizes(Poset.chain(2, ["a", "b"]), (2, 1))
        A = poset_sections_algebra(model)
        assert check_imp_or(A)


class TestLifting:
    def test_pf22(self, pf22):
        assert check_lifting(pf22.drop_arrow())

    def test_t3(self, t3):
        assert check_lifting(t3)

    def test_chain2(self, chain2):
        assert check_lifting(chain2.drop_arrow())

    def test_a_quotient_without_an_arrow_is_an_inconsistency(self, pf22, monkeypatch):
        def no_arrow(L):
            raise NoArrow("no arrow", witness=(0, 1, 2, 3))

        monkeypatch.setattr(heyting, "_arrow_by_candidates", no_arrow)
        with pytest.raises(InconsistencyDetected) as info:
            check_lifting(pf22.drop_arrow())
        assert str(info.value) == "lifting biconditional fails: derived=True, quotient arrow=False"
        assert info.value.witness == ()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_failing_witness_is_a_real_violation(self, data):
        # a one-cell mutation of S/D's arrow on a family member fails, since
        # every cell of S/D lies in the upset of some D-class
        A = data.draw(st.sampled_from(LIFTING_FAMILY))()
        Q, project = lattice_image(A)
        p, q = (data.draw(st.integers(0, Q.n - 1)) for _ in range(2))
        mutated = np.array(generalized_heyting_arrow(Q))
        mutated[p, q] = (mutated[p, q] + data.draw(st.integers(1, Q.n - 1))) % Q.n
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(skew_heyting, "generalized_heyting_arrow", lambda Q: mutated)
            res = check_lifting(A)
        assert not res.holds
        u, a, b = res.witness
        up = leq_matrix(A)[u]
        assert up[a] and up[b]
        assert project[derive_arrow(A)[a, b]] != mutated[project[a], project[b]]


class TestArrowCongruences:
    def test_pf22(self, pf22):
        assert check_arrow_congruences(pf22)

    def test_quotients_remain_derivable(self, pf22):
        _, L, R = greens(pf22)
        for part in (L, R):
            Q, _ = quotient(pf22.drop_arrow(), part)
            assert derive_arrow(Q).shape == (Q.n, Q.n)

    def test_chain2(self, chain2):
        arrow = generalized_heyting_arrow(chain2)
        assert check_arrow_congruences(chain2.with_arrow(arrow))


def test_each_verify_sub_suite_returns_a_result_named_after_its_report_entry(pf22, tmp_path):
    wrong = np.array(pf22.arrow)
    wrong[0, 1] = (wrong[0, 1] + 1) % pf22.n
    suites = {
        "SHA": lambda arrow: check_sha(pf22.with_arrow(arrow)),
        "imp-or": lambda arrow: check_imp_or(pf22.with_arrow(arrow)),
        "lifting": lambda arrow: check_lifting(pf22),
        "arrow-congruences": lambda arrow: check_arrow_congruences(pf22.with_arrow(arrow)),
        "pullback": lambda arrow: pullback_check(pf22),
    }
    for name, suite in suites.items():
        for arrow in (pf22.arrow, wrong):
            res = suite(arrow)
            assert type(res) is CheckResult and res.name == name and res.checked == 0
    (tmp_path / "pf22.alg").write_text(emit_algebra_file(pf22))
    _, out = run_command(["--format", "machine", "verify", str(tmp_path / "pf22.alg")])
    entries = [line.split()[1][5:] for line in out.decode().splitlines() if line.startswith("CHECK:")]
    assert [e for e in entries if e in suites] == list(suites)


class TestSpecialCases:
    def test_t3_chain_formula(self, t3):
        rep = special_case_arrows(t3.with_arrow(derive_arrow(t3)))
        assert rep["case2-skew-chain"].verdict == "holds"

    def test_chain2_both_cases(self, chain2):
        rep = special_case_arrows(chain2.with_arrow(derive_arrow(chain2)))
        assert rep["case2-skew-chain"].verdict == "holds"
        assert rep["case3-dual-boolean-diff"].verdict == "holds"

    def test_pf22_case3(self, pf22):
        rep = special_case_arrows(pf22)
        assert rep["case2-skew-chain"].verdict == "skipped"
        assert rep["case3-dual-boolean-diff"].verdict == "holds"

    def test_chain3_case3_skipped(self, chain3):
        rep = special_case_arrows(chain3.with_arrow(derive_arrow(chain3)))
        assert rep["case2-skew-chain"].verdict == "holds"
        assert rep["case3-dual-boolean-diff"].verdict == "skipped"
        assert rep["case3-dual-boolean-diff"].detail == "dual difference unsolvable at pair (0, 1)"

    @pytest.mark.parametrize("fixture", ["t3", "chain2"])
    def test_a_one_cell_wrong_arrow_is_named_by_both_cases(self, fixture, request):
        # both closed forms equal the derived arrow here, so each entry
        # reports the mutated cell, the given value and the expected one
        A = request.getfixturevalue(fixture).drop_arrow()
        R = derive_arrow(A)
        for x, y in itertools.product(range(A.n), repeat=2):
            wrong = np.array(R)
            wrong[x, y] = (R[x, y] + 1) % A.n
            rep = special_case_arrows(A.with_arrow(wrong))
            for name in ("case2-skew-chain", "case3-dual-boolean-diff"):
                entry = rep[name]
                assert entry.verdict == "fails", name
                assert entry.witness == (x, y), name
                assert (entry.lhs_value, entry.rhs_value) == (wrong[x, y], R[x, y]), name
                assert entry.checked == A.n * A.n, name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_mutated_chain_section_arrow_is_named_at_its_first_difference(self, data):
        # a skew chain: sections over a chain of 1 to 3 points, fibers 1 or 2
        points = data.draw(st.integers(1, 3))
        A = _chain_sections(tuple(data.draw(st.lists(st.integers(1, 2), min_size=points, max_size=points))))
        x, y, v = (data.draw(st.integers(0, A.n - 1)) for _ in range(3))
        arrow = np.array(A.arrow)
        arrow[x, y] = v
        rep = special_case_arrows(A.with_arrow(arrow))
        # each closed form, built here from its statement
        forms = {"case2-skew-chain": np.where(preceq_matrix(A), A.top, np.arange(A.n)[None, :])}
        try:
            forms["case3-dual-boolean-diff"] = dual_gb_diff(A).T
        except NoArrow as exc:
            entry = rep["case3-dual-boolean-diff"]
            assert entry.verdict == "skipped"
            assert entry.detail == f"dual difference unsolvable at pair ({exc.witness[0]}, {exc.witness[1]})"
        for name, expected in forms.items():
            entry = rep[name]
            differ = np.argwhere(arrow != expected)
            if not len(differ):
                assert entry.verdict == "holds", name
                continue
            at = tuple(int(i) for i in differ[0])  # argwhere lists cells in row-major order
            assert entry.verdict == "fails" and entry.witness == at, name
            assert (entry.lhs_value, entry.rhs_value) == (arrow[at], expected[at]), name


@functools.cache
def _chain_sections(fibers: tuple[int, ...]):
    return poset_sections_algebra(SurjectionModel.from_fiber_sizes(Poset.chain(len(fibers)), fibers))


@functools.cache
def _v_sections():
    # p < r > q
    V = Poset(("p", "q", "r"), [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    return poset_sections_algebra(SurjectionModel.from_fiber_sizes(V, (1, 2, 1)))


# S/D a Boolean lattice of 2 to 16 elements, a chain, or neither
LIFTING_FAMILY = (
    *(functools.partial(partial_function_algebra, nx, ny) for nx, ny in ((1, 1), (2, 2), (3, 1), (4, 1))),
    functools.partial(_chain_sections, (2, 1)),
    functools.partial(_chain_sections, (1, 2, 1)),
    _v_sections,
)


def test_d_congruence_at_partition_level(pf22):
    # D-related argument pairs produce D-related arrow values
    D, _, _ = greens(pf22)
    R = pf22.arrow
    for a in range(pf22.n):
        for b in range(pf22.n):
            for c in range(pf22.n):
                for d in range(pf22.n):
                    if D[a] == D[c] and D[b] == D[d]:
                        assert D[R[a, b]] == D[R[c, d]]


class TestDeriveCache:
    """derive_arrow reads the upsets of an algebra once; copies that keep
    meet, join and top reuse the table, and nothing else does.  check_lifting
    reads each upset once more."""

    @pytest.fixture
    def upset_calls(self, monkeypatch):
        calls = []
        real = skew_heyting.upset_at

        def counting(A, u):
            calls.append(A.n)
            return real(A, u)

        monkeypatch.setattr(skew_heyting, "upset_at", counting)
        return calls

    def test_verify_derives_each_algebra_once(self, tmp_path, pf22, upset_calls):
        path = tmp_path / "pf22.alg"
        path.write_text(emit_algebra_file(pf22))
        code, _ = run_command(["verify", str(path)])
        assert code == 0
        # R is the identity relation on pf22, and A/R is A itself
        _, L, R = greens(pf22)
        assert R.max() == pf22.n - 1 and L.max() < pf22.n - 1
        assert len(upset_calls) == 2 * pf22.n + quotient(pf22.drop_arrow(), L)[0].n

    def test_verify_on_a_commutative_input_derives_once(self, tmp_path, upset_calls):
        # L and R are both the identity relation: no quotient is derived
        A = partial_function_algebra(2, 1)
        path = tmp_path / "pf21.alg"
        path.write_text(emit_algebra_file(A))
        code, _ = run_command(["verify", str(path)])
        assert code == 0
        assert len(upset_calls) == 2 * A.n

    def test_only_copies_with_the_same_tables_share_the_result(self, upset_calls):
        A = partial_function_algebra(2, 2)
        first = derive_arrow(A.drop_arrow())
        assert derive_arrow(A) is first
        assert derive_arrow(A.with_arrow(first)) is first
        assert len(upset_calls) == A.n

        equal = make_algebra(A.names, A.meet, A.join, top=A.top)
        assert equal == A.drop_arrow() and repr(equal) == repr(A.drop_arrow())
        again = derive_arrow(equal)
        assert again is not first and np.array_equal(again, first)
        assert len(upset_calls) == 2 * A.n

        # a different (bogus) top is rejected before any upset is built
        with pytest.raises(BadConstant):
            derive_arrow(Algebra(A.names, A.meet, A.join, None, (A.top + 1) % A.n))
        assert len(upset_calls) == 2 * A.n

    def test_cache_dies_with_its_algebra(self):
        # with and without an arrow, and with S/D built
        for arrowless in (False, True):
            A = partial_function_algebra(1, 2)
            A = A.drop_arrow() if arrowless else A
            derived = derive_arrow(A)
            assert check_lifting(A) and lattice_image(A)[0].n < A.n
            ref = weakref.ref(A)
            gc.disable()
            try:
                del A
                assert ref() is None  # freed by reference counting, no cycle
            finally:
                gc.enable()
            assert not derived.flags.writeable

    def test_failures_are_not_cached(self, pf22):
        no_top = make_algebra(pf22.names, pf22.meet, pf22.join)
        for _ in range(2):
            with pytest.raises(NoTop):
                derive_arrow(no_top)


FAMILY = tuple((nx, ny) for nx in range(1, 7) for ny in range(1, 5) if (ny + 1) ** nx <= 100)
ORACLE_INSTANCES = {
    **DEEP_INSTANCES,
    **{f"pfn({nx},{ny})": (lambda nx=nx, ny=ny: partial_function_algebra(nx, ny)) for nx, ny in FAMILY},
}


def _lifting_outcome(A):
    out = check_lifting(A)
    return out.holds, out.witness or (), out.detail


def _q_arrow(A):
    D, _, _ = greens(A)
    return generalized_arrow(quotient(A.drop_arrow(), D)[0])


class TestAgreesWithUpsetOracle:
    """The derived table and the lifting outcome equal those of the
    per-upset route in ``heyting_oracle``, which builds every upset as an
    algebra and compares pair by pair."""

    @pytest.mark.parametrize("label", sorted(ORACLE_INSTANCES))
    def test_table_and_lifting(self, label):
        A = ORACLE_INSTANCES[label]().drop_arrow()
        assert np.array_equal(derive_arrow(A), derive_by_upsets(A))
        assert _lifting_outcome(A) == lifting(A, _q_arrow(A)) == (True, (), "")

    def test_poset_sections_up_to_three_points(self):
        count = 0
        for pts in (1, 2, 3):
            for base in all_posets(pts):
                for fibers in itertools.product((1, 2), repeat=pts):
                    model = SurjectionModel.from_fiber_sizes(base, fibers)
                    A = poset_sections_algebra(model)
                    assert np.array_equal(A.arrow, derive_by_upsets(A)), model
                    assert _lifting_outcome(A.drop_arrow()) == lifting(A, _q_arrow(A)), model
                    count += 1
        assert count == 2 + 2 * 4 + 5 * 8

    @pytest.mark.parametrize(
        "base, fibers",
        [(Poset.chain(1), (2,)), (Poset.chain(2), (2, 1)), (Poset.antichain(2), (1, 2))],
        ids=["chain1;2", "chain2;2,1", "antichain2;1,2"],
    )
    def test_lifting_under_every_single_cell_mutation_of_the_quotient_arrow(
        self, base, fibers, monkeypatch
    ):
        A = poset_sections_algebra(SurjectionModel.from_fiber_sizes(base, fibers)).drop_arrow()
        q_table = _q_arrow(A)
        m = len(q_table)
        for a, b, shift in itertools.product(range(m), range(m), range(1, m)):
            mutated = np.array(q_table)
            mutated[a, b] = (mutated[a, b] + shift) % m
            monkeypatch.setattr(skew_heyting, "generalized_heyting_arrow", lambda Q: mutated)
            got = _lifting_outcome(A)
            assert got == lifting(A, mutated)
            # every cell of S/D lies in the upset of some D-class
            assert got[0] is False
