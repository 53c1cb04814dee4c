import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identity_oracle import boxed_run_check
from identity_oracle import run_check as oracle_run_check
from test_cli import NON_SKEW_DOC
from test_heyting import DEEP_INSTANCES

from skewbench import (
    binormal_factorization,
    check_arrow_congruences,
    check_costrong_equivalence,
    check_heyting_axioms,
    check_imp_or,
    check_sh_axioms,
    check_sha,
    classify,
    derive_arrow,
    direct_product,
    greens,
    identities,
    lattice_image,
    leq_matrix,
    make_algebra,
    preceq_matrix,
    special_case_arrows,
    vertical_dual,
)
from skewbench.cli import emit_algebra_file, run_command
from skewbench.core import maximal_elements, minimal_elements
from skewbench.errors import PreconditionFailed
from skewbench.identities import (
    DECIDERS,
    GROUPS,
    NAMED,
    bind,
    decide,
    named_check,
    parse,
    run_check,
    run_identity,
    values_at,
)
from skewbench.models import partial_function_algebra, partial_function_boolean, search_family
from skewbench.properties import PROPERTY_NAMES, property_result
from skewbench.property_names import SKEW_AXIOMS


class TestFormulas:
    def test_every_registered_formula_parses(self):
        formulas = [f for group in GROUPS.values() for f in group] + list(NAMED.values())
        for formula in formulas:
            assert parse(formula).arity >= 1

    def test_chains_associate_to_the_left(self):
        c = parse("x∧y∧z=x∧z")
        assert c.lhs == ("m", ("m", 0, 1), 2) and c.rhs == ("m", 0, 2)

    def test_variables_numbered_in_fixed_order(self):
        # y comes after x whatever the order of appearance; u and v follow w
        assert parse("(y∨x∨y)→y=1").lhs == ("r", ("j", ("j", 1, 0), 1), 1)
        assert parse("x∧u∧x∧v∧x=x∧u∧v∧x").arity == 3

    def test_relations_and_equivalence(self):
        c = parse("x⪯y→z ⇔ x∧y⪯z")
        assert c.lhs == ("pre", 0, ("r", 1, 2)) and c.rhs == ("pre", ("m", 0, 1), 2)
        assert parse("x∖y=y∖∖x").lhs == ("d", 0, 1)
        assert parse("x∖y=y∖∖x").rhs == ("dd", 1, 0)

    @pytest.mark.parametrize(
        "bad", ["x∧y∨z=x", "x∧y", "x≤y", "x=y)", "(x=y", "x∧q=x", "x=y ⇔ x=y ⇔ x=y"]
    )
    def test_malformed_formula_rejected(self, bad):
        with pytest.raises(ValueError):
            parse(bad)

    def test_a_formula_without_a_variable_is_rejected(self):
        # a check quantifies over at least one variable, as every registered
        # formula does
        with pytest.raises(ValueError, match="no variable"):
            parse("1=1")

    def test_names_report_under_their_name(self):
        assert named_check("SH1").name == "SH1"
        assert named_check("SH1").lhs == named_check("H1").lhs == ("r", 0, 0)

    def test_constants_bound_to_bottom_and_top(self, chain2):
        assert run_identity("x∧0=0", chain2).holds
        assert not run_identity("x∧1=0", chain2).holds


class TestBinding:
    """run_identity and bind read every table a formula names from the
    algebra; only the differences, which no algebra carries, are given
    beside it."""

    @pytest.mark.parametrize("op", ["m", "j", "r", "leq", "pre"])
    def test_a_table_the_algebra_carries_is_not_an_op(self, pf22, op):
        with pytest.raises(TypeError, match=f"'{op}'"):
            run_identity("x∧x=x", pf22, **{op: pf22.meet})

    @pytest.mark.parametrize("op", ["m", "j", "r", "leq", "pre"])
    def test_bind_takes_no_table_the_algebra_carries(self, pf22, op):
        with pytest.raises(TypeError, match=f"'{op}'"):
            bind(pf22, **{op: pf22.meet})

    def test_a_formula_reading_what_is_not_bound_is_refused(self, pf22):
        sba, diff = partial_function_boolean(2, 2)
        for name, A, what in (
            ("SH1", pf22.drop_arrow(), "the arrow"),
            ("x∧0=0", pf22, "the bottom"),
            ("x→x=1", vertical_dual(pf22).with_arrow(diff), "the top"),
            ("skew-boolean-identities", sba, "the difference"),
        ):
            with pytest.raises(PreconditionFailed, match=f"reads {what}, and none is bound"):
                run_identity(name, A)
        assert run_identity("skew-boolean-identities", sba, d=diff).holds

    def test_every_suite_checks_the_arrow_the_algebra_carries(self, pf22):
        arrowless = pf22.drop_arrow()
        suites = (
            check_sh_axioms,
            check_sha,
            check_imp_or,
            check_arrow_congruences,
            special_case_arrows,
            check_heyting_axioms,
        )
        for suite in suites:
            with pytest.raises(PreconditionFailed, match="arrow"):
                suite(arrowless)

    def test_a_law_of_meet_and_join_builds_no_order(self):
        A = partial_function_algebra(2, 2)
        assert property_result(A, "symmetric").holds
        assert "leq" not in A._facts and "preceq" not in A._facts
        assert check_sha(A) and {"leq", "preceq"} <= A._facts.keys()


@pytest.fixture
def scans(monkeypatch):
    """Names of the checks ``run_check`` evaluates."""
    calls = []
    real = identities.run_check

    def counting(chk, tables):
        calls.append(chk.name)
        return real(chk, tables)

    monkeypatch.setattr(identities, "run_check", counting)
    return calls


class TestPropertyCache:
    def test_each_property_is_scanned_once(self, scans):
        A = partial_function_algebra(2, 2)
        rep = classify(A)
        scanned = len(scans)
        assert scanned > 0
        assert classify(A).entries == rep.entries
        check_costrong_equivalence(A)
        property_result(A, "skew-lattice")
        binormal_factorization(A)
        assert len(scans) == scanned

    def test_copies_with_the_same_tables_share_the_scans(self, scans):
        # normal fails on pfn(2,2), so it is scanned, after the skew lattice
        # axioms that let its decider be consulted
        A = partial_function_algebra(2, 2)
        property_result(A, "normal")
        property_result(A.drop_arrow(), "normal")
        axioms = [formula for name in SKEW_AXIOMS for formula in GROUPS[name]]
        assert scans == axioms + list(GROUPS["normal"])

    def test_unknown_property_is_a_key_error(self, pf22):
        with pytest.raises(KeyError):
            property_result(pf22, "no-such")

    def test_search_scans_only_its_property(self, scans):
        code, _ = run_command(
            ["search", "--family", "enum", "--max-size", "3", "--property", "symmetric", "--negate"]
        )
        assert code == 0
        assert set(scans) == set(GROUPS["symmetric"])
        assert len(scans) == len(list(search_family("enum", 3)))

    def test_skew_lattice_combines_its_axioms(self, semilattice2):
        rep = classify(semilattice2)
        skew = rep["skew-lattice"]
        assert skew.checked == sum(rep[name].checked for name in PROPERTY_NAMES[:5])
        assert (skew.detail, skew.witness) == ("absorption", rep["absorption"].witness)


@functools.cache
def _family_members() -> list:
    sizes = (("pfn", 40), ("sections", 40), ("enum", 12))
    return [build() for family, size in sizes for _, build in search_family(family, size)]


@st.composite
def _skew_lattices(draw):
    """A search family member, or the direct product of two with at most 60
    elements, with each factor possibly replaced by its vertical dual."""
    members = _family_members()
    factors = [draw(st.sampled_from(members))]
    if draw(st.booleans()):
        factors.append(draw(st.sampled_from([B for B in members if factors[0].n * B.n <= 60])))
    factors = [vertical_dual(A) if draw(st.booleans()) else A for A in factors]
    return functools.reduce(direct_product, factors)


# the decided laws that hold iff their decider proves them
_IFF = (GROUPS["normal"][0], GROUPS["conormal"][0])
# the decided laws of meet and join alone
_LATTICE_LAWS = sorted(set(DECIDERS) - {NAMED["SH4-prime"]})


class TestDeciders:
    @settings(max_examples=100, deadline=None)
    @given(A=_skew_lattices(), formula=st.sampled_from(_LATTICE_LAWS))
    def test_a_decider_agrees_with_the_scan(self, A, formula):
        assert property_result(A, "skew-lattice")
        check, tables = named_check(formula), bind(A)
        scan = run_check(check, tables)
        decided = decide(formula, A)
        if decided is not None:
            assert decided == scan and decided.holds
        else:
            assert run_identity(formula, A) == scan
            assert not (formula in _IFF and scan.holds), "a holding law the decider missed"
        if not scan.holds:
            lhs, rhs = values_at(check, tables, scan.witness)
            assert lhs != rhs

    def test_each_half_of_regular_is_the_law_that_decides_it_at_one_point(self, pf22):
        # every skew lattice the strategy draws is regular, so the proof is
        # pinned here instead: normal at (x, u, x, v∧x) is the meet half of
        # regular at (x, u, v), and conormal at (x, u, x, v∨x) the join half
        tables = bind(pf22)
        for half, law, op in zip(GROUPS["regular"], _IFF, (pf22.meet, pf22.join)):
            assert DECIDERS[half] is DECIDERS[law]
            for x, u, v in itertools.product(range(pf22.n), repeat=3):
                at = values_at(named_check(law), tables, (x, u, x, int(op[v, x])))
                assert at == values_at(named_check(half), tables, (x, u, v))

    def test_a_decided_verdict_counts_the_cells_compared(self):
        # |↑m|² for one ≤-minimal m, and |↓M|² for one ≤-maximal M: pfn(4,2)
        # has 16 minimal elements, each with an upset of 16
        A = partial_function_algebra(4, 2)
        assert minimal_elements(A).size == 16
        for name, B in (("conormal", A), ("normal", vertical_dual(A))):
            res = property_result(B, name)
            assert res.holds and res.checked == B.n**4
            assert res.evaluated == 16**2

    @settings(max_examples=60, deadline=None)
    @given(A=_skew_lattices())
    def test_one_block_stands_for_all(self, A):
        # the ≤-minimal elements share the bottom D-class and the ≤-maximal
        # ones the top one, and z ↦ e′∨z∨e′ (z ↦ e′∧z∧e′) carries ↑e onto
        # ↑e′ under ∨ (↓e onto ↓e′ under ∧) within a D-class
        D = greens(A)[0]
        leq = leq_matrix(A)
        for op, ends, blocks in ((A.join, minimal_elements(A), leq), (A.meet, maximal_elements(A), leq.T)):
            assert np.unique(D[ends]).size == 1
            B = np.flatnonzero(blocks[ends[0]])
            for e in ends:
                f = op[op[e], e]  # z ↦ e∘z∘e
                assert sorted(f[B].tolist()) == np.flatnonzero(blocks[e]).tolist()
                assert np.array_equal(f[op[np.ix_(B, B)]], op[np.ix_(f[B], f[B])])

    def test_no_precondition_asks_for_a_decided_formula(self):
        # decide runs each group it needs; a need with a decided formula
        # would ask for itself again
        for needs, _ in DECIDERS.values():
            for need in needs:
                assert not set(GROUPS[need]) & set(DECIDERS), need

    def test_the_deciders_store_nothing_on_the_algebra(self):
        A = partial_function_algebra(3, 2)
        classify(A)
        check_sh_axioms(A)
        assert not [key for key in A._facts if key.startswith("decider:")]

    @pytest.mark.parametrize("formula,dual", [(GROUPS["conormal"][0], False), (GROUPS["normal"][0], True)])
    def test_decided_in_any_call_order(self, formula, dual):
        # on a fresh algebra the decider asks for the skew lattice verdict;
        # pfn(3,2) is conormal, so its vertical dual is normal
        A = partial_function_algebra(3, 2)
        A = vertical_dual(A) if dual else A
        decided = decide(formula, A)
        assert decided is not None and decided == run_check(named_check(formula), bind(A))

    def test_check_and_verify_scan_no_decided_join_law(self, scans, tmp_path):
        decided = {GROUPS["conormal"][0], GROUPS["regular"][1]}
        path = tmp_path / "in.alg"
        for command, (x, y) in (("check", (4, 2)), ("verify", (6, 1))):
            path.write_text(emit_algebra_file(partial_function_algebra(x, y)))
            assert run_command([command, str(path)])[0] == 0
        assert scans and not decided & set(scans)
        path.write_text(NON_SKEW_DOC)
        assert run_command(["check", str(path)])[0] == 1
        assert decided <= set(scans)

    def test_a_failing_law_keeps_the_scan_witness(self):
        # the first failing tuple of conormal on the dual of an enumerated
        # skew lattice, as search --negate reports it
        search = ["search", "--family", "enum", "--max-size", "3", "--property", "conormal", "--negate"]
        code, out = run_command(["--format", "machine", *search])
        assert code == 1 and b"witness=dual(enum3#3)" in out and b"witness=b,a,c,a" in out


def _chain(n: int):
    """The n-element chain with its top declared."""
    i = np.arange(n)
    return make_algebra([f"c{k}" for k in i], np.minimum.outer(i, i), np.maximum.outer(i, i), top=n - 1)


@functools.cache
def _costrong_members() -> list:
    return [
        A
        for A in _family_members()
        if A.top is not None and property_result(A, "skew-lattice") and property_result(A, "co-strongly-distributive")
    ]


@st.composite
def _costrong_with_arrow(draw):
    """A co-strongly distributive skew lattice with top (a search family
    member, the product of two with at most 60 elements, or a chain) and
    its derived arrow, with a few cells changed in some draws."""
    members = _costrong_members()
    kind = draw(st.sampled_from(["member", "product", "chain"]))
    if kind == "chain":
        A = _chain(draw(st.integers(2, 24)))
    elif kind == "member":
        A = draw(st.sampled_from(members))
    else:
        A = draw(st.sampled_from([B for B in members if B.n <= 30]))
        A = direct_product(A, draw(st.sampled_from([B for B in members if A.n * B.n <= 60])))
    arrow = np.array(derive_arrow(A.drop_arrow()))
    for _ in range(draw(st.sampled_from([0, 1, 1, 3]))):
        a, b, v = (draw(st.integers(0, A.n - 1)) for _ in range(3))
        arrow[a, b] = v
    return A, arrow


def _cubes_of_minimal_upsets(A) -> int:
    """Σ|↑m|³ over the ≤-minimal m of A."""
    leq = leq_matrix(A)
    return int((leq[leq.sum(axis=0) == 1].sum(axis=1) ** 3).sum())


class TestArrowMeetDecider:
    """SH4-prime is decided on the upsets ↑m of the ≤-minimal elements m of
    a co-strongly distributive skew lattice, as u→(a∧b) = (u→a)∧(u→b) for
    u, a, b in ↑m, whatever the arrow table."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=_costrong_with_arrow())
    def test_decided_exactly_where_the_scan_holds(self, drawn):
        A, arrow = drawn
        A = A.with_arrow(arrow)
        check, tables = named_check("SH4-prime"), bind(A)
        scan = run_check(check, tables)
        decided = decide("SH4-prime", A)
        assert (decided is not None) == scan.holds
        assert run_identity("SH4-prime", A) == scan
        if decided is not None:
            assert decided == scan and decided.evaluated == _cubes_of_minimal_upsets(A)
        else:
            _assert_failure_confirmed(scan, check, tables)

    @pytest.mark.parametrize("x,y,cells", [(4, 2, 65_536), (6, 1, 262_144)])
    def test_cells_compared_on_partial_function_algebras(self, x, y, cells):
        A = partial_function_algebra(x, y)
        res = check_sh_axioms(A.with_arrow(derive_arrow(A)))["SH4-prime"]
        assert res.holds and res.checked == A.n**4 and res.evaluated == cells

    def test_a_mutated_arrow_after_a_good_one_fails(self):
        # nothing the decider proves for one arrow is kept for the next
        A = partial_function_algebra(2, 2)
        good = derive_arrow(A.drop_arrow())
        assert check_sh_axioms(A.with_arrow(good))["SH4-prime"].holds
        arrow = np.array(good)
        arrow[A.top, A.top] = A.index("{p:0}")
        res = check_sh_axioms(A.with_arrow(arrow))["SH4-prime"]
        assert not res.holds and res.checked == A.n**4
        _assert_failure_confirmed(res, named_check("SH4-prime"), bind(A.with_arrow(arrow)))
        assert res == run_check(named_check("SH4-prime"), bind(A.with_arrow(arrow)))

    def test_not_decided_where_not_co_strongly_distributive(self, n5):
        # N5 is a lattice but not distributive; SH4-prime holds for the
        # constant arrow, and the scan must say so, not the decider
        arrow = np.full((n5.n, n5.n), n5.top, dtype=np.int16)
        n5 = n5.with_arrow(arrow)
        tables = bind(n5)
        assert property_result(n5, "skew-lattice")
        assert not property_result(n5, "co-strongly-distributive")
        assert decide("SH4-prime", n5) is None
        assert run_identity("SH4-prime", n5) == run_check(named_check("SH4-prime"), tables)
        assert run_identity("SH4-prime", n5).holds

    def test_not_decided_without_an_arrow(self, pf22):
        # the decider reads the arrow the algebra carries, and pf22's
        # arrowless reduct carries none, however the arrow it had held
        assert decide("SH4-prime", pf22).holds
        assert decide("SH4-prime", pf22.drop_arrow()) is None

    @pytest.mark.parametrize("x,y,cells", [(4, 2, 65_536), (6, 1, 262_144)])
    def test_decided_on_a_fresh_algebra(self, x, y, cells):
        # no verdict cached beforehand: the decider asks for its own
        A = partial_function_algebra(x, y)
        res = check_sh_axioms(A)["SH4-prime"]
        assert res.holds and res.checked == A.n**4 and res.evaluated == cells

    def test_peak_memory_on_a_chain_of_160(self):
        A = _chain(160)
        A = A.with_arrow(derive_arrow(A))
        tracemalloc.start()
        try:
            res = decide("SH4-prime", A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.holds and res.evaluated == 160**3
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_sh4_is_still_scanned_where_sh4_prime_is_decided(self, command, scans, tmp_path):
        # bench/test_bench.py asserts identities.arity4_tuples > 0 on verify
        # pfn(5,1), where SH4 and SH4-prime are the only four-variable scans
        path = tmp_path / "in.alg"
        for x in (5, 6):
            scans.clear()
            path.write_text(emit_algebra_file(partial_function_algebra(x, 1)))
            assert run_command([command, str(path)])[0] == 0
            assert "SH4" in scans, f"{command} on pfn({x},1) scans no four-variable identity any more"
            assert "SH4-prime" not in scans, f"{command} on pfn({x},1) scans SH4-prime instead of deciding it"


@st.composite
def _mutated_arrows(draw):
    """A co-strongly distributive search family member with top and its
    derived arrow with one to three cells changed."""
    A = draw(st.sampled_from(_costrong_members()))
    arrow = np.array(derive_arrow(A.drop_arrow()))
    for _ in range(draw(st.integers(1, 3))):
        a, b, v = (draw(st.integers(0, A.n - 1)) for _ in range(3))
        arrow[a, b] = v
    return A, arrow


# the formula whose witness a failing check_sha entry gives, by its detail
_SHA_FORMULAS = {"adjunction fails": "SHA", "x→y=1 iff x⪯y fails": "x→y=1 ⇔ x⪯y"}


def _assert_violated(formulas, tables, point):
    sides = [values_at(named_check(f), tables, point) for f in formulas]
    assert any(lhs != rhs for lhs, rhs in sides), (formulas, point)


@settings(max_examples=60, deadline=None)
@given(drawn=_mutated_arrows(), with_n5=st.booleans())
def test_every_failing_witness_is_a_violation(drawn, with_n5, n5):
    """The witnesses of check_sha and check_imp_or on a mutated arrow, and
    of quasi-distributive on the member or its product with the
    nondistributive N5, re-evaluate to a violation of their formula."""
    A, arrow = drawn
    sha = check_sha(A.with_arrow(arrow))
    if not sha.holds and sha.detail in _SHA_FORMULAS:
        tables = {**bind(A.with_arrow(arrow)), "pre": preceq_matrix(A)}
        _assert_violated([_SHA_FORMULAS[sha.detail]], tables, sha.witness)
    elif not sha.holds:
        assert sha.detail == "sufficiency conditions hold but arrow differs from derived"
        assert arrow[sha.witness] != derive_arrow(A.drop_arrow())[sha.witness]
    imp = check_imp_or(A.with_arrow(arrow))
    if not imp.holds:
        _assert_violated(["imp-or"], bind(A.with_arrow(arrow)), imp.witness)
    B = direct_product(A, n5) if with_n5 else A
    quasi = property_result(B, "quasi-distributive")
    assert quasi.holds != with_n5
    if not quasi.holds:
        # the witness lists class representatives of S/D
        Q, project = lattice_image(B)
        point = tuple(int(project[r]) for r in quasi.witness)
        _assert_violated(GROUPS["lattice-distributive"], bind(Q), point)


def _near_lattice(n: int, seed: int):
    """Chain tables for every operation and the chain order for both
    relations, with ``seed`` cells of each changed in rows and columns
    n//2 and up, so that most failures lie deep in the tuple space."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    ops = {
        "m": np.minimum(i, j),
        "j": np.maximum(i, j),
        "r": np.where(i <= j, n - 1, j),
        "d": np.where(i <= j, 0, i),
        "dd": np.where(i >= j, n - 1, i),
    }
    tables = {"0": 0, "1": n - 1}
    for key, table in ops.items():
        table = table.astype(np.int16)
        for _ in range(seed):
            a, b = rng.integers(n // 2, n, 2)
            table[a, b] = rng.integers(0, n)
        tables[key] = table
    rels = {}
    for key in ("leq", "pre"):
        rel = i <= j
        for _ in range(seed):
            a, b = rng.integers(n // 2, n, 2)
            rel[a, b] = ~rel[a, b]
        rels[key] = rel
    return tables, rels


_FORMULAS = sorted({f for group in GROUPS.values() for f in group} | set(NAMED.values()))


class TestBoxedEngine:
    # n = 2, 5 and 17 fit four variables in one box or in ranges of x; 41
    # and 90 take one x and a range of y per box for four variables
    @pytest.mark.parametrize("n", [2, 5, 17, 41, 90])
    def test_agrees_with_the_chunked_oracle(self, n):
        # at n = 90 the uncorrupted tables (seed 0) are left out: on them the
        # oracle scans all n^k tuples of every check, which takes seconds
        for seed in (1, 2, 3) if n == 90 else (0, 1, 2, 3):
            tables, rels = _near_lattice(n, seed)
            for formula in _FORMULAS:
                check = parse(formula)
                got, want = run_check(check, {**tables, **rels}), oracle_run_check(check, tables, rels)
                assert got == want, (n, seed, formula)

    @pytest.mark.parametrize("name", ["SH4", "SH4-prime"])
    def test_peak_memory_of_a_four_variable_check(self, name):
        A = partial_function_algebra(4, 2)
        tables = bind(A)
        tracemalloc.start()
        try:
            res = run_check(named_check(name), tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.holds and res.checked == 81**4
        assert peak <= 4 * 2**20


# x∨w reads the last variable w bare, so the images hold w's values in a
# column of their own, which is not w over its full axis
_LAST_BARE = "x∨w∨(y∨z∨y)=x∨(y∨z∨y)∨w"


def _assert_failure_confirmed(res, check, tables):
    lhs, rhs = values_at(check, tables, res.witness)
    assert lhs != rhs and (lhs, rhs) == (res.lhs_value, res.rhs_value)


class TestImageEngine:
    """The image-compressed engine returns exactly what the boxed engine in
    ``identity_oracle`` returns: verdict, witness and side values."""

    @pytest.mark.parametrize("n", [2, 5, 17, 41, 90])
    def test_agrees_with_the_boxed_oracle(self, n):
        for seed in (0, 1, 2, 3):
            tables, rels = _near_lattice(n, seed)
            for formula in _FORMULAS + [_LAST_BARE]:
                check = parse(formula)
                got, want = run_check(check, {**tables, **rels}), boxed_run_check(check, tables, rels)
                assert got == want, (n, seed, formula)

    def test_a_bare_last_variable_is_compressed(self):
        tables, rels = _near_lattice(17, 0)
        res = run_check(parse(_LAST_BARE), {**tables, **rels})
        assert res.holds and res.evaluated < res.checked

    @pytest.mark.parametrize("label", sorted(DEEP_INSTANCES))
    def test_arrow_mutations_agree_with_the_boxed_oracle(self, label):
        A = DEEP_INSTANCES[label]()
        rng = np.random.default_rng(7)
        failures = 0
        for _ in range(6):
            arrow = np.array(A.arrow)
            a, b = rng.integers(0, A.n, 2)
            arrow[a, b] = (arrow[a, b] + rng.integers(1, A.n)) % A.n
            tables = bind(A.with_arrow(arrow))
            for name in ("SH4", "SH4-prime", "imp-or"):
                check = named_check(name)
                res = run_check(check, tables)
                assert res == boxed_run_check(check, tables), (label, a, b, name)
                if not res.holds:
                    failures += 1
                    _assert_failure_confirmed(res, check, tables)
        assert failures

    @pytest.mark.parametrize("name", ["SH4", "SH4-prime"])
    def test_images_shrink_the_four_variable_checks(self, name):
        A = partial_function_algebra(4, 2)
        res = run_check(named_check(name), bind(A))
        assert res.holds and res.checked == 81**4
        assert res.evaluated <= res.checked / 25

    def test_a_check_in_one_box_evaluates_every_tuple(self, pf22):
        res = run_identity("imp-or", pf22)
        assert res.holds and res.evaluated == res.checked == 9**3

    def test_images_not_fewer_than_tuples_fall_back_after_one_box(self):
        # on a chain the images of SH4-prime, which hold y, are more than a
        # quarter of the triples (y, z, w)
        tables, rels = _near_lattice(41, 0)
        res = run_check(named_check("SH4-prime"), {**tables, **rels})
        assert res.holds and res.checked < res.evaluated <= res.checked + identities._BOX

    def test_evaluated_is_outside_equality_and_summed_by_groups(self, pf22):
        res = run_identity("absorption", pf22)
        parts = [run_identity(f, pf22) for f in GROUPS["absorption"]]
        assert res.evaluated == sum(p.evaluated for p in parts) > 0
        assert res == res.replace(evaluated=0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_arrow_witness_is_the_first_violation(data):
    """A single-cell arrow mutation that breaks SH4 or SH4-prime is reported
    at the boxed engine's witness, which re-evaluates to a violation; a
    small box makes the images span several boxes."""
    x, y = data.draw(st.sampled_from([(2, 2), (3, 1), (2, 3)]))
    A = partial_function_algebra(x, y)
    a, b, v = (data.draw(st.integers(0, A.n - 1)) for _ in range(3))
    arrow = np.array(A.arrow)
    arrow[a, b] = v
    tables = bind(A.with_arrow(arrow))
    box = data.draw(st.sampled_from([identities._BOX, 1 << 6]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_BOX", box)
        for name in ("SH4", "SH4-prime"):
            check = named_check(name)
            res = run_check(check, tables)
            assert res == boxed_run_check(check, tables), (x, y, a, b, v, box, name)
            if not res.holds:
                _assert_failure_confirmed(res, check, tables)
