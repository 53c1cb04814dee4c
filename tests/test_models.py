import itertools
import pickle
import time

import numpy as np
import pytest
from heyting_oracle import section_arrow_candidates

from skewbench import (
    classify,
    derive_arrow,
    find_isomorphism,
    generalized_heyting_arrow,
    make_algebra,
    models,
    skew_heyting,
    vertical_dual,
)
from skewbench.cli import emit_algebra_file, run_command
from skewbench.errors import (
    MAX_CARRIER,
    BadPoset,
    EsakiaFormulaMismatch,
    InconsistencyDetected,
    PreconditionFailed,
    TooLarge,
)
from skewbench.models import (
    Poset,
    SurjectionModel,
    all_posets,
    default_point_names,
    enumerate_skew_lattices,
    from_skew_boolean,
    partial_function_algebra,
    partial_function_boolean,
    poset_sections_algebra,
    sections_algebra,
    upset_heyting,
)


def reference_sections(fibers, domains, label, up=lambda mask: mask):
    """Sections as dicts, built one table cell at a time: the reference for
    the table builder.  Returns names, override meet, common-restriction
    join and implication tables, in (domain mask, values) order; f→g is g
    restricted to up(dom g ∖ dom f), the residue when ``up`` is the identity."""
    maps = []
    for mask in domains:
        dom = [p for p in range(len(fibers)) if mask >> p & 1]
        maps += [dict(zip(dom, vals)) for vals in itertools.product(*(range(fibers[p]) for p in dom))]
    index = {tuple(sorted(f.items())): i for i, f in enumerate(maps)}

    def table(op):
        return [[index.get(tuple(sorted(op(f, g).items())), -1) for g in maps] for f in maps]

    names = tuple("{" + ",".join(label(p, v) for p, v in sorted(f.items())) + "}" for f in maps)
    meet = table(lambda f, g: {**g, **f})
    join = table(lambda f, g: {p: v for p, v in g.items() if p in f})

    def arrow(f, g):
        keep = up(sum(1 << p for p in g if p not in f))
        return {p: v for p, v in g.items() if keep >> p & 1}

    return names, meet, join, table(arrow)


def _derived_section_arrow(model):
    """The arrow ``derive_arrow`` derives on the arrowless poset sections."""
    return derive_arrow(poset_sections_algebra(model).drop_arrow())


def write_poset(path, P, leq=None) -> str:
    """Write ``P`` as a poset document at ``path``, or the relation ``leq``
    on its points where given; returns the path."""
    rows = (" ".join("1" if c else "0" for c in row) for row in (P.leq if leq is None else leq))
    path.write_text("points: " + " ".join(P.points) + "\nleq:\n" + "\n".join(rows) + "\n")
    return str(path)


class TestSectionTables:
    @pytest.mark.parametrize("x,y", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 1), (5, 1), (3, 3)])
    def test_pfn_matches_reference(self, x, y):
        xs = default_point_names(x)
        names, meet, join, residue = reference_sections([y] * x, range(1 << x), lambda p, v: f"{xs[p]}:{v}")
        A = partial_function_algebra(x, y)
        assert (A.names, A.top) == (names, 0)
        for got, want in ((A.meet, meet), (A.join, join), (A.arrow, residue)):
            assert np.array_equal(got, want)

    def test_sections_match_reference(self):
        model = SurjectionModel.from_fiber_sizes(("a", "b", "c"), (3, 1, 2))
        names, meet, join, residue = reference_sections(
            (3, 1, 2), range(8), lambda p, v: f"{'abc'[p]}:{model.total[model.fiber(p)[v]]}"
        )
        A = sections_algebra(model)
        assert (A.names, A.top) == (names, 0)
        for got, want in ((A.meet, meet), (A.join, join), (A.arrow, residue)):
            assert np.array_equal(got, want)

    def test_poset_sections_match_reference(self):
        for pts in (1, 2, 3):
            for P in all_posets(pts):
                for fibers in itertools.product((1, 2), repeat=pts):
                    model = SurjectionModel.from_fiber_sizes(P, fibers)
                    names, meet, join, arrow = reference_sections(
                        fibers, P.upset_masks, lambda p, v: f"{P.points[p]}:{P.points[p]}{v}", P.up
                    )
                    A = poset_sections_algebra(model)
                    assert (A.names, A.top) == (names, 0)
                    for got, want in ((A.meet, meet), (A.join, join), (A.arrow, arrow)):
                        assert np.array_equal(got, want)

    def test_poset_section_arrow_is_the_derived_arrow(self):
        # derive_arrow on the arrowless algebra is the oracle of the closed form
        count = 0
        for pts in range(1, 5):
            for P in all_posets(pts):
                for fibers in itertools.product((1, 2), repeat=pts):
                    A = poset_sections_algebra(SurjectionModel.from_fiber_sizes(P, fibers))
                    assert np.array_equal(A.arrow, derive_arrow(A.drop_arrow())), (P.leq, fibers)
                    count += 1
        assert count == 2 + 2 * 4 + 5 * 8 + 16 * 16

    def test_building_sections_derives_no_arrow(self, monkeypatch):
        def unexpected(A):
            raise AssertionError("derive_arrow called")

        monkeypatch.setattr(skew_heyting, "derive_arrow", unexpected)
        poset_sections_algebra(SurjectionModel.from_fiber_sizes(Poset.chain(3), (2, 1, 2)))
        assert len(list(models.search_family("sections", 20))) > 10

    def test_result_outside_the_carrier_is_an_inconsistency(self):
        # {p} overridden by {q} has domain {p,q}, which is not listed
        with pytest.raises(InconsistencyDetected, match="the meet of two sections"):
            models._Sections([["p:0"], ["q:0"]], (0, 1, 2)).algebra()

    def test_difference_is_the_transposed_arrow(self, pf22):
        _, diff = partial_function_boolean(2, 2)
        assert np.array_equal(diff, pf22.arrow.T)


class TestPartialFunctionAlgebra:
    def test_pf12_carrier_and_meet(self, pf12):
        assert pf12.names == ("{}", "{p:0}", "{p:1}")
        p0, p1 = pf12.index("{p:0}"), pf12.index("{p:1}")
        # override meet keeps the first argument on common ground
        assert pf12.meet[p0, p1] == p0

    def test_pf22_arrow_example(self, pf22):
        f, g = pf22.index("{p:0}"), pf22.index("{p:1,q:0}")
        assert pf22.names[int(pf22.arrow[f, g])] == "{q:0}"

    def test_arrow_diagonal_is_top(self, pf12, pf22):
        for A in (pf12, pf22):
            for x in range(A.n):
                assert A.arrow[x, x] == A.top

    def test_family_classification(self):
        for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
            A = partial_function_algebra(nx, ny)
            rep = classify(A)
            assert rep.holds("skew-lattice")
            assert rep.holds("co-strongly-distributive")
            assert A.top is not None

    def test_size_bound(self):
        with pytest.raises(TooLarge):
            partial_function_algebra(5, 5, bound=100)

    def test_int16_carrier_limit(self):
        # 401**3 elements: refused before any row is built, whatever the bound
        with pytest.raises(TooLarge):
            partial_function_algebra(3, 400, bound=10**8)

    def test_size_is_counted_before_a_point_is_named(self, monkeypatch):
        def unexpected(k):
            raise AssertionError(f"{k} points named")

        monkeypatch.setattr(models, "default_point_names", unexpected)
        with pytest.raises(TooLarge, match="has more than 10000 elements, bound is 10000"):
            partial_function_algebra(10**9, 2)


class TestSectionsAlgebra:
    def test_coordinate_projection_isomorphic_to_pfn(self, pf22):
        model = SurjectionModel.coordinate_projection(("p", "q"), ("0", "1"))
        S = sections_algebra(model)
        assert find_isomorphism(S, pf22) is not None

    def test_singleton_base_two_fiber_is_pf12(self, pf12):
        model = SurjectionModel.from_fiber_sizes(("x",), (2,))
        S = sections_algebra(model)
        assert find_isomorphism(S, pf12) is not None

    def test_oversized_fibers_are_refused_before_a_point_is_named(self):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="has more than 32768 elements"):
            sections_algebra(SurjectionModel.from_fiber_sizes(("p", "q", "r"), (3000000, 1, 1)))
        assert time.perf_counter() - start < 0.5

    def test_fibers_are_refused_once_one_plus_their_sum_passes_the_carrier_limit(self):
        # the empty section and a section per value over {p}: 1 + Σf elements at least
        assert len(SurjectionModel.from_fiber_sizes(("p", "q"), (MAX_CARRIER - 2, 1)).total) == MAX_CARRIER - 1
        with pytest.raises(TooLarge):
            SurjectionModel.from_fiber_sizes(("p", "q"), (MAX_CARRIER - 1, 1))

    def test_identity_projection_commutative(self):
        model = SurjectionModel.from_fiber_sizes(("p", "q", "r"), (1, 1, 1))
        S = sections_algebra(model)
        rep = classify(S)
        assert rep.holds("symmetric")
        assert np.array_equal(S.meet, S.meet.T)


class TestUpsetHeyting:
    def test_two_chain_entries(self):
        L = upset_heyting(Poset.chain(2, ["a", "b"]))
        assert L.names == ("{}", "{b}", "{a,b}")
        full, b, empty = L.index("{a,b}"), L.index("{b}"), L.index("{}")
        assert L.arrow[full, b] == b
        assert L.arrow[b, empty] == empty

    def test_antichain_is_boolean(self, chain2):
        from skewbench import direct_product

        L = upset_heyting(Poset.antichain(2))
        boolean4 = direct_product(chain2, chain2)
        assert find_isomorphism(L.drop_arrow(), boolean4) is not None

    def test_single_point_is_chain2(self, chain2):
        L = upset_heyting(Poset.antichain(1))
        assert find_isomorphism(L.drop_arrow(), chain2) is not None

    def test_matches_oracle_on_sample(self):
        for P in all_posets(4)[:6]:
            L = upset_heyting(P)
            assert np.array_equal(generalized_heyting_arrow(L.drop_arrow()), L.arrow)

    def test_mismatched_arrow_names_the_first_differing_pair(self, monkeypatch):
        L = upset_heyting(Poset.antichain(2))
        u, v = (int(i) for i in np.argwhere(L.arrow != L.top)[0])
        monkeypatch.setattr(Poset, "down", lambda self, mask: 0)  # every arrow is the top
        with pytest.raises(EsakiaFormulaMismatch, match=rf"at \({L.names[u]}, {L.names[v]}\)") as err:
            upset_heyting(Poset.antichain(2))
        assert err.value.witness == (u, v)

    @staticmethod
    def _five_point():
        # p < r, q < r, r < s, and t incomparable to all of them
        leq = np.eye(5, dtype=bool)
        for a, b in ((0, 2), (1, 2), (2, 3), (0, 3), (1, 3)):
            leq[a, b] = True
        return Poset(("p", "q", "r", "s", "t"), leq)

    def test_model_upsets_bytes_match_the_cell_by_cell_tables(self, tmp_path):
        """``model upsets`` emits exactly the algebra file of the tables
        built one cell at a time from the upset masks."""
        posets = [P for k in range(1, 5) for P in all_posets(k)] + [self._five_point()]
        for i, P in enumerate(posets):
            masks = P.upset_masks
            index = {m: j for j, m in enumerate(masks)}
            full = (1 << P.n) - 1
            reference = make_algebra(
                [P.subset_name(m) for m in masks],
                [[index[a & b] for b in masks] for a in masks],
                [[index[a | b] for b in masks] for a in masks],
                top=index[full],
                bottom=index[0],
                arrow=[[index[full & ~P.down(a & ~b)] for b in masks] for a in masks],
            )
            code, out = run_command(["model", "upsets", write_poset(tmp_path / f"p{i}.poset", P)])
            assert code == 0
            assert out == emit_algebra_file(reference).encode(), P.points

    def test_bound_counts_the_upsets(self):
        assert upset_heyting(Poset.antichain(3), bound=8).n == 8
        with pytest.raises(TooLarge):
            upset_heyting(Poset.antichain(3), bound=7)


class TestPoset:
    def test_the_relation_is_a_copy(self):
        leq = np.eye(3, dtype=bool)
        P = Poset(("a", "b", "c"), leq)
        assert P.leq is not leq and leq.flags.writeable
        leq[0, 1] = True
        assert np.array_equal(P.leq, np.eye(3, dtype=bool)) and not P.leq.flags.writeable


class TestPosetSections:
    def test_single_point_base_is_pf12(self, pf12):
        model = SurjectionModel.from_fiber_sizes(Poset.antichain(1), (2,))
        A = poset_sections_algebra(model)
        assert find_isomorphism(A, pf12) is not None

    def test_singleton_fibers_give_upset_reduct(self):
        P = Poset.chain(2, ["a", "b"])
        model = SurjectionModel.from_fiber_sizes(P, (1, 1))
        A = poset_sections_algebra(model)
        assert np.array_equal(A.meet, A.meet.T)
        # one section per upset: the reduct mirrors the upset lattice upside down
        assert A.n == len(P.upset_masks)

    def test_arrow_diagonal_is_top(self):
        model = SurjectionModel.from_fiber_sizes(Poset.chain(2, ["a", "b"]), (2, 2))
        A = poset_sections_algebra(model)
        for x in range(A.n):
            assert A.arrow[x, x] == A.top

    def test_formula_resolution_uniform(self):
        # the second-argument up-closed restriction is the only closed form
        # matching the derived arrow on every base
        winners = set()
        for pts in (1, 2):
            for base in all_posets(pts):
                for fibers in itertools.product((1, 2), repeat=pts):
                    model = SurjectionModel.from_fiber_sizes(base, fibers)
                    verdicts = section_arrow_candidates(model, _derived_section_arrow(model))
                    assert verdicts["second-arg-upclosed"] is None
                    winners.add(tuple(name for name, wrong in verdicts.items() if wrong is None))
        assert all("second-arg-upclosed" in w for w in winners)
        # the printed first-argument restriction fails on every nontrivial model
        model = SurjectionModel.from_fiber_sizes(Poset.chain(2, ["a", "b"]), (2, 2))
        assert section_arrow_candidates(model, _derived_section_arrow(model))["printed-first-arg-upclosed"] is not None

    def test_resolution_compares_against_the_derived_arrow(self, monkeypatch):
        # the built arrow is the second candidate itself, so a wrong build
        # must not make that candidate hold
        model = SurjectionModel.from_fiber_sizes(Poset.chain(2), (2, 2))
        real = models._Sections.algebra

        def wrong_arrow(self):
            A = real(self)
            return A.with_arrow(np.full_like(A.arrow, A.top))

        monkeypatch.setattr(models._Sections, "algebra", wrong_arrow)
        verdicts = section_arrow_candidates(model, _derived_section_arrow(model))
        assert verdicts["second-arg-upclosed"] is None
        assert verdicts["printed-first-arg-upclosed"] is not None
        wrong = poset_sections_algebra(model).arrow
        assert section_arrow_candidates(model, wrong)["second-arg-upclosed"] is not None


class TestPosetsPastSixtyThreePoints:
    def test_upset_masks_are_every_upset_in_ascending_order(self):
        for pts in range(1, 5):
            for P in all_posets(pts):
                assert list(P.upset_masks) == [m for m in range(1 << P.n) if P.up(m) == m]

    def test_chain_of_seventy_has_seventy_one_upsets(self):
        full = (1 << 70) - 1
        assert Poset.chain(70).upset_masks == tuple(sorted(full & ~((1 << k) - 1) for k in range(71)))

    def test_sections_whose_codes_need_64_bits_are_refused(self, tmp_path):
        # 71 sections, but the radix codes need 70 bits
        path = write_poset(tmp_path / "chain70.poset", Poset.chain(70))
        code, out = run_command(["model", "poset-sections", path, "--fibers", ",".join(["1"] * 70)])
        assert code == 2 and b"need codes of 64 bits or more" in out

    @pytest.mark.parametrize("middle", [1, 256])
    def test_a_relation_missing_one_composite_is_not_transitive(self, middle, tmp_path):
        # p0 < each middle point < the last point, without p0 ≤ the last:
        # 256 two-step paths once wrapped a uint8 count of them to zero
        n = middle + 2
        leq = np.eye(n, dtype=bool)
        leq[0, 1 : n - 1] = leq[1 : n - 1, n - 1] = True
        with pytest.raises(BadPoset, match="relation is not transitive"):
            Poset(default_point_names(n), leq)
        path = write_poset(tmp_path / "gap.poset", Poset.antichain(n), leq)
        code, out = run_command(["model", "upsets", path])
        assert code == 2 and b"[relation is not transitive]" in out

    def test_antichain_of_1100_points_is_refused_by_size(self, tmp_path):
        path = write_poset(tmp_path / "antichain1100.poset", Poset.antichain(1100))
        code, out = run_command(["model", "poset-sections", path, "--fibers", ",".join(["1"] * 1100)])
        assert code == 2 and b"section algebra has more than 10000 elements" in out


class TestFromSkewBoolean:
    def test_round_trip_pf22(self, pf22):
        sba, diff = partial_function_boolean(2, 2)
        back = from_skew_boolean(sba, diff)
        assert back == pf22

    def test_two_element_boolean(self, chain2):
        # the 2-chain is itself a skew Boolean algebra with x∖y = x∧¬y
        result = from_skew_boolean(chain2, np.array([[0, 0], [1, 0]]))
        assert result.top == chain2.bottom
        derived = derive_arrow(result.drop_arrow())
        assert np.array_equal(result.arrow, derived)

    def test_non_skew_lattice_is_refused_with_the_failing_axiom(self, left_zero_top):
        with pytest.raises(PreconditionFailed) as info:
            from_skew_boolean(vertical_dual(left_zero_top), np.zeros((3, 3), dtype=int))
        assert str(info.value) == "not a skew Boolean algebra: absorption: (x∧y)∨y=y"
        assert info.value.witness == (0, 1)

    def test_four_element_boolean_entrywise(self, chain2):
        from skewbench import direct_product, dual_gb_diff

        boolean4 = direct_product(chain2, chain2)
        # solving the dual-difference identities on the flipped lattice
        # recovers the classical difference x∖y = x∧¬y of the original
        ddiff = dual_gb_diff(vertical_dual(boolean4))
        comp = {
            x: next(
                w
                for w in range(4)
                if boolean4.meet[x, w] == boolean4.bottom and boolean4.join[x, w] == boolean4.top
            )
            for x in range(4)
        }
        for x in range(4):
            for y in range(4):
                assert ddiff[x, y] == boolean4.meet[x, comp[y]]
        # feeding it back as the skew Boolean difference flips the order and
        # reads the implication off entrywise: x→y = y∖x = ¬x meet y
        back = from_skew_boolean(boolean4, ddiff)
        for x in range(4):
            for y in range(4):
                assert back.arrow[x, y] == boolean4.meet[y, comp[x]]


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_skew_lattices(1))) == 1
        # the 2-chain plus the two rectangular handednesses
        assert len(list(enumerate_skew_lattices(2))) == 3
        # golden value recorded from the first exhaustive run: the 3-chain,
        # two rectangular bands, and four mixed two-class algebras
        assert len(list(enumerate_skew_lattices(3))) == 7

    def test_tables_in_order(self):
        # each class is represented by its least (meet, join) relabeling,
        # and the classes come in the order of those representatives
        expected = {
            1: [([[0]], [[0]])],
            2: [
                ([[0, 0], [0, 1]], [[0, 1], [1, 1]]),
                ([[0, 0], [1, 1]], [[0, 1], [0, 1]]),
                ([[0, 1], [0, 1]], [[0, 0], [1, 1]]),
            ],
            3: [
                ([[0, 0, 0], [0, 1, 1], [0, 1, 2]], [[0, 1, 2], [1, 1, 2], [2, 2, 2]]),
                ([[0, 0, 0], [0, 1, 1], [0, 2, 2]], [[0, 1, 2], [1, 1, 2], [2, 1, 2]]),
                ([[0, 0, 0], [0, 1, 2], [0, 1, 2]], [[0, 1, 2], [1, 1, 1], [2, 2, 2]]),
                ([[0, 0, 0], [0, 1, 2], [2, 2, 2]], [[0, 1, 2], [1, 1, 1], [0, 1, 2]]),
                ([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [[0, 1, 2], [0, 1, 2], [0, 1, 2]]),
                ([[0, 0, 2], [0, 1, 2], [0, 2, 2]], [[0, 1, 0], [1, 1, 1], [2, 1, 2]]),
                ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], [[0, 0, 0], [1, 1, 1], [2, 2, 2]]),
            ],
        }
        for n, tables in expected.items():
            found = [(A.meet.tolist(), A.join.tolist()) for A in enumerate_skew_lattices(n)]
            assert found == tables

    def test_all_outputs_are_skew_lattices(self):
        from skewbench.properties import property_result

        for A in enumerate_skew_lattices(3):
            assert property_result(A, "skew-lattice")

    def test_pairwise_non_isomorphic(self):
        algebras = list(enumerate_skew_lattices(3))
        for A, B in itertools.combinations(algebras, 2):
            assert find_isomorphism(A, B) is None

    def test_raw_enumeration_bounded(self):
        with pytest.raises(TooLarge):
            next(enumerate_skew_lattices(4))


class TestAllPosets:
    def test_known_counts(self):
        assert [len(all_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]

    def test_upsets_and_downsets_match_brute_force(self):
        for n in range(1, 5):
            for P in all_posets(n):
                masks = range(1 << n)
                assert P.upset_masks == tuple(m for m in masks if P.up(m) == m)
                assert P.downset_masks == tuple(m for m in masks if P.down(m) == m)

    def test_pairwise_distinct_keys(self):
        keys = [P.canonical_key() for P in all_posets(4)]
        assert len(set(keys)) == len(keys)

    def test_default_point_names(self):
        assert Poset.chain(12).points == default_point_names(12) == tuple(f"x{i}" for i in range(12))
        assert Poset.antichain(12).points == default_point_names(12)
        assert all(P.points == ("p", "q", "r") for P in all_posets(3))


SEARCH = ["--format", "machine", "search", "--property", "symmetric", "--negate", "--family"]


class TestSearchStreams:
    def test_enum_enumerates_once_per_carrier_size(self, monkeypatch):
        sizes = []
        real = models.enumerate_skew_lattices

        def counting(n):
            sizes.append(n)
            return real(n)

        monkeypatch.setattr(models, "enumerate_skew_lattices", counting)
        code, out = run_command(SEARCH + ["enum", "--max-size", "12"])
        assert code == 0 and b"checked=85" in out
        assert sorted(sizes) == [1, 2, 3]

    def test_sections_search_builds_no_upset(self, monkeypatch):
        calls = []
        real = skew_heyting.upset_at

        def counting(A, u):
            calls.append(A.n)
            return real(A, u)

        monkeypatch.setattr(skew_heyting, "upset_at", counting)
        code, out = run_command(SEARCH + ["sections", "--max-size", "40"])
        assert code == 0 and b"checked=50" in out
        assert calls == []

    def test_instances_are_bounded_by_the_max_size(self, monkeypatch):
        bounds = []
        real = models.partial_function_algebra

        def counting(x, y, bound=10000):
            bounds.append(bound)
            return real(x, y, bound)

        monkeypatch.setattr(models, "partial_function_algebra", counting)
        _, build = next(iter(models.search_family("pfn", 64)))
        build()
        assert bounds == [64]
        with pytest.raises(TooLarge):
            next(iter(models.search_family("pfn", (1 << 15) + 1)))
        assert bounds == [64]

    def test_stream_is_built_lazily(self, monkeypatch):
        built = []
        real = models.partial_function_algebra

        def counting(x, y, bound=10000):
            built.append((x, y))
            return real(x, y, bound)

        monkeypatch.setattr(models, "partial_function_algebra", counting)
        stream = list(models.search_family("pfn", 64))
        assert len(stream) > 1 and built == []
        label, build = stream[0]
        A = build()
        assert (label, A.n, A.arrow) == ("pfn(1,1)", 2, None)
        assert built == [(1, 1)]

    @pytest.mark.parametrize("family", ["pfn", "sections", "enum"])
    def test_recipes_survive_pickling(self, family):
        for label, build in models.search_family(family, 16):
            A = pickle.loads(pickle.dumps(build))()
            assert A == build() and A.arrow is None, label
