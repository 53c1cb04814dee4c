import importlib
import pickle
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbench
from skewbench import (
    classify,
    direct_product,
    find_isomorphism,
    greens,
    is_congruence,
    lattice_image,
    leq_matrix,
    make_algebra,
    natural_orders,
    partition_of,
    preceq_matrix,
    pullback_check,
    quotient,
    vertical_dual,
)
from skewbench import cli, core, identities, properties, skew_heyting
from skewbench.core import CheckResult, first_true, skipped_result
from skewbench.errors import (
    BadConstant,
    MalformedTable,
    NotACongruence,
    NotComposable,
    TooLarge,
)
from skewbench.identities import bind, named_check, values_at
from skewbench.models import Poset, SurjectionModel, partial_function_algebra, search_family, sections_algebra

from conftest import shuffle_algebra


class TestMakeAlgebra:
    def test_chain2(self, chain2):
        assert chain2.n == 2
        assert chain2.top == 1 and chain2.bottom == 0

    def test_rect2_absorption_valid(self, rect2):
        # left-zero meet with right-zero join satisfies absorption outright
        assert rect2.n == 2
        assert rect2.top is None

    def test_tables_accept_names(self):
        A = make_algebra(["x", "y"], [["x", "x"], ["x", "y"]], [["x", "y"], ["y", "y"]])
        assert A.meet[0, 1] == 0

    def test_nonsquare_table_rejected(self):
        with pytest.raises(MalformedTable):
            make_algebra(["a", "b"], [[0, 0, 0], [1, 1, 1]], [[0, 1], [0, 1]])

    def test_short_row_rejected(self):
        with pytest.raises(MalformedTable):
            make_algebra(["a", "b"], [[0], [1, 1]], [[0, 1], [0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedTable):
            make_algebra(["a", "b"], [[0, 2], [1, 1]], [[0, 1], [0, 1]])

    def test_first_unknown_name_is_reported(self):
        with pytest.raises(MalformedTable, match=r"^meet\[0\]\[1\]: unknown element 'z'$"):
            make_algebra(["x", "y"], [["x", "z"], ["q", "y"]], [["x", "y"], ["y", "y"]])

    @pytest.mark.parametrize("join", [[[0, 1], [5, -1]], np.array([[0, 1], [5, -1]])])
    def test_first_index_out_of_range_is_reported(self, join):
        with pytest.raises(MalformedTable, match=r"^join\[1\]\[0\]: index 5 out of range$"):
            make_algebra(["a", "b"], [[0, 0], [0, 1]], join)

    @pytest.mark.parametrize(
        "meet,cell",
        [
            ([[0, 0.7], [0.2, 1]], "meet[0][1]: 0.7"),
            (np.array([[0, 1.9], [1.0, 1]]), "meet[0][0]: 0.0"),
            ([[0, 0], [True, 1]], "meet[1][0]: True"),
            (np.array([[True, False], [False, True]]), "meet[0][0]: True"),
        ],
        ids=["float list", "float array", "bool in a list", "bool array"],
    )
    def test_a_cell_neither_name_nor_index_is_refused(self, meet, cell):
        # never truncated to an index: int(1.9) would make it 1
        with pytest.raises(MalformedTable, match=rf"^{re.escape(cell)} is not an element name or index$"):
            make_algebra(["a", "b"], meet, [[0, 1], [1, 1]])

    def test_a_float_arrow_cell_is_refused(self, chain2):
        with pytest.raises(MalformedTable, match=r"^arrow\[0\]\[1\]: 1.5 is not an element name or index$"):
            chain2.with_arrow([[1, 1.5], [0, 1]])

    def test_integer_cells_of_any_integer_type_are_indices(self):
        meet = [[np.int64(0), 0], [0, np.uint8(1)]]
        A = make_algebra(["a", "b"], meet, np.array([[0, 1], [1, 1]], dtype=np.uint8))
        assert A.meet.tolist() == [[0, 0], [0, 1]] and A.join.tolist() == [[0, 1], [1, 1]]

    @pytest.mark.parametrize(
        "constants,message",
        [
            ({"top": 1.9, "bottom": 0}, "top: 1.9"),
            ({"top": 1, "bottom": 0.2}, "bottom: 0.2"),
            ({"top": True}, "top: True"),
            ({"bottom": np.bool_(False)}, "bottom: False"),
        ],
        ids=["float top", "float bottom", "bool top", "numpy bool bottom"],
    )
    def test_a_constant_neither_name_nor_index_is_refused(self, constants, message):
        # the cell rule of the tables: never truncated, and a bool is no index
        with pytest.raises(MalformedTable, match=rf"^{re.escape(message)} is not an element name or index$"):
            make_algebra(["0", "1"], [[0, 0], [0, 1]], [[0, 1], [1, 1]], **constants)

    @pytest.mark.parametrize(
        "top,bottom", [(1, 0), (np.int64(1), np.uint8(0)), ("1", "0")], ids=["int", "numpy int", "name"]
    )
    def test_a_constant_is_an_index_or_a_name(self, top, bottom):
        A = make_algebra(["0", "1"], [[0, 0], [0, 1]], [[0, 1], [1, 1]], top=top, bottom=bottom)
        assert (A.top, A.bottom) == (1, 0) and type(A.top) is int and type(A.bottom) is int

    def test_bad_top_rejected(self):
        # declared top a where a∨1 = 1 violates x∨top = top
        meet = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
        join = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
        with pytest.raises(BadConstant):
            make_algebra(["1", "a", "b"], meet, join, top="a")

    def test_duplicate_names_rejected(self):
        with pytest.raises(MalformedTable):
            make_algebra(["a", "a"], [[0, 0], [1, 1]], [[0, 1], [0, 1]])

    def test_tables_are_read_only(self, chain2):
        with pytest.raises(ValueError):
            chain2.meet[0, 0] = 1


class TestNaturalOrders:
    def test_chain2_orders_coincide(self, chain2):
        leq, pre = natural_orders(chain2)
        assert leq.astype(int).tolist() == [[1, 1], [0, 1]]
        assert np.array_equal(leq, pre)

    def test_rect2_preorder_total_order_trivial(self, rect2):
        leq, pre = natural_orders(rect2)
        a, b = 0, 1
        assert pre[a, b] and pre[b, a]
        assert not leq[a, b] and not leq[b, a]
        assert leq[a, a] and leq[b, b]

    def test_pf12_example(self, pf12):
        leq, pre = natural_orders(pf12)
        empty = pf12.index("{}")
        p0, p1 = pf12.index("{p:0}"), pf12.index("{p:1}")
        assert pre[p0, p1] and pre[p1, p0]
        assert leq[p0, empty] and leq[p1, empty]
        assert not leq[p0, p1]


class TestGreens:
    def test_chain2_all_singletons(self, chain2):
        D, L, R = greens(chain2)
        assert D.tolist() == L.tolist() == R.tolist() == [0, 1]

    def test_rect2_left_handed(self, rect2):
        D, L, R = greens(rect2)
        assert D.tolist() == L.tolist() == [0, 0]
        assert R.tolist() == [0, 1]

    def test_pf22_domain_classes(self, pf22):
        D, L, R = greens(pf22)
        assert sorted(np.bincount(D).tolist()) == [1, 2, 2, 4]
        # the override meet keeps the first argument, which makes the family
        # left-handed: D coincides with L and R is trivial
        assert np.array_equal(D, L)
        assert R.tolist() == list(range(pf22.n))


class TestPartition:
    def test_transitivity_counts_no_paths(self):
        # 0 ~ y ~ 257 for the 256 points y of one block, without 0 ~ 257:
        # 256 two-step paths join 0 to 257, a count that wraps to 0 in eight
        # bits, and every other pair is transitive
        rel = np.eye(258, dtype=bool)
        rel[1:257, 1:257] = True
        rel[0, 1:257] = rel[1:257, 0] = rel[257, 1:257] = rel[1:257, 257] = True
        with pytest.raises(ValueError, match=r"^relation not transitive at \(0, 257\)$"):
            partition_of(rel)

    def test_blocks_are_numbered_by_least_member(self):
        # blocks {0, 3}, {1}, {2, 4}
        labels = np.array([0, 1, 2, 0, 2])
        part = partition_of(labels[:, None] == labels[None, :])
        assert part.tolist() == [0, 1, 2, 0, 2]
        labels = np.array([5, 5, 1, 9, 1])
        assert partition_of(labels[:, None] == labels[None, :]).tolist() == [0, 0, 1, 2, 1]

    @pytest.mark.parametrize(
        "part,message",
        [
            ([0, 1, 1], "9 integer labels"),
            ([0, 1, 1, 3, 3, 3, 3, 3, 3], "by least member: element 3 has label 3$"),
            ([0, 2, 2, 1, 1, 3, 3, 3, 3], "by least member: element 1 has label 2$"),
        ],
        ids=["wrong-length", "skipped-label", "out-of-order"],
    )
    def test_an_outside_array_that_is_no_partition_is_refused(self, pf22, part, message):
        for use in (is_congruence, quotient):
            with pytest.raises(ValueError, match=message):
                use(pf22, np.array(part))


class TestFactsCache:
    """≤, ⪯, Green's relations, D and S/D are built once per algebra and
    shared by its copies that keep meet, join and the constants."""

    @pytest.mark.parametrize("x,y", [(6, 1), (2, 2)], ids=["pfn(6,1)", "pf22"])
    def test_verify_builds_each_relation_and_s_mod_d_once(self, x, y, tmp_path, monkeypatch):
        path = tmp_path / "in.alg"
        path.write_text(cli.emit_algebra_file(partial_function_algebra(x, y)))
        parsed, relations, partitions = [], [], []
        real_parse, real_relation, real_quotient = cli.parse_algebra_file, core.partition_of, core.quotient

        def parse(text, **kwargs):
            parsed.append(real_parse(text, **kwargs))
            return parsed[-1]

        def counting_partition_of(rel):
            relations.append(rel.shape)
            return real_relation(rel)

        def counting_quotient(A, partition):
            partitions.append(partition)
            return real_quotient(A, partition)

        monkeypatch.setattr(cli, "parse_algebra_file", parse)
        monkeypatch.setattr(core, "partition_of", counting_partition_of)
        monkeypatch.setattr(core, "quotient", counting_quotient)
        monkeypatch.setattr(skew_heyting, "quotient", counting_quotient)
        code, _ = cli.run_command(["verify", str(path)])
        assert code == 0
        assert len(relations) <= 3
        # the only quotient is S/D, by the cached D; A/L equals it on these
        # left-handed inputs and A/R is A itself; pfn(6,1) is a lattice, its
        # own S/D, and takes no quotient at all
        D = core.d_partition(parsed[0])
        assert partitions == ([] if y == 1 else [D]) and all(p is D for p in partitions)

    def test_a_lattice_is_its_own_s_mod_d(self):
        # returned, not stored: a stored reduct would hold the facts that
        # hold it, a reference cycle
        A = partial_function_algebra(2, 1)
        Q, project = lattice_image(A)
        assert Q == A.drop_arrow() and Q._facts is A._facts and "S/D" not in A._facts
        assert project.tolist() == list(range(A.n)) and not project.flags.writeable
        # a trivial D on tables that do not commute is refused, as by quotient
        B = make_algebra(["a", "b"], [[0, 0], [1, 1]], [[0, 1], [1, 1]])
        with pytest.raises(NotComposable, match="quotient by D is not commutative"):
            lattice_image(B)

    def test_copies_share_read_only_facts(self, pf22):
        leq = leq_matrix(pf22)
        other = pf22.with_arrow(np.zeros((pf22.n, pf22.n), dtype=np.int16))
        assert leq_matrix(other) is leq and leq_matrix(pf22.drop_arrow()) is leq
        assert preceq_matrix(other) is preceq_matrix(pf22)
        assert greens(other) is greens(pf22)
        assert lattice_image(other) is lattice_image(pf22)
        for arr in (leq, preceq_matrix(pf22)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = False
        D = core.d_partition(pf22)
        assert core.d_partition(other) is D and greens(pf22)[0] is D
        for part in greens(pf22):
            assert part.dtype == np.int16 and not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 1

    def test_equal_algebras_built_apart_compute_apart(self):
        A, B = partial_function_algebra(2, 2), partial_function_algebra(2, 2)
        assert A == B
        assert leq_matrix(A) is not leq_matrix(B)
        assert np.array_equal(leq_matrix(A), leq_matrix(B))
        assert greens(A) is not greens(B)
        assert all(np.array_equal(p, q) for p, q in zip(greens(A), greens(B)))

    def test_a_failure_is_raised_afresh_on_every_call(self):
        # left-zero meet and left-zero join: L is total by meet, trivial by join
        A = make_algebra(["a", "b"], [[0, 0], [1, 1]], [[0, 0], [1, 1]])
        raised = []
        for _ in range(2):
            with pytest.raises(NotComposable) as info:
                greens(A)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert raised[0].witness == raised[1].witness


class TestQuotient:
    def test_pf12_mod_d_is_two_chain(self, pf12, chain2):
        D, _, _ = greens(pf12)
        Q, proj = quotient(pf12.drop_arrow(), D)
        assert Q.n == 2
        assert Q.top == proj[pf12.index("{}")]
        assert find_isomorphism(Q, chain2.drop_arrow()) is not None

    def test_chain2_mod_d_identity(self, chain2):
        D, _, _ = greens(chain2)
        Q, _ = quotient(chain2, D)
        assert find_isomorphism(Q, chain2) is not None

    def test_pf22_mod_d_is_boolean4(self, pf22, chain2):
        D, _, _ = greens(pf22)
        Q, proj = quotient(pf22.drop_arrow(), D)
        assert Q.n == 4
        assert Q.top == proj[pf22.index("{}")]
        boolean4 = direct_product(chain2, chain2)
        assert find_isomorphism(Q, boolean4) is not None

    def test_projection_is_hom(self, pf22, pf12, chain2):
        # onto, and a homomorphism of every table and declared constant
        assert pf22.arrow is not None and pf12.arrow is not None and chain2.bottom is not None
        for A in (pf22, pf12, chain2):
            for part in greens(A):
                Q, proj = quotient(A, part)
                assert proj.dtype == np.int16 and not proj.flags.writeable
                assert sorted(set(proj.tolist())) == list(range(Q.n))
                assert Q.tables().keys() == A.tables().keys()
                for label, table in A.tables().items():
                    assert np.array_equal(proj[table], Q.tables()[label][np.ix_(proj, proj)]), label
                for a, q in ((A.top, Q.top), (A.bottom, Q.bottom)):
                    assert (a is None) == (q is None) and (a is None or proj[a] == q)

    def test_the_projection_is_the_partition(self, pf22):
        # the partition a quotient takes is the projection it returns, and
        # the caller's array is neither returned nor frozen
        for part in greens(pf22):
            assert np.array_equal(quotient(pf22, part)[1], part)
        total = np.zeros(pf22.n, dtype=np.int64)
        Q, proj = quotient(pf22, total)
        assert Q.n == 1 and np.array_equal(proj, total) and proj is not total
        assert total.flags.writeable


class TestIsCongruence:
    def test_d_with_arrow_on_pf22(self, pf22):
        D, _, _ = greens(pf22)
        assert is_congruence(pf22, D)

    def test_identity_partition(self, rect2):
        assert is_congruence(rect2, np.arange(2))

    def test_total_partition_is_congruence(self, pf22):
        # collapsing everything respects every operation trivially
        assert is_congruence(pf22, np.zeros(pf22.n, dtype=np.int16))

    def test_splitting_a_d_class_is_not(self, pf22):
        # refine D by splitting the two-element class of domain {p}
        D, _, _ = greens(pf22)
        p = pf22.index("{p:1}")
        assert np.bincount(D)[D[p]] == 2
        split = D[:, None] == D[None, :]
        split[p, :] = split[:, p] = False
        split[p, p] = True
        part = partition_of(split)
        outcome = is_congruence(pf22, part)
        assert not outcome
        op, a, b, c, d = outcome.witness
        # witness re-evaluates to a genuine violation
        table = {"meet": pf22.meet, "join": pf22.join, "arrow": pf22.arrow}[op]
        assert part[a] == part[c]
        assert part[b] == part[d]
        assert part[table[a, b]] != part[table[c, d]]

    def test_quotient_by_non_congruence_raises(self, pf22):
        part = np.r_[0, np.arange(pf22.n - 1)]  # blocks {0, 1} and singletons
        if not is_congruence(pf22, part):
            with pytest.raises(NotACongruence):
                quotient(pf22, part)


class TestPullback:
    def test_chain2(self, chain2):
        assert pullback_check(chain2)

    def test_pf22(self, pf22):
        assert pullback_check(pf22)

    def test_rect2(self, rect2):
        assert pullback_check(rect2)


class TestCheckResult:
    def test_truth_is_the_verdict_holds(self):
        results = (
            CheckResult("x", True, None, 4),
            CheckResult("x", False, (0, 1), 4),
            CheckResult("x", False, None, 0, detail="no witness"),
            skipped_result("x", "does not apply"),
        )
        assert [bool(r) for r in results] == [r.holds for r in results] == [True, False, False, True]

    def test_first_true_is_row_major(self):
        mask = np.zeros((3, 4, 5), dtype=bool)
        assert first_true(mask) is None
        assert first_true(np.zeros(0, dtype=bool)) is None
        mask[2, 0, 0] = mask[1, 3, 4] = mask[1, 3, 2] = True
        assert first_true(mask) == (1, 3, 2)
        assert all(type(v) is int for v in first_true(mask))
        assert first_true([False, True]) == (1,)


def _records(A):
    """One record of each type, the algebra ``A`` among them."""
    check = named_check("SH1")
    result = CheckResult("x", False, (0, 1), 4, 1, 2, detail="d", evaluated=7)
    return [
        result,
        A,
        check,
        identities._plan(check),
        Poset.chain(3),
        SurjectionModel.from_fiber_sizes(("p", "q"), (2, 1)),
        properties.PropertyReport((result,)),
    ]


class TestRecords:
    """The records keep the contract of the frozen dataclasses they replace."""

    def test_every_record_class_has_an_instance_here(self, pf22):
        for info in pkgutil.iter_modules(skewbench.__path__):
            if info.name != "__main__":  # running it is the console script
                importlib.import_module(f"skewbench.{info.name}")
        defined, stack = set(), [core.Record]
        while stack:
            for cls in stack.pop().__subclasses__():
                stack.append(cls)
                if cls.__module__.startswith("skewbench."):
                    defined.add(cls)
        types = [type(record) for record in _records(pf22)]
        assert sorted(types, key=repr) == sorted(defined, key=repr)

    def test_fields_cannot_be_assigned_or_deleted(self, pf22):
        for record in _records(pf22):
            field = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_pickling_keeps_every_field(self, pf22):
        leq_matrix(pf22)
        for record in _records(pf22):
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record)
            for field in record._fields:
                if field != "_facts":  # an algebra's facts are not pickled
                    assert pickle.dumps(getattr(copy, field)) == pickle.dumps(getattr(record, field))
        copy = pickle.loads(pickle.dumps(pf22))
        assert copy == pf22 and copy._facts == {}

    def test_an_algebra_pickles_without_its_facts(self):
        A = partial_function_algebra(2, 2)
        fresh = pickle.dumps(A)
        properties.property_result(A, "symmetric")
        lattice_image(A)
        core.isomorphism_key(A)
        assert A._facts and pickle.dumps(A) == fresh
        copy = pickle.loads(fresh)
        assert copy == A and copy._facts == {} and copy._facts is not A._facts
        assert properties.property_result(copy, "symmetric") == properties.property_result(A, "symmetric")

    def test_equality_and_hashing(self, pf22):
        res = CheckResult("x", False, (0, 1), 4, 1, 2, detail="d", evaluated=7)
        same = CheckResult("x", False, (0, 1), 4, 1, 2, detail="d")
        assert res == same and hash(res) == hash(same)
        assert res != same.replace(checked=5) and res != ("x", False, (0, 1), 4, 1, 2, "d", False)
        assert identities.parse("x→x=1", "SH1") == named_check("SH1")
        assert hash(identities.parse("x→x=1", "SH1")) == hash(named_check("SH1"))
        assert pf22 == partial_function_algebra(2, 2) and Poset.chain(3) == Poset.chain(3)
        for unhashable in (pf22, Poset.chain(3)):
            with pytest.raises(TypeError):
                hash(unhashable)

    def test_replace_builds_a_copy_through_the_constructor(self, pf22):
        res = CheckResult("x", False, (0, 1), 4, detail="d")
        assert res.replace(detail="e") == CheckResult("x", False, (0, 1), 4, detail="e")
        assert res.detail == "d"
        with pytest.raises(TypeError):
            res.replace(nosuch=1)
        # the facts of a copy with other names or constants are its own:
        # S/D carries both
        assert lattice_image(pf22)[0].top is not None
        copy = pf22.replace(top=None)
        assert copy.top is None and copy._facts is not pf22._facts
        assert lattice_image(copy)[0].top is None
        pf12 = partial_function_algebra(1, 2)
        assert lattice_image(pf12)[0].names == ("{{}}", "{{p:0},{p:1}}")
        assert lattice_image(pf12.replace(names=tuple("abc")))[0].names == ("{a}", "{b,c}")

    def test_replace_refuses_what_make_algebra_refuses(self):
        A = partial_function_algebra(2, 1)
        with pytest.raises(BadConstant, match=r"top '\{p:0\}' fails"):
            A.replace(top=1)
        with pytest.raises(MalformedTable, match="element names are not unique"):
            A.replace(names=("a",) * A.n)
        with pytest.raises(MalformedTable, match=r"arrow\[0\]\[0\]: index 9 out of range"):
            A.with_arrow([[9] * A.n] * A.n)

    def test_arrow_copies_share_the_tables(self, pf22):
        A = pf22.drop_arrow()
        assert A.meet is pf22.meet and A.join is pf22.join and A._facts is pf22._facts
        B = A.with_arrow(pf22.arrow)
        assert B == pf22 and B.meet is pf22.meet and B.arrow is not pf22.arrow

    def test_replace_coerces_a_table_as_make_algebra_does(self):
        A = partial_function_algebra(2, 1)
        copy = A.replace(arrow=[[0] * A.n] * A.n)
        assert copy.arrow.dtype == np.int16 and not copy.arrow.flags.writeable
        assert copy.arrow.tolist() == [[0] * A.n] * A.n and copy._facts is A._facts

    def test_a_copy_with_other_tables_has_its_own_facts(self, pf22):
        # swapping meet and join gives the vertical dual's tables, so the
        # copy has the transposed ≤, and normal on it is conormal on pf22
        A = partial_function_algebra(2, 1)
        leq = leq_matrix(A)
        B = A.replace(meet=A.join, join=A.meet, top=None)  # the top would fail absorption
        assert not np.array_equal(leq, leq.T)
        assert np.array_equal(leq_matrix(B), leq.T)
        assert np.array_equal(leq_matrix(B), leq_matrix(vertical_dual(A)))
        assert not properties.property_result(pf22, "normal")
        assert properties.property_result(pf22.replace(meet=pf22.join, join=pf22.meet, top=None), "normal")

    def test_repr_names_the_public_fields(self):
        assert repr(CheckResult("x", True, None, 4)) == (
            "CheckResult(name='x', holds=True, witness=None, checked=4, lhs_value=None, "
            "rhs_value=None, detail='', skipped=False, evaluated=0)"
        )


class TestVerticalDual:
    def test_involution(self, pf22):
        twice = vertical_dual(vertical_dual(pf22))
        assert twice == pf22.drop_arrow()

    def test_swaps_constants(self, chain2):
        dual = vertical_dual(chain2)
        assert dual.top == chain2.bottom and dual.bottom == chain2.top

    def test_swaps_distributivity_classes(self, pf22):
        from skewbench import classify

        rep = classify(pf22)
        dual_rep = classify(vertical_dual(pf22))
        assert rep.holds("co-strongly-distributive") and not rep.holds("strongly-distributive")
        assert dual_rep.holds("strongly-distributive") and not dual_rep.holds("co-strongly-distributive")
        assert rep.holds("conormal") == dual_rep.holds("normal")


class TestDirectProduct:
    def test_chain_times_rect_is_binormal(self, chain2, rect2):
        from skewbench import classify

        P = direct_product(chain2.drop_arrow(), rect2)
        rep = classify(P)
        assert rep.holds("skew-lattice")
        assert rep.holds("strongly-distributive") and rep.holds("co-strongly-distributive")

    def test_product_of_chains_is_boolean(self, chain2):
        P = direct_product(chain2, chain2)
        from skewbench import classify

        rep = classify(P)
        assert rep.holds("skew-lattice") and rep.holds("distributive")
        assert P.top is not None and P.bottom is not None

    def test_unit_law(self, pf12):
        one = make_algebra(["e"], [[0]], [[0]], top=0, bottom=0)
        P = direct_product(pf12.drop_arrow(), one.drop_arrow())
        assert find_isomorphism(P, pf12.drop_arrow(), bound=12) is not None

    def test_quotient_commutes_with_product(self, chain2, rect2, t3):
        for A, B in ((chain2.drop_arrow(), rect2), (t3, rect2)):
            P = direct_product(A, B)
            DP, _, _ = greens(P)
            QP, _ = quotient(P, DP)
            DA, _, _ = greens(A)
            DB, _, _ = greens(B)
            QA, _ = quotient(A, DA)
            QB, _ = quotient(B, DB)
            assert find_isomorphism(QP, direct_product(QA, QB)) is not None


class TestFindIsomorphism:
    def test_relabeled_copy_found(self, pf12):
        other = shuffle_algebra(pf12, seed=3)
        iso = find_isomorphism(pf12, other)
        assert iso is not None and sorted(iso.tolist()) == list(range(other.n))

    def test_chain_vs_rect_none(self, chain2, rect2):
        assert find_isomorphism(chain2.drop_arrow(), rect2) is None

    def test_pf12_vs_two_point_fiber_sections(self, pf12):
        model = SurjectionModel.from_fiber_sizes(("x",), (2,))
        S = sections_algebra(model)
        assert S.n == 3
        assert find_isomorphism(pf12, S) is not None

    def test_too_large(self, pf22):
        with pytest.raises(TooLarge):
            find_isomorphism(pf22, pf22, bound=5)


def test_costa_forms_hold_on_skew_lattices(pf22, t3, rect2, chain3):
    # natural_orders raising would mean the three characterizations diverge
    for A in (pf22, t3, rect2, chain3):
        natural_orders(A)


def test_costa_mismatch_on_divergent_table():
    from skewbench.errors import CostaMismatch

    # min meet against a left-zero join: the meet form of the order accepts
    # (0, 1) while the join form rejects it
    A = make_algebra(["0", "1"], [[0, 0], [0, 1]], [[0, 0], [1, 1]])
    with pytest.raises(CostaMismatch):
        natural_orders(A)


_SMALL_INSTANCES = [
    build() for family in ("pfn", "sections", "enum") for _, build in search_family(family, 9)
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_stable_under_relabeling(data):
    A = data.draw(st.sampled_from(_SMALL_INSTANCES))
    B = shuffle_algebra(A, seed=data.draw(st.integers(0, 2**32 - 1)))
    reports = [(A, classify(A)), (B, classify(B))]
    verdicts = [[(e.name, e.verdict, e.checked) for e in rep.entries] for _, rep in reports]
    assert verdicts[0] == verdicts[1]
    for alg, rep in reports:
        for entry in rep.entries:
            # quasi-distributive is evaluated in S/D, not by an identity of A
            if entry.holds or entry.name == "quasi-distributive":
                continue
            formula = rep[entry.detail].detail if entry.name == "skew-lattice" else entry.detail
            lhs, rhs = values_at(named_check(formula), bind(alg), entry.witness)
            assert lhs != rhs and (lhs, rhs) == (entry.lhs_value, entry.rhs_value)
