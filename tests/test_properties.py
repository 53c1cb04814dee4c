import numpy as np
import pytest

from skewbench import (
    binormal_factorization,
    check_costrong_equivalence,
    check_dual_skew_boolean,
    check_skew_boolean,
    classify,
    cover_in_class,
    direct_product,
    greens,
    leq_matrix,
    make_algebra,
    subalgebra,
    vertical_dual,
)
from skewbench.errors import MalformedTable, NotUnique, PreconditionFailed
from skewbench.heyting import dual_gb_diff
from skewbench.models import partial_function_algebra, partial_function_boolean
from skewbench.properties import property_result


class TestClassify:
    def test_pf22_profile(self, pf22):
        rep = classify(pf22)
        assert rep.holds("skew-lattice")
        assert rep.holds("co-strongly-distributive")
        assert rep.holds("symmetric")
        assert rep.holds("conormal")
        assert rep.holds("quasi-distributive")
        assert not rep.holds("rectangular")
        assert not rep.holds("strongly-distributive")
        assert rep["strongly-distributive"].witness is not None

    def test_rect2_profile(self, rect2):
        rep = classify(rect2)
        assert rep.holds("skew-lattice")
        assert rep.holds("rectangular")
        assert rep.holds("strongly-distributive") and rep.holds("co-strongly-distributive")

    def test_chain2_everything_but_rectangular(self, chain2):
        rep = classify(chain2)
        for e in rep.entries:
            if e.name == "rectangular":
                assert not e.holds
            else:
                assert e.holds, e.name

    def test_witness_reevaluates(self, pf22):
        rep = classify(pf22)
        entry = rep["strongly-distributive"]
        x, y, z = entry.witness
        M, J = pf22.meet, pf22.join
        if entry.detail == "x∧(y∨z)=(x∧y)∨(x∧z)":
            assert M[x, J[y, z]] != J[M[x, y], M[x, z]]
        else:
            assert M[J[x, y], z] != J[M[x, z], M[y, z]]

    def test_holding_entry_scans_full_space(self, pf22):
        rep = classify(pf22)
        assert rep["conormal"].checked == pf22.n ** 4

    def test_non_skew_lattice_detected(self):
        # idempotent but absorption fails
        A = make_algebra(["a", "b"], [[0, 0], [0, 1]], [[0, 0], [0, 1]])
        rep = classify(A)
        assert not rep.holds("skew-lattice")
        assert not property_result(A, "skew-lattice")

    def test_non_conormal_witness(self, rect2_bottom):
        rep = classify(rect2_bottom)
        assert rep.holds("skew-lattice")
        assert not rep.holds("conormal")
        x, y, z, w = rep["conormal"].witness
        J = rect2_bottom.join
        assert J[J[J[x, y], z], w] != J[J[J[x, z], y], w]


class TestCostrongEquivalence:
    def test_model_families(self, pf22, pf12, t3, chain2):
        for A in (pf22, pf12, t3, chain2):
            assert check_costrong_equivalence(A.drop_arrow())

    def test_duals(self, pf22, t3):
        for A in (pf22, t3):
            assert check_costrong_equivalence(vertical_dual(A))

    def test_non_conormal_instance(self, rect2_bottom):
        # both sides of the biconditional are false here; still consistent
        assert check_costrong_equivalence(rect2_bottom)


class TestCoverInClass:
    def test_pf22_unique_cover(self, pf22):
        D, _, _ = greens(pf22)
        b = pf22.index("{p:0,q:1}")
        block = np.flatnonzero(D == D[pf22.index("{p:0}")])
        a = cover_in_class(pf22, b, block)
        assert pf22.names[a] == "{p:0}"

    def test_own_block_returns_self(self, pf22):
        D, _, _ = greens(pf22)
        b = pf22.index("{p:1}")
        block = np.flatnonzero(D == D[b])
        assert cover_in_class(pf22, b, block) == b

    def test_top_block(self, pf22):
        b = pf22.index("{p:0,q:1}")
        empty = pf22.index("{}")
        assert cover_in_class(pf22, b, (empty,)) == empty

    def test_block_below_rejected(self, pf22):
        D, _, _ = greens(pf22)
        b = pf22.index("{p:0}")
        low_block = np.flatnonzero(D == np.flatnonzero(np.bincount(D) == 4)[0])
        with pytest.raises(PreconditionFailed):
            cover_in_class(pf22, b, low_block)

    def test_non_conormal_not_unique(self, rect2_bottom):
        with pytest.raises(NotUnique):
            cover_in_class(rect2_bottom, rect2_bottom.index("0"), (0, 1))


class TestBinormalFactorization:
    def test_product_recovered(self, chain2, rect2):
        P = direct_product(chain2.drop_arrow(), rect2)
        result = binormal_factorization(P)
        assert result is not None
        L, B, iso = result
        assert L.n == 2 and B.n == 2
        assert sorted(iso.tolist()) == list(range(P.n))
        product = direct_product(L, B)
        assert np.array_equal(iso[P.meet], product.meet[np.ix_(iso, iso)])
        rep = classify(B)
        assert rep.holds("rectangular")

    def test_pf22_absent(self, pf22):
        assert binormal_factorization(pf22.drop_arrow()) is None

    def test_chain2_trivial_factor(self, chain2):
        L, B, _ = binormal_factorization(chain2)
        assert L.n == 2 and B.n == 1


class TestSkewBoolean:
    def test_dual_pf22_with_residue_diff(self):
        sba, diff = partial_function_boolean(2, 2)
        assert check_skew_boolean(sba, diff)

    def test_pf22_with_solved_ddiff(self, pf22):
        assert check_dual_skew_boolean(pf22, dual_gb_diff(pf22))

    def test_chain2_classical_dual_diff(self, chain2):
        table = dual_gb_diff(chain2)
        # solved entrywise: y∖∖x rows for y = 0, 1
        assert table.tolist() == [[1, 0], [1, 1]]
        assert check_dual_skew_boolean(chain2, table)

    def test_wrong_diff_rejected(self):
        sba, diff = partial_function_boolean(1, 2)
        bad = np.array(diff)
        bad[1, 1] = (bad[1, 1] + 1) % sba.n
        assert not check_skew_boolean(sba, bad)

    @pytest.mark.parametrize("cell,shown", [(-1, "index -1"), (9, "index 9"), (1.5, "1.5"), (True, "True")])
    def test_a_difference_cell_that_is_no_element_is_refused(self, cell, shown):
        # refused as make_algebra refuses a table cell, not read as an element
        sba, diff = partial_function_boolean(2, 2)
        pf = partial_function_algebra(2, 2)
        for check, A, table, label in (
            (check_skew_boolean, sba, diff, "difference"),
            (check_dual_skew_boolean, pf, dual_gb_diff(pf), "dual difference"),
        ):
            rows = table.tolist()
            rows[0][1] = cell
            with pytest.raises(MalformedTable, match=rf"^{label}\[0\]\[1\]: {shown}"):
                check(A, rows)

    def test_non_skew_lattice_names_the_failing_axiom(self, left_zero_top):
        # the skew lattice check runs first, whatever the difference table
        table = np.zeros((3, 3), dtype=int)
        for check, A in (
            (check_skew_boolean, vertical_dual(left_zero_top)),
            (check_dual_skew_boolean, left_zero_top),
        ):
            res = check(A, table)
            assert not res
            assert (res.witness, res.detail) == ((0, 1), "absorption: (x∧y)∨y=y")


def test_upsets_of_conormal_instances_commute(pf22, t3):
    for A in (pf22, t3):
        leq = leq_matrix(A)
        for u in range(A.n):
            members = [int(x) for x in np.flatnonzero(leq[u])]
            sub = subalgebra(A, members)
            assert np.array_equal(sub.meet, sub.meet.T)
            assert np.array_equal(sub.join, sub.join.T)


def test_strong_or_costrong_implies_distributive(pf22, rect2, chain3):
    for A in (pf22, rect2, chain3, vertical_dual(pf22)):
        rep = classify(A)
        if rep.holds("strongly-distributive") or rep.holds("co-strongly-distributive"):
            assert rep.holds("distributive")
