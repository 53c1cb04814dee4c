import pytest

from skewbench import (
    binormal_factorization,
    check_costrong_equivalence,
    check_skew_lattice,
    classify,
    identities,
)
from skewbench.cli import run_command
from skewbench.identities import GROUPS, NAMED, bind, named_check, parse, run_identity
from skewbench.models import partial_function_algebra, search_family
from skewbench.properties import PROPERTY_NAMES, property_result


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

    def test_names_report_under_their_name(self):
        assert named_check("SH1").name == "SH1"
        assert named_check("SH1").lhs == named_check("H1").lhs == ("r", 0, 0)

    def test_constants_bound_to_bottom_and_top(self, chain2):
        assert run_identity("x∧0=0", bind(chain2)).holds
        assert not run_identity("x∧1=0", bind(chain2)).holds


@pytest.fixture
def scans(monkeypatch):
    """Names of the checks ``run_check`` evaluates."""
    calls = []
    real = identities.run_check

    def counting(chk, tables, rels=None):
        calls.append(chk.name)
        return real(chk, tables, rels)

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
        check_skew_lattice(A)
        binormal_factorization(A)
        assert len(scans) == scanned

    def test_copies_with_the_same_tables_share_the_scans(self, scans):
        A = partial_function_algebra(2, 2)
        property_result(A, "conormal")
        property_result(A.drop_arrow(), "conormal")
        assert scans == list(GROUPS["conormal"])

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

