"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import itertools
import time
from functools import lru_cache

import numpy as np
from heyting_oracle import section_arrow_candidates

from skewbench import (
    check_arrow_congruences,
    check_imp_or,
    check_lifting,
    check_sh_axioms,
    check_sha,
    classify,
    derive_arrow,
    dual_gb_diff,
    generalized_heyting_arrow,
    greens,
    leq_matrix,
    preceq_matrix,
    quotient,
    subalgebra,
)
from skewbench.cli import emit_algebra_file, run_command
from skewbench.errors import InconsistencyDetected, NoArrow
from skewbench.heyting import _arrow_by_candidates
from skewbench.models import (
    Poset,
    SurjectionModel,
    all_posets,
    from_skew_boolean,
    partial_function_algebra,
    partial_function_boolean,
    poset_sections_algebra,
    upset_heyting,
)

# Every (|X|, |Y|) with at most 100 partial maps, covering X sizes 1-6 and
# Y sizes 1-4; this includes the minimum grid (X 1-3, Y 1-2) on both axes.
FAMILY = tuple(
    (nx, ny)
    for nx in range(1, 7)
    for ny in range(1, 5)
    if (ny + 1) ** nx <= 100
)


@lru_cache(maxsize=None)
def _family_instance(nx: int, ny: int):
    return partial_function_algebra(nx, ny)


@lru_cache(maxsize=None)
def _derived(nx: int, ny: int):
    return derive_arrow(_family_instance(nx, ny).drop_arrow())


def _announce(number: int, label: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {label}: {status}{timing}")


def test_criterion_1_example1_closed_form():
    t0 = time.perf_counter()
    failures = []
    assert {(nx, ny) for nx in (1, 2, 3) for ny in (1, 2)} <= set(FAMILY)
    for nx, ny in FAMILY:
        A = _family_instance(nx, ny)
        rep = classify(A)
        if not (
            rep.holds("skew-lattice")
            and rep.holds("co-strongly-distributive")
            and A.top is not None
        ):
            failures.append((nx, ny, "classification"))
            continue
        derived = _derived(nx, ny)
        if not np.array_equal(derived, A.arrow):
            failures.append((nx, ny, "arrow mismatch"))
    elapsed = time.perf_counter() - t0
    _announce(1, "example-1 closed form", not failures, elapsed)
    assert not failures, failures
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def _mutations(A, limit=20):
    """Deterministic set of single-entry arrow mutations: exhaustive when the
    space is small, otherwise a seeded sample of at least ``limit``."""
    n = A.n
    space = n * n * (n - 1)
    if space <= 200:
        for x in range(n):
            for y in range(n):
                for v in range(n):
                    if v != int(A.arrow[x, y]):
                        yield x, y, v
        return
    seed = int.from_bytes(hashlib.sha256(f"{n}".encode()).digest()[:4], "big")
    rng = np.random.default_rng(seed)
    for _ in range(limit):
        x, y = int(rng.integers(n)), int(rng.integers(n))
        v = (int(A.arrow[x, y]) + 1 + int(rng.integers(n - 1))) % n
        yield x, y, v


def test_criterion_2_axiomatization_and_uniqueness():
    failures = []
    for nx, ny in FAMILY:
        A = _family_instance(nx, ny)
        rep = check_sh_axioms(A)
        if not rep.all_hold():
            failures.append((nx, ny, "axioms"))
            continue
        for x, y, v in _mutations(A):
            arrow = np.array(A.arrow)
            arrow[x, y] = v
            M = A.with_arrow(arrow)
            mutated = check_sh_axioms(M)
            if mutated.all_hold() and check_sha(M).holds:
                failures.append((nx, ny, f"undetected mutation at ({x},{y})->{v}"))
                break
    _announce(2, "axiomatization and uniqueness", not failures)
    assert not failures, failures


def test_criterion_3_congruence_suite():
    failures = []
    for nx, ny in FAMILY:
        A = _family_instance(nx, ny)
        if not check_arrow_congruences(A):
            failures.append((nx, ny, "congruences"))
            continue
        _, L, R = greens(A)
        for label, part in (("L", L), ("R", R)):
            Q, proj = quotient(A, part)  # includes the arrow table
            derived_q = derive_arrow(Q.drop_arrow())
            # the projection must carry the arrow to the derived arrow below
            for a in range(A.n):
                for b in range(A.n):
                    if int(Q.arrow[proj[a], proj[b]]) != int(derived_q[proj[a], proj[b]]):
                        failures.append((nx, ny, f"arrow not preserved mod {label}"))
                        break
                else:
                    continue
                break
    _announce(3, "congruence suite", not failures)
    assert not failures, failures


def test_criterion_4_lifting_theorem():
    failures = []
    for nx, ny in FAMILY:
        A = _family_instance(nx, ny)
        try:
            if not check_lifting(A.drop_arrow()):
                failures.append((nx, ny))
        except InconsistencyDetected:
            failures.append((nx, ny))
    _announce(4, "lifting theorem", not failures)
    assert not failures, failures


def _chain_section_models():
    for pts in (1, 2, 3):
        base = Poset.chain(pts)
        for fibers in itertools.product((1, 2), repeat=pts):
            yield SurjectionModel.from_fiber_sizes(base, fibers)


def test_criterion_5_special_cases():
    failures = []
    # skew chains from section algebras over chain posets
    for model in _chain_section_models():
        A = poset_sections_algebra(model)
        pre = preceq_matrix(A)
        expected = np.where(pre, np.int16(A.top), np.arange(A.n, dtype=np.int16)[None, :])
        if not np.array_equal(A.arrow, expected):
            failures.append(("case2", model.base.n, "formula mismatch"))
    # dual difference closed form wherever solving succeeds
    for nx, ny in FAMILY:
        A = _family_instance(nx, ny)
        try:
            if not np.array_equal(A.arrow, dual_gb_diff(A).T):
                failures.append(("case3", nx, ny))
        except NoArrow:
            pass
    # skew Boolean round trips
    for nx, ny in FAMILY:
        if (ny + 1) ** nx > 30:
            continue  # the downset scan is quadratic; small sizes exercise it fully
        sba, sdiff = partial_function_boolean(nx, ny)
        if from_skew_boolean(sba, sdiff) != _family_instance(nx, ny):
            failures.append(("round-trip", nx, ny))
    _announce(5, "special case closed forms", not failures)
    assert not failures, failures


def test_criterion_6_esakia_formula_all_small_posets():
    t0 = time.perf_counter()
    count = 0
    failures = []
    for pts in range(1, 6):
        for P in all_posets(pts):
            L = upset_heyting(P)  # raises EsakiaFormulaMismatch on disagreement
            try:
                if not np.array_equal(generalized_heyting_arrow(L.drop_arrow()), L.arrow):
                    failures.append(P.canonical_key())
            except NoArrow:
                failures.append(P.canonical_key())
            count += 1
    elapsed = time.perf_counter() - t0
    _announce(6, f"complement-of-downset arrow on {count} posets", not failures, elapsed)
    assert count == 1 + 2 + 5 + 16 + 63
    assert not failures
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"


def _poset_section_models():
    for pts in (1, 2, 3):
        for base in all_posets(pts):
            for fibers in itertools.product((1, 2), repeat=pts):
                yield SurjectionModel.from_fiber_sizes(base, fibers)


def test_criterion_7_section_theorem_and_formula_resolution():
    failures = []
    matching: set[tuple[str, ...]] = set()
    checked = 0
    for model in _poset_section_models():
        A = poset_sections_algebra(model)
        rep = classify(A)
        if not (rep.holds("skew-lattice") and rep.holds("co-strongly-distributive")):
            failures.append(("classify", model))
            continue
        if not check_sh_axioms(A).all_hold():
            failures.append(("axioms", model))
        if not (check_sha(A) and check_imp_or(A)):
            failures.append(("sha/imp-or", model))
        if not check_lifting(A.drop_arrow()):
            failures.append(("lifting", model))
        if not check_arrow_congruences(A):
            failures.append(("congruences", model))
        derived = derive_arrow(A.drop_arrow())
        verdicts = section_arrow_candidates(model, derived)
        if verdicts["second-arg-upclosed"] is not None:
            failures.append(("resolution", model))
        matching.add(tuple(sorted(name for name, wrong in verdicts.items() if wrong is None)))
        checked += 1
    # the match profile must single out one universal formula across models:
    # restricting the second argument to the up-closure always works, and it
    # is the only candidate present in every profile
    universal = set.intersection(*(set(m) for m in matching))
    if universal != {"second-arg-upclosed"}:
        failures.append(("non-uniform resolution", sorted(matching)))
    _announce(7, f"section theorem on {checked} poset models", not failures)
    assert not failures, failures


def test_criterion_8_imp_or_and_sha_everywhere():
    failures = []
    instances = [(f"pfn({nx},{ny})", _family_instance(nx, ny)) for nx, ny in FAMILY]
    instances += [
        (f"chain-sections#{i}", poset_sections_algebra(m))
        for i, m in enumerate(_chain_section_models())
    ]
    instances += [
        (f"poset-sections#{i}", poset_sections_algebra(m))
        for i, m in enumerate(_poset_section_models())
    ]
    for label, A in instances:
        if not check_sha(A):
            failures.append((label, "SHA"))
        if not check_imp_or(A):
            failures.append((label, "imp-or"))
    _announce(8, f"imp-or and SHA on {len(instances)} instances", not failures)
    assert not failures, failures


def test_criterion_9_negative_controls(tmp_path, monkeypatch, n5, rect2_bottom):
    failures = []
    # N5: candidate-set arrow absent, classification rejects distributivity
    try:
        generalized_heyting_arrow(n5)
        failures.append("n5 arrow should be absent")
    except NoArrow as exc:
        if len(exc.witness) < 2 + 2:
            failures.append("n5 arrow should be absent with two maximal candidates")
    if classify(n5).holds("distributive"):
        failures.append("n5 should not classify distributive")
    # deliberately non-conormal table produces a conormality witness
    rep = classify(rect2_bottom)
    entry = rep["conormal"]
    if entry.holds or entry.witness is None:
        failures.append("non-conormal table should carry a witness")
    else:
        x, y, z, w = entry.witness
        J = rect2_bottom.join
        if J[J[J[x, y], z], w] == J[J[J[x, z], y], w]:
            failures.append("conormality witness does not re-evaluate")

    # exit status contract, one command per class
    ok_file = tmp_path / "ok.alg"
    ok_file.write_text(emit_algebra_file(partial_function_algebra(1, 2)))
    bad_file = tmp_path / "bad.alg"
    bad_file.write_text(emit_algebra_file(rect2_bottom))
    broken_file = tmp_path / "broken.alg"
    broken_file.write_text("elements: a\nmeet:\n")

    if run_command(["verify", str(ok_file)])[0] != 0:
        failures.append("exit 0")
    if run_command(["derive", str(bad_file)])[0] != 1:
        failures.append("exit 1")
    if run_command(["check", str(broken_file)])[0] != 2:
        failures.append("exit 2")
    import skewbench.properties as properties

    def boom(A):
        raise InconsistencyDetected("synthetic")

    monkeypatch.setattr(properties, "check_costrong_equivalence", boom)
    if run_command(["check", str(ok_file)])[0] != 3:
        failures.append("exit 3")
    _announce(9, "negative controls and exit contract", not failures)
    assert not failures, failures


def test_lifting_upset_isomorphism_detail():
    """The projection restricts to a Heyting isomorphism on one concrete
    upset, checked by hand rather than through check_lifting."""
    A = _family_instance(2, 2)
    u = A.index("{p:0}")
    leq = leq_matrix(A)
    members = [int(v) for v in np.flatnonzero(leq[u])]
    sub = subalgebra(A, members, bottom=members.index(u))
    D, _, _ = greens(A)
    Q, proj = quotient(A.drop_arrow(), D)
    leq_q = leq_matrix(Q)
    q_members = [int(v) for v in np.flatnonzero(leq_q[proj[u]])]
    assert sorted(proj[members].tolist()) == q_members
    qsub = subalgebra(Q, q_members, bottom=q_members.index(proj[u]))
    # both upset arrows in the indices of their algebras
    up_arrow = np.array(members)[_arrow_by_candidates(sub)]
    q_arrow = np.array(q_members)[_arrow_by_candidates(qsub)]
    local = [q_members.index(int(v)) for v in proj[members]]
    assert np.array_equal(proj[up_arrow], q_arrow[np.ix_(local, local)])
    assert np.array_equal(generalized_heyting_arrow(Q)[np.ix_(q_members, q_members)], q_arrow)
