"""The isomorphism key and the bucketed enum dedup, checked against the
loop oracles in ``dedup_oracle`` and under random relabelings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shuffle_algebra
from dedup_oracle import enum_labels_all_pairs, profiles_by_loop
from skewbench import core, models
from skewbench.models import partial_function_algebra, search_family

ENUM_12 = [build() for _, build in search_family("enum", 12)]
INSTANCES = {
    "enum": ENUM_12,
    "pfn": [build() for _, build in search_family("pfn", 12)],
    "sections": [build() for _, build in search_family("sections", 12)],
}


@pytest.mark.parametrize("max_size", [4, 8, 12, 16])
def test_bucketed_dedup_keeps_the_all_pairs_labels(max_size):
    labels = [label for label, _ in search_family("enum", max_size)]
    assert labels == enum_labels_all_pairs(max_size)


def test_vectorized_profiles_equal_the_loop():
    for A in ENUM_12:
        assert list(core._profiles(A, False)) == profiles_by_loop(A, False)
    pf22 = partial_function_algebra(2, 2)
    assert list(core._profiles(pf22, True)) == profiles_by_loop(pf22, True)
    assert list(core._profiles(pf22, False)) == profiles_by_loop(pf22, False)


def test_enum_dedup_searches_only_inside_buckets(monkeypatch):
    hits = []
    real = models.find_isomorphism

    def counting(A, B, bound=12):
        iso = real(A, B, bound)
        hits.append(iso is not None)
        return iso

    monkeypatch.setattr(models, "find_isomorphism", counting)
    # the raw enumeration keeps the first pair of each class the same way
    assert sum(1 for n in (1, 2, 3) for _ in models.enumerate_skew_lattices(n)) == 11
    assert len(hits) == 14 and all(hits)
    hits.clear()
    # 14 of these are the enumeration's again, 161 the search's own
    assert len(list(search_family("enum", 12))) == 85
    assert len(hits) == 175 and all(hits)


def test_key_is_cached_and_arrow_free():
    pf22 = partial_function_algebra(2, 2)
    key = core.isomorphism_key(pf22)
    assert core.isomorphism_key(pf22) is key
    assert core.isomorphism_key(pf22.drop_arrow()) is key
    assert key == (9, tuple(sorted(profiles_by_loop(pf22, False))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INSTANCES)), st.data())
def test_key_is_invariant_under_relabeling(family, data):
    A = data.draw(st.sampled_from(INSTANCES[family]))
    B = shuffle_algebra(A, seed=data.draw(st.integers(0, 2**32 - 1)))
    assert core.isomorphism_key(B) == core.isomorphism_key(A)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INSTANCES)), st.data())
def test_relabeled_copy_has_a_certified_isomorphism(family, data):
    A = data.draw(st.sampled_from(INSTANCES[family]))
    B = shuffle_algebra(A, seed=data.draw(st.integers(0, 2**32 - 1)))
    iso = core.find_isomorphism(A, B)
    assert iso is not None and not iso.flags.writeable
    assert sorted(iso.tolist()) == list(range(B.n))
    grid = np.ix_(iso, iso)
    assert np.array_equal(iso[A.meet], B.meet[grid])
    assert np.array_equal(iso[A.join], B.join[grid])
    for a, b in ((A.top, B.top), (A.bottom, B.bottom)):
        assert (a is None) == (b is None)
        assert a is None or iso[a] == b


def test_arrows_sharing_facts_are_told_apart():
    # two arrows on one reduct share its cache of facts, so a profile that
    # read the arrow must never be stored there
    pf22 = partial_function_algebra(2, 2)
    residue = pf22
    constant = pf22.with_arrow(np.zeros((9, 9), dtype=np.int16))
    assert residue._facts is constant._facts
    assert core.find_isomorphism(residue, constant) is None
    assert core.find_isomorphism(constant, residue) is None
    for A in (residue, constant, residue):
        B = shuffle_algebra(A, seed=5)
        iso = core.find_isomorphism(A, B)
        assert iso is not None and np.array_equal(iso[A.arrow], B.arrow[np.ix_(iso, iso)])
