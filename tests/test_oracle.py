"""Brute-force conjugation-orbit oracle and its disk cache."""

import os

import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
    centralizer_order,
    gl_generators,
    group_order,
    identity,
    is_similar,
    j_matrix,
    load_census,
    orbit_census,
    orbit_of,
    orbit_states,
    ring_ctx,
    same_class,
    save_census,
    scalar,
    verify_counts,
)
from simclass.oracle import mat_of, state_of
from conftest import rand_invertible, rand_mat


# ----------------------------------------------------------------------
# group orders and generators


def test_group_order_anchors():
    assert group_order(ring_ctx("z", 2, 1), 2) == 6
    assert group_order(ring_ctx("z", 3, 1), 2) == 48
    assert group_order(ring_ctx("z", 2, 1), 3) == 168
    assert group_order(ring_ctx("z", 2, 2), 2) == 96
    assert group_order(ring_ctx("z", 2, 3), 2) == 1536
    assert group_order(ring_ctx("z", 2, 2), 3) == 86016
    assert group_order(ring_ctx("z", 3, 2), 2) == 3888
    assert group_order(ring_ctx("t", 2, 2), 2) == 96


def _closure(gens):
    seen = {identity(gens[0].ctx, gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m @ g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "flavor,p,length,n",
    [("z", 2, 1, 2), ("z", 2, 2, 2), ("z", 2, 3, 2), ("z", 3, 1, 2),
     ("t", 2, 2, 2), ("t", 3, 1, 2), ("z", 2, 1, 3)],
)
def test_gl_generators_generate_the_whole_group(flavor, p, length, n):
    ctx = ring_ctx(flavor, p, length)
    gens = gl_generators(ctx, n)
    assert all(g.is_invertible() for g in gens)
    assert len(_closure(list(gens))) == group_order(ctx, n)


# ----------------------------------------------------------------------
# state packing


def test_state_packing_round_trip(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(50):
        m = rand_mat(ctx, 3, rng)
        assert mat_of(ctx, 3, state_of(m)) == m
    assert state_of(mat_of(ctx, 2, 1234)) == 1234


# ----------------------------------------------------------------------
# single orbits


def test_orbit_of_scalars_are_singletons():
    ctx = ring_ctx("z", 2, 2)
    size, rep = orbit_of(scalar(ctx, 3, 3))
    assert size == 1 and rep == scalar(ctx, 3, 3)


def test_orbit_of_matches_orbit_stabilizer():
    ctx = ring_ctx("z", 2, 1)
    m = j_matrix(ctx, 0, 0)
    size, rep = orbit_of(m)
    assert size == 21  # |GL_3(F_2)| / 8
    assert size * centralizer_order(m) == group_order(ctx, 3)
    assert same_class(rep, m)


def test_orbit_of_min_rep_is_class_invariant(rng):
    ctx = ring_ctx("z", 2, 2)
    for _ in range(10):
        m = rand_mat(ctx, 3, rng)
        g = rand_invertible(ctx, 3, rng)
        s1, r1 = orbit_of(m)
        s2, r2 = orbit_of(m.conjugate_by(g))
        assert (s1, r1) == (s2, r2)


def test_orbit_states_sorted_and_budget(rng):
    ctx = ring_ctx("z", 2, 2)
    states = orbit_states(j_matrix(ctx, 1, 0))
    assert list(states) == sorted(states)
    with pytest.raises(BudgetExceeded):
        orbit_states(j_matrix(ctx, 1, 0), max_orbit=2)


def test_same_class_agrees_with_is_similar(rng):
    ctx = ring_ctx("z", 2, 2)
    for n in (2, 3):
        for _ in range(25):
            a, b = rand_mat(ctx, n, rng), rand_mat(ctx, n, rng)
            assert same_class(a, b) == is_similar(a, b)[0]
            g = rand_invertible(ctx, n, rng)
            assert same_class(a, a.conjugate_by(g))


# ----------------------------------------------------------------------
# full censuses


CENSUS_CASES = [
    (("z", 2, 1), 3, 14, 6),
    (("z", 2, 2), 2, 28, None),
    (("z", 3, 2), 2, 117, None),
    (("z", 2, 2), 3, 144, 60),
    (("t", 2, 2), 3, 144, None),
]


@pytest.mark.parametrize("desc,n,m_classes,gl_classes", CENSUS_CASES)
def test_orbit_census_class_counts(desc, n, m_classes, gl_classes):
    ctx = ring_ctx(*desc)
    census = orbit_census(ctx, n)
    assert census.class_count("M") == m_classes
    if gl_classes is not None:
        assert census.class_count("GL") == gl_classes


def test_orbit_census_partition_properties():
    ctx = ring_ctx("z", 2, 2)
    census = orbit_census(ctx, 2)
    order = group_order(ctx, 2)
    assert int(census.sizes.sum()) == ctx.cardinality**4
    assert all(order % int(s) == 0 for s in census.sizes)
    reps = census.rep_mats()
    assert all(int(r) == state_of(m) for r, m in zip(census.reps, reps))
    # reps are the lexicographically minimal orbit members, hence distinct
    assert len(set(reps)) == census.class_count("M")


def test_orbit_census_labels(rng):
    ctx = ring_ctx("z", 2, 2)
    census = orbit_census(ctx, 2, want_labels=True)
    for _ in range(20):
        m = rand_mat(ctx, 2, rng)
        g = rand_invertible(ctx, 2, rng)
        i = census.index_of(m)
        assert i == census.index_of(m.conjugate_by(g))
        assert same_class(census.rep_mats()[i], m)


def test_orbit_census_budget():
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1000)


def test_orbit_census_jobs_agree():
    ctx = ring_ctx("z", 3, 1)
    a = orbit_census(ctx, 3, jobs=1)
    b = orbit_census(ctx, 3, jobs=2)
    assert list(a.reps) == list(b.reps) and list(a.sizes) == list(b.sizes)
    assert a.class_count("M") == 39 and a.class_count("GL") == 24


# ----------------------------------------------------------------------
# disk cache


def test_census_cache_round_trip(tmp_path):
    ctx = ring_ctx("z", 2, 1)
    census = orbit_census(ctx, 2)
    path = str(tmp_path / "f2-n2.orbits")
    save_census(census, path)
    loaded = load_census(path)
    assert loaded.ctx is ctx and loaded.n == 2
    assert list(loaded.reps) == list(census.reps)
    assert list(loaded.sizes) == list(census.sizes)


def test_census_cache_rejects_foreign_version(tmp_path):
    ctx = ring_ctx("z", 2, 1)
    path = str(tmp_path / "f2-n2.orbits")
    save_census(orbit_census(ctx, 2), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw.replace(b'"version": 1', b'"version": 99', 1))
    with pytest.raises(BadParams):
        load_census(path)


def test_orbit_census_uses_and_survives_cache(tmp_path):
    ctx = ring_ctx("z", 2, 1)
    d = str(tmp_path)
    first = orbit_census(ctx, 3, cache_dir=d)
    files = os.listdir(d)
    assert files == ["z-2-1-n3.orbits"]
    second = orbit_census(ctx, 3, cache_dir=d)
    assert list(second.reps) == list(first.reps)
    # a corrupt cache is ignored, not fatal
    open(os.path.join(d, files[0]), "wb").write(b"garbage")
    third = orbit_census(ctx, 3, cache_dir=d)
    assert list(third.reps) == list(first.reps)


def test_orbit_census_ignores_a_cache_file_for_another_ring(tmp_path):
    d = str(tmp_path)
    orbit_census(ring_ctx("z", 3, 1), 2, cache_dir=d)
    os.replace(os.path.join(d, "z-3-1-n2.orbits"), os.path.join(d, "z-2-2-n2.orbits"))
    census = orbit_census(ring_ctx("z", 2, 2), 2, cache_dir=d)
    assert census.class_count("M") == 28
    # the foreign file was overwritten with the right census
    assert load_census(os.path.join(d, "z-2-2-n2.orbits")).class_count("M") == 28


# ----------------------------------------------------------------------
# the full cross-check report


def test_verify_counts_all_match():
    report = verify_counts(ring_ctx("z", 2, 1), 3, samples=10)
    assert report["mismatches"] == 0
    assert report["canon_agreements"] == report["canon_samples"] == 10
    groups = {c["group"]: c for c in report["counts"]}
    assert groups["M"]["oracle"] == groups["M"]["formula"] == 14
    assert groups["GL"]["enumerated"] == 6
    assert all(c["match"] for c in report["counts"])


def test_verify_counts_n2():
    report = verify_counts(ring_ctx("z", 2, 2), 2, samples=10)
    assert report["mismatches"] == 0
    groups = {c["group"]: c for c in report["counts"]}
    assert groups["M"]["oracle"] == 28
