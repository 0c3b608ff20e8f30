"""Brute-force conjugation-orbit oracle and its disk cache."""

import os

import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
    Mat,
    VerificationFailed,
    centralizer_order,
    gl_generators,
    group_order,
    identity,
    is_similar,
    j_matrix,
    orbit_census,
    orbit_of,
    orbit_states,
    ring_ctx,
    same_class,
    save_census,
    scalar,
    verify_counts,
)
import simclass.oracle as oracle
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


def test_orbit_of_refuses_state_spaces_too_large_to_pack():
    # 256^9 states do not fit int64, even for a one-state orbit; a 1x1
    # entry near 2^60 would lose bits in the float64 matmul
    with pytest.raises(BudgetExceeded):
        orbit_of(scalar(ring_ctx("z", 2, 8), 3, 255))
    with pytest.raises(BudgetExceeded):
        orbit_states(Mat(ring_ctx("z", 2, 60), 1, [2**60 - 1]))
    # 128^9 = 2^63 states: every id still fits
    assert orbit_of(scalar(ring_ctx("z", 2, 7), 3, 127))[0] == 1
    assert orbit_of(Mat(ring_ctx("z", 2, 20), 1, [2**20 - 1]))[0] == 1


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
    (("z", 3, 1), 3, 39, 24),
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


def test_orbit_census_labels_only_on_request(tmp_path, monkeypatch):
    ctx = ring_ctx("z", 2, 2)
    monkeypatch.delenv("SIMCLASS_CACHE_DIR", raising=False)
    plain = orbit_census(ctx, 2)
    assert plain.labels is None
    with pytest.raises(BadParams):
        plain.index_of(identity(ctx, 2))
    d = str(tmp_path)
    assert orbit_census(ctx, 2, cache_dir=d).labels is None  # computed, then saved
    assert orbit_census(ctx, 2, cache_dir=d).labels is None  # read back
    # labels are never cached, so asking for them recomputes
    labelled = orbit_census(ctx, 2, want_labels=True, cache_dir=d)
    assert labelled.labels is not None
    assert list(labelled.reps) == list(plain.reps)
    assert labelled.index_of(identity(ctx, 2)) == labelled.index_of(scalar(ctx, 2, 1))


def _reference_orbit(m, gens):
    """The conjugation orbit of m as a Python set, by plain BFS."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x.conjugate_by(g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _reference_gens(ctx, n):
    gens = list(gl_generators(ctx, n))
    return gens + [g.inverse() for g in gens]


@pytest.mark.parametrize(
    "desc,n", [(("z", 2, 1), 3), (("z", 3, 1), 2), (("t", 2, 2), 2), (("t", 3, 1), 2)]
)
def test_orbit_census_matches_reference_bfs(desc, n):
    ctx = ring_ctx(*desc)
    gens = _reference_gens(ctx, n)
    labels = [-1] * ctx.cardinality ** (n * n)
    reps, sizes = [], []
    for seed in range(len(labels)):
        if labels[seed] < 0:
            orbit = _reference_orbit(mat_of(ctx, n, seed), gens)
            for m in orbit:
                labels[state_of(m)] = len(reps)
            reps.append(seed)
            sizes.append(len(orbit))
    census = orbit_census(ctx, n, want_labels=True)
    assert census.reps.tolist() == reps
    assert census.sizes.tolist() == sizes
    assert census.labels.tolist() == labels


def test_orbit_of_over_a_t_flavor_ring_matches_reference_bfs(rng):
    ctx = ring_ctx("t", 2, 2)
    gens = _reference_gens(ctx, 3)
    total = group_order(ctx, 3)
    for rows in ([[0, 2, 0], [0, 0, 0], [0, 0, 0]], [[1, 2, 0], [0, 1, 2], [0, 0, 1]],
                 [[0, 1, 0], [0, 0, 0], [0, 0, 0]]):
        m = Mat.from_rows(ctx, rows)
        least = min(_reference_orbit(m, gens), key=state_of)
        for x in (m, m.conjugate_by(rand_invertible(ctx, 3, rng))):
            size, rep = orbit_of(x)
            assert size * centralizer_order(x) == total
            assert rep == least


def test_orbit_sizes_must_divide_the_group_order(monkeypatch):
    ctx = ring_ctx("z", 2, 1)
    monkeypatch.setattr(oracle, "group_order", lambda ctx, n: 1)
    with pytest.raises(VerificationFailed):
        orbit_census(ctx, 3, want_labels=True)
    with pytest.raises(VerificationFailed):
        orbit_states(j_matrix(ctx, 0, 0))


# ----------------------------------------------------------------------
# disk cache


def test_census_cache_round_trip(tmp_path):
    ctx = ring_ctx("z", 2, 1)
    census = orbit_census(ctx, 2)
    path = str(tmp_path / "f2-n2.orbits")
    save_census(census, path)
    _, loaded = oracle._read_census(path)
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
        oracle._read_census(path)


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
    _, rewritten = oracle._read_census(os.path.join(d, "z-2-2-n2.orbits"))
    assert rewritten.class_count("M") == 28


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
