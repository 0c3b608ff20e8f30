"""Brute-force conjugation-orbit oracle."""

import numpy as np
import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
    CtxMismatch,
    Mat,
    VerificationFailed,
    centralizer_order,
    count3,
    group_order,
    identity,
    is_similar,
    orbit_census,
    orbit_of,
    ring_ctx,
    scalar,
    verify_counts,
)
import simclass.oracle as oracle
from simclass.oracle import _gl_generators, _mat_of, _orbit_states, _state_of
from conftest import j_matrix, rand_invertible, rand_mat, same_class


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
     ("t", 2, 2, 2), ("t", 3, 1, 2), ("z", 2, 1, 3), ("z", 3, 1, 3), ("t", 3, 1, 3),
     ("z", 3, 2, 2), ("t", 3, 2, 2), ("z", 5, 1, 2), ("t", 2, 3, 2),
     # the two largest groups the default-tier censuses act with
     pytest.param("z", 2, 2, 3, marks=pytest.mark.slow),
     pytest.param("t", 2, 2, 3, marks=pytest.mark.slow)],
)
def test_gl_generators_generate_the_whole_group(flavor, p, length, n):
    ctx = ring_ctx(flavor, p, length)
    gens = _gl_generators(ctx, n)
    assert len(gens) == 2 + len(ctx._unit_group_generators())
    assert all(g.is_invertible() for g in gens)
    assert len(_closure(list(gens))) == group_order(ctx, n)


# ----------------------------------------------------------------------
# state packing


def test_state_packing_round_trip(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(50):
        m = rand_mat(ctx, 3, rng)
        assert _mat_of(ctx, 3, _state_of(m)) == m
    assert _state_of(_mat_of(ctx, 2, 1234)) == 1234


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
    states = _orbit_states(j_matrix(ctx, 1, 0))
    assert list(states) == sorted(states)
    with pytest.raises(BudgetExceeded):
        _orbit_states(j_matrix(ctx, 1, 0), max_orbit=2)


def test_orbit_of_refuses_state_spaces_too_large_to_pack():
    # 256^9 states do not fit int64, even for a one-state orbit
    with pytest.raises(BudgetExceeded):
        orbit_of(scalar(ring_ctx("z", 2, 8), 3, 255))
    # 128^9 = 2^63 states: every id still fits
    assert orbit_of(scalar(ring_ctx("z", 2, 7), 3, 127))[0] == 1


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
    # many orbits share each trace, and p is odd
    (("z", 5, 2), 2, 775, 620),
]


@pytest.mark.parametrize("desc,n,m_classes,gl_classes", CENSUS_CASES)
def test_orbit_census_class_counts(shared_census, desc, n, m_classes, gl_classes):
    ctx = ring_ctx(*desc)
    census = shared_census(ctx, n)
    assert census.class_count("M") == m_classes
    if gl_classes is not None:
        assert census.class_count("GL") == gl_classes


def test_orbit_census_partition_properties():
    ctx = ring_ctx("z", 2, 2)
    census = orbit_census(ctx, 2)
    order = group_order(ctx, 2)
    assert int(census.sizes.sum()) == ctx.cardinality**4
    assert all(order % int(s) == 0 for s in census.sizes)
    reps = [_mat_of(ctx, 2, int(r)) for r in census.reps]
    assert all(int(r) == _state_of(m) for r, m in zip(census.reps, reps))
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
        assert same_class(_mat_of(ctx, 2, int(census.reps[i])), m)


def test_orbit_census_labels_on_the_trace_0_slice(shared_census, rng):
    # the slice's (n, n) entry is solved digit by digit in the "t" flavor
    ctx = ring_ctx("t", 2, 2)
    census = shared_census(ctx, 3)
    assert int(census.sizes.sum()) == ctx.cardinality**9
    for _ in range(20):
        m = rand_mat(ctx, 3, rng)
        i = census.index_of(m)
        assert i == census.index_of(m.conjugate_by(rand_invertible(ctx, 3, rng)))
        assert same_class(_mat_of(ctx, 3, int(census.reps[i])), m)
        assert census.sizes[i] == orbit_of(m)[0]


@pytest.mark.parametrize("n", [-1, 0, 4, True, 2.0, "2", None])
def test_orbit_census_refuses_sizes_outside_one_to_three(n):
    with pytest.raises(BadParams):
        orbit_census(ring_ctx("z", 2, 1), n)


def test_index_of_refuses_matrices_of_another_ring_or_size():
    census = orbit_census(ring_ctx("z", 2, 2), 2, want_labels=True)
    for m in (Mat.from_rows(ring_ctx("z", 2, 1), [[1, 1], [0, 1]]),
              identity(ring_ctx("t", 2, 2), 2),
              identity(ring_ctx("z", 2, 2), 3)):
        with pytest.raises(CtxMismatch):
            census.index_of(m)


@pytest.mark.slow
def test_slow_f11_census_at_n_3():
    # 11^8 trace-0 states flooded, out of 11^9 matrices
    census = orbit_census(ring_ctx("z", 11, 1), 3)
    assert census.class_count("M") == count3(11, 1, "M") == 1463
    assert census.class_count("GL") == count3(11, 1, "GL") == 1320


def test_orbit_census_budget():
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1000)
    with pytest.raises(BudgetExceeded):
        verify_counts(ring_ctx("z", 2, 2), 3, max_states=1000)


@pytest.mark.parametrize("call,bound", [
    ("verify_counts", {"max_states": -1}),
    ("verify_counts", {"max_states": True}),
    ("verify_counts", {"max_states": "8"}),
    ("verify_counts", {"max_states": 1e9}),
    ("orbit_census", {"max_states": 1e9}),
    ("orbit_census", {"max_states": -1}),
    ("orbit_states", {"max_orbit": True}),
    ("orbit_states", {"max_orbit": -5}),
    ("orbit_of", {"max_orbit": 1e7}),
])
def test_oracle_refuses_a_bound_that_is_no_non_negative_int(monkeypatch, call, bound):
    # refused before any state is packed: packing one fails the test
    def packed(*args):
        raise AssertionError("a state was packed")

    monkeypatch.setattr(oracle, "_embedding", packed)
    monkeypatch.setattr(oracle, "_conjugator", packed)
    ctx = ring_ctx("z", 2, 1)
    args = (identity(ctx, 2),) if call in ("orbit_states", "orbit_of") else (ctx, 2)
    with pytest.raises(BadParams):  # orbit_states is private: orbit_of's kernel
        getattr(oracle, call if call in oracle.__all__ else "_" + call)(*args, **bound)


def test_orbit_census_labels_only_on_request():
    ctx = ring_ctx("z", 2, 2)
    plain = orbit_census(ctx, 2)
    assert plain.labels is None
    with pytest.raises(BadParams):
        plain.index_of(identity(ctx, 2))
    labelled = orbit_census(ctx, 2, want_labels=True)
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
    gens = list(_gl_generators(ctx, n))
    return gens + [g.inverse() for g in gens]


@pytest.mark.parametrize(
    "desc,n",
    [(("z", 2, 1), 3), (("z", 3, 1), 2), (("t", 2, 2), 2), (("t", 3, 1), 2), (("t", 3, 2), 2),
     # 3 | n: the whole space is flooded, at n = 3
     (("z", 3, 1), 3)],
)
def test_orbit_census_matches_reference_bfs(desc, n):
    ctx = ring_ctx(*desc)
    gens = _reference_gens(ctx, n)
    labels = [-1] * ctx.cardinality ** (n * n)
    reps, sizes = [], []
    for seed in range(len(labels)):
        if labels[seed] < 0:
            orbit = _reference_orbit(_mat_of(ctx, n, seed), gens)
            for m in orbit:
                labels[_state_of(m)] = len(reps)
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
        least = min(_reference_orbit(m, gens), key=_state_of)
        for x in (m, m.conjugate_by(rand_invertible(ctx, 3, rng))):
            size, rep = orbit_of(x)
            assert size * centralizer_order(x) == total
            assert rep == least


@pytest.mark.parametrize(
    "rows,size",
    [([[127, 64, 0], [0, 127, 0], [0, 0, 127]], 21),
     ([[5, 64, 0], [0, 5, 64], [0, 0, 5]], 42),
     ([[3, 0, 0], [64, 3, 0], [0, 0, 67]], 84)],
)
def test_orbit_states_near_the_int64_ceiling_match_reference_bfs(rows, size):
    # 128^9 = 2^63 states: these orbits reach ids above 2^62, so the
    # digit extraction divides, and the encoding sums back up to, ids
    # near the top of int64
    ctx = ring_ctx("z", 2, 7)
    m = Mat.from_rows(ctx, rows)
    states = _orbit_states(m)
    reference = _reference_orbit(m, _reference_gens(ctx, 3))
    assert states.tolist() == sorted(_state_of(x) for x in reference)
    assert states.size == size
    assert int(states.max()) >= 2**62
    assert size * centralizer_order(m) == group_order(ctx, 3)


def _entry_form(row, col):
    """A batching form that reads entry (row, col) instead of the trace."""
    def form(ctx, n):
        per = ctx._digit_base()[1]
        out = np.zeros((per, n * n * per), dtype=np.int64)
        out[:, (row * n + col) * per : (row * n + col + 1) * per] = np.eye(per, dtype=np.int64)
        return out
    return form


@pytest.mark.parametrize("desc,n", [(("z", 2, 1), 3), (("z", 3, 2), 2), (("t", 2, 2), 2)])
@pytest.mark.parametrize("want_labels", [False, True])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_a_batching_key_that_is_no_invariant_is_refused(monkeypatch, desc, n, want_labels, entry):
    # a single entry is no conjugation invariant: floods would share orbits
    monkeypatch.setattr(oracle, "_trace_form", _entry_form(*entry))
    with pytest.raises(VerificationFailed, match="not a conjugation invariant"):
        orbit_census(ring_ctx(*desc), n, want_labels=want_labels)


def _wrong_embedding(fault):
    """A census embedding with one fault: the (n, n) entry solved with
    the wrong sign or left 0, or entry (1, 1) solved and dropped instead."""
    embedding = oracle._embedding

    def embed(ctx, n):
        out = embedding(ctx, n).copy()
        mod, per = ctx._digit_base()
        sdim = out.shape[1]
        if fault == "sign":
            out[sdim:] = oracle._trace_form(ctx, n)[:, :sdim]
        elif fault == "zero":
            out[sdim:] = 0
        else:
            form = oracle._trace_form(ctx, n)[:, per:]
            out = np.vstack([(mod - 1) * form, np.eye(sdim, dtype=np.int64)])
        return out

    return embed


@pytest.mark.parametrize(
    "fault,desc,n",
    [(fault, ("z", 2, 2), 3) for fault in ("sign", "zero", "entry")]
    + [(fault, ("z", 5, 2), 2) for fault in ("sign", "zero", "entry")]
    # digit by digit; mod 2 has -x = x, so the sign is tried mod 3
    + [("zero", ("t", 2, 2), 3), ("entry", ("t", 2, 2), 3), ("sign", ("t", 3, 2), 2)],
)
@pytest.mark.parametrize("want_labels", [False, True])
def test_a_wrong_slice_embedding_is_refused(monkeypatch, fault, desc, n, want_labels):
    monkeypatch.setattr(oracle, "_embedding", _wrong_embedding(fault))
    with pytest.raises(VerificationFailed, match="trace-0 matrices"):
        orbit_census(ring_ctx(*desc), n, want_labels=want_labels)


@pytest.mark.parametrize("want_labels", [False, True])
def test_a_slice_where_n_is_no_unit_is_refused(monkeypatch, want_labels):
    # over F_3 the trace-0 3x3 matrices hold the scalars, so the slice's
    # orbits shifted by dI are not distinct orbits
    ctx = ring_ctx("z", 3, 1)
    trace_0 = np.vstack([np.eye(8, dtype=np.int64), 2 * oracle._trace_form(ctx, 3)[:, :8]])
    monkeypatch.setattr(oracle, "_embedding", lambda ctx, n: trace_0)
    with pytest.raises(VerificationFailed, match="meet"):
        orbit_census(ctx, 3, want_labels=want_labels)


@pytest.mark.parametrize("desc,n", [(("z", 2, 2), 2), (("t", 2, 2), 2), (("t", 3, 2), 2),
                                    (("z", 2, 1), 3), (("t", 3, 1), 3), (("z", 5, 1), 2)])
def test_trace_key_is_the_ring_trace_of_every_state(desc, n):
    # the slice and its certificate rest on _trace_form: it must take
    # every state's digits to its trace's digits
    ctx = ring_ctx(*desc)
    card, (mod, per) = ctx.cardinality, ctx._digit_base()
    ids = np.arange(card ** (n * n), dtype=np.int64)
    place = [card ** (n * n - 1 - i // per) * mod ** (i % per) for i in range(n * n * per)]
    digits = ids // np.array(place, dtype=np.int64)[:, None] % mod
    traces = mod ** np.arange(per) @ (oracle._trace_form(ctx, n) @ digits % mod)
    assert traces.tolist() == [_mat_of(ctx, n, s).trace() for s in range(ids.size)]


def test_orbit_sizes_must_divide_the_group_order(monkeypatch):
    ctx = ring_ctx("z", 2, 1)
    monkeypatch.setattr(oracle, "group_order", lambda ctx, n: 1)
    with pytest.raises(VerificationFailed):
        orbit_census(ctx, 3, want_labels=True)
    with pytest.raises(VerificationFailed):
        _orbit_states(j_matrix(ctx, 0, 0))


# ----------------------------------------------------------------------
# the full cross-check report


def test_verify_counts_all_match():
    report = verify_counts(ring_ctx("z", 2, 1), 3)
    assert report["mismatches"] == 0
    assert report["canon_agreements"] == report["canon_samples"] == 20
    groups = {c["group"]: c for c in report["counts"]}
    assert groups["M"]["oracle"] == groups["M"]["formula"] == 14
    assert groups["GL"]["enumerated"] == 6
    assert all(c["match"] for c in report["counts"])


def test_verify_counts_n2():
    report = verify_counts(ring_ctx("z", 2, 2), 2)
    assert report["mismatches"] == 0
    groups = {c["group"]: c for c in report["counts"]}
    assert groups["M"]["oracle"] == 28


def test_verify_counts_samples_without_flooding(monkeypatch):
    # the census already holds every orbit: no sample is flooded again
    def no_flood(*args, **kwargs):
        raise AssertionError("_orbit_states called")

    monkeypatch.setattr(oracle, "_orbit_states", no_flood)
    report = verify_counts(ring_ctx("t", 2, 2), 3)
    assert report["mismatches"] == 0
    assert report["canon_agreements"] == 20


@pytest.mark.parametrize("desc,n", [(("z", 2, 2), 2), (("z", 2, 1), 3)])
def test_verify_counts_checks_orbit_times_centralizer(monkeypatch, desc, n):
    real = oracle.centralizer_order
    monkeypatch.setattr(oracle, "centralizer_order", lambda m: 2 * real(m))
    with pytest.raises(VerificationFailed, match="centralizer order"):
        verify_counts(ring_ctx(*desc), n)
