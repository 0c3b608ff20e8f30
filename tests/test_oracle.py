"""Brute-force conjugation-orbit oracle."""

import hashlib
import importlib

import numpy as np
import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
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
from simclass.oracle import _gl_generators, _mat_of, _orbit_states
from conftest import j_matrix, rand_invertible, rand_mat, same_class, state_of


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
        assert _mat_of(ctx, 3, state_of(m)) == m
    assert state_of(_mat_of(ctx, 2, 1234)) == 1234


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
    reps, size = _orbit_states(j_matrix(ctx, 1, 0))
    assert list(reps) == sorted(reps) and reps.size < size
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


def _digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, np.asarray(values).tolist())).encode()).hexdigest()


# sha256 of the space-separated reps, sizes and labels: every census that
# the default tier and the census benchmark run
CENSUS_PINS = [
    (("z", 2, 1), 2, False, 6,
     "e164a78f651cba5056d8533623460c2f42ee4d69021f8ba9f255276e2793e450",
     "88839e69a4a96ab48dd54f8f76ab8b551ba3ddeb452a106a7a0f16aa1cb98b1d", None),
    (("z", 2, 2), 2, False, 28,
     "a5bd73d63e65476392567086aceeff68d12c65b003a9097d80a5b6f6d0a4a56a",
     "a8e62b84f05b81fe8182e912fd1f0ddfe69327c75b6907252ac3a834a650847e", None),
    (("z", 2, 3), 2, False, 120,
     "00c29cd2ae2d4318f70eabe582a7cd36f56c225f0648b27edc18a38acddfc618",
     "b781f0cd5e3f8028aec69e8b5178a76b0c05424698bb538bd5adbd97bd7f2a7e", None),
    (("z", 3, 2), 2, False, 117,
     "9abdbd96c1839d4d43b411888f736c15558771a7a5a558071625a239ad407148",
     "f66dc5f7b58fb5b5cfa379252dd407ae91dd14ffe7bee0291d2d7a7f1a93f9a4", None),
    (("z", 2, 2), 3, True, 144,
     "c68cc09bedc5a890ab993a0d19d3c6328ef0d2cf791e94fb4299f9aa9a745c60",
     "dd8ee054e8bd23f3102e596ebeb2765d390434078ec03c94f4cfcc197cfa6052",
     "d66ed5f47d0b63ebd4de70aa469ec16be6667b66eab625f3a13d54e02478259c"),
    (("t", 2, 2), 3, False, 144,
     "c68cc09bedc5a890ab993a0d19d3c6328ef0d2cf791e94fb4299f9aa9a745c60",
     "dd8ee054e8bd23f3102e596ebeb2765d390434078ec03c94f4cfcc197cfa6052", None),
    (("t", 3, 2), 2, False, 117,
     "9abdbd96c1839d4d43b411888f736c15558771a7a5a558071625a239ad407148",
     "f66dc5f7b58fb5b5cfa379252dd407ae91dd14ffe7bee0291d2d7a7f1a93f9a4", None),
    (("z", 5, 2), 2, False, 775,
     "4bd81526d01a75d782c04f4ad35c05a0ce7bfbf63603fa2f4e1784e641feac24",
     "c5fc9ccb64ba6279e3ba011c8876fa5985d8932bb717ef222ea44cf45cd1f988", None),
    (("z", 3, 1), 3, False, 39,
     "42f1431f73ec9d34ef078484072572e8deddc053c6c6d79847a319a7681d6a72",
     "ec8e6e0bead968a6dc89bd75c28ec12d430073f14fe941c998846213aacdfb4e", None),
]

# the six orbit_of inputs of the census benchmark at seed 1, over z:3:2:
# conjugated hard shapes, with their orbit sizes and least members
ORBIT_OF_PINS = [
    ([[4, 4, 4], [0, 5, 7], [0, 2, 6]], 75816, [[0, 0, 1], [0, 1, 3], [8, 6, 5]]),
    ([[5, 3, 8], [0, 5, 8], [6, 0, 5]], 75816, [[0, 0, 1], [0, 2, 0], [8, 0, 4]]),
    ([[4, 1, 5], [4, 7, 5], [8, 5, 4]], 75816, [[0, 0, 1], [0, 3, 1], [3, 3, 3]]),
    ([[6, 3, 4], [6, 3, 3], [0, 3, 6]], 50544, [[0, 0, 1], [0, 3, 1], [3, 6, 3]]),
    ([[7, 2, 5], [8, 4, 7], [5, 4, 1]], 75816, [[0, 0, 0], [0, 0, 1], [0, 3, 3]]),
    ([[7, 1, 6], [2, 0, 3], [2, 7, 5]], 50544, [[0, 0, 1], [0, 2, 0], [2, 3, 1]]),
]


def _check_census_pins():
    for desc, n, want_labels, classes, reps, sizes, labels in CENSUS_PINS:
        census = orbit_census(ring_ctx(*desc), n, want_labels=want_labels)
        assert census.reps.size == classes
        assert (_digest(census.reps), _digest(census.sizes)) == (reps, sizes)
        assert labels is None or _digest(census.labels) == labels


def _check_orbit_of_pins():
    ctx = ring_ctx("z", 3, 2)
    for rows, size, least in ORBIT_OF_PINS:
        assert orbit_of(Mat.from_rows(ctx, rows)) == (size, Mat.from_rows(ctx, least))


def test_orbit_census_outputs_are_pinned():
    _check_census_pins()


def test_orbit_of_outputs_are_pinned():
    _check_orbit_of_pins()


def test_the_oracle_uses_no_normal_form(monkeypatch):
    # the oracle is a ground truth of its own: with every canonical form
    # and the enumeration refused, it still returns the pinned results
    def refused(*args, **kwargs):
        raise AssertionError("a normal form was computed")

    for module, name in (("canon2", "canon2"), ("canon3", "canon3"), ("canon3", "canon"),
                         ("modsolve", "canon"), ("oracle", "canon"),
                         ("census", "_enumerate"), ("oracle", "_enumerate")):
        monkeypatch.setattr(importlib.import_module(f"simclass.{module}"), name, refused)
    _check_census_pins()
    _check_orbit_of_pins()


def _span(vectors, q):
    """Every F_q combination of vectors, as a set of tuples, by closure."""
    span = {tuple([0] * len(vectors[0]))}
    for v in vectors:
        span = {tuple((a + c * b) % q for a, b in zip(w, v)) for w in span for c in range(q)}
    return span


@pytest.mark.parametrize("desc,n", [(("z", 2, 2), 3), (("z", 3, 2), 2), (("t", 5, 2), 2)])
def test_coset_reduction_is_the_least_member_by_brute_force(desc, n):
    # every residue r over F_q: the least member of t + im(ad r) is what
    # the reduction returns, and the coset has q^rank members; ad r comes
    # from ring arithmetic over F_q here.  t runs over every top-digit
    # vector at n = 2 and over a fixed sample of 64 at n = 3
    ctx = ring_ctx(*desc)
    field, q, n2 = ctx.truncated(1), ctx.q, n * n
    keys = np.arange(q**n2)
    cosets = oracle._Cosets(ctx, n, n2, keys)
    place = ctx.cardinality ** np.arange(n2 - 1, -1, -1)
    tops = keys if n == 2 else np.random.default_rng(0).choice(keys, 64, replace=False)
    tops = tops[:, None] // q ** np.arange(n2 - 1, -1, -1) % q
    basis = [Mat(field, n, [int(i == k) for i in range(n2)]) for k in range(n2)]
    for key in keys:
        r = _mat_of(field, n, int(key))
        span = np.array(sorted(_span([(r @ e - e @ r).vals for e in basis], q)))
        assert span.shape[0] == q ** int(cosets.rank[key])
        low = np.array(r.vals)  # the residue, as entries of the length-2 ring
        got = cosets.reduce(low + q * tops)
        # (t + w) mod q for every t and every w in the span
        members = (low + q * ((tops[:, None, :] + span[None, :, :]) % q)) @ place
        assert got.tolist() == members.min(axis=1).tolist()


@pytest.mark.parametrize("desc,n", [(("z", 2, 2), 3), (("t", 3, 2), 2), (("z", 2, 3), 2),
                                    (("z", 3, 1), 3)])
def test_dense_coset_index_is_a_bijection(desc, n):
    # settling every census state gives indices onto range(count), and
    # decoding an index gives its coset's least member
    ctx = ring_ctx(*desc)
    m = oracle._embedding(ctx, n).shape[1] // ctx._digit_base()[1]
    cosets = oracle._Cosets(ctx, n, m, np.arange((ctx.q if ctx.length > 1 else 1) ** m))
    total = cosets.count()
    reps, idx = cosets.settle(cosets.entries(np.arange(ctx.cardinality**m)))
    assert np.array_equal(np.unique(idx), np.arange(total))
    assert np.array_equal(cosets.decode(idx) @ cosets.place, reps)
    # a coset's size is q^rank; its members are the states with its index
    assert np.bincount(idx).tolist() == cosets.size(cosets.decode(np.arange(total))).tolist()


def test_orbit_census_partition_properties():
    ctx = ring_ctx("z", 2, 2)
    census = orbit_census(ctx, 2)
    order = group_order(ctx, 2)
    assert int(census.sizes.sum()) == ctx.cardinality**4
    assert all(order % int(s) == 0 for s in census.sizes)
    reps = [_mat_of(ctx, 2, int(r)) for r in census.reps]
    assert all(int(r) == state_of(m) for r, m in zip(census.reps, reps))
    # reps are the lexicographically minimal orbit members, hence distinct
    assert len(set(reps)) == census.class_count("M")


def test_orbit_census_labels(rng):
    ctx = ring_ctx("z", 2, 2)
    census = orbit_census(ctx, 2, want_labels=True)
    for _ in range(20):
        m = rand_mat(ctx, 2, rng)
        g = rand_invertible(ctx, 2, rng)
        i = census.labels[state_of(m)]
        assert i == census.labels[state_of(m.conjugate_by(g))]
        assert same_class(_mat_of(ctx, 2, int(census.reps[i])), m)


def test_orbit_census_labels_on_the_trace_0_slice(shared_census, rng):
    # the slice's (n, n) entry is solved digit by digit in the "t" flavor
    ctx = ring_ctx("t", 2, 2)
    census = shared_census(ctx, 3)
    assert int(census.sizes.sum()) == ctx.cardinality**9
    # each orbit labels exactly its states: no pin covers these labels
    assert np.bincount(census.labels).tolist() == census.sizes.tolist()
    for _ in range(20):
        m = rand_mat(ctx, 3, rng)
        i = census.labels[state_of(m)]
        assert i == census.labels[state_of(m.conjugate_by(rand_invertible(ctx, 3, rng)))]
        assert same_class(_mat_of(ctx, 3, int(census.reps[i])), m)
        assert census.sizes[i] == orbit_of(m)[0]


@pytest.mark.parametrize("n", [-1, 0, 4, True, 2.0, "2", None])
def test_orbit_census_refuses_sizes_outside_one_to_three(n):
    with pytest.raises(BadParams):
        orbit_census(ring_ctx("z", 2, 1), n)


@pytest.mark.slow
def test_slow_f11_census_at_n_3():
    # 11^8 trace-0 states flooded, out of 11^9 matrices
    census = orbit_census(ring_ctx("z", 11, 1), 3)
    assert census.class_count("M") == count3(11, 1, "M") == 1463
    assert census.class_count("GL") == count3(11, 1, "GL") == 1320


def test_a_residue_outside_the_residue_class_is_refused():
    # orbit_of builds its tables for the residue class it flooded first;
    # a conjugate whose residue is not in it would read a wrong table row
    cosets = oracle._Cosets(ring_ctx("z", 3, 2), 2, 4, np.array([0]))
    assert cosets.reduce(np.array([[3, 6, 0, 3]])).tolist() == [3 * 9**3 + 6 * 9**2 + 3]
    with pytest.raises(VerificationFailed, match="residue class"):
        cosets.reduce(np.array([[1, 0, 0, 1]]))


@pytest.mark.slow
@pytest.mark.parametrize("flavor", ["z", "t"])
def test_slow_q5_len2_census_at_n_3(flavor):
    # 25^8 trace-0 states, flooded as 12,462,625 kernel cosets
    census = orbit_census(ring_ctx(flavor, 5, 2), 3)
    assert census.class_count("M") == count3(5, 2, "M") == 20175
    assert census.class_count("GL") == count3(5, 2, "GL") == 15540


def test_orbit_census_budget():
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1000)
    # the cap counts the cosets flooded: 1864 of them over z:2:2 at n = 3
    assert orbit_census(ring_ctx("z", 2, 2), 3, max_states=1864).class_count("M") == 144
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1863)
    with pytest.raises(BudgetExceeded):
        verify_counts(ring_ctx("z", 2, 2), 3, max_states=1000)


def _no_tables(*args):
    raise AssertionError("coset tables built")


@pytest.mark.parametrize("desc", [("z", 11, 2), ("t", 11, 2), ("z", 7, 2)])
def test_census_beyond_the_coset_lower_bound_builds_no_tables(desc, monkeypatch):
    # rank(ad r) <= n^2 - n, so there are at least |A|^8 / q^6 cosets on the
    # trace-0 slice at n = 3: 11^10 and 7^10, both above the default cap of
    # 2^28, are refused before any coset table is built
    monkeypatch.setattr(oracle, "_Cosets", _no_tables)
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx(*desc), 3)
    with pytest.raises(BudgetExceeded):
        verify_counts(ring_ctx(*desc), 3)


def test_the_coset_lower_bound_is_the_census_states_over_q_to_the_n2_minus_n(monkeypatch):
    # z:2:2 at n = 3: 4^8 / 2^6 = 1024 cosets at least (1864 in fact)
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1864 - 1)
    monkeypatch.setattr(oracle, "_Cosets", _no_tables)
    with pytest.raises(BudgetExceeded):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1023)
    with pytest.raises(AssertionError, match="coset tables built"):
        orbit_census(ring_ctx("z", 2, 2), 3, max_states=1024)


@pytest.mark.parametrize("flavor", ["z", "t"])
def test_orbit_of_a_scalar_over_a_large_ring_builds_one_table_row(flavor):
    # the coset tables cover the residue class flooded first, here one
    # scalar: 11^9 residues at n = 3 would take gigabytes
    import tracemalloc

    ctx = ring_ctx(flavor, 11, 2)
    tracemalloc.start()
    try:
        got = orbit_of(scalar(ctx, 3, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1, scalar(ctx, 3, 13))
    assert peak < 2**25


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
    labelled = orbit_census(ctx, 2, want_labels=True)
    assert labelled.labels is not None
    assert list(labelled.reps) == list(plain.reps)
    # E_12 and E_21 are conjugate by the swap; the identity is a class alone
    e12, e21 = (Mat.from_rows(ctx, rows) for rows in ([[0, 1], [0, 0]], [[0, 0], [1, 0]]))
    label = labelled.labels[[state_of(e12), state_of(e21), state_of(identity(ctx, 2))]]
    assert label[0] == label[1] != label[2]


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
    # the residue I has ad = 0: every coset is one state
    states, orbit_size = _orbit_states(m)
    reference = _reference_orbit(m, _reference_gens(ctx, 3))
    assert states.tolist() == sorted(state_of(x) for x in reference)
    assert states.size == orbit_size == size
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
