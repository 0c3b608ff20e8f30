"""Similarity decisions and centralizer orders from canonical forms,
checked against the reference solver (intertwiner modules and their
residue spans, in reference_solver.py) and against exact counts."""

import importlib
import itertools
import time

import numpy as np
import pytest

import reference_solver as ref
from simclass import (
    BadParams,
    Mat,
    SearchBudgetExceeded,
    VerificationFailed,
    canon2,
    centralizer_order,
    diag,
    enumerate3,
    group_order,
    identity,
    is_similar,
    parse_ring,
    ring_ctx,
    scalar,
)
from conftest import enumerate2, j_matrix, rand_invertible, rand_mat
from reference_solver import find_unit_element, intertwiner


def test_intertwiner_basis_solves_the_defining_equation(rng):
    for desc in [("z", 2, 2), ("z", 3, 2), ("t", 2, 3)]:
        ctx = ring_ctx(*desc)
        for n in (2, 3):
            a1, a2 = rand_mat(ctx, n, rng), rand_mat(ctx, n, rng)
            mod = intertwiner(a1, a2)
            for x in mod.gens:
                assert a1 @ x == x @ a2


def _direct_intertwiner_count(a1, a2) -> int:
    """|{X : a1 X = X a2}| by evaluating both sides on every X at once,
    with the ring's addition and multiplication as lookup tables."""
    ctx, n = a1.ctx, a1.n
    card = range(ctx.cardinality)
    add = np.array([[ctx.add_raw(x, y) for y in card] for x in card])
    mul = np.array([[ctx.mul_raw(x, y) for y in card] for x in card])
    xs = np.indices((ctx.cardinality,) * (n * n)).reshape(n * n, -1)  # row-major entries
    ok = np.ones(xs.shape[1], dtype=bool)
    for i in range(n):
        for j in range(n):
            lhs = rhs = np.zeros(xs.shape[1], dtype=np.int64)
            for m in range(n):
                lhs = add[lhs, mul[a1.raw(i, m), xs[m * n + j]]]
                rhs = add[rhs, mul[xs[i * n + m], a2.raw(m, j)]]
            ok &= lhs == rhs
    return int(ok.sum())


@pytest.mark.parametrize("desc,n", [(("z", 2, 2), 2), (("t", 2, 2), 2),
                                    (("z", 2, 1), 3), (("z", 3, 1), 3)])
def test_intertwiner_size_matches_a_direct_count(desc, n, rng):
    ctx = ring_ctx(*desc)
    for _ in range(3):
        a = rand_mat(ctx, n, rng)
        for b in (rand_mat(ctx, n, rng), a, a.conjugate_by(rand_invertible(ctx, n, rng))):
            assert intertwiner(a, b).size == _direct_intertwiner_count(a, b)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_cyclic_units_match_the_root_scan(q):
    # every monic residue polynomial of degree 2 and 3: distinct and
    # repeated roots, irreducible quadratics and cubics
    cyclic_units = importlib.import_module("simclass.modsolve")._cyclic_units
    res = ring_ctx("z", q, 1)  # the residue field F_q, whose packed values are the ints mod q
    for deg in (2, 3):
        for tail in itertools.product(range(q), repeat=deg):
            f = [1, *tail]
            for i in (1, 2):
                assert cyclic_units(res, i, f) == ref.cyclic_units_by_scan(q, i, f), (f, i)


def test_centralizer_order_must_divide_the_group_order(monkeypatch):
    # a cyclic unit count off by a factor q gives 4 for the nilpotent
    # Jordan block over F_2, which does not divide |GL_2(F_2)| = 6
    modsolve = importlib.import_module("simclass.modsolve")
    real = modsolve._cyclic_units
    monkeypatch.setattr(modsolve, "_cyclic_units", lambda res, i, f: res.q * real(res, i, f))
    with pytest.raises(VerificationFailed, match="does not divide"):
        centralizer_order(Mat.from_rows(ring_ctx("z", 2, 1), [[0, 1], [0, 0]]))


def test_centralizer_is_never_empty(rng):
    ctx = ring_ctx("z", 2, 3)
    m = rand_mat(ctx, 3, rng)
    mod = intertwiner(m, m)
    assert mod.size >= 1
    ok, x = is_similar(m, m)  # the identity witnesses self-similarity
    assert ok and x.is_invertible() and m @ x == x @ m


def test_is_similar_finds_exact_witness(rng):
    for desc in [("z", 2, 2), ("z", 3, 2), ("t", 2, 2), ("z", 2, 3)]:
        ctx = ring_ctx(*desc)
        for n in (2, 3):
            for _ in range(10):
                m = rand_mat(ctx, n, rng)
                g = rand_invertible(ctx, n, rng)
                ok, x = is_similar(m, m.conjugate_by(g))
                assert ok and m @ x == x @ m.conjugate_by(g) and x.is_invertible()


def test_is_similar_rejects_different_charpoly():
    ctx = ring_ctx("z", 2, 2)
    a = Mat(ctx, 3, (0, 1, 0, 0, 0, 1, 1, 0, 0))  # the companion matrices of
    b = Mat(ctx, 3, (0, 1, 0, 0, 0, 1, 1, 1, 0))  # (1, 0, 0) and (1, 1, 0)
    ok, x = is_similar(a, b)
    assert not ok and x is None


def test_is_similar_agrees_with_canonical_forms_2x2(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(60):
        a, b = rand_mat(ctx, 2, rng), rand_mat(ctx, 2, rng)
        ok, _ = is_similar(a, b)
        assert ok == (canon2(a) == canon2(b)) == ref.is_similar(a, b)[0]


def test_scalar_centralizer_is_the_whole_group():
    ctx = ring_ctx("z", 2, 2)
    assert centralizer_order(scalar(ctx, 2, 3)) == group_order(ctx, 2)  # 96
    assert centralizer_order(scalar(ctx, 3, 1)) == group_order(ctx, 3)  # 86016


def test_centralizer_anchor_values():
    f2 = ring_ctx("z", 2, 1)
    assert centralizer_order(j_matrix(f2, 0, 0)) == 8
    assert group_order(f2, 2) == 6
    assert group_order(f2, 3) == 168
    assert group_order(ring_ctx("z", 2, 2), 3) == 86016
    assert group_order(ring_ctx("z", 3, 2), 2) == 3888
    assert group_order(ring_ctx("z", 2, 3), 2) == 1536


@pytest.mark.parametrize("n", [1, 0, -1, True, 2.0])
def test_group_order_refuses_a_size_other_than_the_int_2_or_3(n):
    with pytest.raises(BadParams, match="group_order needs n in"):
        group_order(ring_ctx("z", 2, 2), n)


def test_centralizer_of_companion_with_unit_discriminant():
    # distinct residue eigenvalues 1 and 2 over Z/9: centralizer is the
    # invertible diagonals in a basis of eigenvectors, (q-1)^2 q^2 = 36
    ctx = ring_ctx("z", 3, 2)
    m = Mat.from_rows(ctx, [[0, 1], [7, 3]])  # the companion matrix: x^2 = 7 + 3x
    # charpoly x^2 - 3x - 7 = x^2 - 3x + 2 mod 9: roots 1, 2
    assert centralizer_order(m) == 36


def test_centralizer_divides_group_order(rng):
    ctx = ring_ctx("t", 2, 2)
    for n in (2, 3):
        for _ in range(10):
            m = rand_mat(ctx, n, rng)
            assert group_order(ctx, n) % centralizer_order(m) == 0


def test_find_unit_element_returns_unit(rng):
    ctx = ring_ctx("z", 2, 2)
    m = rand_mat(ctx, 3, rng)
    mod = intertwiner(m, m)
    x = find_unit_element(mod)
    assert x is not None and x.is_invertible() and m @ x == x @ m


def test_iter_span_steps_through_the_span_lexicographically(rng):
    # reference: every coefficient tuple in itertools order, each vector
    # summed from zero
    for p, r, k in ((2, 4, 9), (3, 3, 4), (7, 2, 9), (11, 2, 5), (5, 1, 3), (3, 0, 0)):
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
        want = []
        for coeffs in itertools.product(range(p), repeat=r):
            vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(k)]
            want.append((coeffs, vec))
        assert list(ref._iter_span(rows, p)) == want


def test_identity_is_always_similar_to_itself():
    ctx = ring_ctx("t", 3, 2)
    ok, x = is_similar(identity(ctx, 3), identity(ctx, 3))
    assert ok and x.is_invertible()


def test_is_similar_decides_cheap_cases_without_the_unit_search():
    # over F_101 the residue spans here have up to 101^9 points, far past
    # the reference solver's search cap; each answer comes from an exit
    # taken before any canonical form is computed
    f101 = ring_ctx("z", 101, 1)
    assert is_similar(j_matrix(f101, 0, 0), j_matrix(f101, 1, 0)) == (False, None)
    s = scalar(f101, 3, 5)
    ok, x = is_similar(s, s)
    assert ok and x == identity(f101, 3)
    # same characteristic polynomial (x - 5)^3, but only one side scalar
    assert is_similar(s, j_matrix(f101, 0, 5)) == (False, None)
    assert is_similar(j_matrix(f101, 0, 5), s) == (False, None)


def test_mixed_ring_similarity_is_rejected():
    from simclass import CtxMismatch

    a = identity(ring_ctx("z", 2, 2), 2)
    b = identity(ring_ctx("t", 2, 2), 2)
    with pytest.raises(CtxMismatch):
        is_similar(a, b)


# ----------------------------------------------------------------------
# over F_31, where the reference solver's residue spans pass its cap


def test_similar_pairs_over_f31_are_decided_with_checked_witnesses():
    ctx = ring_ctx("z", 31, 1)
    nil1 = Mat.from_rows(ctx, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    nil2 = Mat.from_rows(ctx, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    d = diag(ctx, [1, 1, 2])
    g = Mat.from_rows(ctx, [[1, 2, 3], [0, 1, 4], [5, 0, 1]])
    for a, b in ((nil1, nil2), (d, d.conjugate_by(g))):
        ok, x = is_similar(a, b)
        assert ok and x.is_invertible() and a @ x == x @ b
    with pytest.raises(SearchBudgetExceeded):
        ref.is_similar(nil1, nil2)


def test_centralizer_of_the_nilpotent_j_shape_over_f31():
    ctx = ring_ctx("z", 31, 1)
    t0 = time.perf_counter()
    assert centralizer_order(j_matrix(ctx, 0, 0)) == 26811900 == 31**3 * 30**2
    assert time.perf_counter() - t0 < 1


# ----------------------------------------------------------------------
# the form-based decisions against the reference solver


def _pairs(ctx, n, rng, count):
    """Random pairs with one characteristic polynomial, about half of them
    similar: conjugates of two class representatives from one bucket."""
    reps = [f.rebuild() for f in enumerate2(ctx)] if n == 2 else [m for _, m in enumerate3(ctx)]
    buckets = {}
    for m in reps:
        buckets.setdefault(m.charpoly(), []).append(m)
    shared = [b for b in buckets.values() if len(b) > 1]
    for _ in range(count):
        bucket = rng.choice(shared)
        a = rng.choice(bucket)
        b = a if rng.random() < 0.5 else rng.choice(bucket)
        yield (a.conjugate_by(rand_invertible(ctx, n, rng)),
               b.conjugate_by(rand_invertible(ctx, n, rng)))


@pytest.mark.parametrize("desc", ["z:2:2", "t:2:2", "z:3:2", "t:3:2", "z:2:3", "t:2:3"])
@pytest.mark.parametrize("n", [2, 3])
def test_form_decisions_match_the_reference_solver(desc, n, rng):
    ctx = parse_ring(desc)
    similar = 0
    for a, b in _pairs(ctx, n, rng, 20):
        ok, x = is_similar(a, b)
        assert ok == ref.is_similar(a, b)[0]
        if ok:
            similar += 1
            assert x.is_invertible() and a @ x == x @ b
        assert centralizer_order(a) == ref.centralizer_order(a)
    assert 0 < similar < 20
    for _ in range(4):
        m = rand_mat(ctx, n, rng)
        assert centralizer_order(m) == ref.centralizer_order(m)


@pytest.mark.parametrize("desc", ["z:2:2", "t:2:2", "z:3:2", "t:2:3"])
def test_class_equation_over_the_enumerated_transversal(desc):
    # the orbits of the class representatives, |GL_n| / |C| each, cover
    # every matrix exactly once
    ctx = parse_ring(desc)
    for n, reps in ((2, [f.rebuild() for f in enumerate2(ctx)]),
                    (3, [m for _, m in enumerate3(ctx)])):
        total = group_order(ctx, n)
        assert sum(total // centralizer_order(m) for m in reps) == ctx.cardinality ** (n * n)
