"""Intertwiner modules, similarity decisions, centralizer orders."""

import numpy as np
import pytest

import simclass.modsolve as modsolve
from simclass import (
    VerificationFailed,
    canon2,
    centralizer_order,
    companion,
    find_unit_element,
    group_order,
    identity,
    intertwiner,
    is_similar,
    j_matrix,
    ring_ctx,
    scalar,
)
from conftest import rand_invertible, rand_mat


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


def test_centralizer_order_must_divide_the_group_order(monkeypatch):
    # a doubled |S| gives 16 for J(0,0) over F_2, which does not divide 168
    real = modsolve.smith_kernel

    def doubled(ctx, mat):
        gens, size = real(ctx, mat)
        return gens, 2 * size

    monkeypatch.setattr(modsolve, "smith_kernel", doubled)
    with pytest.raises(VerificationFailed):
        centralizer_order(j_matrix(ring_ctx("z", 2, 1), 0, 0))


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
    a = companion(ctx, (ctx.elem(1), ctx.elem(0), ctx.elem(0)))
    b = companion(ctx, (ctx.elem(1), ctx.elem(1), ctx.elem(0)))
    ok, x = is_similar(a, b)
    assert not ok and x is None


def test_is_similar_agrees_with_canonical_forms_2x2(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(60):
        a, b = rand_mat(ctx, 2, rng), rand_mat(ctx, 2, rng)
        ok, _ = is_similar(a, b)
        assert ok == (canon2(a)[0] == canon2(b)[0])


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


def test_centralizer_of_companion_with_unit_discriminant():
    # distinct residue eigenvalues 1 and 2 over Z/9: centralizer is the
    # invertible diagonals in a basis of eigenvectors, (q-1)^2 q^2 = 36
    ctx = ring_ctx("z", 3, 2)
    m = companion(ctx, (ctx.elem(7), ctx.elem(3)))  # x^2 - 3x + 2... wait: x^2 = 7 + 3x
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


def test_identity_is_always_similar_to_itself():
    ctx = ring_ctx("t", 3, 2)
    ok, x = is_similar(identity(ctx, 3), identity(ctx, 3))
    assert ok and x.is_invertible()


def test_is_similar_decides_cheap_cases_without_the_unit_search():
    # over F_101 the residue spans here have up to 101^9 points, far past
    # the search cap, so each answer must come from a prefilter exit
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
