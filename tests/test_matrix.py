"""Matrix layer: arithmetic, determinants, charpoly, builders."""

import numpy as np
import pytest

from simclass import (
    BadParams,
    Mat,
    NotInvertible,
    block_diag,
    companion,
    diag,
    e_matrix,
    elementary,
    identity,
    j_matrix,
    ring_ctx,
    scalar,
    zero,
)
from conftest import rand_invertible, rand_mat


def test_constructors_and_accessors():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[1, 2], [3, 0]])
    assert m.rows() == [[1, 2], [3, 0]]
    assert m.entry(0, 1).val == 2 and m.raw(1, 0) == 3
    assert identity(ctx, 3).rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zero(ctx, 2) + m == m
    assert scalar(ctx, 2, 3).rows() == [[3, 0], [0, 3]]
    assert diag(ctx, [1, 2, 3]).rows() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert elementary(ctx, 2, 1, 2, 3).rows() == [[1, 3], [0, 1]]


def test_entries_must_be_integers():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[np.int64(5), np.uint8(2)], [ctx.elem(3), 0]])
    assert m.rows() == [[1, 2], [3, 0]]
    for bad in (1.9, 1.0, True, np.True_, "1", None):
        with pytest.raises(BadParams):
            Mat.from_rows(ctx, [[bad, 0], [0, 0]])


def test_public_constructors_validate_while_ring_results_skip_it(rng):
    t = ring_ctx("t", 3, 2)
    for bad in (1.0, 2.5, True, False, "1", 9, -1):  # 9 and -1 are outside t:3:2
        with pytest.raises(BadParams):
            Mat(t, 2, [bad, 0, 0, 0])
        with pytest.raises(BadParams):
            Mat.from_rows(t, [[0, bad], [0, 0]])
        for build in (
            lambda: scalar(t, 3, bad),
            lambda: diag(t, [0, bad, 1]),
            lambda: companion(t, [1, bad]),
            lambda: e_matrix(t, 1, bad, 0, 0, 0),
            lambda: elementary(t, 3, 1, 2, bad),
            lambda: block_diag(t, [bad, identity(t, 2)]),
        ):
            with pytest.raises(BadParams):
                build()
    # results of ring operations equal their validated rebuilds
    for ctx in (t, ring_ctx("z", 2, 3)):
        a, b = rand_mat(ctx, 3, rng), rand_invertible(ctx, 3, rng)
        for m in (a @ b, a + b, a - b, -a, a.scale(2), b.inverse(), a.truncate(1), scalar(ctx, 3, 4)):
            assert type(m.vals) is tuple and m == Mat(m.ctx, m.n, m.vals)


def test_matmul_matches_entry_formula(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(20):
        a, b = rand_mat(ctx, 3, rng), rand_mat(ctx, 3, rng)
        c = a @ b
        for i in range(3):
            for j in range(3):
                s = 0
                for k in range(3):
                    s = ctx.add_raw(s, ctx.mul_raw(a.raw(i, k), b.raw(k, j)))
                assert c.raw(i, j) == s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_round_trip(n, rng):
    for desc in [("z", 2, 3), ("t", 3, 2)]:
        ctx = ring_ctx(*desc)
        for _ in range(15):
            g = rand_invertible(ctx, n, rng)
            assert g @ g.inverse() == identity(ctx, n)
            assert g.inverse() @ g == identity(ctx, n)


def test_adjugate_identity(rng):
    ctx = ring_ctx("z", 2, 3)
    for _ in range(20):
        m = rand_mat(ctx, 3, rng)
        assert m @ m.adjugate() == scalar(ctx, 3, m.det())


def test_singular_matrices_do_not_invert():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[2, 0], [0, 1]])
    assert not m.is_invertible()
    with pytest.raises(NotInvertible):
        m.inverse()


def test_charpoly_convention_and_cayley_hamilton(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(25):
        m = rand_mat(ctx, 3, rng)
        a0, a1, a2 = m.charpoly()
        # x^3 = a0 + a1 x + a2 x^2 with a0 = det, a2 = trace
        assert a0 == m.det() and a2 == m.trace()
        lhs = m @ m @ m
        rhs = scalar(ctx, 3, a0) + m.scale(a1) + (m @ m).scale(a2)
        assert lhs == rhs
    for _ in range(25):
        m = rand_mat(ctx, 2, rng)
        c, e = m.charpoly()
        assert e == m.trace() and c == -m.det()
        assert m @ m == scalar(ctx, 2, c) + m.scale(e)


def test_charpoly_is_similarity_invariant(rng):
    ctx = ring_ctx("z", 2, 3)
    for _ in range(20):
        m, g = rand_mat(ctx, 3, rng), rand_invertible(ctx, 3, rng)
        assert m.conjugate_by(g).charpoly() == m.charpoly()


def test_companion_has_prescribed_charpoly():
    ctx = ring_ctx("z", 3, 2)
    coeffs = (ctx.elem(4), ctx.elem(7), ctx.elem(2))
    c = companion(ctx, coeffs)
    assert c.charpoly() == coeffs
    assert c.rows()[0] == [0, 1, 0] and c.rows()[1] == [0, 0, 1]
    c2 = companion(ctx, (ctx.elem(4), ctx.elem(7)))
    assert c2.rows() == [[0, 1], [4, 7]]


def test_block_diag_and_shape_builders():
    ctx = ring_ctx("z", 2, 2)
    b = block_diag(ctx, [1, Mat.from_rows(ctx, [[0, 1], [2, 3]])])
    assert b.rows() == [[1, 0, 0], [0, 0, 1], [0, 2, 3]]
    e = e_matrix(ctx, 1, 1, 2, 3, 0)
    assert e.rows() == [[0, 2, 0], [0, 0, 1], [1, 2, 3]]
    # the slot entry is pi^m, and m = length means the slot vanishes
    assert e_matrix(ctx, 2, 0, 0, 0, 1).rows() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    assert j_matrix(ctx, 3, 1).rows() == [[1, 0, 0], [0, 1, 1], [0, 0, 0]]
    assert j_matrix(ctx, 1, 0).rows() == [[0, 0, 0], [0, 0, 1], [0, 0, 1]]


def test_conjugation_and_commutation(rng):
    ctx = ring_ctx("t", 2, 2)
    m = rand_mat(ctx, 3, rng)
    g = rand_invertible(ctx, 3, rng)
    assert m.conjugate_by(g) == g @ m @ g.inverse()
    assert m.conjugate_by(identity(ctx, 3)) == m
    assert identity(ctx, 3).commutes_with(m)
    assert m.commutes_with(m @ m)


def test_residue_truncate_lift():
    ctx = ring_ctx("z", 2, 3)
    m = Mat.from_rows(ctx, [[5, 6], [3, 4]])
    assert m.residue().rows() == [[1, 0], [1, 0]]
    assert m.truncate(2).rows() == [[1, 2], [3, 0]]
    assert m.truncate(2).lift(3).rows() == [[1, 2], [3, 0]]
    assert m.is_scalar() is False
    assert scalar(ctx, 2, 5).is_scalar()
