"""Matrix layer: arithmetic, determinants, charpoly, builders."""

import importlib
from functools import partial

import numpy as np
import pytest

from simclass import (
    BadParams,
    Mat,
    NotInvertible,
    diag,
    e_matrix,
    elementary,
    identity,
    parse_ring,
    ring_ctx,
    scalar,
    zero,
)
from conftest import (block_diag, j_matrix, poly_add, poly_adjugate, poly_charpoly, poly_det,
                      poly_inv, poly_mul, poly_neg, rand_invertible, rand_mat)

# the module, not the function simclass.canon2: _row_times is private
canon2_module = importlib.import_module("simclass.canon2")


def test_constructors_and_accessors():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[1, 2], [3, 0]])
    assert m.rows() == [[1, 2], [3, 0]]
    assert m.raw(0, 1) == 2 and m.raw(1, 0) == 3
    assert identity(ctx, 3).rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zero(ctx, 2) + m == m
    assert scalar(ctx, 2, 3).rows() == [[3, 0], [0, 3]]
    assert diag(ctx, [1, 2, 3]).rows() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert elementary(ctx, 2, 1, 2, 3).rows() == [[1, 3], [0, 1]]


def test_entries_must_be_integers():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[np.int64(5), np.uint8(2)], [3, 0]])
    assert m.rows() == [[1, 2], [3, 0]]
    for bad in (1.9, 1.0, True, np.True_, "1", None):
        with pytest.raises(BadParams):
            Mat.from_rows(ctx, [[bad, 0], [0, 0]])


def test_from_rows_refuses_rows_that_are_not_square():
    ctx = ring_ctx("z", 2, 2)
    # [[1, 2, 3], [0]] has four entries, but is not [[1, 2], [3, 0]]
    for rows in ([[1, 2, 3], [0]], [[1, 2], [3]], [[1, 2], [3, 0, 0]], [[1, 0], [0, 1], []]):
        with pytest.raises(BadParams):
            Mat.from_rows(ctx, rows)


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
            lambda: e_matrix(t, 1, bad, 0, 0, 0),
            lambda: elementary(t, 3, 1, 2, bad),
        ):
            with pytest.raises(BadParams):
                build()
    # a slot exponent that is not an int: pi^1.5 would be the float 3**1.5
    for m in (1.5, True):
        with pytest.raises(BadParams):
            e_matrix(t, m, 0, 0, 0, 0)
    # results of ring operations equal their validated rebuilds
    for ctx in (t, ring_ctx("z", 2, 3)):
        a, b = rand_mat(ctx, 3, rng), rand_invertible(ctx, 3, rng)
        for m in (a @ b, a + b, a - b, a.scale(2), b.inverse(), a.truncate(1), scalar(ctx, 3, 4)):
            assert type(m.vals) is tuple and m == Mat(m.ctx, m.n, m.vals)


@pytest.mark.parametrize("n", [2.0, 3.0, True, 1, 4])
def test_sizes_other_than_the_int_2_or_3_are_refused(n):
    # 2.0 in (2, 3) is true, so a bare membership test lets floats through
    ctx = ring_ctx("z", 2, 2)
    for build in (
        lambda: Mat(ctx, n, [1, 2, 3, 4]),
        lambda: identity(ctx, n),
        lambda: scalar(ctx, n, 1),
        lambda: zero(ctx, n),
    ):
        with pytest.raises(BadParams, match="only n in"):
            build()


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


# "t" rings of length >= 2: past the table limit, and small enough for the
# scalar tables; the matrix expressions run on lanes over both
LANE_RINGS = ["t:3:7", "t:2:11", "t:5:5", "t:3:39", "t:2:62", "t:1000003:2", "t:2147483647:2"]
TABLE_RINGS = ["t:2:2", "t:2:3", "t:3:2", "t:2:10", "t:3:6"]
# "z" rings and length-1 rings: lift is None and reduce is mod p^l
MODULAR_RINGS = ["z:3:2", "z:2:5", "z:1000003:2", "t:7:1"]


def _reference_ops(ctx):
    """(add, mul, neg, inv) on the digit loops over a "t" ring, and on
    plain integers mod p^l over a "z" ring."""
    if ctx.flavor == "t":
        return tuple(partial(f, ctx) for f in (poly_add, poly_mul, poly_neg, poly_inv))
    c = ctx.cardinality
    return (lambda a, b: (a + b) % c, lambda a, b: a * b % c, lambda a: -a % c,
            lambda a: pow(a, -1, c))


@pytest.mark.parametrize("desc", LANE_RINGS + TABLE_RINGS)
def test_lane_products_match_the_entry_formula(desc, rng):
    # the 3x3 product over a "t" ring of length >= 2 reduces each entry
    # once from three products of lifted values: it equals the sum of the
    # products of the entries, on the digit loops; the all-(card - 1)
    # matrix fills every lane
    ctx = parse_ring(desc)
    assert ctx._lift is not None
    full = Mat(ctx, 3, [ctx.cardinality - 1] * 9)
    pairs = [(full, full)] + [(rand_mat(ctx, 3, rng), rand_mat(ctx, 3, rng)) for _ in range(8)]
    for a, b in pairs:
        c = a @ b
        for i in range(3):
            for j in range(3):
                s = 0
                for k in range(3):
                    s = poly_add(ctx, s, poly_mul(ctx, a.raw(i, k), b.raw(k, j)))
                assert c.raw(i, j) == s


@pytest.mark.parametrize("desc", LANE_RINGS + TABLE_RINGS)
def test_lane_det_adjugate_charpoly_and_inverse_match_the_digit_loops(desc, rng):
    # each is one integer expression of lifted entries per output, reduced
    # once: it equals the cofactor formulas on the digit loops.  With every
    # entry card - 1, each triple product fills its lanes: the first matrix
    # cancels them, the second adds two (v0 v4 v8 + v1 v5 v6) and the third
    # subtracts two (v0 v5 v7 + v1 v3 v8)
    ctx = parse_ring(desc)
    top = ctx.cardinality - 1
    extremes = [[top] * 9, [top, top, 0, 0, top, top, top, 0, top],
                [top, top, 0, top, 0, top, 0, top, top]]
    mats = [Mat(ctx, 3, v) for v in extremes]
    mats += [rand_mat(ctx, 3, rng) for _ in range(4)] + [rand_invertible(ctx, 3, rng)]
    for m in mats:
        v = m.vals
        assert m.det() == poly_det(ctx, v)
        assert m.charpoly() == poly_charpoly(ctx, v)
        assert list(m.adjugate().vals) == poly_adjugate(ctx, v)
        assert list(m.scale(top).vals) == [poly_mul(ctx, top, x) for x in v]
        if m.is_invertible():
            d_inv = poly_inv(ctx, poly_det(ctx, v))
            adj = poly_adjugate(ctx, v)
            assert list(m.inverse().vals) == [poly_mul(ctx, d_inv, x) for x in adj]
    assert mats[-1].is_invertible()
    # canon2's row vector times matrix, the same sums of products
    for w in ([top] * 3, mats[-1].vals[:3]):
        assert canon2_module._row_times(w, mats[0]) == [
            poly_add(ctx, poly_add(ctx, poly_mul(ctx, w[0], mats[0].raw(0, j)),
                                   poly_mul(ctx, w[1], mats[0].raw(1, j))),
                     poly_mul(ctx, w[2], mats[0].raw(2, j)))
            for j in range(3)
        ]


@pytest.mark.parametrize("desc", MODULAR_RINGS + TABLE_RINGS + LANE_RINGS)
def test_2x2_expressions_match_the_reference_on_every_kind(desc, rng):
    # the 2x2 product, det, charpoly, adjugate, scale, inverse and
    # row-times-matrix against the entry formulas on the reference ops;
    # the extremes fill every lane, cancel (all card - 1), add (diagonal)
    # and subtract (anti-diagonal) a full product
    ctx = parse_ring(desc)
    add, mul, neg, inv = _reference_ops(ctx)
    top = ctx.cardinality - 1
    extremes = [[top] * 4, [top, 0, 0, top], [0, top, top, 0], [top, top, 0, top]]
    mats = [Mat(ctx, 2, v) for v in extremes]
    mats += [rand_mat(ctx, 2, rng) for _ in range(6)] + [rand_invertible(ctx, 2, rng)]
    for a in mats:
        v0, v1, v2, v3 = v = a.vals
        det = add(mul(v0, v3), neg(mul(v1, v2)))
        assert a.det() == det
        assert a.charpoly() == (neg(det), add(v0, v3))
        adj = [v3, neg(v1), neg(v2), v0]
        assert list(a.adjugate().vals) == adj
        assert list(a.scale(top).vals) == [mul(top, x) for x in v]
        if a.is_invertible():
            assert list(a.inverse().vals) == [mul(inv(det), x) for x in adj]
        for b in (mats[0], mats[-1]):
            assert [(a @ b).raw(i, j) for i in range(2) for j in range(2)] == [
                add(mul(a.raw(i, 0), b.raw(0, j)), mul(a.raw(i, 1), b.raw(1, j)))
                for i in range(2) for j in range(2)
            ]
        w = [top, v1]
        assert canon2_module._row_times(w, a) == [add(mul(w[0], v[j]), mul(w[1], v[2 + j]))
                                                  for j in range(2)]
    assert mats[-1].is_invertible()


@pytest.mark.parametrize("p", [2, 3, 31])
def test_length_one_rings_of_both_flavors_take_the_same_path(p, rng):
    # both are F_p: the "t" ring takes the "z" ring's pair, no lift and
    # reduction mod p, so it runs the same integer expressions
    z, t = ring_ctx("z", p, 1), ring_ctx("t", p, 1)
    assert z._lift is None and t._lift is None
    assert all(z._reduce(x) == t._reduce(x) == x % p for x in (-p * p - 1, -1, 0, p, p**3 + 1))
    for n in (2, 3):
        for _ in range(20):
            a, b = ([rng.randrange(p) for _ in range(n * n)] for _ in range(2))
            za, zb, ta, tb = Mat(z, n, a), Mat(z, n, b), Mat(t, n, a), Mat(t, n, b)
            assert (za @ zb).vals == (ta @ tb).vals
            assert za.det() == ta.det()
            assert za.adjugate().vals == ta.adjugate().vals
            assert za.charpoly() == ta.charpoly()


@pytest.mark.parametrize("n", [2, 3])
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
        assert e == m.trace() and c == ctx.neg_raw(m.det())
        assert m @ m == scalar(ctx, 2, c) + m.scale(e)


def test_charpoly_is_similarity_invariant(rng):
    ctx = ring_ctx("z", 2, 3)
    for _ in range(20):
        m, g = rand_mat(ctx, 3, rng), rand_invertible(ctx, 3, rng)
        assert m.conjugate_by(g).charpoly() == m.charpoly()


def test_companion_has_prescribed_charpoly():
    # charpoly's companion convention: the identity band above the
    # coefficient row (a_0, ..., a_{n-1})
    ctx = ring_ctx("z", 3, 2)
    coeffs = (4, 7, 2)
    assert Mat(ctx, 3, (0, 1, 0, 0, 0, 1, *coeffs)).charpoly() == coeffs
    assert Mat.from_rows(ctx, [[0, 1], [4, 7]]).charpoly() == (4, 7)


def test_block_diag_and_shape_builders():
    ctx = ring_ctx("z", 2, 2)
    b = block_diag(ctx, 1, Mat.from_rows(ctx, [[0, 1], [2, 3]]))
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


def test_residue_truncate_lift():
    ctx = ring_ctx("z", 2, 3)
    m = Mat.from_rows(ctx, [[5, 6], [3, 4]])
    assert m.residue().rows() == [[1, 0], [1, 0]]
    assert m.truncate(2).rows() == [[1, 2], [3, 0]]
    assert m.truncate(2).lift(3).rows() == [[1, 2], [3, 0]]
    assert m.is_scalar() is False
    assert scalar(ctx, 2, 5).is_scalar()
