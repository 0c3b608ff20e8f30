"""Shared fixtures: a per-session orbit census memo, random matrix helpers,
a fresh-interpreter runner, the Hypothesis profile, and the helpers that
only tests use (block_diag, j_matrix, placed, enumerate2, theta,
transfer_power, same_class), the transfer recursions (transfer_matrix,
base_vector, level_vector, count2_recursion) that the closed-form counts
are tested against, the digit loops of F_p[t]/(t^l) (poly_add, poly_neg, poly_mul,
poly_inv, and the matrix entries poly_det, poly_adjugate, poly_charpoly)
that every bound "t" arithmetic is tested against, and the reduced row
echelon form over F_p (rref, rref_left_kernel, rref_residue_type) that
canon3's residue algebra is tested against."""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from simclass import CountVector, Mat, e_matrix, orbit_census, ring_ctx, scalar
from simclass.census import _enumerate
from simclass.oracle import _orbit_states, _state_of

# every run draws the same examples, and no example database is written
settings.register_profile("simclass", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("simclass")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args, timeout):
    """Run a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="session")
def shared_census():
    """census(ctx, n): the labelled orbit census, built once per session
    for each ring and size; callers only read it."""
    return functools.cache(lambda ctx, n: orbit_census(ctx, n, want_labels=True))


def block_diag(ctx, a, block):
    """diag(a) ++ the 2x2 block over ctx, built through the validating
    Mat constructor."""
    (x0, x1), (x2, x3) = block.rows()
    return Mat(ctx, 3, [a, 0, 0, 0, x0, x1, 0, x2, x3])


def rand_mat(ctx, n, rng):
    return Mat(ctx, n, [rng.randrange(ctx.cardinality) for _ in range(n * n)])


def rand_invertible(ctx, n, rng):
    while True:
        m = rand_mat(ctx, n, rng)
        if m.is_invertible():
            return m


@pytest.fixture
def rng():
    return random.Random(20260814)


RINGS_LEN2 = [("z", 2, 2), ("z", 3, 2), ("t", 2, 2), ("t", 3, 2)]


@pytest.fixture(params=RINGS_LEN2, ids=lambda r: f"{r[0]}:{r[1]}:{r[2]}")
def ctx_len2(request):
    return ring_ctx(*request.param)


def poly_add(ctx, a, b):
    """a + b over a "t" ring, one digit at a time."""
    p = ctx.p
    out, shift = 0, 1
    for _ in range(ctx.length):
        out += ((a + b) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


def poly_neg(ctx, a):
    """-a over a "t" ring, one digit at a time."""
    p = ctx.p
    out, shift = 0, 1
    for _ in range(ctx.length):
        out += (-a % p) * shift
        a //= p
        shift *= p
    return out


def poly_mul(ctx, a, b):
    """a * b over a "t" ring: the truncated digit convolution."""
    p, n = ctx.p, ctx.length
    da = []
    while a:
        da.append(a % p)
        a //= p
    acc = [0] * n
    shift = 0
    while b and shift < n:
        db = b % p
        if db:
            for i, ai in enumerate(da):
                j = i + shift
                if j >= n:
                    break
                acc[j] = (acc[j] + ai * db) % p
        b //= p
        shift += 1
    out = 0
    for d in reversed(acc):
        out = out * p + d
    return out


def poly_inv(ctx, a):
    """The inverse of the unit a over a "t" ring by Newton's iteration
    u <- u*(2 - a*u) on the digit loops."""
    u = pow(a % ctx.p, -1, ctx.p)
    for _ in range(max(1, (ctx.length - 1).bit_length())):
        u = poly_mul(ctx, u, poly_add(ctx, 2 % ctx.p, poly_neg(ctx, poly_mul(ctx, a, u))))
    return u


def _poly_minor(ctx, v, r0, r1, c0, c1):
    """The 2x2 minor of rows r0, r1 and columns c0, c1 of the 3x3 values v."""
    return poly_add(ctx, poly_mul(ctx, v[3 * r0 + c0], v[3 * r1 + c1]),
                    poly_neg(ctx, poly_mul(ctx, v[3 * r0 + c1], v[3 * r1 + c0])))


def poly_adjugate(ctx, v):
    """The adjugate of the 3x3 values v over a "t" ring: transposed
    cofactors, on the digit loops."""
    rest = ((1, 2), (0, 2), (0, 1))
    out = []
    for j in range(3):
        for i in range(3):
            m = _poly_minor(ctx, v, *rest[i], *rest[j])
            out.append(m if (i + j) % 2 == 0 else poly_neg(ctx, m))
    return out


def poly_det(ctx, v):
    """The determinant of the 3x3 values v over a "t" ring, expanded along
    row 0 on the digit loops."""
    adj = poly_adjugate(ctx, v)
    out = 0
    for j in range(3):
        out = poly_add(ctx, out, poly_mul(ctx, v[j], adj[3 * j]))
    return out


def poly_charpoly(ctx, v):
    """Companion coefficients (det, -s2, trace) of the 3x3 values v over a
    "t" ring, s2 the sum of the principal 2x2 minors, on the digit loops."""
    s2 = tr = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s2 = poly_add(ctx, s2, _poly_minor(ctx, v, i, j, i, j))
    for i in (0, 4, 8):
        tr = poly_add(ctx, tr, v[i])
    return (poly_det(ctx, v), poly_neg(ctx, s2), tr)


def rref(rows, p: int):
    """Reduced row echelon form over F_p; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    piv = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, nr) if rows[i][c] % p), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], piv


def rref_left_kernel(m):
    """Basis of {w : w m = 0} for m over a residue field, read off the
    reduced row echelon form of m^T: one vector per free column."""
    p, n = m.ctx.p, m.n
    rr, piv = rref([[m.raw(j, i) for j in range(n)] for i in range(n)], p)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [0] * n
        v[f] = 1
        for ri, c in enumerate(piv):
            v[c] = -rr[ri][f] % p
        basis.append(tuple(v))
    return basis


def rref_residue_type(m):
    """The residue type of the 3x3 m (see canon3._residue_type), with
    r^2 = s r + t I solved by elimination over the residue field."""
    r = m if m.ctx.length == 1 else m.residue()
    p = r.ctx.p
    if r.is_scalar():
        return "scalar", r.raw(0, 0)
    r2 = r @ r
    aug = [[r.raw(i, j), int(i == j), r2.raw(i, j)] for i in range(3) for j in range(3)]
    rr, piv = rref(aug, p)
    if 2 in piv:
        return ("cyclic",)
    s, t = rr[0][2], rr[1][2]
    double = (r.trace() - s) % p
    single = (s - double) % p
    assert (double * double - s * double - t) % p == 0
    return ("jtype", double) if single == double else ("split", single, double)


def j_matrix(ctx, c, d):
    """The J(c, d) shape: the pi-power shape with a zero slot."""
    return e_matrix(ctx, ctx.length, 0, 0, c, d)


def placed(ctx, n, level, d, body):
    """d*I + pi^level * body over ctx, from public Mat operations alone;
    body is a matrix over the length-(l-level) ring, None for a scalar."""
    m = scalar(ctx, n, d)
    return m if body is None else m + body.lift(ctx.length).scale(ctx.p**level)


def enumerate2(ctx, group="M", budget=10_000_000):
    """The 2x2 forms of the enumeration stream over ctx, as a list; the
    stream raises unless it emits count2 classes."""
    return [form for form, _ in _enumerate(ctx, 2, group, budget)]


def same_class(a, b) -> bool:
    """Orbit-based similarity check (independent of the canonical forms)."""
    orb = _orbit_states(a)
    pos = np.searchsorted(orb, _state_of(b))
    return pos < orb.size and int(orb[pos]) == _state_of(b)


def transfer_matrix(q: int):
    """3x3 bucket-count transfer matrix from length l-1 to length l; the
    buckets are those of census.type_histogram."""
    return [
        [q, 0, 0, 0],
        [q * q - q, q * q, 0, 0],
        [q, 0, q * q, 0],
        [q**3, q**3, q**3 + q, q**3],
    ]


def base_vector(q: int, group: str = "M") -> CountVector:
    """Bucket counts at length 1 (over the residue field)."""
    if group == "M":
        return CountVector(q, q * q - q, q, q**3)
    return CountVector(q - 1, (q - 1) * (q - 2), q - 1, q**3 - q * q)


def level_vector(q: int, level: int, group: str = "M") -> CountVector:
    """Bucket counts at the given length >= 1: transfer_matrix^(level-1)
    applied to the base vector.  The sum is the 3x3 class count."""
    v = base_vector(q, group)
    t = transfer_matrix(q)
    for _ in range(level - 1):
        v = CountVector(*(sum(t[i][k] * v[k] for k in range(4)) for i in range(4)))
    return v


def count2_recursion(q: int, level: int, group: str = "M") -> int:
    """2x2 class count by a two-state transfer recursion (scalar classes,
    the rest), the reference that count2's closed form is checked against.

    There are q times as many scalar classes at each length, and q^2
    non-scalar classes for every class one length down.
    """
    if level == 0:
        return 1
    w = [q, q * q] if group == "M" else [q - 1, q * q - q]
    for _ in range(level - 1):
        w = [q * w[0], q * q * w[0] + q * q * w[1]]
    return w[0] + w[1]


def theta(q: int, level: int) -> int:
    """Closed form for the "rest" bucket: the corner entry [3][0] of the
    level-th power of transfer_matrix.

    The intermediate quotients are not individually integral, so the
    product is taken over the rationals and checked at the end.
    """
    i = level
    inner = Fraction(q**4 + 1, q - 1) * Fraction(q**i + 1, q + 1) - Fraction(q**3 + 1, q - 1)
    out = q ** (i - 1) * Fraction(q**i - 1, q - 1) * inner
    if out.denominator != 1:
        raise ValueError(f"theta({q}, {level}) = {out} is not integral")
    return int(out)


def transfer_power(q: int, level: int, mode: str = "iterate"):
    """level-th power of transfer_matrix.

    mode "iterate" multiplies the matrix out; any other mode fills in
    the closed-form entries.  The two agree for every level, which the
    tests check.
    """
    if mode == "iterate":
        out = [[int(i == j) for j in range(4)] for i in range(4)]
        t = transfer_matrix(q)
        for _ in range(level):
            out = [
                [sum(out[i][k] * t[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)
            ]
        return out
    i = level
    if i == 0:
        return [[int(r == c) for c in range(4)] for r in range(4)]
    geo = sum(q**k for k in range(i))
    return [
        [q**i, 0, 0, 0],
        [q ** (2 * i) - q**i, q ** (2 * i), 0, 0],
        [q**i * geo, 0, q ** (2 * i), 0],
        [
            theta(q, i),
            q ** (2 * i + 1) * geo,
            q ** (2 * i - 1) * (q * q + 1) * geo,
            q ** (3 * i),
        ],
    ]
