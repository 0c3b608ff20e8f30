"""Small square matrices over a finite chain ring.

Entries are stored row-major as packed integers (see ring.py); the
public accessors hand out RingElem values.  Only n in {1, 2, 3} is
supported, which keeps determinants, adjugates and characteristic
polynomials explicit and exact.

Mat(...) and Mat.from_rows validate every entry (an
integer, in range for a "t" ring, reduced for a "z" ring).  The shape
constructors below (scalar, diag, companion, block_diag, elementary,
e_matrix) put each value they are given through the same check once.
Results of ring operations (products, sums, differences, negation,
scaling, adjugates, truncation) and matrices assembled from checked
values are built with the unchecked Mat._unchecked, since their entries
are already reduced.

Characteristic polynomials are reported in companion convention: the
tuple (a_0, ..., a_{n-1}) with x^n = a_{n-1} x^{n-1} + ... + a_0 at the
matrix, so companion(ctx, coeffs).charpoly() == coeffs.
"""

from __future__ import annotations

import operator
from functools import reduce

from .errors import BadParams, CtxMismatch, NotInvertible
from .ring import RingCtx, RingElem

__all__ = [
    "Mat",
    "identity",
    "zero",
    "scalar",
    "diag",
    "companion",
    "block_diag",
    "elementary",
    "e_matrix",
    "j_matrix",
]


def _raw(ctx: RingCtx, x) -> int:
    """Packed value of an entry: a RingElem of ctx or an integer.

    Integers are taken through operator.index, so int and numpy integers
    pass while floats, strings and bools are refused, never truncated.
    """
    if type(x) is int:
        v = x
    elif isinstance(x, RingElem):
        if x.ctx is not ctx and x.ctx != ctx:
            raise CtxMismatch(f"{x.ctx} vs {ctx}")
        return x.val
    elif isinstance(x, bool):
        raise BadParams(f"matrix entry {x!r} is a bool, not an integer")
    else:
        try:
            v = operator.index(x)
        except TypeError:
            raise BadParams(f"matrix entry {x!r} is not an integer") from None
    if ctx.flavor == "z":
        return v % ctx.cardinality
    if not 0 <= v < ctx.cardinality:
        raise BadParams(f"packed value {v} outside ring {ctx.descriptor}")
    return v


def _check_size(n: int):
    if n not in (1, 2, 3):
        raise BadParams(f"only n in {{1,2,3}} supported, got {n}")


class Mat:
    """An n x n matrix over a RingCtx."""

    __slots__ = ("ctx", "n", "vals")

    def __init__(self, ctx: RingCtx, n: int, vals):
        _check_size(n)
        vals = tuple(_raw(ctx, v) for v in vals)
        if len(vals) != n * n:
            raise BadParams(f"expected {n * n} entries, got {len(vals)}")
        self.ctx = ctx
        self.n = n
        self.vals = vals

    @classmethod
    def _unchecked(cls, ctx: RingCtx, n: int, vals) -> "Mat":
        """A matrix of already reduced packed values; nothing is checked."""
        m = object.__new__(cls)
        m.ctx, m.n, m.vals = ctx, n, tuple(vals)
        return m

    @classmethod
    def from_rows(cls, ctx: RingCtx, rows) -> "Mat":
        rows = [list(r) for r in rows]
        return cls(ctx, len(rows), [x for r in rows for x in r])

    # ------------------------------------------------------------------

    def _check(self, other: "Mat"):
        if self.ctx != other.ctx or self.n != other.n:
            raise CtxMismatch(f"{self.ctx} {self.n}x{self.n} vs {other.ctx} {other.n}x{other.n}")

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.vals == other.vals
        )

    def __hash__(self):
        return hash((self.ctx, self.n, self.vals))

    def entry(self, i: int, j: int) -> RingElem:
        return RingElem(self.ctx, self.vals[i * self.n + j])

    def raw(self, i: int, j: int) -> int:
        return self.vals[i * self.n + j]

    def rows(self):
        n = self.n
        return [list(self.vals[i * n : (i + 1) * n]) for i in range(n)]

    def __repr__(self):
        return f"Mat({self.ctx.descriptor}, {self.rows()})"

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        self._check(other)
        add = self.ctx.add_raw
        return Mat._unchecked(self.ctx, self.n, [add(a, b) for a, b in zip(self.vals, other.vals)])

    def __sub__(self, other):
        self._check(other)
        sub = self.ctx.sub_raw
        return Mat._unchecked(self.ctx, self.n, [sub(a, b) for a, b in zip(self.vals, other.vals)])

    def __neg__(self):
        neg = self.ctx.neg_raw
        return Mat._unchecked(self.ctx, self.n, [neg(a) for a in self.vals])

    def __matmul__(self, other):
        self._check(other)
        n, add, mul = self.n, self.ctx.add_raw, self.ctx.mul_raw
        a, b = self.vals, other.vals
        rows = [a[i : i + n] for i in range(0, n * n, n)]
        cols = [b[j::n] for j in range(n)]
        if n == 3:  # unrolled: the hot case
            out = [
                add(add(mul(x0, y0), mul(x1, y1)), mul(x2, y2))
                for x0, x1, x2 in rows
                for y0, y1, y2 in cols
            ]
        else:
            out = [reduce(add, map(mul, r, c)) for r in rows for c in cols]
        return Mat._unchecked(self.ctx, n, out)

    def scale(self, e) -> "Mat":
        v = _raw(self.ctx, e)
        mul = self.ctx.mul_raw
        return Mat._unchecked(self.ctx, self.n, [mul(v, a) for a in self.vals])

    def trace(self) -> RingElem:
        add = self.ctx.add_raw
        s = 0
        for i in range(self.n):
            s = add(s, self.vals[i * self.n + i])
        return RingElem(self.ctx, s)

    def det(self) -> RingElem:
        v, n = self.vals, self.n
        add, sub, mul = self.ctx.add_raw, self.ctx.sub_raw, self.ctx.mul_raw
        if n == 1:
            return RingElem(self.ctx, v[0])
        if n == 2:
            return RingElem(self.ctx, sub(mul(v[0], v[3]), mul(v[1], v[2])))
        m = [
            mul(v[0], sub(mul(v[4], v[8]), mul(v[5], v[7]))),
            mul(v[1], sub(mul(v[3], v[8]), mul(v[5], v[6]))),
            mul(v[2], sub(mul(v[3], v[7]), mul(v[4], v[6]))),
        ]
        return RingElem(self.ctx, add(sub(m[0], m[1]), m[2]))

    def charpoly(self) -> tuple[RingElem, ...]:
        """Companion coefficients (a_0, ..., a_{n-1})."""
        ctx, v, n = self.ctx, self.vals, self.n
        sub, mul, add = ctx.sub_raw, ctx.mul_raw, ctx.add_raw
        tr = self.trace().val
        if n == 1:
            return (RingElem(ctx, tr),)
        det = self.det().val
        if n == 2:
            return (RingElem(ctx, ctx.neg_raw(det)), RingElem(ctx, tr))
        s2 = 0  # sum of principal 2x2 minors
        for i, j in ((0, 1), (0, 2), (1, 2)):
            s2 = add(
                s2,
                sub(mul(v[i * 3 + i], v[j * 3 + j]), mul(v[i * 3 + j], v[j * 3 + i])),
            )
        return (RingElem(ctx, det), RingElem(ctx, ctx.neg_raw(s2)), RingElem(ctx, tr))

    def is_invertible(self) -> bool:
        return self.det().is_unit()

    def adjugate(self) -> "Mat":
        v, n, ctx = self.vals, self.n, self.ctx
        sub, mul = ctx.sub_raw, ctx.mul_raw
        if n == 1:
            return Mat._unchecked(ctx, 1, [1])
        if n == 2:
            return Mat._unchecked(ctx, 2, [v[3], ctx.neg_raw(v[1]), ctx.neg_raw(v[2]), v[0]])

        def minor(r0, r1, c0, c1):
            return sub(mul(v[r0 * 3 + c0], v[r1 * 3 + c1]), mul(v[r0 * 3 + c1], v[r1 * 3 + c0]))

        rows = (1, 2), (0, 2), (0, 1)
        out = []
        for j in range(3):  # adjugate = transposed cofactors
            for i in range(3):
                r, c = rows[i], rows[j]
                m = minor(r[0], r[1], c[0], c[1])
                out.append(m if (i + j) % 2 == 0 else ctx.neg_raw(m))
        return Mat._unchecked(ctx, 3, out)

    def inverse(self) -> "Mat":
        d = self.det()
        if not d.is_unit():
            raise NotInvertible(f"determinant {d.val} is not a unit")
        return self.adjugate().scale(d.inverse())

    def conjugate_by(self, g: "Mat") -> "Mat":
        """g @ self @ g^{-1}."""
        return g @ self @ g.inverse()

    def commutes_with(self, other: "Mat") -> bool:
        return self @ other == other @ self

    # ------------------------------------------------------------------
    # level maps

    def residue(self) -> "Mat":
        return self.truncate(1)

    def truncate(self, level: int) -> "Mat":
        ctx = self.ctx.truncated(level)
        mod = self.ctx.mod_pi_raw
        return Mat._unchecked(ctx, self.n, [mod(a, level) for a in self.vals])

    def lift(self, length: int) -> "Mat":
        return Mat(self.ctx.extended(length), self.n, self.vals)

    def is_scalar(self) -> bool:
        n, v = self.n, self.vals
        d = v[0]
        for i in range(n):
            for j in range(n):
                if v[i * n + j] != (d if i == j else 0):
                    return False
        return True


# ----------------------------------------------------------------------
# constructors


def identity(ctx: RingCtx, n: int) -> Mat:
    return scalar(ctx, n, 1)


def zero(ctx: RingCtx, n: int) -> Mat:
    return Mat(ctx, n, [0] * (n * n))


def scalar(ctx: RingCtx, n: int, d) -> Mat:
    _check_size(n)
    v = _raw(ctx, d)
    return Mat._unchecked(ctx, n, [v if i % (n + 1) == 0 else 0 for i in range(n * n)])


def diag(ctx: RingCtx, entries) -> Mat:
    entries = list(entries)
    n = len(entries)
    out = zero(ctx, n)
    vals = list(out.vals)
    for i, e in enumerate(entries):
        vals[i * n + i] = _raw(ctx, e)
    return Mat._unchecked(ctx, n, vals)


def companion(ctx: RingCtx, coeffs) -> Mat:
    """Companion matrix of f(x) = x^n - a_{n-1}x^{n-1} - ... - a_0.

    Sub-diagonal identity band above, coefficient row (a_0,...,a_{n-1})
    at the bottom; its charpoly() is exactly the coeffs tuple.
    """
    coeffs = [_raw(ctx, c) for c in coeffs]
    n = len(coeffs)
    if n not in (2, 3):
        raise BadParams("companion only for n in {2,3}")
    vals = [0] * (n * n)
    for i in range(n - 1):
        vals[i * n + i + 1] = 1
    for j, c in enumerate(coeffs):
        vals[(n - 1) * n + j] = c
    return Mat._unchecked(ctx, n, vals)


def block_diag(ctx: RingCtx, parts) -> Mat:
    """Block diagonal matrix from RingElem/int scalars and Mat blocks."""
    sizes = []
    for p in parts:
        sizes.append(p.n if isinstance(p, Mat) else 1)
    n = sum(sizes)
    if n not in (2, 3):
        raise BadParams(f"block diagonal size {n} unsupported")
    vals = [0] * (n * n)
    off = 0
    for p, s in zip(parts, sizes):
        if isinstance(p, Mat):
            if p.ctx != ctx:
                raise CtxMismatch(f"{p.ctx} vs {ctx}")
            for i in range(s):
                for j in range(s):
                    vals[(off + i) * n + (off + j)] = p.raw(i, j)
        else:
            vals[off * n + off] = _raw(ctx, p)
        off += s
    return Mat._unchecked(ctx, n, vals)


def elementary(ctx: RingCtx, n: int, i: int, j: int, x) -> Mat:
    """I + x E^{ij} (1-based indices, i != j)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise BadParams(f"elementary position ({i},{j}) invalid for n={n}")
    m = identity(ctx, n)
    vals = list(m.vals)
    vals[(i - 1) * n + (j - 1)] = _raw(ctx, x)
    return Mat._unchecked(ctx, n, vals)


def e_matrix(ctx: RingCtx, m: int, a, b, c, d) -> Mat:
    """The 3x3 shape [[0, pi^m, 0], [0, 0, 1], [a, b, c]] + d*I.

    m >= 1; once m >= length the (1,2) entry is zero, so
    e_matrix(ctx, length, 0, 0, c, d) is the J(c, d) shape.
    """
    if m < 1:
        raise BadParams(f"e_matrix needs m >= 1, got {m}")
    ar, br, cr, dr = (_raw(ctx, x) for x in (a, b, c, d))
    add = ctx.add_raw
    return Mat._unchecked(ctx, 3, [dr, ctx.pi_pow_raw(m), 0, 0, dr, 1, ar, br, add(cr, dr)])


def j_matrix(ctx: RingCtx, c, d) -> Mat:
    return e_matrix(ctx, ctx.length, 0, 0, c, d)
