"""Small square matrices over a finite chain ring.

Entries are stored row-major as packed integers (see ring.py), and
the accessors, trace, determinant and characteristic polynomial hand
out packed integers too.  Only n in {2, 3} is supported, which keeps
determinants, adjugates and characteristic polynomials explicit and
exact.

Mat(...) and Mat.from_rows validate every entry (an
integer, taken to its packed value by RingCtx.packed_raw); from_rows
also refuses rows that are not sequences or do not form a square
matrix.  The shape constructors below (identity, zero, scalar, diag,
elementary, e_matrix) put each value they are given through the same
check once.  The class matrices of canonical forms are laid out by
their bodies (see canon2.CanonicalForm), e_matrix for hard bodies.
Results of ring operations (products, sums, differences, scaling,
adjugates, truncation) and matrices assembled from checked
values are built with the unchecked Mat._unchecked, since their entries
are already reduced.

The product, determinant and characteristic polynomial, scaling, and
the 3x3 adjugate are one integer expression per output on every ring:
the entries are lifted once by the ring's _lift (see ring.py), each
output is evaluated on plain ints, with signs, and mapped back by one
_reduce.  Over a "z" ring or any ring of length 1 that is one reduction
mod p^length; over a "t" ring of length >= 2 it is one gather of spread
lanes, so the 3x3 product makes 9 gathers in place of 27 ring products
and 18 ring sums, and a determinant one in place of 14 ring operations.

Characteristic polynomials are reported in companion convention: the
tuple (a_0, ..., a_{n-1}) with x^n = a_{n-1} x^{n-1} + ... + a_0 at the
matrix, so the companion matrix of coeffs (canon2.CyclicBody) has
charpoly() == coeffs.
"""

from __future__ import annotations

import operator

from .errors import BadParams, CtxMismatch, NotInvertible
from .ring import RingCtx

__all__ = [
    "Mat",
    "identity",
    "zero",
    "scalar",
    "diag",
    "elementary",
    "e_matrix",
]


def _raw(ctx: RingCtx, x) -> int:
    """Packed value of an integer entry over ctx.

    Integers are taken through operator.index, so int and numpy integers
    pass while floats, strings and bools are refused, never truncated.
    """
    if type(x) is int:
        v = x
    elif isinstance(x, bool):
        raise BadParams(f"matrix entry {x!r} is a bool, not an integer")
    else:
        try:
            v = operator.index(x)
        except TypeError:
            raise BadParams(f"matrix entry {x!r} is not an integer") from None
    return ctx.packed_raw(v)


def _check_size(n: int):
    # refuse a float or bool before the membership test can coerce it
    if type(n) is not int or n not in (2, 3):
        raise BadParams(f"only n in {{2,3}} supported, got {n!r}")


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
        try:
            rows = list(rows)
        except TypeError:
            raise BadParams(f"matrix {rows!r} is not a list of rows") from None
        for i, r in enumerate(rows):
            try:
                rows[i] = list(r)
            except TypeError:
                raise BadParams(f"matrix row {r!r} is not a list of entries") from None
        if any(len(r) != len(rows) for r in rows):
            lengths = [len(r) for r in rows]
            raise BadParams(f"{len(rows)} rows of lengths {lengths} do not form a square matrix")
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

    def __matmul__(self, other):
        if other.ctx is not self.ctx or other.n != self.n:
            self._check(other)
        ctx = self.ctx
        lift, red = ctx._lift, ctx._reduce
        a, b = self.vals, other.vals
        if lift is not None:
            a, b = map(lift, a), map(lift, b)
        if self.n == 2:
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            out = (
                red(a0 * b0 + a1 * b2),
                red(a0 * b1 + a1 * b3),
                red(a2 * b0 + a3 * b2),
                red(a2 * b1 + a3 * b3),
            )
            return Mat._unchecked(ctx, 2, out)
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        out = (
            red(a0 * b0 + a1 * b3 + a2 * b6),
            red(a0 * b1 + a1 * b4 + a2 * b7),
            red(a0 * b2 + a1 * b5 + a2 * b8),
            red(a3 * b0 + a4 * b3 + a5 * b6),
            red(a3 * b1 + a4 * b4 + a5 * b7),
            red(a3 * b2 + a4 * b5 + a5 * b8),
            red(a6 * b0 + a7 * b3 + a8 * b6),
            red(a6 * b1 + a7 * b4 + a8 * b7),
            red(a6 * b2 + a7 * b5 + a8 * b8),
        )
        return Mat._unchecked(ctx, 3, out)

    def scale(self, e) -> "Mat":
        ctx = self.ctx
        lift, red = ctx._lift, ctx._reduce
        v, vals = _raw(ctx, e), self.vals
        if lift is not None:
            v, vals = lift(v), map(lift, vals)
        return Mat._unchecked(ctx, self.n, [red(v * a) for a in vals])

    def trace(self) -> int:
        add = self.ctx.add_raw
        s = 0
        for i in range(self.n):
            s = add(s, self.vals[i * self.n + i])
        return s

    def det(self) -> int:
        lift, red = self.ctx._lift, self.ctx._reduce
        v = self.vals if lift is None else map(lift, self.vals)
        if self.n == 2:
            v0, v1, v2, v3 = v
            return red(v0 * v3 - v1 * v2)
        v0, v1, v2, v3, v4, v5, v6, v7, v8 = v
        return red(v0 * (v4 * v8 - v5 * v7) - v1 * (v3 * v8 - v5 * v6) + v2 * (v3 * v7 - v4 * v6))

    def charpoly(self) -> tuple[int, ...]:
        """Companion coefficients (a_0, ..., a_{n-1}): the determinant,
        minus the sum s2 of the principal 2x2 minors, and the trace; for
        n = 2, minus the determinant and the trace."""
        lift, red = self.ctx._lift, self.ctx._reduce
        v = self.vals if lift is None else map(lift, self.vals)
        if self.n == 2:
            v0, v1, v2, v3 = v
            return (red(v1 * v2 - v0 * v3), red(v0 + v3))
        v0, v1, v2, v3, v4, v5, v6, v7, v8 = v
        det = v0 * (v4 * v8 - v5 * v7) - v1 * (v3 * v8 - v5 * v6) + v2 * (v3 * v7 - v4 * v6)
        neg_s2 = v1 * v3 + v2 * v6 + v5 * v7 - v0 * v4 - v0 * v8 - v4 * v8
        return (red(det), red(neg_s2), red(v0 + v4 + v8))

    def is_invertible(self) -> bool:
        return self.ctx.is_unit_raw(self.det())

    def adjugate(self) -> "Mat":
        v, ctx = self.vals, self.ctx
        if self.n == 2:
            return Mat._unchecked(ctx, 2, [v[3], ctx.neg_raw(v[1]), ctx.neg_raw(v[2]), v[0]])
        lift, red = ctx._lift, ctx._reduce
        v0, v1, v2, v3, v4, v5, v6, v7, v8 = v if lift is None else map(lift, v)
        out = (  # transposed cofactors
            red(v4 * v8 - v5 * v7),
            red(v2 * v7 - v1 * v8),
            red(v1 * v5 - v2 * v4),
            red(v5 * v6 - v3 * v8),
            red(v0 * v8 - v2 * v6),
            red(v2 * v3 - v0 * v5),
            red(v3 * v7 - v4 * v6),
            red(v1 * v6 - v0 * v7),
            red(v0 * v4 - v1 * v3),
        )
        return Mat._unchecked(ctx, 3, out)

    def inverse(self) -> "Mat":
        d = self.det()
        if not self.ctx.is_unit_raw(d):
            raise NotInvertible(f"determinant {d} is not a unit")
        return self.adjugate().scale(self.ctx.inv_raw(d))

    def transpose(self) -> "Mat":
        n = self.n
        return Mat._unchecked(self.ctx, n, [self.vals[j * n + i] for i in range(n) for j in range(n)])

    def conjugate_by(self, g: "Mat") -> "Mat":
        """g @ self @ g^{-1}."""
        return g @ self @ g.inverse()

    def conjugates(self, a: "Mat", c: "Mat") -> bool:
        """Whether self @ a @ self^{-1} == c, decided without an inverse:
        it holds iff self @ a == c @ self and self is a unit."""
        return self @ a == c @ self and self.is_invertible()

    # ------------------------------------------------------------------
    # level maps

    def residue(self) -> "Mat":
        """The matrix mod pi; a matrix over a length-1 ring is its own."""
        return self if self.ctx.length == 1 else self.truncate(1)

    def truncate(self, level: int) -> "Mat":
        ctx = self.ctx.truncated(level)
        mod = self.ctx.mod_pi_raw
        return Mat._unchecked(ctx, self.n, [mod(a, level) for a in self.vals])

    def lift(self, length: int) -> "Mat":
        # a packed value of a shorter ring is one of the longer ring too
        return Mat._unchecked(self.ctx.extended(length), self.n, self.vals)

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
    return scalar(ctx, n, 0)


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

    m is an int >= 1; once m >= length the (1,2) entry is zero, so
    e_matrix(ctx, length, 0, 0, c, d) is the J(c, d) shape.  This is the
    one layout of the pi-power shape: HardBody builds its matrix here.
    """
    if type(m) is not int or m < 1:
        raise BadParams(f"e_matrix needs an integer m >= 1, got {m!r}")
    ar, br, cr, dr = (_raw(ctx, x) for x in (a, b, c, d))
    add = ctx.add_raw
    return Mat._unchecked(ctx, 3, [dr, ctx.pi_pow_raw(m), 0, 0, dr, 1, ar, br, add(cr, dr)])
