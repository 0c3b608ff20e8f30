"""Canonical forms of 2x2 matrices over a chain ring, and the form type
shared with canon3.

Every matrix splits uniquely as alpha = d*I + pi^j * beta with j
maximal, d a packed value reduced mod pi^j (no digit at or above j)
and beta non-scalar modulo pi over the length-(l-j) ring.  A
CanonicalForm is (n, j, d, body) together with a witness X, and
X alpha X^{-1} is the rebuilt canonical matrix.
The body is ScalarBody when alpha is scalar (j = l) and CyclicBody when
the residue of beta is cyclic: beta is then similar to the companion
matrix of its characteristic polynomial, whose coefficients are a
complete invariant.  Both branches are shared with canon3 (see
_canonical_form).  For n = 2 every non-scalar residue is cyclic, so
canon2 needs no other body, and (j, d, -det beta, tr beta) is the
complete invariant.  This module holds forms only: class counts and
the enumeration of classes, for both sizes, live in census.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .errors import BadParams, VerificationFailed
from .matrix import Mat, identity
from .ring import RingCtx

__all__ = [
    "ScalarBody",
    "CyclicBody",
    "CanonicalForm",
    "canon2",
]


def _split_scalar(alpha: Mat) -> tuple:
    """The maximal scalar split (level, d, beta, res) of alpha: alpha =
    d*I + pi^level * beta, d reduced mod pi^level, beta over the
    length-(l-level) ring and res its residue, which the maximality check
    takes; beta and res are None iff alpha is scalar (level = length).
    Shared by the 2x2 and 3x3 pipelines."""
    ctx, n, v = alpha.ctx, alpha.n, alpha.vals
    length, sub, d0 = ctx.length, ctx.sub_raw, v[0]
    diag = range(0, n * n, n + 1)
    # level is the least valuation of an entry of alpha - d0*I, whose
    # (0, 0) entry is 0; the first unit entry, (0, 1) for most inputs,
    # ends the scan
    level = length
    for i in range(1, n * n):
        x = sub(v[i], d0) if i in diag else v[i]
        if x:
            level = min(level, ctx.val_raw(x))
            if not level:
                break
    d = ctx.mod_pi_raw(d0, level)
    if level == length:
        return level, d, None, None
    div = ctx.div_pi_raw
    vals = [div(sub(x, d) if i in diag else x, level) for i, x in enumerate(v)]
    # the quotients are values of the length-(l - level) ring
    beta = Mat._unchecked(ctx.truncated(length - level), n, vals)
    res = beta.residue()
    if res.is_scalar():
        raise VerificationFailed("scalar split level not maximal")
    return level, d, beta, res


def _placer(ctx: RingCtx, n: int, level: int, d: int):
    """The function B -> d*I + pi^level * B over ctx, for B given by the
    packed values of its matrix over the length-(l-level) ring; inverse
    of _split_scalar.

    Every class matrix is placed here: by CanonicalForm.rebuild, and so
    by the canon2 and canon3 witness checks, and by the enumeration
    stream, which takes one placer per level and scalar part d.
    """
    if not level:  # d = 0 at level 0, so the matrix is B itself
        return partial(Mat._unchecked, ctx, n)
    # pi^level * B, for B over the shorter ring, is a plain product (see ring.py)
    shift, add, diag = ctx.pi_pow_raw(level), ctx.add_raw, range(0, n * n, n + 1)

    def place(body_vals) -> Mat:
        vals = [v * shift for v in body_vals]
        for i in diag:
            vals[i] = add(vals[i], d)
        return Mat._unchecked(ctx, n, vals)

    return place


@dataclass(slots=True, unsafe_hash=True)
class ScalarBody:
    """The body of a scalar matrix (level = length): there is none, and
    its matrix is zero.  Slotted and immutable by convention, like every
    body and CanonicalForm (see there)."""

    def vals(self, n: int) -> tuple:
        return (0,) * (n * n)

    def to_json(self) -> dict:
        return {"kind": "scalar"}


@dataclass(slots=True, unsafe_hash=True)
class CyclicBody:
    """The companion matrix of coeffs: the identity band above the
    diagonal and the coefficient row (a_0, ..., a_{n-1}) at the bottom,
    so its charpoly() is exactly coeffs.  Slotted and immutable by
    convention (see CanonicalForm)."""

    coeffs: tuple  # packed characteristic polynomial in companion convention

    def vals(self, n: int) -> tuple:
        return (0, 1, 0, 0, 0, 1)[: n * n - n] + self.coeffs

    def to_json(self) -> dict:
        return {"kind": "cyclic", "coeffs": list(self.coeffs)}


@dataclass(slots=True, unsafe_hash=True)
class CanonicalForm:
    """Complete class descriptor (n, level, d, body) of an n x n matrix,
    with a witness X: X alpha X^{-1} is the rebuilt form.

    The canonical matrix is d*I + pi^level * B, with B the body's matrix
    over the length-(l-level) ring, whose values body.vals(n) lays out
    (see _placer).  Equal descriptors mean similar matrices; the witness
    takes no part in equality or the hash.

    Forms and bodies are slotted dataclasses that are immutable by
    convention: nothing assigns to one after it is built, and
    dataclasses.replace gives a changed copy.  They are not frozen, since
    a frozen dataclass pays one object.__setattr__ per field on every
    construction, and the enumeration stream builds one form per class.
    """

    ctx: RingCtx
    n: int
    level: int
    d: int  # reduced mod pi^level
    body: object
    witness: Mat = field(compare=False, repr=False)

    def rebuild(self) -> Mat:
        """The canonical matrix.  A form may be built by hand, so its
        values are checked before they are placed: raises BadParams
        unless 0 <= level <= length, d is reduced mod pi^level and the
        body gives n*n packed values of the length-(l-level) ring."""
        ctx, n, level, d = self.ctx, self.n, self.level, self.d
        if type(level) is not int or not 0 <= level <= ctx.length:
            raise BadParams(f"level {level!r} is not in [0, {ctx.length}]")
        # the length-k ring has the q^k packed values below q^k (see ring.py)
        q = ctx.q
        if type(d) is not int or not 0 <= d < q**level:
            raise BadParams(f"d = {d!r} is not reduced mod pi^{level} over {ctx.descriptor}")
        vals, card = self.body.vals(n), q ** (ctx.length - level)
        if len(vals) != n * n or any(type(v) is not int or not 0 <= v < card for v in vals):
            raise BadParams(f"body {self.body} gives no {n}x{n} matrix over the length "
                            f"{ctx.length - level} ring")
        return _placer(ctx, n, level, d)(vals)

    def to_json(self) -> dict:
        if self.n == 2:  # 2x2 forms print the companion pair (c, e) of x^2 - e*x - c
            c = e = None
            if isinstance(self.body, CyclicBody):
                c, e = self.body.coeffs
            return {"j": self.level, "d": self.d, "c": c, "e": e}
        return {
            "ring": self.ctx.descriptor,
            "j": self.level,
            "d": self.d,
            "body": self.body.to_json(),
        }


def _row_times(w, m: Mat) -> list:
    """Row vector w times m, on raw entries: each output entry is one
    integer expression of the lifted entries with one reduce (see
    matrix.py)."""
    ctx, n, v = m.ctx, m.n, m.vals
    lift, red = ctx._lift, ctx._reduce
    if lift is not None:
        w, v = [lift(x) for x in w], [lift(x) for x in v]
    return [red(sum(map(operator.mul, w, v[j::n]))) for j in range(n)]


def _cyclic_row_witness(beta: Mat) -> Mat:
    """P with rows w, w beta, ..., w beta^(n-1) and unit determinant.

    P beta P^{-1} is then exactly the companion matrix of beta's
    characteristic polynomial (Cayley-Hamilton).  Candidates w are the
    residue row vectors whose first nonzero entry is 1, in lex order;
    unit multiples of a witness row are witness rows, so the first hit
    is also the first among all residue vectors in lex order.  A hit
    exists whenever the residue of beta is cyclic, which every
    non-scalar 2x2 residue is.

    The entries after the leading 1 range over min(q, 4) residues only,
    so the cost does not grow with p, and the first hit is that of the
    full scan.  A non-cyclic row lies in one of at most n <= 3 maximal
    proper invariant subspaces (one per distinct irreducible factor of
    the characteristic polynomial).  An affine line of candidates (last
    entry varying) lies inside one of them or meets each in at most one
    point, so it has a hit among its first four points or none; two
    parallel lines of one lead span the space, so at most three lines of
    a lead lie inside one, and the first line with a hit has its middle
    entry below 4.
    """
    ctx, n = beta.ctx, beta.n
    digits = range(min(ctx.q, 4))  # residues, as packed values of ctx (see ring.py)
    for lead in range(n - 1, -1, -1):
        for tail in product(digits, repeat=n - 1 - lead):
            rows = [[0] * lead + [1, *tail]]
            while len(rows) < n:
                rows.append(_row_times(rows[-1], beta))
            cand = Mat._unchecked(ctx, n, [x for row in rows for x in row])
            if cand.is_invertible():
                return cand
    raise VerificationFailed("no cyclic row vector for a cyclic residue")


def _cyclic_body(beta: Mat, res: Mat) -> tuple:
    """(CyclicBody, X) for a beta with cyclic residue res: X beta X^{-1}
    is the companion matrix of its characteristic polynomial.  res is
    not read: the witness rows are products with beta itself."""
    return CyclicBody(beta.charpoly()), _cyclic_row_witness(beta)


def _canonical_form(alpha: Mat, body_of) -> CanonicalForm:
    """The form of alpha with its witness, checked exactly against alpha.

    A scalar alpha gets ScalarBody and the identity.  Otherwise
    body_of(beta, res), for the body beta of the scalar split and its
    residue res, returns (body, X) with X beta X^{-1} the body's matrix,
    so no stage takes the residue again, and the witness is X
    lifted to the ring of alpha: d*I is central, and pi^level times a
    matrix depends on that matrix mod pi^(l-level) only.
    """
    ctx, n = alpha.ctx, alpha.n
    level, d, beta, res = _split_scalar(alpha)
    if beta is None:
        body, x = ScalarBody(), identity(ctx, n)
    else:
        body, x = body_of(beta, res)
        x = x.lift(ctx.length)
    form = CanonicalForm(ctx, n, level, d, body, x)
    if not x.conjugates(alpha, form.rebuild()):
        raise VerificationFailed(f"canon{n} witness check failed")
    return form


def canon2(alpha: Mat) -> CanonicalForm:
    """The class descriptor of the 2x2 matrix alpha, with its witness."""
    if alpha.n != 2:
        raise BadParams("canon2 expects a 2x2 matrix")
    # every non-scalar 2x2 residue is cyclic
    return _canonical_form(alpha, _cyclic_body)
