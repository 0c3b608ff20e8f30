"""Canonical forms of 2x2 matrices over a chain ring.

Every matrix splits uniquely as alpha = d*I + pi^j * beta with j
maximal, d in the digit section K_j and beta non-scalar modulo pi over
the length-(l-j) ring.  For n = 2 a non-scalar-residue beta is cyclic,
so it is similar to the companion matrix C(-det beta, tr beta), giving
the complete invariant (j, d, -det beta, tr beta).

Witness convention: canon2 returns (form, X) with X alpha X^{-1} equal
to the rebuilt canonical matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BadParams, BudgetExceeded, NonIntegralDivision, VerificationFailed
from .matrix import Mat, _raw, companion, identity, scalar
from .ring import RingCtx, RingElem, Section, section_of

__all__ = [
    "ScalarSplit",
    "split_scalar",
    "CanonicalForm2",
    "canon2",
    "enumerate2",
    "count2",
]


@dataclass(frozen=True)
class ScalarSplit:
    """alpha = d*I + pi^level * beta, with beta over the truncated ring."""

    level: int
    d: Section
    beta: Mat | None  # None iff alpha is scalar (level = length)


def split_scalar(alpha: Mat) -> ScalarSplit:
    """Maximal scalar split; shared by the 2x2 and 3x3 pipelines."""
    ctx, n = alpha.ctx, alpha.n
    length = ctx.length
    d0 = alpha.raw(0, 0)
    # the least valuation of alpha - d0*I; val(0) = length
    level = min(
        ctx.val_raw(alpha.raw(i, j) if i != j else ctx.sub_raw(alpha.raw(i, j), d0))
        for i in range(n)
        for j in range(n)
    )
    d = section_of(RingElem(ctx, d0), level)
    if level == length:
        return ScalarSplit(level, d, None)
    tctx = ctx.truncated(length - level)
    vals = []
    for i in range(n):
        for j in range(n):
            x = alpha.raw(i, j)
            if i == j:
                x = ctx.sub_raw(x, d.value.val)
            vals.append(tctx.mod_pi_raw(ctx.div_pi_raw(x, level), length - level))
    beta = Mat(tctx, n, vals)
    if beta.residue().is_scalar():
        raise VerificationFailed("scalar split level not maximal")
    return ScalarSplit(level, d, beta)


def recombine(ctx: RingCtx, level: int, d: Section, body: Mat | None, n: int) -> Mat:
    """d*I + pi^level * lift(body) over ctx; inverse of split_scalar."""
    if level == ctx.length:
        return scalar(ctx, n, d.value)
    dv = _raw(ctx, d.value)
    if body is None or body.ctx.length != ctx.length - level:
        raise BadParams("body must live over the length-(l-j) ring")
    # multiplying by pi^level shifts the packed digits up in both flavors
    shift = ctx.p**level
    vals = [v * shift for v in body.vals]
    for i in range(0, n * n, n + 1):
        vals[i] = ctx.add_raw(vals[i], dv)
    return Mat._unchecked(ctx, n, vals)


@dataclass(frozen=True)
class CanonicalForm2:
    """Complete 2x2 invariant (level, d, c, e); c = e = None for scalars.

    The canonical matrix is d*I + pi^level * C(c, e) where C is the
    companion matrix of x^2 - e*x - c over the length-(l-level) ring.
    """

    ctx: RingCtx
    level: int
    d: Section
    c: RingElem | None
    e: RingElem | None

    def rebuild(self) -> Mat:
        body = None
        if self.level < self.ctx.length:
            body = companion(self.c.ctx, (self.c, self.e))
        return recombine(self.ctx, self.level, self.d, body, 2)

    def to_json(self) -> dict:
        return {
            "j": self.level,
            "d": self.d.value.val,
            "c": None if self.c is None else self.c.val,
            "e": None if self.e is None else self.e.val,
        }


def _row_times(w, m: Mat) -> list:
    """Row vector w times m, on raw entries."""
    ctx, n = m.ctx, m.n
    add, mul = ctx.add_raw, ctx.mul_raw
    out = []
    for j in range(n):
        s = 0
        for i in range(n):
            s = add(s, mul(w[i], m.raw(i, j)))
        out.append(s)
    return out


def _cyclic_row_witness(beta: Mat) -> Mat:
    """P with rows w, w beta, ..., w beta^(n-1) and unit determinant.

    P beta P^{-1} is then exactly the companion matrix of beta's
    characteristic polynomial (Cayley-Hamilton).  Candidates w are the
    residue row vectors whose first nonzero entry is 1, in lex order;
    unit multiples of a witness row are witness rows, so the first hit
    is also the first among all residue vectors in lex order.  A hit
    exists whenever the residue of beta is cyclic, which every
    non-scalar 2x2 residue is.

    The entries after the leading 1 range over min(p, 4) digits only,
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
    digits = range(min(ctx.p, 4))
    for lead in range(n - 1, -1, -1):
        for tail in product(digits, repeat=n - 1 - lead):
            rows = [[0] * lead + [1, *tail]]
            while len(rows) < n:
                rows.append(_row_times(rows[-1], beta))
            cand = Mat._unchecked(ctx, n, [x for row in rows for x in row])
            if cand.is_invertible():
                return cand
    raise VerificationFailed("no cyclic row vector for a cyclic residue")


def canon2(alpha: Mat) -> tuple[CanonicalForm2, Mat]:
    """(complete invariant, witness X) with X alpha X^{-1} canonical."""
    if alpha.n != 2:
        raise BadParams("canon2 expects a 2x2 matrix")
    ctx = alpha.ctx
    sp = split_scalar(alpha)
    if sp.level == ctx.length:
        form = CanonicalForm2(ctx, sp.level, sp.d, None, None)
        if form.rebuild() != alpha:
            raise VerificationFailed("canon2 scalar form does not rebuild its input")
        return form, identity(ctx, 2)
    beta = sp.beta
    a0, a1 = beta.charpoly()  # c = -det, e = trace
    p = _cyclic_row_witness(beta)
    x = p.lift(ctx.length)
    form = CanonicalForm2(ctx, sp.level, sp.d, a0, a1)
    if not x.conjugates(alpha, form.rebuild()):
        raise VerificationFailed("canon2 witness check failed")
    return form, x


def _gl_keep2(level: int, d: Section, c) -> bool:
    if level >= 1:
        return d.value.is_unit()
    return c.is_unit()  # det(beta) = -c must be a unit when j = 0


def enumerate2(ctx: RingCtx, group: str = "M", budget: int = 10_000_000):
    """One CanonicalForm2 per class over ctx.

    Deterministic order: level ascending, then d, then (c, e)
    lexicographically by packed value.
    """
    if group not in ("M", "GL"):
        raise BadParams(f"group must be 'M' or 'GL', got {group!r}")
    if count2(ctx.q, ctx.length, "M") > budget:
        raise BudgetExceeded(f"enumerate2 over {ctx.descriptor} exceeds budget {budget}")
    length = ctx.length
    out = []
    for level in range(length + 1):
        for dv in range(ctx.p**level):
            d = Section(level, RingElem(ctx, dv))
            if level == length:
                if group == "GL" and not d.value.is_unit():
                    continue
                out.append(CanonicalForm2(ctx, level, d, None, None))
                continue
            tctx = ctx.truncated(length - level)
            for cv in range(tctx.cardinality):
                c = RingElem(tctx, cv)
                if group == "GL" and not _gl_keep2(level, d, c):
                    continue
                for ev in range(tctx.cardinality):
                    out.append(CanonicalForm2(ctx, level, d, c, RingElem(tctx, ev)))
    return out


def _check_count_args(q: int, level: int, group: str, mode: str):
    """Refuse what count2 and count3 cannot count, before any shortcut."""
    if q < 2 or level < 0:
        raise BadParams("need q >= 2 and level >= 0")
    if group not in ("M", "GL"):
        raise BadParams(f"group must be 'M' or 'GL', got {group!r}")
    if mode not in ("closed", "recursion"):
        raise BadParams(f"mode must be 'closed' or 'recursion', got {mode!r}")


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise NonIntegralDivision(f"{num} not divisible by {den}")
    return num // den


def count2(q: int, level: int, group: str = "M", mode: str = "closed") -> int:
    """Number of similarity classes of 2x2 matrices at the given level."""
    _check_count_args(q, level, group, mode)
    if level == 0:
        return 1
    if mode != "recursion":
        if group == "M":
            return _exact_div(q ** (2 * level + 1) - q**level, q - 1)
        return q ** (2 * level) - q ** (level - 1)
    if group == "M":
        w = [q, q * q]
    else:
        w = [q - 1, q * q - q]
    for _ in range(level - 1):
        w = [q * w[0], q * q * w[0] + q * q * w[1]]
    return w[0] + w[1]
