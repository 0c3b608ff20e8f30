"""Canonical forms of 3x3 matrices over a chain ring.

After the scalar split alpha = d*I + pi^j * beta (shared with canon2),
the residue of beta is non-scalar and falls into one of three shapes,
each with its own exact reduction over the length-(l-j) ring:

- cyclic residue (minimal polynomial of the residue has degree 3):
  beta is similar to the companion matrix of its characteristic
  polynomial; the coefficient triple is a complete invariant at every
  length.
- split residue (diagonalizable with eigenvalues a, b, b and a != b):
  an exact block refinement separates a 1x1 block lifting a from a 2x2
  block lifting b, and the block is finished by canon2.  Again a
  complete invariant at every length.
- jtype residue (one eigenvalue, minimal polynomial of degree 2):
  beta is conjugated onto the shape [[d, pi^m, 0], [0, d, 1],
  [a, b, c+d]] and then normalized type by type.  The normalization
  separates classes completely for lengths <= 2 but not beyond, so the
  result is mapped onto a fixed transversal of such classes with
  explicit similarity tests.  Classes only merge within one
  characteristic polynomial, so the transversal is kept in buckets keyed
  by it, each built on first use from the pi-power shapes with that
  polynomial alone; hard_family is the union of all buckets of a ring.
  Within a bucket, similarity tests run only between forms with equal
  signatures (see _signature), a cheap invariant of the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .canon2 import (
    CanonicalForm2,
    _cyclic_row_witness,
    _row_times,
    canon2,
    recombine,
    split_scalar,
)
from .errors import BadParams, NotHardCase, VerificationFailed, WrongResidueType
from .matrix import Mat, block_diag, companion, diag, e_matrix, identity
from .modsolve import _diagonalize, build_intertwiner_matrix, is_similar
from .ring import RingCtx, RingElem, Section

__all__ = [
    "ResidueType",
    "residue_type",
    "hensel_block_split",
    "EParams",
    "as_e_params",
    "reduce_to_e_form",
    "HardForm",
    "classify_hard",
    "hard_family",
    "hard_class_rep",
    "ScalarBody",
    "CyclicBody",
    "SplitBody",
    "HardBody",
    "CanonicalForm3",
    "canon3",
    "CentralizerShape",
    "centralizer_shape",
]


# ----------------------------------------------------------------------
# residue field linear algebra (plain ints mod p)


def _rref(rows, p: int):
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


def _left_kernel(m: Mat):
    """Basis of {w : w m = 0} for m over a residue field."""
    p, n = m.ctx.p, m.n
    rr, piv = _rref([[m.raw(j, i) for j in range(n)] for i in range(n)], p)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [0] * n
        v[f] = 1
        for ri, c in enumerate(piv):
            v[c] = -rr[ri][f] % p
        basis.append(tuple(v))
    return basis


# ----------------------------------------------------------------------
# residue classification


@dataclass(frozen=True)
class ResidueType:
    """Shape of a matrix over the residue field.

    kind is one of "scalar", "split", "jtype", "cyclic"; data is () for
    scalar/cyclic, (single, double) eigenvalues for split, and (d,) for
    jtype, all as integers in [0, p).
    """

    kind: str
    data: tuple = ()


def residue_type(m: Mat) -> ResidueType:
    r = m if m.ctx.length == 1 else m.residue()
    p = r.ctx.p
    if r.is_scalar():
        return ResidueType("scalar", (r.raw(0, 0),))
    if r.n != 3:
        raise BadParams("residue_type expects a 3x3 matrix")
    r2 = r @ r
    # minimal polynomial degree: is r^2 = s*r + t*I solvable?
    aug = []
    for i in range(3):
        for j in range(3):
            aug.append([r.raw(i, j), 1 if i == j else 0, r2.raw(i, j)])
    rr, piv = _rref(aug, p)
    if 2 in piv:
        return ResidueType("cyclic")
    # r is non-scalar, so {r, I} is independent and piv == [0, 1]
    s, t = rr[0][2], rr[1][2]
    roots = [d for d in range(p) if (d * d - s * d - t) % p == 0]
    if len(roots) == 1:
        # x^2 - s x - t = (x - d)^2: one eigenvalue, minpoly degree 2
        return ResidueType("jtype", (roots[0],))
    # an irreducible quadratic minimal polynomial is impossible in odd
    # dimension, so two distinct roots remain; the trace says which one
    # is doubled
    if len(roots) == 2:
        tr = r.trace().val
        for single, double in (roots, roots[::-1]):
            if (single + 2 * double - tr) % p == 0:
                return ResidueType("split", (single, double))
    raise VerificationFailed(f"residue minimal polynomial x^2 - {s}x - {t} fits no shape")


# ----------------------------------------------------------------------
# split residue: exact 1+2 block refinement


def _solve2(ctx: RingCtx, m00, m01, m10, m11, r0, r1):
    """Solve the 2x2 system with a unit determinant; raw ints in and out."""
    sub, mul = ctx.sub_raw, ctx.mul_raw
    det = sub(mul(m00, m11), mul(m01, m10))
    dinv = ctx.inv_raw(det)
    x = mul(dinv, sub(mul(m11, r0), mul(m01, r1)))
    y = mul(dinv, sub(mul(m00, r1), mul(m10, r0)))
    return x, y


def hensel_block_split(beta: Mat):
    """Exact block refinement of a split-residue matrix.

    Returns (a, B, X) with X beta X^{-1} = diag(a) ++ B; a lifts the
    multiplicity-1 eigenvalue, B is 2x2 with both residue eigenvalues
    equal to the doubled one.  The first conjugation diagonalizes the
    residue by left eigenvectors; a quadratically convergent iteration
    then clears row 1 off the diagonal, and one linear solve clears
    column 1 without touching the cleared row.
    """
    ctx = beta.ctx
    rt = residue_type(beta)
    if rt.kind != "split":
        raise WrongResidueType(f"expected split residue, got {rt.kind}")
    abar, bbar = rt.data
    res = beta.residue()
    p = res.ctx.p
    shifted_a = Mat(res.ctx, 3, [(res.vals[k] - (abar if k % 4 == 0 else 0)) % p for k in range(9)])
    shifted_b = Mat(res.ctx, 3, [(res.vals[k] - (bbar if k % 4 == 0 else 0)) % p for k in range(9)])
    ka = _left_kernel(shifted_a)
    kb = _left_kernel(shifted_b)
    x_total = Mat(ctx, 3, list(ka[0]) + list(kb[0]) + list(kb[1]))
    gamma = beta.conjugate_by(x_total)
    length = ctx.length
    k = 1
    while k < length:
        # clear (0,1), (0,2) one doubling step; the correction terms are
        # quadratic in the solved pair, so accuracy doubles each round
        m00 = ctx.sub_raw(gamma.raw(1, 1), gamma.raw(0, 0))
        m11 = ctx.sub_raw(gamma.raw(2, 2), gamma.raw(0, 0))
        x, y = _solve2(
            ctx,
            m00,
            gamma.raw(2, 1),
            gamma.raw(1, 2),
            m11,
            ctx.neg_raw(gamma.raw(0, 1)),
            ctx.neg_raw(gamma.raw(0, 2)),
        )
        u = Mat(ctx, 3, [1, x, y, 0, 1, 0, 0, 0, 1])
        gamma = gamma.conjugate_by(u)
        x_total = u @ x_total
        k *= 2
    # row 1 is clear, so clearing column 1 is exactly linear
    m00 = ctx.sub_raw(gamma.raw(0, 0), gamma.raw(1, 1))
    m11 = ctx.sub_raw(gamma.raw(0, 0), gamma.raw(2, 2))
    x, y = _solve2(
        ctx,
        m00,
        ctx.neg_raw(gamma.raw(1, 2)),
        ctx.neg_raw(gamma.raw(2, 1)),
        m11,
        ctx.neg_raw(gamma.raw(1, 0)),
        ctx.neg_raw(gamma.raw(2, 0)),
    )
    low = Mat(ctx, 3, [1, 0, 0, x, 1, 0, y, 0, 1])
    gamma = gamma.conjugate_by(low)
    x_total = low @ x_total
    a = gamma.entry(0, 0)
    b = Mat(ctx, 2, [gamma.raw(1, 1), gamma.raw(1, 2), gamma.raw(2, 1), gamma.raw(2, 2)])
    if a.val % p != abar or beta.conjugate_by(x_total) != block_diag(ctx, [a, b]):
        raise VerificationFailed("block split witness check failed")
    return a, b, x_total


# ----------------------------------------------------------------------
# jtype residue: reduction to the pi-power shape


@dataclass(frozen=True)
class EParams:
    """Parameters of the shape [[d, pi^m, 0], [0, d, 1], [a, b, c+d]].

    a, b, c lie in the maximal ideal and 1 <= m <= length, with
    m = length exactly when the (1,2) slot is zero.
    """

    ctx: RingCtx
    m: int
    a: RingElem
    b: RingElem
    c: RingElem
    d: RingElem

    def __post_init__(self):
        if not 1 <= self.m <= self.ctx.length:
            raise BadParams(f"slot exponent {self.m} outside [1, {self.ctx.length}]")
        for name in ("a", "b", "c"):
            e: RingElem = getattr(self, name)
            if e.ctx != self.ctx or e.is_unit():
                raise BadParams(f"{name} must be a non-unit over {self.ctx.descriptor}")

    def rebuild(self) -> Mat:
        return e_matrix(self.ctx, self.m, self.a, self.b, self.c, self.d)


def as_e_params(m: Mat) -> EParams | None:
    """Recognize the exact shape above; None if any entry is off."""
    if m.n != 3:
        raise BadParams("as_e_params expects a 3x3 matrix")
    ctx = m.ctx
    d = m.raw(0, 0)
    if m.raw(0, 2) or m.raw(1, 0) or m.raw(1, 1) != d or m.raw(1, 2) != 1:
        return None
    slot = m.raw(0, 1)
    t = ctx.val_raw(slot)
    if t < 1 or slot != ctx.pi_pow_raw(t):
        return None
    a, b = m.raw(2, 0), m.raw(2, 1)
    c = ctx.sub_raw(m.raw(2, 2), d)
    if any(ctx.is_unit_raw(v) for v in (a, b, c)):
        return None
    return EParams(ctx, t, RingElem(ctx, a), RingElem(ctx, b), RingElem(ctx, c), RingElem(ctx, d))


def reduce_to_e_form(beta: Mat):
    """Conjugate a jtype-residue matrix onto the pi-power shape.

    Returns (EParams, X) with X beta X^{-1} equal to the rebuilt shape.
    """
    ctx = beta.ctx
    rt = residue_type(beta)
    if rt.kind != "jtype":
        raise WrongResidueType(f"expected jtype residue, got {rt.kind}")
    dbar = rt.data[0]
    res = beta.residue()
    p = res.ctx.p
    nbar = Mat(res.ctx, 3, [(res.vals[k] - (dbar if k % 4 == 0 else 0)) % p for k in range(9)])
    ker = _left_kernel(nbar)
    w2 = next(
        tuple(1 if k == i else 0 for k in range(3))
        for i in range(3)
        if any(nbar.raw(i, j) for j in range(3))
    )
    w3 = tuple(_row_times(w2, nbar))
    # pick a kernel row independent from w3 (rank test over the field)
    w1 = next(k for k in ker if len(_rref([list(k), list(w3)], p)[0]) == 2)
    x_total = Mat(ctx, 3, list(w1) + list(w2) + list(w3))
    gamma = beta.conjugate_by(x_total)

    def step(x: Mat):
        nonlocal gamma, x_total
        gamma = gamma.conjugate_by(x)
        x_total = x @ x_total

    # each step fixes one entry of the shape: (1,2) = 1, (0,2) = 0,
    # (1,0) = 0, (1,1) = (0,0), then (0,1) an exact pi power
    step(diag(ctx, [1, 1, gamma.entry(1, 2)]))
    step(Mat(ctx, 3, [1, ctx.neg_raw(gamma.raw(0, 2)), 0, 0, 1, 0, 0, 0, 1]))
    step(Mat(ctx, 3, [1, 0, 0, 0, 1, 0, gamma.raw(1, 0), 0, 1]))
    step(Mat(ctx, 3, [1, 0, 0, 0, 1, 0, 0, ctx.sub_raw(gamma.raw(1, 1), gamma.raw(0, 0)), 1]))
    _, u = ctx.unit_split_raw(gamma.raw(0, 1))
    step(diag(ctx, [ctx.inv_raw(u), 1, 1]))
    e = as_e_params(gamma)
    if e is None or beta.conjugate_by(x_total) != e.rebuild():
        raise VerificationFailed("pi-power shape reduction failed")
    return e, x_total


# ----------------------------------------------------------------------
# jtype normal forms


@dataclass(frozen=True)
class HardForm:
    """Normalized pi-power shape with its type tag.

    tag "I":    a = b = 0 and the slot is zero (pure J shape).
    tag "II":   val(b) <= min(m, val(a)); normalized to m = val(b), a = 0.
    tag "III0": val(a) < min(m, val(b)); a scaled to an exact pi power
                when the slot is zero, d pinned below val(a).
    tag "III1": m <= val(a), m < val(b); d pinned below m.

    The stated normalizations are guaranteed over rings of length <= 2;
    over longer rings a normalization step is skipped whenever it would
    leave the shape, keeping the result deterministic and conjugate to
    the input.
    """

    tag: str
    m: int
    a: RingElem
    b: RingElem
    c: RingElem
    d: RingElem

    @property
    def ctx(self) -> RingCtx:
        return self.a.ctx

    def rebuild(self) -> Mat:
        return e_matrix(self.ctx, self.m, self.a, self.b, self.c, self.d)

    def to_json(self) -> dict:
        return {
            "type": self.tag,
            "m": self.m,
            "a": self.a.val,
            "b": self.b.val,
            "c": self.c.val,
            "d": self.d.val,
        }


def _lower_step(ctx: RingCtx, m: int, x: int) -> Mat:
    """[[1,0,0],[x,1,0],[x^2 pi^m, 2x pi^m, 1]]; preserves the shape."""
    pim = ctx.pi_pow_raw(m)
    x2 = ctx.mul_raw(x, x)
    two_x = ctx.add_raw(x, x)
    return Mat(ctx, 3, [1, 0, 0, x, 1, 0, ctx.mul_raw(x2, pim), ctx.mul_raw(two_x, pim), 1])


def classify_hard(e: EParams):
    """Normalize a pi-power shape; returns (HardForm, X).

    X conjugates the rebuilt input onto the rebuilt form.  See HardForm
    for the per-type normalizations and their depth guarantees.
    """
    ctx = e.ctx
    length = ctx.length
    gamma = e.rebuild()
    x_total = identity(ctx, 3)
    cur = e
    va, vb = e.a.valuation(), e.b.valuation()
    m = e.m

    def try_step(x: Mat) -> bool:
        nonlocal gamma, x_total, cur
        nxt = gamma.conjugate_by(x)
        got = as_e_params(nxt)
        if got is None:
            return False
        gamma, cur = nxt, got
        x_total = x @ x_total
        return True

    if vb <= m and vb <= va:
        if vb >= length:  # then m = va = length too: nothing but the J shape
            return HardForm("I", length, e.a, e.b, e.c, e.d), x_total
        # first eliminate a: each step multiplies b by a unit mod higher
        # valuation and strictly raises val(a), so it ends within length
        # steps; a step that does not is a stall and raises
        while cur.a:
            _, ub = cur.b.unit_split()
            x = ctx.mul_raw(ctx.div_pi_raw(cur.a.val, vb), ctx.inv_raw(ub.val))
            old = cur.a.valuation()
            if not try_step(_lower_step(ctx, cur.m, x)) or cur.a.valuation() <= old:
                raise VerificationFailed("a elimination stalled")
        if cur.m > vb:
            # with a = 0 the triangular basis change f1 = (pi^(m-vb)-1)e1,
            # f2 = e2 - c*lam*e1, f3 = lam*e1 + e3 (lam = unit part of b,
            # inverted) lowers the slot exponent to val(b) exactly, fixing
            # a = 0 and b, c, d on the nose
            _, ub = cur.b.unit_split()
            lam = ctx.inv_raw(ub.val)
            mu_inv = ctx.inv_raw(ctx.sub_raw(ctx.pi_pow_raw(cur.m - vb), 1))
            x = Mat(
                ctx,
                3,
                [
                    mu_inv,
                    ctx.mul_raw(mu_inv, ctx.mul_raw(cur.c.val, lam)),
                    ctx.neg_raw(ctx.mul_raw(mu_inv, lam)),
                    0, 1, 0,
                    0, 0, 1,
                ],
            )
            if not try_step(x) or cur.m != vb or cur.a:
                raise VerificationFailed("slot exponent lowering failed")
        return HardForm("II", cur.m, cur.a, cur.b, cur.c, cur.d), x_total

    if va < m and va < vb:
        if cur.m >= length and cur.a:
            # slot is zero, so a single diagonal scaling strips the unit
            ta, ua = cur.a.unit_split()
            if not try_step(diag(ctx, [ua, 1, 1])) or cur.a.val != ctx.pi_pow_raw(ta):
                raise VerificationFailed("scaling a to a pi power failed")
        ta = cur.a.valuation()
        for s in range(length - 1, ta - 1, -1):
            delta = cur.d.digits()[s]
            if delta == 0:
                continue
            _, ua = cur.a.unit_split()
            v = ctx.neg_raw(
                ctx.mul_raw(ctx.mul_raw(delta, ctx.pi_pow_raw(s - ta)), ctx.inv_raw(ua.val))
            )
            v2a = ctx.mul_raw(ctx.mul_raw(v, v), cur.a.val)
            vc = ctx.mul_raw(v, cur.c.val)
            va_ = ctx.mul_raw(v, cur.a.val)
            h = Mat(ctx, 3, [1, ctx.sub_raw(v2a, vc), v, 0, 1, 0, 0, ctx.neg_raw(va_), 1])
            low = ctx.mod_pi_raw(cur.d.val, s)
            if not try_step(h):
                break  # would leave the shape (possible only past length 2)
            if cur.d.digits()[s] or ctx.mod_pi_raw(cur.d.val, s) != low:
                raise VerificationFailed(f"pinning digit {s} of d failed")
        return HardForm("III0", cur.m, cur.a, cur.b, cur.c, cur.d), x_total

    if m <= va and m < vb:
        for s in range(length - 1, m - 1, -1):
            delta = cur.d.digits()[s]
            if delta == 0:
                continue
            x = ctx.mul_raw(delta, ctx.pi_pow_raw(s - m))
            low = ctx.mod_pi_raw(cur.d.val, s)
            if not try_step(_lower_step(ctx, cur.m, x)):
                break
            if cur.d.digits()[s] or ctx.mod_pi_raw(cur.d.val, s) != low:
                raise VerificationFailed(f"pinning digit {s} of d failed")
        return HardForm("III1", cur.m, cur.a, cur.b, cur.c, cur.d), x_total

    raise NotHardCase(f"m={m}, val(a)={va}, val(b)={vb} fit no type")  # unreachable


def _bucket_shapes(tctx: RingCtx, key: tuple) -> list:
    """Sweep positions (m, a, b, c, d) of the pi-power shapes whose
    characteristic polynomial is key, in sweep order.

    With E = d*I + N and N = [[0, pi^m, 0], [0, 0, 1], [a, b, c]], N has
    companion coefficients (pi^m*a, b, c), and substituting x - d gives
    c = k2 - 3d, b = k1 + 2*k2*d - 3d^2 and
    pi^m*a = k0 + k1*d + k2*d^2 - d^3 for key = (k0, k1, k2).  So each d
    fixes b and c, and the (m, a) pairs solve one equation: multiplying
    by pi^m shifts the packed digits up by m in both flavors, so a is
    that product shifted back down plus any value in the top m digits.
    """
    k0, k1, k2 = key
    p, length, card = tctx.p, tctx.length, tctx.cardinality
    add, sub, mul = tctx.add_raw, tctx.sub_raw, tctx.mul_raw
    shapes = []
    for d in range(card):
        d3 = add(d, add(d, d))
        c = sub(k2, d3)
        b = sub(add(k1, mul(add(k2, k2), d)), mul(d3, d))
        if c % p or b % p:
            continue
        dd = mul(d, d)
        t = sub(add(k0, add(mul(k1, d), mul(k2, dd))), mul(dd, d))
        for m in range(1, length):
            if t % p ** (m + 1):
                break  # val(t) <= m leaves no non-unit a with pi^m*a = t
            top = p ** (length - m)
            shapes.extend((m, t // p**m + top * k, b, c, d) for k in range(p**m))
        if t == 0:  # the slot is zero, so every non-unit a fits
            shapes.extend((length, a, b, c, d) for a in range(0, card, p))
    shapes.sort()
    return shapes


def _signature(a: Mat) -> tuple:
    """Sorted Smith exponents of X -> aX - Xa and X -> a^2 X - X a^2.

    Conjugating a by g conjugates both maps by the invertible map
    X -> gXg^-1, so similar matrices have equal signatures.
    """
    a2 = a @ a
    return tuple(
        tuple(sorted(_diagonalize(a.ctx, build_intertwiner_matrix(b, b)))) for b in (a, a2)
    )


@lru_cache(maxsize=None)
def _hard_bucket(tctx: RingCtx, key: tuple) -> tuple:
    """Hard-body classes over tctx with characteristic polynomial key.

    Returns (sweep position, form, (rebuilt form, signature)) per class,
    ordered by position.  Every class with a one-eigenvalue non-cyclic
    residue contains a pi-power shape, so normalizing each shape of the
    key and deduplicating the forms finds every class.  Normalization
    alone can leave one class as several forms at length >= 3, so
    similar forms are merged, keeping the first in sweep order; classes
    only merge within one characteristic polynomial, so the bucket is
    complete.  A form is tested only against kept forms of its own
    signature: the kept forms are pairwise non-similar, so this finds
    the same unique match, if any, as testing against all of them.
    """
    seen = {}
    for pos in _bucket_shapes(tctx, key):
        m, *vals = pos
        form, _ = classify_hard(EParams(tctx, m, *(RingElem(tctx, v) for v in vals)))
        seen.setdefault(form, pos)
    entries, kept = [], {}
    for form, pos in seen.items():
        rb = form.rebuild()
        sig = _signature(rb)
        same = kept.setdefault(sig, [])
        if not any(is_similar(rep, rb)[0] for rep in same):
            same.append(rb)
            entries.append((pos, form, (rb, sig)))
    return tuple(entries)


def hard_family(tctx: RingCtx) -> tuple:
    """One normalized form per hard-body class over tctx.

    The union of every characteristic-polynomial bucket, ordered by each
    form's first position in the sweep over (m, a, b, c, d).  A shape
    reduces to d*I plus a nilpotent mod pi, so only keys congruent to the
    coefficients of (x - d)^3 mod pi can hold one.
    """
    p, card = tctx.p, tctx.cardinality
    entries = []
    for d in range(p):
        r0, r1, r2 = d**3 % p, -3 * d * d % p, 3 * d % p
        for key in product(range(r0, card, p), range(r1, card, p), range(r2, card, p)):
            entries.extend(_hard_bucket(tctx, key))
    entries.sort(key=lambda e: e[0])
    return tuple(form for _, form, _ in entries)


def hard_class_rep(h: HardForm) -> tuple:
    """(transversal form of h's class, conjugator onto its rebuild).

    Builds and searches only the bucket of h's characteristic polynomial,
    testing similarity only against forms with h's signature.
    """
    rb = h.rebuild()
    bucket = _hard_bucket(h.ctx, tuple(x.val for x in rb.charpoly()))
    if any(form == h for _, form, _ in bucket):
        return h, identity(h.ctx, 3)
    sig = _signature(rb)
    for _, form, (rep, rep_sig) in bucket:
        if rep_sig != sig:
            continue
        ok, x = is_similar(rb, rep)
        if ok:
            # rb X = X rep, so X^-1 rb X is the representative
            return form, x.inverse()
    raise VerificationFailed(f"hard class of {h} missing from its bucket")


# ----------------------------------------------------------------------
# full 3x3 canonical forms


@dataclass(frozen=True)
class ScalarBody:
    pass


@dataclass(frozen=True)
class CyclicBody:
    coeffs: tuple  # characteristic polynomial in companion convention


@dataclass(frozen=True)
class SplitBody:
    a: RingElem
    inner: CanonicalForm2


@dataclass(frozen=True)
class HardBody:
    form: HardForm


@dataclass(frozen=True)
class CanonicalForm3:
    """Complete class descriptor (level, d, body); see module docstring
    for the depth guarantees of hard bodies."""

    ctx: RingCtx
    level: int
    d: Section
    body: object
    witness: Mat = field(compare=False, repr=False, default=None)

    def body_matrix(self) -> Mat | None:
        b = self.body
        if isinstance(b, ScalarBody):
            return None
        tctx = self.ctx.truncated(self.ctx.length - self.level)
        if isinstance(b, CyclicBody):
            return companion(tctx, b.coeffs)
        if isinstance(b, SplitBody):
            return block_diag(tctx, [b.a, b.inner.rebuild()])
        return b.form.rebuild()

    def rebuild(self) -> Mat:
        return recombine(self.ctx, self.level, self.d, self.body_matrix(), 3)

    def to_json(self) -> dict:
        b = self.body
        if isinstance(b, ScalarBody):
            body = {"kind": "scalar"}
        elif isinstance(b, CyclicBody):
            body = {"kind": "cyclic", "coeffs": [c.val for c in b.coeffs]}
        elif isinstance(b, SplitBody):
            body = {"kind": "split", "a": b.a.val, "inner": b.inner.to_json()}
        else:
            body = {"kind": "hard", **b.form.to_json()}
        out = {"ring": self.ctx.descriptor, "j": self.level, "d": self.d.value.val, "body": body}
        if self.witness is not None:
            out["witness"] = self.witness.rows()
        return out


def canon3(alpha: Mat) -> CanonicalForm3:
    if alpha.n != 3:
        raise BadParams("canon3 expects a 3x3 matrix")
    ctx = alpha.ctx
    sp = split_scalar(alpha)
    if sp.level == ctx.length:
        form = CanonicalForm3(ctx, sp.level, sp.d, ScalarBody(), identity(ctx, 3))
        if form.rebuild() != alpha:
            raise VerificationFailed("canon3 scalar form does not rebuild its input")
        return form
    beta = sp.beta
    tctx = beta.ctx
    rt = residue_type(beta)
    if rt.kind == "cyclic":
        x = _cyclic_row_witness(beta)
        body = CyclicBody(beta.charpoly())
        if beta.conjugate_by(x) != companion(tctx, body.coeffs):
            raise VerificationFailed("cyclic row witness does not reach the companion form")
    elif rt.kind == "split":
        a, block, x1 = hensel_block_split(beta)
        inner, inner_wit = canon2(block)
        x = block_diag(tctx, [1, inner_wit]) @ x1
        body = SplitBody(a, inner)
    else:
        e, x1 = reduce_to_e_form(beta)
        hard, x2 = classify_hard(e)
        rep, x3 = hard_class_rep(hard)
        x = x3 @ x2 @ x1
        body = HardBody(rep)
    witness = x.lift(ctx.length)
    form = CanonicalForm3(ctx, sp.level, sp.d, body, witness)
    if alpha.conjugate_by(witness) != form.rebuild():
        raise VerificationFailed("canon3 witness check failed")
    return form


@dataclass(frozen=True)
class CentralizerShape:
    """Centralizer order of a pi-power shape: (q-1)^unit_rank * q^affine_dim."""

    unit_rank: int
    affine_dim: int

    def order(self, q: int) -> int:
        return (q - 1) ** self.unit_rank * q**self.affine_dim


def centralizer_shape(f, i: int | None = None) -> CentralizerShape:
    """Shape from (m, val(a), val(b)) alone; f is an EParams or HardForm
    over the length-i ring (i defaults to that length)."""
    if i is None:
        i = f.a.ctx.length
    va, vb = f.a.valuation(), f.b.valuation()
    if vb <= f.m and vb <= va:
        return CentralizerShape(2, 3 * i + 2 * vb - 2)
    return CentralizerShape(1, 3 * i + 2 * min(f.m, va) - 1)
