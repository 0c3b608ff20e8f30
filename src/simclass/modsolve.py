"""Similarity decisions and centralizer orders read off canonical forms.

Two 2x2 or 3x3 matrices are similar iff their canonical forms, the
CanonicalForm of canon2 or canon3, are equal.  Each form carries its
witness W with W alpha W^-1 = C, so equal forms give the similarity
witness X = W_1^-1 W_2, which is checked exactly.

Centralizer orders come from the form alpha = d + pi^j beta, with beta
over A_i and i = l - j.  X commutes with alpha iff X mod pi^i commutes
with beta, and a lift of a unit is a unit, so
|C(alpha)| = q^(n^2 j) |C(beta)|, and the body term depends on the
residue type of beta:

- cyclic: the centralizer is A_i[beta] = A_i[x]/(f), whose units number
  q^(n i) prod (1 - q^-deg g) over the distinct irreducible factors g
  of f mod pi;
- split: diag(a) ++ B commutes only with block diagonal matrices, so
  |C| = |A_i^*| |C_GL2(B)|;
- hard: a function of (m, val(a), val(b)) alone, read over the body's
  ring A_i: (q-1)^2 q^(3i + 2 val(b) - 2) for types I and II, and
  (q-1) q^(3i + 2 min(m, val(a)) - 1) for types III0 and III1.

As the order of a subgroup it must divide |GL_n(A)|, which is checked.
"""

from __future__ import annotations

from .canon2 import CyclicBody
from .canon3 import SplitBody, canon
from .errors import CtxMismatch, VerificationFailed
from .matrix import Mat, _check_size, identity
from .ring import RingCtx

__all__ = ["group_order", "is_similar", "centralizer_order"]


def group_order(ctx: RingCtx, n: int) -> int:
    """Order of the invertible n x n matrices over ctx, for n the int 2
    or 3; any other n raises BadParams."""
    _check_size(n)
    q, length = ctx.q, ctx.length
    out = q ** ((length - 1) * n * n)
    for k in range(n):
        out *= q**n - q**k
    return out


def is_similar(a1: Mat, a2: Mat):
    """Exact similarity decision with witness.

    Returns (True, X) with alpha_1 X = X alpha_2 and X a unit, or
    (False, None).  Equal matrices, scalar matrices (similar only to
    themselves) and different characteristic polynomials are decided
    before any canonical form is computed.
    """
    if a1.ctx != a2.ctx or a1.n != a2.n:
        raise CtxMismatch("the two matrices need matching ring and size")
    if a1 == a2:
        return True, identity(a1.ctx, a1.n)
    if a1.is_scalar() or a2.is_scalar() or a1.charpoly() != a2.charpoly():
        return False, None
    f1, f2 = canon(a1), canon(a2)
    if f1 != f2:
        return False, None
    x = f1.witness.inverse() @ f2.witness  # X alpha_2 X^-1 = alpha_1
    if not x.conjugates(a2, a1):
        raise VerificationFailed("similarity witness fails alpha_1 X = X alpha_2")
    return True, x


# polynomials over the residue field F_q, the context res = ctx.truncated(1),
# are lists of its packed values, leading coefficient first


def _poly_divmod(a: list, f: list, res: RingCtx) -> tuple:
    """(quotient, remainder) of a by monic f over res."""
    sub, mul = res.sub_raw, res.mul_raw
    a, quot = list(a), []
    while len(a) >= len(f):
        c = a.pop(0)
        quot.append(c)
        for k in range(len(f) - 1):
            a[k] = sub(a[k], mul(c, f[k + 1]))
    while a and not a[0]:
        a.pop(0)
    return quot, a


def _poly_gcd(a: list, b: list, res: RingCtx) -> list:
    """Monic gcd of a and b over res."""
    while b:
        inv = res.inv_raw(b[0])
        b = [res.mul_raw(c, inv) for c in b]
        a, b = b, _poly_divmod(a, b, res)[1]
    return a


def _poly_mul(a: list, b: list, res: RingCtx) -> list:
    """Product of a and b over res."""
    add, mul = res.add_raw, res.mul_raw
    out = [0] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            out[s + t] = add(out[s + t], mul(x, y))
    return out


def _cyclic_units(res: RingCtx, i: int, f: list) -> int:
    """Units of A_i[x]/(F), from the residue f = F mod pi, monic over the
    residue field res = F_q.

    f has degree n <= 3, leading coefficient first.  Its distinct roots
    in F_q are those of gcd(f, x^q - x), with x^q mod f computed by
    square-and-multiply, so the cost is O(log q).  Dividing them out
    once per multiplicity leaves a factor of degree 0, 2 or 3 with no
    root, which is one irreducible factor (or none).
    """
    n, q = len(f) - 1, res.q
    xq = [1]
    for bit in bin(q)[2:]:
        xq = _poly_divmod(_poly_mul(xq, xq, res), f, res)[1]
        if bit == "1":
            xq = _poly_divmod(xq + [0], f, res)[1]
    xq = [0] * (2 - len(xq)) + xq  # x^q - x, as deg f >= 2
    xq[-2] = res.sub_raw(xq[-2], 1)
    while xq and not xq[0]:
        xq.pop(0)
    roots = _poly_gcd(f, xq, res)
    k = len(roots) - 1  # distinct roots
    while len(roots) > 1:
        f = _poly_divmod(f, roots, res)[0]
        roots = _poly_gcd(f, roots, res)
    deg = len(f) - 1  # of the factor with no root: irreducible, or none
    return q ** (n * i - k - deg) * (q - 1) ** k * (q**deg - 1 if deg else 1)


def _residue_poly(coeffs, ctx: RingCtx) -> list:
    """x^n - sum a_k x^k mod pi over the residue field of ctx, from
    companion coeffs (a_0, ..., a_{n-1}) over ctx."""
    neg = ctx.truncated(1).neg_raw
    return [1] + [neg(ctx.mod_pi_raw(c, 1)) for c in reversed(coeffs)]


def _form_order(form) -> int:
    """|C_GL_n(form.rebuild())| from a CanonicalForm."""
    ctx, n = form.ctx, form.n
    q, j = ctx.q, form.level
    i = ctx.length - j
    if i == 0:
        return group_order(ctx, n)
    b = form.body
    if isinstance(b, CyclicBody):
        units = _cyclic_units(ctx.truncated(1), i, _residue_poly(b.coeffs, ctx))
    elif isinstance(b, SplitBody):
        units = (q - 1) * q ** (i - 1) * _form_order(b.inner)
    elif b.tag in ("I", "II"):  # a hard body: valuations over its ring b.ctx = A_i
        units = (q - 1) ** 2 * q ** (3 * i + 2 * b.ctx.val_raw(b.b) - 2)
    else:
        units = (q - 1) * q ** (3 * i + 2 * min(b.m, b.ctx.val_raw(b.a)) - 1)
    return q ** (n * n * j) * units


def centralizer_order(a: Mat) -> int:
    """|{X in GL_n(A) : Xa = aX}| from the canonical form of a."""
    ctx, n = a.ctx, a.n
    order = _form_order(canon(a))
    if not order or group_order(ctx, n) % order:
        raise VerificationFailed(f"centralizer order {order} does not divide |GL_{n}|")
    return order
