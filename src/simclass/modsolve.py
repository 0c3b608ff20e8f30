"""Similarity decisions and centralizer orders read off canonical forms.

Two n x n matrices (n <= 3) are similar iff their canonical forms are
equal: equality for n = 1, canon2 for n = 2, canon3 for n = 3.  The
forms carry witnesses W with W alpha W^-1 = C, so equal forms give the
similarity witness X = W_1^-1 W_2, which is checked exactly.

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
- hard: the pi-power shape's CentralizerShape.

As the order of a subgroup it must divide |GL_n(A)|, which is checked.
"""

from __future__ import annotations

from .canon2 import canon2
from .canon3 import CyclicBody, SplitBody, canon3, centralizer_shape
from .errors import CtxMismatch, VerificationFailed
from .matrix import Mat, identity
from .ring import RingCtx

__all__ = ["group_order", "is_similar", "centralizer_order"]


def group_order(ctx: RingCtx, n: int) -> int:
    """Order of the invertible n x n matrices over ctx."""
    p, length = ctx.p, ctx.length
    out = p ** ((length - 1) * n * n)
    for k in range(n):
        out *= p**n - p**k
    return out


def _form(m: Mat) -> tuple:
    """(canonical form, witness W with W m W^-1 = the rebuilt form), n >= 2."""
    if m.n == 2:
        return canon2(m)
    form = canon3(m)
    return form, form.witness


def is_similar(a1: Mat, a2: Mat):
    """Exact similarity decision with witness.

    Returns (True, X) with alpha_1 X = X alpha_2 and X a unit, or
    (False, None).  Equal matrices, scalar matrices (similar only to
    themselves; every 1x1 matrix is one) and different characteristic
    polynomials are decided before any canonical form is computed.
    """
    if a1.ctx != a2.ctx or a1.n != a2.n:
        raise CtxMismatch("the two matrices need matching ring and size")
    if a1 == a2:
        return True, identity(a1.ctx, a1.n)
    if a1.is_scalar() or a2.is_scalar() or a1.charpoly() != a2.charpoly():
        return False, None
    (f1, w1), (f2, w2) = _form(a1), _form(a2)
    if f1 != f2:
        return False, None
    x = w1.inverse() @ w2  # X alpha_2 X^-1 = alpha_1
    if not x.conjugates(a2, a1):
        raise VerificationFailed("similarity witness fails alpha_1 X = X alpha_2")
    return True, x


def _divide_root(f: list, r: int, q: int) -> tuple:
    """(quotient, remainder) of f by x - r over F_q, leading coefficient first."""
    quot = [f[0]]
    for c in f[1:]:
        quot.append((c + r * quot[-1]) % q)
    rem = quot.pop()
    return quot, rem


def _cyclic_units(q: int, i: int, coeffs) -> int:
    """Units of A_i[x]/(f), f = x^n - sum a_k x^k from companion coeffs.

    f mod pi has degree n <= 3; each root found by scanning the residue
    field is a distinct linear factor, and what is left once the roots
    are divided out has degree 0, 2 or 3 and no root, so it is one
    irreducible factor (or none).
    """
    n = len(coeffs)
    f = [1] + [-c.val % q for c in reversed(coeffs)]  # residue of each coefficient
    units = q ** (n * i)
    for r in range(q):
        root = False
        while len(f) > 1:
            quot, rem = _divide_root(f, r, q)
            if rem:
                break
            f, root = quot, True
        if root:
            units = units // q * (q - 1)
    deg = len(f) - 1
    if deg:
        units = units // q**deg * (q**deg - 1)
    return units


def _form_order(form, n: int) -> int:
    """|C_GL_n(form.rebuild())| from a CanonicalForm2 (n = 2) or 3 (n = 3)."""
    ctx = form.ctx
    q, j = ctx.q, form.level
    i = ctx.length - j
    if i == 0:
        return group_order(ctx, n)
    if n == 2:
        body = _cyclic_units(q, i, (form.c, form.e))
    elif isinstance(form.body, CyclicBody):
        body = _cyclic_units(q, i, form.body.coeffs)
    elif isinstance(form.body, SplitBody):
        body = (q - 1) * q ** (i - 1) * _form_order(form.body.inner, 2)
    else:
        body = centralizer_shape(form.body.form).order(q)
    return q ** (n * n * j) * body


def centralizer_order(a: Mat) -> int:
    """|{X in GL_n(A) : Xa = aX}| from the canonical form of a."""
    ctx, n = a.ctx, a.n
    order = group_order(ctx, 1) if n == 1 else _form_order(_form(a)[0], n)
    if not order or group_order(ctx, n) % order:
        raise VerificationFailed(f"centralizer order {order} does not divide |GL_{n}|")
    return order
