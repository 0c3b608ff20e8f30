"""Canonical forms of 3x3 matrices over a chain ring.

canon3 returns the CanonicalForm of canon2's module, and shares its
scalar and cyclic branches (canon2._canonical_form).  After the scalar
split alpha = d*I + pi^j * beta the residue of beta is non-scalar.
canon3 reads its type once, off the minimal polynomial of the residue
(see _residue_type), and takes one of three exact reductions over the
length-(l-j) ring.  The residue field algebra they need is closed-form,
with no elimination: the minimal polynomial comes off one entry and is
checked on all nine, and an eigenspace basis is a row of an adjugate or
is read off one column (see _left_kernel).

- cyclic residue (minimal polynomial of the residue has degree 3):
  the shared cyclic branch; the coefficient triple of the
  characteristic polynomial is a complete invariant at every length.
- split residue (diagonalizable with eigenvalues a, b, b and a != b):
  a is a simple root of the residue characteristic polynomial, so it
  lifts by Newton's method to a root a of f = (x - a) g over the ring,
  and the projector g(beta) g(a)^-1 splits off a 1x1 block lifting a
  from a 2x2 block lifting b in closed form, every row of the witness
  from one product K g(beta), K the residue eigenvectors (_block_split);
  the block is finished by canon2.  Again a complete invariant at every
  length.
- jtype residue (one eigenvalue, minimal polynomial of degree 2):
  beta is conjugated onto the pi-power shape HardBody by five steps,
  each one row and one column operation on entries (_e_form), and then
  normalized type by type (_classify_hard).  Types I, II and III1
  are normalized by steps that move the parameters (m, a, b, c, d) of
  the shape by closed formulas (see _lower); the step matrices are
  built for the witness only, which is checked exactly.  Type III0 goes
  through the transpose: E^T is conjugate to the shape swap(E) (see
  _swap), which is of type III1, and A ~ B iff A^T ~ B^T, so the III0
  form of E is the swap of swap(E)'s III1 form.  The normal form is the
  class representative itself: no similarity solver is consulted, and
  hard_family builds the forms of a ring directly from the type
  conditions, one candidate per form.  The normal form is itself the
  body, a HardBody.

Each body lays out the values of its matrix once, in its vals method:
a beside the inner 2x2 values for SplitBody (_split_vals, which the
enumeration stream calls too), the pi-power shape of e_matrix for
HardBody.  CanonicalForm.rebuild places them as d*I + pi^level * B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .canon2 import (
    CanonicalForm,
    _canonical_form,
    _cyclic_body,
    canon2,
)
from .errors import BadParams, VerificationFailed
from .matrix import Mat, e_matrix, identity, scalar
from .ring import RingCtx

__all__ = [
    "hard_family",
    "SplitBody",
    "HardBody",
    "canon3",
]


# ----------------------------------------------------------------------
# residue field linear algebra (the residue context's ops, no elimination)


def _left_kernel(m: Mat) -> list:
    """Basis of {w : w m = 0} for a 3x3 m of rank 1 or 2 over a residue
    field: the basis that the reduced row echelon form of m^T gives,
    one vector per free column f, with 1 at f.

    Rank 2: the kernel is a line, and adj(m) m = det(m) I = 0 puts every
    row of adj(m) on it, while adj(m) != 0.  The echelon vector is a
    nonzero row scaled so its last nonzero entry is 1.  Rank 1: every
    column is a multiple of one nonzero column c, so w m = 0 iff
    w . c = 0.  With c0 the first nonzero entry of c (the one pivot of
    the echelon form), the basis is e_f - (c_f / c_c0) e_c0 for each
    f != c0, in order.  Its callers pass only these ranks: the eigenspace
    matrices of split and jtype residues.
    """
    ctx, v = m.ctx, m.vals
    mul = ctx.mul_raw
    adj = m.adjugate().vals
    row = next((adj[i : i + 3] for i in (0, 3, 6) if any(adj[i : i + 3])), None)
    if row is not None:
        scale = ctx.inv_raw(next(x for x in reversed(row) if x))
        return [tuple(mul(x, scale) for x in row)]
    col = next(v[j::3] for j in range(3) if any(v[j::3]))
    c0 = next(i for i in range(3) if col[i])
    scale = ctx.inv_raw(col[c0])
    basis = []
    for f in range(3):
        if f != c0:
            w = [0, 0, 0]
            w[f], w[c0] = 1, ctx.neg_raw(mul(col[f], scale))
            basis.append(tuple(w))
    return basis


# ----------------------------------------------------------------------
# residue classification


def _residue_type(m: Mat) -> tuple:
    """Type of the residue of the 3x3 matrix m, with its eigenvalues.

    One of ("scalar", s), ("cyclic",), ("split", single, double) with
    single != double, or ("jtype", d); eigenvalues are residues, packed
    values of the residue context.
    The residue r is cyclic unless r^2 = s r + t I for some s and t,
    which are then unique, as r is not a multiple of I.  So s is read off
    one entry where r is not: off the diagonal r2_ij = s r_ij, on it
    r2_ii - r2_00 = s (r_ii - r_00).  Then t = r2_00 - s r_00, and r is
    cyclic iff one of the nine entries breaks r^2 = s r + t I.
    Otherwise the minimal polynomial x^2 - s x - t splits, since an
    irreducible quadratic minimal polynomial is impossible in odd
    dimension, and the root that the characteristic polynomial doubles
    is read off the trace single + 2 double: double = tr - s and
    single = s - double.  So the eigenvalues cost no search over the
    residue field.
    """
    r = m.residue()
    if r.is_scalar():
        return "scalar", r.raw(0, 0)
    sub, mul = r.ctx.sub_raw, r.ctx.mul_raw
    v, r2 = r.vals, (r @ r).vals
    # the entries of r - r_00 I beside those of r^2 - r2_00 I (k % 4 == 0
    # on the diagonal); with them r^2 = s r + t I reads y = s x entrywise
    pairs = [
        (sub(x, v[0]), sub(y, r2[0])) if k % 4 == 0 else (x, y)
        for k, (x, y) in enumerate(zip(v, r2))
    ]
    x, y = next((x, y) for x, y in pairs if x)
    s = mul(y, r.ctx.inv_raw(x))
    t = sub(r2[0], mul(s, v[0]))
    if any(y != mul(s, x) for x, y in pairs):
        return ("cyclic",)
    double = sub(r.trace(), s)
    single = sub(s, double)
    if mul(double, sub(double, s)) != t:
        raise VerificationFailed(f"residue minimal polynomial x^2 - {s}x - {t} fits no shape")
    return ("jtype", double) if single == double else ("split", single, double)


# ----------------------------------------------------------------------
# split residue: exact 1+2 block refinement


def _block_split(beta: Mat, res: Mat, abar: int, bbar: int):
    """Exact block refinement of a matrix whose residue res is split,
    with eigenvalue abar once and bbar twice (see _residue_type).

    Returns (a, B, X) with X beta X^{-1} = diag(a) ++ B; a lifts abar,
    B is 2x2 with both residue eigenvalues equal to bbar.  abar is a
    simple root of the residue of the characteristic polynomial f, so by
    Hensel's lemma f = (x - a) g over the ring, with g(a) a unit, and
    E = g(beta) g(a)^{-1} projects rows onto the left a-eigenline along
    the row space of beta - a.  With k_a, k_b1, k_b2 the residue
    eigenvectors, the rows of K = [k_a; k_b1; k_b2], one product K g(beta)
    gives every row of X: row 1 is the a-eigenvector k_a g(beta), scaled
    to k_a coordinate 1 in the basis K (its dot product with column 0 of
    K^{-1}), and rows 2 and 3 are k_bi - k_bi E, which span the
    invariant complement.
    """
    ctx = beta.ctx
    add, sub, mul = ctx.add_raw, ctx.sub_raw, ctx.mul_raw
    c0, c1, c2 = beta.charpoly()
    # Newton lift of abar to the root a of f = x^3 - c2 x^2 - c1 x - c0.
    # f = (x - a)(x^2 + g1 x + g0) + f(a), so f'(a) = g(a); the last pass
    # finds f(a) = 0 and leaves g1, g0 and g(a)^-1 those of the root
    a = abar
    for _ in range(ctx.length.bit_length() + 1):
        g1 = sub(a, c2)
        g0 = sub(mul(a, g1), c1)
        ga_inv = ctx.inv_raw(add(mul(a, add(a, g1)), g0))
        a = sub(a, mul(sub(mul(a, g0), c0), ga_inv))

    g_beta = beta @ (beta + scalar(ctx, 3, g1)) + scalar(ctx, 3, g0)
    ka = _left_kernel(res - scalar(res.ctx, 3, abar))[0]
    kb = _left_kernel(res - scalar(res.ctx, 3, bbar))
    # residue digits are packed values of ctx
    k = Mat._unchecked(ctx, 3, ka + kb[0] + kb[1])
    kg = (k @ g_beta).vals
    s = ctx.inv_raw(reduce(add, map(mul, kg[:3], k.inverse().vals[0::3])))
    rows = [mul(s, x) for x in kg[:3]]
    for i, kbi in enumerate(kb, 1):
        rows += [sub(x, mul(y, ga_inv)) for x, y in zip(kbi, kg[3 * i : 3 * i + 3])]
    x_total = Mat._unchecked(ctx, 3, rows)
    gamma = beta.conjugate_by(x_total)
    a = gamma.raw(0, 0)
    b = Mat._unchecked(ctx, 2, [gamma.raw(1, 1), gamma.raw(1, 2), gamma.raw(2, 1), gamma.raw(2, 2)])
    if ctx.mod_pi_raw(a, 1) != abar:
        raise VerificationFailed("block split lifted the wrong residue eigenvalue")
    return a, b, x_total


# ----------------------------------------------------------------------
# jtype residue: reduction to the pi-power shape


@dataclass(slots=True, unsafe_hash=True)
class HardBody:
    """The pi-power shape [[d, pi^m, 0], [0, d, 1], [a, b, c+d]] over ctx,
    the body's ring (see matrix.e_matrix).

    a, b, c and d are packed values of ctx, a, b and c lie in the
    maximal ideal, and 1 <= m <= length, with m = length exactly when the
    (1,2) slot is zero.  The type tag is read off (m, val(a), val(b)),
    and _normalize_hard takes each type to its normal form on these five
    parameters alone, each step by its closed formula (see _lower).
    The normal form has:

    tag "I":    val(b) = length, so m = val(a) = length too: a = b = 0
                and the slot is zero (pure J shape).
    tag "II":   val(b) <= min(m, val(a)); normalized to m = val(b), a = 0.
    tag "III0": val(a) < min(m, val(b)); the swap (see _swap) of the
                III1 form of the swapped shape, so d is pinned below
                val(a), and a is an exact pi power when the slot is zero.
    tag "III1": m <= val(a), m < val(b); d pinned below m.

    Distinct normal forms are distinct classes at every length, so the
    normal form is the class representative.  Certificates: hard_family
    generates the forms from the type conditions above and checks that
    each is a fixed point of the normalization; enumerate3, which emits
    hard_family, checks on every run that it emits count3 classes
    (tests run it on z:2:6, t:5:3, z:2:5, t:2:5, z:3:3 and t:3:3 and
    below, and on z:5:3); the tests find the same forms as a sweep of
    every pi-power shape merged by their reference similarity solver,
    up to z:3:3 and t:2:4; the orbit census agrees with count3 on z:2:3
    and t:2:3; and the oracle confirms the III0 pairs over z:2:3 that
    the normal forms before the swap left apart.

    Slotted and immutable by convention (see canon2.CanonicalForm): the
    checks of __post_init__ run on every construction, dataclasses.replace
    included, and nothing assigns to a field afterwards.
    """

    ctx: RingCtx
    m: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        ctx = self.ctx
        if type(self.m) is not int or not 1 <= self.m <= ctx.length:
            raise BadParams(f"slot exponent {self.m!r} is not an integer in [1, {ctx.length}]")
        for name, v in zip("abcd", (self.a, self.b, self.c, self.d)):
            if type(v) is not int or not 0 <= v < ctx.cardinality:
                raise BadParams(f"{name} = {v!r} is not a packed value of {ctx.descriptor}")
            if name != "d" and ctx.is_unit_raw(v):
                raise BadParams(f"{name} must be a non-unit over {ctx.descriptor}")

    @property
    def tag(self) -> str:
        ctx = self.ctx
        va, vb = ctx.val_raw(self.a), ctx.val_raw(self.b)
        if vb <= min(self.m, va):
            return "I" if vb >= ctx.length else "II"
        return "III0" if va < self.m else "III1"

    def rebuild(self) -> Mat:
        return e_matrix(self.ctx, self.m, self.a, self.b, self.c, self.d)

    def vals(self, n: int) -> tuple:
        return self.rebuild().vals

    def to_json(self) -> dict:
        return {
            "kind": "hard",
            "type": self.tag,
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
        }


def _as_hard_form(m: Mat) -> HardBody | None:
    """Recognize the exact pi-power shape of HardBody; None if any entry is off."""
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
    return HardBody(ctx, t, a, b, c, d)


def _e_form(beta: Mat, res: Mat, dbar: int):
    """Conjugate a matrix whose residue res is jtype, with eigenvalue
    dbar, onto the pi-power shape.

    Returns (HardBody, X) with X beta X^{-1} equal to the rebuilt shape.
    N = res - dbar I has N^2 = 0 and rank 1.  The first X has
    rows w1, w2, w3: w2 the unit row of the first nonzero row of N,
    w3 = w2 N that row, and w1 the first kernel row of N independent
    from w3.  Five steps then fix one entry of gamma = X beta X^{-1}
    each: (1,2) = 1, (0,2) = 0, (1,0) = 0, (1,1) = (0,0), then (0,1) an
    exact pi power.  Each step conjugates by a scaling or a shear Y
    whose inverse is known, and is applied on entries: one row
    operation on gamma and X (Y gamma, Y X) and one column operation on
    gamma (times Y^-1), which give the entries of the 3x3 products.
    """
    ctx = beta.ctx
    add, sub, mul = ctx.add_raw, ctx.sub_raw, ctx.mul_raw
    rmul = res.ctx.mul_raw
    nbar = res - scalar(res.ctx, 3, dbar)
    i = next(i for i in (0, 3, 6) if any(nbar.vals[i : i + 3]))
    w2 = tuple(int(j == i) for j in (0, 3, 6))
    w3 = nbar.vals[i : i + 3]
    # a kernel row independent from w3: some 2x2 minor of [w1; w3] is nonzero
    w1 = next(
        w
        for w in _left_kernel(nbar)
        if any(rmul(w[j], w3[k]) != rmul(w[k], w3[j]) for j, k in ((0, 1), (0, 2), (1, 2)))
    )
    x = Mat._unchecked(ctx, 3, w1 + w2 + w3)  # residue digits are packed values of ctx
    g = list(beta.conjugate_by(x).vals)
    x = list(x.vals)

    def scaling(k: int, u: int, u_inv: int):
        # Y = I with entry (k, k) the unit u: row k times u, column k times u^-1
        for v in (g, x):
            v[3 * k : 3 * k + 3] = [mul(u, e) for e in v[3 * k : 3 * k + 3]]
        g[k::3] = [mul(e, u_inv) for e in g[k::3]]

    def shear(r: int, q: int, c: int):
        # Y = I + c E_rq, Y^-1 = I - c E_rq: row r plus c row q, column q minus c column r
        for v in (g, x):
            row, other = v[3 * r : 3 * r + 3], v[3 * q : 3 * q + 3]
            v[3 * r : 3 * r + 3] = [add(e, mul(c, f)) for e, f in zip(row, other)]
        g[q::3] = [sub(e, mul(c, f)) for e, f in zip(g[q::3], g[r::3])]

    u = g[5]
    scaling(2, u, ctx.inv_raw(u))
    shear(0, 1, ctx.neg_raw(g[2]))
    shear(2, 0, g[3])
    shear(2, 1, sub(g[4], g[0]))
    _, u = ctx.unit_split_raw(g[1])
    scaling(0, ctx.inv_raw(u), u)
    e = _as_hard_form(Mat._unchecked(ctx, 3, g))
    if e is None:
        raise VerificationFailed("pi-power shape reduction failed")
    return e, Mat._unchecked(ctx, 3, x)


# ----------------------------------------------------------------------
# jtype normal forms


# Each normalization step moves the parameters (m, a, b, c, d) of the
# shape by a closed formula (see _lower); its matrix, built below, is
# needed for the witness alone.


def _lower(e: HardBody, x: int) -> HardBody:
    """The shape L(x) E L(-x), for E = e.rebuild() and L(x) = _lower_step(ctx, e.m, x).

    With P = pi^m, L(x) moves (m, a, b, c, d) to

        (m, a - b x + P x^2 (c + P x), b - P x (2c + 3P x), c + 3P x, d - P x),

    the Taylor shift of the characteristic polynomial by P x.  The slot
    step S = _slot_step(ctx, m - val(b), unit(b)^-1, c) takes a shape
    with a = 0 and val(b) < m to m = val(b), and fixes a, b, c and d.
    """
    ctx = e.ctx
    add, sub, mul = ctx.add_raw, ctx.sub_raw, ctx.mul_raw
    px = mul(ctx.pi_pow_raw(e.m), x)
    px3 = add(px, add(px, px))
    a = add(sub(e.a, mul(e.b, x)), mul(mul(px, x), add(e.c, px)))
    b = sub(e.b, mul(px, add(add(e.c, e.c), px3)))
    return HardBody(ctx, e.m, a, b, add(e.c, px3), sub(e.d, px))


def _lower_step(ctx: RingCtx, m: int, x: int) -> Mat:
    """L(x) = [[1,0,0],[x,1,0],[x^2 pi^m, 2x pi^m, 1]]; L(x) L(y) = L(x + y)."""
    px = ctx.mul_raw(ctx.pi_pow_raw(m), x)
    return Mat._unchecked(ctx, 3, [1, 0, 0, x, 1, 0, ctx.mul_raw(px, x), ctx.add_raw(px, px), 1])


def _slot_step(ctx: RingCtx, k: int, lam: int, c: int) -> Mat:
    """The slot-lowering triangle for k = m - val(b) >= 1 and lam = unit(b)^-1.

    Its first row is mu^-1 (1, c*lam, -lam) for the unit mu = pi^k - 1,
    and its other rows are those of the identity.
    """
    mul = ctx.mul_raw
    mu_inv = ctx.inv_raw(ctx.sub_raw(ctx.pi_pow_raw(k), 1))
    r = mul(mu_inv, lam)
    return Mat._unchecked(ctx, 3, [mu_inv, mul(r, c), ctx.neg_raw(r), 0, 1, 0, 0, 0, 1])


def _swap(e: HardBody) -> tuple:
    """(swap(E), G) for the shape E = e.rebuild().

    With E = d*I + N(m, a, b, c) and a = pi^k * w (k = length and w = 1
    when a = 0), G = [[w^-1, 0, 0], [0, 0, 1], [0, 1, c]] satisfies
    G E^T G^-1 = swap(E), the shape with m' = k, a' = pi^m * w and the
    same b, c, d.  swap maps type III0 onto type III1.
    """
    ctx = e.ctx
    k, w = ctx.unit_split_raw(e.a)
    a = ctx.mul_raw(ctx.pi_pow_raw(e.m), w)
    g = Mat._unchecked(ctx, 3, [ctx.inv_raw(w), 0, 0, 0, 0, 1, 0, 1, e.c])
    return HardBody(ctx, k, a, e.b, e.c, e.d), g


def _classify_hard(e: HardBody):
    """Normalize a pi-power shape; returns (normal form, X).

    X conjugates the rebuilt input onto the rebuilt form.  See HardBody
    for the per-type normalizations.
    """
    form, steps = _normalize_hard(e)
    x_total = identity(e.ctx, 3)
    for build, *args in steps:
        x_total = build(e.ctx, *args) @ x_total
    if form.tag == "III0":
        # the steps X' took swap(E) to swap(form), so with G_E and G_form
        # from _swap, Y = G_form ((X' G_E)^T)^-1 takes E to the form
        x_total = _swap(form)[1] @ (x_total @ _swap(e)[1]).transpose().inverse()
    return form, x_total


def _normalize_hard(e: HardBody):
    """(normal form, the steps taken, in order).

    Each step moves the parameters by its formula (see _lower) and
    builds no matrix.  A step is listed as (builder, *args), and only
    _classify_hard calls builder(ctx, *args) for the witness, which
    _canonical_form checks exactly; hard_family needs the form only.
    For type III0 the steps are those of the III1 normalization of
    swap(e).
    """
    tag = e.tag
    if tag == "III0":
        # E^T ~ swap(E), of type III1, and A ~ B iff A^T ~ B^T
        f1, steps = _normalize_hard(_swap(e)[0])
        f = _swap(f1)[0]
        if f1.tag != "III1" or f.tag != "III0":
            raise VerificationFailed(f"swap of {f1} is not of type III0")
        return f, steps
    if tag == "I":  # nothing but the J shape
        return e, []

    ctx = e.ctx
    if tag == "II":
        vb = ctx.val_raw(e.b)
        # first eliminate a: x = (a / pi^val(b)) unit(b)^-1 makes a - b x
        # vanish, so each pass strictly raises val(a) and the loop ends
        # within length passes; a pass that does not is a stall and
        # raises.  The passes keep m, and L(x) L(y) = L(x + y), so they
        # make one step
        cur, total = e, 0
        while cur.a:
            _, ub = ctx.unit_split_raw(cur.b)
            x = ctx.mul_raw(ctx.div_pi_raw(cur.a, vb), ctx.inv_raw(ub))
            old = ctx.val_raw(cur.a)
            cur, total = _lower(cur, x), ctx.add_raw(total, x)
            if ctx.val_raw(cur.a) <= old:
                raise VerificationFailed("a elimination stalled")
        steps = [] if cur is e else [(_lower_step, e.m, total)]
        if cur.m > vb:
            # with a = 0 the slot step lowers the slot exponent to val(b)
            _, ub = ctx.unit_split_raw(cur.b)
            steps.append((_slot_step, cur.m - vb, ctx.inv_raw(ub), cur.c))
            cur = HardBody(ctx, vb, 0, cur.b, cur.c, cur.d)
        return cur, steps

    # III1: pin the digits of d at and above m in one step, as L(x) moves
    # d to d - x pi^m
    low = ctx.mod_pi_raw(e.d, e.m)
    if low == e.d:
        return e, []
    x = ctx.div_pi_raw(ctx.sub_raw(e.d, low), e.m)
    return _lower(e, x), [(_lower_step, e.m, x)]


@lru_cache(maxsize=None)
def hard_family(tctx: RingCtx) -> tuple:
    """One normal form per hard-body class over tctx, in lexicographic
    (m, a, b, c, d) order.

    The forms are built from the type conditions of HardBody, one
    candidate per form, with c in the maximal ideal throughout:

    - I:    (length, 0, 0, c, d) for every d;
    - II:   (m, 0, b, c, d) for 1 <= m < length, val(b) = m, every d;
    - III1: (m, a, b, c, d) for 1 <= m < length, val(a) >= m,
            val(b) > m and d reduced mod pi^m, i.e. no digit of d at
            or above m;
    - III0: the swap (see _swap) of each III1 candidate with val(a) > m.

    Each candidate must come back unchanged from _normalize_hard and the
    sorted forms must be distinct, or VerificationFailed is raised.  That
    every normal form is a candidate is certified by enumerate3, whose
    class count is checked against count3.
    """
    length, card, at_least = tctx.length, tctx.cardinality, tctx.ideal_raw
    elems, ideal = range(card), at_least(1)
    forms = []

    def key(f: HardBody) -> tuple:
        return f.m, f.a, f.b, f.c, f.d

    def keep(e: HardBody):
        if _normalize_hard(e)[0] != e:
            raise VerificationFailed(
                f"{e.tag} candidate {key(e)} over {tctx.descriptor} is no normal form"
            )
        forms.append(e)

    for c, d in product(ideal, elems):
        keep(HardBody(tctx, length, 0, 0, c, d))
    for m in range(1, length):
        for b, c, d in product(at_least(m), ideal, elems):
            if tctx.val_raw(b) == m:
                keep(HardBody(tctx, m, 0, b, c, d))
        for a, b, c, d in product(at_least(m), at_least(m + 1), ideal, range(tctx.q**m)):
            e = HardBody(tctx, m, a, b, c, d)
            keep(e)
            if tctx.val_raw(a) > m:
                keep(_swap(e)[0])

    forms.sort(key=key)
    if any(key(f) >= key(g) for f, g in zip(forms, forms[1:])):
        raise VerificationFailed(f"hard_family over {tctx.descriptor} repeats a form")
    return tuple(forms)


# ----------------------------------------------------------------------
# full 3x3 canonical forms


def _split_vals(a: int, inner) -> tuple:
    """The values of diag(a) ++ B, for inner the values of the 2x2 B."""
    x0, x1, x2, x3 = inner
    return (a, 0, 0, 0, x0, x1, 0, x2, x3)


@dataclass(slots=True, unsafe_hash=True)
class SplitBody:
    """diag(a) ++ the rebuilt 2x2 form inner, over the body's ring.
    Slotted and immutable by convention (see canon2.CanonicalForm)."""

    a: int
    inner: CanonicalForm

    def vals(self, n: int) -> tuple:
        return _split_vals(self.a, self.inner.rebuild().vals)

    def to_json(self) -> dict:
        return {"kind": "split", "a": self.a, "inner": self.inner.to_json()}


def _body3(beta: Mat, res: Mat) -> tuple:
    """(body, X) with X beta X^{-1} the body's matrix, for a 3x3 beta
    with non-scalar residue res."""
    kind, *eigenvalues = _residue_type(res)
    if kind == "cyclic":
        return _cyclic_body(beta, res)
    if kind == "split":
        a, block, x1 = _block_split(beta, res, *eigenvalues)
        inner = canon2(block)
        x = Mat._unchecked(beta.ctx, 3, _split_vals(1, inner.witness.vals))
        return SplitBody(a, inner), x @ x1
    e, x1 = _e_form(beta, res, *eigenvalues)
    hard, x2 = _classify_hard(e)
    return hard, x2 @ x1


def canon3(alpha: Mat) -> CanonicalForm:
    """The class descriptor of the 3x3 matrix alpha, with its witness.

    The residue type of the body beta is read once, and its eigenvalues
    go to the one reduction that type takes; the composed witness is
    checked exactly against alpha.
    """
    if alpha.n != 3:
        raise BadParams("canon3 expects a 3x3 matrix")
    return _canonical_form(alpha, _body3)


def canon(alpha: Mat) -> CanonicalForm:
    """canon2 or canon3, by the size of alpha."""
    if alpha.n == 2:
        return canon2(alpha)
    if alpha.n == 3:
        return canon3(alpha)
    raise BadParams("canon expects a 2x2 or 3x3 matrix")
