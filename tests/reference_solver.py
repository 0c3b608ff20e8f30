"""Reference similarity solver: the intertwiner module and its residue span.

For matrices alpha_1, alpha_2 the intertwiner module

    S = { X : alpha_1 X = X alpha_2 }

is the kernel of a k x k linear map over the ring (k = n^2).  One exact
Smith diagonalization U W V = diag(pi^e_s) (valuation pivoting; every
pivot is a power of pi) gives both |S| = prod q^e_s and generators, the
columns of V scaled by pi^(length - e_s).  alpha_1 and alpha_2 are
similar iff S contains a unit, and X in S is a unit iff its residue mod
the maximal ideal is invertible.  The generators with a zero pivot are
columns of the invertible V, so their residues are a basis of S mod pi,
and every other generator is a multiple of pi; the unit search scans the
F_q span of those residues (dimension r <= k) and lifts a hit
sum c_i g_i back to S.

The intertwiner system is assembled column-major: vec(X) stacks the
columns of X, so the system matrix is I (x) alpha_1 - alpha_2^T (x) I.

The library decides similarity and centralizer orders from canonical
forms (simclass.modsolve).  This solver uses no canonical form, so the
tests keep it as an independent reference for those decisions and for
the forms themselves.  Its scan costs p^r, which is why it lives here:
over small rings it is exact and fast enough, and past the search cap it
raises SearchBudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from simclass import (
    CtxMismatch,
    Mat,
    RingCtx,
    SearchBudgetExceeded,
    VerificationFailed,
    group_order,
    identity,
)

DEFAULT_SEARCH_CAP = 10_000_000


def _vec_pos(n: int, i: int, j: int) -> int:
    return j * n + i  # column-major


def build_intertwiner_matrix(a1: Mat, a2: Mat) -> list[list[int]]:
    """Matrix of X -> alpha_1 X - X alpha_2 on column-major vec(X)."""
    ctx, n = a1.ctx, a1.n
    k = n * n
    rows = [[0] * k for _ in range(k)]
    add, sub = ctx.add_raw, ctx.sub_raw
    for i in range(n):
        for j in range(n):
            r = _vec_pos(n, i, j)
            for m in range(n):
                c = _vec_pos(n, m, j)
                rows[r][c] = add(rows[r][c], a1.raw(i, m))
                c = _vec_pos(n, i, m)
                rows[r][c] = sub(rows[r][c], a2.raw(m, j))
    return rows


def _diagonalize(ctx: RingCtx, W: list[list[int]], V=()) -> list[int]:
    """Smith diagonalization of the square system W, in place.

    Exact row/column operations bring W to diag(pi^e_s): the
    minimal-valuation entry of the remaining submatrix is the pivot and
    divides the rest, so every elimination is exact and the exponents
    come out non-decreasing.  Column operations are also applied to the
    rows of V.  Returns the exponents e_s (length for a zero pivot);
    as Smith invariants they depend only on W up to invertible row and
    column changes.
    """
    k = len(W)
    length = ctx.length
    val, inv, mul, sub, div = (
        ctx.val_raw,
        ctx.inv_raw,
        ctx.mul_raw,
        ctx.sub_raw,
        ctx.div_pi_raw,
    )
    exps = [length] * k
    for s in range(k):
        best, bi, bj = length, -1, -1
        for i in range(s, k):
            row = W[i]
            for j in range(s, k):
                v = val(row[j])
                if v < best:
                    best, bi, bj = v, i, j
                    if v == 0:
                        break
            if best == 0:
                break
        if bi < 0:
            break
        if bi != s:
            W[bi], W[s] = W[s], W[bi]
        if bj != s:
            for row in W:
                row[bj], row[s] = row[s], row[bj]
            for row in V:
                row[bj], row[s] = row[s], row[bj]
        e = best
        exps[s] = e
        piv = W[s]
        u = inv(div(piv[s], e))
        if u != 1:
            W[s] = piv = [mul(u, x) for x in piv]
        for r in range(k):
            if r == s or not W[r][s]:
                continue
            f = div(W[r][s], e)
            row = W[r]
            for c in range(s, k):
                if piv[c]:
                    row[c] = sub(row[c], mul(f, piv[c]))
        for c in range(k):
            if c == s or not piv[c]:
                continue
            f = div(piv[c], e)
            for row in W:
                if row[s]:
                    row[c] = sub(row[c], mul(f, row[s]))
            for row in V:
                if row[s]:
                    row[c] = sub(row[c], mul(f, row[s]))
    return exps


def smith_kernel(ctx: RingCtx, mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Kernel generators and kernel size of a square system over ctx.

    Diagonalizes U*mat*V = diag(pi^e_s) (see _diagonalize), then pulls
    the diagonal kernel back through V.  Returns (generators,
    cardinality).
    """
    k = len(mat)
    length = ctx.length
    V = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    exps = _diagonalize(ctx, [row[:] for row in mat], V)
    mul = ctx.mul_raw
    gens = []
    size = 1
    for s in range(k):
        e = exps[s]
        if e == 0:
            continue
        size *= ctx.p**e
        shift = ctx.pi_pow_raw(length - e)
        gens.append([mul(shift, V[r][s]) for r in range(k)])
    return gens, size


@dataclass(frozen=True)
class IntertwinerModule:
    """The module S = {X : alpha_1 X = X alpha_2}: Smith generators and |S|."""

    a1: Mat
    a2: Mat
    gens: tuple[Mat, ...]
    size: int


def _unvec(ctx: RingCtx, n: int, v) -> Mat:
    return Mat._unchecked(ctx, n, [v[_vec_pos(n, i, j)] for i in range(n) for j in range(n)])


def _check_pair(a1: Mat, a2: Mat):
    if a1.ctx != a2.ctx or a1.n != a2.n:
        raise CtxMismatch("the two matrices need matching ring and size")


def intertwiner(a1: Mat, a2: Mat) -> IntertwinerModule:
    _check_pair(a1, a2)
    ctx, n = a1.ctx, a1.n
    raw_gens, size = smith_kernel(ctx, build_intertwiner_matrix(a1, a2))
    gens = tuple(_unvec(ctx, n, row) for row in raw_gens)
    for g in gens:
        if a1 @ g != g @ a2:
            raise VerificationFailed("kernel generator fails the intertwining identity")
    return IntertwinerModule(a1, a2, gens, size)


def _residue_basis(module: IntertwinerModule) -> list[tuple[Mat, tuple]]:
    """(generator, residue mod p) for the generators with a zero Smith
    pivot, the only ones with a nonzero residue; see the module
    docstring for why these residues are a basis of S mod pi."""
    p = module.a1.ctx.p
    out = []
    for g in module.gens:
        res = tuple(x % p for x in g.vals)
        if any(res):
            out.append((g, res))
    return out


def _check_budget(p: int, r: int):
    if p**r > DEFAULT_SEARCH_CAP:
        raise SearchBudgetExceeded(f"residue span has {p}^{r} elements, cap {DEFAULT_SEARCH_CAP}")


def _det_mod_p(vals, n: int, p: int) -> int:
    if n == 2:
        return (vals[0] * vals[3] - vals[1] * vals[2]) % p
    return (
        vals[0] * (vals[4] * vals[8] - vals[5] * vals[7])
        - vals[1] * (vals[3] * vals[8] - vals[5] * vals[6])
        + vals[2] * (vals[3] * vals[7] - vals[4] * vals[6])
    ) % p


def _iter_span(basis_rows, p: int):
    """Yield (coeffs, vector mod p) over the span, lexicographically.

    The coefficients step like an odometer, last one fastest.  A step
    that raises coefficient i wraps every later one from p - 1 to 0,
    which adds each later row once more (p times a row is 0), so the
    vector moves by the precomputed sum of rows i.. in one add.
    """
    r = len(basis_rows)
    k = len(basis_rows[0]) if r else 0
    suffix = [[0] * k]
    for row in reversed(basis_rows):
        suffix.append([(a + b) % p for a, b in zip(row, suffix[-1])])
    suffix.reverse()
    coeffs = [0] * r
    acc = [0] * k
    while True:
        yield tuple(coeffs), acc
        i = r - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            return
        coeffs[i] += 1
        acc = [(a + b) % p for a, b in zip(acc, suffix[i])]


def find_unit_element(module: IntertwinerModule):
    """First unit of S in the fixed residue-span enumeration, or None.

    X in S is a unit iff X mod pi is invertible, and the residue basis
    spans the reduction of S, so it suffices to scan that span; a hit
    with coefficients c_i is lifted to the exact element sum c_i g_i.
    """
    ctx, n = module.a1.ctx, module.a1.n
    p = ctx.p
    basis = _residue_basis(module)
    if not basis:
        return None
    _check_budget(p, len(basis))
    gens, rows = zip(*basis)
    for coeffs, vec in _iter_span(rows, p):
        if _det_mod_p(vec, n, p):
            x = None
            for c, g in zip(coeffs, gens):
                if c:
                    term = g.scale(c)
                    x = term if x is None else x + term
            if not x.is_invertible():
                raise VerificationFailed("lifted residue-span hit is not a unit")
            if module.a1 @ x != x @ module.a2:
                raise VerificationFailed("lifted unit fails the intertwining identity")
            return x
    return None


def is_similar(a1: Mat, a2: Mat):
    """Exact similarity decision with witness.

    Returns (True, X) with alpha_1 X = X alpha_2 and X a unit, or
    (False, None).  Equal matrices, scalar matrices (similar only to
    themselves) and different characteristic polynomials are decided
    before the intertwiner module is built; they use no canonical form.
    """
    _check_pair(a1, a2)
    if a1 == a2:
        return True, identity(a1.ctx, a1.n)
    if a1.is_scalar() or a2.is_scalar() or a1.charpoly() != a2.charpoly():
        return False, None
    module = intertwiner(a1, a2)
    x = find_unit_element(module)
    return (x is not None), x


def centralizer_order(a: Mat) -> int:
    """|{X in GL_n(A) : Xa = aX}| by scanning the residue span.

    The reduction map S -> S mod pi is onto the residue span (dimension
    r), every fiber has |S|/q^r elements, and a member is a unit iff
    its residue is invertible, so the order is
    (#invertible residues) * |S| / q^r.  As the order of a subgroup it
    must divide |GL_n(A)|, which is checked.
    """
    module = intertwiner(a, a)
    ctx, n = a.ctx, a.n
    p = ctx.p
    rows = [res for _, res in _residue_basis(module)]
    r = len(rows)
    _check_budget(p, r)
    n_inv = sum(1 for _, vec in _iter_span(rows, p) if _det_mod_p(vec, n, p))
    fiber, rem = divmod(module.size, p**r)
    if rem:
        raise VerificationFailed(f"|S| = {module.size} is not a multiple of {p}^{r}")
    order = n_inv * fiber
    if not order or group_order(ctx, n) % order:
        raise VerificationFailed(f"centralizer order {order} does not divide |GL_{n}|")
    return order


def cyclic_units_by_scan(q: int, i: int, f: list) -> int:
    """Units of A_i[x]/(F) from f = F mod pi, by scanning F_q for roots.

    The reference for simclass.modsolve._cyclic_units, which counts the
    roots with a gcd instead: each root found is a distinct linear
    factor, and what is left once the roots are divided out has degree
    0, 2 or 3 and no root, so it is one irreducible factor (or none).
    """
    n = len(f) - 1
    units = q ** (n * i)
    for r in range(q):
        root = False
        while len(f) > 1:
            quot = [f[0]]
            for c in f[1:]:
                quot.append((c + r * quot[-1]) % q)
            if quot.pop():
                break
            f, root = quot, True
        if root:
            units = units // q * (q - 1)
    deg = len(f) - 1
    if deg:
        units = units // q**deg * (q**deg - 1)
    return units
