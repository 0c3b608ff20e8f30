"""Module-theoretic similarity testing over a chain ring.

For matrices alpha_1, alpha_2 the intertwiner module

    S = { X : alpha_1 X = X alpha_2 }

is the kernel of a k x k linear map over the ring (k = n^2), computed
by an exact Smith-style diagonalization (valuation pivoting; every
pivot is a power of pi) and stored as a Howell basis, which makes
membership and cardinality canonical.  alpha_1 and alpha_2 are similar
iff S contains a unit, and X in S is a unit iff its residue mod the
maximal ideal is invertible, so the unit search runs over the residue
span of the reduced generators, an F_q vector space of dimension at
most k.

The intertwiner system is assembled column-major: vec(X) stacks the
columns of X, so the system matrix is I (x) alpha_1 - alpha_2^T (x) I.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CtxMismatch, SearchBudgetExceeded, VerificationFailed
from .matrix import Mat, identity
from .ring import RingCtx

DEFAULT_SEARCH_CAP = 10_000_000

__all__ = [
    "HowellBasis",
    "IntertwinerModule",
    "intertwiner",
    "find_unit_element",
    "is_similar",
    "centralizer_order",
]


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


def _rref(rows, p: int, ncols: int | None = None):
    """Reduced row echelon form over F_p, pivoting only in the first
    ncols columns (default: all); returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    piv = []
    r = 0
    for c in range(ncols):
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
        gen = [mul(shift, V[r][s]) for r in range(k)]
        if any(gen):
            gens.append(gen)
    return gens, size


@dataclass(frozen=True)
class HowellBasis:
    """Echelon basis of a submodule of A^k with canonical membership.

    Pivots are powers of pi in strictly increasing columns; entries in
    a pivot column above the pivot are reduced modulo it, and for every
    pivot pi^e the annihilator multiple pi^(length-e) * row lies in the
    span of the later rows, which is what makes leading-coefficient
    reduction a complete membership test.
    """

    ctx: RingCtx
    width: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]  # (column, valuation)

    @property
    def size(self) -> int:
        out = 1
        for _, e in self.pivots:
            out *= self.ctx.p ** (self.ctx.length - e)
        return out

    def contains(self, vec) -> bool:
        ctx = self.ctx
        v = list(vec)
        for row, (c, e) in zip(self.rows, self.pivots):
            x = v[c]
            if ctx.mod_pi_raw(x, e) != 0:
                return False
            f = ctx.div_pi_raw(x, e)
            if f:
                for i in range(c, self.width):
                    if row[i]:
                        v[i] = ctx.sub_raw(v[i], ctx.mul_raw(f, row[i]))
        return not any(v)


def howellize(ctx: RingCtx, gens, width: int) -> HowellBasis:
    length = ctx.length
    val, inv, mul, sub, div = (
        ctx.val_raw,
        ctx.inv_raw,
        ctx.mul_raw,
        ctx.sub_raw,
        ctx.div_pi_raw,
    )
    pivots: dict[int, list[int]] = {}
    queue = [list(g) for g in gens]

    def place(v, c):
        """Install v as the pivot of column c, queueing its annihilator."""
        e = val(v[c])
        u = inv(div(v[c], e))
        if u != 1:
            v = [mul(u, x) for x in v]
        pivots[c] = v
        if e > 0:
            shift = ctx.pi_pow_raw(length - e)
            ann = [mul(shift, x) for x in v]
            if any(ann):
                queue.append(ann)

    while queue:
        v = queue.pop()
        while True:
            c = next((i for i, x in enumerate(v) if x), None)
            if c is None:
                break
            w = pivots.get(c)
            if w is None:
                place(v, c)
                break
            ew = val(w[c])
            if val(v[c]) < ew:
                place(v, c)  # lower valuation wins; old pivot re-enters
                v = w
                continue
            f = div(v[c], ew)
            v = [sub(a, mul(f, b)) for a, b in zip(v, w)]
    cols = sorted(pivots)
    rows = [pivots[c] for c in cols]
    piv = [(c, val(pivots[c][c])) for c in cols]
    # reduce entries above each pivot modulo the pivot
    for idx, (c, e) in enumerate(piv):
        for r in range(idx):
            x = rows[r][c]
            f = div(sub(x, ctx.mod_pi_raw(x, e)), e)
            if f:
                rows[r] = [sub(a, mul(f, b)) for a, b in zip(rows[r], rows[idx])]
    return HowellBasis(ctx, width, tuple(tuple(r) for r in rows), tuple(piv))


@dataclass(frozen=True)
class IntertwinerModule:
    """The module S = {X : alpha_1 X = X alpha_2} with a Howell basis."""

    a1: Mat
    a2: Mat
    gens: tuple[Mat, ...]
    basis: HowellBasis
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
    basis = howellize(ctx, raw_gens, n * n)
    if basis.size != size:
        raise VerificationFailed("Smith and Howell cardinalities disagree")
    gens = tuple(_unvec(ctx, n, row) for row in basis.rows)
    for g in gens:
        if a1 @ g != g @ a2:
            raise VerificationFailed("kernel generator fails the intertwining identity")
    return IntertwinerModule(a1, a2, gens, basis, size)


def _residue_rref(module: IntertwinerModule):
    """RREF over F_q of the reduced generators, with row transform.

    Returns (basis_rows, combos): basis_rows are F_q matrices as flat
    tuples mod p, combos[i] gives the F_q coefficients expressing
    basis_rows[i] in terms of module.gens.
    """
    p = module.a1.ctx.p
    g = len(module.gens)
    rows = [[x % p for x in m.vals] + [1 if i == j else 0 for j in range(g)]
            for i, m in enumerate(module.gens)]
    k = module.a1.n ** 2
    rows, _ = _rref(rows, p, k)
    basis_rows = [tuple(row[:k]) for row in rows]
    combos = [tuple(row[k:]) for row in rows]
    return basis_rows, combos


def _det_mod_p(vals, n: int, p: int) -> int:
    if n == 1:
        return vals[0] % p
    if n == 2:
        return (vals[0] * vals[3] - vals[1] * vals[2]) % p
    return (
        vals[0] * (vals[4] * vals[8] - vals[5] * vals[7])
        - vals[1] * (vals[3] * vals[8] - vals[5] * vals[6])
        + vals[2] * (vals[3] * vals[7] - vals[4] * vals[6])
    ) % p


def _iter_span(basis_rows, p: int):
    """Yield (coeffs, vector mod p) over the span, lexicographically."""
    r = len(basis_rows)
    k = len(basis_rows[0]) if r else 0
    for coeffs in product(range(p), repeat=r):
        acc = [0] * k
        for c, row in zip(coeffs, basis_rows):
            if c:
                acc = [(a + c * b) % p for a, b in zip(acc, row)]
        yield coeffs, acc


def find_unit_element(module: IntertwinerModule, cap: int = DEFAULT_SEARCH_CAP):
    """First unit of S in the fixed residue-span enumeration, or None.

    X in S is a unit iff X mod pi is invertible, and the reduction of S
    is exactly the F_q span of the reduced generators, so it suffices
    to scan that span; any hit is lifted back to an exact element of S
    through the recorded generator combination.
    """
    ctx, n = module.a1.ctx, module.a1.n
    p = ctx.p
    basis_rows, combos = _residue_rref(module)
    r = len(basis_rows)
    if r == 0:
        return None
    if p**r > cap:
        raise SearchBudgetExceeded(f"residue span has {p}^{r} elements, cap {cap}")
    for coeffs, vec in _iter_span(basis_rows, p):
        if _det_mod_p(vec, n, p):
            lam = [0] * len(module.gens)
            for c, combo in zip(coeffs, combos):
                if c:
                    lam = [(a + c * b) % p for a, b in zip(lam, combo)]
            x = None
            for l, g in zip(lam, module.gens):
                if l:
                    term = g.scale(g.ctx.elem(l))
                    x = term if x is None else x + term
            if x is None or not x.is_invertible():
                raise VerificationFailed("lifted residue-span hit is not a unit")
            if module.a1 @ x != x @ module.a2:
                raise VerificationFailed("lifted unit fails the intertwining identity")
            return x
    return None


def is_similar(a1: Mat, a2: Mat, cap: int = DEFAULT_SEARCH_CAP):
    """Exact similarity decision with witness.

    Returns (True, X) with alpha_1 X = X alpha_2 and X a unit, or
    (False, None).  Equal matrices, scalar matrices (similar only to
    themselves) and different characteristic polynomials are decided
    before the intertwiner module is built.
    """
    _check_pair(a1, a2)
    if a1 == a2:
        return True, identity(a1.ctx, a1.n)
    if a1.is_scalar() or a2.is_scalar() or a1.charpoly() != a2.charpoly():
        return False, None
    module = intertwiner(a1, a2)
    x = find_unit_element(module, cap)
    return (x is not None), x


def centralizer_order(a: Mat, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """|{X in GL_n(A) : Xa = aX}| by exact counting.

    The reduction map S -> S mod pi is onto the residue span (dimension
    r), every fiber has |S|/q^r elements, and a member is a unit iff
    its residue is invertible, so the order is
    (#invertible residues) * |S| / q^r.
    """
    module = intertwiner(a, a)
    ctx, n = a.ctx, a.n
    p = ctx.p
    basis_rows, _ = _residue_rref(module)
    r = len(basis_rows)
    if p**r > cap:
        raise SearchBudgetExceeded(f"residue span has {p}^{r} elements, cap {cap}")
    n_inv = 0
    for _, vec in _iter_span(basis_rows, p):
        if _det_mod_p(vec, n, p):
            n_inv += 1
    fiber, rem = divmod(module.size, p**r)
    if rem:
        raise VerificationFailed(f"|S| = {module.size} is not a multiple of {p}^{r}")
    return n_inv * fiber
