"""Brute-force conjugation-orbit oracle.

Independent cross-check for the canonical forms and counting formulas:
pack n x n matrices over the ring as integer states, then flood-fill
conjugation orbits under a generating set of GL_n: E_12(1), the n-cycle
permutation matrix and diag(u, 1, ..., 1) for each generator u of the
ring's unit group, 2 + |units| matrices (see _gl_generators for why they
generate the whole group).  It computes no normal form.

Only the generators act, not their inverses: in a finite group
g^-1 = g^(ord g - 1), so the forward closure of a state is its whole
orbit.  Each orbit size must divide the group order (orbit-stabilizer)
and a census must cover every state, or VerificationFailed is raised.

The flood visits cosets, not states.  For l >= 2 the kernel
K = I + pi^(l-1) M_n(A) of reduction mod pi^(l-1) is normal in GL_n(A),
so conjugation permutes the K-orbits and every orbit is a union of
them.  The K-orbit of a is the coset a + pi^(l-1) im(ad r), r the
residue of a: a change of the top digits by a subspace of M_n(F_q), of
q^rank(ad r) states (see _Cosets).  A coset stands for itself by its
least member, which one RREF over F_q per residue finds: reduce the top
digits modulo im(ad r), zeroing the pivot coordinates, the most
significant ones.  The flood conjugates these reps by the generators and
reduces each image's top digits again.  An orbit's size is its number
of cosets times q^rank, and its least member is the least of its reps.
Over a length-1 ring the kernel is trivial: a coset is one state.

When p does not divide n the census floods only the trace-0 matrices,
the slice, which is |A| times smaller than the whole space.  n is then
a unit, so every matrix is uniquely B + dI with tr B = 0, and
g(B + dI)g^-1 = gBg^-1 + dI: each orbit O of the slice gives the |A|
orbits O + dI, each of size |O|.  A slice state packs the n^2 - 1
entries other than (n, n), which is minus the sum of the other diagonal
entries.  When p divides n the slice holds the scalars and is no
complement to them, so the census floods every matrix, with the single
shift d = 0, in the same loop.  Single orbits (_orbit_states) always
act on whole matrices.

States pack the entries row-major, first entry most significant, so
numeric order on states is lexicographic order on entry tuples; a slice
state's id is its matrix's id // |A|.  The ring says how its packed
values split into digits: each entry is `per` base-`mod` digits, the
pair (mod, per) of RingCtx._digit_base, and ring addition adds them
digit by digit mod `mod`; pi^(l-1) = RingCtx.pi_pow_raw(l - 1) is the
place of an entry's top digit, and q its base.  A ring and size whose
ids or matmul sums would not fit raise BudgetExceeded before any state
is packed, and so does a census with more cosets than its cap by the
bound rank(ad r) <= n^2 - n (the centralizer of r has dimension >= n),
before any coset table is built.  Conjugation is linear in the digits,
and the actions of all generators are stacked into one (sdim x k*sdim)
matrix: one float64 matmul per block of states, exact below 2^53.  On the slice a generator
acts by P A L, with A its action on matrix digits, L embedding the
slice's digits and P dropping entry (n, n).

The census indexes the cosets densely (see _Cosets.count) and keeps one
visited flag per coset.  Each pass floods one orbit from the least
unvisited coset; the trace is linear in the digits (see _trace_form),
so one check on the generators' action matrices proves it a
conjugation invariant, and one on the embedding proves that the slice
is the trace-0 matrices (see _check_slice).  A pass's reps give the
least member of O + dI for each d: reduce B + dI over the pass's reps B
and keep the least (see _Cosets.least).  Labels, when asked for, come
from settling every census state, block by block, as the flood settles
its images: its coset's index names the pass that claimed it.

Frontiers are expanded BLOCK = 1024 states at a time, and claimed one
BFS level at a time: a level's images are deduplicated once, and
_orbit_states merges them into its sorted array once.  A census's peak
memory is its coset tables, its visited flags, its labels and its
widest level's images.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# simclass's modules first: without a bytecode cache, compiling them after numpy raises peak RSS
from .canon3 import canon
from .census import _check_ints, _enumerate, count2, count3
from .errors import BadParams, BudgetExceeded, VerificationFailed
from .matrix import Mat, _check_size, diag, elementary
from .modsolve import centralizer_order, group_order
from .ring import RingCtx

import numpy as np

__all__ = ["OrbitCensus", "orbit_census", "orbit_of", "verify_counts"]

DEFAULT_MAX_STATES = 2**28
BLOCK = 1024
_RREF_BLOCK = 512  # residues per batched elimination
# verify_counts draws this many census orbits, from this seed
_SAMPLES, _SEED = 20, 0


def _gl_generators(ctx: RingCtx, n: int):
    """Generators of GL_n(ctx): E_12(1), the n-cycle and diag(u, 1, ..., 1).

    u runs over ctx._unit_group_generators().  They generate the whole
    group: conjugating E_12(1) by the n-cycle gives every E_{i,i+1}(1),
    and the commutators [E_ij(1), E_jk(1)] = E_ik(1) give every E_ij(1).
    Conjugating by diag(u) gives E_1j(u) for every unit u, and in a
    local ring every x is a sum of units (x = (x + 1) - 1 when x is not
    one), so every E_ij(x) is reached.  GL_n of a local ring is the
    elementary group times the diagonal matrices.
    """
    cycle = [0] * (n * n)
    for i in range(n):
        cycle[i * n + (i + 1) % n] = 1
    gens = [elementary(ctx, n, 1, 2, 1), Mat(ctx, n, cycle)]
    for u in ctx._unit_group_generators():
        gens.append(diag(ctx, [u] + [1] * (n - 1)))
    return gens


# ----------------------------------------------------------------------
# state packing


def _mat_of(ctx: RingCtx, n: int, state: int) -> Mat:
    card = ctx.cardinality
    vals = []
    for _ in range(n * n):
        vals.append(state % card)
        state //= card
    return Mat(ctx, n, vals[::-1])


def _conj_action(ctx: RingCtx, n: int, g: Mat, mod: int, per: int) -> np.ndarray:
    """Integer matrix of A -> g A g^{-1} on the digit columns of states.

    Each entry is `per` base-`mod` digits, least significant first.
    """
    ginv = g.inverse()
    dim = n * n * per
    out = np.zeros((dim, dim), dtype=np.int64)
    for col in range(dim):
        vals = [0] * (n * n)
        vals[col // per] = mod ** (col % per)
        img = g @ Mat(ctx, n, vals) @ ginv
        for row in range(dim):
            out[row, col] = img.vals[row // per] // mod ** (row % per) % mod
    return out


def _embedding(ctx: RingCtx, n: int) -> np.ndarray:
    """The (dim x sdim) matrix L taking a census state's digits to the
    digits of its matrix, mod `mod`; dim = n^2 * per.

    When p does not divide n a census state packs the n^2 - 1 entries
    other than (n, n), which is minus the sum of the other diagonal
    entries: below the identity, L's rows for the (n, n) digits are
    (mod - 1) times the trace form of the other entries, so L embeds the
    trace-0 matrices.  When p divides n it packs every entry: L = I.
    """
    mod, per = ctx._digit_base()
    dim = n * n * per
    if gcd(n, ctx.q) > 1:  # p | n: n is no unit
        return np.eye(dim, dtype=np.int64)
    rest = _trace_form(ctx, n)[:, : dim - per]
    return np.vstack([np.eye(dim - per, dtype=np.int64), (mod - 1) * rest])


def _conjugator(ctx: RingCtx, n: int, embed: np.ndarray | None = None):
    """(images, actions): the function mapping census states to their
    conjugates by every generator, and the generators' actions on digits.

    Census states pack the digits that embed (see _embedding; by default
    I, every entry) maps to their matrices' digits.  images takes the
    (B, m) packed entries of B census states and returns the (k * B, m)
    entries of their images, state by state and generator by generator
    within a state, where k = len(_gl_generators(ctx, n)): the action of
    g on census digits is P A_g L mod `mod`, with A_g its action on
    matrix digits, L = embed and P dropping the digits a census state
    does not pack.  actions stacks the k (dim x dim) matrices A_g, as
    int64.
    """
    card, n2 = ctx.cardinality, n * n
    mod, per = ctx._digit_base()
    # state ids, below card^(n^2), must fit int64, and the float64 matmul
    # is exact only while every sum, below dim * mod^2, stays below 2^53;
    # for n >= 2 the first bound implies the second, which stays as the
    # matmul's own guard
    if card**n2 > 2**63 or n2 * per * mod**2 > 2**53:
        raise BudgetExceeded(
            f"{n}x{n} states over {ctx.descriptor} are too large for the exact int64 kernel"
        )
    dim = n2 * per
    embed = np.eye(dim, dtype=np.int64) if embed is None else embed
    sdim = embed.shape[1]
    gens = _gl_generators(ctx, n)
    actions = np.array([_conj_action(ctx, n, g, mod, per) for g in gens], dtype=np.int64)
    # float64 only for the matmul, where BLAS is several times faster than
    # numpy's int64 loop; it is exact, as every sum is below sdim * mod^2
    rows = len(gens) * sdim
    stacked = ((actions @ embed)[:, :sdim] % mod).reshape(rows, sdim).T.astype(np.float64)
    spread = mod ** np.arange(per)
    # reused across blocks: fresh arrays this size cost a page fault per page
    fbuf = np.empty(rows * BLOCK)
    ibuf = np.empty(rows * BLOCK, dtype=np.int64)
    qbuf = np.empty(rows * BLOCK, dtype=np.int64)

    def images(v: np.ndarray) -> np.ndarray:
        """The result lives in a buffer that the next call overwrites."""
        digits = v if per == 1 else (v[:, :, None] // spread % mod).reshape(len(v), sdim)
        prod = fbuf[: rows * len(v)].reshape(len(v), rows)
        np.matmul(digits, stacked, out=prod)
        img, quot = ibuf[: prod.size].reshape(prod.shape), qbuf[: prod.size].reshape(prod.shape)
        img[...] = prod
        # img % mod as img - (img // mod) * mod, as img >= 0: numpy divides
        # by a scalar with libdivide's multiply-and-shift, but computes %
        # with one hardware division per element
        np.floor_divide(img, mod, out=quot)
        quot *= mod
        img -= quot
        if per > 1:
            img = img.reshape(-1, per) @ spread
        return img.reshape(-1, sdim // per)

    return images, actions


def _flood(images, frontier: np.ndarray, claim) -> None:
    """Visit every state reachable from frontier, which is already claimed.

    images runs BLOCK states at a time and returns a tuple of arrays;
    claim gets them for one BFS level's images at once, marks the not yet
    visited states among them as visited and returns them, distinct: the
    next level.
    """
    while frontier.size:
        if frontier.size <= BLOCK:  # most levels of a small census: no copy
            frontier = claim(*images(frontier))
        else:
            parts = [images(frontier[i : i + BLOCK]) for i in range(0, frontier.size, BLOCK)]
            frontier = claim(*(np.concatenate(p) for p in zip(*parts)))


def _trace_form(ctx: RingCtx, n: int) -> np.ndarray:
    """The (per x dim) 0/1 matrix taking a state's digits to its trace's
    digits, before reduction mod `mod`: it adds digit s of every diagonal
    entry into digit s, which is ring addition in both flavors."""
    per = ctx._digit_base()[1]
    form = np.zeros((per, n * n * per), dtype=np.int64)
    for i in range(n):
        form[:, i * (n + 1) * per : (i * (n + 1) + 1) * per] = np.eye(per, dtype=np.int64)
    return form


def _check_slice(ctx: RingCtx, n: int, actions: np.ndarray, embed: np.ndarray) -> None:
    """Certify the census states and the trace, or raise VerificationFailed.

    The trace is linear in the digits (see _trace_form), so it is a
    conjugation invariant when every generator's action A satisfies
    form @ A = form mod `mod`.  A census that packs fewer digits than its
    matrices must pack exactly the trace-0 matrices: P @ embed = I and
    form @ embed = 0 mod `mod`.  As form is the identity on the (n, n)
    digits, these two hold only for the embedding _embedding derives.
    """
    mod = ctx._digit_base()[0]
    form = _trace_form(ctx, n)
    if ((form @ actions - form) % mod).any():
        raise VerificationFailed(f"the trace over {ctx.descriptor} is not a conjugation invariant")
    dim, sdim = embed.shape
    if (embed[:sdim] != np.eye(sdim)).any() or (sdim < dim and (form @ embed % mod).any()):
        raise VerificationFailed(
            f"{n}x{n} census states over {ctx.descriptor} do not embed as the trace-0 matrices"
        )


def _shifter(ctx: RingCtx, n: int, m: int):
    """Function mapping census ids (B,) to the (shifts, B) ids of the
    matrices B + dI, d = 0, 1, ..., shifts - 1 (as packed ring elements),
    where B is the matrix of the census state.

    A census over the whole space (m = n^2 packed entries) shifts by
    d = 0 only.  On the trace-0 slice (m = n^2 - 1) it shifts by every d.
    Only diagonal entries depend on d, and entry (n, n) is the least
    significant, so id(B + dI) = c * card + T[d, key], where c is the
    census id and key packs the first n - 1 diagonal entries v_i of B:
    T[d, key] is the sum of place_i * (add(v_i, d) - v_i) over them, plus
    add(v_nn, d), where add is the ring's addition, v_nn = -(v_1 + ...)
    in the ring, and place_i is the place value of v_i in a matrix id.
    add runs on the digits of the pairs T needs, so no |A| x |A| table
    is built.
    """
    card, n2 = ctx.cardinality, n * n
    if m == n2:
        return lambda ids: ids[None, :]
    mod, per = ctx._digit_base()
    powers = mod ** np.arange(per)
    digits = np.arange(card)[:, None] // powers % mod  # row u: the digits of u

    def add(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u + v in the ring, for index arrays u and v that broadcast."""
        return (digits[u] + digits[v]) % mod @ powers

    d = np.arange(card)[:, None]  # every shift, down the rows of T
    neg = -digits % mod @ powers
    diag = [i * (n + 1) for i in range(n - 1)]  # the packed diagonal entries
    keys = np.arange(card ** (n - 1))
    shift = np.zeros((card, keys.size), dtype=np.int64)
    total = np.zeros(keys.size, dtype=np.int64)  # sum of the v_i, in the ring
    for i, entry in enumerate(diag):
        v = keys // card ** (n - 2 - i) % card
        shift += card ** (n2 - 1 - entry) * (add(d, v) - v)
        total = add(total, v)
    shift += add(d, neg[total])
    places = [card ** (m - 1 - entry) for entry in diag]

    def shifted(ids: np.ndarray) -> np.ndarray:
        key = np.zeros_like(ids)
        for place in places:
            key = key * card + ids // place % card
        return ids * card + shift[:, key]

    return shifted


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values of keys, the position in keys of one of
    each); several times faster than np.unique."""
    order = np.argsort(keys)
    keys = keys[order]
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep], order[keep]


def _check_orbit_sizes(ctx: RingCtx, n: int, sizes) -> None:
    """Orbit-stabilizer: every orbit size divides |GL_n(ctx)|."""
    order = group_order(ctx, n)
    bad = [s for s in sizes if order % s]
    if bad:
        raise VerificationFailed(
            f"orbit size {bad[0]} over {ctx.descriptor} does not divide |GL_{n}| = {order}"
        )


def _mark(visited: np.ndarray, idx: np.ndarray) -> None:
    visited[idx] = True


def _first_unvisited(visited: np.ndarray, start: int) -> int | None:
    """The least unvisited index, scanning from start on, whose
    predecessors must all be visited; None once every index is."""
    while start < visited.size:
        chunk = visited[start : start + 8 * BLOCK]
        first = int(chunk.argmin())
        if not chunk[first]:
            return start + first
        start += chunk.size
    return None


# ----------------------------------------------------------------------
# cosets of the congruence kernel


def _rref(rows: np.ndarray, q: int, inv) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms over F_q of a stack of (R x D) matrices.

    Returns (C, pivots): pivots (K, D) marks each form's pivot columns,
    and column c of C[k] (D x D) is the row of form k whose pivot is c
    (0 where c is no pivot), so t - C[k] t, mod q, subtracts from t the
    rows that zero its pivot coordinates.  inv maps an array of nonzero
    residues to their inverses.
    """
    m = rows % q
    K, R, D = m.shape
    rank = np.zeros(K, dtype=np.int64)
    pivots = np.zeros((K, D), dtype=bool)
    for c in range(D):
        live = (m[:, :, c] != 0) & (np.arange(R) >= rank[:, None])
        k = np.flatnonzero(live.any(axis=1))
        if not k.size:
            continue
        src, dst = live[k].argmax(axis=1), rank[k]
        row = m[k, src]
        m[k, src] = m[k, dst]
        row = row * inv(row[:, c])[:, None] % q
        factor = m[k, :, c]
        factor[np.arange(k.size), dst] = 0
        mk = m[k]
        mk -= factor[:, :, None] * row[:, None, :]
        mk %= q
        mk[np.arange(k.size), dst] = row
        m[k] = mk
        pivots[k, c] = True
        rank[k] += 1
    forms = np.zeros((K, D, D), dtype=np.int64)
    kk, cc = np.nonzero(pivots)
    forms[kk, :, cc] = m[kk, (np.cumsum(pivots, axis=1) - 1)[kk, cc]]
    return forms, pivots


class _Cosets:
    """The least members of the cosets of the congruence kernel.

    For l >= 2 the kernel K = I + pi^(l-1) M_n(A) of reduction mod
    pi^(l-1) is normal in GL_n(A), and the K-orbit of a matrix a is the
    coset a + pi^(l-1) W, where W = im(ad r) in M_n(F_q) for the residue
    r of a: (I + pi^(l-1) X) a (I - pi^(l-1) X) = a + pi^(l-1) (X r - r X),
    as pi^(2l-2) = 0.  Over a length-1 ring the kernel is trivial and so
    is W: the residue modulus `res` is then 1, and every state has key 0,
    the zero matrix, whose W is 0.  Settling is then the identity, and
    reduce, settle, least and decode skip it: through the tables, a
    length-1 census takes several times as long.

    States of m packed entries (the census states of _embedding) are
    handled as arrays of entries, shape (N, m).  An entry is low + P t
    with P = pi^(l-1) packed, low < P and t < q its top digit; adding
    pi^(l-1) y adds y to t mod q and leaves low alone.  The states of a
    coset share their low parts and residue, and differ in their top
    digits by exactly the vectors of W.  As states are ordered
    lexicographically by entries, first entry most significant, the least
    member has the lexicographically least top digits in t + W: t minus
    the rows of the RREF of W (pivots leftmost) that zero t's pivot
    coordinates.  W is trace-0, so no pivot is the (n, n) entry that the
    trace-0 slice leaves out, and the slice's reduction is the first m
    coordinates of the full one.

    keys are the residues covered, sorted, by default every one: the
    residue of a state, as a state of F_q (`res`-adic over its m
    entries), is its row of the tables, or, with keys, its position in
    them.  Over the census each state's coset has a dense index (see
    count), which settle gives: the one way from a state to its coset,
    for the flood and for the labels alike.
    """

    def __init__(self, ctx: RingCtx, n: int, m: int, keys: np.ndarray | None = None):
        q, self.card, self.m = ctx.q, ctx.cardinality, m
        self.q, self.top = q, ctx.pi_pow_raw(ctx.length - 1)
        self.res = res = q if ctx.length > 1 else 1
        self.keys = keys
        keys = np.arange(res**m) if keys is None else keys
        desc = np.arange(m - 1, -1, -1)
        self.res_place, self.low_place, self.place = res**desc, self.top**desc, self.card**desc
        self.full_place = self.card ** np.arange(n * n - 1, -1, -1)
        field = ctx.truncated(1)

        def inv(values):
            distinct, back = np.unique(values, return_inverse=True)
            return np.array([field.inv_raw(int(a)) for a in distinct])[back]

        # the residue's entries from its census entries
        embed = _embedding(field, n) if m < n * n else np.eye(m, dtype=np.int64)
        # the narrowest type that holds a form's products with top digits
        dtype = np.min_scalar_type(n * n * (q - 1) ** 2)
        eye = np.eye(n, dtype=np.int64)
        forms, pivots = [], []
        for i in range(0, keys.size, _RREF_BLOCK):
            digits = keys[i : i + _RREF_BLOCK, None] // self.res_place % res
            r = (digits @ embed.T % q).reshape(-1, n, n)
            # row (i, j) of ad r: r E_ij - E_ij r, entry (a, b)
            ad = np.einsum("kai,jb->kijab", r, eye) - np.einsum("ai,kjb->kijab", eye, r)
            f, piv = _rref(ad.reshape(-1, n * n, n * n), q, inv)
            forms.append(f.astype(dtype))
            pivots.append(piv)
        self.full_forms, pivots = np.concatenate(forms), np.concatenate(pivots)
        self.forms = np.ascontiguousarray(self.full_forms[:, :m, :m])
        self.rank = pivots.sum(axis=1)
        self.free = ~pivots[:, :m]  # the non-pivot coordinates, for count

    def entries(self, ids: np.ndarray, place: np.ndarray | None = None) -> np.ndarray:
        """The (N, d) packed entries of the states with ids, whose entries
        have place values place (by default the census states')."""
        v = ids[:, None] // (self.place if place is None else place)
        v -= v // self.card * self.card  # v % card, dividing as _conjugator does
        return v

    def rows(self, v: np.ndarray) -> np.ndarray:
        """Table rows of the residues of the states with entries v.  A
        residue outside keys raises VerificationFailed."""
        code = (v % self.res) @ self.res_place
        if self.keys is None:
            return code
        rows = np.searchsorted(self.keys, code)
        if (self.keys.take(rows, mode="clip") != code).any():
            raise VerificationFailed("a conjugate's residue left its residue class")
        return rows

    def _settle(self, v: np.ndarray, rows: np.ndarray, forms: np.ndarray) -> np.ndarray:
        top = v // self.top
        t = top - np.matmul(forms[rows], top.astype(forms.dtype)[:, :, None])[:, :, 0]
        t %= self.q
        t -= top
        t *= self.top
        t += v
        return t

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Ids of the least members of the cosets of the states with
        entries v (N, m); over a length-1 ring every coset is one state."""
        if self.top != 1:
            v = self._settle(v, self.rows(v), self.forms)
        return v @ self.place

    def settle(self, v: np.ndarray):
        """(ids, indices): the least members of the cosets of the states
        with entries v (N, m), and the cosets' dense indices (see count);
        over a length-1 ring both are the states' ids."""
        if self.top == 1:
            ids = v @ self.place
            return ids, ids
        rows = self.rows(v)
        v = self._settle(v, rows, self.forms)
        top = v // self.top
        low = (v - top * self.top) @ self.low_place
        return v @ self.place, self.base[low] + (top * self.free_place[rows]).sum(axis=1)

    def least(self, ids: np.ndarray, counts: np.ndarray, shifted):
        """(reps, sizes) of the orbits whose cosets' reps are ids, run by
        run, the runs counts long, for shifted (see _shifter).  reps
        (orbits x shifts) holds the least member of O + dI for each shift
        d, as O + dI is the union of the cosets of B + dI, B a rep in O,
        and ad(r + d) = ad r; sizes are the orbits' sizes, their numbers
        of cosets times q^rank, which is the same for every coset of an
        orbit as their residues are conjugate.  About 2 * BLOCK states
        are settled at a time."""
        orbit = np.repeat(np.arange(counts.size), counts)
        shifts = len(shifted(ids[:1]))
        reps = np.full((counts.size, shifts), np.iinfo(np.int64).max)
        # settling takes some 200 bytes a state, a bare shift 8
        step = max(1, (64 if self.top == 1 else 2) * BLOCK // shifts)
        for i in range(0, ids.size, step):
            full = shifted(ids[i : i + step])
            if self.top != 1:
                rows = np.tile(self.rows(self.entries(ids[i : i + step])), shifts)
                v = self.entries(full.reshape(-1), self.full_place)
                full = (self._settle(v, rows, self.full_forms) @ self.full_place).reshape(shifts, -1)
            chunk = orbit[i : i + step]  # the runs of orbits within this step
            runs = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1])))
            np.minimum.at(reps, chunk[runs], np.minimum.reduceat(full, runs, axis=1).T)
        return reps, counts * self.size(self.entries(ids[np.cumsum(counts) - counts]))

    def size(self, v: np.ndarray) -> np.ndarray:
        """Sizes of the cosets of the states with entries v (N, m)."""
        return self.q ** self.rank[self.rows(v)]

    def count(self) -> int:
        """The number of cosets.  Builds base, which numbers them densely:
        a coset's index is base[L] plus its free (non-pivot) top digits,
        packed base q, where L packs its low parts and base[L] counts the
        cosets of every smaller L, q^(m - rank) each.  A coset's free top
        digit has place q^k, k the number of free coordinates after it."""
        free = self.free
        after = np.cumsum(free[:, ::-1], axis=1)[:, ::-1] - free
        self.free_place = np.where(free, self.q**after, 0)
        lows, step = self.top**self.m, 64 * BLOCK
        self.base = np.zeros(lows + 1, dtype=np.int64)
        for i in range(0, lows, step):
            low = np.arange(i, min(i + step, lows))[:, None] // self.low_place % self.top
            self.base[i + 1 : i + 1 + low.shape[0]] = self.q ** (self.m - self.rank[self.rows(low)])
        np.cumsum(self.base, out=self.base)
        return int(self.base[-1])

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Entries of the least members of the cosets with dense indices idx."""
        if self.top == 1:
            return self.entries(idx)
        low_code = np.searchsorted(self.base, idx, side="right") - 1
        low = low_code[:, None] // self.low_place % self.top
        free = self.free_place[self.rows(low)]
        t = (idx - self.base[low_code])[:, None] // np.maximum(free, 1) % self.q
        return low + self.top * np.where(free > 0, t, 0)


@dataclass
class OrbitCensus:
    """Similarity classes found by orbit flood fill.

    reps are the minimal states, one per orbit, in ascending order;
    sizes are the matching orbit sizes.  labels (optional) maps every
    state to its orbit index.
    """

    ctx: RingCtx
    n: int
    reps: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray | None = None

    def class_count(self, group: str = "M") -> int:
        if group == "M":
            return int(self.reps.size)
        if group != "GL":
            raise BadParams(f"group must be 'M' or 'GL', got {group!r}")
        return sum(1 for r in self.reps if _mat_of(self.ctx, self.n, int(r)).is_invertible())


def _check_caps(**caps):
    """Refuse a cap that is not an int (a float or bool too) or that is
    negative."""
    _check_ints(**caps)
    for name, v in caps.items():
        if v < 0:
            raise BadParams(f"{name} = {v} is negative")


def orbit_census(
    ctx: RingCtx,
    n: int,
    max_states: int = DEFAULT_MAX_STATES,
    want_labels: bool = False,
) -> OrbitCensus:
    """Full orbit census of n x n matrices over ctx, for n in 2, 3.

    want_labels also fills labels, the state -> orbit index array.
    max_states caps the cosets flooded (see _Cosets:
    the census states over a length-1 ring, about q^rank times fewer
    over longer ones); with want_labels it also caps the |A|^(n^2)
    states labelled.  A census whose census states exceed the cap even
    at q^(n^2 - n) states a coset, the most rank(ad r) <= n^2 - n
    allows, is refused before any coset table is built.

    The census floods census states (see _embedding) and shifts each of
    their orbits by every scalar d it shifts by (see _shifter).  When p
    does not divide n, n is a unit and every matrix M is B + dI for one
    trace-0 B and d = tr(M)/n; since g(B + dI)g^-1 = gBg^-1 + dI, the
    orbit of B + dI is O + dI, where O is the orbit of B, and B -> B + dI
    maps O onto O + dI, so |O + dI| = |O|.  So the orbits of the whole
    space are the O + dI, for each orbit O of the trace-0 slice and each
    d in A.  When p divides n the census states are every matrix and the
    only shift is d = 0.

    The slice is certified before any state is flooded.  _check_slice
    checks that the embedding packs exactly the trace-0 matrices
    (P L = I and form L = 0 mod `mod`, which hold only for the true
    embedding) and that every generator fixes the trace (form A = form).
    So conjugation maps the slice to itself, and P A L, which _conjugator
    floods with, is each generator's action on it: P inverts L on the
    trace-0 matrices.  That the shifted orbits are distinct orbits, which
    needs n to be a unit, is checked at the end: no two reps may agree.
    The cover and divisibility checks alone cannot refuse a wrong
    embedding, whose census keeps its sizes summing to |A|^(n^2).

    Each pass floods one orbit O, coset by coset, from the least
    unvisited coset index.  Every orbit is wholly visited or wholly
    unvisited when a pass starts, so the flood claims every coset of O
    exactly once, and |O| is their number times q^rank, the same for
    every coset of O as their residues are conjugate.  The cosets of
    O + dI are those of the B + dI, B a rep of a coset of O, as
    ad(r + d) = ad r; so the least of their reduced ids is the rep of
    O + dI.  Orbit (pass k, shift d) is numbered k * shifts + d; at the
    end the reps are sorted and the labels numbered to match.  A census
    state's label is read from the pass that claimed its coset, whose
    index _Cosets.settle gives, as in the flood.
    """
    _check_size(n)
    _check_caps(max_states=max_states)
    card = ctx.cardinality
    nstates = card ** (n * n)
    embed = _embedding(ctx, n)
    m = embed.shape[1] // ctx._digit_base()[1]  # entries a census state packs
    flooded = card**m
    if want_labels and nstates > max_states:
        raise BudgetExceeded(f"{nstates} states to label over {ctx.descriptor} exceed cap {max_states}")
    # a lower bound on the cosets, before any table is built: the
    # centralizer of a residue r has dimension >= n, so rank(ad r) <= n^2 - n,
    # and a coset holds at most q^(n^2 - n) states (one over a length-1 ring)
    if flooded // ctx.q ** ((n * n - n) * (ctx.length > 1)) > max_states:
        raise BudgetExceeded(f"cosets to flood over {ctx.descriptor} exceed cap {max_states}")
    images, actions = _conjugator(ctx, n, embed)
    _check_slice(ctx, n, actions, embed)
    cosets = _Cosets(ctx, n, m)
    total = cosets.count()
    if total > max_states:
        raise BudgetExceeded(f"{total} cosets to flood over {ctx.descriptor} exceed cap {max_states}")
    shifts, shifted = nstates // flooded, _shifter(ctx, n, m)
    visited = np.zeros(total, dtype=bool)
    owner = np.empty(total, dtype=np.int32) if want_labels else None
    reps, sizes = [], []  # per pass: the least state of O + dI for each d, and |O|
    claimed, ends = [], []  # the reps of the passes whose orbits are not yet summed up

    def neighbours(ids):
        return cosets.settle(images(cosets.entries(ids)))

    def claim(ids, idx):
        fresh = np.flatnonzero(~visited[idx])
        idx, first = _distinct(idx[fresh])
        ids = ids[fresh[first]]
        _mark(visited, idx)
        if owner is not None:
            owner[idx] = passes
        claimed.append(ids)
        return ids

    def sum_up():  # many small orbits at once: one array op per batch
        r, z = cosets.least(np.concatenate(claimed), np.array(ends), shifted)
        reps.append(r)
        sizes.append(z)
        claimed.clear()
        ends.clear()

    seed = passes = 0
    while (seed := _first_unvisited(visited, seed)) is not None:
        held = sum(map(len, claimed))
        _flood(neighbours, claim(cosets.decode(np.array([seed])) @ cosets.place, np.array([seed])), claim)
        ends.append(sum(map(len, claimed)) - held)
        passes += 1
        if held >= 8 * BLOCK:
            sum_up()
    if ends:
        sum_up()
    reps, sizes = np.concatenate(reps).ravel(), np.repeat(np.concatenate(sizes), shifts)
    if int(sizes.sum()) != nstates:
        raise VerificationFailed(
            f"orbits over {ctx.descriptor} cover {int(sizes.sum())} of {nstates} states"
        )
    _check_orbit_sizes(ctx, n, sizes.tolist())
    order = np.argsort(reps)
    reps = reps[order]
    if (reps[1:] == reps[:-1]).any():
        raise VerificationFailed(f"two shifted orbits over {ctx.descriptor} meet")
    labels = None
    if want_labels:
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        labels = np.empty(nstates, dtype=np.int32)
        ds = np.arange(shifts)[:, None]
        for i in range(0, flooded, 4 * BLOCK):
            ids = np.arange(i, min(i + 4 * BLOCK, flooded))
            idx = cosets.settle(cosets.entries(ids))[1]
            labels[shifted(ids)] = rank[owner[idx] * shifts + ds]
    return OrbitCensus(ctx, n, reps, sizes[order], labels)


def _orbit_states(m: Mat, max_orbit: int = 10_000_000) -> tuple[np.ndarray, int]:
    """(reps, size): the sorted ids of the least members of the kernel
    cosets (see _Cosets) that make up the conjugation orbit of m, and the
    orbit's size.  max_orbit caps the cosets."""
    _check_caps(max_orbit=max_orbit)
    ctx, n = m.ctx, m.n
    images, _ = _conjugator(ctx, n)  # refuses rings too large to pack first
    # the residues of the orbit are the class of m's residue over F_q
    keys = _orbit_states(m.residue(), max_orbit)[0] if ctx.length > 1 else None
    cosets = _Cosets(ctx, n, n * n, keys)
    v = np.array([m.vals], dtype=np.int64)
    seen = cosets.reduce(v)

    def neighbours(ids):
        return (cosets.reduce(images(cosets.entries(ids))),)

    def claim(ids):  # one BFS level: one merge into seen
        nonlocal seen
        ids = _distinct(ids)[0]
        pos = np.searchsorted(seen, ids)
        new = seen.take(pos, mode="clip") != ids
        if seen.size + int(new.sum()) > max_orbit:
            raise BudgetExceeded(f"orbit exceeds cap {max_orbit}")
        fresh = ids[new]
        seen = np.insert(seen, pos[new], fresh)
        return fresh

    _flood(neighbours, seen, claim)
    size = seen.size * int(cosets.size(v)[0])
    _check_orbit_sizes(ctx, n, [size])
    return seen, size


def orbit_of(m: Mat, max_orbit: int = 10_000_000) -> tuple[int, Mat]:
    """(orbit size, lexicographically least orbit member) of m.

    max_orbit caps the kernel cosets flooded (see _Cosets), which are
    q^rank(ad r) times fewer than the orbit's states, r the residue of m.
    """
    reps, size = _orbit_states(m, max_orbit)
    return size, _mat_of(m.ctx, m.n, int(reps[0]))


def verify_counts(ctx: RingCtx, n: int, max_states: int = DEFAULT_MAX_STATES) -> dict:
    """Cross-check the orbit census against every other count of classes.

    For both matrix groups, compares the orbit count with the closed
    formula and the number of forms the enumeration streamed; a stream
    that refuses its count leaves its VerificationFailed message in the
    row's "error" (None otherwise).  Also samples _SAMPLES uniformly
    random states, from the seed _SEED, and checks each one gets the
    same canonical form as the least member of its orbit: a census orbit
    drawn with probability proportional to its size, its rep conjugated
    by a uniformly random invertible g.
    Each sampled orbit's size times its rep's centralizer order must be
    |GL_n|, or VerificationFailed is raised.  mismatches is 0 exactly
    when everything agrees.
    """
    census = orbit_census(ctx, n, max_states=max_states)  # checks n and max_states first
    count_fn = count2 if n == 2 else count3
    report = {"ring": ctx.descriptor, "n": n, "counts": [], "mismatches": 0}
    for group in ("M", "GL"):
        oracle_ct = census.class_count(group)
        formula = count_fn(ctx.q, ctx.length, group)
        enumerated, error = 0, None
        try:
            for _ in _enumerate(ctx, n, group):
                enumerated += 1
        except VerificationFailed as exc:  # the stream refused its count
            error = str(exc)
        ok = error is None and oracle_ct == formula == enumerated
        report["counts"].append(
            {"group": group, "oracle": oracle_ct, "formula": formula,
             "enumerated": enumerated, "match": ok, "error": error}
        )
        if not ok:
            report["mismatches"] += 1
    rng = random.Random(_SEED)
    card, order = ctx.cardinality, group_order(ctx, n)
    ends = np.cumsum(census.sizes)  # orbit i holds the draws in [ends[i-1], ends[i])
    agreed = 0
    for _ in range(_SAMPLES):
        i = int(np.searchsorted(ends, rng.randrange(card ** (n * n)), side="right"))
        rep, size = _mat_of(ctx, n, int(census.reps[i])), int(census.sizes[i])
        cent = centralizer_order(rep)
        if size * cent != order:
            raise VerificationFailed(
                f"an orbit of {size} states over {ctx.descriptor} has centralizer order "
                f"{cent}, but |GL_{n}| = {order}"
            )
        while True:
            g = Mat(ctx, n, [rng.randrange(card) for _ in range(n * n)])
            if g.is_invertible():
                break
        if canon(rep.conjugate_by(g)) == canon(rep):
            agreed += 1
    report["canon_samples"] = _SAMPLES
    report["canon_agreements"] = agreed
    if agreed != _SAMPLES:
        report["mismatches"] += _SAMPLES - agreed
    return report
