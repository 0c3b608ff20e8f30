"""Brute-force conjugation-orbit oracle.

Independent cross-check for the canonical forms and counting formulas:
pack n x n matrices over the ring as integer states, then flood-fill
conjugation orbits under a generating set of GL_n: E_12(1), the n-cycle
permutation matrix and diag(u, 1, ..., 1) for each generator u of the
ring's unit group, 2 + |units| matrices (see _gl_generators for why they
generate the whole group).  One kernel serves the census (visited
states in a bitmap) and single orbits (a sorted array).

Only the generators act, not their inverses: in a finite group
g^-1 = g^(ord g - 1), so the forward closure of a state is its whole
orbit.  Each orbit size must divide the group order (orbit-stabilizer)
and a census must cover every state, or VerificationFailed is raised.

When p does not divide n the census floods only the trace-0 matrices,
the slice, which is |A| times smaller than the whole space (Z/8 at
n = 3: 2^24 of 2^27 states).  n is then a unit, so every matrix is
uniquely B + dI with tr B = 0, and g(B + dI)g^-1 = gBg^-1 + dI: each
orbit O of the slice gives the |A| orbits O + dI, each of size |O|.
A slice state packs the n^2 - 1 entries other than (n, n), which is
minus the sum of the other diagonal entries.  When p divides n the
slice holds the scalars and is no complement to them, so the census
floods every matrix, with the single shift d = 0, in the same loop.
Single orbits (_orbit_states) always act on whole matrices.

States pack the entries row-major, first entry most significant, so
numeric order on states is lexicographic order on entry tuples; a slice
state's id is its matrix's id // |A|.  The ring says how its packed
values split into digits: each entry is `per` base-`mod` digits, the
pair (mod, per) of RingCtx._digit_base, and ring addition adds them
digit by digit mod `mod`.  Digit s of entry k has place value
card^(m-1-k) * mod^s for m packed entries, so decoding is
(ids // place) % mod and encoding is place @ digits, exact in int64.
A ring and size whose ids or matmul sums would not fit raise
BudgetExceeded before any state is packed.
Conjugation is linear in the digits, and the actions of all generators
are stacked into one (k*dim x dim) matrix: one matmul per block.  On the
slice a generator acts by P A L, with A its action on matrix digits, L
embedding the slice's digits and P dropping entry (n, n).  Both
reductions mod `mod` (the digits of the ids and the matmul output) are
written x - (x // mod) * mod, which equals x % mod because every x is
>= 0; numpy divides by a scalar with libdivide's multiply-and-shift,
but computes % with one hardware division per element.

Each census pass floods one orbit, from the least unvisited state,
which is the least member of its orbit.  Reps are the least matrices of
their orbits: the claims keep, for each d, the least id of B + dI over
the states B they claim, read off one (|A| x |A|^(n-1)) table (see
_shifter).  The trace is linear in the digits (see _trace_form), so one
check on the generators' action matrices proves it a conjugation
invariant, and one on the embedding proves that the slice is the
trace-0 matrices (see _check_slice).

Frontiers are expanded BLOCK = 1024 states at a time, and claimed one
BFS level at a time: a level's images are sorted once, and _orbit_states
merges them into its sorted array once.  A census's peak memory is its
bitmap, its labels and its widest level's images.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# simclass's modules first: without a bytecode cache, compiling them after numpy raises peak RSS
from .canon3 import canon
from .census import _check_ints, _enumerate, count2, count3
from .errors import BadParams, BudgetExceeded, CtxMismatch, VerificationFailed
from .matrix import Mat, diag, elementary
from .modsolve import centralizer_order, group_order
from .ring import RingCtx

import numpy as np

__all__ = ["OrbitCensus", "orbit_census", "orbit_of", "verify_counts"]

DEFAULT_MAX_STATES = 2**28
BLOCK = 1024
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


def _state_of(m: Mat) -> int:
    card = m.ctx.cardinality
    s = 0
    for v in m.vals:
        s = s * card + v
    return s


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
    """(images, actions): the function mapping census state ids to their
    conjugates by every generator, and the generators' actions on digits.

    Census states pack the digits that embed (see _embedding; by default
    I, every entry) maps to their matrices' digits.  For ids of shape
    (B,) images returns the k * B image ids, generator by generator, where
    k = len(_gl_generators(ctx, n)): the action of g on census digits is
    P A_g L mod `mod`, with A_g its action on matrix digits, L = embed
    and P dropping the digits a census state does not pack.  actions
    stacks the k (dim x dim) matrices A_g, as int64.
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
    place = np.array(
        [card ** (sdim // per - 1 - i // per) * mod ** (i % per) for i in range(sdim)],
        dtype=np.int64,
    )
    gens = _gl_generators(ctx, n)
    actions = np.array([_conj_action(ctx, n, g, mod, per) for g in gens], dtype=np.int64)
    # float64 only for the matmul, where BLAS is several times faster than
    # numpy's int64 loop; it is exact, as every sum is below sdim * mod^2
    rows = len(gens) * sdim
    stacked = ((actions @ embed)[:, :sdim] % mod).reshape(rows, sdim).astype(np.float64)
    # reused across blocks: fresh arrays this size cost a page fault per page
    fbuf = np.empty(rows * BLOCK)
    ibuf = np.empty(rows * BLOCK, dtype=np.int64)
    qbuf = np.empty(max(rows, sdim) * BLOCK, dtype=np.int64)
    dbuf = np.empty(sdim * BLOCK, dtype=np.int64)

    def reduce(x: np.ndarray) -> None:
        """x %= mod in place, for x >= 0, as x - (x // mod) * mod."""
        quot = qbuf[: x.size].reshape(x.shape)
        np.floor_divide(x, mod, out=quot)
        quot *= mod
        x -= quot

    def images(ids: np.ndarray) -> np.ndarray:
        digits = dbuf[: sdim * ids.size].reshape(sdim, ids.size)
        prod = fbuf[: rows * ids.size].reshape(rows, ids.size)
        img = ibuf[: rows * ids.size].reshape(rows, ids.size)
        np.floor_divide(ids[None, :], place[:, None], out=digits)
        reduce(digits)
        np.matmul(stacked, digits, out=prod)
        img[...] = prod
        reduce(img)
        return (place @ img.reshape(len(gens), sdim, ids.size)).ravel()

    return images, actions


def _flood(images, frontier: np.ndarray, claim) -> None:
    """Visit every state reachable from frontier, which is already claimed.

    images runs BLOCK states at a time; claim(ids) gets one BFS level's
    images at once, marks the not yet visited states among them as
    visited and returns them, distinct: the next level.
    """
    while frontier.size:
        frontier = claim(
            np.concatenate([images(frontier[i : i + BLOCK]) for i in range(0, frontier.size, BLOCK)])
        )


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


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ids; several times faster than np.unique."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


def _check_orbit_sizes(ctx: RingCtx, n: int, sizes) -> None:
    """Orbit-stabilizer: every orbit size divides |GL_n(ctx)|."""
    order = group_order(ctx, n)
    bad = [s for s in sizes if order % s]
    if bad:
        raise VerificationFailed(
            f"orbit size {bad[0]} over {ctx.descriptor} does not divide |GL_{n}| = {order}"
        )


def _set_bits(bitmap: np.ndarray, ids: np.ndarray):
    np.bitwise_or.at(bitmap, ids >> 3, (1 << (ids & 7)).astype(np.uint8))


def _unvisited_mask(bitmap: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return (bitmap[ids >> 3] & (1 << (ids & 7)).astype(np.uint8)) == 0


def _first_unvisited(bitmap: np.ndarray, byte: int) -> int | None:
    """The least unvisited state, scanning BLOCK bytes at a time from byte
    on, whose predecessors must be full; None once every state is
    visited."""
    while byte < bitmap.size:
        open_bytes = np.flatnonzero(bitmap[byte : byte + BLOCK] != 0xFF)
        if open_bytes.size:
            byte += int(open_bytes[0])
            clear = ~int(bitmap[byte]) & 0xFF
            return byte * 8 + (clear & -clear).bit_length() - 1
        byte += BLOCK
    return None


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

    def index_of(self, m: Mat) -> int:
        if m.ctx != self.ctx or m.n != self.n:
            raise CtxMismatch(
                f"census of {self.n}x{self.n} over {self.ctx} cannot index {m.n}x{m.n} over {m.ctx}"
            )
        if self.labels is None:
            raise BadParams("census was built without labels")
        return int(self.labels[_state_of(m)])


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

    want_labels also fills the state -> orbit index array that
    `index_of` reads.  max_states caps the states flooded, |A|^(n^2 - 1)
    when p does not divide n and |A|^(n^2) otherwise; with want_labels
    it also caps the |A|^(n^2) states labelled.

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

    Each pass floods one orbit O from the least unvisited state.  Every
    orbit is wholly visited or wholly unvisited when a pass starts, so
    that seed is the least member of O, and the flood claims every member
    of O exactly once.  The least member of O + dI is the least id of
    B + dI over B in O, as B -> B + dI maps O onto O + dI, so the minimum
    over the pass's claimed batches, taken for each d, is the rep of
    O + dI.  Orbit (pass k, shift d) is numbered k * shifts + d while it
    is flooded; at the end the reps are sorted and the labels renumbered
    to match.
    """
    if type(n) is not int or n not in (2, 3):
        raise BadParams(f"matrix size must be 2 or 3, got {n!r}")
    _check_caps(max_states=max_states)
    card = ctx.cardinality
    nstates = card ** (n * n)
    embed = _embedding(ctx, n)
    m = embed.shape[1] // ctx._digit_base()[1]  # entries a census state packs
    flooded = card**m
    if flooded > max_states or (want_labels and nstates > max_states):
        what = f"{flooded} states to flood" + (f" and {nstates} to label" if want_labels else "")
        raise BudgetExceeded(f"{what} over {ctx.descriptor} exceed cap {max_states}")
    images, actions = _conjugator(ctx, n, embed)
    _check_slice(ctx, n, actions, embed)
    shifts, shifted = nstates // flooded, _shifter(ctx, n, m)
    bitmap = np.zeros((flooded + 7) // 8, dtype=np.uint8)
    pad = flooded % 8
    if pad:  # mark the phantom tail bits of the last byte as used
        bitmap[-1] = (0xFF << pad) & 0xFF
    labels = np.full(nstates, -1, dtype=np.int32) if want_labels else None
    reps, sizes = [], []  # per pass: the least state of O + dI for each d, and |O|
    ds = np.arange(shifts)[:, None]
    top = np.iinfo(np.int64).max

    def claim(ids):
        nonlocal count
        ids = _distinct(ids[_unvisited_mask(bitmap, ids)])
        _set_bits(bitmap, ids)
        count += ids.size
        full = shifted(ids)
        np.minimum(least, full.min(axis=1, initial=top), out=least)
        if labels is not None:
            labels[full] = len(sizes) * shifts + ds
        return ids

    seed = 0
    while (seed := _first_unvisited(bitmap, seed >> 3)) is not None:
        count, least = 0, np.full(shifts, top)
        _flood(images, claim(np.array([seed])), claim)
        reps.append(least)
        sizes.append(count)
    reps, sizes = np.concatenate(reps), np.repeat(sizes, shifts)
    if int(sizes.sum()) != nstates:
        raise VerificationFailed(
            f"orbits over {ctx.descriptor} cover {int(sizes.sum())} of {nstates} states"
        )
    _check_orbit_sizes(ctx, n, sizes.tolist())
    order = np.argsort(reps)
    reps = reps[order]
    if (reps[1:] == reps[:-1]).any():
        raise VerificationFailed(f"two shifted orbits over {ctx.descriptor} meet")
    if labels is not None:
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size)
        labels = rank[labels]
    return OrbitCensus(ctx, n, reps, sizes[order], labels)


def _orbit_states(m: Mat, max_orbit: int = 10_000_000) -> np.ndarray:
    """Sorted state ids of the conjugation orbit of m."""
    _check_caps(max_orbit=max_orbit)
    images, _ = _conjugator(m.ctx, m.n)  # refuses rings too large to pack first
    seen = np.array([_state_of(m)], dtype=np.int64)

    def claim(ids):  # one BFS level: one merge into seen
        nonlocal seen
        ids = _distinct(ids)
        pos = np.searchsorted(seen, ids)
        new = seen.take(pos, mode="clip") != ids
        if seen.size + int(new.sum()) > max_orbit:
            raise BudgetExceeded(f"orbit exceeds cap {max_orbit}")
        fresh = ids[new]
        seen = np.insert(seen, pos[new], fresh)
        return fresh

    _flood(images, seen, claim)
    _check_orbit_sizes(m.ctx, m.n, [seen.size])
    return seen


def orbit_of(m: Mat, max_orbit: int = 10_000_000) -> tuple[int, Mat]:
    """(orbit size, lexicographically least orbit member) of m."""
    states = _orbit_states(m, max_orbit)
    return int(states.size), _mat_of(m.ctx, m.n, int(states[0]))


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
    if n not in (2, 3):
        raise BadParams("counts are implemented for n in {2, 3}")
    _check_caps(max_states=max_states)
    count_fn = count2 if n == 2 else count3
    census = orbit_census(ctx, n, max_states=max_states)
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
