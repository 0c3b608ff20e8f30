"""Brute-force conjugation-orbit oracle.

Independent cross-check for the canonical forms and counting formulas:
enumerate every n x n matrix over the ring as a packed integer state,
then flood-fill conjugation orbits under a generating set of GL_n:
E_12(1), the n-cycle permutation matrix and diag(u, 1, ..., 1) for each
generator u of the ring's unit group, 2 + |units| matrices (see
gl_generators for why they generate the whole group).  One kernel
serves the whole-ring census (visited states in a bitmap) and single
orbits (a sorted array).

Only the generators act, not their inverses: in a finite group
g^-1 = g^(ord g - 1), so the forward closure of a state is its whole
orbit.  Each orbit size must divide the group order (orbit-stabilizer)
and a census must cover every state, or VerificationFailed is raised.

States pack the entries row-major, first entry most significant, so
numeric order on states is lexicographic order on entry tuples.  Each
entry is one digit mod p^length ("z") or length digits mod p ("t");
digit s of entry k has place value card^(n^2-1-k) * mod^s, so decoding
is (ids // place) % mod and encoding is place @ digits, exact in int64.
A ring and size whose ids or matmul sums would not fit raise
BudgetExceeded before any state is packed.
Conjugation is linear in the digits, and the actions of all generators
are stacked into one (k*dim x dim) matrix: one matmul per block.  Both
reductions mod `mod` (the digits of the ids and the matmul output) are
written x - (x // mod) * mod, which equals x % mod because every x is
>= 0; numpy divides by a scalar with libdivide's multiply-and-shift,
but computes % with one hardware division per element.

The census seeds by trace.  Each pass reads the least unvisited states
and floods, together, the least state of each trace among them; the
trace is a conjugation invariant, so these seeds lie in distinct orbits
and each is its orbit's least member (see orbit_census).  A ring with
many small orbits thus takes one pass per orbit of its most crowded
trace, not one per orbit.  The trace is linear in the digits, so one
check on the generators' action matrices proves it invariant for every
state, and it costs two table lookups per state (see _trace_key).

Frontiers are expanded BLOCK = 1024 states at a time, so a census's peak
memory is bounded by its bitmap and labels, not by its widest frontier
(t:2:2 at n = 3: +7 MB, against +13.5 MB unblocked).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .canon3 import canon
from .census import _enumerate, count2, count3
from .errors import BadParams, BudgetExceeded, CtxMismatch, VerificationFailed
from .matrix import Mat, diag, elementary
from .modsolve import group_order
from .ring import RingCtx

__all__ = [
    "group_order",
    "unit_group_generators",
    "gl_generators",
    "state_of",
    "mat_of",
    "OrbitCensus",
    "orbit_census",
    "orbit_states",
    "orbit_of",
    "verify_counts",
]

DEFAULT_MAX_STATES = 2**28
BLOCK = 1024
WINDOW = 1024  # least unvisited states read per census pass


def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return sorted(out)


def _primitive_root(card: int, p: int, phi: int) -> int:
    """Smallest unit of multiplicative order phi modulo card."""
    factors = _prime_factors(phi)
    for g in range(2, card):
        if g % p == 0:
            continue
        if all(pow(g, phi // f, card) != 1 for f in factors):
            return g
    raise VerificationFailed(f"no unit of order {phi} modulo {card}")


def unit_group_generators(ctx: RingCtx):
    """Raw packed values generating the unit group of ctx."""
    p, length, card = ctx.p, ctx.length, ctx.cardinality
    if ctx.flavor == "z":
        if p == 2:
            if length == 1:
                return []
            if length == 2:
                return [3]
            return [card - 1, 5]  # {-1} x <5> is the whole 2-adic unit group
        return [_primitive_root(card, p, (p - 1) * p ** (length - 1))]
    gens = []
    if p > 2:
        gens.append(_primitive_root(p, p, p - 1))
    # 1 + pi^s filtration generators for the 1-units
    gens.extend(1 + p**s for s in range(1, length))
    return gens


def gl_generators(ctx: RingCtx, n: int):
    """Generators of GL_n(ctx): E_12(1), the n-cycle and diag(u, 1, ..., 1).

    u runs over unit_group_generators(ctx); for n = 1 only the diagonal
    ones are returned.  They generate the whole group: conjugating
    E_12(1) by the n-cycle gives every E_{i,i+1}(1), and the commutators
    [E_ij(1), E_jk(1)] = E_ik(1) give every E_ij(1).  Conjugating by
    diag(u) gives E_1j(u) for every unit u, and in a local ring every x
    is a sum of units (x = (x + 1) - 1 when x is not one), so every
    E_ij(x) is reached.  GL_n of a local ring is the elementary group
    times the diagonal matrices.
    """
    gens = []
    if n > 1:
        cycle = [0] * (n * n)
        for i in range(n):
            cycle[i * n + (i + 1) % n] = 1
        gens += [elementary(ctx, n, 1, 2, 1), Mat(ctx, n, cycle)]
    for u in unit_group_generators(ctx):
        gens.append(diag(ctx, [u] + [1] * (n - 1)))
    return gens


# ----------------------------------------------------------------------
# state packing


def state_of(m: Mat) -> int:
    card = m.ctx.cardinality
    s = 0
    for v in m.vals:
        s = s * card + v
    return s


def mat_of(ctx: RingCtx, n: int, state: int) -> Mat:
    card = ctx.cardinality
    vals = []
    for _ in range(n * n):
        vals.append(state % card)
        state //= card
    return Mat(ctx, n, vals[::-1])


def _digit_base(ctx: RingCtx) -> tuple[int, int]:
    """(mod, per): each entry of a state is per base-mod digits."""
    return (ctx.cardinality, 1) if ctx.flavor == "z" else (ctx.p, ctx.length)


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


def _conjugator(ctx: RingCtx, n: int):
    """(images, actions): the function mapping state ids to their
    conjugates by every generator, and the generators' actions on digits.

    For ids of shape (B,) images returns the k * B image ids, generator
    by generator, where k = len(gl_generators(ctx, n)); actions stacks
    the k (dim x dim) action matrices, as float64.
    """
    card, n2 = ctx.cardinality, n * n
    mod, per = _digit_base(ctx)
    # state ids, below card^(n^2), must fit int64, and the float64 matmul
    # is exact only while every sum, below dim * mod^2, stays below 2^53
    if card**n2 > 2**63 or n2 * per * mod**2 > 2**53:
        raise BudgetExceeded(
            f"{n}x{n} states over {ctx.descriptor} are too large for the exact int64 kernel"
        )
    dim = n2 * per
    place = np.array(
        [card ** (n2 - 1 - i // per) * mod ** (i % per) for i in range(dim)], dtype=np.int64
    )
    gens = gl_generators(ctx, n)
    # float64 only for the matmul, where BLAS is several times faster than
    # numpy's int64 loop; it is exact, as every sum is below dim * mod^2.
    # GL_1(F_2) is trivial and has no generators: then there are no rows
    actions = [_conj_action(ctx, n, g, mod, per) for g in gens]
    actions = np.concatenate([np.empty((0, dim))] + actions).astype(np.float64)
    rows = actions.shape[0]
    # reused across blocks: fresh arrays this size cost a page fault per page
    fbuf = np.empty(rows * BLOCK)
    ibuf = np.empty(rows * BLOCK, dtype=np.int64)
    qbuf = np.empty(max(rows, dim) * BLOCK, dtype=np.int64)
    dbuf = np.empty(dim * BLOCK, dtype=np.int64)

    def reduce(x: np.ndarray) -> None:
        """x %= mod in place, for x >= 0, as x - (x // mod) * mod."""
        quot = qbuf[: x.size].reshape(x.shape)
        np.floor_divide(x, mod, out=quot)
        quot *= mod
        x -= quot

    def images(ids: np.ndarray) -> np.ndarray:
        digits = dbuf[: dim * ids.size].reshape(dim, ids.size)
        prod = fbuf[: rows * ids.size].reshape(rows, ids.size)
        img = ibuf[: rows * ids.size].reshape(rows, ids.size)
        np.floor_divide(ids[None, :], place[:, None], out=digits)
        reduce(digits)
        np.matmul(actions, digits, out=prod)
        img[...] = prod
        reduce(img)
        return (place @ img.reshape(len(gens), dim, ids.size)).ravel()

    return images, actions


def _flood(images, frontier: np.ndarray, claim) -> None:
    """Visit every state reachable from frontier, which is already claimed.

    claim(ids) marks the not yet visited states among ids as visited and
    returns them, distinct.
    """
    while frontier.size:
        frontier = np.concatenate(
            [claim(images(frontier[i : i + BLOCK])) for i in range(0, frontier.size, BLOCK)]
        )


def _trace_form(ctx: RingCtx, n: int) -> np.ndarray:
    """The (per x dim) 0/1 matrix taking a state's digits to its trace's
    digits, before reduction mod `mod`: it adds digit s of every diagonal
    entry into digit s, which is ring addition in both flavors."""
    per = _digit_base(ctx)[1]
    form = np.zeros((per, n * n * per), dtype=np.int64)
    for i in range(n):
        form[:, i * (n + 1) * per : (i * (n + 1) + 1) * per] = np.eye(per, dtype=np.int64)
    return form


def _trace_key(ctx: RingCtx, n: int, actions: np.ndarray):
    """Function mapping state ids to the packed traces of their matrices.

    The trace is linear in the digits (see _trace_form).  It is checked
    to be a conjugation invariant once, on the generators' actions: every
    action A must satisfy form @ A = form mod `mod`, or VerificationFailed
    is raised.  Then every image has its source's trace, for every state.

    Write id = hi * low + lo, where lo packs the last k entries and
    low = card^k.  With T(hi) the packed trace of the diagonal entries in
    hi, off[hi] = (T(hi) - hi) * low and table[t * low + lo] = t plus the
    diagonal entries in lo, the trace of id is table[off[id // low] + id]:
    two lookups per state, with the ring addition folded into table.  The
    tables hold card^(n^2 - k) and card^(k + 1) entries.
    """
    card, n2 = ctx.cardinality, n * n
    mod, per = _digit_base(ctx)
    form = _trace_form(ctx, n)
    acts = actions.astype(np.int64).reshape(-1, n2 * per, n2 * per)
    if ((form @ acts - form) % mod).any():
        raise VerificationFailed(f"the trace over {ctx.descriptor} is not a conjugation invariant")
    k = (n2 - 1) // 2
    low = card**k
    split = (n2 - k) * per  # digit rows of the high part
    powers = mod ** np.arange(per)

    def sums(part: np.ndarray, count: int) -> np.ndarray:
        """part @ digits, unreduced, for every value of count entries."""
        place = [card ** (count - 1 - i // per) * mod ** (i % per) for i in range(count * per)]
        digits = np.arange(card**count) // np.array(place, dtype=np.int64)[:, None] % mod
        return part @ digits

    high = powers @ (sums(form[:, :split], n2 - k) % mod)
    off = (high - np.arange(high.size)) * low
    digits = np.arange(card) // powers[:, None] % mod  # of every packed trace t
    both = (digits[:, :, None] + sums(form[:, split:], k)[:, None, :]) % mod
    table = powers @ both.reshape(per, -1)
    return lambda ids: table[off[ids // low] + ids]


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


def _window(bitmap: np.ndarray, byte: int):
    """(least unvisited states, index of the byte holding the first one).

    Scans from byte on, whose predecessors must be full.  The states,
    at most WINDOW, come in ascending order, and every unvisited state
    below the largest of them is among them.  (None, bitmap.size) once
    every state is visited.
    """
    while byte < bitmap.size:
        chunk = bitmap[byte : byte + WINDOW]
        open_bytes = np.flatnonzero(chunk != 0xFF)
        if open_bytes.size:
            open_bytes += byte
            clear = np.unpackbits(bitmap[open_bytes], bitorder="little").reshape(-1, 8) == 0
            states = (open_bytes[:, None] * 8 + np.arange(8))[clear]
            return states[:WINDOW], int(open_bytes[0])
        byte += chunk.size
    return None, byte


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
        return sum(1 for r in self.reps if mat_of(self.ctx, self.n, int(r)).is_invertible())

    def rep_mats(self):
        return [mat_of(self.ctx, self.n, int(r)) for r in self.reps]

    def index_of(self, m: Mat) -> int:
        if m.ctx != self.ctx or m.n != self.n:
            raise CtxMismatch(
                f"census of {self.n}x{self.n} over {self.ctx} cannot index {m.n}x{m.n} over {m.ctx}"
            )
        if self.labels is None:
            raise BadParams("census was built without labels")
        return int(self.labels[state_of(m)])


def orbit_census(
    ctx: RingCtx,
    n: int,
    max_states: int = DEFAULT_MAX_STATES,
    want_labels: bool = False,
) -> OrbitCensus:
    """Full orbit census of n x n matrices over ctx, for n in 1, 2, 3.

    want_labels also fills the state -> orbit index array that
    `index_of` reads.

    Each pass floods several orbits at once.  It reads the WINDOW least
    unvisited states (see _window) and seeds, for each trace among them,
    the least state of that trace.  Since the trace is a conjugation
    invariant, the seeds lie in distinct orbits and no two floods meet;
    each claimed state is counted, and labelled, under the seed of its
    trace.  Each seed is also the least state of its orbit: a pass starts
    with every orbit wholly visited or wholly unvisited, so the least
    member of the seed's orbit is unvisited, no larger than the seed and
    of the same trace, and would have been in the window as the least
    state of that trace.  At the end the reps are sorted and the labels
    renumbered to match.  The cover and divisibility checks alone cannot
    refuse a batching key that is not a conjugation invariant: if one
    window holds every state, each state seeds a one-state orbit.  So
    _trace_key checks, on the generators' actions, that every generator
    fixes the trace, before any state is flooded.
    """
    if type(n) is not int or not 1 <= n <= 3:
        raise BadParams(f"matrix size must be 1, 2 or 3, got {n!r}")
    nstates = ctx.cardinality ** (n * n)
    if nstates > max_states:
        raise BudgetExceeded(f"{nstates} states over {ctx.descriptor} exceed cap {max_states}")
    images, actions = _conjugator(ctx, n)
    trace = _trace_key(ctx, n, actions)
    bitmap = np.zeros((nstates + 7) // 8, dtype=np.uint8)
    pad = nstates % 8
    if pad:  # mark the phantom tail bits of the last byte as used
        bitmap[-1] = (0xFF << pad) & 0xFF
    labels = np.full(nstates, -1, dtype=np.int32) if want_labels else None
    reps, sizes = [], []
    found = 0  # orbits seeded in earlier passes
    # the index of each trace's seed in this pass (stale for traces it did
    # not seed, which its floods never reach), and the seeds' orbit sizes
    slot_of = np.zeros(ctx.cardinality, dtype=np.int64)
    counts = None

    def claim(ids):
        ids = _distinct(ids[_unvisited_mask(bitmap, ids)])
        _set_bits(bitmap, ids)
        slot = slot_of[trace(ids)]
        counts[:] += np.bincount(slot, minlength=counts.size)
        if labels is not None:
            labels[ids] = found + slot
        return ids

    byte = 0
    while True:
        window, byte = _window(bitmap, byte)
        if window is None:
            break
        seed_keys, first = np.unique(trace(window), return_index=True)
        slot_of[seed_keys] = np.arange(seed_keys.size)
        seeds = window[first]
        counts = np.zeros(seeds.size, dtype=np.int64)
        _flood(images, claim(seeds), claim)
        reps.append(seeds)
        sizes.append(counts)
        found += seeds.size
    reps, sizes = np.concatenate(reps), np.concatenate(sizes)
    if int(sizes.sum()) != nstates:
        raise VerificationFailed(
            f"orbits over {ctx.descriptor} cover {int(sizes.sum())} of {nstates} states"
        )
    _check_orbit_sizes(ctx, n, sizes.tolist())
    order = np.argsort(reps)
    if labels is not None:
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size)
        labels = rank[labels]
    return OrbitCensus(ctx, n, reps[order], sizes[order], labels)


def orbit_states(m: Mat, max_orbit: int = 10_000_000) -> np.ndarray:
    """Sorted state ids of the conjugation orbit of m."""
    images, _ = _conjugator(m.ctx, m.n)  # refuses rings too large to pack first
    seen = np.array([state_of(m)], dtype=np.int64)

    def claim(ids):
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
    states = orbit_states(m, max_orbit)
    return int(states.size), mat_of(m.ctx, m.n, int(states[0]))


def verify_counts(ctx: RingCtx, n: int, samples: int = 20, seed: int = 0,
                  max_states: int = DEFAULT_MAX_STATES) -> dict:
    """Cross-check the orbit census against every other count of classes.

    For both matrix groups, compares the orbit count with the closed
    formula and the number of forms the enumeration streamed; a stream
    that refuses its count leaves its VerificationFailed message in the
    row's "error" (None otherwise).  Also samples states and checks each
    one gets the same canonical form as the minimal member of its orbit.
    mismatches is 0 exactly when everything agrees.
    """
    if n not in (2, 3):
        raise BadParams("counts are implemented for n in {2, 3}")
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
    rng = random.Random(seed)
    nstates = ctx.cardinality ** (n * n)
    agreed = 0
    for _ in range(samples):
        m = mat_of(ctx, n, rng.randrange(nstates))
        _, rep = orbit_of(m)
        if canon(m) == canon(rep):
            agreed += 1
    report["canon_samples"] = samples
    report["canon_agreements"] = agreed
    if agreed != samples:
        report["mismatches"] += samples - agreed
    return report
