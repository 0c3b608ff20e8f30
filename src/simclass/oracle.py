"""Brute-force conjugation-orbit oracle.

Independent cross-check for the canonical forms and counting formulas:
enumerate every n x n matrix over the ring as a packed integer state,
then flood-fill conjugation orbits under a generating set of the unit
group of matrices.  One kernel serves the whole-ring census (visited
states in a bitmap) and single orbits (a sorted array).

Only the generators act, not their inverses: in a finite group
g^-1 = g^(ord g - 1), so the forward closure of a state is its whole
orbit.  Each orbit size must divide the group order (orbit-stabilizer)
and a census must cover every state, or VerificationFailed is raised.

States pack the entries row-major, first entry most significant, so
numeric order on states is lexicographic order on entry tuples and an
ascending-seed sweep makes every orbit's seed its minimal member.  Each
entry is one digit mod p^length ("z") or length digits mod p ("t");
digit s of entry k has place value card^(n^2-1-k) * mod^s, so decoding
is (ids // place) % mod and encoding is place @ digits, exact in int64.
A ring and size whose ids or matmul sums would not fit raise
BudgetExceeded before any state is packed.
Conjugation is linear in the digits, and the actions of all generators
are stacked into one (k*dim x dim) matrix: one matmul per block.

Frontiers are expanded BLOCK = 1024 states at a time, so a census's peak
memory is bounded by its bitmap and labels, not by its widest frontier
(t:2:2 at n = 3: +7 MB, against +13.5 MB unblocked).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass

import numpy as np

from .canon2 import canon2, count2, enumerate2
from .canon3 import canon3
from .census import count3, enumerate3
from .errors import BadParams, BudgetExceeded, VerificationFailed
from .matrix import Mat, diag, elementary
from .modsolve import group_order
from .ring import RingCtx, parse_ring

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
    "same_class",
    "verify_counts",
    "save_census",
]

DEFAULT_MAX_STATES = 2**28
BLOCK = 1024


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
    raise AssertionError("no generator found")


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


def _additive_generators(ctx: RingCtx):
    if ctx.flavor == "z":
        return [1]
    return [ctx.p**s for s in range(ctx.length)]


def gl_generators(ctx: RingCtx, n: int):
    """Elementary matrices plus one diagonal block per unit generator."""
    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.extend(elementary(ctx, n, i, j, g) for g in _additive_generators(ctx))
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
    """Function mapping state ids to their conjugates by every generator.

    For ids of shape (B,) it returns the k * B image ids, generator by
    generator, where k = len(gl_generators(ctx, n)).
    """
    card, n2 = ctx.cardinality, n * n
    mod, per = (card, 1) if ctx.flavor == "z" else (ctx.p, ctx.length)
    # state ids, below card^(n^2), must fit int64, and the float64 matmul
    # is exact only while every sum, below dim * mod^2, stays below 2^53
    if card**n2 > 2**63 or n2 * per * mod**2 > 2**53:
        raise BudgetExceeded(
            f"{n}x{n} states over {ctx.descriptor} are too large for the exact int64 kernel"
        )
    place = np.array(
        [card ** (n2 - 1 - i // per) * mod ** (i % per) for i in range(n2 * per)], dtype=np.int64
    )
    gens = gl_generators(ctx, n)
    # float64 only for the matmul, where BLAS is several times faster than
    # numpy's int64 loop; it is exact, as every sum is below dim * mod^2
    actions = np.concatenate([_conj_action(ctx, n, g, mod, per) for g in gens])
    actions = actions.astype(np.float64)
    rows = actions.shape[0]
    shape = (len(gens), place.size, -1)
    # reused across blocks: fresh arrays this size cost a page fault per page
    fbuf = np.empty(rows * BLOCK)
    ibuf = np.empty(rows * BLOCK, dtype=np.int64)

    def images(ids: np.ndarray) -> np.ndarray:
        digits = (ids[None, :] // place[:, None]) % mod
        prod = fbuf[: rows * ids.size].reshape(rows, -1)
        img = ibuf[: rows * ids.size].reshape(rows, -1)
        np.matmul(actions, digits, out=prod)
        img[...] = prod
        img %= mod
        return (place @ img.reshape(shape)).ravel()

    return images


def _flood(images, frontier: np.ndarray, claim) -> int:
    """Size of the orbit reached from frontier, which is already claimed.

    claim(ids) marks the not yet visited states among ids as visited and
    returns them, distinct.
    """
    size = frontier.size
    while frontier.size:
        frontier = np.concatenate(
            [claim(images(frontier[i : i + BLOCK])) for i in range(0, frontier.size, BLOCK)]
        )
        size += frontier.size
    return size


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


_LOW_ZERO = [min(b for b in range(8) if not x >> b & 1) if x != 0xFF else 8 for x in range(256)]


def _next_unvisited(bitmap: np.ndarray, byte_start: int):
    """(state, byte index) of the first clear bit at or after byte_start."""
    nbytes = bitmap.size
    chunk = 1 << 20
    off = byte_start
    while off < nbytes:
        view = bitmap[off : off + chunk]
        hit = np.nonzero(view != 0xFF)[0]
        if hit.size:
            byte = off + int(hit[0])
            return byte * 8 + _LOW_ZERO[bitmap[byte]], byte
        off += chunk
    return None, nbytes


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
        s = state_of(m)
        if self.labels is not None:
            return int(self.labels[s])
        raise BadParams("census was built without labels")


def orbit_census(
    ctx: RingCtx,
    n: int,
    max_states: int = DEFAULT_MAX_STATES,
    want_labels: bool = False,
    cache_dir: str | None = None,
) -> OrbitCensus:
    """Full orbit census of n x n matrices over ctx.

    want_labels also fills the state -> orbit index array that
    `index_of` reads; it always recomputes.  Otherwise cache_dir (or
    SIMCLASS_CACHE_DIR) caches (rep, size) pairs on disk.
    """
    nstates = ctx.cardinality ** (n * n)
    if nstates > max_states:
        raise BudgetExceeded(f"{nstates} states over {ctx.descriptor} exceed cap {max_states}")
    cache_dir = cache_dir or os.environ.get("SIMCLASS_CACHE_DIR")
    path = None
    if cache_dir:
        path = os.path.join(cache_dir, f"{ctx.flavor}-{ctx.p}-{ctx.length}-n{n}.orbits")
        if os.path.exists(path) and not want_labels:
            try:
                header, census = _read_census(path)
            except (BadParams, OSError, ValueError):
                header = None  # unreadable or stale cache: recompute and overwrite
            # a file written for another ring, size or generating set is stale too
            if header is not None and all(
                header.get(k) == v for k, v in _cache_key(ctx, n).items()
            ):
                return census
    images = _conjugator(ctx, n)
    bitmap = np.zeros((nstates + 7) // 8, dtype=np.uint8)
    pad = nstates % 8
    if pad:  # mark the phantom tail bits of the last byte as used
        bitmap[-1] = (0xFF << pad) & 0xFF
    labels = np.full(nstates, -1, dtype=np.int32) if want_labels else None
    reps, sizes = [], []

    def claim(ids):
        ids = _distinct(ids[_unvisited_mask(bitmap, ids)])
        _set_bits(bitmap, ids)
        if labels is not None:
            labels[ids] = len(reps)
        return ids

    byte_ptr = 0
    while True:
        seed, byte_ptr = _next_unvisited(bitmap, byte_ptr)
        if seed is None:
            break
        sizes.append(_flood(images, claim(np.array([seed], dtype=np.int64)), claim))
        reps.append(seed)
    census = OrbitCensus(
        ctx, n, np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64), labels
    )
    if int(census.sizes.sum()) != nstates:
        raise VerificationFailed(
            f"orbits over {ctx.descriptor} cover {int(census.sizes.sum())} of {nstates} states"
        )
    _check_orbit_sizes(ctx, n, sizes)
    if path:
        save_census(census, path)
    return census


def orbit_states(m: Mat, max_orbit: int = 10_000_000) -> np.ndarray:
    """Sorted state ids of the conjugation orbit of m."""
    images = _conjugator(m.ctx, m.n)  # refuses rings too large to pack first
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


def same_class(a: Mat, b: Mat) -> bool:
    """Orbit-based similarity check (independent of the canonical forms)."""
    if a.ctx != b.ctx or a.n != b.n:
        raise BadParams("matrices live over different rings")
    orb = orbit_states(a)
    pos = np.searchsorted(orb, state_of(b))
    return pos < orb.size and int(orb[pos]) == state_of(b)


def verify_counts(ctx: RingCtx, n: int, samples: int = 20, seed: int = 0,
                  **census_kwargs) -> dict:
    """Cross-check the orbit census against every other count of classes.

    For both matrix groups, compares the orbit count with the closed
    formula and the enumerated representative list; also samples states
    and checks each one gets the same canonical form as the minimal
    member of its orbit.  mismatches is 0 exactly when everything
    agrees.
    """
    if n == 2:
        count_fn, enum_fn, canon_fn = count2, enumerate2, canon2
    elif n == 3:
        count_fn, enum_fn, canon_fn = count3, enumerate3, canon3
    else:
        raise BadParams("counts are implemented for n in {2, 3}")
    census = orbit_census(ctx, n, **census_kwargs)
    report = {"ring": ctx.descriptor, "n": n, "counts": [], "mismatches": 0}
    for group in ("M", "GL"):
        oracle_ct = census.class_count(group)
        formula = count_fn(ctx.q, ctx.length, group)
        enumerated = len(enum_fn(ctx, group))
        ok = oracle_ct == formula == enumerated
        report["counts"].append(
            {"group": group, "oracle": oracle_ct, "formula": formula,
             "enumerated": enumerated, "match": ok}
        )
        if not ok:
            report["mismatches"] += 1
    rng = random.Random(seed)
    nstates = ctx.cardinality ** (n * n)
    agreed = 0
    for _ in range(samples):
        m = mat_of(ctx, n, rng.randrange(nstates))
        _, rep = orbit_of(m)
        a, b = canon_fn(m), canon_fn(rep)
        if n == 2:  # canon2 returns (form, witness)
            a, b = a[0], b[0]
        if a == b:
            agreed += 1
    report["canon_samples"] = samples
    report["canon_agreements"] = agreed
    if agreed != samples:
        report["mismatches"] += samples - agreed
    return report


# ----------------------------------------------------------------------
# disk cache


CACHE_VERSION = 1


def _cache_key(ctx: RingCtx, n: int) -> dict:
    """Header fields that tie a cache file to one census request."""
    return {
        "ring": ctx.descriptor,
        "n": n,
        "generators": [g.rows() for g in gl_generators(ctx, n)],
    }


def save_census(census: OrbitCensus, path: str):
    header = {
        "version": CACHE_VERSION,
        **_cache_key(census.ctx, census.n),
        "classes": int(census.reps.size),
        "states": int(census.sizes.sum()),
    }
    pairs = np.empty((census.reps.size, 2), dtype="<u8")
    pairs[:, 0] = census.reps
    pairs[:, 1] = census.sizes
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(pairs.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_census(path: str) -> tuple[dict, OrbitCensus]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        raw = fh.read()
    if header.get("version") != CACHE_VERSION:
        raise BadParams(f"cache file {path} has an unknown format version")
    ctx = parse_ring(header["ring"])
    n = header["n"]
    pairs = np.frombuffer(raw, dtype="<u8").reshape(-1, 2)
    if pairs.shape[0] != header["classes"]:
        raise BadParams(f"cache file {path} is truncated")
    reps = pairs[:, 0].astype(np.int64)
    sizes = pairs[:, 1].astype(np.int64)
    if int(sizes.sum()) != header["states"]:
        raise BadParams(f"cache file {path} is inconsistent")
    return header, OrbitCensus(ctx, n, reps, sizes, None)
