"""Brute-force conjugation-orbit oracle.

Independent cross-check for the canonical forms and counting formulas:
enumerate every n x n matrix over the ring as a packed integer state,
then flood-fill conjugation orbits under a generating set of the unit
group of matrices.  Conjugation by a fixed g is linear in the matrix
entries, so each generator becomes one integer matrix acting on state
vectors and whole BFS frontiers are processed as numpy batches.

States pack the entries row-major, first entry most significant, so
numeric order on states is lexicographic order on entry tuples and an
ascending-seed sweep makes every orbit's seed its minimal member.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .canon2 import canon2, count2, enumerate2
from .canon3 import canon3
from .census import count3, enumerate3
from .errors import BadParams, BudgetExceeded
from .matrix import Mat, diag, elementary, zero
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
    "load_census",
]

DEFAULT_MAX_STATES = 2**28


def group_order(ctx: RingCtx, n: int) -> int:
    """Order of the invertible n x n matrices over ctx."""
    p, length = ctx.p, ctx.length
    out = p ** ((length - 1) * n * n)
    for k in range(n):
        out *= p**n - p**k
    return out


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


def _conj_action(ctx: RingCtx, n: int, g: Mat) -> np.ndarray:
    """Integer matrix of A -> g A g^{-1} on packed state digits."""
    ginv = g.inverse()
    n2 = n * n
    if ctx.flavor == "z":
        out = np.zeros((n2, n2), dtype=np.int64)
        for r, c in product(range(n), repeat=2):
            basis = zero(ctx, n)
            vals = list(basis.vals)
            vals[r * n + c] = 1
            img = g @ Mat(ctx, n, vals) @ ginv
            out[:, r * n + c] = img.vals
        return out
    length = ctx.length
    dim = n2 * length
    out = np.zeros((dim, dim), dtype=np.int64)
    for r, c in product(range(n), repeat=2):
        for s in range(length):
            vals = [0] * n2
            vals[r * n + c] = ctx.p**s
            img = g @ Mat(ctx, n, vals) @ ginv
            col = (r * n + c) * length + s
            for k in range(n2):
                for s2, dig in enumerate(ctx.digits_raw(img.vals[k])):
                    out[k * length + s2, col] = dig
    return out


class _StateCodec:
    """Vectorized encode/decode between state ids and digit columns."""

    def __init__(self, ctx: RingCtx, n: int):
        self.ctx = ctx
        self.n = n
        self.card = ctx.cardinality
        self.n2 = n * n

    def decode(self, ids: np.ndarray) -> np.ndarray:
        card, n2 = self.card, self.n2
        x = ids.astype(np.int64, copy=True)
        ent = np.empty((n2, ids.size), dtype=np.int64)
        for k in range(n2 - 1, -1, -1):
            ent[k] = x % card
            x //= card
        if self.ctx.flavor == "z":
            return ent
        p, length = self.ctx.p, self.ctx.length
        dig = np.empty((n2 * length, ids.size), dtype=np.int64)
        for k in range(n2):
            e = ent[k]
            for s in range(length):
                dig[k * length + s] = e % p
                e = e // p
        return dig

    def encode(self, cols: np.ndarray) -> np.ndarray:
        card, n2 = self.card, self.n2
        if self.ctx.flavor == "z":
            ent = cols
        else:
            p, length = self.ctx.p, self.ctx.length
            ent = np.zeros((n2, cols.shape[1]), dtype=np.int64)
            for k in range(n2):
                for s in range(length - 1, -1, -1):
                    ent[k] = ent[k] * p + cols[k * length + s]
        ids = np.zeros(cols.shape[1], dtype=np.int64)
        for k in range(n2):
            ids = ids * card + ent[k]
        return ids

    def modulus(self) -> int:
        return self.card if self.ctx.flavor == "z" else self.ctx.p


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


def _expand(codec: _StateCodec, actions, frontier: np.ndarray, pool) -> np.ndarray:
    cols = codec.decode(frontier)
    mod = codec.modulus()

    def one(act):
        return codec.encode((act @ cols) % mod)

    if pool is None:
        parts = [one(a) for a in actions]
    else:
        parts = list(pool.map(one, actions))
    return np.concatenate(parts)


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
    want_labels: bool | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> OrbitCensus:
    """Full orbit census of n x n matrices over ctx.

    cache_dir (or SIMCLASS_CACHE_DIR) caches (rep, size) pairs on disk;
    cached results come back without labels.
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
    if want_labels is None:
        want_labels = nstates <= 2**24
    codec = _StateCodec(ctx, n)
    actions = []
    for g in gl_generators(ctx, n):
        actions.append(_conj_action(ctx, n, g))
        actions.append(_conj_action(ctx, n, g.inverse()))
    bitmap = np.zeros((nstates + 7) // 8, dtype=np.uint8)
    pad = nstates % 8
    if pad:  # mark the phantom tail bits of the last byte as used
        bitmap[-1] = (0xFF << pad) & 0xFF
    labels = np.full(nstates, -1, dtype=np.int32) if want_labels else None
    reps, sizes = [], []
    pool = ThreadPoolExecutor(jobs) if jobs > 1 else None
    try:
        byte_ptr = 0
        while True:
            seed, byte_ptr = _next_unvisited(bitmap, byte_ptr)
            if seed is None:
                break
            idx = len(reps)
            frontier = np.array([seed], dtype=np.int64)
            _set_bits(bitmap, frontier)
            size = 1
            if labels is not None:
                labels[seed] = idx
            while frontier.size:
                cand = _expand(codec, actions, frontier, pool)
                cand = cand[_unvisited_mask(bitmap, cand)]
                if cand.size == 0:
                    break
                cand = np.unique(cand)
                _set_bits(bitmap, cand)
                size += cand.size
                if labels is not None:
                    labels[cand] = idx
                frontier = cand
            reps.append(seed)
            sizes.append(size)
    finally:
        if pool is not None:
            pool.shutdown()
    census = OrbitCensus(
        ctx, n, np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64), labels
    )
    assert int(census.sizes.sum()) == nstates, "orbits do not partition the states"
    if path:
        save_census(census, path)
    return census


def orbit_states(m: Mat, max_orbit: int = 10_000_000) -> np.ndarray:
    """Sorted state ids of the conjugation orbit of m."""
    ctx, n = m.ctx, m.n
    codec = _StateCodec(ctx, n)
    actions = []
    for g in gl_generators(ctx, n):
        actions.append(_conj_action(ctx, n, g))
        actions.append(_conj_action(ctx, n, g.inverse()))
    seen = np.array([state_of(m)], dtype=np.int64)
    frontier = seen
    while frontier.size:
        cand = np.unique(_expand(codec, actions, frontier, None))
        fresh = cand[~np.isin(cand, seen)]
        if seen.size + fresh.size > max_orbit:
            raise BudgetExceeded(f"orbit exceeds cap {max_orbit}")
        seen = np.union1d(seen, fresh)
        frontier = fresh
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


def load_census(path: str) -> OrbitCensus:
    return _read_census(path)[1]


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
