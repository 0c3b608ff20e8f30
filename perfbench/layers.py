"""Per-layer probe: times each module's public functions on its own.

    PYTHONPATH=src python3 perfbench/layers.py --seed 1

Runs in a fresh process, because the table build and the index builds
are timed cold: the order below makes each the first touch of its ring.
Inputs come from the workloads (workloads.py).  Like the end-to-end
metrics, every figure is scaled to the calibration loop's reference speed,
measured again after each one.  Prints one JSON line, {name: [value,
unit]}, with every name in LAYER_METRICS.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

import inputs
import workloads
from ref import CheckFailed, Ring
from spans import Tracer

INDEX_RINGS = workloads.SMALL
KINDS = inputs.KINDS
PAIR_KINDS = ("conjugate", "same_charpoly", "diff_charpoly", "scalar")


def key(desc: str) -> str:
    return desc.replace(":", "-")


LAYER_METRICS = (
    [(f"ring.{op}_ns.{path}", "ns") for op in ("mul", "add") for path in ("z", "t_table", "t_poly")]
    + [("ring.table_build_ms.t", "ms")]
    + [(f"matrix.{op}_us", "us") for op in ("matmul", "inverse", "charpoly")]
    + [(f"modsolve.is_similar_us.{k}", "us") for k in PAIR_KINDS]
    + [("canon2.canon2_us", "us")]
    + [(f"canon3.canon_us.{k}", "us") for k in KINDS]
    + [(f"canon3.index_build_s.{key(d)}", "s") for d in INDEX_RINGS]
    + [(f"census.enumerate_s.{key(d)}", "s") for d in INDEX_RINGS]
    + [("oracle.census_states_per_s.z", "1/s"), ("oracle.census_states_per_s.t", "1/s"),
       ("oracle.orbit_of_states_per_s", "1/s")]
    + [("cli.import_ms", "ms")]
)


def per_call(fn, args_list, repeat: int = 3) -> float:
    """Median seconds per call of fn over args_list, best of `repeat` sweeps per item."""
    clock = time.perf_counter
    times = []
    for args in args_list:
        best = None
        for _ in range(repeat):
            t0 = clock()
            fn(*args)
            dt = clock() - t0
            best = dt if best is None else min(best, dt)
        times.append(best)
    return statistics.median(times)


def loop_ns(fn, pairs) -> float:
    """Nanoseconds per fn(a, b) call, median of five sweeps over pairs."""
    clock = time.perf_counter
    sweeps = []
    for _ in range(5):
        t0 = clock()
        for a, b in pairs:
            fn(a, b)
        sweeps.append((clock() - t0) / len(pairs))
    return 1e9 * statistics.median(sweeps)


def import_ms() -> float:
    """A fresh interpreter importing simclass.cli, minus a bare interpreter start."""
    def run(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(7):
        bare.append(run("pass"))
        full.append(run("import simclass.cli"))
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def probe(seed: int) -> dict:
    import simclass
    from simclass import Mat, ring_ctx

    out = {}
    rng = random.Random(f"{seed}:layers")
    speed = workloads.Speed()
    units = dict(LAYER_METRICS)

    def put(name, value):
        factor = (speed.factor + speed.now()) / 2
        out[name] = value / factor if units[name] == "1/s" else value * factor

    # ring: the t:3:6 tables are built by the first product over that ring
    t36 = ring_ctx("t", 3, 6)
    t0 = time.perf_counter()
    t36.mul_raw(1, 1)
    put("ring.table_build_ms.t", 1e3 * (time.perf_counter() - t0))
    for path, ctx in (("z", ring_ctx("z", 7, 3)), ("t_table", t36), ("t_poly", ring_ctx("t", 3, 7))):
        pairs = [(rng.randrange(ctx.cardinality), rng.randrange(ctx.cardinality))
                 for _ in range(20000)]
        put(f"ring.mul_ns.{path}", loop_ns(ctx.mul_raw, pairs))
        put(f"ring.add_ns.{path}", loop_ns(ctx.add_raw, pairs))

    # canon3 index builds, cold, then enumeration with every index it needs built
    for desc in INDEX_RINGS:
        r = Ring.parse(desc)
        ctx = ring_ctx(r.flavor, r.p, r.length)
        t0 = time.perf_counter()
        simclass.hard_family(ctx)
        put(f"canon3.index_build_s.{key(desc)}", time.perf_counter() - t0)
        for level in range(1, r.length):
            simclass.hard_family(ctx.truncated(level))
        t0 = time.perf_counter()
        simclass.enumerate3(ctx, "M")
        simclass.enumerate3(ctx, "GL")
        put(f"census.enumerate_s.{key(desc)}", time.perf_counter() - t0)

    # matrix and canon2 on random matrices over the classify rings
    mats3, mats2 = [], []
    for desc in workloads.SMALL + workloads.LARGE:
        r = Ring.parse(desc)
        ctx = ring_ctx(r.flavor, r.p, r.length)
        for _ in range(20):
            mats3.append(Mat.from_rows(ctx, inputs.rand_invertible(r, 3, rng)))
            mats2.append(Mat.from_rows(ctx, inputs.rand_matrix(r, 2, rng)))
    put("matrix.matmul_us", 1e6 * per_call(lambda m: m @ m, [(m,) for m in mats3]))
    put("matrix.inverse_us", 1e6 * per_call(lambda m: m.inverse(), [(m,) for m in mats3]))
    put("matrix.charpoly_us", 1e6 * per_call(lambda m: m.charpoly(), [(m,) for m in mats3]))
    put("canon2.canon2_us", 1e6 * per_call(simclass.canon2, [(m,) for m in mats2]))

    # canon3 and is_similar on the classify inputs, warm
    ops = workloads.classify_setup(seed, False, Tracer(False))
    for prefix, name, kinds in (("canon3.", "canon3.canon_us", KINDS),
                                ("is_similar.", "modsolve.is_similar_us", PAIR_KINDS)):
        for kind in kinds:
            calls = []
            for op in ops:
                if op.kind != prefix + kind:
                    continue
                try:
                    op.call()
                except op.may_fail:
                    continue  # known failures are counted by the workload, not timed here
                calls.append((op.call,))
            put(f"{name}.{kind}", 1e6 * per_call(lambda f: f(), calls))

    # oracle: BFS throughput over the z and t flavors, and orbit_of
    for flavor, desc in (("z", "z:2:2"), ("t", "t:2:2")):
        r = Ring.parse(desc)
        t0 = time.perf_counter()
        simclass.orbit_census(ring_ctx(r.flavor, r.p, r.length), 3)
        put(f"oracle.census_states_per_s.{flavor}", r.card**9 / (time.perf_counter() - t0))
    census_ops = [op for op in workloads.census_setup(seed, False, Tracer(False))
                  if op.kind == "orbit_of"][:3]
    states, t0 = 0, time.perf_counter()
    for op in census_ops:
        states += op.call()[0]
    put("oracle.orbit_of_states_per_s", states / (time.perf_counter() - t0))

    put("cli.import_ms", import_ms())
    return {name: [out[name], units[name]] for name, _ in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        print(json.dumps(probe(args.seed)), flush=True)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
