"""Benchmark entry point; run it from the root of a simclass checkout.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

With --trace 0 it runs the workload untraced and prints the end-to-end
metrics.  With --trace 1 it runs the workload once untraced and once with
spans, prints self time per module and the tracing overhead, and runs the
per-layer probe (layers.py).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

The workload runs in worker processes (workloads.py), so set-up can be
timed from process start to the first timed operation and repeated: the
reported setup_s is the median of at least SETUPS fresh set-ups.  Timed
metrics are scaled to the calibration loop's reference speed (see
workloads.py); the raw figures are printed above the result.  The run is
pinned to one CPU, so the calibration loop, the worker and its CLI
children share the CPU they are measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUPS = 3
WORKER_TIMEOUT = 170  # seconds; a run must end within 180


class WorkerError(Exception):
    pass


def child_env() -> dict:
    """simclass from this checkout's src/, no on-disk census cache, one thread,
    and one string-hash seed, so set and dict layouts repeat from run to run."""
    env = {k: v for k, v in os.environ.items() if k != "SIMCLASS_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(script: str, args, deadline: float):
    """Run a perfbench script; return (seconds until its READY line, last JSON line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{script} {' '.join(args)} exited {code}")
    return ready, json.loads(last) if last else None


def measure(workload: str, seed: int, seconds: int, deadline: float, traced=False,
            setups=1):
    """Run the workload for `seconds`.  census gets one fresh process per
    round; classify, whose rounds are short, splits the time over `setups`
    processes, so one process's memory layout cannot set the figure."""
    split = setups if workload == "classify" else 1
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / split)]
    if traced:
        base.append("--traced")
    setup_times, setup_scaled, parts = [], [], []
    end = time.perf_counter() + seconds
    while True:
        ready, out = spawn("workloads.py", base, deadline)
        setup_times.append(ready)
        setup_scaled.append(ready * out["setup_factor"])
        parts.append(out)
        if (time.perf_counter() >= end) if workload == "census" else len(parts) >= split:
            break
    while len(setup_times) < setups:
        ready, out = spawn("workloads.py", base + ["--setup-only"], deadline)
        setup_times.append(ready)
        setup_scaled.append(ready * out["setup_factor"])
    merged = merge(parts)
    merged["setup"], merged["setup_scaled"] = setup_times, setup_scaled
    if all("plain" in out for out in parts):
        merged["plain"] = merge([out["plain"] for out in parts])
    return merged


def merge(parts) -> dict:
    """One tally from the workers' tallies of the same operation list."""
    n = len(parts[0]["kinds"])
    merged = {"kinds": parts[0]["kinds"], "seconds": [[] for _ in range(n)],
              "scaled": [[] for _ in range(n)], "ok": [[] for _ in range(n)], "rounds": 0,
              "self_s": {}}
    for out in parts:
        for i in range(n):
            for key in ("seconds", "scaled", "ok"):
                merged[key][i].extend(out[key][i])
        merged["rounds"] += out["rounds"]
        for module, s in out.get("self_s", {}).items():
            merged["self_s"][module] = merged["self_s"].get(module, 0.0) + s
    merged["attempted"] = sum(len(oks) for oks in merged["ok"])
    merged["failed"] = sum(oks.count(False) for oks in merged["ok"])
    return merged


def ops_per_s(m, key="scaled") -> float:
    """Completed operations per second of a median round: the sum over the
    list of each operation's median time, so a burst of machine noise in
    one round moves it little."""
    completed = (m["attempted"] - m["failed"]) / m["rounds"]
    return completed / sum(statistics.median(xs) for xs in m[key])


def describe(workload: str, m):
    """Human-readable lines: every timing with its sample count."""
    print(f"{workload}: {m['rounds']} rounds, {m['attempted']} operations attempted, "
          f"{m['failed']} failed")
    print(f"  setup_s samples={len(m['setup'])} wall " + " ".join(f"{s:.3f}" for s in m["setup"])
          + " scaled " + " ".join(f"{s:.3f}" for s in m["setup_scaled"]))
    print(f"  ops_per_s wall {ops_per_s(m, 'seconds'):.4f} scaled {ops_per_s(m):.4f}")
    by_kind = {}
    for kind, xs, oks in zip(m["kinds"], m["seconds"], m["ok"]):
        by_kind.setdefault(kind, []).extend(x for x, ok in zip(xs, oks) if ok)
    for kind, xs in sorted(by_kind.items()):
        if not xs:
            print(f"  {kind:28s} n=     0 (every call failed)")
            continue
        xs.sort()
        line = (f"  {kind:28s} n={len(xs):6d} p50={1e3 * statistics.median(xs):9.3f} ms "
                f"per_s={len(xs) / sum(xs):9.1f}")
        if len(xs) >= 1000:  # at least ten samples beyond the 99th percentile
            line += f" p99={1e3 * xs[int(0.99 * len(xs))]:9.3f} ms"
        print(line)


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    m = measure(workload, seed, seconds, deadline, setups=SETUPS)
    describe(workload, m)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(m["setup_scaled"]), "s"),
        "ops_per_s": (ops_per_s(m), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return m, metrics


def per_layer(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    traced = measure(workload, seed, seconds, deadline, traced=True)
    plain = traced.get("plain") or measure(workload, seed, seconds, deadline)
    describe(workload + " (traced)", traced)
    total = sum(traced["self_s"].values())
    print(f"self time per module, {workload}, traced run ({total:.3f} s in spans):")
    for module, s in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {module:10s} {s:9.3f} s {100 * s / total:6.1f} %")
    overhead = 100 * (ops_per_s(plain) / ops_per_s(traced) - 1)
    print(f"tracing overhead: {overhead:+.2f} % ops_per_s "
          f"({ops_per_s(plain):.2f} untraced, {ops_per_s(traced):.2f} traced)")
    _, layers = spawn("layers.py", ["--seed", str(seed)], deadline)
    metrics = {name: (value, unit) for name, (value, unit) in layers.items()}
    metrics["trace.overhead_pct"] = (overhead, "%")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.4f} {unit}")
    return traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["classify", "cli-cold", "census"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "simclass", "__init__.py")):
        print("run.py: no src/simclass here; run it from the root of a simclass checkout",
              file=sys.stderr)
        return 2
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned, the calibration still tracks the worker's own CPU
    deadline = time.monotonic() + WORKER_TIMEOUT
    fn = per_layer if args.trace else end_to_end
    try:
        m, metrics = fn(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
