"""Self-test of the benchmark; run it from the root of a simclass checkout.

    python3 perfbench/selftest.py

Runs each workload at a tiny size (a few seconds each), then injects
faults and requires the checks to catch them: a wrong expected class
count, a corrupted canon3 witness, a corrupted is_similar witness and a
corrupted witness in CLI output.  The fault half runs under python -O,
so a check written as an assert would be caught out.  Exits 0 when all
of it holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC
os.environ.pop("SIMCLASS_CACHE_DIR", None)

import layers  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from ref import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402

KNOWN_FAILURES = {"classify": 1, "cli-cold": 1, "census": 0}  # per round, tiny size


def fail(msg: str):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def tiny_runs():
    for name, failures in KNOWN_FAILURES.items():
        proc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), "--workload",
                               name, "--seed", "7", "--seconds", "0", "--tiny", "--traced"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"tiny {name} exited {proc.returncode}: {proc.stderr[-500:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        failed = sum(ok.count(False) for ok in out["ok"])
        if out["rounds"] != 1 or failed != failures:
            fail(f"tiny {name}: {out['rounds']} rounds, {failed} failed, expected {failures}")
        if not out["self_s"]:
            fail(f"tiny {name}: traced run recorded no spans")
        print(f"selftest: tiny {name} ok ({len(out['ok'])} operations, {failed} known failure)")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = [n for n, _ in layers.LAYER_METRICS] + ["trace.overhead_pct"]
    if [m["name"] for m in spec["per_layer"]] != want:
        fail("BENCHMARK.json per_layer names differ from layers.LAYER_METRICS")
    if {w["name"] for w in spec["workloads"]} != set(KNOWN_FAILURES):
        fail("BENCHMARK.json workloads differ from workloads.py")
    print("selftest: BENCHMARK.json matches the probe")


def expect_caught(what: str, fn):
    try:
        fn()
    except CheckFailed as exc:
        print(f"selftest: {what} caught: {exc}")
        return
    fail(f"{what} went unnoticed")


def corrupt(m):
    """m with its first entry moved by pi, so the witness no longer works."""
    from simclass import Mat
    return Mat(m.ctx, m.n, [(m.vals[0] + m.ctx.p) % m.ctx.cardinality, *m.vals[1:]])


def faults():
    import simclass

    ref.self_check()
    count3 = ref.count3
    ref.count3 = lambda q, length, group: count3(q, length, group) + 1
    try:
        ops = workloads.census_setup(1, True, Tracer(False))
        expect_caught("wrong expected count (census)",
                      lambda: workloads.run_round(ops, Tracer(False), workloads.Tally(ops),
                                                  workloads.Speed()))
    finally:
        ref.count3 = count3

    canon3 = simclass.canon3
    simclass.canon3 = lambda m: dataclasses.replace(canon3(m), witness=corrupt(canon3(m).witness))
    try:
        expect_caught("corrupted canon3 witness",
                      lambda: workloads.classify_setup(1, True, Tracer(False)))
    finally:
        simclass.canon3 = canon3

    is_similar = simclass.is_similar

    def bad_similar(a, b):
        ok, x = is_similar(a, b)
        return ok, corrupt(x) if ok else x

    simclass.is_similar = bad_similar
    try:
        expect_caught("corrupted is_similar witness",
                      lambda: workloads.classify_setup(1, True, Tracer(False)))
    finally:
        simclass.is_similar = is_similar

    # the second canon call of the tiny list has a cyclic input (KINDS order)
    op = [op for op in workloads.cli_setup(1, True, Tracer(False)) if op.kind == "cli.canon"][1]
    proc = op.call()
    out = json.loads(proc.stdout)
    w = out["witness"]
    w[0][0] = (w[0][0] + 1) % 4
    proc.stdout = json.dumps(out)
    expect_caught("corrupted CLI canon witness", lambda: op.check(proc))


def main() -> int:
    if "--faults" in sys.argv:
        faults()
        return 0
    benchmark_json()
    tiny_runs()
    proc = subprocess.run([sys.executable, "-O", os.path.abspath(__file__), "--faults"],
                          timeout=300)
    if proc.returncode != 0:
        fail("fault injection under python -O")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
