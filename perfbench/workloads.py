"""The three workloads, and the worker process that runs one of them.

    python3 perfbench/workloads.py --workload classify --seed 1 --seconds 15

The worker prints READY once its set-up is done, then measures, then
prints one JSON line of raw measurements for run.py to aggregate.
Every operation is checked; a wrong answer raises CheckFailed and the
worker exits 1.  Only operations flagged as known failures may fail, and
only in the way named for them; they are counted, not hidden.

Each workload is a closed loop with one caller in one thread.  A round
is the workload's whole operation list, and a run measures whole rounds
only, so the share of failed operations is the same in every run.

On the 2-vCPU host the reference figures come from, the speed of
pure-Python code swings by a quarter to a half for tens of seconds at a
time.  So the worker also times a fixed pure-Python calibration loop, before and
after an operation whenever CALIBRATE_EVERY seconds have passed, and
reports each operation's time scaled to the loop's reference time as well
as raw.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import inputs
import ref
from ref import CheckFailed, Ring, check_intertwines, require
from spans import Tracer

SMALL = ("z:2:3", "t:2:3", "z:3:2", "t:3:2", "z:5:2")  # every body kind
LARGE = ("z:7:3", "z:2:8", "t:3:7")  # cyclic and split only: see README
LABELLED = "z:2:2"  # is_similar answers are compared with orbit labels here

BODY_CLASS = {"ScalarBody": "scalar", "CyclicBody": "cyclic", "SplitBody": "split",
              "HardBody": "hard"}


CALIBRATION_REF_S = 0.002  # about calibrate() on that host, Python 3.11.7
CALIBRATE_EVERY = 0.2  # seconds


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python loop."""
    clock = time.perf_counter
    times = []
    for _ in range(3):
        t0 = clock()
        s = 0
        for i in range(20000):
            s = (s + i * i) % 1000003
        times.append(clock() - t0)
    return statistics.median(times)


class Speed:
    """Reference time over the calibration loop's time now: below 1 when the
    machine runs slow.  Re-measured at most every CALIBRATE_EVERY seconds."""

    def __init__(self):
        self.factor = CALIBRATION_REF_S / calibrate()
        self.at = time.perf_counter()

    def now(self) -> float:
        if time.perf_counter() - self.at >= CALIBRATE_EVERY:
            self.factor = CALIBRATION_REF_S / calibrate()
            self.at = time.perf_counter()
        return self.factor


class Failed(Exception):
    """A known-failing CLI call exited with the code it is known to fail with."""


class Op:
    """One timed call: call() returns what check() verifies."""

    __slots__ = ("kind", "layer", "call", "check", "may_fail")

    def __init__(self, kind, layer, call, check, may_fail=()):
        self.kind, self.layer, self.call, self.check, self.may_fail = (
            kind, layer, call, check, may_fail)


class Tally:
    """Seconds per call of each operation of the list, failed calls included,
    raw and scaled to the reference speed."""

    def __init__(self, ops):
        self.kinds = [op.kind for op in ops]
        self.seconds = [[] for _ in ops]
        self.scaled = [[] for _ in ops]
        self.ok = [[] for _ in ops]
        self.rounds = 0

    def as_dict(self) -> dict:
        return {"kinds": self.kinds, "seconds": self.seconds, "scaled": self.scaled,
                "ok": self.ok, "rounds": self.rounds}


def run_round(ops, tracer: Tracer, tally: Tally, speed: Speed):
    clock = time.perf_counter
    for i, op in enumerate(ops):
        with tracer.span("bench.op", op=(tally.rounds, i)):
            with tracer.span("bench.calibrate"):
                before = speed.now()
            ok = True
            t0 = clock()
            try:
                with tracer.span(op.layer):
                    result = op.call()
            except op.may_fail:
                ok = False
            dt = clock() - t0
            with tracer.span("bench.calibrate"):
                after = speed.now()  # re-measured only after a long operation
            tally.seconds[i].append(dt)
            tally.scaled[i].append(dt * (before + after) / 2)
            tally.ok[i].append(ok)
            if ok:
                with tracer.span("bench.check"):
                    op.check(result)
    tally.rounds += 1


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(":".join([str(seed), *labels]))


def ctx_of(r: Ring):
    from simclass import ring_ctx
    return ring_ctx(r.flavor, r.p, r.length)


# ----------------------------------------------------------------------
# classify: warm canon3 and is_similar calls in one process


def classify_setup(seed: int, tiny: bool, tracer: Tracer):
    import simclass
    from simclass import Mat

    small, large = (("z:2:2",), ("z:7:1",)) if tiny else (SMALL, LARGE)
    bases, conjugates = (1, 2) if tiny else (3, 3)
    ops = []
    forms = {}  # (ring, kind, base) -> canonical matrix of the first conjugate

    def mat(r, rows):
        return Mat.from_rows(ctx_of(r), rows)

    def canon_op(r, kind, rows, group):
        m = mat(r, rows)

        def check(form):
            got = BODY_CLASS[type(form.body).__name__]
            require(got == kind, f"canon3 over {r.desc}: {kind} input got a {got} body")
            canonical = tracer.call("canon3.rebuild", form.rebuild).rows()
            # the witness W satisfies W A W^-1 = C, i.e. A W^-1 = W^-1 C
            w = form.witness.rows()
            check_intertwines(r, canonical, w, rows, f"canon3 over {r.desc}")
            first = forms.setdefault((r.desc, group), canonical)
            require(first == canonical, f"canon3 over {r.desc}: conjugates got two forms")

        return Op("canon3." + kind, "canon3.canon3", lambda: simclass.canon3(m), check)

    def similar_op(r, kind, a, b, expected, labels=None):
        ma, mb = mat(r, a), mat(r, b)

        def check(result):
            ok, x = result
            require(ok == expected, f"is_similar over {r.desc} ({kind}) answered {ok}")
            if ok:
                check_intertwines(r, a, x.rows(), b, f"is_similar over {r.desc}")
            if labels is not None:
                same = labels[ref.state_of(r, a)] == labels[ref.state_of(r, b)]
                require(same == ok, f"is_similar over {r.desc} disagrees with the orbit labels")

        # deciding equal scalar matrices scans a p^9-point residue span,
        # which is over the search cap once p >= 7 (see CHANGES.md)
        may_fail = (simclass.SearchBudgetExceeded,) if kind == "scalar" and r.p >= 7 else ()
        return Op("is_similar." + kind, "modsolve.is_similar", lambda: simclass.is_similar(ma, mb),
                  check, may_fail)

    def pairs(r, conj_kinds, n_other, labels=None):
        rng = rng_for(seed, "pairs", r.desc)
        for ck in conj_kinds:
            for i in range(2):
                ops.append(similar_op(r, "conjugate",
                                      *inputs.pair(r, "conjugate", rng, i % r.length, ck), labels))
        other = ("same_charpoly", "diff_charpoly") if "hard" in conj_kinds else ("diff_charpoly",)
        for kind in other:
            for i in range(n_other):
                ops.append(similar_op(r, kind, *inputs.pair(r, kind, rng, i % r.length), labels))
        ops.append(similar_op(r, "scalar", *inputs.pair(r, "scalar", rng), labels))

    n_other = 1 if tiny else 3
    for descs, kinds in ((small, inputs.KINDS), (large, ("cyclic", "split"))):
        for desc in descs:
            r = Ring.parse(desc)
            rng = rng_for(seed, "canon", desc)
            for kind in kinds:
                for b in range(bases):
                    m = inputs.base(r, kind, rng, b % r.length)
                    for _ in range(conjugates):
                        ops.append(canon_op(r, kind, inputs.conjugate(r, m, rng), (kind, b)))
            pairs(r, tuple(k for k in kinds if k != "scalar"), n_other)

    r = Ring.parse(LABELLED)
    census = simclass.orbit_census(ctx_of(r), 3, want_labels=True)
    pairs(r, ("cyclic", "split", "hard"), n_other, census.labels)
    # warm-up: fills every ring's hard-class index and the t-flavor tables
    run_round(ops, Tracer(False), Tally(ops), Speed())
    return ops


# ----------------------------------------------------------------------
# census: whole-ring counts, one round per fresh process


CENSUS_ENUM = SMALL
CENSUS_ORBITS = (("z:2:2", 3), ("t:2:2", 3), ("z:3:1", 3), ("z:5:2", 2), ("t:3:2", 2))
ORBIT_OF_RING = "z:3:2"
ORBIT_OF_COUNT = 6


def census_setup(seed: int, tiny: bool, tracer: Tracer):
    import simclass
    from simclass import Mat

    enum_rings = ("z:2:2", "z:3:1") if tiny else CENSUS_ENUM
    orbit_jobs = (("z:2:1", 3), ("z:3:1", 2)) if tiny else CENSUS_ORBITS
    orbit_of_ring, orbit_of_count = ("z:2:2", 1) if tiny else (ORBIT_OF_RING, ORBIT_OF_COUNT)
    ops = []
    check_rng = rng_for(seed, "census-checks")

    def enum_op(r, group):
        def check(entries):
            want = ref.count3(r.p, r.length, group)
            require(len(entries) == want,
                    f"enumerate3 {group} over {r.desc}: {len(entries)} classes, paper {want}")
            mats = [m.rows() for _, m in entries]
            require(len({str(m) for m in mats}) == want, f"enumerate3 over {r.desc} repeats a matrix")
            if group == "GL":
                for m in mats:
                    require(r.is_unit(ref.det(r, m)), f"enumerate3 GL over {r.desc}: singular rep")
            for i in check_rng.sample(range(want), 2):
                form = tracer.call("canon3.canon3", simclass.canon3, entries[i][1])
                canonical = tracer.call("canon3.rebuild", form.rebuild).rows()
                require(canonical == mats[i], f"enumerate3 over {r.desc}: rep is not canonical")

        ctx = ctx_of(r)
        return Op("enumerate3", "census.enumerate3", lambda: simclass.enumerate3(ctx, group), check)

    def orbit_size_check(r, n, m, size, what):
        order = tracer.call("modsolve.centralizer_order", simclass.centralizer_order, m)
        require(size * order == ref.gl_order(r.p, r.length, n),
                f"{what} over {r.desc}: orbit size x centralizer order != |GL_{n}|")

    def census_op(r, n):
        ctx = ctx_of(r)

        def check(census):
            require(int(census.sizes.sum()) == r.card ** (n * n),
                    f"orbit_census over {r.desc}: orbit sizes do not sum to |A|^{n * n}")
            for group in ("M", "GL"):
                got = tracer.call("oracle.class_count", census.class_count, group)
                want = ref.count(n, r.p, r.length, group)
                require(got == want, f"orbit_census {group} over {r.desc}: {got} classes, paper {want}")
            for i in check_rng.sample(range(census.reps.size), 3):
                rep = Mat.from_rows(ctx, ref.mat_of_state(r, n, int(census.reps[i])))
                orbit_size_check(r, n, rep, int(census.sizes[i]), "orbit_census")

        return Op("orbit_census", "oracle.orbit_census", lambda: simclass.orbit_census(ctx, n), check)

    def orbit_of_op(r, rows):
        m = Mat.from_rows(ctx_of(r), rows)

        def check(result):
            size, least = result
            require(ref.state_of(r, least.rows()) <= ref.state_of(r, rows),
                    f"orbit_of over {r.desc}: least member is not least")
            orbit_size_check(r, 3, m, size, "orbit_of")

        return Op("orbit_of", "oracle.orbit_of", lambda: simclass.orbit_of(m), check)

    for desc in enum_rings:
        for group in ("M", "GL"):
            ops.append(enum_op(Ring.parse(desc), group))
    for desc, n in orbit_jobs:
        ops.append(census_op(Ring.parse(desc), n))
    # fixed hard shapes keep the orbit sizes, and so the work, independent
    # of the seed; the seed picks the scalar shift and the conjugator
    r = Ring.parse(orbit_of_ring)
    shapes, rng = random.Random("orbit-of-shapes"), rng_for(seed, "orbit-of")
    for _ in range(orbit_of_count):
        shape = inputs.body(r, "hard", shapes)
        m = inputs.shift(r, inputs.rand_elem(r, rng), 0, shape)
        ops.append(orbit_of_op(r, inputs.conjugate(r, m, rng)))
    return ops


# ----------------------------------------------------------------------
# cli-cold: one fresh `python -m simclass.cli` process per invocation


def cli_call(args, fail_code=None):
    def call():
        proc = subprocess.run([sys.executable, "-m", "simclass.cli", *args],
                              capture_output=True, text=True, timeout=120)
        if fail_code is not None and proc.returncode == fail_code:
            raise Failed(proc.stderr)
        return proc
    return call


def expect_exit(proc, code: int, what: str):
    require(proc.returncode == code,
            f"{what}: exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-300:]}")


def cli_setup(seed: int, tiny: bool, tracer: Tracer):
    small, large = (("z:2:2",), ()) if tiny else (SMALL, (("z:7:3", "cyclic"), ("z:2:8", "cyclic"),
                                                          ("t:3:7", "split")))
    enum_ring = "z:2:1" if tiny else "z:3:2"
    ops = []

    def canon(r, kind, rows):
        def check(proc):
            expect_exit(proc, 0, f"canon {r.desc}")
            out = json.loads(proc.stdout)
            got = out["form"]["body"]["kind"]
            require(got == kind, f"canon {r.desc}: {kind} input got a {got} body")
            check_intertwines(r, rows, out["witness"], out["canonical"], f"canon {r.desc}")

        ops.append(Op("cli.canon", "cli.canon",
                      cli_call(["canon", "--ring", r.desc, json.dumps(rows)]), check))

    rng = rng_for(seed, "cli")
    # depth 0, so a hard input makes canon build the whole ring's index
    for desc in small:
        r = Ring.parse(desc)
        for kind in inputs.KINDS:
            canon(r, kind, inputs.conjugate(r, inputs.base(r, kind, rng, 0), rng))
    for desc, kind in large:
        r = Ring.parse(desc)
        canon(r, kind, inputs.conjugate(r, inputs.base(r, kind, rng, 0), rng))

    r = Ring.parse("z:2:2" if tiny else "z:3:2")
    a, b, _ = inputs.pair(r, "conjugate", rng)

    def similar_check(proc):
        expect_exit(proc, 0, "similar (conjugate pair)")
        out = json.loads(proc.stdout)
        require(out["similar"] is True, "similar: conjugate pair reported not similar")
        check_intertwines(r, a, out["witness"], b, "similar")

    ops.append(Op("cli.similar", "cli.similar",
                  cli_call(["similar", "--ring", r.desc, json.dumps(a), json.dumps(b)]), similar_check))
    a2, b2, _ = inputs.pair(r, "diff_charpoly", rng)
    ops.append(Op("cli.similar", "cli.similar",
                  cli_call(["similar", "--ring", r.desc, json.dumps(a2), json.dumps(b2)]),
                  lambda proc: expect_exit(proc, 1, "similar (different charpolys)")))
    # equal scalar matrices over F_7: known to exit 65 (search budget)
    r7 = Ring.parse("z:7:1")
    s7 = inputs.pair(r7, "scalar", rng)[0]

    def scalar_check(proc):
        expect_exit(proc, 0, "similar (equal scalars)")
        require(json.loads(proc.stdout)["similar"] is True, "similar: equal scalars not similar")

    ops.append(Op("cli.similar", "cli.similar",
                  cli_call(["similar", "--ring", "z:7:1", json.dumps(s7), json.dumps(s7)], 65),
                  scalar_check, (Failed,)))

    m = inputs.conjugate(r, inputs.base(r, "hard", rng, 0), rng)

    def centralizer_check(proc):
        expect_exit(proc, 0, "centralizer")
        out = json.loads(proc.stdout)
        want = ref.gl_order(r.p, r.length, 3)
        require(out["group_order"] == want, f"centralizer: |GL_3| {out['group_order']} != {want}")
        require(out["order"] * out["orbit_size"] == want, "centralizer: order x orbit size != |GL_3|")

    ops.append(Op("cli.centralizer", "cli.centralizer",
                  cli_call(["centralizer", "--ring", r.desc, json.dumps(m)]), centralizer_check))

    def count_check(proc):
        expect_exit(proc, 0, "count")
        require(int(proc.stdout) == ref.count3(3, 2, "GL"), "count: wrong GL count over q=3, l=2")

    ops.append(Op("cli.count", "cli.count",
                  cli_call(["count", "--n", "3", "--group", "gl", "--q", "3", "--level", "2"]),
                  count_check))

    def gf_check(proc):
        expect_exit(proc, 0, "gf")
        want = [ref.count3(2, i, "M") for i in range(6)]
        require([int(x) for x in proc.stdout.split()] == want, "gf: coefficients differ from counts")

    ops.append(Op("cli.gf", "cli.gf", cli_call(["gf", "--q", "2", "--terms", "6"]), gf_check))
    re_ = Ring.parse(enum_ring)

    def enum_check(proc):
        expect_exit(proc, 0, "enumerate")
        lines = proc.stdout.splitlines()
        want = ref.count3(re_.p, re_.length, "M")
        require(len(lines) == want, f"enumerate {re_.desc}: {len(lines)} lines, paper {want}")
        require(len({json.dumps(json.loads(x)["matrix"]) for x in lines}) == want,
                f"enumerate {re_.desc}: repeated matrices")

    ops.append(Op("cli.enumerate", "cli.enumerate",
                  cli_call(["enumerate", "--ring", enum_ring]), enum_check))
    rh = Ring.parse("z:2:1" if tiny else "z:2:2")

    def hist_check(proc):
        expect_exit(proc, 0, "histogram")
        out = json.loads(proc.stdout)
        for level, row in enumerate(out["histogram"], 1):
            require(sum(row) == ref.count3(2, level, "M"), f"histogram: level {level} count")
        require(out["count"] == ref.count3(2, rh.length, "M"), "histogram: total count")

    ops.append(Op("cli.histogram", "cli.histogram",
                  cli_call(["histogram", "--ring", rh.desc]), hist_check))

    def verify_check(proc):
        expect_exit(proc, 0, "verify")
        rows = [x for x in proc.stdout.splitlines() if "oracle=" in x]
        require(len(rows) == 2, "verify: expected one line per group")
        for line, group in zip(rows, ("M", "GL")):
            want = ref.count2(2, rh.length, group)
            require(f"oracle={want} formula={want} enumerated={want} ok" in line,
                    f"verify: {line!r} differs from {want} classes")

    ops.append(Op("cli.verify", "cli.verify",
                  cli_call(["verify", "--ring", rh.desc, "--n", "2"]), verify_check))
    # untimed: byte-compiles simclass and warms the file cache
    expect_exit(cli_call(["count", "--q", "2", "--level", "1"])(), 0, "warm-up count")
    return ops


WORKLOADS = {"classify": classify_setup, "cli-cold": cli_setup, "census": census_setup}
ONE_ROUND = {"census"}  # its hard indexes must be built inside the timed part


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true", help="record spans; written to perfbench/out/")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args(argv)
    speed = Speed()  # part of set-up time: about 6 ms
    tracer = Tracer(False)
    try:
        ops = WORKLOADS[args.workload](args.seed, args.tiny, tracer)
        setup_factor = (speed.factor + CALIBRATION_REF_S / calibrate()) / 2
        print("READY", flush=True)
        if args.setup_only:
            print(json.dumps({"setup_factor": setup_factor}), flush=True)
            return 0
        # a traced run alternates traced and untraced rounds, so the tracing
        # overhead is measured in one process at one machine speed; census
        # runs one round per process, so its untraced round is another run
        plain, traced = Tally(ops), Tally(ops)
        end = time.perf_counter() + args.seconds
        while True:
            tracer.enabled = args.traced and (traced.rounds <= plain.rounds
                                              or args.workload in ONE_ROUND)
            run_round(ops, tracer, traced if tracer.enabled else plain, speed)
            if args.workload in ONE_ROUND:
                break
            if time.perf_counter() >= end and (plain.rounds or not args.traced):
                break
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    out = (traced if args.traced else plain).as_dict()
    out["setup_factor"] = setup_factor
    if args.traced:
        if plain.rounds:
            out["plain"] = plain.as_dict()
        out["self_s"] = tracer.self_times()
        tracer.dump(os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                                 f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
