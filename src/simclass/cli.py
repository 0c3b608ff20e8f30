"""Command line interface.

Rings are named by descriptor: z:<p>:<length> is Z/p^length and
t:<p>:<length> is F_p[t]/(t^length).  Matrices are given either inline
as a JSON array of rows (detected by a leading '[') or as a path to a
file holding one.  Group names are case-insensitive: m for all square
matrices, gl for the invertible ones.

Witness convention on output: a printed witness X satisfies
first * X = X * second exactly, where (first, second) is (A, B) for
`similar A B` and (input, canonical) for `canon`.

Exit codes: 0 success (for `similar`: the matrices are similar), 1 not
similar, 64 usage or input error, 65 budget exceeded, 70 verification
mismatch: `verify` found counts that disagree, or an exact identity a
result must satisfy (a witness or intertwiner identity, a centralizer
order dividing |GL_n|, the orbit oracle's partition of the states)
failed, which is raised as VerificationFailed and is never skipped by
`python -O`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canon2 import canon2, count2, enumerate2
from .canon3 import canon3
from .census import count3, enumerate3, gf_coeffs, type_histogram
from .errors import BudgetExceeded, SearchBudgetExceeded, SimclassError, VerificationFailed
from .matrix import Mat
from .modsolve import centralizer_order, group_order, is_similar
from .oracle import orbit_census, verify_counts
from .ring import parse_ring

EX_OK = 0
EX_DIFFERENT = 1
EX_USAGE = 64
EX_BUDGET = 65
EX_MISMATCH = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read_matrix(ctx, text: str) -> Mat:
    s = text.strip()
    if not s.startswith("["):
        with open(s) as fh:
            s = fh.read().strip()
    rows = json.loads(s)
    return Mat.from_rows(ctx, rows)


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True))


# ----------------------------------------------------------------------
# subcommands


def _cmd_canon(args) -> int:
    ctx = parse_ring(args.ring)
    m = _read_matrix(ctx, args.matrix)
    if m.n == 2:
        form, w = canon2(m)
    elif m.n == 3:
        form = canon3(m)
        w = form.witness
    else:
        raise SimclassError("canon expects a 2x2 or 3x3 matrix")
    canonical = form.rebuild()
    x = w.inverse()  # w m w^-1 = canonical, so m x = x canonical
    if m @ x != x @ canonical:
        raise VerificationFailed("canon witness fails m x = x canonical")
    _print_json(
        {
            "ring": ctx.descriptor,
            "form": form.to_json(),
            "canonical": canonical.rows(),
            "witness": x.rows(),
        }
    )
    return EX_OK


def _cmd_similar(args) -> int:
    ctx = parse_ring(args.ring)
    a = _read_matrix(ctx, args.a)
    b = _read_matrix(ctx, args.b)
    ok, x = is_similar(a, b)
    _print_json({"similar": ok, "witness": x.rows() if ok else None})
    return EX_OK if ok else EX_DIFFERENT


def _group(args) -> str:
    return args.group.upper()


def _cmd_count(args) -> int:
    fn = count2 if args.n == 2 else count3
    print(fn(args.q, args.level, _group(args)))
    return EX_OK


def _cmd_gf(args) -> int:
    if args.n == 3:
        coeffs = gf_coeffs(args.q, _group(args), args.terms)
    else:
        coeffs = [count2(args.q, i, _group(args)) for i in range(args.terms)]
    print(" ".join(str(c) for c in coeffs))
    return EX_OK


def _cmd_enumerate(args) -> int:
    ctx = parse_ring(args.ring)
    if args.n == 2:
        entries = [(f, f.rebuild()) for f in enumerate2(ctx, _group(args), args.budget)]
    else:
        entries = enumerate3(ctx, _group(args), args.budget)
    for form, mat in entries:
        _print_json({"form": form.to_json(), "matrix": mat.rows()})
    return EX_OK


def _cmd_histogram(args) -> int:
    ctx = parse_ring(args.ring)
    hist = type_histogram(ctx, _group(args), args.budget)
    _print_json(
        {
            "ring": ctx.descriptor,
            "group": _group(args),
            "count": sum(hist[-1]),
            "histogram": [list(v) for v in hist],
        }
    )
    return EX_OK


def _cmd_oracle_census(args) -> int:
    ctx = parse_ring(args.ring)
    census = orbit_census(ctx, args.n, max_states=args.max_states, cache_dir=args.cache)
    _print_json(
        {
            "ring": ctx.descriptor,
            "n": args.n,
            "classes": census.class_count("M"),
            "gl_classes": census.class_count("GL"),
            "largest_orbit": int(census.sizes.max()),
        }
    )
    return EX_OK


def _cmd_centralizer(args) -> int:
    ctx = parse_ring(args.ring)
    m = _read_matrix(ctx, args.matrix)
    order = centralizer_order(m)
    total = group_order(ctx, m.n)
    _print_json(
        {
            "ring": ctx.descriptor,
            "order": order,
            "group_order": total,
            "orbit_size": total // order,
        }
    )
    return EX_OK


def _cmd_verify(args) -> int:
    ctx = parse_ring(args.ring)
    report = verify_counts(ctx, args.n, max_states=args.max_states, cache_dir=args.cache)
    for row in report["counts"]:
        print(
            "{} n={} {}: oracle={} formula={} enumerated={} {}".format(
                report["ring"], report["n"], row["group"], row["oracle"],
                row["formula"], row["enumerated"], "ok" if row["match"] else "MISMATCH",
            )
        )
    print(
        "{} n={} canonical forms constant on {}/{} sampled orbits".format(
            report["ring"], report["n"], report["canon_agreements"],
            report["canon_samples"],
        )
    )
    return EX_OK if report["mismatches"] == 0 else EX_MISMATCH


# ----------------------------------------------------------------------
# parser


def _add_group(sp):
    sp.add_argument("--group", default="m", type=str.lower, choices=["m", "gl"],
                    help="all matrices (m) or invertible ones (gl)")


def _add_budget(sp):
    sp.add_argument("--budget", type=int, default=10_000_000,
                    help="largest representative list this command may build")


def _add_oracle_opts(sp):
    sp.add_argument("--n", type=int, choices=[2, 3], default=3, help="matrix size")
    sp.add_argument("--max-states", type=int, default=2**28,
                    help="largest state space the orbit search may visit")
    sp.add_argument("--cache", default=None,
                    help="census cache directory (default: env SIMCLASS_CACHE_DIR)")


def build_parser() -> _Parser:
    ap = _Parser(prog="simclass",
                 description="similarity classes of 2x2 and 3x3 matrices over chain rings")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("canon", parents=[], help="canonical form and witness of one matrix")
    sp.add_argument("--ring", required=True, help="ring descriptor, e.g. z:2:2")
    sp.add_argument("matrix", help="JSON rows or a file path")
    sp.set_defaults(fn=_cmd_canon)

    sp = sub.add_parser("similar", help="decide similarity of two matrices")
    sp.add_argument("--ring", required=True)
    sp.add_argument("a", help="JSON rows or a file path")
    sp.add_argument("b", help="JSON rows or a file path")
    sp.set_defaults(fn=_cmd_similar)

    sp = sub.add_parser("count", help="closed-form class count")
    sp.add_argument("--n", type=int, choices=[2, 3], default=3, help="matrix size")
    _add_group(sp)
    sp.add_argument("--q", type=int, required=True, help="residue field size")
    sp.add_argument("--level", type=int, required=True, help="ring length")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("gf", help="generating function coefficients")
    sp.add_argument("--n", type=int, choices=[2, 3], default=3, help="matrix size")
    _add_group(sp)
    sp.add_argument("--q", type=int, required=True, help="residue field size")
    sp.add_argument("--terms", type=int, required=True, help="number of coefficients")
    sp.set_defaults(fn=_cmd_gf)

    sp = sub.add_parser("enumerate", help="stream one JSON line per class representative")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--n", type=int, choices=[2, 3], default=3, help="matrix size")
    _add_group(sp)
    _add_budget(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("histogram", help="class counts by residue type, level by level")
    sp.add_argument("--ring", required=True)
    _add_group(sp)
    _add_budget(sp)
    sp.set_defaults(fn=_cmd_histogram)

    sp = sub.add_parser("oracle-census", help="brute-force conjugation orbit census")
    sp.add_argument("--ring", required=True)
    _add_oracle_opts(sp)
    sp.set_defaults(fn=_cmd_oracle_census)

    sp = sub.add_parser("centralizer", help="exact centralizer order of one matrix")
    sp.add_argument("--ring", required=True)
    sp.add_argument("matrix", help="JSON rows or a file path")
    sp.set_defaults(fn=_cmd_centralizer)

    sp = sub.add_parser("verify", help="cross-check oracle, formulas and enumeration")
    sp.add_argument("--ring", required=True)
    _add_oracle_opts(sp)
    sp.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse error paths
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except (BudgetExceeded, SearchBudgetExceeded) as exc:
        print(f"simclass: budget exceeded: {exc}", file=sys.stderr)
        return EX_BUDGET
    except VerificationFailed as exc:
        print(f"simclass: verification failed: {exc}", file=sys.stderr)
        return EX_MISMATCH
    except SimclassError as exc:
        print(f"simclass: {exc}", file=sys.stderr)
        return EX_USAGE
    except (OSError, TypeError, ValueError) as exc:
        print(f"simclass: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
