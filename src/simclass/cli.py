"""Command line interface.

Rings are named by descriptor: z:<p>:<length> is Z/p^length and
t:<p>:<length> is F_p[t]/(t^length).  Matrices are given either inline
as a JSON array of rows (detected by a leading '[') or as a path to a
file holding one.  Group names are case-insensitive: m for all square
matrices, gl for the invertible ones.

Witness convention on output: a printed witness X satisfies
first * X = X * second exactly, where (first, second) is (A, B) for
`similar A B` and (input, canonical) for `canon`.  These are the only
witnesses printed: a form's JSON carries none, so `enumerate` lines,
whose matrices are their own canonical forms, have no witness either.

Exit codes: 0 success (for `similar`: the matrices are similar), 1 not
similar, 64 usage or input error, 65 budget exceeded (an enumeration's
--budget or the orbit oracle's --max-states), 70 verification mismatch:
`verify` found counts that disagree, or an exact identity a result must
satisfy (a witness identity, a centralizer order dividing |GL_n|, the
orbit oracle's partition of the states) failed, which is raised as
VerificationFailed and is never skipped by `python -O`.  `enumerate`
streams one line per class as it builds it and compares the number of
classes with count2 or count3 after the last line, so a count mismatch
exits 70 after the output.  Its --budget bounds that class count, for
both sizes and groups, and is checked before the first line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canon3 import canon
from .errors import BadParams, BudgetExceeded, SimclassError, VerificationFailed
from .matrix import Mat
from .ring import _decimal, parse_ring

# census and modsolve are imported by the commands that call them: a
# process without a bytecode cache compiles every module it imports

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


_encode_json = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds an encoder per call


def _print_json(obj):
    print(_encode_json(obj))


def _print_counts(counts):
    """Print exact counts of any size.  The interpreter's limit on the
    digits of an int-to-str conversion (Python 3.11, 3.10.7) is lifted for
    this output only; parsing a descriptor or a matrix keeps it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(" ".join(map(str, counts)))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ----------------------------------------------------------------------
# subcommands


def _cmd_canon(args) -> int:
    ctx = parse_ring(args.ring)
    m = _read_matrix(ctx, args.matrix)
    form = canon(m)
    canonical = form.rebuild()
    x = form.witness.inverse()  # W m W^-1 = canonical, so m x = x canonical
    if not x.conjugates(canonical, m):
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
    from .modsolve import is_similar

    ctx = parse_ring(args.ring)
    a = _read_matrix(ctx, args.a)
    b = _read_matrix(ctx, args.b)
    ok, x = is_similar(a, b)
    _print_json({"similar": ok, "witness": x.rows() if ok else None})
    return EX_OK if ok else EX_DIFFERENT


def _group(args) -> str:
    return args.group.upper()


def _cmd_count(args) -> int:
    from .census import count2, count3

    fn = count2 if args.n == 2 else count3
    _print_counts([fn(args.q, args.level, _group(args))])
    return EX_OK


def _cmd_gf(args) -> int:
    from .census import count2, gf_coeffs

    if args.n == 3:
        coeffs = gf_coeffs(args.q, _group(args), args.terms)
    else:
        if args.q < 2 or args.terms < 1:
            raise BadParams("need q >= 2 and terms >= 1")  # as gf_coeffs says for n = 3
        coeffs = [count2(args.q, i, _group(args)) for i in range(args.terms)]
    _print_counts(coeffs)
    return EX_OK


def _cmd_enumerate(args) -> int:
    from .census import _enumerate

    ctx = parse_ring(args.ring)
    for form, mat in _enumerate(ctx, args.n, _group(args), args.budget):
        _print_json({"form": form.to_json(), "matrix": mat.rows()})
    return EX_OK


def _cmd_histogram(args) -> int:
    from .census import type_histogram

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
    from .oracle import orbit_census  # numpy loads only for the oracle commands

    ctx = parse_ring(args.ring)
    census = orbit_census(ctx, args.n, max_states=args.max_states)
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
    from .modsolve import centralizer_order, group_order

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
    from .oracle import verify_counts

    ctx = parse_ring(args.ring)
    report = verify_counts(ctx, args.n, max_states=args.max_states)
    for row in report["counts"]:
        if row["error"]:
            print(f"simclass: verification failed: {row['error']}", file=sys.stderr)
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


def _int(text: str) -> int:
    """An integer argument in plain decimal: "1_1", "+3" or "03", which
    int() would read, are refused (see ring._decimal)."""
    n = _decimal(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def _non_negative(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _add_group(sp):
    sp.add_argument("--group", default="m", type=str.lower, choices=["m", "gl"],
                    help="all matrices (m) or invertible ones (gl)")


def _add_budget(sp):
    sp.add_argument("--budget", type=_non_negative, default=10_000_000,
                    help="most classes this command may build")


def _add_oracle_opts(sp):
    sp.add_argument("--n", type=_int, choices=[2, 3], default=3, help="matrix size")
    sp.add_argument("--max-states", type=_non_negative, default=2**28,
                    help="most states the orbit census may flood: |A|^(n^2-1) "
                         "when p does not divide n, |A|^(n^2) otherwise")


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
    sp.add_argument("--n", type=_int, choices=[2, 3], default=3, help="matrix size")
    _add_group(sp)
    sp.add_argument("--q", type=_int, required=True, help="residue field size")
    sp.add_argument("--level", type=_int, required=True, help="ring length")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("gf", help="generating function coefficients")
    sp.add_argument("--n", type=_int, choices=[2, 3], default=3, help="matrix size")
    _add_group(sp)
    sp.add_argument("--q", type=_int, required=True, help="residue field size")
    sp.add_argument("--terms", type=_int, required=True, help="number of coefficients")
    sp.set_defaults(fn=_cmd_gf)

    sp = sub.add_parser("enumerate", help="stream one JSON line per class representative")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--n", type=_int, choices=[2, 3], default=3, help="matrix size")
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
    except BudgetExceeded as exc:
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
