"""Class counts, enumeration and residue-type census for 2x2 and 3x3
matrices.

The 2x2 and 3x3 counts have closed forms, and gf_coeffs reads the 3x3
counts off the generating function's partial fractions.  type_histogram
buckets the classes at each length as (scalar, split-with-scalar-block,
pure-J, rest).  The paper's 4-state transfer recursion on those buckets,
which maps the bucket vector of length l-1 to that of length l, is the
tests' reference (tests/conftest.py): the closed forms, the generating
function and the histogram are each checked against it.

Enumeration builds one representative per class directly, family by
family; no orbit search and no similarity solver is involved.  One
stream serves both sizes: scalar and cyclic bodies for either, then
split and hard bodies for 3x3.  Hard bodies come from hard_family,
which generates the canon3 normal forms of pi-power shapes from their
tag conditions and checks each is a normalization fixed point, so
enumeration and canon3 agree on representatives by construction.  Each
class is streamed with its matrix d*I + pi^level * B: each body lays out
the values of its matrix B (those a level reuses once per level), and
the placement that CanonicalForm.rebuild uses puts them in place.  The
CLI prints each class as it is built.  Each enumeration checks its
class count against count2 or count3 after its last class, which
certifies, ring by ring, that those normal forms separate classes and
miss none.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import NamedTuple

from .canon2 import CanonicalForm, CyclicBody, ScalarBody, _placer
from .canon3 import HardBody, SplitBody, _split_vals, hard_family
from .errors import BadParams, BudgetExceeded, NonIntegralDivision, VerificationFailed
from .matrix import _check_size, identity
from .ring import RingCtx

__all__ = [
    "CountVector",
    "count2",
    "count3",
    "gf_coeffs",
    "enumerate3",
    "type_histogram",
]


class CountVector(NamedTuple):
    """Class counts at one length, bucketed as in _classify_form."""

    scalar: int
    split_scalar_block: int
    pure_j: int
    rest: int


def _check_ints(**args):
    """Refuse a count parameter that is not an int (a float or bool too)."""
    for name, v in args.items():
        if type(v) is not int:
            raise BadParams(f"{name} = {v!r} is not an integer")


def _check_count_args(q: int, level: int, group: str):
    """Refuse what count2 and count3 cannot count, before any shortcut."""
    _check_ints(q=q, level=level)
    if q < 2 or level < 0:
        raise BadParams("need q >= 2 and level >= 0")
    if group not in ("M", "GL"):
        raise BadParams(f"group must be 'M' or 'GL', got {group!r}")


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise NonIntegralDivision(f"{num} not divisible by {den}")
    return num // den


def count2(q: int, level: int, group: str = "M") -> int:
    """Number of similarity classes of 2x2 matrices at the given level."""
    _check_count_args(q, level, group)
    if level == 0:
        return 1
    if group == "M":
        return _exact_div(q ** (2 * level + 1) - q**level, q - 1)
    return q ** (2 * level) - q ** (level - 1)


def count3(q: int, level: int, group: str = "M") -> int:
    """Number of 3x3 similarity classes at the given level."""
    _check_count_args(q, level, group)
    if level == 0:
        return 1
    i = level
    if group == "M":
        num = (
            q ** (3 * i + 3)
            + q ** (3 * i - 1)
            - q ** (2 * i + 2)
            - q ** (2 * i + 1)
            - q ** (2 * i)
            - q ** (2 * i - 1)
            + 2 * q**i
        )
        return _exact_div(num, (q - 1) * (q * q - 1))
    num = (
        q ** (3 * i + 2)
        - q ** (3 * i)
        + 2 * q ** (3 * i - 2)
        - q ** (2 * i + 1)
        - q ** (2 * i - 1)
        - 2 * q ** (2 * i - 2)
        + 2 * q ** (i - 1)
    )
    return _exact_div(num, q * q - 1)


def gf_coeffs(q: int, group: str = "M", terms: int = 1):
    """First `terms` coefficients of the class-count generating function.

    Computed from its three-pole partial fraction decomposition, i.e.
    as a sum of three geometric sequences with rational weights, not by
    reusing the closed form of count3; the tests check the two agree
    coefficient by coefficient.
    """
    from fractions import Fraction  # here only: the other commands need not load it

    _check_ints(q=q, terms=terms)
    if q < 2 or terms < 1:
        raise BadParams("need q >= 2 and terms >= 1")
    if group == "M":
        scale = Fraction(1, (q - 1) * (q * q - 1))
        series = [
            (Fraction(q**3) + Fraction(1, q), q**3),
            (-Fraction(q * q + q + 1) - Fraction(1, q), q * q),
            (Fraction(2), q),
        ]
    elif group == "GL":
        scale = Fraction(1, q * q - 1)
        series = [
            (Fraction(q * q - 1) + Fraction(2, q * q), q**3),
            (-Fraction(q) - Fraction(1, q) - Fraction(2, q * q), q * q),
            (Fraction(2, q), q),
        ]
    else:
        raise BadParams(f"group must be 'M' or 'GL', got {group!r}")
    out = []
    for i in range(terms):
        s = scale * sum(weight * pole**i for weight, pole in series)
        if i == 0 and group == "GL":
            # the three-series form alone yields (q-1)/q at index 0; the
            # convention that the length-0 quotient has one class adds a
            # constant 1/q term (the M series needs no correction)
            s += Fraction(1, q)
        if s.denominator != 1:
            raise NonIntegralDivision(f"coefficient {i} = {s} is not integral")
        out.append(int(s))
    return out


# ----------------------------------------------------------------------
# enumeration


def _classify_form(form: CanonicalForm) -> int:
    """Bucket index of the transfer recursion.

    0 scalar matrix; 1 split body whose 2x2 block is scalar; 2 hard body
    of type I (pure J shape); 3 everything else.
    """
    b = form.body
    if isinstance(b, ScalarBody):
        return 0
    if isinstance(b, SplitBody) and b.inner.level == b.inner.ctx.length:
        return 1
    if isinstance(b, HardBody) and b.tag == "I":
        return 2
    return 3


def _bodies(ctx: RingCtx, level: int, n: int, group: str, budget: int):
    """A function that streams (body, B) for the level-`level` forms over
    ctx in enumeration order, B the values of the body's matrix over the
    length-(l-level) ring as the body's vals lays them out.  At level =
    length that is the scalar body; else the bodies over the
    length-(l-level) ring: cyclic ones first (by coefficients,
    lexicographically), then, for n = 3, split ones and hard ones, each
    family in lexicographic parameter order.  What every scalar part d
    reads again is built here, once per level: the inner 2x2 forms with
    the matrix values the 2x2 stream gives them, listed once for each
    residue r as those whose residue eigenvalue is not r, and the hard
    bodies with their values.  Cyclic and split bodies are built as they
    are streamed, since each level-0 body is read once.

    The stream is a chain of maps and zips, so the only Python generator
    a class passes through is _enumerate's.

    The GL filter on the scalar part d (a unit from level 1 on) is the
    caller's; at level 0 the bodies with a singular residue are dropped.
    """
    if level == ctx.length:
        body = ScalarBody()
        return lambda: ((body, body.vals(n)),)
    tctx = ctx.truncated(ctx.length - level)
    unit, residue = tctx.is_unit_raw, tctx.mod_pi_raw
    gl_zero = group == "GL" and level == 0
    elems = range(tctx.cardinality)
    # the residue determinant of a companion is its constant term up to
    # sign, and a split residue is invertible iff both blocks' are
    units = [x for x in elems if not gl_zero or unit(x)]
    ranges = (units, *[elems] * (n - 1))  # of the coefficients a_0, ..., a_{n-1}
    head = CyclicBody((0,) * n).vals(n)[:-n]  # the companion rows above them

    def cyclic():
        return zip(map(CyclicBody, product(*ranges)), map(head.__add__, product(*ranges)))

    if n == 2:
        return cyclic
    # 2x2 forms with scalar residue, i.e. positive split level
    inners = [(f, m.vals) for f, m in _enumerate(tctx, 2, "M", budget)
              if f.level >= 1 and (not gl_zero or unit(f.d))]
    # for each residue r, the inner forms and values whose residue
    # eigenvalue differs from r: a split residue has distinct eigenvalues
    others = []
    for r in range(tctx.q):  # the residues (see ring.py)
        kept = [(f, x) for f, x in inners if residue(f.d, 1) != r]
        others.append(([f for f, _ in kept], [x for _, x in kept]))
    # a hard residue is J-shaped, so d decides invertibility
    hards = [(hb, hb.vals(n)) for hb in hard_family(tctx) if not gl_zero or unit(hb.d)]

    def split(a):
        forms, xs = others[residue(a, 1)]
        return zip(map(SplitBody, repeat(a), forms), map(_split_vals, repeat(a), xs))

    def bodies3():
        return chain(cyclic(), chain.from_iterable(map(split, units)), hards)

    return bodies3


def _enumerate(ctx: RingCtx, n: int, group: str, budget: int = 10_000_000):
    """One (CanonicalForm, Mat) pair per n x n class over ctx, streamed:
    the form, with the identity witness, and its canonical matrix
    d*I + pi^level * B, for B the body's matrix from _bodies, placed as
    form.rebuild() places it.

    Deterministic order: level ascending, then the scalar part d, then
    the bodies in the order of _bodies.  Bad parameters, and a class
    count over budget, raise before the first pair; a run that emits
    other than count2 or count3 classes raises VerificationFailed after
    the last one.
    """
    _check_size(n)
    _check_ints(budget=budget)
    total = (count2 if n == 2 else count3)(ctx.q, ctx.length, group)
    if total > budget:
        raise BudgetExceeded(f"enumerate{n} over {ctx.descriptor} exceeds budget {budget}")
    ident = identity(ctx, n)  # one shared witness: each form is a fixed point
    emitted = 0
    for level in range(ctx.length + 1):
        bodies = _bodies(ctx, level, n, group, budget)
        for d in range(ctx.q**level):  # d reduced mod pi^level (see ring.py)
            if group == "GL" and level >= 1 and not ctx.is_unit_raw(d):
                continue
            place = _placer(ctx, n, level, d)
            for body, b in bodies():
                emitted += 1
                yield CanonicalForm(ctx, n, level, d, body, ident), place(b)
    if emitted != total:
        # the hard transversal rests on normal forms alone, so a gap in
        # them shows up here as a count mismatch
        raise VerificationFailed(
            f"enumerate{n} over {ctx.descriptor} emitted {emitted} {group} classes, "
            f"count{n} gives {total}"
        )


def enumerate3(ctx: RingCtx, group: str = "M", budget: int = 10_000_000):
    """One representative per 3x3 class over ctx, as the list of
    (CanonicalForm, Mat) pairs that _enumerate streams, which raises
    unless there are count3 classes.  Every form is a canon3 fixed
    point and its matrix is d*I + pi^level * B."""
    return list(_enumerate(ctx, 3, group, budget))


def type_histogram(ctx: RingCtx, group: str = "M", budget: int = 10_000_000):
    """Bucket counts (see _classify_form) at each length 1..l of ctx.

    The budget bounds the classes of all lengths together, and is
    checked against their count3 sum before any length is enumerated.
    """
    _check_ints(budget=budget)
    total = sum(count3(ctx.q, level, group) for level in range(1, ctx.length + 1))
    if total > budget:
        raise BudgetExceeded(
            f"type_histogram over {ctx.descriptor} builds {total} classes, exceeds budget {budget}"
        )
    out = []
    for level in range(1, ctx.length + 1):
        tctx = ctx.truncated(level)
        counts = [0, 0, 0, 0]
        for form, _ in _enumerate(tctx, 3, group, budget):
            counts[_classify_form(form)] += 1
        out.append(CountVector(*counts))
    return out
