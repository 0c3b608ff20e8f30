"""Class counting, enumeration and residue-type census for 3x3 matrices.

Counts follow a 4-state linear recursion: classes at one length are
bucketed as (scalar, split-with-scalar-block, pure-J, rest) and the
transfer matrix maps the bucket vector of length l-1 to that of length
l.  Closed forms for the totals and the "rest" bucket are also
implemented and cross-checked against the recursion in the tests.

Enumeration builds one representative per class directly, family by
family; no orbit search and no similarity solver is involved.  Hard
bodies come from hard_family, which generates the canon3 normal forms
of pi-power shapes from their tag conditions and checks each is a
normalization fixed point, so enumeration and canon3 agree on
representatives by construction.  Enumeration is a stream: the CLI
prints each class as it is built.  Each enumeration checks its class
count against count3 after its last class, which certifies, ring by
ring, that those normal forms separate classes and miss none.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .canon2 import (
    CanonicalForm,
    CyclicBody,
    ScalarBody,
    _check_count_args,
    _exact_div,
    enumerate2,
)
from .canon3 import HardBody, SplitBody, hard_family
from .errors import BadParams, BudgetExceeded, NonIntegralDivision, VerificationFailed
from .matrix import identity
from .ring import RingCtx, RingElem, Section

__all__ = [
    "CountVector",
    "transfer_matrix",
    "base_vector",
    "level_vector",
    "count3",
    "theta",
    "gf_coeffs",
    "classify_form",
    "enumerate3",
    "type_histogram",
]


class CountVector(NamedTuple):
    """Class counts at one length, bucketed as in classify_form."""

    scalar: int
    split_scalar_block: int
    pure_j: int
    rest: int


def transfer_matrix(q: int):
    """Bucket-count transfer matrix from length l-1 to length l."""
    return [
        [q, 0, 0, 0],
        [q * q - q, q * q, 0, 0],
        [q, 0, q * q, 0],
        [q**3, q**3, q**3 + q, q**3],
    ]


def base_vector(q: int, group: str = "M") -> CountVector:
    """Bucket counts at length 1 (over the residue field)."""
    if group == "M":
        return CountVector(q, q * q - q, q, q**3)
    if group == "GL":
        return CountVector(q - 1, (q - 1) * (q - 2), q - 1, q**3 - q * q)
    raise BadParams(f"group must be 'M' or 'GL', got {group!r}")


def level_vector(q: int, level: int, group: str = "M") -> CountVector:
    """Bucket counts at the given length: transfer_matrix^(level-1) applied
    to the base vector."""
    if q < 2 or level < 1:
        raise BadParams("need q >= 2 and level >= 1")
    v = base_vector(q, group)
    t = transfer_matrix(q)
    for _ in range(level - 1):
        v = CountVector(*(sum(t[i][k] * v[k] for k in range(4)) for i in range(4)))
    return v


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


def theta(q: int, level: int) -> int:
    """Closed form for the "rest" bucket (component 4 of level_vector).

    The intermediate quotients are not individually integral, so the
    product is taken over the rationals and checked at the end.
    """
    if q < 2 or level < 1:
        raise BadParams("need q >= 2 and level >= 1")
    i = level
    inner = Fraction(q**4 + 1, q - 1) * Fraction(q**i + 1, q + 1) - Fraction(q**3 + 1, q - 1)
    out = q ** (i - 1) * Fraction(q**i - 1, q - 1) * inner
    if out.denominator != 1:
        raise NonIntegralDivision(f"theta({q}, {level}) = {out} is not integral")
    return int(out)


def gf_coeffs(q: int, group: str = "M", terms: int = 1):
    """First `terms` coefficients of the class-count generating function.

    Computed from its three-pole partial fraction decomposition, i.e.
    as a sum of three geometric sequences with rational weights, not by
    reusing the closed form of count3; the tests check the two agree
    coefficient by coefficient.
    """
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


def classify_form(form: CanonicalForm) -> int:
    """Bucket index used by the transfer recursion.

    0 scalar matrix; 1 split body whose 2x2 block is scalar; 2 hard body
    of type I (pure J shape); 3 everything else.
    """
    b = form.body
    if isinstance(b, ScalarBody):
        return 0
    if isinstance(b, SplitBody) and b.inner.level == b.inner.ctx.length:
        return 1
    if isinstance(b, HardBody) and b.form.tag == "I":
        return 2
    return 3


def _split_inner_forms(tctx: RingCtx):
    # 2x2 forms with scalar residue, i.e. positive split level
    return [f for f in enumerate2(tctx) if f.level >= 1]


def enumerate3(ctx: RingCtx, group: str = "M", budget: int = 10_000_000):
    """One representative per class over ctx, as a list of
    (CanonicalForm, Mat) pairs.

    Deterministic order: level ascending, then the scalar part, then
    cyclic, split and hard bodies (each family in lexicographic
    parameter order).  Every emitted form is a canon3 fixed point, and
    a run that emits other than count3 classes raises VerificationFailed.
    """
    return [(form, form.rebuild()) for form in _enumerate3(ctx, group, budget)]


def _enumerate3(ctx: RingCtx, group: str, budget: int):
    """Generator behind enumerate3: yields its forms one by one, and
    raises VerificationFailed after the last one if they were other than
    count3 classes.  Bad parameters raise before the first form."""
    if group not in ("M", "GL"):
        raise BadParams(f"group must be 'M' or 'GL', got {group!r}")
    total = count3(ctx.q, ctx.length, group)
    if total > budget:
        raise BudgetExceeded(f"enumerate3 over {ctx.descriptor} exceeds budget {budget}")
    length, p = ctx.length, ctx.p
    ident = identity(ctx, 3)  # one shared witness: each form is a canon3 fixed point
    emitted = 0

    def emit(level: int, d: Section, body):
        nonlocal emitted
        emitted += 1
        return CanonicalForm(ctx, 3, level, d, body, ident)

    for level in range(length + 1):
        for dv in range(p**level):
            d = Section(level, RingElem(ctx, dv))
            if group == "GL" and level >= 1 and not d.value.is_unit():
                continue
            if level == length:
                yield emit(level, d, ScalarBody())
                continue
            tctx = ctx.truncated(length - level)
            gl_zero = group == "GL" and level == 0
            elems = [RingElem(tctx, v) for v in range(tctx.cardinality)]
            for c0 in elems:
                if gl_zero and c0.val % p == 0:
                    continue  # residue determinant of a companion is its constant term
                for c1 in elems:
                    for c2 in elems:
                        yield emit(level, d, CyclicBody((c0, c1, c2)))
            inners = _split_inner_forms(tctx)
            for a in elems:
                if gl_zero and a.val % p == 0:
                    continue
                for inner in inners:
                    if inner.d.value.val % p == a.val % p:
                        continue  # the two residue eigenvalues must differ
                    if gl_zero and inner.d.value.val % p == 0:
                        continue
                    yield emit(level, d, SplitBody(a, inner))
            for hf in hard_family(tctx):
                if gl_zero and hf.d.val % p == 0:
                    continue  # the residue is J-shaped, so d decides invertibility
                yield emit(level, d, HardBody(hf))
    if emitted != total:
        # the hard transversal rests on normal forms alone, so a gap in
        # them shows up here as a count mismatch
        raise VerificationFailed(
            f"enumerate3 over {ctx.descriptor} emitted {emitted} {group} classes, count3 gives {total}"
        )


def type_histogram(ctx: RingCtx, group: str = "M", budget: int = 10_000_000):
    """Bucket counts (see classify_form) at each length 1..l of ctx."""
    out = []
    for level in range(1, ctx.length + 1):
        tctx = ctx.truncated(level)
        counts = [0, 0, 0, 0]
        for form in _enumerate3(tctx, group, budget):
            counts[classify_form(form)] += 1
        out.append(CountVector(*counts))
    return out
