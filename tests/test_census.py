"""Counting layer: transfer recursion, closed forms, series, enumeration."""

import importlib

import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
    CountVector,
    CyclicBody,
    Mat,
    ScalarBody,
    SplitBody,
    VerificationFailed,
    canon3,
    count2,
    count3,
    e_matrix,
    enumerate3,
    gf_coeffs,
    parse_ring,
    ring_ctx,
    scalar,
    type_histogram,
)
from simclass.census import _classify_form, _enumerate
from simclass.cli import EX_MISMATCH
from conftest import (base_vector, block_diag, count2_recursion, level_vector, placed,
                      run_python, theta, transfer_matrix, transfer_power)

ANCHORS = [
    (2, 1, "M", 14),
    (2, 1, "GL", 6),
    (2, 2, "M", 144),
    (2, 2, "GL", 60),
    (3, 1, "M", 39),
    (3, 1, "GL", 24),
    (3, 2, "M", 1179),
    (3, 2, "GL", 714),
    (2, 3, "M", 1296),
]


# ----------------------------------------------------------------------
# transfer matrix


def test_transfer_matrix_at_q2():
    assert transfer_matrix(2) == [
        [2, 0, 0, 0],
        [2, 4, 0, 0],
        [2, 0, 4, 0],
        [8, 8, 10, 8],
    ]


def test_transfer_power_level_edge_cases():
    for mode in ("iterate", "closed"):
        assert transfer_power(3, 0, mode) == [
            [1 if i == j else 0 for j in range(4)] for i in range(4)
        ]
        assert transfer_power(3, 1, mode) == transfer_matrix(3)


def test_transfer_power_closed_matches_iterate():
    for q in (2, 3, 5, 7):
        for level in range(7):
            assert transfer_power(q, level, "closed") == transfer_power(q, level, "iterate")
            assert transfer_power(q, level, "closed_form") == transfer_power(q, level, "closed")


def test_transfer_square_corner_entry():
    for q in (2, 3, 5, 7, 11):
        assert transfer_power(q, 2)[3][0] == q**6 + q**5 + q**4 + q**2


def test_theta_small_levels():
    for q in (2, 3, 5, 7):
        assert theta(q, 1) == q**3
        assert theta(q, 2) == q**6 + q**5 + q**4 + q**2
        # theta is the corner of the power for every level
        for level in (3, 4, 5):
            assert theta(q, level) == transfer_power(q, level, "iterate")[3][0]


# ----------------------------------------------------------------------
# class counts


def test_count3_anchor_values():
    for q, level, group, expected in ANCHORS:
        assert count3(q, level, group) == expected


def test_count3_level_zero_is_one():
    assert count3(2, 0) == 1
    assert count3(3, 0, "GL") == 1


def test_count3_closed_matches_recursion():
    for q in (2, 3, 5, 7):
        for level in range(1, 11):
            for group in ("M", "GL"):
                assert count3(q, level, group) == sum(level_vector(q, level, group))


def test_count3_rejects_bad_arguments():
    with pytest.raises(BadParams):
        count3(1, 2)
    with pytest.raises(BadParams):
        count3(2, -1)
    with pytest.raises(BadParams):
        count3(2, 2, "SL")
    # level 0 has one class, but only for a group that exists
    with pytest.raises(BadParams):
        count3(2, 0, "bogus")


NON_INT_COUNT_CALLS = [
    (count3, (2.0, 2)),
    (count3, (2, 2.0)),
    (count2, (3.0, 2)),
    (count2, (3, True)),
    (gf_coeffs, (2.0,)),
    (gf_coeffs, (2, "M", 3.0)),
    (gf_coeffs, (True,)),
]


@pytest.mark.parametrize(
    "fn,args", NON_INT_COUNT_CALLS, ids=[f"{f.__name__}{a}" for f, a in NON_INT_COUNT_CALLS]
)
def test_count_parameters_must_be_ints(fn, args):
    # a float or bool is refused, not counted with: count3(2.0, 2) was 144.0
    with pytest.raises(BadParams):
        fn(*args)


def test_vectors():
    assert base_vector(2) == CountVector(2, 2, 2, 8)
    assert base_vector(2, "GL") == CountVector(1, 0, 1, 4)
    assert base_vector(3, "GL") == CountVector(2, 2, 2, 18)
    assert level_vector(2, 1) == base_vector(2)
    v = level_vector(2, 2)
    assert v == CountVector(4, 12, 12, 116)
    assert v.scalar == 4 and v.rest == 116
    assert sum(v) == 144
    assert sum(level_vector(2, 2, "GL")) == 60


# ----------------------------------------------------------------------
# generating function


def test_gf_coeffs_match_counts():
    for q in (2, 3):
        for group in ("M", "GL"):
            coeffs = gf_coeffs(q, group, 11)
            assert coeffs == [count3(q, i, group) for i in range(11)]
            assert coeffs[0] == 1


def test_the_three_counts_agree_for_every_q_and_level():
    """count3, the transfer recursion and the generating function agree,
    and so do count2 and its recursion, at every q >= 2 and level >= 1.

    In the level l, every one of these sequences satisfies the order-4
    linear recurrence with characteristic polynomial
    (x-q)(x-q^2)^2(x-q^3): the closed forms and the series are sums of
    q^l, q^(2l) and q^(3l) terms, and the transfer matrices are
    triangular with eigenvalues among q, q^2, q^2, q^3.  So agreement at
    l = 1..4 is agreement at every level.  At a fixed l <= 4, each side
    times q^2 (q-1)(q^2-1) is a polynomial in q of degree at most
    3l + 5 <= 17, so agreement at the 20 values q = 2..21 makes the two
    polynomials equal, and the counts agree at every q.
    """
    for q in range(2, 22):
        for group in ("M", "GL"):
            series = gf_coeffs(q, group, 5)
            for level in range(1, 5):
                assert count3(q, level, group) == sum(level_vector(q, level, group))
                assert count3(q, level, group) == series[level]
                assert count2(q, level, group) == count2_recursion(q, level, group)


def test_gf_coeffs_first_terms_at_q2():
    assert gf_coeffs(2, "M", 5) == [1, 14, 144, 1296, 10976]
    assert gf_coeffs(2, "GL", 3) == [1, 6, 60]


def test_gf_coeffs_rejects_bad_arguments():
    for q, group, terms in ((1, "M", 3), (0, "GL", 3), (-1, "M", 3), (2, "M", 0), (2, "SL", 3)):
        with pytest.raises(BadParams):
            gf_coeffs(q, group, terms)


# ----------------------------------------------------------------------
# enumeration


def test_enumerate3_counts():
    cases = [
        (("z", 2, 1), "M", 14),
        (("z", 2, 1), "GL", 6),
        (("z", 2, 2), "M", 144),
        (("z", 2, 2), "GL", 60),
        (("t", 2, 2), "M", 144),
        (("z", 3, 1), "M", 39),
        (("z", 3, 1), "GL", 24),
        # the count certifies that distinct normal forms are distinct
        # classes at length 2
        (("z", 5, 2), "M", 20175),
        (("z", 5, 2), "GL", 15540),
        (("t", 5, 2), "M", 20175),
        (("t", 5, 2), "GL", 15540),
    ]
    for desc, group, expected in cases:
        ctx = ring_ctx(*desc)
        reps = enumerate3(ctx, group)
        assert len(reps) == expected == count3(ctx.q, ctx.length, group)
        assert len({form for form, _ in reps}) == expected


def test_enumerate3_pairs_are_consistent():
    ctx = ring_ctx("z", 2, 2)
    for form, mat in enumerate3(ctx):
        assert mat == form.rebuild()
        assert mat.ctx is ctx and mat.n == 3


def test_enumerate3_reps_are_canonical_fixed_points():
    ctx = ring_ctx("z", 3, 1)
    for form, mat in enumerate3(ctx):
        redone = canon3(mat)
        assert redone == form


def test_enumerate3_gl_reps_are_invertible():
    ctx = ring_ctx("z", 2, 2)
    for _, mat in enumerate3(ctx, "GL"):
        assert mat.is_invertible()


def test_enumerate3_larger_ring_matches_count():
    ctx = ring_ctx("z", 3, 2)
    assert len(enumerate3(ctx)) == 1179


@pytest.mark.slow
@pytest.mark.parametrize("desc", ["z:7:2", "t:7:2"])
def test_enumerate3_matches_count_on_length_two_rings_past_the_default_tier(desc):
    # one form per class, as many as the closed form counts (139699 for M)
    ctx = parse_ring(desc)
    for group in ("M", "GL"):
        reps = enumerate3(ctx, group)
        assert len(reps) == count3(ctx.q, ctx.length, group)
        assert len({form for form, _ in reps}) == len(reps)


@pytest.mark.parametrize(
    "desc",
    ["z:3:3", "z:2:4", "t:2:4"]
    + [pytest.param(d, marks=pytest.mark.slow) for d in ("t:3:3", "z:2:5", "t:2:5", "t:5:3", "z:2:6")],
)
def test_enumerate3_matches_count_past_length_two(desc):
    # the hard transversal is the normal forms alone, so the count
    # certifies that they separate classes (90304 M classes at z:2:5,
    # 732544 at z:2:6)
    ctx = parse_ring(desc)
    for group in ("M", "GL"):
        reps = enumerate3(ctx, group)
        assert len(reps) == count3(ctx.q, ctx.length, group)
        assert len({form for form, _ in reps}) == len(reps)


@pytest.mark.slow
def test_enumerate3_matches_count_over_z125():
    # 2542125 classes; about 12-15 s and 1.1 GB peak RSS on 2 vCPU
    assert len(enumerate3(ring_ctx("z", 5, 3))) == count3(5, 3) == 2542125


def test_enumerate3_checks_its_count(monkeypatch):
    # a hard family that repeats a form is caught, also under -O, where the
    # CLI exits 70 after streaming every line
    census = importlib.import_module("simclass.census")
    real = census.hard_family
    monkeypatch.setattr(census, "hard_family", lambda tctx: real(tctx) + real(tctx)[:1])
    with pytest.raises(VerificationFailed, match="count3 gives 144"):
        enumerate3(ring_ctx("z", 2, 2))
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "census = importlib.import_module('simclass.census')\n"
        "real = census.hard_family\n"
        "census.hard_family = lambda tctx: real(tctx) + real(tctx)[:1]\n"
        "sys.exit(main(['enumerate', '--ring', 'z:2:2', '--group', 'gl']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "count3 gives 60" in proc.stderr
    assert len(proc.stdout.splitlines()) == 61


def test_enumerate3_budget():
    with pytest.raises(BudgetExceeded):
        enumerate3(ring_ctx("z", 5, 3), budget=100)


@pytest.mark.parametrize("budget", [2.5e9, True])
def test_enumeration_refuses_a_budget_that_is_no_int(budget):
    with pytest.raises(BadParams, match="budget"):
        enumerate3(ring_ctx("z", 2, 2), budget=budget)


@pytest.mark.parametrize("n", [1, 4, 3.0])
def test_enumeration_refuses_a_size_other_than_two_or_three_before_any_form(n):
    with pytest.raises(BadParams):
        next(_enumerate(ring_ctx("z", 2, 2), n, "M"))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("group", ["M", "GL"])
@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:3:2", "t:3:2", "z:5:2", "t:2:4"])
def test_streamed_matrix_is_the_rebuilt_form(desc, group, n):
    # the stream builds each matrix from per-level body matrices;
    # CanonicalForm.rebuild builds it from the form alone
    ctx = parse_ring(desc)
    for form, mat in _enumerate(ctx, n, group):
        assert mat == form.rebuild()


def _body_matrix(form):
    """The matrix of the form's body over the length-(l-level) ring, built
    from the body's fields with the public constructors; None for a
    scalar body."""
    body, ctx = form.body, form.ctx
    if isinstance(body, ScalarBody):
        return None
    tctx = ctx.truncated(ctx.length - form.level)
    if isinstance(body, CyclicBody):  # the identity band above the coefficient row
        k = len(body.coeffs)
        band = [[int(j == i + 1) for j in range(k)] for i in range(k - 1)]
        return Mat.from_rows(tctx, band + [list(body.coeffs)])
    if isinstance(body, SplitBody):
        inner = body.inner
        return block_diag(tctx, body.a, placed(tctx, 2, inner.level, inner.d, _body_matrix(inner)))
    return e_matrix(tctx, body.m, body.a, body.b, body.c, body.d)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("group", ["M", "GL"])
@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:3:2", "t:3:2", "z:5:2", "t:2:4"])
def test_streamed_matrix_is_built_from_the_body_fields(desc, group, n):
    # the stream and CanonicalForm.rebuild share one builder; this derives
    # each class matrix d*I + pi^level * B apart from it
    ctx = parse_ring(desc)
    for form, mat in _enumerate(ctx, n, group):
        assert mat == placed(ctx, n, form.level, form.d, _body_matrix(form))


# ----------------------------------------------------------------------
# bucket classification and histograms


def test_classify_form_buckets():
    ctx = ring_ctx("z", 2, 2)
    by_bucket = {0: 0, 1: 0, 2: 0, 3: 0}
    for form, _ in enumerate3(ctx):
        by_bucket[_classify_form(form)] += 1
    assert _classify_form(canon3(scalar(ctx, 3, 3))) == 0
    assert tuple(by_bucket[k] for k in range(4)) == (4, 12, 12, 116)


def test_type_histogram_matches_transfer_recursion():
    ctx = ring_ctx("z", 2, 2)
    hist = type_histogram(ctx)
    assert hist == [CountVector(2, 2, 2, 8), CountVector(4, 12, 12, 116)]
    t = transfer_matrix(2)
    pushed = CountVector(*(sum(t[i][k] * hist[0][k] for k in range(4)) for i in range(4)))
    assert pushed == hist[1]


def test_type_histogram_gl_base():
    hist = type_histogram(ring_ctx("z", 2, 1), "GL")
    assert hist == [CountVector(1, 0, 1, 4)]


@pytest.mark.parametrize("budget", [1000, 1453])
def test_type_histogram_checks_its_budget_before_any_length(monkeypatch, budget):
    # over z:2:3 the lengths hold 14 + 144 + 1296 = 1454 classes: every
    # length fits a budget of 1453, and the first two fit 1000, but the
    # budget bounds their sum, which is refused before any enumeration
    census = importlib.import_module("simclass.census")
    built = []
    monkeypatch.setattr(census, "_enumerate", lambda ctx, *args: built.append(ctx) or iter(()))
    with pytest.raises(BudgetExceeded, match="1454 classes"):
        type_histogram(ring_ctx("z", 2, 3), budget=budget)
    assert built == []
    monkeypatch.undo()
    assert sum(map(sum, type_histogram(ring_ctx("z", 2, 3), budget=1454))) == 1454
