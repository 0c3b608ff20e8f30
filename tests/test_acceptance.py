"""Acceptance gate: eleven end-to-end checks, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion (add -s for the summary lines).  Checks needing state spaces
past the default orbit budget run under `-m slow`.
"""

import random
import time

import pytest

from simclass import (
    CountVector,
    canon3,
    centralizer_order,
    count2,
    count3,
    enumerate3,
    gf_coeffs,
    group_order,
    hard_family,
    is_similar,
    orbit_census,
    orbit_of,
    ring_ctx,
    type_histogram,
)
import reference_solver as ref
from conftest import (enumerate2, j_matrix, rand_invertible, rand_mat, transfer_matrix,
                      transfer_power)

COUNT_ANCHORS = [
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


def _line(n: int, msg: str):
    print(f"criterion {n:2d}: PASS  {msg}")


def test_criterion_01_closed_form_counts():
    for q, level, group, expected in COUNT_ANCHORS:
        assert count3(q, level, group) == expected
    worst = 0.0
    for q, level, group, expected in COUNT_ANCHORS:
        best = min(
            (lambda t0: (count3(q, level, group), time.perf_counter() - t0))(
                time.perf_counter()
            )[1]
            for _ in range(5)
        )
        worst = max(worst, best)
        assert best < 1e-3
    _line(1, f"nine anchor counts exact, slowest call {worst * 1e6:.0f}us")


def test_criterion_02_oracle_agreement(shared_census):
    t0 = time.perf_counter()
    c3x3 = shared_census(ring_ctx("z", 2, 2), 3)
    assert c3x3.class_count("M") == 144 and c3x3.class_count("GL") == 60
    assert orbit_census(ring_ctx("z", 2, 2), 2).class_count("M") == 28
    assert orbit_census(ring_ctx("z", 3, 2), 2).class_count("M") == 117
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _line(2, f"orbit censuses 144/60, 28, 117 in {elapsed:.1f}s")


def test_criterion_03_residue_field_dependence(shared_census):
    pairs_3x3 = (
        shared_census(ring_ctx("z", 2, 2), 3).class_count("M"),
        shared_census(ring_ctx("t", 2, 2), 3).class_count("M"),
    )
    assert pairs_3x3 == (144, 144)
    for p, expect in ((2, 28), (3, 117)):
        got = tuple(
            orbit_census(ring_ctx(f, p, 2), 2).class_count("M") for f in ("z", "t")
        )
        assert got == (expect, expect)
    # the 3^18-state censuses behind the q=3 3x3 comparison run under
    # -m slow; the default tier compares the enumerated transversals
    assert len(enumerate3(ring_ctx("z", 3, 2))) == 1179
    assert len(enumerate3(ring_ctx("t", 3, 2))) == 1179
    _line(3, "z- and t-flavor rings agree: 144/144, 28/28, 117/117, 1179/1179")


def test_criterion_04_two_by_two_suite():
    for desc in [("z", 2, 2), ("z", 3, 2), ("t", 2, 2)]:
        ctx = ring_ctx(*desc)
        census = orbit_census(ctx, 2)
        for group in ("M", "GL"):
            enumerated = len(enumerate2(ctx, group))
            assert (
                enumerated
                == count2(ctx.q, ctx.length, group)
                == census.class_count(group)
            )
    f9 = ring_ctx("z", 3, 1)
    assert count2(3, 1, "GL") == 8
    assert len(enumerate2(f9, "GL")) == 8
    assert orbit_census(f9, 2).class_count("GL") == 8
    _line(4, "enumerate2 = count2 = oracle on three rings; |GL2(F3) classes| = 8")


def test_criterion_05_canonical_soundness():
    rng = random.Random(5)
    for desc in [("z", 2, 2), ("z", 2, 3), ("z", 3, 2), ("t", 2, 2)]:
        ctx = ring_ctx(*desc)
        for _ in range(1000):
            a = rand_mat(ctx, 3, rng)
            x = rand_invertible(ctx, 3, rng)
            f = canon3(a)
            # the exact witness is itself the similarity proof
            assert a.conjugate_by(f.witness) == f.rebuild()
            assert canon3(a.conjugate_by(x)) == f
    _line(5, "4000 random conjugations: witnesses bit-exact, forms invariant")


def _assert_pairwise_dissimilar(reps):
    # the reference solver, not the form-based is_similar: these reps are
    # canonical forms, which that would only compare with themselves
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            ok, _ = ref.is_similar(a, b)
            assert not ok


def test_criterion_06_completeness_at_len_two():
    t0 = time.perf_counter()
    checked = 0
    for desc in [("z", 2, 1), ("z", 3, 1), ("z", 2, 2), ("t", 2, 2)]:
        reps = [m for _, m in enumerate3(ring_ctx(*desc))]
        _assert_pairwise_dissimilar(reps)
        checked += len(reps) * (len(reps) - 1) // 2
    for desc in [("z", 3, 2), ("t", 3, 2)]:
        reps = [m for _, m in enumerate3(ring_ctx(*desc))]
        buckets = {}
        for m in reps:
            buckets.setdefault(m.charpoly(), []).append(m)
        # distinct characteristic polynomials already separate classes;
        # solver calls are only needed within a bucket
        checked += len(reps) * (len(reps) - 1) // 2
        for group in buckets.values():
            _assert_pairwise_dissimilar(group)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _line(6, f"{checked} representative pairs all dissimilar in {elapsed:.1f}s")


def test_criterion_07_centralizer_formulas():
    for desc in [("z", 2, 1), ("z", 2, 2), ("z", 3, 1), ("z", 3, 2)]:
        ctx = ring_ctx(*desc)
        total = group_order(ctx, 3)
        for h in hard_family(ctx):
            mat = h.rebuild()
            exact = ref.centralizer_order(mat)
            assert centralizer_order(mat) == exact
            size, _ = orbit_of(mat)
            assert exact * size == total
    z4 = ring_ctx("z", 2, 2)
    orders = sorted(
        {ref.centralizer_order(h.rebuild()) for h in hard_family(z4)}
    )
    assert {256, 64, 128} <= set(orders)
    f2 = ring_ctx("z", 2, 1)
    assert ref.centralizer_order(j_matrix(f2, 0, 0)) == 8
    _line(7, "shape formula = reference scan = group/orbit on every hard rep")


def test_criterion_08_transfer_matrix_identity():
    for q in (2, 3, 5, 7):
        for level in range(7):
            assert transfer_power(q, level, "iterate") == transfer_power(
                q, level, "closed"
            )
        assert transfer_power(q, 2)[3][0] == q**6 + q**5 + q**4 + q**2
    _line(8, "iterated and closed transfer powers equal through level 6")


def test_criterion_09_generating_functions():
    for q in (2, 3):
        for group in ("M", "GL"):
            coeffs = gf_coeffs(q, group, 11)
            assert coeffs[0] == 1
            assert coeffs == [count3(q, i, group) for i in range(11)]
    _line(9, "series coefficients match the closed counts through level 10")


def test_criterion_10_is_similar_vs_oracle(shared_census):
    ctx = ring_ctx("z", 2, 2)
    census = shared_census(ctx, 3)
    rng = random.Random(10)
    hits = 0
    for _ in range(1000):
        a, b = rand_mat(ctx, 3, rng), rand_mat(ctx, 3, rng)
        ok, x = is_similar(a, b)
        assert ok == (census.index_of(a) == census.index_of(b))
        if ok:
            hits += 1
            assert x.is_invertible() and a @ x == x @ b
    assert hits > 0
    _line(10, f"1000 pairs agree with the orbit oracle; {hits} witnesses verified")


def test_criterion_11_type_histogram_recursion():
    hist = type_histogram(ring_ctx("z", 2, 2))
    assert hist[0] == CountVector(2, 2, 2, 8)
    t = transfer_matrix(2)
    pushed = CountVector(
        *(sum(t[i][k] * hist[0][k] for k in range(4)) for i in range(4))
    )
    assert hist[1] == pushed == CountVector(4, 12, 12, 116)
    assert sum(hist[1]) == 144
    _line(11, "measured histograms (2,2,2,8) -> (4,12,12,116) satisfy T*h1 = h2")


@pytest.mark.xfail(
    strict=True,
    reason="(4,12,20,108) contradicts the recursion asserted alongside it: "
    "T*(2,2,2,8) = (4,12,12,116), which is what both the enumeration and "
    "the orbit oracle measure",
)
def test_criterion_11_literal_level_two_vector():
    hist = type_histogram(ring_ctx("z", 2, 2))
    assert hist[1] == CountVector(4, 12, 20, 108)


# ----------------------------------------------------------------------
# slow tier: state spaces past the default orbit budget


@pytest.mark.slow
def test_slow_criterion_02_z8_census():
    census = orbit_census(ring_ctx("z", 2, 3), 3, max_states=2**28)
    assert census.class_count("M") == 1296 == count3(2, 3)


@pytest.mark.slow
def test_slow_criterion_03_len3_flavors():
    census = orbit_census(ring_ctx("t", 2, 3), 3, max_states=2**28)
    assert census.class_count("M") == 1296 == count3(2, 3)


@pytest.mark.slow
def test_slow_criterion_03_q3_len2_censuses():
    counts = tuple(
        orbit_census(ring_ctx(f, 3, 2), 3, max_states=2**29).class_count("M")
        for f in ("z", "t")
    )
    assert counts == (1179, 1179)
