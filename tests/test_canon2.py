"""2x2 pipeline: scalar split, canonical forms, enumeration, counts."""

import importlib
import itertools

import pytest

from simclass import (
    BadParams,
    BudgetExceeded,
    CanonicalForm,
    CyclicBody,
    Mat,
    ScalarBody,
    VerificationFailed,
    canon2,
    count2,
    identity,
    ring_ctx,
    scalar,
)
import reference_solver as ref
from simclass.canon2 import _split_scalar
from simclass.cli import EX_MISMATCH
from conftest import count2_recursion, enumerate2, placed, rand_invertible, rand_mat, run_python


def test_split_scalar_examples():
    z9 = ring_ctx("z", 3, 2)
    assert _split_scalar(scalar(z9, 2, 3)) == (2, 3, None, None)

    z4 = ring_ctx("z", 2, 2)
    level, d, beta, res = _split_scalar(Mat.from_rows(z4, [[1, 2], [2, 1]]))
    assert level == 1 and d == 1
    assert beta.rows() == [[0, 1], [1, 0]] and beta.ctx.length == 1
    assert res == beta  # length 1: beta is its own residue

    level, d, beta, res = _split_scalar(Mat.from_rows(z4, [[0, 1], [0, 0]]))
    assert level == 0 and d == 0
    assert beta.rows() == [[0, 1], [0, 0]] and res == beta.residue()


def test_split_scalar_reconstructs_and_is_maximal(rng, ctx_len2):
    for _ in range(100):
        m = rand_mat(ctx_len2, 2, rng)
        level, d, beta, res = _split_scalar(m)
        assert placed(ctx_len2, 2, level, d, beta) == m
        if beta is not None:
            assert res == beta.residue() and not res.is_scalar()


def test_split_scalar_shared_with_3x3(rng):
    ctx = ring_ctx("z", 2, 3)
    for _ in range(50):
        m = rand_mat(ctx, 3, rng)
        level, d, beta, _ = _split_scalar(m)
        assert placed(ctx, 3, level, d, beta) == m


def test_canon2_worked_example():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[1, 2], [2, 1]])
    form = canon2(m)
    assert (form.level, form.d) == (1, 1)
    assert form.body.coeffs == (1, 0)
    assert form.rebuild() == m  # this matrix is already canonical
    assert m.conjugate_by(form.witness) == m


def test_canon2_fixed_points():
    ctx = ring_ctx("z", 3, 2)
    c = Mat.from_rows(ctx, [[0, 1], [5, 7]])  # the companion matrix of (5, 7)
    form = canon2(c)
    assert (form.level, form.d) == (0, 0)
    assert form.rebuild() == c
    form = canon2(scalar(ctx, 2, 6))
    assert form.level == 2 and form.d == 6
    assert form.body == ScalarBody()


@pytest.mark.parametrize(
    "level,d,body",
    [
        (0, 0, CyclicBody((1, 9))),  # 9 is no value of t:2:2
        (1, 5, CyclicBody((1, 1))),  # d = 5 is not reduced mod t
        (1, 1, CyclicBody((1, 2))),  # 2 is no value of the length-1 body ring
        (0, 0, CyclicBody((1,))),  # three entries for a 2x2 matrix
        (3, 0, ScalarBody()),  # past the length
    ],
)
def test_rebuild_refuses_a_hand_built_form_off_its_ring(level, d, body):
    ctx = ring_ctx("t", 2, 2)
    form = CanonicalForm(ctx, 2, level, d, body, identity(ctx, 2))
    with pytest.raises(BadParams):
        form.rebuild()


def test_rebuild_places_a_hand_built_form_on_its_ring():
    ctx = ring_ctx("t", 2, 2)
    form = CanonicalForm(ctx, 2, 1, 1, CyclicBody((1, 1)), identity(ctx, 2))
    assert form.rebuild() == Mat.from_rows(ctx, [[1, 2], [2, 3]])
    assert canon2(form.rebuild()) == form


def test_canon2_witness_is_exact(rng, ctx_len2):
    for _ in range(250):
        m = rand_mat(ctx_len2, 2, rng)
        form = canon2(m)
        assert form.witness.is_invertible()
        assert m.conjugate_by(form.witness) == form.rebuild()


def test_canon2_is_conjugation_invariant(rng, ctx_len2):
    for _ in range(250):
        m = rand_mat(ctx_len2, 2, rng)
        g = rand_invertible(ctx_len2, 2, rng)
        assert canon2(m) == canon2(m.conjugate_by(g))


def test_canon2_equality_decides_similarity_exhaustively():
    # every 2x2 matrix over Z/4, all pairs through the orbit-free check
    ctx = ring_ctx("z", 2, 2)
    by_form = {}
    for vals in itertools.product(range(4), repeat=4):
        m = Mat(ctx, 2, list(vals))
        by_form.setdefault(canon2(m), []).append(m)
    assert len(by_form) == count2(2, 2, "M") == 28
    reps = [ms[0] for ms in by_form.values()]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not ref.is_similar(reps[i], reps[j])[0]
    # within a class, spot-check direct similarity
    for ms in by_form.values():
        ok, x = ref.is_similar(ms[0], ms[-1])
        assert ok and ms[0] @ x == x @ ms[-1]


def test_canon2_exhaustive_on_every_length_two_ring():
    # every single 2x2 matrix maps into the enumerated transversal with
    # an exact witness; class counts and fibers check out
    for desc in [("z", 3, 2), ("t", 2, 2), ("t", 3, 2)]:
        ctx = ring_ctx(*desc)
        card = ctx.cardinality
        seen = {}
        for vals in itertools.product(range(card), repeat=4):
            m = Mat(ctx, 2, list(vals))
            f = canon2(m)
            assert m.conjugate_by(f.witness) == f.rebuild()
            seen[f] = seen.get(f, 0) + 1
        assert len(seen) == count2(ctx.q, 2, "M")
        assert set(seen) == set(enumerate2(ctx))
        assert sum(seen.values()) == card**4


def test_canon2_matches_is_similar_on_random_pairs(rng):
    ctx = ring_ctx("z", 3, 2)
    for _ in range(150):
        a, b = rand_mat(ctx, 2, rng), rand_mat(ctx, 2, rng)
        assert (canon2(a) == canon2(b)) == ref.is_similar(a, b)[0]


def test_enumerate2_counts_and_distinctness(ctx_len2):
    forms = enumerate2(ctx_len2)
    assert len(forms) == count2(ctx_len2.q, 2, "M")
    assert len(set(forms)) == len(forms)
    rebuilt = [f.rebuild() for f in forms]
    assert all(canon2(m) == f for f, m in zip(forms, rebuilt))
    gl = enumerate2(ctx_len2, "GL")
    assert len(gl) == count2(ctx_len2.q, 2, "GL")
    assert all(f.rebuild().is_invertible() for f in gl)
    assert all(not f.rebuild().is_invertible() for f in set(forms) - set(gl))


def test_enumerate2_raises_when_it_misses_a_class(monkeypatch):
    # a count2 one class above the stream: the shared stream must refuse
    # the short run, also under -O, where the CLI exits 70 after
    # streaming every line
    census = importlib.import_module("simclass.census")
    real = census.count2
    monkeypatch.setattr(census, "count2", lambda q, level, group="M": real(q, level, group) + 1)
    with pytest.raises(VerificationFailed, match="count2 gives 79"):
        enumerate2(ring_ctx("z", 3, 2), "GL")
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "census = importlib.import_module('simclass.census')\n"
        "real = census.count2\n"
        "census.count2 = lambda q, level, group='M': real(q, level, group) + 1\n"
        "sys.exit(main(['enumerate', '--n', '2', '--ring', 'z:3:2', '--group', 'gl']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "count2 gives 79" in proc.stderr
    assert len(proc.stdout.splitlines()) == 78


def test_enumerate2_budget():
    with pytest.raises(BudgetExceeded):
        enumerate2(ring_ctx("z", 5, 3), budget=100)


def test_count2_closed_form_values():
    assert count2(2, 1, "M") == 6
    assert count2(2, 1, "GL") == 3
    assert count2(3, 1, "GL") == 8
    assert count2(2, 2, "M") == 28
    assert count2(3, 2, "M") == 117
    assert count2(2, 2, "GL") == 14
    assert count2(2, 0, "M") == 1


def test_count2_rejects_bad_arguments():
    for args in ((1, 2), (2, -1), (2, 2, "SL"), (2, 0, "bogus")):
        with pytest.raises(BadParams):
            count2(*args)


def test_count2_recursion_agrees_with_closed_form():
    for q in (2, 3, 5, 7):
        for level in range(1, 9):
            for group in ("M", "GL"):
                assert count2(q, level, group) == count2_recursion(q, level, group)


def test_form_json_shape():
    ctx = ring_ctx("z", 2, 2)
    form = canon2(Mat.from_rows(ctx, [[1, 2], [2, 1]]))
    assert form.to_json() == {"j": 1, "d": 1, "c": 1, "e": 0}
    form = canon2(scalar(ctx, 2, 3))
    assert form.to_json() == {"j": 2, "d": 3, "c": None, "e": None}
