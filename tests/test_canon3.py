"""3x3 pipeline: residue typing, block split, pi-power shapes, canon3."""

import ast
import dataclasses
import importlib
import itertools
import pathlib
from collections import Counter

import pytest

import simclass
from simclass import (
    CyclicBody,
    HardBody,
    Mat,
    ScalarBody,
    SplitBody,
    VerificationFailed,
    canon2,
    canon3,
    centralizer_order,
    diag,
    e_matrix,
    hard_family,
    identity,
    is_similar,
    parse_ring,
    ring_ctx,
    scalar,
)
from simclass.cli import EX_MISMATCH
from simclass.oracle import _orbit_states
import reference_solver as ref
from conftest import (block_diag, j_matrix, rand_invertible, rand_mat, rref,
                      rref_left_kernel, rref_residue_type, run_python, same_class)

# the module, not the function simclass.canon3: the pipeline stages are private
c3 = importlib.import_module("simclass.canon3")
residue_type, classify_hard = c3._residue_type, c3._classify_hard


def ep(ctx, m, a, b, c, d):
    return HardBody(ctx, m, a, b, c, d)


def block_split(m):
    """The split stage of canon3, fed the residue eigenvalues it is fed there."""
    kind, *eigenvalues = residue_type(m)
    assert kind == "split"
    return c3._block_split(m, m.residue(), *eigenvalues)


def e_form(m):
    """The jtype stage of canon3, fed the residue eigenvalue it is fed there."""
    kind, *eigenvalues = residue_type(m)
    assert kind == "jtype"
    return c3._e_form(m, m.residue(), *eigenvalues)


# ----------------------------------------------------------------------
# residue typing


def test_residue_type_defining_cases():
    f2 = ring_ctx("z", 2, 1)
    assert residue_type(identity(f2, 3)) == ("scalar", 1)
    assert residue_type(diag(f2, [1, 0, 0])) == ("split", 1, 0)
    assert residue_type(j_matrix(f2, 0, 0)) == ("jtype", 0)
    assert residue_type(Mat(f2, 3, (0, 1, 0, 0, 0, 1, 1, 0, 0))) == ("cyclic",)  # a companion


def test_residue_type_is_computed_modulo_pi(rng):
    ctx = ring_ctx("z", 2, 2)
    for _ in range(30):
        m = rand_mat(ctx, 3, rng)
        assert residue_type(m) == residue_type(m.residue())


def test_residue_type_partitions_all_of_f3():
    f3 = ring_ctx("z", 3, 1)
    kinds = {"scalar": 0, "split": 0, "jtype": 0, "cyclic": 0}
    for vals in itertools.product(range(3), repeat=9):
        kinds[residue_type(Mat(f3, 3, list(vals)))[0]] += 1
    assert sum(kinds.values()) == 3**9
    assert kinds["scalar"] == 3


def _rank(m):
    return len(rref([m.vals[i : i + 3] for i in (0, 3, 6)], m.ctx.p)[0])


def test_residue_algebra_matches_the_echelon_form_on_all_of_f2_and_f3():
    # the closed forms of _residue_type and _left_kernel give what the
    # reduced row echelon form gives, on every 3x3 matrix over F_2 and
    # F_3, and _left_kernel on every matrix of rank 1 or 2 among them
    kernels = 0
    for p in (2, 3):
        f = ring_ctx("z", p, 1)
        for vals in itertools.product(range(p), repeat=9):
            m = Mat(f, 3, vals)
            assert residue_type(m) == rref_residue_type(m)
            if 1 <= _rank(m) <= 2:
                assert c3._left_kernel(m) == rref_left_kernel(m)
                kernels += 1
    assert kernels == (2**9 - 1 - 168) + (3**9 - 1 - 11232)  # less 0 and GL_3


@pytest.mark.parametrize("p", [5, 7, 1000003])
def test_residue_algebra_matches_the_echelon_form_on_random_matrices(p, rng):
    # 2000 matrices per field: random ones (mostly cyclic),
    # conjugates of split and jtype shapes and of their eigenspace
    # matrices, and products of rank 1 and 2
    f = ring_ctx("z", p, 1)
    kinds = Counter()
    for i in range(2000):
        g = rand_invertible(f, 3, rng)
        s, d = rng.randrange(p), rng.randrange(p)
        if i % 4 == 0:
            m = rand_mat(f, 3, rng)
        elif i % 4 == 1:
            m = diag(f, [s, d, d]).conjugate_by(g)
        elif i % 4 == 2:
            m = e_matrix(f, 1, 0, 0, 0, d).conjugate_by(g)
        else:
            r = 1 + i % 8 // 4  # rank 1 or 2, unless the product drops it
            m = diag(f, [1] * r + [0] * (3 - r)).conjugate_by(g) @ rand_mat(f, 3, rng)
        kinds[residue_type(m)[0]] += 1
        assert residue_type(m) == rref_residue_type(m)
        for e in (0, s, d):
            k = m - scalar(f, 3, e)
            if 1 <= _rank(k) <= 2:
                assert c3._left_kernel(k) == rref_left_kernel(k)
                kinds["kernel"] += 1
    assert min(kinds[k] for k in ("cyclic", "split", "jtype", "kernel")) >= 400


def test_residue_eigenvalues_factor_the_charpoly(rng):
    # (x - single)(x - double)^2 is the characteristic polynomial, in the
    # companion convention (a0, a1, a2): x^3 - a2 x^2 - a1 x - a0
    def check(m):
        kind, *eig = residue_type(m)
        if kind in ("scalar", "cyclic"):
            return kind
        s, d = eig if kind == "split" else eig * 2
        assert (kind == "jtype") == (s == d)
        p = m.ctx.p
        expected = (s * d * d % p, -(2 * s * d + d * d) % p, (s + 2 * d) % p)
        assert m.charpoly() == expected
        return kind

    f3 = ring_ctx("z", 3, 1)
    kinds = Counter(check(Mat(f3, 3, list(v))) for v in itertools.product(range(3), repeat=9))
    assert kinds["split"] and kinds["jtype"]
    for p in (5, 31, 101, 2**61 - 1):
        for flavor in ("z", "t"):
            ctx = ring_ctx(flavor, p, 1)
            for _ in range(20):
                g = rand_invertible(ctx, 3, rng)
                s, d = rng.randrange(p), rng.randrange(p)
                for shape in (diag(ctx, [s, d, d]), e_matrix(ctx, 1, 0, 0, 0, d)):
                    assert check(shape.conjugate_by(g)) in ("split", "jtype", "scalar")
                check(rand_mat(ctx, 3, rng))


# ----------------------------------------------------------------------
# block split for distinct residue eigenvalues


def test_hensel_block_split_fixed_point():
    ctx = ring_ctx("z", 2, 2)
    b = Mat.from_rows(ctx, [[0, 2], [2, 2]])
    m = block_diag(ctx, 1, b)
    a, blk, x = block_split(m)
    assert a == 1 and blk == b and x == identity(ctx, 3)


def test_hensel_block_split_worked_example():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[1, 0, 0], [1, 0, 2], [2, 2, 2]])
    a, blk, x = block_split(m)
    assert a == 1
    assert is_similar(blk, Mat.from_rows(ctx, [[0, 2], [2, 2]]))[0]
    assert m.conjugate_by(x) == block_diag(ctx, a, blk)


P6 = 1000003
# a 2x2 block with a scalar residue per ring; the Newton lift of the
# block split runs at long lengths (z:2:8, t:3:7) and at a large p
SCALAR_RESIDUE_BLOCKS = {
    "z:3:2": [[3, 3], [6, 3]],
    "t:3:2": [[4, 6], [3, 7]],
    "z:7:3": [[9, 14], [49, 23]],
    "z:2:8": [[3, 4], [6, 9]],
    "t:3:7": [[3, 9], [27, 6]],
    "z:1000003:2": [[5 + P6, 2 * P6], [3 * P6, 5]],
}


@pytest.mark.parametrize("desc", list(SCALAR_RESIDUE_BLOCKS))
def test_hensel_block_split_round_trips(rng, desc):
    ctx = parse_ring(desc)
    rows = SCALAR_RESIDUE_BLOCKS[desc]
    b0 = Mat.from_rows(ctx, rows)
    bbar = rows[0][0] % ctx.p
    for _ in range(200):
        g = rand_invertible(ctx, 3, rng)
        av = rng.randrange(ctx.cardinality)
        if av % ctx.p == bbar:  # the residue eigenvalues must differ
            av = ctx.add_raw(av, 1)
        m = block_diag(ctx, av, b0).conjugate_by(g)
        a, blk, x = block_split(m)
        assert a == av
        assert canon2(blk) == canon2(b0)
        assert m.conjugate_by(x) == block_diag(ctx, a, blk)


# ----------------------------------------------------------------------
# reduction to the pi-power shape


def test_reduce_to_e_form_fixed_point():
    ctx = ring_ctx("z", 2, 2)
    m = e_matrix(ctx, 2, 2, 0, 2, 0)
    e, x = e_form(m)
    assert x == identity(ctx, 3)
    assert (e.m, e.a, e.b, e.c, e.d) == (2, 2, 0, 2, 0)


def test_reduce_to_e_form_normalizes_the_23_entry():
    ctx = ring_ctx("z", 2, 2)
    m = Mat.from_rows(ctx, [[0, 0, 0], [0, 0, 3], [0, 0, 0]])
    e, x = e_form(m)
    assert m.conjugate_by(x) == e.rebuild()
    assert e.rebuild().raw(1, 2) == 1
    assert (e.m, e.a, e.b, e.c, e.d) == (2, 0, 0, 0, 0)


def test_reduce_to_e_form_round_trips(rng):
    ctx = ring_ctx("z", 2, 3)
    base = e_matrix(ctx, 1, 2, 2, 0, 1)
    for _ in range(200):
        g = rand_invertible(ctx, 3, rng)
        m = base.conjugate_by(g)
        e, x = e_form(m)
        assert m.conjugate_by(x) == e.rebuild()
        assert ref.is_similar(e.rebuild(), base)[0]


def _five_conjugations(beta, dbar):
    """_e_form as five full 3x3 conjugations by (Y, Y^-1), with the
    first X from the echelon form: the reference for its steps on
    entries."""
    ctx = beta.ctx
    res = beta.residue()
    p = res.ctx.p
    nbar = res - scalar(res.ctx, 3, dbar)
    w2 = next(tuple(int(k == i) for k in range(3)) for i in range(3)
              if any(nbar.raw(i, j) for j in range(3)))
    w3 = tuple(sum(w2[k] * nbar.raw(k, j) for k in range(3)) % p for j in range(3))
    w1 = next(k for k in rref_left_kernel(nbar) if len(rref([k, w3], p)[0]) == 2)
    x_total = Mat(ctx, 3, w1 + w2 + w3)
    gamma = beta.conjugate_by(x_total)

    def step(i, j, v, w):  # conjugate by Y: I with entry (i, j) v, Y^-1 with w there
        nonlocal gamma, x_total
        y, y_inv = [1, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0, 1]
        y[3 * i + j], y_inv[3 * i + j] = v, w
        y, y_inv = Mat(ctx, 3, y), Mat(ctx, 3, y_inv)
        gamma = y @ gamma @ y_inv
        x_total = y @ x_total

    def shear(i, j, v):
        step(i, j, v, ctx.neg_raw(v))

    def scaling(k, u):
        step(k, k, u, ctx.inv_raw(u))

    scaling(2, gamma.raw(1, 2))
    shear(0, 1, ctx.neg_raw(gamma.raw(0, 2)))
    shear(2, 0, gamma.raw(1, 0))
    shear(2, 1, ctx.sub_raw(gamma.raw(1, 1), gamma.raw(0, 0)))
    scaling(0, ctx.inv_raw(ctx.unit_split_raw(gamma.raw(0, 1))[1]))
    return c3._as_hard_form(gamma), x_total


@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:5:2", "t:3:4"])
def test_e_form_steps_on_entries_match_five_conjugations(desc, rng):
    # every shape of a random conjugate of a jtype residue, at every
    # slot exponent, gets the shape and the X of the full conjugations
    ctx = parse_ring(desc)
    p, card = ctx.p, ctx.cardinality
    for _ in range(60):
        m = rng.randrange(1, ctx.length + 1)
        a, b, c = (rng.randrange(card) * p % card for _ in range(3))
        beta = e_matrix(ctx, m, a, b, c, rng.randrange(card)).conjugate_by(
            rand_invertible(ctx, 3, rng))
        kind, dbar = residue_type(beta)
        assert kind == "jtype"
        e, x = c3._e_form(beta, beta.residue(), dbar)
        assert (e, x) == _five_conjugations(beta, dbar)
        assert beta.conjugate_by(x) == e.rebuild()


# ----------------------------------------------------------------------
# hard-case normalization


def test_classify_hard_type_examples():
    z4 = ring_ctx("z", 2, 2)

    h, x = classify_hard(ep(z4, 2, 0, 0, 2, 1))
    assert h.tag == "I" and (h.c, h.d) == (2, 1)
    assert x == identity(z4, 3)

    h, x = classify_hard(ep(z4, 2, 2, 0, 2, 0))
    assert h.tag == "III0"
    assert h.a == 2 and z4.val_raw(h.a) == 1  # a is exactly pi
    assert not h.b and not h.d  # b cleared, d absorbed into c
    assert h.c == 2

    h, x = classify_hard(ep(z4, 1, 2, 2, 0, 0))
    assert h.tag == "II"
    assert h.m == 1 and not h.a and h.b == 2  # m = val(b), a eliminated

    h, x = classify_hard(ep(z4, 1, 2, 0, 0, 2))
    assert h.tag == "III1"
    assert h.m == 1 and not h.b  # b cleared


def test_classify_hard_witness_and_idempotence_exhaustive_z4():
    ctx = ring_ctx("z", 2, 2)
    tags = {"I": 0, "II": 0, "III0": 0, "III1": 0}
    for m in (1, 2):
        for a, b, c in itertools.product((0, 2), repeat=3):
            for d in range(4):
                e = ep(ctx, m, a, b, c, d)
                h, x = classify_hard(e)
                tags[h.tag] += 1
                assert e.rebuild().conjugate_by(x) == h.rebuild()
                again, x2 = classify_hard(HardBody(ctx, h.m, h.a, h.b, h.c, h.d))
                assert again == h and x2 == identity(ctx, 3)
    assert all(v > 0 for v in tags.values())


def test_classify_hard_tag_matches_valuation_pattern(rng):
    ctx = ring_ctx("z", 2, 3)
    length = ctx.length
    for _ in range(200):
        m = rng.randrange(1, length + 1)
        a, b, c = (rng.randrange(4) * 2 for _ in range(3))
        e = ep(ctx, m, a, b, c, rng.randrange(8))
        va, vb = ctx.val_raw(e.a), ctx.val_raw(e.b)
        h, _ = classify_hard(e)
        if min(m, va, vb) >= length:
            assert h.tag == "I"
        elif vb <= m and vb <= va:
            assert h.tag == "II"
        elif va < m and va < vb:
            assert h.tag == "III0"
        else:
            assert h.tag == "III1"


@pytest.mark.parametrize("desc,d", [("z:2:4", 0b1111), ("t:2:4", 0b1110), ("z:3:3", 26)])
def test_iii1_digits_of_d_are_pinned_in_one_step(desc, d):
    # every digit of d from m = 1 up is nonzero, and one L(x) clears them all
    ctx = parse_ring(desc)
    p = ctx.p
    e = ep(ctx, 1, p, p * p, p, d)
    assert e.tag == "III1"
    form, steps = c3._normalize_hard(e)
    assert len(steps) == 1
    assert form.d == d % p
    h, x = classify_hard(e)
    assert h == form and e.rebuild().conjugate_by(x) == form.rebuild()


@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:5:2", "t:3:4"])
def test_each_parameter_move_is_conjugation_by_its_step_matrix(desc, rng):
    # _normalize_hard moves (m, a, b, c, d) by formula alone, and the
    # witness is built from the step matrices: the two must agree
    ctx = parse_ring(desc)
    card, p, length = ctx.cardinality, ctx.p, ctx.length
    ident = identity(ctx, 3)

    def nonunit():
        return rng.randrange(0, card, p)

    def unit():
        while True:
            u = rng.randrange(card)
            if ctx.is_unit_raw(u):
                return u

    for _ in range(30):
        m, d = rng.randrange(1, length + 1), rng.randrange(card)
        e = ep(ctx, m, nonunit(), nonunit(), nonunit(), d)
        for v in range(length + 1):  # x of every valuation, x = 0 at v = length
            x = ctx.mul_raw(ctx.pi_pow_raw(v), unit())
            lx, lx_inv = c3._lower_step(ctx, e.m, x), c3._lower_step(ctx, e.m, ctx.neg_raw(x))
            assert lx @ lx_inv == ident
            assert c3._lower(e, x).rebuild() == lx @ e.rebuild() @ lx_inv
        # the slot step on a type II shape with a = 0 and val(b) < m
        m = rng.randrange(2, length + 1)
        vb, ub = rng.randrange(1, m), unit()
        e = ep(ctx, m, 0, ctx.mul_raw(ctx.pi_pow_raw(vb), ub), nonunit(), rng.randrange(card))
        assert e.tag == "II"
        s = c3._slot_step(ctx, m - vb, ctx.inv_raw(ub), e.c)
        moved = ep(ctx, vb, 0, e.b, e.c, e.d)
        assert s @ e.rebuild() @ s.inverse() == moved.rebuild()
        assert c3._normalize_hard(e)[0] == moved


def test_classify_hard_refuses_a_wrong_step_under_optimize():
    # each step builder gets a matrix off by pi in entry (2, 1), _lower a d
    # off by pi, and _swap a wrong III0 conjugator, each fed a shape that
    # takes its step; the witness or the normal form then goes wrong, and
    # under -O, which strips assert statements, CLI canon must still
    # refuse it and exit 70
    script = (
        "import contextlib, dataclasses, importlib, io, json, sys\n"
        "from simclass import HardBody, ring_ctx\n"
        "from simclass.cli import main\n"
        "from simclass.matrix import Mat\n"
        "c3 = importlib.import_module('simclass.canon3')\n"
        "def off_by_pi(build):\n"
        "    def wrong(ctx, *args):\n"
        "        vals = list(build(ctx, *args).vals)\n"
        "        vals[7] = ctx.add_raw(vals[7], ctx.pi_pow_raw(1))\n"
        "        return Mat(ctx, 3, vals)\n"
        "    return wrong\n"
        "def d_off_by_pi(lower):\n"
        "    def wrong(e, x):\n"
        "        f = lower(e, x)\n"
        "        return dataclasses.replace(f, d=f.ctx.add_raw(f.d, f.ctx.pi_pow_raw(1)))\n"
        "    return wrong\n"
        "def identity_conjugator(swap):\n"
        "    return lambda e: (swap(e)[0], Mat(e.ctx, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1]))\n"
        "cases = [\n"
        "    ('_lower_step', off_by_pi, ('z', 2, 2), (1, 0, 0, 0, 3)),\n"
        "    ('_slot_step', off_by_pi, ('z', 2, 2), (2, 0, 2, 0, 1)),\n"
        "    ('_lower', d_off_by_pi, ('z', 2, 2), (1, 0, 0, 0, 3)),\n"
        "    ('_swap', identity_conjugator, ('z', 3, 2), (2, 6, 0, 0, 0)),\n"
        "]\n"
        "def canon(desc, rows):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        code = main(['canon', '--ring', desc, json.dumps(rows)])\n"
        "    return code, err.getvalue()\n"
        "for name, fault, desc, (m, *vals) in cases:\n"
        "    ctx = ring_ctx(*desc)\n"
        "    rows = HardBody(ctx, m, *vals).rebuild().rows()\n"
        "    if canon(ctx.descriptor, rows)[0] != 0:\n"
        "        sys.exit(f'canon of {rows} fails with a sound {name}')\n"
        "    real = getattr(c3, name)\n"
        "    setattr(c3, name, fault(real))\n"
        "    code, err = canon(ctx.descriptor, rows)\n"
        f"    if code != {EX_MISMATCH} or 'verification failed: ' not in err:\n"
        "        sys.exit(f'a broken {name} gave exit {code}: {err!r}')\n"
        "    setattr(c3, name, real)\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_hard_family_members_are_their_own_class_reps():
    # every form is a classify_hard fixed point with identity witness
    for desc in ["z:2:1", "z:2:2", "z:3:2", "t:2:2", "z:2:3", "t:2:3", "z:5:2", "t:5:2"]:
        ctx = parse_ring(desc)
        fam = hard_family(ctx)
        assert len(fam) == len(set(fam))
        for h in fam:
            again, x = classify_hard(HardBody(ctx, h.m, h.a, h.b, h.c, h.d))
            assert again == h and x == identity(ctx, 3)


def test_hard_family_tags_separate_classes():
    fam = hard_family(ring_ctx("z", 2, 2))
    for h1 in fam:
        for h2 in fam:
            if h1.tag != h2.tag:
                assert not ref.is_similar(h1.rebuild(), h2.rebuild())[0]


def _reference_sweep(tctx):
    """The hard transversal by solver merges.

    Normalizes every pi-power shape in (m, a, b, c, d) order, keeps each
    form's first occurrence and merges similar forms within one
    characteristic polynomial.  Returns the kept forms.
    """
    p, card, length = tctx.p, tctx.cardinality, tctx.length
    nonunits = range(0, card, p)
    seen = {}
    for m, av, bv, cv, dv in itertools.product(
        range(1, length + 1), nonunits, nonunits, nonunits, range(card)
    ):
        seen.setdefault(classify_hard(ep(tctx, m, av, bv, cv, dv))[0], None)
    reps, buckets = [], {}
    for f in seen:
        rb = f.rebuild()
        bucket = buckets.setdefault(rb.charpoly(), [])
        if not any(ref.is_similar(g.rebuild(), rb)[0] for g in bucket):
            bucket.append(f)
            reps.append(f)
    return reps


@pytest.mark.parametrize(
    "desc",
    ["z:2:1", "z:2:2", "z:3:1", "z:3:2", "t:2:2", "t:3:2", "z:2:3", "t:2:3"]
    + [
        pytest.param(d, marks=pytest.mark.slow)
        for d in ("z:5:2", "t:5:2", "z:3:3", "z:2:4", "t:2:4")
    ],
)
def test_hard_family_matches_the_global_sweep(desc):
    # the reference merges similar forms, so equal sets of equal length say
    # that hard_family holds every normal form of the sweep and no two
    # similar forms: class-for-class agreement with the solver
    ctx = parse_ring(desc)
    fam, ref = hard_family(ctx), _reference_sweep(ctx)
    assert Counter(f.tag for f in fam) == Counter(f.tag for f in ref)
    assert set(fam) == set(ref) and len(fam) == len(ref)
    keys = [(f.m, f.a, f.b, f.c, f.d) for f in fam]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_hard_family_checks_each_candidate_is_a_normal_form(monkeypatch):
    # a normalization that moves one candidate's d is caught, not emitted
    real = c3._normalize_hard

    def moved(e):
        form, steps = real(e)
        params = (form.m, form.a, form.b, form.c, form.d)
        if form.tag == "III1" and params == (1, 0, 0, 4, 1):
            form = HardBody(form.ctx, form.m, form.a, form.b, form.c, 0)
        return form, steps

    monkeypatch.setattr(c3, "_normalize_hard", moved)
    hard_family.cache_clear()
    try:
        with pytest.raises(VerificationFailed, match="III1 candidate"):
            hard_family(parse_ring("z:2:3"))
    finally:
        hard_family.cache_clear()


@pytest.mark.parametrize("desc", ["t:3:3", "z:7:2"])
def test_canon3_hard_inputs_past_the_global_sweep(desc, rng):
    # one shape per tag: I, II, III1, III0
    ctx = parse_ring(desc)
    p = ctx.p
    shapes = [
        j_matrix(ctx, p, 0),
        e_matrix(ctx, 1, 0, p, p, 1),
        e_matrix(ctx, 1, p, 0, 0, 2),
        e_matrix(ctx, 2, p, p * p, 0, 1),
    ]
    for shape in shapes:
        m = shape.conjugate_by(rand_invertible(ctx, 3, rng))
        f = canon3(m)
        assert isinstance(f.body, HardBody)
        assert f.witness.is_invertible() and m.conjugate_by(f.witness) == f.rebuild()
        assert canon3(f.rebuild()) == f


# the stages of canon3 that were public before they became private, the
# element wrappers that packed integers replaced, enumerate2, whose only
# callers were tests, and the builders and wrappers that the one
# placement and the bodies' own layouts replaced
REMOVED_NAMES = {
    "HardForm",
    "CentralizerShape",
    "centralizer_shape",
    "recombine",
    "companion",
    "enumerate2",
    "RingElem",
    "Section",
    "section_of",
    "DigitOutOfRange",
    "EParams",
    "as_e_params",
    "residue_type",
    "ResidueType",
    "hensel_block_split",
    "reduce_to_e_form",
    "classify_hard",
    "WrongResidueType",
    "NotHardCase",
}


def test_the_canon3_stages_are_not_public():
    assert not REMOVED_NAMES & set(simclass.__all__)
    assert not REMOVED_NAMES & set(dir(simclass))
    assert not REMOVED_NAMES & set(c3.__all__)


def test_hard_form_tag_is_read_off_the_valuations():
    ctx = ring_ctx("z", 2, 3)
    assert [ep(ctx, *v).tag for v in ((3, 0, 0, 0, 1), (2, 4, 2, 0, 0), (2, 2, 0, 0, 0),
                                      (1, 2, 4, 0, 0))] == ["I", "II", "III0", "III1"]
    # the J shape with a nonzero a is type III0, not I
    assert ep(ctx, 3, 2, 0, 0, 0).tag == "III0"
    # a slot exponent out of range, a unit a or c, then entries that are no
    # packed value of the ring: out of [0, 8), or not an int
    for bad in ((0, 0, 0, 0, 0), (4, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 3, 0),
                (1, 8, 0, 0, 0), (1, 0, -2, 0, 0), (1, 0, 0, 0, 8), (1, 0, 0, 0, -1),
                (1, 2.0, 0, 0, 0), (1, 0, 0, "0", 0), (1, 0, 0, 0, True), (1, 0, 0, 0, None),
                (1.0, 0, 0, 0, 0), (True, 0, 0, 0, 0)):
        with pytest.raises(simclass.BadParams):
            ep(ctx, *bad)


# the similarity solver, which lives in tests/reference_solver.py
SOLVER_NAMES = {
    "intertwiner",
    "IntertwinerModule",
    "build_intertwiner_matrix",
    "smith_kernel",
    "_diagonalize",
    "find_unit_element",
    "_residue_basis",
    "_iter_span",
    "_det_mod_p",
    "_check_budget",
    "DEFAULT_SEARCH_CAP",
}


def test_no_module_in_the_package_defines_or_imports_the_solver():
    src = pathlib.Path(importlib.import_module("simclass").__file__).parent
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.asname or a.name for a in node.names)
        assert not names & SOLVER_NAMES, (path.name, names & SOLVER_NAMES)


def test_no_module_in_the_package_uses_assert():
    # python -O strips assert statements, so every load-bearing check in
    # the package is an explicit raise
    src = pathlib.Path(importlib.import_module("simclass").__file__).parent
    for path in sorted(src.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


@pytest.fixture
def cold_hard_family():
    """Empty the hard_family cache, so that the families are built in
    the test, from the normal forms alone."""
    hard_family.cache_clear()
    yield
    hard_family.cache_clear()


def test_canon3_hard_over_a_large_prime_makes_no_solver_calls(cold_hard_family, rng):
    # the hard transversal is the normal forms themselves: building it,
    # and a cold hard canon3 of each tag, never consults the solver
    for desc in ("z:2:3", "t:2:3"):
        hard_family(parse_ring(desc))
    for desc in ("z:5:3", "z:7:3", "t:5:3", "z:31:2"):
        ctx = parse_ring(desc)
        p = ctx.p
        shapes = {
            "I": j_matrix(ctx, 0, 0),
            "II": e_matrix(ctx, 1, 0, p, p, 1),
            "III0": e_matrix(ctx, 2, p, p * p, 0, 1),
            "III1": e_matrix(ctx, 1, p, 0, 0, 2),
        }
        for tag, shape in shapes.items():
            m = shape if tag == "I" else shape.conjugate_by(rand_invertible(ctx, 3, rng))
            f = canon3(m)
            assert isinstance(f.body, HardBody) and f.body.tag == tag
            assert m.conjugate_by(f.witness) == f.rebuild()


@pytest.mark.parametrize("desc", ["z:3:2", "t:3:2", "z:5:2"])
def test_length_two_buckets_make_no_solver_calls(desc, cold_hard_family):
    # the families of the ring and of its truncation, as enumerate3 builds them
    ctx = parse_ring(desc)
    for level in range(1, ctx.length + 1):
        hard_family(ctx.truncated(level))


def test_hard_class_rep_collapses_conjugates(rng):
    # the classify_hard form of any conjugate of a family form is that form
    for desc in ["z:2:2", "z:2:3", "t:2:3"]:
        ctx = parse_ring(desc)
        fam = hard_family(ctx)
        for h in rng.sample(fam, 12) + [h for h in fam if h.tag == "III0"][:6]:
            m = h.rebuild().conjugate_by(rand_invertible(ctx, 3, rng))
            e, x1 = e_form(m)
            h2, x2 = classify_hard(e)
            assert h2 == h
            assert m.conjugate_by(x2 @ x1) == h.rebuild()


# ----------------------------------------------------------------------
# the transpose swap behind type III0


@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:5:2"])
def test_swap_conjugates_the_transpose(desc, rng):
    ctx = parse_ring(desc)
    p, card, length = ctx.p, ctx.cardinality, ctx.length
    for _ in range(100):
        e = ep(ctx, rng.randrange(1, length + 1), *(p * rng.randrange(card // p) for _ in range(3)),
               rng.randrange(card))
        s, g = c3._swap(e)
        assert g @ e.rebuild().transpose() @ g.inverse() == s.rebuild()


@pytest.mark.parametrize("desc", ["z:2:3", "t:2:3", "z:5:2"])
def test_swap_is_an_involution_on_iii0_forms(desc):
    ctx = parse_ring(desc)
    forms = [h for h in hard_family(ctx) if h.tag == "III0"]
    assert forms
    for h in forms:
        s, _ = c3._swap(h)
        back, _ = c3._swap(s)
        assert (back.m, back.a, back.b, back.c, back.d) == (h.m, h.a, h.b, h.c, h.d)


# the III0 pairs (m, b, c, d) with a = 2 and a = 6 that normal forms left
# as two forms over z:2:3 before III0 went through the transpose, and a
# solver merge joined
_SPLIT_III0_PAIRS = [(2, b, c, d) for b in (0, 4) for c in (0, 2, 4, 6) for d in (0, 1)] + [
    (3, b, c, d) for b, c in ((0, 0), (0, 4), (4, 2), (4, 6)) for d in (0, 1)
]


def test_once_split_iii0_pairs_are_one_class():
    ctx = ring_ctx("z", 2, 3)
    assert len(_SPLIT_III0_PAIRS) == 24
    for m, b, c, d in _SPLIT_III0_PAIRS:
        x, y = (e_matrix(ctx, m, a, b, c, d) for a in (2, 6))
        assert canon3(x) == canon3(y)
        assert canon3(x).body.tag == "III0"
        assert _orbit_states(x).size == 43008 and same_class(x, y)


# ----------------------------------------------------------------------
# the full canonical form


def test_canon3_scalar_cyclic_split_examples():
    z4 = ring_ctx("z", 2, 2)
    f = canon3(scalar(z4, 3, 3))
    assert isinstance(f.body, ScalarBody) and f.level == 2 and f.d == 3

    coeffs = (1, 2, 3)
    c = Mat(z4, 3, (0, 1, 0, 0, 0, 1, *coeffs))
    f = canon3(c)
    assert isinstance(f.body, CyclicBody) and f.body.coeffs == coeffs
    assert f.level == 0 and f.rebuild() == c  # companions are fixed points

    m = Mat.from_rows(z4, [[1, 0, 0], [1, 0, 2], [2, 2, 2]])
    f = canon3(m)
    assert isinstance(f.body, SplitBody) and f.body.a == 1
    inner = f.body.inner
    assert (inner.level, inner.d) == (1, 0)
    assert inner.body.coeffs == (1, 1)


def test_canon3_witness_is_exact(rng):
    for desc in [("z", 2, 2), ("z", 3, 2), ("t", 2, 2), ("z", 2, 3)]:
        ctx = ring_ctx(*desc)
        for _ in range(100):
            m = rand_mat(ctx, 3, rng)
            f = canon3(m)
            assert f.witness.is_invertible()
            assert m.conjugate_by(f.witness) == f.rebuild()


def test_canon3_is_conjugation_invariant(rng):
    for desc in [("z", 2, 2), ("z", 3, 2), ("t", 2, 2)]:
        ctx = ring_ctx(*desc)
        for _ in range(150):
            m = rand_mat(ctx, 3, rng)
            g = rand_invertible(ctx, 3, rng)
            assert canon3(m) == canon3(m.conjugate_by(g))


def test_canon3_invariance_at_length_three(rng):
    ctx = ring_ctx("z", 2, 3)
    # regression pair: a pi-power shape whose step-by-step normalization
    # used to depend on the conjugate it was reached through
    m = Mat.from_rows(ctx, [[2, 5, 2], [3, 2, 0], [1, 3, 5]])
    g = Mat.from_rows(ctx, [[0, 1, 7], [1, 7, 7], [3, 4, 3]])
    assert canon3(m) == canon3(m.conjugate_by(g))
    for _ in range(60):
        m = rand_mat(ctx, 3, rng)
        g = rand_invertible(ctx, 3, rng)
        assert canon3(m) == canon3(m.conjugate_by(g))


def test_canon3_equality_matches_is_similar(rng):
    # against the reference solver: the library's is_similar compares forms
    ctx = ring_ctx("z", 2, 2)
    for _ in range(100):
        a, b = rand_mat(ctx, 3, rng), rand_mat(ctx, 3, rng)
        assert (canon3(a) == canon3(b)) == ref.is_similar(a, b)[0]


def test_canon3_json_shape():
    ctx = ring_ctx("z", 2, 2)
    j = canon3(j_matrix(ctx, 0, 0)).to_json()
    assert j["ring"] == "z:2:2" and j["j"] == 0
    assert j["body"]["kind"] == "hard" and "witness" not in j
    j = canon3(scalar(ctx, 3, 2)).to_json()
    assert j["body"] == {"kind": "scalar"}


# ----------------------------------------------------------------------
# the form and body classes: slotted, hashable, immutable by convention


def one_form_per_body_kind(ctx):
    """canon3 forms of ctx with a scalar, cyclic, split and hard body."""
    return [canon3(scalar(ctx, 3, 2)),
            canon3(Mat(ctx, 3, (0, 1, 0, 0, 0, 1, 1, 2, 3))),
            canon3(Mat.from_rows(ctx, [[1, 0, 0], [1, 0, 2], [2, 2, 2]])),
            canon3(j_matrix(ctx, 0, 0))]


def test_form_equality_and_hash_ignore_the_witness():
    # replace gives an equal form, with an equal hash, that carries w
    ctx = ring_ctx("z", 2, 2)
    w = diag(ctx, [1, 3, 1])
    for f in one_form_per_body_kind(ctx):
        g = dataclasses.replace(f, witness=w)
        assert g.witness is w and g.witness != f.witness
        assert g == f and hash(g) == hash(f) and len({f, g}) == 1
        # the fields that are compared still are
        assert dataclasses.replace(g, level=f.level + 1) != f
    split = one_form_per_body_kind(ctx)[2].body
    inner = dataclasses.replace(split.inner, witness=diag(ctx, [3, 1]))
    moved = SplitBody(split.a, inner)
    assert moved == split and hash(moved) == hash(split)
    assert SplitBody(3, inner) != split


def test_forms_and_bodies_have_no_instance_dict():
    ctx = ring_ctx("z", 2, 2)
    for f in one_form_per_body_kind(ctx):
        for obj in (f, f.body):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert {type(f.body) for f in one_form_per_body_kind(ctx)} == {
        ScalarBody, CyclicBody, SplitBody, HardBody}


def test_form_repr_leaves_out_the_witness():
    ctx = ring_ctx("z", 2, 2)
    scalar_form, _, split_form, _ = one_form_per_body_kind(ctx)
    ring = "RingCtx(flavor='z', p=2, length=2)"
    assert repr(scalar_form) == (
        f"CanonicalForm(ctx={ring}, n=3, level=2, d=2, body=ScalarBody())")
    assert repr(split_form) == (
        f"CanonicalForm(ctx={ring}, n=3, level=0, d=0, body=SplitBody(a=1, "
        f"inner=CanonicalForm(ctx={ring}, n=2, level=1, d=0, "
        f"body=CyclicBody(coeffs=(1, 1)))))")
    assert repr(ep(ctx, 1, 0, 2, 0, 1)) == f"HardBody(ctx={ring}, m=1, a=0, b=2, c=0, d=1)"


def test_a_hand_built_bad_hard_body_still_raises():
    ctx = ring_ctx("z", 2, 2)
    with pytest.raises(simclass.BadParams, match="non-unit"):
        HardBody(ctx, 1, 1, 0, 0, 0)
    with pytest.raises(simclass.BadParams, match="slot exponent"):
        HardBody(ctx, 3, 0, 0, 0, 0)
    # replace builds anew, so it checks too
    good = ep(ctx, 1, 0, 2, 0, 1)
    with pytest.raises(simclass.BadParams, match="packed value"):
        dataclasses.replace(good, d=4)


# ----------------------------------------------------------------------
# centralizer shapes


def test_centralizer_shape_case_split():
    ctx = ring_ctx("z", 2, 2)
    # slot and both entries at full valuation: the two-unit case, dim 5i-2
    assert centralizer_order(ep(ctx, 2, 0, 0, 2, 0).rebuild()) == 256
    # val(b) minimal: still the two-unit case
    assert centralizer_order(ep(ctx, 1, 0, 2, 0, 0).rebuild()) == 64
    # val(a) < min(m, val(b)): the one-unit case
    assert centralizer_order(ep(ctx, 2, 2, 0, 0, 0).rebuild()) == 128


def test_centralizer_shape_matches_exact_order_on_every_hard_rep():
    for desc in [("z", 2, 1), ("z", 2, 2), ("z", 3, 1), ("z", 3, 2)]:
        ctx = ring_ctx(*desc)
        for h in hard_family(ctx):
            predicted = centralizer_order(h.rebuild())
            assert predicted == ref.centralizer_order(h.rebuild())
