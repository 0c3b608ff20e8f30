"""Ring contexts: arithmetic on packed integers, units, valuations, digits,
truncation, and the checks on a descriptor."""

import ast
import math
import operator
import os
import pickle
import random
import time
import tracemalloc
from itertools import chain, product

import pytest

from simclass import (
    BadDescriptor,
    BadParams,
    BadLevel,
    CtxMismatch,
    HardBody,
    Mat,
    NonUnit,
    RingCtx,
    parse_ring,
    ring_ctx,
)
from simclass.ring import _LANE_TABLE_CAP, _TABLE_LIMIT
from conftest import SRC, poly_add, poly_inv, poly_mul, poly_neg, run_python
from test_properties import LANES, LARGE_P, LONG


def test_parse_ring_round_trip():
    for desc in ["z:2:1", "z:2:3", "z:7:2", "t:3:2", "t:5:1"]:
        ctx = parse_ring(desc)
        assert ctx.descriptor == desc
        assert parse_ring(desc) is ctx  # contexts are interned


@pytest.mark.parametrize(
    "desc", ["q:2:2", "z:4:2", "z:9:1", "z:2:0", "t:1:3", "z:2", "z:2:2:2", "z:x:1",
             # int() reads each of these as a valid p or length
             "z:1_1:2", "z:\u0663:2", "z:+3:2", "z: 3:2", "t:2:0_2", "z:03:2"]
)
def test_parse_ring_rejects_bad_descriptors(desc):
    with pytest.raises((BadDescriptor, BadLevel, ValueError)):
        parse_ring(desc)


NON_INT_RINGS = [
    (("z", 2.0, 2), BadDescriptor),
    (("z", True, 2), BadDescriptor),
    (("t", 3.0, 2), BadDescriptor),
    (("z", 2, 2.0), BadLevel),
    (("z", 3, True), BadLevel),
    (("t", 3, 2.0), BadLevel),
]


@pytest.mark.parametrize(
    "args,error", NON_INT_RINGS, ids=[":".join(map(str, a)) for a, _ in NON_INT_RINGS]
)
def test_ring_parameters_must_be_ints(args, error):
    with pytest.raises(error):
        RingCtx(*args)
    with pytest.raises(error):
        ring_ctx(*args)


def test_a_float_ring_never_enters_the_context_cache():
    # a refused float p leaves nothing behind, and an interned int
    # context is not handed out for a float p either
    script = (
        "from simclass import BadDescriptor, Mat, ring_ctx\n"
        "try:\n"
        "    ring_ctx('z', 2.0, 2)\n"
        "except BadDescriptor:\n"
        "    pass\n"
        "ctx = ring_ctx('z', 2, 2)\n"
        "assert type(ctx.cardinality) is int and ctx.cardinality == 4\n"
        "assert Mat.from_rows(ctx, [[1, 2], [3, 0]]).rows() == [[1, 2], [3, 0]]\n"
        "try:\n"
        "    ring_ctx('z', 2.0, 2)\n"
        "except BadDescriptor:\n"
        "    print('refused')\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_integer_flavor_matches_modular_arithmetic():
    for ctx in (ring_ctx("z", 2, 3), ring_ctx("z", 5, 2)):
        q = ctx.cardinality
        for a in range(q):
            assert ctx.neg_raw(a) == -a % q
            for b in range(q):
                assert ctx.add_raw(a, b) == (a + b) % q
                assert ctx.mul_raw(a, b) == (a * b) % q
                assert ctx.sub_raw(a, b) == (a - b) % q


def test_poly_flavor_multiplies_without_carries():
    ctx = ring_ctx("t", 3, 3)
    one_plus_t = 1 + 3
    one_plus_2t = 1 + 2 * 3
    # (1+t)(1+2t) = 1 + 3t + 2t^2 = 1 + 0t + 2t^2 over F_3
    assert ctx.mul_raw(one_plus_t, one_plus_2t) == 1 + 2 * 9
    # t^2 * t = 0 in length 3
    assert ctx.mul_raw(9, 3) == 0
    # addition is digitwise
    assert ctx.add_raw(2 + 3, 2 + 2 * 3) == 1  # (2+t)+(2+2t) = 4+3t = 1


@pytest.mark.parametrize("flavor,p,length", [("z", 2, 3), ("z", 3, 2), ("t", 2, 3), ("t", 3, 2)])
def test_units_invert_exactly(flavor, p, length):
    ctx = ring_ctx(flavor, p, length)
    units = 0
    for a in range(ctx.cardinality):
        if ctx.is_unit_raw(a):
            units += 1
            assert ctx.mul_raw(a, ctx.inv_raw(a)) == 1
        else:
            with pytest.raises(NonUnit):
                ctx.inv_raw(a)
    assert units == (p - 1) * p ** (length - 1)


@pytest.mark.parametrize("flavor", ["z", "t"])
def test_valuation_and_unit_split(flavor):
    ctx = ring_ctx(flavor, 3, 3)
    assert ctx.val_raw(0) == 3
    for a in range(1, ctx.cardinality):
        v = ctx.val_raw(a)
        t, u = ctx.unit_split_raw(a)
        assert t == v and ctx.is_unit_raw(u)
        assert ctx.mul_raw(ctx.pi_pow_raw(t), u) == a
        assert ctx.mul_raw(ctx.pi_pow_raw(v), ctx.div_pi_raw(a, v)) == a


def test_digits_round_trip():
    for flavor in ("z", "t"):
        ctx = ring_ctx(flavor, 5, 3)
        for a in [0, 1, 7, 24, 124, 66]:
            ds = [a // 5**k % 5 for k in range(3)]
            # the base-p digits are the coefficients of the expansion in pi
            terms = [ctx.mul_raw(d, ctx.pi_pow_raw(k)) for k, d in enumerate(ds)]
            assert ctx.add_raw(ctx.add_raw(*terms[:2]), terms[2]) == a


def test_mod_pi_truncates_low_digits():
    ctx = ring_ctx("z", 2, 3)
    for a in range(8):
        low = ctx.mod_pi_raw(a, 2)
        assert [low // 2**k % 2 for k in range(3)] == [a % 2, a // 2 % 2, 0]


def test_truncate_and_extend():
    ctx = ring_ctx("t", 2, 3)
    assert ctx.truncated(2).length == 2 and ctx.truncated(2).flavor == "t"
    assert ctx.truncated(2).extended(3) is ctx
    assert ctx.q == 2 and ring_ctx("z", 3, 2).q == 3


def test_mixed_context_operations_are_rejected():
    # z:2:2 and t:2:2 have the same packed values and different arithmetic
    for n in (2, 3):
        a = Mat(ring_ctx("z", 2, 2), n, [1] * (n * n))
        b = Mat(ring_ctx("t", 2, 2), n, [1] * (n * n))
        for x, y in ((a, b), (b, a)):
            for op in (operator.add, operator.sub, operator.matmul):
                with pytest.raises(CtxMismatch):
                    op(x, y)


def test_elem_validates_range():
    # packed values are range-checked where they enter: a hard form's
    # entries, and the entries of a matrix over F_p[t]/(t^l); z:2:2 and
    # t:2:2 have the values 0..3, so 4 is none of them
    ctx = ring_ctx("z", 2, 2)
    with pytest.raises(BadParams):
        HardBody(ctx, 1, 0, 0, 0, 4)
    with pytest.raises(BadParams):
        Mat(ring_ctx("t", 2, 2), 2, [0, 0, 0, 4])


# lane rings: past _TABLE_LIMIT, one spread chunk (p**length <=
# _LANE_TABLE_CAP), several chunks, and primes beyond the cap (one digit
# at a time, and lanes past 64 bits)
LANE_RINGS = [(3, 7), (2, 11), (5, 5), (3, 39), (2, 62), (1000003, 2), (2147483647, 2)]


def _lists_read_by(*fns):
    """The distinct lists that fns read: their closure cells' contents, or
    the list a bound method such as table.__getitem__ belongs to."""
    found = {}
    for f in fns:
        cells = getattr(f, "__closure__", None) or ()
        held = [getattr(f, "__self__", None), *(c.cell_contents for c in cells)]
        found.update((id(x), x) for x in held if isinstance(x, list))
    return list(found.values())


def _op_tables(ctx):
    """The tables that the scalar ring operations of ctx read."""
    return _lists_read_by(ctx.add_raw, ctx.sub_raw, ctx.mul_raw, ctx.neg_raw, ctx._unit_inv)


def _lane_tables(ctx):
    """The lists that the lift and reduce functions of ctx read."""
    return _lists_read_by(ctx._lift, ctx._reduce)


@pytest.mark.parametrize(
    "p,length",
    [(2, 1), (3, 1), (7, 1), (3, 2), (2, 3), (5, 2), (3, 6), (31, 2), (2, 10), *LANE_RINGS],
)
def test_bound_t_ops_match_the_digit_loops(p, length):
    # every context binds when constructed: modular arithmetic at length 1
    # (F_p, no tables), tables up to _TABLE_LIMIT elements (t:2:10 has
    # exactly that many), and lane arithmetic past it
    ctx = RingCtx("t", p, length)
    assert all(name in vars(ctx) for name in ("add_raw", "sub_raw", "mul_raw", "neg_raw"))
    assert ctx.mul_raw(1, 1) == 1
    card = ctx.cardinality
    if card > _TABLE_LIMIT:  # card - 1 has every digit p - 1 and fills every lane
        grid = range(0, card, 37) if card < 4096 else random.Random(card).sample(range(card), 24)
        rows = cols = [*grid, 1, p - 1, p, card - p, card - 1]
    elif card > 100:  # sampled rows against every column
        rows = [0, 1, p, card - 1, *random.Random(card).sample(range(card), 4)]
        cols = range(card)
    else:
        rows = cols = range(card)
    for a in rows:
        assert ctx.neg_raw(a) == poly_neg(ctx, a)
        if a % p:
            assert ctx.inv_raw(a) == poly_inv(ctx, a)
        for b in cols:
            assert ctx.add_raw(a, b) == poly_add(ctx, a, b)
            assert ctx.sub_raw(a, b) == poly_add(ctx, a, poly_neg(ctx, b))
            assert ctx.mul_raw(a, b) == poly_mul(ctx, a, b)
    if length > 1 and card <= _TABLE_LIMIT:
        # four tables, add, mul, neg and inv, that hold one int object per
        # ring value
        tables = _op_tables(ctx)
        assert len(tables) == 4
        assert len({id(v) for tab in tables for v in tab}) <= card


def test_length_one_t_rings_build_no_table():
    ctx = RingCtx("t", 1021, 1)
    pairs = random.Random(1021).sample(range(1021 * 1021), 2000)
    for a, b in (divmod(x, 1021) for x in pairs):
        assert ctx.add_raw(a, b) == poly_add(ctx, a, b)
        assert ctx.sub_raw(a, b) == poly_add(ctx, a, poly_neg(ctx, b))
        assert ctx.mul_raw(a, b) == poly_mul(ctx, a, b)
        assert ctx.neg_raw(a) == poly_neg(ctx, a)
        if a:
            assert ctx.inv_raw(a) == poly_inv(ctx, a)
    assert _op_tables(ctx) == []


def test_t_rings_past_the_table_limit_build_no_table():
    ctx = RingCtx("t", 2, 11)
    assert ctx.cardinality == 2 * _TABLE_LIMIT
    assert ctx.mul_raw(3, 5) == poly_mul(ctx, 3, 5)
    assert _op_tables(ctx) == []
    # lane arithmetic is bound instead: reduce undoes lift
    lift, reduce = ctx._lift, ctx._reduce
    assert all(reduce(lift(a)) == a for a in range(ctx.cardinality))
    assert ctx.mul_raw(ctx.cardinality - 1, 1) == ctx.cardinality - 1


@pytest.mark.parametrize("p,length", LANE_RINGS)
def test_lane_bias_covers_the_negative_part_of_a_determinant(p, length):
    # reduce is exact on every int whose low `length` lanes each lie within
    # N = 3 C(l+1, 2) (p-1)^3 of zero, the most that the three added or the
    # three subtracted triple products of a determinant put in a lane that
    # gather reads, whatever the lanes above hold; a lane one bit narrower
    # carries the lanes at +N into the next
    ctx = RingCtx("t", p, length)
    lift, reduce = ctx._lift, ctx._reduce
    w = lift(p).bit_length() - 1  # pi lifts to 2^w
    widest = 3 * math.comb(length + 1, 2) * (p - 1) ** 3
    rng = random.Random(p * length)
    vectors = [[-widest] * length, [widest] * length,
               [widest if k % 2 else -widest for k in range(length)],
               [rng.randint(-widest, widest) for _ in range(length)]]
    top = 1 << w * length
    for lanes in vectors:
        x = sum(c << w * k for k, c in enumerate(lanes))
        digits = sum(c % p * p**k for k, c in enumerate(lanes))
        for high in (0, top * rng.randrange(1, top), -top * rng.randrange(1, top)):
            assert reduce(x + high) == digits


@pytest.mark.parametrize("p,length", LANE_RINGS)
def test_lane_rings_are_cheap_to_construct(p, length):
    # the cost of construction does not grow with p: no table has more than
    # _LANE_TABLE_CAP entries, and the peak allocation stays under a bound
    # that holds for every p; the time bound is far above the ~1 ms a
    # construction takes, so machine load cannot trip it
    tracemalloc.start()
    try:
        RingCtx("t", p, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        ctx = RingCtx("t", p, length)
        seconds.append(time.perf_counter() - t0)
    assert min(seconds) < 1.0
    assert all(len(t) <= _LANE_TABLE_CAP for t in _lane_tables(ctx))


def test_contexts_with_bound_ops_pickle_to_the_interned_context():
    for ctx in (ring_ctx("z", 2, 3), ring_ctx("t", 2, 3), ring_ctx("t", 3, 7)):
        ctx.mul_raw(1, 1)
        back = pickle.loads(pickle.dumps(ctx))
        assert back is ctx and back.mul_raw(1, 1) == 1


def test_no_module_but_ring_py_reads_the_encoding():
    # ring.py owns the element encoding: every other module reads digits,
    # residues and flavors through RingCtx, never a context's p or flavor
    package = os.path.join(SRC, "simclass")
    reads = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "ring.py":
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            reads += [f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("p", "flavor")]
    assert reads == []


@pytest.mark.parametrize("desc", LONG + LARGE_P + LANES)
def test_residue_context_ops_are_the_ints_mod_p(desc):
    # canon3, census and modsolve do residue arithmetic with the ops of
    # ctx.truncated(1) and take a residue as a packed value of ctx too
    ctx = parse_ring(desc)
    res, p = ctx.truncated(1), ctx.p
    residues = range(res.q)
    assert res.q == ctx.q == p
    assert all(ctx.mod_pi_raw(r, 1) == r for r in residues)
    # every pair below p = 31; a pass over every residue against two
    # partners for t:1000003:2
    pairs = (product(residues, repeat=2) if p <= 31
             else chain(zip(residues, residues), zip(residues, reversed(residues))))
    for a, b in pairs:
        assert (res.add_raw(a, b), res.mul_raw(a, b)) == ((a + b) % p, a * b % p)
    assert all(u * res.inv_raw(u) % p == 1 for u in residues[1:])


@pytest.mark.parametrize("desc", ["z:2:4", "t:2:4", "z:3:3", "t:3:2"])
def test_ideals_and_representatives_by_valuation_and_truncation(desc):
    # the two ranges that callers take without reading digits: ideal_raw(v)
    # and the packed values range(q**k) of the length-k ring, which are
    # the representatives mod pi^k
    ctx = parse_ring(desc)
    for v in range(ctx.length + 2):
        want = [x for x in range(ctx.cardinality) if ctx.val_raw(x) >= min(v, ctx.length)]
        assert list(ctx.ideal_raw(v)) == want, v
    for k in range(1, ctx.length + 1):
        reps = range(ctx.q**k)
        assert len(reps) == ctx.truncated(k).cardinality
        assert sorted({ctx.mod_pi_raw(x, k) for x in range(ctx.cardinality)}) == list(reps)
