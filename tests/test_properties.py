"""Property tests: canonical forms, similarity decisions and centralizer
orders are invariant under random conjugation.

Rings: lengths 3-4 in both flavors, the large primes 11 and 31 at
lengths 1-2, where the reference solver's residue spans are out of
reach, and "t" rings with lane arithmetic (see ring.py): t:3:7, t:2:11
and t:1000003:2.  Matrices are drawn as d + pi^k B with B random, a pi-power
shape (a hard residue), or fully random, so every residue type and
scalar level turns up.  The examples are fixed by the profile in
conftest.py.
"""

from hypothesis import given
from hypothesis import strategies as st

from simclass import Mat, canon2, canon3, centralizer_order, e_matrix, is_similar, parse_ring

LONG = ["z:2:3", "t:2:3", "z:3:3", "t:3:3", "z:2:4", "t:2:4"]
LARGE_P = ["z:11:1", "t:11:1", "z:11:2", "t:11:2", "z:31:1", "t:31:1", "z:31:2", "t:31:2"]
LANES = ["t:3:7", "t:2:11", "t:1000003:2"]
RINGS = st.sampled_from(LONG + LARGE_P + LANES).map(parse_ring)


@st.composite
def matrices(draw, ctx, n):
    card, length = ctx.cardinality, ctx.length
    entry = st.integers(0, card - 1)
    ideal = st.integers(0, card // ctx.p - 1).map(lambda v: v * ctx.p)
    kind = draw(st.sampled_from(["random", "shifted", "hard"] if n == 3 else ["random", "shifted"]))
    if kind == "hard":
        m = draw(st.integers(1, length))
        a, b, c = draw(ideal), draw(ideal), draw(ideal)
        return e_matrix(ctx, m, a, b, c, draw(entry))
    body = Mat(ctx, n, draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    if kind == "random":
        return body
    d, k = draw(entry), draw(st.integers(1, length))
    shift = Mat(ctx, n, [d if i % (n + 1) == 0 else 0 for i in range(n * n)])
    return shift + body.scale(ctx.pi_pow_raw(k))


@st.composite
def units(draw, ctx, n):
    entry = st.integers(0, ctx.cardinality - 1)
    vals = draw(st.lists(entry, min_size=n * n, max_size=n * n)
                .filter(lambda v: Mat(ctx, n, v).is_invertible()))
    return Mat(ctx, n, vals)


@st.composite
def conjugate_pairs(draw, n):
    """(m, g m g^-1, m2, h m2 h^-1) over one ring."""
    ctx = draw(RINGS)
    m, m2 = draw(matrices(ctx, n)), draw(matrices(ctx, n))
    g, h = draw(units(ctx, n)), draw(units(ctx, n))
    return m, m.conjugate_by(g), m2, m2.conjugate_by(h)


@given(conjugate_pairs(3))
def test_canon3_is_conjugation_invariant(pairs):
    m, c, _, _ = pairs
    form = canon3(m)
    assert canon3(c) == form
    assert form.witness.conjugates(m, form.rebuild())


@given(conjugate_pairs(2))
def test_canon2_is_conjugation_invariant(pairs):
    m, c, _, _ = pairs
    assert canon2(c) == canon2(m)


@given(st.sampled_from([2, 3]).flatmap(conjugate_pairs))
def test_is_similar_is_conjugation_invariant(pairs):
    m, c, m2, c2 = pairs
    ok, x = is_similar(m, c)
    assert ok and x.is_invertible() and m @ x == x @ c
    assert is_similar(m, m2)[0] == is_similar(c, c2)[0]


@given(st.sampled_from([2, 3]).flatmap(conjugate_pairs))
def test_centralizer_order_is_conjugation_invariant(pairs):
    m, c, _, _ = pairs
    assert centralizer_order(m) == centralizer_order(c)
