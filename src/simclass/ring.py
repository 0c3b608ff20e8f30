"""Finite chain rings Z/p^l and F_p[t]/(t^l), and the encoding of their
elements.

This module is the only one that knows what the digits of a packed
value mean.  Every other module reads digits, residues and flavors
through these hooks of RingCtx:

- val_raw, is_unit_raw, mod_pi_raw, div_pi_raw, unit_split_raw and
  pi_pow_raw: valuation, units, truncation and pi powers.  A value b of
  the length-(l-t) ring times pi_pow_raw(t), as plain ints, is the
  packed value of pi^t * b over the length-l ring (a digit upshift);
  canon2._placer places bodies so.
- The packed values of truncated(k), the length-k ring, are
  range(q**k).  As values of a longer ring they are its representatives
  mod pi^k: Mat.lift and Mat.truncate move values so.  So range(q) is
  the residues, and a residue is also a value of the longer ring.
- ideal_raw(v): the elements of valuation >= v, the ideal pi^v A.
- truncated(1): the residue field, a context of its own, whose add_raw,
  sub_raw, mul_raw, neg_raw and inv_raw do the residue arithmetic of
  canon3, census and modsolve, and whose size is q.
- packed_raw: the packed value that an integer matrix entry names.
- _digit_base and _unit_group_generators: the oracle's digit packing of
  states and the generators of the unit group.

An element is stored as a canonical integer in [0, p**length).  For the
"z" flavor (Z/p^l) this is the usual residue; for the "t" flavor
(F_p[t]/(t^l)) it is the base-p packing of the coefficient vector, so
t^j packs to p**j.  In both flavors the base-p digits of the packed
value are the digit vector of the element and the uniformizer pi (p
resp. t) packs to p, so pi**j packs to p**j and all digit-level helpers
(valuation, truncation) are flavor independent.  Only
addition and multiplication differ: "z" arithmetic carries, "t"
arithmetic is digit-wise mod p with polynomial convolution.

Every context carries one private pair (_lift, _reduce) for integer
expressions: a sum of products of lifted entries, with any signs, maps
back to its ring value by one _reduce, as long as it adds and subtracts
at most three triple products or their shorter kin (see N below).
matrix.py evaluates its products, scalings, determinants, adjugates
and characteristic polynomials, and canon2 its row-times-matrix, this
way on every ring.

- "z" contexts and every length-1 context (F_p, whatever the flavor):
  _lift is None, as the packed value is already the int, and _reduce is
  "mod p^length", which is exact because reduction is a ring map.
- every "t" context of length >= 2: Kronecker substitution (see
  _lane_ops).  _lift spreads the base-p digits of an element into w-bit
  lanes of one int, so an element is its polynomial evaluated at 2^w,
  and a product of lifted values is the product polynomial.  _reduce
  adds a bias and gathers: the low `length` lanes are each reduced mod
  p and repacked in base p.  This is exact because no lane that gather
  reads ever carries into the next.  Lane k < length of a product of
  two lifted values is the convolution sum c_k = sum(a_i * b_(k-i)) of
  k + 1 terms, at most length*(p-1)^2; lane k of a triple product sums
  over the C(k+2, 2) index triples with sum k, so it is at most
  C(length+1, 2)*(p-1)^3 on the lanes that gather reads.  The widest
  expression is the 3x3 determinant: three triple products added and
  three subtracted, so each low lane lies within
  N = 3*C(length+1, 2)*(p-1)^3 of zero.  The bias is K*p in each low
  lane, the least multiple of p that is at least N, so the lanes that
  gather reads lie in [0, N + K*p] and keep their value mod p.  The
  lanes at and above `length` may stay negative: a borrow moves only
  upward, so the low lanes of the int are still exactly the low lanes
  of the expression, and gather never reads the others.  w is the bit
  length of N + K*p; the 3x3 product (three convolution sums) and every
  shorter expression fit the same width.

Scalar ring operations keep one kind per context: add_raw, sub_raw,
mul_raw, neg_raw and the unit inverse are plain functions bound once,
when the context is constructed, so a ring operation is one call with
no flavor test.  "z" and length-1 contexts bind the modular
expressions.  A "t" context of length >= 2 and at most _TABLE_LIMIT =
1024 elements builds its add, mul, negation and inverse tables and binds
lookups into them; the tables are built by digit recurrence, those of
F_p[t]/(t^k) following row by row from those of F_p[t]/(t^(k-1)),
starting at F_p, with one table lookup per entry (see _t_tables).  A
larger "t" context binds one _reduce of one lifted expression per
operation; for p = 2 addition and subtraction are XOR and negation is
the identity.  Its unit inverse is Newton's iteration on the bound mul
and sub.

The raw functions trust their arguments to be packed values of the
ring: an element is its packed integer, with no wrapper type, and values
are range-checked where they enter, by Mat and the shape builders (see
packed_raw) and by HardBody.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .errors import BadDescriptor, BadLevel, BadParams, NonUnit, VerificationFailed

MAX_CARDINALITY = 2**63

# cardinality threshold below which "t" flavor arithmetic is table driven
_TABLE_LIMIT = 1024
# most entries of any table that lane arithmetic builds
_LANE_TABLE_CAP = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3 * 10**24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return sorted(out)


def _primitive_root(card: int, p: int, phi: int) -> int:
    """Smallest unit of multiplicative order phi modulo card."""
    factors = _prime_factors(phi)
    for g in range(2, card):
        if g % p == 0:
            continue
        if all(pow(g, phi // f, card) != 1 for f in factors):
            return g
    raise VerificationFailed(f"no unit of order {phi} modulo {card}")


def _t_tables(p: int, length: int):
    """The (add, mul, neg, inv) tables of F_p[t]/(t^length), built by digit
    recurrence.

    add and mul are flat lists indexed a*P + b (P = p**length); neg and
    inv are indexed by a, and inv is 0 at non-units.  Write x = x0 + t*x1,
    with x0 the lowest digit and x1 in the ring one digit shorter.  Then

        x + y = (x0 + y0) + t*(x1 + y1)
        x * y = x0*y + t*(x1 * (y mod t^(k-1)))

    at length k, so the length-k tables follow from the length-(k-1) ones,
    one row at a time, with one lookup per entry and no digit loop.  The
    entries are one shared int object per ring value, so a table costs a
    pointer per entry.
    """
    P = p**length
    vals = list(range(P))
    add = [vals[(a + b) % p] for a in range(p) for b in range(p)]
    mul = [vals[a * b % p] for a in range(p) for b in range(p)]
    Q = p  # cardinality of the ring that add and mul belong to
    while Q < P:
        R = Q * p
        # shifted[x0][h]: x0 + (y0 + t*h) for y0 = 0 .. p-1
        shifted = [
            [tuple(vals[(x0 + y0) % p + p * h] for y0 in range(p)) for h in range(Q)]
            for x0 in range(p)
        ]
        next_add = []
        for x1 in range(Q):
            high = add[x1 * Q : x1 * Q + Q]  # x1 + y1 for every y1
            for x0 in range(p):
                next_add.extend(chain.from_iterable(map(shifted[x0].__getitem__, high)))
        # scaled[x0][y]: x0*y as a row offset into next_add
        scaled = [
            [(x0 * y0 % p + p * h) * R for h in mul[x0 * Q : x0 * Q + Q] for y0 in range(p)]
            for x0 in range(p)
        ]
        next_mul = []
        for x1 in range(Q):
            # t*(x1 * (y mod t^(k-1))) for every y
            high = [p * v for v in mul[x1 * Q : x1 * Q + Q]] * p
            for x0 in range(p):
                next_mul.extend(map(next_add.__getitem__, map(operator.add, scaled[x0], high)))
        add, mul, Q = next_add, next_mul, R
    neg = mul[(p - 1) * P : p * P]  # the row of -1
    inv = [0] * P
    for a in range(P):
        if a % p:  # the b in row a of mul with a*b = 1
            inv[a] = vals[mul.index(1, a * P, a * P + P) - a * P]
    return add, mul, neg, inv


def _lane_ops(p: int, length: int):
    """(spread, gather) of lane arithmetic over F_p[t]/(t^length), the
    _lift and _reduce of the module docstring.

    spread takes a packed value to its digits in w-bit lanes.  gather
    takes an int whose low `length` lanes each lie within N of zero,
    adds the bias K*p to each of them and returns the packed value of
    those lanes mod p.  spread reads chunks of k digits, p**k <=
    _LANE_TABLE_CAP, from a table of their spread values, or one digit
    at a time (no table) when p alone exceeds the cap, so no table has
    more than _LANE_TABLE_CAP entries whatever p and length are; when
    one chunk holds every digit, spread is that table's lookup.  gather
    reads the lanes one at a time.
    """
    # the negative part of a determinant on the lanes that gather reads
    widest = 3 * (length * (length + 1) // 2) * (p - 1) ** 3
    lane_bias = -(-widest // p) * p
    w = (widest + lane_bias).bit_length()
    bias = sum(lane_bias << w * i for i in range(length))
    k = 0  # digits per spread chunk
    while k < length and p ** (k + 1) <= _LANE_TABLE_CAP:
        k += 1
    if k:
        table = [0]
        for j in range(k):
            table = [t + (d << w * j) for d in range(p) for t in table]
    else:  # range(p)[c] == c: a single digit spreads to itself
        table = range(p)
    chunk, step = len(table), max(k, 1) * w
    mask, shifts = (1 << w) - 1, range(w * (length - 1), -1, -w)

    if k == length:
        spread = table.__getitem__
    else:

        def spread(a: int) -> int:
            out = s = 0
            while a:
                a, c = divmod(a, chunk)
                out |= table[c] << s
                s += step
            return out

    def gather(x: int) -> int:
        x += bias
        out = 0
        for s in shifts:  # Horner, from the top lane down
            out = out * p + (x >> s & mask) % p
        return out

    return spread, gather


def _newton_inv(p: int, length: int, mul, sub):
    """The unit inverse of F_p[t]/(t^length) by Newton's iteration
    u <- u*(2 - a*u) on the bound mul and sub: the valuation of 1 - a*u
    doubles each step."""
    two = 2 % p  # the constant polynomial 2
    steps = range(max(1, (length - 1).bit_length()))

    def inv(a: int) -> int:
        u = pow(a % p, -1, p)
        for _ in steps:
            u = mul(u, sub(two, mul(a, u)))
        return u

    return inv


@dataclass(frozen=True)
class RingCtx:
    """A ring A = Z/p^length ("z") or F_p[t]/(t^length) ("t").

    add_raw, sub_raw, mul_raw, neg_raw, the unit inverse behind inv_raw
    and the integer-expression pair _lift, _reduce (see the module
    docstring) are instance attributes, bound in __post_init__.
    """

    flavor: str
    p: int
    length: int
    # p**length, stored once: every ring operation reads it
    cardinality: int = field(init=False, repr=False, compare=False)
    # "flavor:p:length", stored once: every enumerate line prints it
    descriptor: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # refuse a float or bool before any comparison can coerce it
        if type(self.p) is not int:
            raise BadDescriptor(f"p = {self.p!r} is not an integer")
        if type(self.length) is not int:
            raise BadLevel(f"length = {self.length!r} is not an integer")
        if self.flavor not in ("z", "t"):
            raise BadDescriptor(f"unknown flavor {self.flavor!r}")
        if self.p < 2:
            raise BadDescriptor(f"p = {self.p} is not prime")
        if self.length < 1:
            raise BadLevel(f"length must be >= 1, got {self.length}")
        # bound the size before any big arithmetic: as p >= 2, a length of
        # 63 or more is always too large, and primality is tested last
        too_large = self.p >= MAX_CARDINALITY or self.length >= 63
        if too_large or self.p**self.length >= MAX_CARDINALITY:
            raise BadDescriptor("ring cardinality must be below 2**63")
        if not _is_prime(self.p):
            raise BadDescriptor(f"p = {self.p} is not prime")
        card = self.p**self.length
        object.__setattr__(self, "cardinality", card)
        object.__setattr__(self, "descriptor", f"{self.flavor}:{self.p}:{self.length}")
        if self.flavor == "z" or self.length == 1:  # length 1: both flavors are F_p
            lift, reduce = None, card.__rmod__
            ops = (
                lambda a, b: (a + b) % card,
                lambda a, b: (a - b) % card,
                lambda a, b: a * b % card,
                lambda a: -a % card,
                lambda a: pow(a, -1, card),
            )
        else:
            lift, reduce = _lane_ops(self.p, self.length)
            if card <= _TABLE_LIMIT:
                add, mul, neg, inv = _t_tables(self.p, self.length)
                ops = (
                    lambda a, b: add[a * card + b],
                    lambda a, b: add[a * card + neg[b]],
                    lambda a, b: mul[a * card + b],
                    neg.__getitem__,
                    inv.__getitem__,
                )
            else:

                def lane_mul(a: int, b: int) -> int:
                    return reduce(lift(a) * lift(b))

                if self.p == 2:  # digit sums mod 2 are XOR, and -a = a
                    ops = (operator.xor, operator.xor, lane_mul, lambda a: a)
                else:
                    ops = (
                        lambda a, b: reduce(lift(a) + lift(b)),
                        lambda a, b: reduce(lift(a) - lift(b)),
                        lane_mul,
                        lambda a: reduce(-lift(a)),
                    )
                ops += (_newton_inv(self.p, self.length, lane_mul, ops[1]),)
        object.__setattr__(self, "_lift", lift)
        object.__setattr__(self, "_reduce", reduce)
        for name, fn in zip(("add_raw", "sub_raw", "mul_raw", "neg_raw", "_unit_inv"), ops):
            object.__setattr__(self, name, fn)

    # ------------------------------------------------------------------
    # descriptors

    def __str__(self):
        return self.descriptor

    @property
    def q(self) -> int:
        """Size of the residue field truncated(1) (= p: it is F_p)."""
        return self.p

    # ------------------------------------------------------------------
    # raw integer arithmetic on packed values

    def __reduce__(self):
        # the bound functions are closures, so pickle the descriptor only
        return ring_ctx, (self.flavor, self.p, self.length)

    def inv_raw(self, a: int) -> int:
        if a % self.p == 0:
            raise NonUnit(f"{a} is not a unit in {self.descriptor}")
        return self._unit_inv(a)

    def is_unit_raw(self, a: int) -> bool:
        return a % self.p != 0

    def val_raw(self, a: int) -> int:
        """pi-adic valuation; val(0) = length by convention."""
        if a == 0:
            return self.length
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def pi_pow_raw(self, t: int) -> int:
        """Packed value of pi**t (0 once t >= length)."""
        if t < 0:
            raise BadLevel("negative pi power")
        return self.p**t if t < self.length else 0

    def div_pi_raw(self, a: int, t: int) -> int:
        """Exact division by pi**t, i.e. a digit downshift.

        Requires val(a) >= t.  Works identically for both flavors since
        multiplication by pi**t is a carry-free digit upshift.
        """
        sh = self.p**t
        if a % sh:
            raise NonUnit(f"{a} is not divisible by pi^{t}")
        return a // sh

    def mod_pi_raw(self, a: int, t: int) -> int:
        """Digits of a below position t (representative mod pi**t)."""
        return a % self.p**t if t < self.length else a

    def unit_split_raw(self, a: int) -> tuple[int, int]:
        """a = u * pi**t with u a unit; returns (t, u).  0 -> (length, 1)."""
        if a == 0:
            return self.length, 1
        t = self.val_raw(a)
        return t, a // self.p**t

    def ideal_raw(self, v: int) -> range:
        """The packed values of valuation >= v, the ideal pi^v A, in
        increasing order: only 0 once v >= length."""
        return range(0, self.cardinality, self.p**v) if v < self.length else range(1)

    def packed_raw(self, v: int) -> int:
        """The packed value that the integer matrix entry v names: over
        "z" every integer names its residue mod p^length; over "t" v must
        already be a packed value, or BadParams is raised."""
        if self.flavor == "z":
            return v % self.cardinality
        if not 0 <= v < self.cardinality:
            raise BadParams(f"packed value {v} outside ring {self.descriptor}")
        return v

    # ------------------------------------------------------------------
    # the oracle's view of the encoding

    def _digit_base(self) -> tuple[int, int]:
        """(mod, per): a packed value is per base-mod digits, least
        significant first, and ring addition adds them digit by digit
        mod `mod` (one digit mod p^length over "z", length digits mod p
        over "t")."""
        return (self.cardinality, 1) if self.flavor == "z" else (self.p, self.length)

    def _unit_group_generators(self) -> list:
        """Packed values generating the unit group."""
        p, length, card = self.p, self.length, self.cardinality
        if self.flavor == "z":
            if p == 2:
                if length == 1:
                    return []
                if length == 2:
                    return [3]
                return [card - 1, 5]  # {-1} x <5> is the whole 2-adic unit group
            return [_primitive_root(card, p, (p - 1) * p ** (length - 1))]
        gens = []
        if p > 2:
            gens.append(_primitive_root(p, p, p - 1))
        # 1 + pi^s filtration generators for the 1-units
        gens.extend(1 + p**s for s in range(1, length))
        return gens

    # ------------------------------------------------------------------
    # levels

    def truncated(self, level: int) -> "RingCtx":
        if not 1 <= level <= self.length:
            raise BadLevel(f"cannot truncate length {self.length} to {level}")
        return ring_ctx(self.flavor, self.p, level)

    def extended(self, length: int) -> "RingCtx":
        if length < self.length:
            raise BadLevel(f"cannot lift length {self.length} to {length}")
        return ring_ctx(self.flavor, self.p, length)


@lru_cache(maxsize=None, typed=True)
def ring_ctx(flavor: str, p: int, length: int) -> RingCtx:
    """Interned RingCtx factory; equal descriptors share one instance.

    The cache is typed, so 2.0 never finds the context of 2 and is
    refused by RingCtx instead.
    """
    return RingCtx(flavor, p, length)


def _decimal(text: str) -> int | None:
    """The int that text spells in plain decimal, or None.

    int() also reads "+3", " 3", "1_1", "03" and non-ASCII digits such
    as "٣"; none of these is accepted, since only the text of str(v)
    spells v.
    """
    try:
        v = int(text)
    except ValueError:
        return None
    return v if str(v) == text else None


def parse_ring(descriptor: str) -> RingCtx:
    """Parse "z:<p>:<length>" or "t:<p>:<length>", p and length in plain
    decimal (see _decimal)."""
    parts = descriptor.strip().split(":")
    ints = [_decimal(x) for x in parts[1:]]
    if len(parts) != 3 or None in ints:
        raise BadDescriptor(f"bad ring descriptor {descriptor!r}")
    return ring_ctx(parts[0], *ints)
