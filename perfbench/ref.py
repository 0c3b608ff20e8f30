"""Reference arithmetic and counts, written apart from simclass.

Every check the benchmark makes on the library's answers goes through
this module, so a fault in simclass's ring or matrix layer cannot hide
itself.  Elements use simclass's packing: an integer in [0, p**length)
whose base-p digits are the coefficients of the element ("t" flavor) or
its residue ("z" flavor).  Matrices are lists of rows of such integers.

The class counts are the paper's (arXiv:0708.1608): the closed forms
for 3x3 matrices over a chain ring of length l with residue field F_q,
for all matrices (M) and invertible ones (GL).  The 2x2 counts are
summed over the depth j of the scalar part: a 2x2 matrix is d + pi^j B
with B non-scalar mod pi, hence cyclic, so its class is fixed by d mod
pi^j and the characteristic polynomial of B over the length l-j ring.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """An answer of the program disagrees with the reference."""


def require(ok: bool, what: str):
    """Raise CheckFailed unless ok; unlike assert, this survives python -O."""
    if not ok:
        raise CheckFailed(what)


class Ring:
    """Z/p^l ("z") or F_p[t]/(t^l) ("t") on packed integers."""

    def __init__(self, flavor: str, p: int, length: int):
        if flavor not in ("z", "t"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor, self.p, self.length = flavor, p, length
        self.card = p**length
        self.unit_order = (p - 1) * p ** (length - 1)

    @classmethod
    def parse(cls, desc: str) -> "Ring":
        flavor, p, length = desc.split(":")
        return cls(flavor, int(p), int(length))

    @property
    def desc(self) -> str:
        return f"{self.flavor}:{self.p}:{self.length}"

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.length):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def pack(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d % self.p
        return v

    def add(self, a: int, b: int) -> int:
        if self.flavor == "z":
            return (a + b) % self.card
        return self.pack([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.flavor == "z":
            return -a % self.card
        return self.pack([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.flavor == "z":
            return a * b % self.card
        da, db = self.digits(a), self.digits(b)
        out = [0] * self.length
        for i, x in enumerate(da):
            if x:
                for j in range(self.length - i):
                    out[i + j] += x * db[j]
        return self.pack(out)

    def pi_pow(self, k: int) -> int:
        return self.p**k if k < self.length else 0

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        """Inverse of a unit: a^(|units| - 1) by square and multiply."""
        require(self.is_unit(a), f"{a} is not a unit of {self.desc}")
        out, base, e = 1, a, self.unit_order - 1
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


# ----------------------------------------------------------------------
# matrices as lists of rows


def scalar(n: int, d: int) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(n)] for i in range(n)]


def mat_add(r: Ring, a, b):
    return [[r.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(r: Ring, c: int, a):
    return [[r.mul(c, x) for x in row] for row in a]


def matmul(r: Ring, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = r.add(s, r.mul(a[i][k], b[k][j]))
            row.append(s)
        out.append(row)
    return out


def det(r: Ring, a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return r.sub(r.mul(a[0][0], a[1][1]), r.mul(a[0][1], a[1][0]))
    s = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = r.mul(a[0][j], det(r, minor))
        s = r.add(s, term) if j % 2 == 0 else r.sub(s, term)
    return s


def charpoly(r: Ring, a) -> tuple[int, ...]:
    """(trace, sum of principal 2x2 minors, det) for 3x3; (trace, det) for 2x2."""
    n = len(a)
    tr = 0
    for i in range(n):
        tr = r.add(tr, a[i][i])
    if n == 2:
        return tr, det(r, a)
    s2 = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s2 = r.add(s2, r.sub(r.mul(a[i][i], a[j][j]), r.mul(a[i][j], a[j][i])))
    return tr, s2, det(r, a)


def check_intertwines(r: Ring, a, x, b, what: str):
    """a x = x b with det x a unit: x is an invertible witness that
    x^-1 a x = b."""
    require(r.is_unit(det(r, x)), f"{what}: witness determinant {det(r, x)} is not a unit")
    require(matmul(r, a, x) == matmul(r, x, b), f"{what}: witness fails a*X = X*b")


def state_of(r: Ring, a) -> int:
    """Packed orbit-oracle state: entries row-major, first most significant."""
    s = 0
    for row in a:
        for v in row:
            s = s * r.card + v
    return s


def mat_of_state(r: Ring, n: int, state: int):
    vals = []
    for _ in range(n * n):
        state, v = divmod(state, r.card)
        vals.append(v)
    vals.reverse()
    return [vals[i * n:(i + 1) * n] for i in range(n)]


# ----------------------------------------------------------------------
# orders and class counts


def gl_order(q: int, length: int, n: int) -> int:
    """|GL_n(A)| for a chain ring A of the given length and residue field F_q."""
    out = q ** ((length - 1) * n * n)
    for k in range(n):
        out *= q**n - q**k
    return out


def count3(q: int, length: int, group: str) -> int:
    """The paper's number of 3x3 similarity classes at the given length."""
    if length == 0:
        return 1
    i = length
    if group == "M":
        num = (q ** (3 * i + 3) + q ** (3 * i - 1) - q ** (2 * i + 2) - q ** (2 * i + 1)
               - q ** (2 * i) - q ** (2 * i - 1) + 2 * q**i)
        den = (q - 1) * (q * q - 1)
    elif group == "GL":
        num = (q ** (3 * i + 2) - q ** (3 * i) + 2 * q ** (3 * i - 2) - q ** (2 * i + 1)
               - q ** (2 * i - 1) - 2 * q ** (2 * i - 2) + 2 * q ** (i - 1))
        den = q * q - 1
    else:
        raise ValueError(f"group must be M or GL, got {group!r}")
    whole, rem = divmod(num, den)
    require(rem == 0, f"count3({q}, {length}, {group}) is not integral")
    return whole


def count2(q: int, length: int, group: str) -> int:
    """Number of 2x2 similarity classes, summed over the scalar depth j."""
    if length == 0:
        return 1
    if group == "M":
        # j = length is the scalar matrices; below it, d mod pi^j times
        # every characteristic polynomial over the length - j ring
        return q**length + sum(q**j * q ** (2 * (length - j)) for j in range(length))
    if group == "GL":
        # invertible iff d is a unit (j >= 1) or the constant term is (j = 0)
        units = lambda j: (q - 1) * q ** (j - 1)  # noqa: E731
        return (units(length) + (q - 1) * q ** (2 * length - 1)
                + sum(units(j) * q ** (2 * (length - j)) for j in range(1, length)))
    raise ValueError(f"group must be M or GL, got {group!r}")


def count(n: int, q: int, length: int, group: str) -> int:
    return (count2 if n == 2 else count3)(q, length, group)


def self_check():
    """Known values over F_q: q^2 + q and q^2 - 1 classes of 2x2, q^3 + q^2 + q
    and q^3 - q of 3x3; and GL orders over Z/4 and F_2."""
    for q in (2, 3, 5, 7):
        require(count2(q, 1, "M") == q * q + q, "count2 M over F_q")
        require(count2(q, 1, "GL") == q * q - 1, "count2 GL over F_q")
        require(count3(q, 1, "M") == q**3 + q * q + q, "count3 M over F_q")
        require(count3(q, 1, "GL") == q**3 - q, "count3 GL over F_q")
    require(gl_order(2, 1, 3) == 168, "|GL_3(F_2)|")
    require(gl_order(2, 2, 2) == 96, "|GL_2(Z/4)|")
    for desc in ("z:3:2", "t:3:2", "t:2:3"):
        r = Ring.parse(desc)
        for a in range(r.card):
            if r.is_unit(a):
                require(r.mul(a, r.inv(a)) == 1, f"inverse over {desc}")
