"""Seeded inputs, built with the reference arithmetic only.

A base matrix of a given body kind is d*I + pi^k * B, where B is
non-scalar mod pi and has the residue shape of its kind:

- cyclic: a companion matrix, so its residue is cyclic;
- split: diag(a, b*I + pi*N) with a != b mod pi, so the residue has two
  eigenvalues and minimal polynomial of degree 2;
- hard: e*I + E01 + pi*R, whose residue has one eigenvalue and minimal
  polynomial (x - e)^2 (neither cyclic nor split);
- scalar: d*I, with k = length.

Inputs are bases conjugated by seeded random invertible matrices.  The
seed picks d, the entries and the conjugators.  The caller fixes the
depth k and how many inputs of each kind a ring gets, so which hard-class
indexes and tables a run builds does not depend on the seed.
"""

from __future__ import annotations

import random

from ref import Ring, charpoly, det, mat_add, mat_scale, matmul, require, scalar

KINDS = ("scalar", "cyclic", "split", "hard")


def rand_elem(r: Ring, rng: random.Random) -> int:
    return rng.randrange(r.card)


def rand_matrix(r: Ring, n: int, rng: random.Random):
    return [[rand_elem(r, rng) for _ in range(n)] for _ in range(n)]


def with_residue(r: Ring, res: int, rng: random.Random) -> int:
    """A random element whose residue (lowest digit, in both flavors) is res."""
    return rng.randrange(r.card // r.p) * r.p + res


def inverse(r: Ring, a):
    """Adjugate over a unit determinant, for n = 2 or 3."""
    n = len(a)
    dinv = r.inv(det(r, a))
    if n == 2:
        adj = [[a[1][1], r.neg(a[0][1])], [r.neg(a[1][0]), a[0][0]]]
    else:
        adj = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                minor = [[a[x][y] for y in range(3) if y != i] for x in range(3) if x != j]
                c = det(r, minor)
                adj[i][j] = c if (i + j) % 2 == 0 else r.neg(c)
    return mat_scale(r, dinv, adj)


def rand_invertible(r: Ring, n: int, rng: random.Random):
    while True:
        m = rand_matrix(r, n, rng)
        if r.is_unit(det(r, m)):
            return m


def conjugate(r: Ring, a, rng: random.Random):
    """P a P^-1 for a seeded random invertible P."""
    p = rand_invertible(r, len(a), rng)
    return matmul(r, matmul(r, p, a), inverse(r, p))


def shift(r: Ring, d: int, k: int, body):
    """d*I + pi^k * body."""
    return mat_add(r, scalar(len(body), d), mat_scale(r, r.pi_pow(k), body))


def companion(c0: int, c1: int, c2: int):
    return [[0, 1, 0], [0, 0, 1], [c0, c1, c2]]


def body(r: Ring, kind: str, rng: random.Random):
    if kind == "cyclic":
        return companion(rand_elem(r, rng), rand_elem(r, rng), rand_elem(r, rng))
    if kind == "split":
        ra = rng.randrange(r.p)
        rb = (ra + 1 + rng.randrange(r.p - 1)) % r.p
        a, b = with_residue(r, ra, rng), with_residue(r, rb, rng)
        # N has a non-scalar residue, so the 2x2 block splits at level 1
        n = mat_scale(r, r.p, rand_matrix(r, 2, rng))
        n[0][1] = r.add(n[0][1], r.pi_pow(1))
        return [[a, 0, 0], [0, r.add(b, n[0][0]), n[0][1]], [0, n[1][0], r.add(b, n[1][1])]]
    if kind == "hard":
        e = rand_elem(r, rng)
        m = mat_add(r, scalar(3, e), mat_scale(r, r.p, rand_matrix(r, 3, rng)))
        m[0][1] = r.add(m[0][1], 1)
        return m
    raise ValueError(f"unknown body kind {kind!r}")


def base(r: Ring, kind: str, rng: random.Random, depth: int):
    """A matrix of the given kind whose scalar part has the given depth."""
    d = rand_elem(r, rng)
    if kind == "scalar":
        return scalar(3, d)
    return shift(r, d, depth, body(r, kind, rng))


def same_charpoly_pair(r: Ring, rng: random.Random, depth: int):
    """Two matrices with one characteristic polynomial in different classes:
    d + pi^k C and d + pi^k J (k = depth), with C the companion matrix of
    (x - e)^3 and J = e*I + E01.  (C - e)^2 is nonzero mod pi and (J - e)^2
    is zero, so no conjugation maps one onto the other."""
    d, e = rand_elem(r, rng), rand_elem(r, rng)
    three = 3 % r.card if r.flavor == "z" else r.pack([3])
    e2 = r.mul(e, e)
    c = companion(r.mul(e2, e), r.neg(r.mul(three, e2)), r.mul(three, e))
    j = scalar(3, e)
    j[0][1] = 1
    a, b = shift(r, d, depth, c), shift(r, d, depth, j)
    require(charpoly(r, a) == charpoly(r, b), "same-charpoly pair construction")
    return conjugate(r, a, rng), conjugate(r, b, rng)


def diff_charpoly_pair(r: Ring, rng: random.Random):
    a = rand_matrix(r, 3, rng)
    while True:
        b = rand_matrix(r, 3, rng)
        if charpoly(r, a) != charpoly(r, b):
            return a, b


def pair(r: Ring, kind: str, rng: random.Random, depth: int = 0, conj_kind: str = "cyclic"):
    """(a, b, expected similarity) for one is_similar input."""
    if kind == "conjugate":
        m = base(r, conj_kind, rng, depth)
        return conjugate(r, m, rng), conjugate(r, m, rng), True
    if kind == "same_charpoly":
        return (*same_charpoly_pair(r, rng, depth), False)
    if kind == "diff_charpoly":
        return (*diff_charpoly_pair(r, rng), False)
    if kind == "scalar":
        d = rand_elem(r, rng)
        return scalar(3, d), scalar(3, d), True
    raise ValueError(f"unknown pair kind {kind!r}")

