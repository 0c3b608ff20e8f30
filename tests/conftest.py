"""Shared fixtures: a per-session orbit census memo, random matrix helpers
and a fresh-interpreter runner."""

import functools
import os
import random
import subprocess
import sys

import pytest

from simclass import Mat, orbit_census, ring_ctx

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args, timeout):
    """Run a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="session")
def shared_census():
    """census(ctx, n): the labelled orbit census, built once per session
    for each ring and size; callers only read it."""
    return functools.cache(lambda ctx, n: orbit_census(ctx, n, want_labels=True))


def rand_mat(ctx, n, rng):
    return Mat(ctx, n, [rng.randrange(ctx.cardinality) for _ in range(n * n)])


def rand_invertible(ctx, n, rng):
    while True:
        m = rand_mat(ctx, n, rng)
        if m.is_invertible():
            return m


@pytest.fixture
def rng():
    return random.Random(20260814)


RINGS_LEN2 = [("z", 2, 2), ("z", 3, 2), ("t", 2, 2), ("t", 3, 2)]


@pytest.fixture(params=RINGS_LEN2, ids=lambda r: f"{r[0]}:{r[1]}:{r[2]}")
def ctx_len2(request):
    return ring_ctx(*request.param)
