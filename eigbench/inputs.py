"""Seeded inputs of the three workloads as plain Python data.

Nothing here imports the solver: tensors are n+1 dicts mapping an exponent
tuple to an integer coefficient, and point sets are lists of integer
coordinate tuples.  The same seed always gives the same data.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import checks

# slice coefficients are uniform in [-BOX, BOX], as in the acceptance suite
BOX = 9
# box of the integer coordinates of random point sets (acceptance criteria 6, 7)
NO_BOX = 25
ENLARGE_BOX = 10

# the fixed planar tensor that the coordinate-point fault below hits
FAULT_TENSOR = (2, 7, 4)


def random_slices(n: int, d: int, seed: int) -> list:
    """The acceptance suite's seeded tensor (tests/conftest.random_tensor)."""
    rng = random.Random(seed)
    nv = n + 1
    monos = list(combinations_with_replacement(range(nv), d - 1))
    slices = []
    for _ in range(nv):
        terms = {}
        for mono in monos:
            exp = [0] * nv
            for v in mono:
                exp[v] += 1
            c = rng.randint(-BOX, BOX)
            if c:
                terms[tuple(exp)] = c
        slices.append(terms)
    return slices


def fermat_slices(n: int, d: int) -> list:
    """Gradient of x_0^d + ... + x_n^d: slice i is d x_i^(d-1)."""
    nv = n + 1
    return [
        {tuple(d - 1 if k == i else 0 for k in range(nv)): d} for i in range(nv)
    ]


def hits_coordinate_point_fault(slices: list, n: int, d: int) -> bool:
    """True when the solver reports the point e_n = (0:...:0:1) twice
    (see checks.check_coordinate_point_fault for what the output then shows).

    On the line x_0 = ... = x_{n-2} = 0 the solver takes the order of the
    binary minor x_{n-1} g_n - x_n g_{n-1} at (0:1) as the multiplicity of
    e_n.  e_n is an eigenpoint when the x_n^(d-1) coefficient of g_0, ...,
    g_{n-1} vanishes, and that order is at least two when, in addition, the
    x_n^(d-1) coefficient of g_n equals the x_{n-1} x_n^(d-2) one of g_{n-1}.
    The test reads coefficients only.
    """
    top = tuple(d - 1 if k == n else 0 for k in range(n + 1))
    if any(slices[i].get(top, 0) for i in range(n)):
        return False
    nxt = tuple(1 if k == n - 1 else (d - 2 if k == n else 0) for k in range(n + 1))
    return slices[n].get(top, 0) == slices[n - 1].get(nxt, 0)


def random_points(rng: random.Random, k: int, box: int) -> list:
    """k distinct points of P^3 with integer coordinates in [-box, box]."""
    seen = set()
    out = []
    while len(out) < k:
        coords = tuple(rng.randint(-box, box) for _ in range(4))
        if not any(coords):
            continue
        key = checks.canonical(coords)
        if key not in seen:
            seen.add(key)
            out.append(coords)
    return out


def tensor_draws(rng: random.Random, n: int, d: int, count: int) -> list:
    """count seeded tensors (seed, slices), each seed the next 32 bits of rng.

    No draw is skipped: one that the coordinate-point fault hits is run and
    counted as failed like the fixed tensor.
    """
    seeds = [rng.getrandbits(32) for _ in range(count)]
    return [(s, random_slices(n, d, s)) for s in seeds]
