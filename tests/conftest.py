import random
from itertools import combinations_with_replacement

import pytest

from eigenpoints.multipoly import Polynomial
from eigenpoints.rationals import rational
from eigenpoints.tensors import PartialSymTensor

# the five fixed seeds used throughout the seeded suites
SEEDS = [17, 34, 51, 68, 85]

# the classical 15 eigenpoints of the Fermat cubic in P^3
FERMAT_15 = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
    (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1),
    (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1),
]


def random_tensor(n, d, seed, box=9):
    """Seeded tensor with slice coefficients uniform in a small integer box."""
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
            c = rng.randint(-box, box)
            if c:
                terms[tuple(exp)] = rational(c)
        slices.append(Polynomial(nv, terms))
    return PartialSymTensor(n, d, slices)


def random_form(nvars, degree, seed, box=9):
    """Seeded homogeneous form."""
    rng = random.Random(seed)
    terms = {}
    for mono in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for v in mono:
            exp[v] += 1
        c = rng.randint(-box, box)
        if c:
            terms[tuple(exp)] = rational(c)
    return Polynomial(nvars, terms)


@pytest.fixture(scope="session")
def fermat_solution():
    from eigenpoints.solver import eigenpoints
    from eigenpoints.tensors import fermat_tensor

    return eigenpoints(fermat_tensor(3, 3), seed=0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """One entry per modular.kernel call: every kernel lift the test makes."""
    from eigenpoints import modular

    calls = []
    kernel = modular.kernel

    def counting(int_rows, cols):
        calls.append(cols)
        return kernel(int_rows, cols)

    monkeypatch.setattr(modular, "kernel", counting)
    return calls
