import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np
import pytest

from eigenpoints import modular
from eigenpoints.exact_linalg import ExactMatrix
from eigenpoints.rationals import rational


def test_identity_kernel_empty():
    assert ExactMatrix.identity(3).right_kernel() == []


def test_one_by_two():
    basis = ExactMatrix([[1, 1]]).right_kernel()
    assert len(basis) == 1
    assert basis[0] == [rational(1), rational(-1)]


def test_kernel_vectors_annihilate():
    rng = random.Random(4)
    for _ in range(20):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        m = ExactMatrix(
            [[rational(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]
        )
        for v in m.right_kernel():
            assert all(x == 0 for x in m.mul_vector(v))
        assert m.rank() + len(m.right_kernel()) == cols


def _oracle_rref(rows):
    """Plain Fraction Gauss-Jordan elimination, independent of the modular path.

    Returns the nonzero rows of the reduced row echelon form and the pivot
    columns.
    """
    m = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _oracle_rank(rows):
    return len(_oracle_rref(rows)[1])


def _oracle_kernel(rows, ncols):
    """The reduced-echelon kernel basis, scaled to coprime integers, first nonzero positive."""
    rref, pivots = _oracle_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            v[c] = -row[f]
        ints = [x * lcm(*(y.denominator for y in v)) for x in v]
        g = gcd(*(int(x) for x in ints))
        sign = 1 if next(x for x in ints if x) > 0 else -1
        basis.append([rational(int(x) // (sign * g)) for x in ints])
    return basis


def _random_rows(rng, nrows, ncols, bits=2):
    top = 2**bits
    rows = [
        [rational(rng.randint(-top, top), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    shape = rng.random()
    if shape < 0.2:
        rows[rng.randrange(nrows)] = [rational(0)] * ncols
    elif shape < 0.4 and nrows > 1:
        rows[-1] = list(rows[0])
    elif shape < 0.6:
        rows = [[x if rng.random() < 0.5 else rational(0) for x in row] for row in rows]
    return rows


def test_rank_against_fraction_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        entries = [
            [rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert ExactMatrix(entries).rank() == _oracle_rank(entries)


@pytest.mark.parametrize("bits", [2, 80])
def test_kernel_is_the_reduced_echelon_basis(bits):
    # 80-bit entries give kernel entries of hundreds of bits: many primes
    rng = random.Random(bits)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        entries = _random_rows(rng, nrows, ncols, bits)
        assert ExactMatrix(entries).right_kernel() == _oracle_kernel(entries, ncols)


def test_rank_permutation_invariance():
    rng = random.Random(7)
    entries = [[rational(rng.randint(-9, 9)) for _ in range(6)] for _ in range(5)]
    base = ExactMatrix(entries).rank()
    for _ in range(10):
        rows = entries[:]
        rng.shuffle(rows)
        cols = list(range(6))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert ExactMatrix(shuffled).rank() == base


def _unlucky_rows(fault, q):
    """Integer rows of rank 4 whose echelon form modulo q is wrong."""
    rng = random.Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(4)]
    if fault == "rank":
        # the last row is the sum of the first two modulo q
        rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
        rows[3][2] += q
    else:
        # column 0 vanishes modulo q, so every pivot moves right
        for row in rows:
            row[0] *= q
    return rows


@pytest.mark.parametrize("fault", ["rank", "pivot"])
def test_kernel_drops_unlucky_primes(monkeypatch, fault):
    bad = 1_000_003
    assert modular._is_prime(bad)
    rows = _unlucky_rows(fault, bad)
    reference = modular.kernel(rows, 7)
    assert len(reference) == 3
    pivots = modular._rref_mod(np.array(rows, dtype=np.int64) % bad, bad)
    assert pivots != [0, 1, 2, 3]
    assert len(pivots) == (3 if fault == "rank" else 4)
    primes = modular._primes
    tried = []

    def bad_first(bits):
        for q in chain([bad], primes(bits)):
            tried.append(q)
            yield q

    monkeypatch.setattr(modular, "_primes", bad_first)
    assert modular.kernel(rows, 7) == reference
    assert tried[0] == bad
    expected = _oracle_kernel([[rational(x) for x in row] for row in rows], 7)
    assert [[rational(x) for x in v] for v in reference] == expected


def test_kernel_raises_past_the_prime_budget(monkeypatch):
    # one image never confirms a lift: it takes a second prime to predict
    monkeypatch.setattr(modular, "_PRIME_BUDGET", 1)
    with pytest.raises(ArithmeticError):
        modular.kernel([[1, 2, 3]], 3)


def test_kernel_rejects_a_lift_that_fails_the_exact_check(monkeypatch):
    rows = [[1, 2, 3], [4, 5, 6]]
    reference = modular.kernel(rows, 3)
    spoiled = []

    class SpoiledOnce(modular._Lift):
        # the first lift returned is off by one in every entry
        def add(self, q, values):
            lifted = super().add(q, values)
            if lifted is not None and not spoiled:
                spoiled.append(lifted)
                return [x + 1 for x in lifted]
            return lifted

    monkeypatch.setattr(modular, "_Lift", SpoiledOnce)
    assert modular.kernel(rows, 3) == reference
    assert spoiled


@pytest.mark.parametrize("bits", [2, 80])
def test_rank_from_the_image_or_the_lifted_kernel(kernel_calls, bits):
    rng = random.Random(100 + bits)
    full = deficient = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        entries = _random_rows(rng, nrows, ncols, bits)
        before = len(kernel_calls)
        rank = ExactMatrix(entries).rank()
        assert rank == _oracle_rank(entries)
        if rank == min(nrows, ncols):
            # a full image proves full rank: nothing is lifted
            assert len(kernel_calls) == before
            full += 1
        else:
            assert len(kernel_calls) == before + 1
            deficient += 1
    assert full and deficient


@pytest.mark.parametrize("fault", ["rank", "pivot"])
def test_rank_bound_on_an_unlucky_prime(monkeypatch, kernel_calls, fault):
    bad = 1_000_003
    m = ExactMatrix(_unlucky_rows(fault, bad))
    assert m.rank_bound() == m.rank() == 4
    primes = modular._primes
    monkeypatch.setattr(modular, "_primes", lambda bits: chain([bad], primes(bits)))
    # a lost pivot leaves a smaller bound and the lifted kernel the rank;
    # a moved pivot keeps the full image, which is still the rank
    assert m.rank_bound() == (3 if fault == "rank" else 4)
    assert m.rank() == 4
    assert len(kernel_calls) == (1 if fault == "rank" else 0)


def test_independent_rows_picks_each_row_that_extends_the_rows_before(monkeypatch):
    rows = [[1, 2, 0], [2, 4, 0], [0, 1, rational(1, 3)], [1, 3, rational(1, 3)]]
    m = ExactMatrix(rows)
    assert m.independent_rows(2) == [0, 2]
    # a smaller count takes the same image, with all its pivots
    assert m.independent_rows(1) == [0, 2]
    # no image has more pivots than the rank over Q
    monkeypatch.setattr(modular, "_PRIME_BUDGET", 3)
    with pytest.raises(ArithmeticError):
        m.independent_rows(3)
