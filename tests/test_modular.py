import random
from fractions import Fraction
from itertools import islice
from math import gcd, prod

import numpy as np
import pytest

from eigenpoints import modular


def _residues(values, m):
    return [v.numerator * pow(v.denominator, -1, m) % m for v in values]


def _moduli(height, values):
    # odd moduli whose bound isqrt(m >> 1) is just below and just at the height
    out = []
    for m in (2 * height * height - 1, 2 * height * height + 1):
        while any(gcd(m, v.denominator) != 1 for v in values):
            m += 2
        out.append(m)
    return out


def _value_sets(rng, height):
    shared = rng.randrange(height // 2, height) | 1
    coprime = [101, 103, 107, 109, 113, 127]
    return {
        "shared": [Fraction(rng.randrange(-height, height), shared) for _ in range(12)],
        "coprime": [Fraction(rng.randrange(-height, height), d) for d in coprime],
        "mixed": [
            Fraction(rng.randrange(-height, height), rng.choice([1, 7, 49, 11, shared]))
            for _ in range(12)
        ]
        + [Fraction(0), Fraction(height - 1), Fraction(-1, height - 1)],
    }


@pytest.mark.parametrize("height", [2**20 + 7, 2**90 + 1])
@pytest.mark.parametrize("kind", ["shared", "coprime", "mixed"])
def test_common_denominator_reconstruction_is_rational(kind, height):
    rng = random.Random(f"{kind}:{height}")
    for _ in range(5):
        values = _value_sets(rng, height)[kind]
        height = max(max(abs(v.numerator), v.denominator) for v in values)
        for m in _moduli(height, values):
            # the values, and residues of nothing in particular
            for residues in (_residues(values, m), [rng.randrange(m) for _ in values]):
                each = [modular._rational(x, m) for x in residues]
                expected = None if None in each else each
                assert modular._reconstruct(residues, m) == expected


def test_reconstruction_tries_each_new_denominator_once(monkeypatch):
    rational, calls = modular._rational, []

    def counted(a, m):
        calls.append(a)
        return rational(a, m)

    monkeypatch.setattr(modular, "_rational", counted)
    m = prod(islice(modular._primes(29), 4))
    # one denominator shared by every value: the first value is the only half-gcd
    values = [Fraction(1, 999_983)] + [Fraction(k * 7919 - 40_000, 999_983) for k in range(20)]
    assert modular._reconstruct(_residues(values, m), m) == values
    assert len(calls) == 1
    # a first value with no reconstruction ends the attempt there
    rng = random.Random(5)
    residues = [rng.randrange(m) for _ in range(20)]
    while rational(residues[0], m) is not None:
        residues[0] = rng.randrange(m)
    calls.clear()
    assert modular._reconstruct(residues, m) is None
    assert len(calls) == 1


def _eager_rref(a, q):
    # every entry reduced after every pivot
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, q) % q
        f = a[:, c].copy()
        f[r] = 0
        a -= np.outer(f, a[r])
        a %= q
        pivots.append(c)
    return pivots


def _matrices(q, seed):
    rng = np.random.default_rng(seed)
    full = rng.integers(0, q, size=(40, 43), dtype=np.int64)
    # rank 25: a product of random factors, with a zero column and a repeated row
    left = rng.integers(0, q, size=(30, 25)).astype(object)
    right = rng.integers(0, q, size=(25, 33)).astype(object)
    low = (left.dot(right) % q).astype(np.int64)
    low[:, 4] = 0
    low[7] = low[3]
    # entries near q, the largest a subtraction can meet
    top = rng.integers(q - 1000, q, size=(20, 26), dtype=np.int64)
    # more pivots than the budget between reductions at 27 bits
    tall = rng.integers(0, q, size=(260, 262), dtype=np.int64)
    return [full, low, top, tall]


@pytest.mark.parametrize("bits", [27, 29, 31])
def test_lazy_echelon_equals_the_eager_one(bits):
    q = next(modular._primes(bits))
    for k, a in enumerate(_matrices(q, bits)):
        lazy, eager = a.copy(), a.copy()
        assert modular._rref_mod(lazy, q) == _eager_rref(eager, q), k
        assert np.array_equal(lazy, eager), k


def test_primes_are_tested_once_per_process(monkeypatch):
    monkeypatch.setattr(modular, "_FOUND", {})
    first = list(islice(modular._primes(23), 40))
    calls = []
    is_prime = modular._is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(modular, "_is_prime", counting)
    assert list(islice(modular._primes(23), 40)) == first
    assert calls == []
    # reading past the kept list tests only the candidates after it
    more = list(islice(modular._primes(23), 41))
    assert more[:40] == first and calls and min(calls) == more[40]
    assert first == [p for p in range(2**23 - 1, first[-1] - 1, -2) if is_prime(p)]
