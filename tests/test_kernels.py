"""The elimination engine's hot kernels, on packed monomials."""

import random
from math import gcd

import pytest

from eigenpoints import _kernel_py as pure

NVARS = 3
P = pure.Packing(NVARS)


def _grevlex(mono):
    """Reference grevlex key on exponent tuples: total degree, then reversed negated exponents."""
    return (sum(mono),) + tuple(-e for e in reversed(mono))


def _random_mono(rng, nvars):
    # exponents up to the guard limit, with the degree kept below it
    mono = [0] * nvars
    room = pure.DEGREE_BOUND - 1
    for j in rng.sample(range(nvars), nvars):
        e = rng.choice([0, 1, 2, rng.randint(0, room), room])
        e = min(e, room)
        mono[j] = e
        room -= e
    return tuple(mono)


def _random_poly(rng, nvars=NVARS, terms=6, box=20):
    out = {}
    for _ in range(terms):
        mono = P.pack(tuple(rng.randint(0, 4) for _ in range(nvars)))
        c = rng.randint(-box, box)
        if c:
            out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packing_matches_tuple_grevlex(nvars):
    packing = pure.Packing(nvars)
    rng = random.Random(nvars)
    monos = [_random_mono(rng, nvars) for _ in range(300)]
    # the guard limit itself, on each variable
    for j in range(nvars):
        monos.append(tuple(pure.DEGREE_BOUND - 1 if k == j else 0 for k in range(nvars)))
    monos.append((0,) * nvars)
    for a, b in zip(monos, monos[1:] + monos[:1]):
        ka, kb = packing.pack(a), packing.pack(b)
        assert packing.unpack(ka) == a
        assert packing.degree(ka) == sum(a)
        assert (ka < kb) == (_grevlex(a) < _grevlex(b))
        assert (ka == kb) == (a == b)
        assert packing.divides(ka, kb) == all(x <= y for x, y in zip(a, b))
        lcm = packing.lcm(ka, kb)
        assert lcm == packing.pack(tuple(max(x, y) for x, y in zip(a, b)))
        assert packing.divides(ka, lcm) and packing.divides(kb, lcm)
        if sum(a) + sum(b) < pure.DEGREE_BOUND:
            assert ka + kb == packing.pack(tuple(x + y for x, y in zip(a, b)))


def test_pure_kernel_basics():
    assert P.pack((1, 2, 0)) + P.pack((3, 0, 1)) == P.pack((4, 2, 1))
    assert P.divides(P.pack((1, 0, 0)), P.pack((2, 1, 0)))
    assert not P.divides(P.pack((3, 0, 0)), P.pack((2, 1, 0)))
    assert P.lcm(P.pack((1, 2, 0)), P.pack((2, 1, 0))) == P.pack((2, 2, 0))
    assert P.pack((2, 0, 1)) < P.pack((1, 2, 0))  # grevlex
    assert P.pack((0, 0, 5)) < P.pack((1, 0, 4)) < P.pack((0, 0, 6))
    # the limit is the largest key below degree DEGREE_BOUND = 2**15
    assert P.pack((2**14, 2**14, 0)) > P.limit >= P.pack((0, 2**14, 2**14 - 1))
    top = P.pack((2**15 - 1, 0, 0))
    assert P.lcm(top, P.pack((0, 0, 2**15 - 1))) == P.pack((2**15 - 1, 0, 2**15 - 1)) > P.limit


def test_strip_content_sign():
    terms = {P.pack((1, 0, 0)): -4, P.pack((0, 1, 0)): -6}
    stripped = pure.strip_content(terms)
    assert stripped[max(stripped)] > 0
    assert gcd(*stripped.values()) == 1


def test_reduce_full_cancels_leads():
    rng = random.Random(0)
    for _ in range(30):
        f = _random_poly(rng)
        reducers = []
        for _ in range(3):
            g = _random_poly(rng)
            if g:
                g = pure.strip_content(g)
                reducers.append((max(g), g[max(g)], g))
        if not f or not reducers:
            continue
        r, mult = pure.reduce_full(f, reducers, P.guard)
        assert mult >= 1
        for m in r:
            assert not any(P.divides(lm, m) for lm, _, _ in reducers)
