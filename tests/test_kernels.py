"""The elimination engine's hot kernels."""

import random

from eigenpoints import _kernel_py as pure


def _random_poly(rng, nvars=3, terms=6, box=20):
    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = rng.randint(-box, box)
        if c:
            out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def test_pure_kernel_basics():
    assert pure.mono_mul((1, 2), (3, 0)) == (4, 2)
    assert pure.mono_divides((1, 0), (2, 1))
    assert not pure.mono_divides((3, 0), (2, 1))
    assert pure.mono_lcm((1, 2), (2, 1)) == (2, 2)
    assert pure.order_key((2, 0, 1)) < pure.order_key((1, 2, 0))  # grevlex


def test_strip_content_sign():
    terms = {(1, 0): -4, (0, 1): -6}
    stripped = pure.strip_content(terms)
    lm, lc = pure.leading_term(stripped)
    assert lc > 0
    from math import gcd

    assert gcd(*[abs(c) for c in stripped.values()]) == 1


def test_reduce_full_cancels_leads():
    rng = random.Random(0)
    for _ in range(30):
        f = _random_poly(rng)
        reducers = []
        for _ in range(3):
            g = _random_poly(rng)
            if g:
                g = pure.strip_content(g)
                lm, lc = pure.leading_term(g)
                reducers.append((lm, lc, g))
        if not f or not reducers:
            continue
        r, mult = pure.reduce_full(f, reducers)
        assert mult >= 1
        for m in r:
            assert not any(pure.mono_divides(lm, m) for lm, _, _ in reducers)

