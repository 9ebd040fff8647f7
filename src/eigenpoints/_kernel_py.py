"""Hot kernels of the elimination engine, in pure Python.

Polynomials here are dicts mapping exponent tuples to integer
coefficients (content-free by convention); the monomial order is graded
reverse lexicographic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def order_key(mono):
    """Grevlex key: compare by (total degree, reversed negated exponents)."""
    total = 0
    for e in mono:
        total += e
    return (total,) + tuple(-e for e in reversed(mono))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def leading_term(terms: dict):
    """(monomial, coefficient) at the grevlex maximum."""
    best = None
    best_key = None
    for m in terms:
        k = order_key(m)
        if best_key is None or k > best_key:
            best_key = k
            best = m
    return best, terms[best]


def strip_content(terms: dict) -> dict:
    """Divide by the integer content and normalize the leading sign to +."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c if c >= 0 else -c)
        if g == 1:
            break
    lm, lc = leading_term(terms)
    if lc < 0:
        g = -g
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def add_scaled(target: dict, source: dict, mono, coef: int, heap=None):
    """target += coef * x^mono * source, pushing fresh monomials on heap."""
    for m, c in source.items():
        mm = mono_mul(m, mono)
        if mm in target:
            s = target[mm] + coef * c
            if s:
                target[mm] = s
            else:
                del target[mm]
        else:
            target[mm] = coef * c
            if heap is not None:
                heappush(heap, tuple(-k for k in order_key(mm)) + (mm,))


def reduce_full(f: dict, reducers) -> tuple[dict, int]:
    """Total fraction-free normal form of f modulo the reducers.

    reducers is a sequence of (lead_mono, lead_coeff, terms_dict), each
    content-free with positive leading coefficient.  Returns (remainder,
    multiplier) with multiplier a positive integer such that
    multiplier * f = remainder modulo the ideal and remainder irreducible.
    The remainder is not content-stripped so the multiplier stays
    meaningful; callers strip when they only need the class up to scale.
    """
    work = dict(f)
    remainder: dict = {}
    multiplier = 1
    heap = [tuple(-k for k in order_key(m)) + (m,) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[-1]
        c = work.get(m)
        if c is None:
            continue
        hit = None
        for lm, lc, terms in reducers:
            if mono_divides(lm, m):
                hit = (lm, lc, terms)
                break
        if hit is None:
            del work[m]
            remainder[m] = c
            continue
        lm, lc, terms = hit
        g = gcd(c, lc)
        scale = lc // g
        if scale != 1:
            multiplier *= scale
            for k in work:
                work[k] = work[k] * scale
            for k in remainder:
                remainder[k] = remainder[k] * scale
        # subtracting (c/g) x^(m-lm) * reducer cancels the lead exactly
        add_scaled(work, terms, mono_div(m, lm), -(c // g), heap)
    return remainder, multiplier


def spoly(f_lm, f_lc, f_terms, g_lm, g_lc, g_terms) -> dict:
    """Fraction-free S-polynomial of two content-free integer polynomials."""
    lcm = mono_lcm(f_lm, g_lm)
    gg = gcd(f_lc, g_lc)
    cf = g_lc // gg
    cg = f_lc // gg
    out: dict = {}
    add_scaled(out, f_terms, mono_div(lcm, f_lm), cf)
    add_scaled(out, g_terms, mono_div(lcm, g_lm), -cg)
    return out


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out
