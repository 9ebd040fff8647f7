"""Hot kernels of the elimination engine, in pure Python, on packed monomials.

A monomial x^e in k variables is one Python int, its key

    key(e) = deg(e) * 2**(B*k) - sum_j e_j * 2**(B*j),    B = FIELD_BITS,

with every exponent below 2**(B-1) (Monagan and Pearce, "Sparse polynomial
division using a heap", J. Symbolic Comput. 46, 2011).  Polynomials are
dicts mapping keys to integer coefficients (content-free by convention).

- The key is additive: key(a b) = key(a) + key(b), so multiplying monomials
  is one addition and dividing one subtraction.
- The key is monotone in the graded reverse lexicographic order: degree
  first, then the smaller last exponent wins.  A monomial is its own sort
  and heap key, and the leading monomial of a polynomial is ``max(terms)``.
- The low B*k bits of GUARD + key(a) - key(b), GUARD the top bit of every
  field, hold the fields 2**(B-1) + b_j - a_j, and no borrow crosses a
  field.  So a | b exactly when every guard bit survives: one subtraction.

The guard is that no degree reaches ``DEGREE_BOUND`` = 2**(B-1), which keeps
every exponent below it.  Reduction never raises the degree in a graded
order, so the callers in ``groebner`` check only their inputs and the lcm
of each S-pair, and the encoding never wraps.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

FIELD_BITS = 16
DEGREE_BOUND = 1 << (FIELD_BITS - 1)


class Packing:
    """The keys of monomials in ``nvars`` variables, and their lcm."""

    __slots__ = ("nvars", "shift", "guard", "limit", "_ones", "_top")

    def __init__(self, nvars: int):
        fields = [FIELD_BITS * j for j in range(nvars)]
        self.nvars = nvars
        self.shift = FIELD_BITS * nvars
        self.guard = sum(1 << (f + FIELD_BITS - 1) for f in fields)
        # the largest key of degree below DEGREE_BOUND
        self.limit = (DEGREE_BOUND - 1) << self.shift
        self._ones = sum(1 << f for f in fields)
        self._top = FIELD_BITS * (nvars - 1)

    def pack(self, mono) -> int:
        key = sum(mono) << self.shift
        for j, e in enumerate(mono):
            key -= e << (FIELD_BITS * j)
        return key

    def unpack(self, key: int) -> tuple:
        rest = (self.degree(key) << self.shift) - key
        mask = (1 << FIELD_BITS) - 1
        return tuple((rest >> (FIELD_BITS * j)) & mask for j in range(self.nvars))

    def degree(self, key: int) -> int:
        return -(-key >> self.shift)

    def divides(self, a: int, b: int) -> bool:
        """True when x^a | x^b."""
        guard = self.guard
        return (guard + a - b) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        """lcm(x^a, x^b) = x^a times the positive part of x^(b - a)."""
        guard = self.guard
        d = guard + a - b  # fields 2**(B-1) + b_j - a_j
        high = d & guard  # the guard bits of the fields with b_j >= a_j
        spread = (high >> (FIELD_BITS - 1)) * ((1 << FIELD_BITS) - 1)
        excess = (d & spread) - high  # those fields' b_j - a_j, the others 0
        # its degree, the sum of its fields, is below 2**(B-1) since each
        # field is at most b_j: the product puts it in the top field, uncarried
        deg = ((excess * self._ones) >> self._top) & ((1 << FIELD_BITS) - 1)
        return a + (deg << self.shift) - excess


def strip_content(terms: dict) -> dict:
    """Divide by the integer content and normalize the leading sign to +."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c if c >= 0 else -c)
        if g == 1:
            break
    if terms[max(terms)] < 0:
        g = -g
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def add_scaled(target: dict, source: dict, mono: int, coef: int, heap=None):
    """target += coef * x^mono * source, pushing fresh monomials, negated, on heap."""
    for m, c in source.items():
        mm = m + mono
        if mm in target:
            s = target[mm] + coef * c
            if s:
                target[mm] = s
            else:
                del target[mm]
        else:
            target[mm] = coef * c
            if heap is not None:
                heappush(heap, -mm)


def reduce_full(f: dict, reducers, guard: int) -> tuple[dict, int]:
    """Total fraction-free normal form of f modulo the reducers.

    reducers is a sequence of (lead, lead_coeff, terms), each content-free
    with positive leading coefficient, and guard is ``Packing.guard``.
    Returns (remainder, multiplier) with multiplier a positive integer such
    that multiplier * f = remainder modulo the ideal and remainder
    irreducible.  The remainder is not content-stripped so the multiplier
    stays meaningful; callers strip when they only need the class up to
    scale.
    """
    work = dict(f)
    remainder: dict = {}
    multiplier = 1
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        t = guard - m
        for lm, lc, terms in reducers:
            if (t + lm) & guard == guard:
                break
        else:
            del work[m]
            remainder[m] = c
            continue
        g = gcd(c, lc)
        scale = lc // g
        if scale != 1:
            multiplier *= scale
            for k in work:
                work[k] = work[k] * scale
            for k in remainder:
                remainder[k] = remainder[k] * scale
        # subtracting (c/g) x^(m-lm) * reducer cancels the lead exactly
        add_scaled(work, terms, m - lm, -(c // g), heap)
    return remainder, multiplier


def spoly(f, g, lcm: int) -> dict:
    """Fraction-free S-polynomial of two (lead, lead_coeff, terms) triples.

    ``lcm`` is the lcm of their leads, as ``Packing.lcm`` gives it.
    """
    f_lm, f_lc, f_terms = f
    g_lm, g_lc, g_terms = g
    gg = gcd(f_lc, g_lc)
    out: dict = {}
    add_scaled(out, f_terms, lcm - f_lm, g_lc // gg)
    add_scaled(out, g_terms, lcm - g_lm, -(f_lc // gg))
    return out
