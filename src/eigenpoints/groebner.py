"""Grevlex Buchberger and a multi-modular FGLM for zero-dimensional ideals.

The solver eliminates through this pipeline: a graded reverse
lexicographic basis is computed with Buchberger's algorithm (fraction-free
over the integers, Gebauer-Moeller pair pruning), the quotient staircase
and the multiplication matrices are read off, and ``fglm`` finds the
eliminant p of the last variable z.  When the ideal is in shape position it
also finds the rational univariate representation x_i = g_i(z) / p_sq'(z),
p_sq the square-free part of p.  Both come from Krylov sequences modulo
word-size primes, lifted to Q with the primes and the reconstruction of
``modular`` and checked there exactly before they are returned.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, islice
from math import gcd as int_gcd
from math import lcm

import numpy as np

from . import _kernel_py as K
from . import modular, unipoly
from .multipoly import Polynomial
from .rationals import ZERO, rational


class EliminationError(RuntimeError):
    pass


class PositiveDimensionalError(EliminationError):
    """The ideal is not zero-dimensional: the staircase is infinite."""


# -- conversions ------------------------------------------------------------


def poly_to_intdict(p: Polynomial) -> dict:
    """Clear denominators and strip content; scaling is irrelevant to ideals."""
    if p.is_zero():
        return {}
    den = 1
    for c in p.terms.values():
        d = c.denominator
        den = den * d // int_gcd(den, d)
    out = {m: int(c * den) for m, c in p.terms.items()}
    return K.strip_content(out)


def intdict_to_poly(d: dict, nvars: int) -> Polynomial:
    return Polynomial(nvars, {m: rational(c) for m, c in d.items()})


def _prepared(g: dict):
    lm, lc = K.leading_term(g)
    return (lm, lc, g)


# -- Buchberger -------------------------------------------------------------


def buchberger(polys, nvars: int, max_reductions: int = 200_000):
    """Reduced grevlex basis of the ideal generated by ``polys``.

    Returns a list of content-free integer term dicts with positive leading
    coefficients, tail-reduced and sorted by leading monomial.
    """
    gens = []
    for p in polys:
        d = poly_to_intdict(p) if isinstance(p, Polynomial) else K.strip_content(dict(p))
        if d:
            gens.append(d)
    if not gens:
        raise EliminationError("all generators are zero")

    basis: list[dict] = []       # every accepted polynomial, used for reduction
    prepared: list[tuple] = []   # (lm, lc, terms) triples aligned with basis
    active: list[int] = []       # indices that still generate pairs
    pairs: list = []             # min-heap of (order key of lcm, i, j)

    def lm(i):
        return prepared[i][0]

    def add_poly(h: dict):
        """Gebauer-Moeller update of the pair set with the new polynomial."""
        ih = len(basis)
        basis.append(h)
        prepared.append(_prepared(h))
        lmh = lm(ih)
        # candidate pairs (g, ih), grouped by their lcm
        groups: dict = {}
        for g in active:
            groups.setdefault(K.mono_lcm(lmh, lm(g)), []).append(g)
        # M criterion: drop groups whose lcm is properly divisible by another
        lcms = list(groups)
        surviving = [
            l1
            for l1 in lcms
            if not any(l2 != l1 and K.mono_divides(l2, l1) for l2 in lcms)
        ]
        # F + first Buchberger criterion: one pair per lcm, none if a
        # coprime-lead pair produces that lcm
        new_pairs = []
        for l1 in surviving:
            members = groups[l1]
            if any(_coprime(lmh, lm(g)) for g in members):
                continue
            new_pairs.append((min(members), ih))
        # prune old pairs killed by the new leading monomial
        survivors = []
        while pairs:
            key, i, j = heappop(pairs)
            lij = K.mono_lcm(lm(i), lm(j))
            if (
                K.mono_divides(lmh, lij)
                and K.mono_lcm(lm(i), lmh) != lij
                and K.mono_lcm(lmh, lm(j)) != lij
            ):
                continue
            survivors.append((key, i, j))
        for entry in survivors:
            heappush(pairs, entry)
        for i, j in new_pairs:
            lij = K.mono_lcm(lm(i), lm(j))
            heappush(pairs, (K.order_key(lij), i, j))
        # retire active members whose lead the newcomer divides
        active[:] = [g for g in active if not K.mono_divides(lmh, lm(g))]
        active.append(ih)

    for g in sorted(gens, key=lambda d: K.order_key(K.leading_term(d)[0])):
        r, _ = K.reduce_full(g, prepared)
        r = K.strip_content(r)
        if r:
            add_poly(r)

    reductions = 0
    while pairs:
        _, i, j = heappop(pairs)
        s = K.spoly(*prepared[i], *prepared[j])
        if not s:
            continue
        r, _ = K.reduce_full(s, prepared)
        r = K.strip_content(r)
        if r:
            add_poly(r)
        reductions += 1
        if reductions > max_reductions:
            raise EliminationError("Buchberger reduction budget exceeded")

    # interreduce: minimal leads, then tail reduction
    minimal = []
    for i in sorted(active, key=lambda i: (K.order_key(lm(i)), i)):
        if not any(K.mono_divides(lm(j), lm(i)) for j in minimal):
            minimal.append(i)
    triples = [prepared[i] for i in minimal]
    reduced = []
    for pos, i in enumerate(minimal):
        others = triples[:pos] + triples[pos + 1 :]
        r, _ = K.reduce_full(basis[i], others)
        reduced.append(K.strip_content(r))
    reduced.sort(key=lambda d: K.order_key(K.leading_term(d)[0]))
    return reduced


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# -- staircase --------------------------------------------------------------


def quotient_basis(gb: list, nvars: int) -> list:
    """Monomials under the staircase of a zero-dimensional grevlex basis.

    Raises PositiveDimensionalError when some variable has no pure power
    among the leading monomials (infinite staircase).
    """
    leads = [K.leading_term(g)[0] for g in gb]
    caps = []
    for i in range(nvars):
        cap = None
        for m in leads:
            if all(e == 0 for k, e in enumerate(m) if k != i):
                cap = m[i] if cap is None else min(cap, m[i])
        if cap is None:
            raise PositiveDimensionalError(f"no pure power of variable {i} in the lead ideal")
        caps.append(cap)
    out = []
    mono = [0] * nvars

    def rec(i):
        if i == nvars:
            m = tuple(mono)
            if not any(K.mono_divides(lead, m) for lead in leads):
                out.append(m)
            return
        for e in range(caps[i] + 1):
            mono[i] = e
            rec(i + 1)
        mono[i] = 0

    rec(0)
    out.sort(key=K.order_key)
    return out


# -- FGLM: rational univariate representation, lifted and checked over Q ---
#
# In the quotient algebra Q[x]/I of dimension D, the eliminant p of the last
# variable z is the minimal polynomial of z acting on 1, and the ideal is in
# shape position exactly when deg p = D.  fglm finds p, and then
# g_i = h_i p_sq' mod p_sq for the shape polynomials x_i = h_i(z), from Krylov
# sequences 1, z, z^2, ... modulo word-size primes, lifts both by Chinese
# remaindering and rational reconstruction, and checks the lift exactly on the
# integer Krylov vectors.  The h_i themselves are never formed over Q: their
# coefficients run to thousands of bits where those of p and the g_i take a
# hundred or so (Rouillier's rational univariate representation).


class LexBasis:
    """The eliminant of the last variable and, in shape position, the RUR.

    ``dimension`` is the quotient dimension D and ``eliminant`` the monic
    generator p of the ideal's intersection with Q[z], z the last variable.
    In shape position (deg p = D) ``squarefree`` is the square-free part p_sq
    of p, ``denominator`` its derivative, and ``numerators[i]`` the g_i with
    x_i = g_i(z) / p_sq'(z) at every point; otherwise they are None, None and
    {}.  ``elements`` are ideal members that the exact check proved: p(z) and,
    in shape position, (p / p_sq)(z) (p_sq'(z) x_i - g_i(z)) for every i.
    """

    def __init__(self, nvars, dimension, elements, eliminant, squarefree=None, numerators=None):
        self.nvars = nvars
        self.dimension = dimension
        self.elements = elements
        self.eliminant = eliminant
        self.squarefree = squarefree
        self.denominator = unipoly.derivative(squarefree) if squarefree else None
        self.numerators = numerators or {}

    def in_shape_position(self) -> bool:
        return self.squarefree is not None


def multiplication_matrices(gb: list, basis_monos: list, nvars: int):
    """Columns of the multiplication-by-x_i operators on the quotient."""
    prepared = [_prepared(g) for g in gb]
    index = {m: k for k, m in enumerate(basis_monos)}
    D = len(basis_monos)
    mats = []
    cache = {}
    for i in range(nvars):
        cols = []
        for b in basis_monos:
            mm = tuple(e + (1 if k == i else 0) for k, e in enumerate(b))
            if mm in index:
                col = [ZERO] * D
                col[index[mm]] = rational(1)
            elif mm in cache:
                col = cache[mm]
            else:
                r, lam = K.reduce_full({mm: 1}, prepared)
                col = [ZERO] * D
                for m, c in r.items():
                    col[index[m]] = rational(c, lam)
                cache[mm] = col
            cols.append(col)
        mats.append(cols)
    return mats


class _IntColumns:
    """A rational matrix, given by its columns, as integers over one denominator.

    The matrix is A / ``den``; ``columns[j]`` lists the (row, entry) pairs of
    the nonzero entries of column j of the integer matrix A.
    """

    def __init__(self, cols: list, rows: int):
        self.rows = rows
        self.den = lcm(*(int(c.denominator) for col in cols for c in col if c))
        self.columns = [
            [(r, int(c.numerator) * (self.den // int(c.denominator))) for r, c in enumerate(col) if c]
            for col in cols
        ]

    def apply(self, v: list) -> list:
        """A v for an integer vector v."""
        out = [0] * self.rows
        for x, col in zip(v, self.columns):
            if x:
                for r, a in col:
                    out[r] += a * x
        return out

    def modulo(self, q: int):
        """A / den modulo q as an int64 array; q must not divide den."""
        dense = [[0] * len(self.columns) for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for r, a in col:
                dense[r][j] = a % q
        dense = np.array(dense, dtype=np.int64).reshape(self.rows, len(self.columns))
        return dense * pow(self.den, -1, q) % q


class _Krylov:
    """The vectors z^t of the quotient, exactly: w_t = ``vector(t)`` as (W, d), W / d."""

    def __init__(self, mz: _IntColumns, start: int):
        unit = [0] * mz.rows
        unit[start] = 1
        self.mz = mz
        self.vectors = [(unit, 1)]

    def vector(self, t: int) -> tuple:
        while len(self.vectors) <= t:
            w, d = self.vectors[-1]
            w, d = self.mz.apply(w), d * self.mz.den
            g = int_gcd(d, *w)
            self.vectors.append(([x // g for x in w], d // g))
        return self.vectors[t]

    def combine(self, coeffs: list) -> tuple:
        """sum_t coeffs[t] z^t as (V, den) with integer V: the vector is V / den.

        The sum is kept over the lcm of the denominators met so far, which
        grows by a small factor per step, so no term is multiplied by the
        quotient of the last denominator by the first.
        """
        cden = lcm(*(int(c.denominator) for c in coeffs if c))
        out, den = [0] * self.mz.rows, 1
        for t, c in enumerate(coeffs):
            if not c:
                continue
            w, d = self.vector(t)
            grown = lcm(den, d)
            if grown != den:
                up = grown // den
                out, den = [x * up for x in out], grown
            f = int(c.numerator) * (cden // int(c.denominator)) * (den // d)
            for r, x in enumerate(w):
                if x:
                    out[r] += f * x
        return out, den * cden


def _image(mz: _IntColumns, coords: _IntColumns, start: int, q: int):
    """The Krylov data of the quotient modulo the prime q.

    Returns (p, h): the minimal polynomial p of z on 1 modulo q (ascending,
    monic) and, when its degree is D, the h_i with x_i = h_i(z) modulo q,
    else None.  Returns None when q divides a denominator.
    """
    if mz.den % q == 0 or coords.den % q == 0:
        return None
    dim = mz.rows
    a = np.zeros((dim, dim + 1 + len(coords.columns)), dtype=np.int64)
    m = mz.modulo(q)
    a[start, 0] = 1
    for t in range(dim):
        a[:, t + 1] = m @ a[:, t] % q
    a[:, dim + 1 :] = coords.modulo(q)
    # z^r is the first Krylov vector that depends on the earlier ones, and
    # every later one depends too, so the Krylov pivots are 0 .. r-1
    r = sum(1 for c in modular._rref_mod(a, q) if c <= dim)
    p = [int(-x) % q for x in a[:r, r]] + [1]
    if r < dim:
        return p, None
    return p, [[int(x) for x in a[:, j]] for j in range(dim + 1, a.shape[1])]


def _rur_numerator(h: list, dsq: list, sq: list, q: int) -> list:
    """h dsq mod the monic sq, modulo q, padded to deg sq coefficients."""
    prod = [0] * (len(h) + len(dsq) - 1)
    for i, x in enumerate(h):
        if x:
            for j, y in enumerate(dsq):
                prod[i + j] += x * y
    n = len(sq) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % q
        if c:
            for j in range(n):
                prod[k - n + j] -= c * sq[j]
    return [x % q for x in prod[:n]] + [0] * (n - len(prod))


def fglm(gb: list, nvars: int) -> LexBasis:
    """Eliminant and rational univariate representation of a grevlex basis.

    Multi-modular (see the comment above ``LexBasis``): each prime gives the
    Krylov data modulo q; primes that divide a denominator or give a lower
    Krylov rank are dropped.  Since rank modulo q <= rank over Q, a lifted
    monic p of that degree with p(M_z) 1 = 0 is the eliminant.  In shape
    position the lifted g_i are then accepted only when
    (p/p_sq)(z) (x_i p_sq'(z) - g_i(z)) 1 = 0, which makes x_i = g_i/p_sq' at
    every root.  A lift that fails its check waits for more primes; past
    ``modular._PRIME_BUDGET`` primes EliminationError is raised, so every
    returned basis has been checked exactly.
    """
    basis_monos = quotient_basis(gb, nvars)
    dim = len(basis_monos)
    one = rational(1)
    if dim == 0:
        return LexBasis(nvars, 0, [Polynomial.constant(nvars, one)], [one])
    mats = multiplication_matrices(gb, basis_monos, nvars)
    start = basis_monos.index((0,) * nvars)
    last = nvars - 1
    mz = _IntColumns(mats[last], dim)
    coords = _IntColumns([mats[i][start] for i in range(last)], dim)
    krylov = _Krylov(mz, start)
    primes = islice(modular._primes(modular._prime_bits(dim)), modular._PRIME_BUDGET)

    # the eliminant, lifted over the primes of the highest Krylov rank seen
    images, lift, rank = [], modular._Lift(), 0
    for q in primes:
        image = _image(mz, coords, start, q)
        if image is None or len(image[0]) - 1 < rank:
            continue
        if len(image[0]) - 1 > rank:
            images, lift, rank = [], modular._Lift(), len(image[0]) - 1
        images.append((q, image[1]))
        p = lift.add(q, image[0])
        if p is not None and not any(krylov.combine(p)[0]):
            break
    else:
        raise EliminationError("no checked eliminant within the prime budget")
    elements = [unipoly.to_multipoly(p, nvars, last)]
    if rank < dim:
        return LexBasis(nvars, dim, elements, p)

    # shape position: the numerators g_i = h_i p_sq' mod p_sq
    sq = unipoly.squarefree_part(p)
    dsq = unipoly.derivative(sq)
    cofactor = unipoly.exact_div(p, sq)
    scale = unipoly.mul(cofactor, dsq)
    fresh = (
        (q, image[1])
        for q in primes
        for image in [_image(mz, coords, start, q)]
        if image is not None and image[1] is not None
    )
    lift = modular._Lift()
    n = len(sq) - 1
    for q, shape in chain(images, fresh):
        # p is integral at every prime of full rank, and so is its monic factor p_sq
        sq_q, dsq_q = unipoly.modulo(sq, q), unipoly.modulo(dsq, q)
        flat = lift.add(q, [c for h in shape for c in _rur_numerator(h, dsq_q, sq_q, q)])
        if flat is None:
            continue
        numerators = {i: unipoly.trim(flat[i * n : (i + 1) * n]) for i in range(last)}
        if _rur_holds(krylov, mats, scale, cofactor, numerators):
            break
    else:
        raise EliminationError("no checked univariate representation within the prime budget")
    z_scale = unipoly.to_multipoly(scale, nvars, last)
    for i, g in numerators.items():
        elements.append(
            z_scale * Polynomial.variable(i, nvars)
            - unipoly.to_multipoly(unipoly.mul(cofactor, g), nvars, last)
        )
    return LexBasis(nvars, dim, elements, p, sq, numerators)


def _rur_holds(krylov: _Krylov, mats: list, scale: list, cofactor: list, numerators: dict) -> bool:
    """x_i scale(z) 1 = (cofactor g_i)(z) 1 in the quotient, exactly, for every i."""
    v, den = krylov.combine(scale)
    for i, g in numerators.items():
        mx = _IntColumns(mats[i], len(v))
        lhs = mx.apply(v)  # mx.den * den * x_i scale(z) 1
        rhs, rden = krylov.combine(unipoly.mul(cofactor, g))
        if any(a * rden != b * mx.den * den for a, b in zip(lhs, rhs)):
            return False
    return True
