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

Buchberger, the staircase and the multiplication matrices run on packed
monomials (``_kernel_py``): in k variables x^e is the one integer
deg(e) 2^(16k) - sum_j e_j 2^(16j), so a product of monomials is one
addition, a grevlex comparison one integer comparison and a divisibility
test one subtraction against a guard bit per field.  Generators are packed
once on entry, and a basis is a list of dicts keyed by these integers; only
the staircase is decoded to exponent tuples.  The encoding holds while no
degree reaches ``_kernel_py.DEGREE_BOUND`` = 2^15: a generator, an S-pair
or a staircase that would reach it raises EliminationError.  The matrices
come out in integers, one denominator per column, as the reductions give
them, and FGLM reads them without a rational per entry.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop
from itertools import chain, islice, product
from math import gcd as int_gcd
from math import lcm

import numpy as np

from . import _kernel_py as K
from . import modular, unipoly
from .multipoly import Polynomial
from .rationals import rational

# the S-pair reductions after which ``buchberger`` gives up
MAX_REDUCTIONS = 200_000


class EliminationError(RuntimeError):
    pass


class PositiveDimensionalError(EliminationError):
    """The ideal is not zero-dimensional: the staircase is infinite."""


# -- conversions ------------------------------------------------------------


def poly_to_intdict(p, packing: K.Packing) -> dict:
    """Clear denominators, strip content and pack; scaling is irrelevant to ideals.

    ``p`` is a Polynomial or a dict of exponent tuples to integers.  Raises
    EliminationError on a term of degree ``K.DEGREE_BOUND`` or more.
    """
    terms = p.terms if isinstance(p, Polynomial) else p
    den = lcm(*(c.denominator for c in terms.values()))
    out = {}
    for m, c in terms.items():
        if sum(m) >= K.DEGREE_BOUND:
            raise EliminationError(f"a generator has degree {sum(m)} >= {K.DEGREE_BOUND}")
        out[packing.pack(m)] = c.numerator * (den // c.denominator)
    return K.strip_content(out)


def intdict_to_poly(d: dict, nvars: int) -> Polynomial:
    packing = K.Packing(nvars)
    return Polynomial(nvars, {packing.unpack(m): rational(c) for m, c in d.items()})


def _prepared(g: dict):
    lm = max(g)
    return (lm, g[lm], g)


# -- Buchberger -------------------------------------------------------------


def buchberger(polys, nvars: int):
    """Reduced grevlex basis of the ideal generated by ``polys``.

    Returns a list of content-free integer term dicts with positive leading
    coefficients, tail-reduced and sorted by leading monomial.  Their keys
    are the packed monomials of ``K.Packing(nvars)`` (see ``_kernel_py``);
    ``intdict_to_poly`` decodes one.  Raises EliminationError when a
    generator, or the lcm of a pair to be reduced, reaches degree
    ``K.DEGREE_BOUND``.
    """
    packing = K.Packing(nvars)
    guard, plcm, divides = packing.guard, packing.lcm, packing.divides
    gens = [d for d in (poly_to_intdict(p, packing) for p in polys) if d]
    if not gens:
        raise EliminationError("all generators are zero")

    basis: list[dict] = []       # every accepted polynomial, used for reduction
    prepared: list[tuple] = []   # (lm, lc, terms) triples aligned with basis
    active: list[int] = []       # indices that still generate pairs
    pairs: list = []             # min-heap of (lcm, i, j): the lcm is its own order key

    def add_poly(h: dict):
        """Gebauer-Moeller update of the pair set with the new polynomial."""
        ih = len(basis)
        basis.append(h)
        prepared.append(_prepared(h))
        lmh = prepared[ih][0]
        # candidate pairs (g, ih), grouped by their lcm
        groups: dict = {}
        for g in active:
            groups.setdefault(plcm(lmh, prepared[g][0]), []).append(g)
        # M criterion: drop groups whose lcm is properly divisible by another
        lcms = list(groups)
        surviving = [
            l1 for l1 in lcms if not any(l2 != l1 and divides(l2, l1) for l2 in lcms)
        ]
        # F + first Buchberger criterion: one pair per lcm, none if a
        # coprime-lead pair produces that lcm (coprime leads: lcm = product)
        new_pairs = []
        for l1 in surviving:
            members = groups[l1]
            if any(l1 == lmh + prepared[g][0] for g in members):
                continue
            new_pairs.append((l1, min(members), ih))
        # prune old pairs killed by the new leading monomial
        survivors = [
            (lij, i, j)
            for lij, i, j in pairs
            if not (
                divides(lmh, lij)
                and plcm(prepared[i][0], lmh) != lij
                and plcm(lmh, prepared[j][0]) != lij
            )
        ]
        survivors.extend(new_pairs)
        heapify(survivors)
        pairs[:] = survivors
        # retire active members whose lead the newcomer divides
        active[:] = [g for g in active if not divides(lmh, prepared[g][0])]
        active.append(ih)

    for g in sorted(gens, key=max):
        r, _ = K.reduce_full(g, prepared, guard)
        r = K.strip_content(r)
        if r:
            add_poly(r)

    reductions = 0
    while pairs:
        lij, i, j = heappop(pairs)
        if lij > packing.limit:
            raise EliminationError(f"an S-pair reaches degree {K.DEGREE_BOUND}")
        s = K.spoly(prepared[i], prepared[j], lij)
        if not s:
            continue
        r, _ = K.reduce_full(s, prepared, guard)
        r = K.strip_content(r)
        if r:
            add_poly(r)
        reductions += 1
        if reductions > MAX_REDUCTIONS:
            raise EliminationError("Buchberger reduction budget exceeded")

    # interreduce: minimal leads, then tail reduction
    minimal = []
    for i in sorted(active, key=lambda i: (prepared[i][0], i)):
        if not any(divides(prepared[j][0], prepared[i][0]) for j in minimal):
            minimal.append(i)
    triples = [prepared[i] for i in minimal]
    reduced = []
    for pos, i in enumerate(minimal):
        others = triples[:pos] + triples[pos + 1 :]
        r, _ = K.reduce_full(basis[i], others, guard)
        reduced.append(K.strip_content(r))
    reduced.sort(key=max)
    return reduced


# -- staircase --------------------------------------------------------------


def quotient_basis(gb: list, nvars: int) -> list:
    """Exponent tuples under the staircase of a zero-dimensional grevlex basis.

    Raises PositiveDimensionalError when some variable has no pure power
    among the leading monomials (infinite staircase).
    """
    packing = K.Packing(nvars)
    leads = [max(g) for g in gb]
    monos = [packing.unpack(lead) for lead in leads]
    caps = []
    for i in range(nvars):
        pure = [m[i] for m in monos if sum(m) == m[i]]
        if not pure:
            raise PositiveDimensionalError(f"no pure power of variable {i} in the lead ideal")
        caps.append(min(pure))
    out = []
    for m in product(*(range(cap + 1) for cap in caps)):
        key = packing.pack(m)
        if not any(packing.divides(lead, key) for lead in leads):
            out.append((key, m))
    out.sort()
    return [m for _, m in out]


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
    {}.  ``elements``, built on first read, are ideal members that the exact
    check proved: p(z) and, in shape position,
    (p / p_sq)(z) (p_sq'(z) x_i - g_i(z)) for every i.
    """

    def __init__(self, nvars, dimension, eliminant, squarefree=None, numerators=None):
        self.nvars = nvars
        self.dimension = dimension
        self.eliminant = eliminant
        self.squarefree = squarefree
        self.denominator = unipoly.derivative(squarefree) if squarefree else None
        self.numerators = numerators or {}

    def in_shape_position(self) -> bool:
        return self.squarefree is not None

    @cached_property
    def elements(self) -> list:
        nvars, last = self.nvars, self.nvars - 1
        out = [unipoly.to_multipoly(self.eliminant, nvars, last)]
        if not self.in_shape_position():
            return out
        cofactor = unipoly.exact_div(self.eliminant, self.squarefree)
        z_scale = unipoly.to_multipoly(unipoly.mul(cofactor, self.denominator), nvars, last)
        for i, g in self.numerators.items():
            out.append(
                z_scale * Polynomial.variable(i, nvars)
                - unipoly.to_multipoly(unipoly.mul(cofactor, g), nvars, last)
            )
        return out


def multiplication_matrices(gb: list, basis_monos: list, nvars: int):
    """Columns of the multiplication-by-x_i operators on the quotient.

    ``mats[i][k]`` is the column of x_i times ``basis_monos[k]``, as
    (den, entries): the column is the integer vector with (row, entry)
    pairs ``entries``, divided by den.  A reduction gives multiplier λ and
    remainder r with λ x^m = r modulo the ideal, so den is λ over its gcd
    with the content of r, the lcm of the column's reduced denominators.
    """
    packing = K.Packing(nvars)
    keys = [packing.pack(b) for b in basis_monos]
    if keys and packing.degree(max(keys)) + 1 >= K.DEGREE_BOUND:
        raise EliminationError(f"the staircase reaches degree {K.DEGREE_BOUND}")
    prepared = [_prepared(g) for g in gb]
    index = {key: row for row, key in enumerate(keys)}
    mats = []
    cache = {}
    for i in range(nvars):
        xi = packing.pack(tuple(int(k == i) for k in range(nvars)))
        cols = []
        for key in keys:
            mm = key + xi
            if mm in index:
                col = (1, [(index[mm], 1)])
            elif mm in cache:
                col = cache[mm]
            else:
                r, lam = K.reduce_full({mm: 1}, prepared, packing.guard)
                g = int_gcd(lam, *r.values())
                col = (lam // g, [(index[m], c // g) for m, c in r.items()])
                cache[mm] = col
            cols.append(col)
        mats.append(cols)
    return mats


class _IntColumns:
    """A rational matrix, given by its columns, as integers over one denominator.

    The matrix is A / ``den``; ``columns[j]`` lists the (row, entry) pairs of
    the nonzero entries of column j of the integer matrix A.  It is built
    from columns as ``multiplication_matrices`` gives them.
    """

    def __init__(self, cols: list, rows: int):
        self.rows = rows
        self.den = lcm(*(d for d, _ in cols))
        self.columns = [
            entries if d == self.den else [(r, a * (self.den // d)) for r, a in entries]
            for d, entries in cols
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
    if dim == 0:
        return LexBasis(nvars, 0, [rational(1)])
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
    if rank < dim:
        return LexBasis(nvars, dim, p)

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
    return LexBasis(nvars, dim, p, sq, numerators)


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
