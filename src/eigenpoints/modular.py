"""Multi-modular exact linear algebra over Q.

Both exact engines of the package work the same way: the problem is solved
modulo word-size primes with numpy, the images are lifted to Q by Chinese
remaindering and rational reconstruction (Monagan, ISSAC 2004), and a lift
is accepted only once it passes an exact check over Q.  ``groebner.fglm``
lifts Krylov data this way; ``kernel`` lifts reduced-echelon kernel bases.
``pivot_columns`` lifts nothing: the pivot columns of an image are
independent over Q, so their number is a proved lower bound on the rank.

Every image is row-reduced by ``_rref_mod``, the one modular elimination of
the package, in int64 and reduced modulo q lazily.  A lift attempt
reconstructs each value over the common denominator of the values before it
(``_reconstruct``), so only a value with a new denominator costs a
half-gcd, and its answers are those of ``_rational`` value by value.
"""

from __future__ import annotations

from itertools import islice
from math import gcd as int_gcd
from math import isqrt, lcm

import numpy as np

from .rationals import rational


# Primes below 2**bits, with bits chosen so that D q**2 < 2**62: the modular
# products and eliminations of an image never leave int64.
def _prime_bits(dim: int) -> int:
    return (62 - dim.bit_length()) // 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 7, 61: deterministic below 4,759,123,141."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(bits: int):
    """The primes below 2**bits, largest first: the fixed list the lifts work modulo."""
    n = (1 << bits) - 1
    while n > 2:
        if _is_prime(n):
            yield n
        n -= 2


# Primes a lift may try before it gives up.  The primes have 27 to 29 bits
# in fglm up to D = 255, and the lifts are tried at moduli growing by 9/8, so
# every value whose numerator and denominator both stay below about 6,000
# bits is lifted within the budget; an input needing more raises.  The
# largest counts met in fglm: 85 primes (coefficients of 2,324 bits,
# numerator and denominator together) when enlarging the reconstruction
# point sets, 12 on (3,4) charts, 35 on a (3,6) chart.  A chart whose last
# variable does not separate its points takes two primes and lifts nothing.
_PRIME_BUDGET = 512


def _rref_mod(a, q: int) -> list:
    """Row-reduce the int64 array a modulo the prime q in place; the pivot columns.

    Reduced lazily: a column is reduced when it is read for a pivot, and the
    pivot row when it is scaled, but the rest of the matrix only when the
    pending subtractions could next leave int64.  Entries start below q and
    a subtraction adds less than q**2 to one, so 2**62 // q**2 of them stay
    inside int64; for the 31-bit primes of ``kernel`` that is one, and the
    matrix is reduced after every pivot.  On return every entry is in [0, q).
    """
    budget = 2**62 // q**2 - 1
    pending = 0
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = (a[r:, c] % q).nonzero()[0]
        if not nz.size:
            continue
        k = r + nz[0]
        # the pivot row is zero left of c modulo q, and exactly zero once reduced
        row = a[k] % q
        if k != r:
            a[k] = a[r]
        row = row * pow(int(row[c]), -1, q) % q
        a[r] = row
        f = a[:, c] % q
        f[r] = 0
        a[:, c:] -= f[:, None] * row[c:]
        pending += 1
        if pending > budget:
            a %= q
            pending = 0
        pivots.append(c)
    a %= q
    return pivots


def _rational(a: int, m: int):
    """n/d with n = a d modulo m and |n|, d <= sqrt(m/2), or None."""
    bound = isqrt(m >> 1)
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if s1 == 0 or abs(s1) > bound or int_gcd(r1, s1) != 1:
        return None
    return rational(r1, s1)


class _Lift:
    """Chinese remaindering and rational reconstruction of a list of rationals.

    ``add`` folds in the residues modulo one more prime and returns the
    reconstruction made before them once it predicts them, else None.
    """

    def __init__(self):
        self.modulus = 1
        self.residues = None
        self.guess = None
        self.attempt_bits = 0

    def add(self, q: int, values: list):
        guess, self.guess = self.guess, None
        if self.residues is None:
            self.residues, self.modulus = list(values), q
        else:
            m, inv = self.modulus, pow(self.modulus, -1, q)
            self.residues = [x + m * ((v - x) * inv % q) for x, v in zip(self.residues, values)]
            self.modulus = m * q
        if guess is not None and all(
            (int(g.numerator) - v * int(g.denominator)) % q == 0 for g, v in zip(guess, values)
        ):
            return guess
        # reconstruct only at moduli 9/8 as long as the last try, so that the
        # tries that fail cost a bounded multiple of the one that succeeds
        bits = self.modulus.bit_length()
        if bits >= self.attempt_bits:
            self.attempt_bits = bits * 9 // 8
            self.guess = _reconstruct(self.residues, self.modulus)
        return None


def _reconstruct(residues: list, m: int):
    """``_rational`` of every residue modulo m, or None when one has none.

    Each value is first tried over the common denominator L of the values
    before it: y = L x mod m in the symmetric range, and y / L in lowest
    terms when its numerator and denominator are within ``_rational``'s
    bound.  Then y / L = x modulo m (L is a product of denominators that
    ``_rational`` gave, all prime to m), and two such fractions within the
    bound are equal, so it is ``_rational``'s answer.  Only a value whose
    denominator is new costs a half-gcd, and an attempt that fails stops
    at the first value without a reconstruction.
    """
    bound, half = isqrt(m >> 1), m >> 1
    den, out = 1, []
    for x in residues:
        y = den * x % m
        if y > half:
            y -= m
        g = int_gcd(y, den)
        if abs(y) // g <= bound and den // g <= bound:
            out.append(rational(y // g, den // g))
            continue
        value = _rational(x, m)
        if value is None:
            return None
        out.append(value)
        den = lcm(den, value.denominator)
    return out


def _images(int_rows: list, cols: int, bits: int):
    """(q, the image of the integer rows of A modulo q) for the primes below 2**bits.

    At most ``_PRIME_BUDGET`` primes.  The rows become one int64 array, or
    an object array when an entry passes 2**63, and each image is cast to
    int64 after its reduction.
    """
    try:
        entries = np.array(int_rows, dtype=np.int64).reshape(len(int_rows), cols)
    except OverflowError:
        entries = np.array(int_rows, dtype=object).reshape(len(int_rows), cols)
    for q in islice(_primes(bits), _PRIME_BUDGET):
        yield q, (entries % q).astype(np.int64, copy=False)


def pivot_columns(int_rows: list, cols: int):
    """The pivot columns of A's images modulo the primes below 2**_prime_bits(cols).

    The pivot columns of an image are independent modulo q, so over Q: a
    minor that vanishes over Q vanishes modulo q.  Their number is a proved
    lower bound on the rank over Q, and when it is the rank they are a
    basis of the column space.
    """
    return (_rref_mod(a, q) for q, a in _images(int_rows, cols, _prime_bits(cols)))


def kernel(int_rows: list, cols: int) -> list:
    """The reduced-echelon basis of {v : A v = 0} for the integer rows of A.

    One vector per free column f, scaled to coprime integers with its first
    nonzero entry positive; before scaling it has a 1 at f, zeros at the
    other free columns, and nonzeros only at pivot columns left of f.

    Each prime q gives the reduced echelon form of A modulo q.  Only the
    primes with the most pivots, and among those the earliest pivot list,
    are kept: a prime that divides a pivot minor loses a pivot or moves one
    right.  The free-column entries of their echelon forms are lifted, and
    the lift is accepted only when every vector satisfies A v = 0 exactly.
    The vectors have their last nonzero entries at distinct columns, so they
    are independent, and their count cols - rank(A mod q) is at least
    dim ker A: an accepted basis spans the kernel.  The columns where kernel
    vectors can end are the free columns of A over Q, so it is the
    reduced-echelon basis.  Past ``_PRIME_BUDGET`` primes ArithmeticError is
    raised, so every returned basis has been checked exactly.
    """
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in int_rows]
    best, lift = None, None
    # the elimination alone needs only q**2 < 2**62
    for q, a in _images(int_rows, cols, 31):
        pivots = _rref_mod(a, q)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if key != best:
            best, lift = key, _Lift()
        free = sorted(set(range(cols)) - set(pivots))
        values = [int(a[r, f]) for r in range(len(pivots)) for f in free]
        # with no entries to lift, the basis is the unit vectors of the free columns
        lifted = lift.add(q, values) if values else []
        if lifted is None:
            continue
        basis = []
        for k, f in enumerate(free):
            v = [0] * cols
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -lifted[r * len(free) + k]
            basis.append(_primitive(v))
        if all(sum(x * v[j] for j, x in row) == 0 for row in sparse for v in basis):
            return basis
    raise ArithmeticError("no checked kernel within the prime budget")


def _primitive(v: list) -> list:
    """v, which has an entry 1, as coprime integers with the first nonzero positive.

    Scaling by the lcm of the denominators is enough: for each prime power
    of the lcm, the entry with that denominator stays prime to it.
    """
    den = lcm(*(int(x.denominator) for x in v if x))
    if next(x for x in v if x) < 0:
        den = -den
    return [int(x.numerator) * (den // int(x.denominator)) if x else 0 for x in v]
