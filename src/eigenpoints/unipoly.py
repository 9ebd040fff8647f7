"""Dense univariate polynomials over the exact rationals.

Coefficient lists are ascending in degree with no trailing zeros; the zero
polynomial is the empty list.  These are the workhorses behind eliminants:
exact gcd, square-free decomposition, the Hilbert-numerator division, and
the fixed-point evaluation and Newton refinement at floating roots.
"""

from __future__ import annotations

import math
from math import gcd as int_gcd

from .rationals import ZERO, rational


def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def deg(c: list) -> int:
    return len(c) - 1


def add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [ZERO] * n
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return trim(out)


def neg(a: list) -> list:
    return [-x for x in a]


def sub(a: list, b: list) -> list:
    return add(a, neg(b))


def scale(a: list, c) -> list:
    if c == 0:
        return []
    return [x * c for x in a]


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def divmod_exact(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over the rationals; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(r) >= len(b) and trim(r):
        k = len(r) - len(b)
        c = r[-1] / lb
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = r[k + i] - c * y
        r.pop()
        trim(r)
    return trim(q), trim(r)


def exact_div(a: list, b: list) -> list:
    q, r = divmod_exact(a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def evaluate(c: list, x):
    """Horner evaluation; works for rational, float or complex x.

    At rational x = a/b the value is sum_k c_k a^k b^(n-k) / b^n, n = deg c:
    Horner runs on the integers L c_k, L the coefficients' common
    denominator, and the exact rational is formed once at the end.
    """
    if isinstance(x, (float, complex)):
        total = 0.0
        for coef in reversed(c):
            total = total * x + coef
        return total
    if not c:
        return ZERO
    a, b = x.numerator, x.denominator
    den = math.lcm(*(coef.denominator for coef in c))
    total, power = 0, 1
    for coef in reversed(c):
        total = total * a + coef.numerator * (den // coef.denominator) * power
        power *= b
    return rational(total, den * b ** (len(c) - 1))


def derivative(c: list) -> list:
    return trim([c[i] * i for i in range(1, len(c))])


# -- fixed-point evaluation at complex points --------------------------------
#
# Exact coefficients can be astronomically larger than the value they produce,
# so double-precision Horner would lose every digit.  Instead a complex number
# is held as a Gaussian integer (re, im) over an implicit denominator 2**s and
# Horner runs on Python ints.  In fixed point each Horner step adds an absolute
# error of a few units in the last place, whatever the size of the
# coefficients, but the error made at step k is multiplied by z**k on the way
# out.  So p(z) and p'(z) come back within 2**_horner_loss(n, mag) units of
# 2**-s for n coefficients and |z| <= 2**mag, and s has to cover that loss
# plus the bits that are wanted.
#
# A polynomial evaluated at many points is prepared once, as a ``FixedPoly``:
# the bit bound of each coefficient, the largest of them (``top``), and the
# coefficients times 2**E, rounded, at the finest scale E asked for so far.
# Any scale e <= E is a rounding shift of those integers, which lands within
# 1/2 + 2**(e-E)/2 <= 1 unit of the exact value; only a scale beyond E costs
# a division per coefficient, and E then becomes twice the scale asked for
# (or 64 bits above it), so the roots of a chart convert each polynomial a
# few times at most.
#
# ``refined_values`` opens with a probe: one Horner evaluation of the
# eliminant at the start point, _PROBE_BITS bits beyond its Horner loss, as
# ``newton_correction`` makes (that function has no caller in the package
# and is kept only for the benchmark's span list).  The probe's Newton step
# moves the start point, and its |p'| sets the working precision of the one
# full Newton pass: that pass needs |p'| above its rounding noise by the
# bits wanted, so each bit by which |p'| falls short costs one more bit of
# scale.  The pass then reads |p'| again at the root it holds and raises the
# precision once when the probe read it too large.


def _log2_bound(x) -> int:
    """An integer b with 2**(b-2) <= |x| < 2**b, for a nonzero exact rational."""
    return abs(int(x.numerator)).bit_length() - int(x.denominator).bit_length() + 1


def _magnitude_bits(z: complex) -> int:
    """An integer m >= 0 with max(1, |z|) <= 2**m."""
    return max(0, math.frexp(abs(z))[1])


def _horner_loss(n: int, mag: int) -> int:
    """Bits of 2**-s lost by ``_horner`` on n coefficients at |z| <= 2**mag.

    A step rounds its coefficient (at most 1 unit, with the rounding shift
    of ``FixedPoly.fixed``) and floors the real and imaginary parts of its
    product (under 1 unit each): under 1 + 2**0.5 < 3 units.  Amplified by
    |z|**k, the value collects under 3 n 2**((n-1) mag) units; the
    derivative also collects the value's errors, under (3 n + 2) n
    2**((n-1) mag) <= 5 n**2 2**((n-1) mag) units.  Both stay below
    2**((n-1) mag + 2 bit_length(n) + 3), since 2**bit_length(n) > n.
    """
    return (n - 1) * mag + 2 * n.bit_length() + 3


def _bits(g: tuple) -> int:
    """b with 2**(b-1) <= max(|re|, |im|) < 2**b for a Gaussian integer (0 for 0)."""
    return max(abs(g[0]), abs(g[1])).bit_length()


def _round_scaled(num: int, den: int, e: int) -> int:
    """round(num / den * 2**e) for den > 0, in integers."""
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    return (2 * num + den) // (2 * den)


def _to_fixed(c: list, e: int) -> list:
    """Each coefficient times 2**e, rounded to an integer.

    Reads .numerator and .denominator, so Fraction and int both work.
    """
    return [_round_scaled(int(v.numerator), int(v.denominator), e) for v in c]


class FixedPoly:
    """A polynomial's exact coefficients, prepared for fixed-point Horner.

    Made once and evaluated at many points (see the comment block above):
    ``top`` bounds the largest coefficient, 2**(top-2) <= max|c_k| < 2**top,
    and ``fixed(e)`` gives the coefficients at scale 2**e with no division
    unless e is finer than every scale asked for before.
    """

    __slots__ = ("coeffs", "top", "_nonzero", "_scale", "_ints")

    def __init__(self, c: list):
        self.coeffs = c
        self._nonzero = [(k, _log2_bound(v)) for k, v in enumerate(c) if v]
        self.top = max((b for _, b in self._nonzero), default=None)
        self._scale = None
        self._ints = None

    def term_bits(self, mag: int) -> int:
        """Upper bound on log2 of sum |c_k| 2**(mag k), the Horner term size."""
        return max(b + k * mag for k, b in self._nonzero) + len(self.coeffs).bit_length()

    def fixed(self, e: int) -> list:
        """Each coefficient times 2**e, within 1 unit."""
        if self._scale is None or e > self._scale:
            self._scale = e + max(e, 64)
            self._ints = _to_fixed(self.coeffs, self._scale)
        k = self._scale - e
        half = (1 << k) >> 1
        return [(v + half) >> k for v in self._ints]


def _prepared(c) -> FixedPoly:
    return c if isinstance(c, FixedPoly) else FixedPoly(c)


def _fixed_point(z: complex, s: int) -> tuple:
    return (
        _round_scaled(*z.real.as_integer_ratio(), s),
        _round_scaled(*z.imag.as_integer_ratio(), s),
    )


def _shifted(v: int, k: int) -> int:
    """v * 2**k, floored when k < 0."""
    return v << k if k >= 0 else v >> -k


def _horner(coeffs: list, zr: int, zi: int, s: int) -> tuple:
    """p(z) and p'(z) in fixed point at scale 2**s, as Gaussian integers."""
    pr = pi = dr = di = 0
    for c in reversed(coeffs):
        dr, di = ((dr * zr - di * zi) >> s) + pr, ((dr * zi + di * zr) >> s) + pi
        pr, pi = ((pr * zr - pi * zi) >> s) + c, (pr * zi + pi * zr) >> s
    return (pr, pi), (dr, di)


def _horner_value(coeffs: list, zr: int, zi: int, s: int) -> tuple:
    """p(z) alone, bit for bit as ``_horner`` gives it: its value never reads p'."""
    pr = pi = 0
    for c in reversed(coeffs):
        pr, pi = ((pr * zr - pi * zi) >> s) + c, (pr * zi + pi * zr) >> s
    return pr, pi


def _ratio(num: int, den: int) -> float:
    """num / den as a float (den > 0), saturating to +-inf instead of raising."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _gaussian_quotient(a: tuple, b: tuple) -> complex:
    """(a0 + i a1) / (b0 + i b1) for Gaussian integers, rounded once to complex."""
    den = b[0] * b[0] + b[1] * b[1]
    if den == 0:
        raise ZeroDivisionError("division by a zero complex value")
    return complex(
        _ratio(a[0] * b[0] + a[1] * b[1], den), _ratio(a[1] * b[0] - a[0] * b[1], den)
    )


class FixedComplex:
    """A complex value (re + i im) / 2**scale, held exactly in integers.

    Values stay at full precision until they are combined: ``complex(v)``
    rounds once, and ``u / v`` is the correctly rounded complex quotient even
    when u and v on their own are far outside the double range.
    """

    __slots__ = ("re", "im", "scale")

    def __init__(self, re: int, im: int, scale: int):
        self.re, self.im, self.scale = re, im, scale

    def __complex__(self) -> complex:
        one = 1 << self.scale
        return complex(_ratio(self.re, one), _ratio(self.im, one))

    def __neg__(self) -> "FixedComplex":
        return FixedComplex(-self.re, -self.im, self.scale)

    def __mul__(self, other) -> "FixedComplex":
        """The exact product with an int or with another ``FixedComplex``."""
        if isinstance(other, int):
            return FixedComplex(self.re * other, self.im * other, self.scale)
        return FixedComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.scale + other.scale,
        )

    def __sub__(self, other: "FixedComplex") -> "FixedComplex":
        """The exact difference, at the finer of the two scales."""
        scale = max(self.scale, other.scale)
        (ar, ai), (br, bi) = self._gaussian(scale), other._gaussian(scale)
        return FixedComplex(ar - br, ai - bi, scale)

    def _gaussian(self, scale: int) -> tuple:
        shift = scale - self.scale
        return self.re << shift, self.im << shift

    def exponent(self) -> int:
        """e with 2**(e-1) <= max(|re|, |im|) < 2**e for the value (e = -scale at 0)."""
        return _bits((self.re, self.im)) - self.scale

    def __truediv__(self, other: "FixedComplex") -> complex:
        scale = max(self.scale, other.scale)
        return _gaussian_quotient(self._gaussian(scale), other._gaussian(scale))

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and other == 0:
            return self.re == 0 and self.im == 0
        return NotImplemented

    def __repr__(self) -> str:
        return f"FixedComplex({complex(self)!r})"


# Newton steps ``_newton`` takes before it gives up
NEWTON_STEPS = 80


def _newton_step(p: tuple, dp: tuple, s: int) -> tuple:
    """p / dp in fixed point at scale 2**s, for a nonzero dp."""
    den = dp[0] * dp[0] + dp[1] * dp[1]
    return (
        ((p[0] * dp[0] + p[1] * dp[1]) << s) // den,
        ((p[1] * dp[0] - p[0] * dp[1]) << s) // den,
    )


def _newton(elim: list, zr: int, zi: int, s: int, loss: int) -> tuple:
    """Fixed-point Newton on ``elim`` (integers at scale 2**s) from zr + i zi.

    Stops once the step is within 2**24 units of the last place or the
    residual is down to the rounding noise 2**loss; a step from a residual
    that is only noise is not taken, since over a small |p'(z)| it can throw
    z far from a root it already holds.  Returns (zr, zi, p'(z)), and raises
    ArithmeticError when neither rule holds within NEWTON_STEPS steps.
    """
    for _ in range(NEWTON_STEPS):
        p, dp = _horner(elim, zr, zi, s)
        if dp == (0, 0) or _bits(p) <= loss:
            return zr, zi, dp
        sr, si = _newton_step(p, dp, s)
        zr, zi = zr - sr, zi - si
        if max(abs(sr), abs(si)) <= (1 << 24) * (1 + (max(abs(zr), abs(zi)) >> s)):
            return zr, zi, dp
    raise ArithmeticError(f"Newton did not converge in {NEWTON_STEPS} steps")


# the bits ``refined_values`` carries beyond the values when not told otherwise
REFINE_BITS = 160
# the bits beyond its Horner loss at which ``refined_values`` probes a start point
_PROBE_BITS = 128


def refined_values(eliminant, polys: list, z0: complex, extra_bits: int = REFINE_BITS):
    """Newton-refine a floating root of ``eliminant`` and evaluate there.

    ``eliminant`` and each of ``polys`` is a coefficient list or its
    ``FixedPoly``; the roots of one eliminant share one ``FixedPoly`` each.
    Both steps run in fixed point on Python ints (see ``_horner``), so
    evaluating companion polynomials with enormous coefficients at the
    refined root stays meaningful.  Each value is within about
    2**-extra_bits of the value at the exact root: the root is refined until
    its error, the eliminant's rounding noise over |eliminant'|, is below
    2**-extra_bits over the bound on |poly'|.  The working precision comes
    from |eliminant'| at the start point, read by the probe, and is raised
    once if the pass shows |eliminant'| at the root too small for it.
    Returns (root, values) as ``FixedComplex``; values stay at full
    precision until the caller combines them.  Raises ArithmeticError when
    Newton does not converge.
    """
    elim = _prepared(eliminant)
    polys = [_prepared(p) for p in polys]
    z0 = complex(z0)
    mag = _magnitude_bits(z0)
    loss = _horner_loss(len(elim.coeffs), mag)
    live = [p for p in polys if p.coeffs]
    # |poly'(z)| <= 2**slope, and Horner on poly loses at most 2**noise units
    slope = max([p.term_bits(mag) + len(p.coeffs).bit_length() for p in live] + [0])
    noise = max([_horner_loss(len(p.coeffs), mag) for p in live] + [0])
    want = extra_bits + slope + loss + 1
    # the probe, on the eliminant scaled to max|coeff| < 1; its step is taken
    # only from a residual and a derivative above the noise
    s0 = loss + _PROBE_BITS
    p, dp = _horner(elim.fixed(s0 - elim.top), *_fixed_point(z0, s0), s0)
    seen = max(_bits(dp), loss + 2)
    # the pass needs _bits(dp) >= want, and dp gains one bit per bit of scale
    s = max(want + 1 + s0 - seen, extra_bits + noise)
    zr, zi = _fixed_point(z0, s)
    if seen > loss + 2 and _bits(p) > loss:
        sr, si = _newton_step(p, dp, s0)
        zr, zi = zr - _shifted(sr, s - s0), zi - _shifted(si, s - s0)
    raised = False
    while True:
        zr, zi, dp = _newton(elim.fixed(s - elim.top), zr, zi, s, loss)
        # root error <= 2**loss / |dp| <= 2**(loss + 1 - _bits(dp)); want 2**-(extra_bits + slope)
        short = want - _bits(dp)
        if short <= 0 or dp == (0, 0) or raised:
            break
        zr, zi, s, raised = zr << short, zi << short, s + short, True
    values = []
    for poly in polys:
        vr, vi = _horner_value(poly.fixed(s), zr, zi, s)
        values.append(FixedComplex(vr, vi, s))
    return FixedComplex(zr, zi, s), values


def newton_correction(c, x: complex):
    """One exact-coefficient Newton datum at a complex point.

    ``c`` is a coefficient list or its ``FixedPoly``.  Returns
    (step, scaled_residual) as Python numbers, with step = p(x)/p'(x) (None
    where the derivative vanishes) and scaled_residual = |p(x)| / max|coeff|.
    The point x is taken as given and both are evaluated in fixed point (see
    ``_horner``): the residual to within 2**-126, and the step to within
    2**-128 (1 + |step|) before it is rounded to a complex, the precision
    being raised once when |p'(x)| turns out small.  Neither cancellation nor
    coefficients outside the double range can spoil them.  Nothing in the
    package calls it: every floating root is refined by ``refined_values``.
    It is kept only because the benchmark's span list wraps it by name.
    """
    poly = _prepared(c)
    x = complex(x)
    top = poly.top
    loss = _horner_loss(len(poly.coeffs), _magnitude_bits(x))
    s = loss + 129  # enough when |p'(x)| >= 1/2 after scaling to max|coeff| < 1
    p, dp = _horner(poly.fixed(s - top), *_fixed_point(x, s), s)
    # step error <= 2**loss (1 + |step|) / |dp| <= 2**(loss + 1 - _bits(dp)) (1 + |step|)
    short = loss + 129 - _bits(dp)
    if short > 0 and dp != (0, 0):
        s += short
        p, dp = _horner(poly.fixed(s - top), *_fixed_point(x, s), s)
    # |p(x)| / max|coeff| = |p(x) / 2**top| * (2**top / max|coeff|)
    big = max(abs(v) for v in poly.coeffs)
    num, den = int(big.numerator), int(big.denominator)
    ratio = _ratio(den << top, num) if top >= 0 else _ratio(den, num << -top)
    one = 1 << s
    residual = math.hypot(_ratio(p[0], one), _ratio(p[1], one)) * ratio
    if dp == (0, 0):
        return None, residual
    return _gaussian_quotient(p, dp), residual


def content_primitive(c: list) -> tuple:
    """Write c = content * primitive with primitive integer coefficients.

    The primitive part has integer entries, gcd 1 and positive leading
    coefficient; content is an exact rational (zero for the zero poly).
    """
    if not c:
        return ZERO, []
    den_lcm = 1
    for x in c:
        d = x.denominator
        den_lcm = den_lcm * d // int_gcd(den_lcm, d)
    ints = [int(x * den_lcm) for x in c]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    if ints[-1] < 0:
        g = -g
    prim = [v // g for v in ints]
    return rational(g, den_lcm), prim


def monic(c: list) -> list:
    if not c:
        return []
    lc = c[-1]
    return [x / lc for x in c]


def gcd(a: list, b: list) -> list:
    """Monic gcd via a primitive pseudo-remainder sequence over the integers."""
    _, p = content_primitive(a)
    _, q = content_primitive(b)
    if len(p) < len(q):
        p, q = q, p
    while q:
        r = _pseudo_rem_int(p, q)
        g = int_gcd(*r) or 1
        p, q = q, [x // g for x in r]
    return monic([rational(x) for x in p])


def _pseudo_rem_int(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists: lc(b)^k * a mod b."""
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        lr = r[-1]
        r = [x * lb for x in r]
        for i, y in enumerate(b):
            r[k + i] -= lr * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def modulo(c: list, q: int) -> list:
    """The coefficients modulo q as integers in [0, q); q divides no denominator."""
    return [int(x.numerator) * pow(int(x.denominator), -1, q) % q for x in c]


# Reduced modulo this prime, a square-free polynomial almost always stays
# square-free, and that proves it square-free over Q in word-size arithmetic,
# where the exact gcd with its derivative works through remainders of
# thousands of bits.
_SQUAREFREE_PRIME = (1 << 31) - 1


def _squarefree_mod(c: list) -> bool:
    """True when the monic c is square-free modulo _SQUAREFREE_PRIME with its degree kept.

    Then c is square-free over Q: a repeated factor over Q is monic with
    coefficients free of q in their denominators, so it would repeat modulo q.
    False says nothing.
    """
    q = _SQUAREFREE_PRIME
    if len(c) > q or any(int(x.denominator) % q == 0 for x in c):
        return False
    a = modulo(c, q)
    b = [i * x % q for i, x in enumerate(a)][1:]
    while b:  # Euclid over GF(q); b keeps a nonzero leading coefficient
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f, k = a[-1] * inv % q, len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - f * y) % q
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def squarefree_part(c: list) -> list:
    """The monic square-free part c / gcd(c, c') of a nonconstant c."""
    p = monic(c)
    if _squarefree_mod(p):
        return p
    return monic(exact_div(p, gcd(p, derivative(p))))


def squarefree_decomposition(c: list) -> list:
    """Yun's algorithm: returns [(factor_i, multiplicity_i)] with factors monic,
    squarefree, pairwise coprime and c = lc * prod factor_i^mult_i."""
    if not c:
        raise ValueError("zero polynomial")
    if len(c) == 1:
        return []
    p = monic(c)
    if _squarefree_mod(p):
        return [(p, 1)]
    dp = derivative(p)
    a = gcd(p, dp)
    out = []
    if deg(a) == 0:
        return [(p, 1)]
    b = exact_div(p, a)
    d = sub(exact_div(dp, a), derivative(b))
    i = 1
    while deg(b) > 0:
        g = gcd(b, d)
        if deg(g) > 0:
            out.append((monic(g), i))
        b2 = exact_div(b, g) if deg(g) > 0 else b
        d = sub(exact_div(d, g) if deg(g) > 0 else d, derivative(b2))
        b = b2
        i += 1
    return out


def is_squarefree(c: list) -> bool:
    return _squarefree_mod(monic(c)) or deg(gcd(c, derivative(c))) == 0


def to_multipoly(c: list, nvars: int = 1, var: int = 0):
    from .multipoly import Polynomial

    terms = {}
    for e, coef in enumerate(c):
        if coef != 0:
            mono = tuple(e if i == var else 0 for i in range(nvars))
            terms[mono] = coef
    return Polynomial(nvars, terms)
