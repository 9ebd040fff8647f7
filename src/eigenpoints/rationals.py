"""Exact rational scalars.

Every symbolic computation in this package runs over the rationals, as
fractions.Fraction: positive denominator, gcd(num, den) = 1.
"""

from __future__ import annotations

from fractions import Fraction

rational = Fraction

ZERO = rational(0)
ONE = rational(1)


def is_rational(x) -> bool:
    """True for exact scalar types (our rationals and plain ints)."""
    return isinstance(x, (int, Fraction))


def parse_rational(text: str):
    """Parse 'num/den' or 'num' into an exact rational.

    Raises ValueError on malformed input or zero denominator.
    """
    s = text.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return rational(num, den)
    return rational(int(s))


def format_rational(x) -> str:
    """Render an exact rational as 'num/den', or 'num' when integral."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"
