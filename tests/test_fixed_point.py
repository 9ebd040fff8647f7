"""Precision of the fixed-point evaluation and refinement in unipoly."""

from fractions import Fraction

import pytest

from eigenpoints import unipoly as U
from eigenpoints.rationals import rational


def _power_minus(d, r):
    """z**d - r**d as an ascending coefficient list."""
    return [rational(-(r**d))] + [rational(0)] * (d - 1) + [rational(1)]


def test_newton_correction_large_root_high_degree():
    # the Horner rounding at step k is amplified by |z|**k, about 2**152 here
    p = _power_minus(39, 10)
    x = 10 + 2.0**-49  # the double just above the root
    step, residual = U.newton_correction(p, x)
    fx = Fraction(x)
    exact = (fx**39 - 10**39) / (39 * fx**38)
    assert step.imag == 0
    assert abs(Fraction(step.real) - exact) < Fraction(1, 10**29)
    ref = float((fx**39 - 10**39) / 10**39)
    assert abs(residual - ref) <= 1e-14 * ref


def test_refined_values_large_root_high_degree():
    p = _power_minus(39, 10)
    probe = [rational(-10), rational(1)]  # z - 10
    z, (val,) = U.refined_values(p, [probe], 10 + 2.0**-49)
    assert complex(z) == 10
    assert abs(complex(val)) < 1e-30


def test_refined_values_small_derivative():
    # roots 1 and 1 + 2**-30: after scaling to max|coeff| < 1 the eliminant
    # has |p'| near 2**-31 at 1, so the first pass is short of precision
    eps = rational(1, 2**30)
    p = [rational(1) + eps, -(rational(2) + eps), rational(1)]
    probe = [rational(-1), rational(1)]  # z - 1
    z, (val,) = U.refined_values(p, [probe], 1 + 2.0**-45)
    assert abs(complex(val)) < 1e-45


def test_fixed_complex_compares_with_zero():
    assert U.FixedComplex(0, 0, 10) == 0
    assert U.FixedComplex(1, 0, 200) != 0
    assert U.FixedComplex(0, -1, 200) != 0


@pytest.mark.parametrize("e", [140, 300])
def test_rur_point_raises_precision_where_the_denominator_is_small(e):
    # roots 1 +- i eps with eps = 2**-e, where |p_sq'| = 2 eps; the numerator
    # g = z p_sq'(z) mod p_sq makes x = g / p_sq' equal to z, which the first
    # pass at 160 bits leaves wrong in the imaginary part; at e = 300 the
    # denominator is below that pass's error, and one raise is not enough
    from eigenpoints.groebner import LexBasis
    from eigenpoints.solver import _rur_point

    eps = rational(1, 2**e)
    sq = [1 + eps * eps, rational(-2), rational(1)]
    g = [-2 - 2 * eps * eps, rational(2)]
    x, z = _rur_point(LexBasis(2, 2, [], sq, sq, {0: g}), [g], complex(1, 2.0**-e))
    assert abs(x - z) <= 2.0**-52
    assert abs(abs(x.imag) * 2.0**e - 1) < 1e-12
