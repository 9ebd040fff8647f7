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
    lex = LexBasis(2, 2, sq, sq, {0: g})
    x, z = _rur_point(lex.squarefree, [g, lex.denominator], complex(1, 2.0**-e))
    assert abs(x - z) <= 2.0**-52
    assert abs(abs(x.imag) * 2.0**e - 1) < 1e-12


def test_newton_cap_raises():
    # from 2**100, Newton on z**2 - 1 halves z each step: 100 steps, past the cap
    with pytest.raises(ArithmeticError):
        U.refined_values([-1, 0, 1], [[-1, 0, 1]], 2.0**100)


def _within_one_unit(c, e, ints, bound=1):
    # the prepared form's stated rounding: 1 unit of 2**-e, against the exact
    # value and so within 1 of _to_fixed's correctly rounded integers
    for v, got, ref in zip(c, ints, U._to_fixed(c, e)):
        assert abs(got - Fraction(v) * Fraction(2) ** e) <= bound
        assert abs(got - ref) <= 1


def test_prepared_form_matches_to_fixed():
    c = [
        rational(0),
        rational(10**400),
        rational(-7, 3),
        rational(1, 10**500),
        rational(-(10**350 + 1), 3),
        rational(5),
    ]
    poly = U.FixedPoly(c)
    assert poly.top == U._log2_bound(c[1])
    # the first scale converts; coarser ones are rounding shifts, down to far
    # below the coefficient sizes; a finer one converts again
    for e in [300, 300, 120, 1, 0, -7, -1200, -1400, -2000, 599, 600, 601, 5000, 64]:
        ints = poly.fixed(e)
        assert ints[0] == 0
        # from the scale E held: 1/2 + 2**(e-E)/2, below 1 unit
        _within_one_unit(c, e, ints, Fraction(1, 2) + Fraction(2) ** (e - poly._scale) / 2)


def test_prepared_form_at_the_scales_a_solve_uses(monkeypatch):
    from conftest import random_tensor
    from eigenpoints.solver import eigenpoints

    seen = []
    fixed = U.FixedPoly.fixed

    def recording(self, e):
        ints = fixed(self, e)
        seen.append((self.coeffs, e, ints))
        return ints

    monkeypatch.setattr(U.FixedPoly, "fixed", recording)
    assert eigenpoints(random_tensor(2, 5, 1), seed=0).certified
    assert len({e for _, e, _ in seen}) > 1
    for c, e, ints in seen:
        _within_one_unit(c, e, ints)


def test_value_horner_is_horners_value():
    c = U.FixedPoly(
        [rational(3, 7), rational(-(10**40)), rational(0), rational(5, 11), rational(1)]
    )
    for z in [complex(0.3, -1.7), complex(-2.5, 0.01), complex(1e3, 1e-3)]:
        for s in (64, 200):
            ints = c.fixed(s)
            zr, zi = U._fixed_point(z, s)
            assert U._horner_value(ints, zr, zi, s) == U._horner(ints, zr, zi, s)[0]
