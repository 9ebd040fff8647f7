import pytest

from eigenpoints import unipoly
from eigenpoints.rationals import rational
from eigenpoints.roots import RootfindingError, univariate_roots


def P(*coeffs):
    return [rational(c) for c in coeffs]


def test_quadratic():
    roots = univariate_roots(P(-1, 0, 1))  # t^2 - 1
    assert roots == [(rational(-1), 1), (rational(1), 1)]


def test_double_root():
    roots = univariate_roots(P(1, -2, 1))  # (t-1)^2
    assert roots == [(rational(1), 2)]


def test_fermat_chart_cubic():
    roots = univariate_roots(P(0, -1, 0, 1))  # t^3 - t, factored by hand: 0, 1, -1
    assert roots == [(rational(-1), 1), (rational(0), 1), (rational(1), 1)]


def test_zero_polynomial_rejected():
    with pytest.raises(RootfindingError):
        univariate_roots([])


def test_multiplicity_total_is_degree():
    # t^2 (t^2 + 1) (t - 3)^2
    p = unipoly.mul(unipoly.mul(P(0, 0, 1), P(1, 0, 1)), P(9, -6, 1))
    roots = univariate_roots(p)
    assert sum(m for _, m in roots) == 6
    rational_roots = {str(r): m for r, m in roots if not isinstance(r, complex)}
    assert rational_roots == {"0": 2, "3": 2}
    complex_roots = [r for r, _ in roots if isinstance(r, complex)]
    assert len(complex_roots) == 2
    assert all(abs(r.imag) > 1e-8 * (1.0 + abs(r)) for r in complex_roots)


def test_residuals_small():
    # irrational roots: t^3 - 2
    p = P(-2, 0, 0, 1)
    for r, m in univariate_roots(p):
        val = abs(unipoly.evaluate([float(c) for c in p], complex(r)))
        assert val < 1e-9
        assert m == 1


def test_rational_extraction_with_larger_denominators():
    # (3t - 1)(5t + 2)(t^2 + t + 1)
    p = unipoly.mul(unipoly.mul(P(-1, 3), P(2, 5)), P(1, 1, 1))
    roots = univariate_roots(p)
    exact = sorted(str(r) for r, _ in roots if not isinstance(r, complex))
    assert exact == ["-2/5", "1/3"]
