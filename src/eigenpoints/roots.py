"""Univariate root extraction: exact rationals first, floating complex after.

Strategy: exact square-free decomposition fixes multiplicities; rational
roots are recovered from numeric candidates by continued-fraction
rationalization and verified exactly; the rest get start points from the
companion-matrix eigensolver and one double-precision Newton step.
``start_points`` returns those start points, which the solver refines once
each against the exact eliminant (``unipoly.refined_values``);
``univariate_roots`` polishes them against the exact polynomial with up to
three ``unipoly.newton_correction`` steps.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import unipoly
from .rationals import rational


class RootfindingError(ValueError):
    pass


def _float_coeffs(c):
    scale = max(abs(x) for x in c)
    return [float(x / scale) for x in c]


def _newton_polish(coeffs_f, x):
    d = [coeffs_f[i] * i for i in range(1, len(coeffs_f))]
    fx = _horner(coeffs_f, x)
    dfx = _horner(d, x)
    if dfx == 0:
        return x
    return x - fx / dfx


def _horner(coeffs_f, x):
    total = 0.0
    for c in reversed(coeffs_f):
        total = total * x + c
    return total


def _rational_candidates(z, den_bound):
    if abs(z.imag) > 1e-6 * (1.0 + abs(z)):
        return []
    fr = Fraction(z.real).limit_denominator(den_bound)
    return [rational(fr.numerator, fr.denominator)]


def _roots_of_squarefree(factor, den_bound):
    """Roots of an exact square-free polynomial, each with multiplicity one.

    Returns the verified rational roots, the factor left once they are
    divided out, and its roots as double-precision start points.
    """
    work = list(factor)
    exact_roots = []
    # peel off verified rational roots so the numeric part shrinks
    while unipoly.deg(work) > 0:
        coeffs_f = _float_coeffs(work)
        numeric = np.roots(list(reversed(coeffs_f)))
        found = None
        for z in numeric:
            z = _newton_polish(coeffs_f, complex(z))
            for cand in _rational_candidates(z, den_bound):
                if unipoly.evaluate(work, cand) == 0:
                    found = cand
                    break
            if found is not None:
                break
        if found is None:
            break
        exact_roots.append(found)
        # divide by (t - root) exactly
        work = unipoly.exact_div(work, [-found, rational(1)])
    starts = []
    if unipoly.deg(work) > 0:
        coeffs_f = _float_coeffs(work)
        starts = [_newton_polish(coeffs_f, complex(z)) for z in np.roots(list(reversed(coeffs_f)))]
    return exact_roots, work, starts


def _factor_roots(coeffs, den_bound):
    """(multiplicity, exact roots, rest, start points) per square-free factor."""
    c = unipoly.trim(list(coeffs))
    if not c:
        raise RootfindingError("zero polynomial has no well-defined roots")
    if unipoly.deg(c) == 0:
        return []
    return [
        (mult, *_roots_of_squarefree(factor, den_bound))
        for factor, mult in unipoly.squarefree_decomposition(c)
    ]


def start_points(coeffs, den_bound: int = 10**6):
    """The roots of an exact univariate polynomial with multiplicities, unrefined.

    Returns a list of (root, multiplicity): exact rationals where verified,
    otherwise double-precision start points for an exact refinement.  The
    multiplicity total equals the degree.  Raises RootfindingError on the
    zero polynomial.
    """
    out = []
    for mult, exact, _, starts in _factor_roots(coeffs, den_bound):
        out.extend((r, mult) for r in exact + starts)
    return _sorted(out)


def univariate_roots(coeffs, residual_tol: float = 1e-12, den_bound: int = 10**6):
    """All complex roots of an exact univariate polynomial with multiplicities.

    Returns a list of (root, multiplicity); roots are exact rationals when
    verifiable, otherwise complex floats.  The multiplicity total equals the
    degree.  Raises RootfindingError on the zero polynomial.
    """
    out = []
    for mult, exact, rest, starts in _factor_roots(coeffs, den_bound):
        out.extend((r, mult) for r in exact)
        poly = unipoly.FixedPoly(rest)
        for z in starts:
            # Newton against the exact polynomial at high precision; the
            # float companion matrix only provides the starting point
            for _ in range(3):
                step, residual = unipoly.newton_correction(poly, z)
                if step is None:
                    break
                z = z - step
                if residual <= residual_tol * max(1.0, abs(z)) ** unipoly.deg(rest):
                    break
            out.append((complex(z), mult))
    return _sorted(out)


def _sorted(roots):
    return sorted(roots, key=lambda rm: (_sort_float(rm[0]).real, _sort_float(rm[0]).imag))


def _sort_float(r):
    if isinstance(r, complex):
        return r
    return complex(float(r), 0.0)


def is_real(root, tol: float = 1e-8) -> bool:
    if not isinstance(root, complex):
        return True
    return abs(root.imag) <= tol * (1.0 + abs(root))
