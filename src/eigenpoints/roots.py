"""Univariate root extraction: exact rationals first, floating complex after.

Strategy: exact square-free decomposition fixes multiplicities; rational
roots are recovered from numeric candidates by continued-fraction
rationalization and verified exactly; the rest get start points from the
companion-matrix eigensolver and one double-precision Newton step.
``univariate_roots`` returns those roots unrefined, for every level of the
solve; the solver refines each floating one once against the exact
eliminant (``unipoly.refined_values``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import unipoly
from .rationals import rational


# the largest denominator a near-real root is rounded to before its exact check
DEN_BOUND = 10**6


class RootfindingError(ValueError):
    pass


def _float_coeffs(c):
    scale = max(abs(x) for x in c)
    return [float(x / scale) for x in c]


def _newton_polish(coeffs_f, x):
    d = [coeffs_f[i] * i for i in range(1, len(coeffs_f))]
    fx = unipoly.evaluate(coeffs_f, x)
    dfx = unipoly.evaluate(d, x)
    if dfx == 0:
        return x
    return x - fx / dfx


def _rational_candidates(z):
    if abs(z.imag) > 1e-6 * (1.0 + abs(z)):
        return []
    fr = Fraction(z.real).limit_denominator(DEN_BOUND)
    return [rational(fr.numerator, fr.denominator)]


def _roots_of_squarefree(factor):
    """Roots of an exact square-free polynomial, each with multiplicity one.

    Returns the verified rational roots, then the roots of the factor left
    once they are divided out, as double-precision start points.
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
            for cand in _rational_candidates(z):
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
    return exact_roots + starts


def univariate_roots(coeffs):
    """The roots of an exact univariate polynomial with multiplicities, unrefined.

    Returns a list of (root, multiplicity): exact rationals where verified,
    otherwise double-precision start points for an exact refinement.  The
    multiplicity total equals the degree.  Raises RootfindingError on the
    zero polynomial.
    """
    c = unipoly.trim(list(coeffs))
    if not c:
        raise RootfindingError("zero polynomial has no well-defined roots")
    if unipoly.deg(c) == 0:
        return []
    out = []
    for factor, mult in unipoly.squarefree_decomposition(c):
        out.extend((r, mult) for r in _roots_of_squarefree(factor))
    return _sorted(out)


def _sorted(roots):
    return sorted(roots, key=lambda rm: (_sort_float(rm[0]).real, _sort_float(rm[0]).imag))


def _sort_float(r):
    if isinstance(r, complex):
        return r
    return complex(float(r), 0.0)
