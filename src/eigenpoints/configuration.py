"""Incidence predicates on finite projective point sets.

Eigenschemes obey hard incidence bounds: no d+1 points on a line, no
sd+1 points on a degree-s plane curve, and (in P^3) thresholds on how
many points may sit on a hypersurface of degree d-1.  The predicates
here decide such statements exactly for rational points by rank
computations on monomial evaluation matrices, and numerically (flagged)
for floating points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .exact_linalg import ExactMatrix
from .points import PointSet

SVD_REL_TOL = 1e-8


@dataclass
class IncidenceReport:
    predicate: str
    threshold: int
    found: bool
    witness: list = field(default_factory=list)  # point indices
    counts: dict = field(default_factory=dict)
    numeric: bool = False


def _monomials(nvars: int, e: int):
    """Exponent tuples of total degree e, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), e, nvars)
    return out


def _mono_value(coords, mono):
    val = 1
    for c, e in zip(coords, mono):
        if e:
            val = val * c**e
    return val


def _eval_rows(points, monos):
    rows = []
    numeric = any(not p.exact for p in points)
    for p in points:
        coords = list(p.as_complex()) if numeric else list(p.coords)
        rows.append([_mono_value(coords, mono) for mono in monos])
    return rows, numeric


def _rank(rows, numeric: bool) -> int:
    if not rows:
        return 0
    if numeric:
        m = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
        s = np.linalg.svd(m, compute_uv=False)
        if len(s) == 0 or s[0] == 0:
            return 0
        return int(np.sum(s > SVD_REL_TOL * s[0]))
    return ExactMatrix(rows).rank()


def max_collinear(z: PointSet):
    """Largest number of points of z on one line, with a witness.

    Returns (count, witness_indices).  Exact membership for rational
    points: r lies on span(p, q) iff the 3-row coordinate matrix has
    rank 2.
    """
    pts = list(z)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    numeric = any(not p.exact for p in pts)
    coords = [list(p.as_complex()) if numeric else list(p.coords) for p in pts]
    best = 2
    witness = [0, 1]
    for i, j in combinations(range(len(pts)), 2):
        members = [i, j]
        for r in range(len(pts)):
            if r == i or r == j:
                continue
            rank = _rank([coords[i], coords[j], coords[r]], numeric)
            if rank == 2:
                members.append(r)
        if len(members) > best:
            best = len(members)
            witness = sorted(members)
    return best, witness


def subset_on_hypersurface(
    z: PointSet, e: int, m: int, enumeration_cap: int = 10**6
) -> IncidenceReport:
    """Does some m-subset of z lie on a hypersurface of degree e?

    A subset does iff its evaluation matrix against all degree-e
    monomials has rank below the monomial count.  Exhaustive over
    subsets in index-lexicographic order with early exit; refuses when
    C(|z|, m) exceeds the enumeration cap.
    """
    pts = list(z)
    if m > len(pts):
        raise ValueError(f"subset size {m} exceeds point count {len(pts)}")
    nvars = z.n + 1
    monos = _monomials(nvars, e)
    ncols = len(monos)
    rows, numeric = _eval_rows(pts, monos)
    name = f"{m}-points-on-degree-{e}-hypersurface"

    if m < ncols:
        # m points impose at most m < dim conditions: always satisfiable
        return IncidenceReport(
            predicate=name,
            threshold=m,
            found=True,
            witness=list(range(m)),
            counts={"monomials": ncols, "reason": "dimension count"},
            numeric=numeric,
        )
    if _rank(rows, numeric) < ncols:
        return IncidenceReport(
            predicate=name,
            threshold=m,
            found=True,
            witness=list(range(m)),
            counts={"monomials": ncols, "reason": "whole set on a hypersurface"},
            numeric=numeric,
        )
    total = comb(len(pts), m)
    if total > enumeration_cap:
        raise ValueError(
            f"enumeration of {total} subsets exceeds the cap {enumeration_cap}"
        )
    checked = 0
    for subset in combinations(range(len(pts)), m):
        checked += 1
        sub_rows = [rows[i] for i in subset]
        if _rank(sub_rows, numeric) < ncols:
            return IncidenceReport(
                predicate=name,
                threshold=m,
                found=True,
                witness=list(subset),
                counts={"monomials": ncols, "subsets_checked": checked},
                numeric=numeric,
            )
    return IncidenceReport(
        predicate=name,
        threshold=m,
        found=False,
        counts={"monomials": ncols, "subsets_checked": checked},
        numeric=numeric,
    )


def bezout_guard(z: PointSet, d: int, enumeration_cap: int = 10**6) -> dict:
    """Planar guard: no sd+1 points on a curve of degree s, s = 1..d-1.

    Aggregates one subset_on_hypersurface check per degree into a single
    pass/fail report; a planar eigenscheme of order d must pass.
    """
    if z.n != 2:
        raise ValueError("bezout guard applies to points in the projective plane")
    results = {}
    passed = True
    for s in range(1, d):
        m = s * d + 1
        if m > len(z.points):
            results[s] = {"threshold": m, "found": False, "skipped": "too few points"}
            continue
        rep = subset_on_hypersurface(z, s, m, enumeration_cap)
        results[s] = {
            "threshold": m,
            "found": rep.found,
            "witness": rep.witness,
            "numeric": rep.numeric,
        }
        if rep.found:
            passed = False
    return {"d": d, "passed": passed, "per_degree": results}
