"""Eigenpoint enumeration by chart reduction and hyperplane recursion.

In the chart x_j = 1 the 2x2 minors collapse to the square system
g_k - x_k g_j = 0 (k != j); the remaining eigenpoints lie on x_j = 0,
where the eigenscheme is that of the restricted tensor cut by the
restricted g_j, so the solver recurses into one lower projective
dimension with g_j as one more equation.  Every level, P^1 included,
goes through one engine: a grevlex basis, then the rational univariate
representation that ``groebner.fglm`` checks exactly over Q, after a
random separating shear with recorded seed when the unsheared chart is not
in shape position.  Points with rational coordinates are produced exactly;
the rest are complex doubles read off that checked representation.
"""

from __future__ import annotations

import random

from . import unipoly
from . import groebner as gb_engine
from .counts import expected_count
from .multipoly import Polynomial
from .points import ProjectivePoint, point_from_json
from .rationals import is_rational, rational
from .roots import univariate_roots
from .tensors import EigenMatrix, PartialSymTensor, minor_ideal_generators

RESIDUAL_TOL = 1e-8
SHEAR_RETRIES = 6


class EigenSolution:
    """Solved eigenpoint set with multiplicities and certification."""

    def __init__(self, n, d, points, charts_solved, certified, diagnostics, seed_info):
        self.n = n
        self.d = d
        self.points = points  # list of (ProjectivePoint, multiplicity)
        self.charts_solved = charts_solved
        self.certified = certified
        self.diagnostics = diagnostics
        self.seed_info = seed_info
        self.expected = expected_count(n, d)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

    def real_points(self, tol: float = RESIDUAL_TOL):
        return [(p, m) for p, m in self.points if p.is_real(tol)]

    def point_set(self):
        from .points import PointSet

        ps = PointSet(self.n)
        for p, _ in self.points:
            ps.add(p)
        return ps

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "expected": self.expected,
            "count": self.total_multiplicity,
            "points": [
                {"coords": p.coords_json(), "mult": m} for p, m in self.points
            ],
            "certified": self.certified,
            "chartsSolved": self.charts_solved,
            "diagnostics": self.diagnostics,
            "seedInfo": self.seed_info,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EigenSolution":
        points = [
            (point_from_json(e["coords"]), int(e.get("mult", 1)))
            for e in data["points"]
        ]
        return cls(
            int(data["n"]),
            int(data["d"]),
            points,
            list(data.get("chartsSolved", [])),
            bool(data.get("certified", False)),
            list(data.get("diagnostics", [])),
            dict(data.get("seedInfo", {})),
        )

    def __repr__(self):
        return (
            f"EigenSolution(n={self.n}, d={self.d}, count={self.total_multiplicity},"
            f" expected={self.expected}, certified={self.certified})"
        )


def chart_system(t: PartialSymTensor, j: int) -> list:
    """The square system cutting out E(T) in the chart x_j = 1."""
    if not 0 <= j <= t.n:
        raise IndexError(f"chart index {j} out of range")
    return _chart_system(t.slices, j)


def _chart_system(slices, j):
    nv = slices[0].nvars
    xj_slice = slices[j]
    out = []
    for k in range(nv):
        if k == j:
            continue
        p = slices[k] - Polynomial.variable(k, nv) * xj_slice
        out.append(p.dehomogenize(j))
    return out


# -- numeric helpers ---------------------------------------------------------


def _poly_scale(p: Polynomial) -> float:
    if p.is_zero():
        return 1.0
    return max(abs(float(c)) for c in p.terms.values())


def _complex_residuals(gens):
    """Per generator: a copy with complex coefficients, and its ``_poly_scale``.

    Made once per generator, for evaluation at many floating points.  The
    copy's values are bit for bit the generator's: ``Fraction * complex``
    is ``complex(Fraction) * complex``.
    """
    return [
        (Polynomial(g.nvars, {m: complex(c) for m, c in g.terms.items()}), _poly_scale(g))
        for g in gens
    ]


# -- chart solving -----------------------------------------------------------


class ChartResult:
    __slots__ = ("solutions", "positive_dimensional", "notes", "shear")

    def __init__(self, solutions, positive_dimensional=False, notes=(), shear=None):
        self.solutions = solutions  # list of (coords tuple, multiplicity)
        self.positive_dimensional = positive_dimensional
        self.notes = list(notes)
        self.shear = shear


def solve_zero_dimensional(system, rng=None):
    """All solutions of a zero-dimensional polynomial system.

    The system may have any number of unknowns and may be overdetermined.
    Returns a ChartResult; positive-dimensional systems are reported, not
    silently dropped.
    """
    rng = rng or random.Random(0)
    system = list(system)
    if not system:
        raise ValueError("empty system")
    k = system[0].nvars
    nonzero = [p for p in system if not p.is_zero()]
    if not nonzero:
        return ChartResult([], positive_dimensional=True, notes=["all equations vanish"])
    return _solve_by_elimination(nonzero, k, rng)


def _shear_sub(k: int, coeffs):
    """Substitution sending the last variable Z to Z - sum coeffs[i] x_i."""
    z = Polynomial.variable(k - 1, k)
    expr = z
    for i, c in enumerate(coeffs):
        expr = expr - Polynomial.variable(i, k) * rational(c)
    return {k - 1: expr}


def _unshear(coords, coeffs):
    *rest, zp = coords
    z = zp
    for c, x in zip(coeffs, rest):
        z = z - rational(c) * x if not isinstance(x, complex) else z - c * x
    return tuple(rest) + (z,)


def _solve_by_elimination(polys, k, rng):
    """Shear to shape position, grevlex basis, FGLM, univariate roots.

    When no shear tried puts the chart in shape position the chart gives
    no points, and its note says so; the solve then stays uncertified.
    """
    last_note = None
    for attempt in range(SHEAR_RETRIES + 1):
        if attempt == 0:
            coeffs = [0] * (k - 1)
        else:
            coeffs = [rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(k - 1)]
        if any(coeffs):
            sub = _shear_sub(k, coeffs)
            sheared = [p.substitute(sub) for p in polys]
        else:
            sheared = polys
        try:
            basis = gb_engine.buchberger(sheared, k)
            lex = gb_engine.fglm(basis, k)
        except gb_engine.PositiveDimensionalError as exc:
            return ChartResult([], positive_dimensional=True, notes=[str(exc)])
        if lex.dimension == 0:
            return ChartResult([], shear=coeffs)
        if lex.in_shape_position():
            sols, notes = _shape_back_substitute(lex, coeffs, k)
            if len(lex.squarefree) < len(lex.eliminant):
                notes.append("eliminant not squarefree: multiplicity reported")
            return ChartResult(sols, notes=notes, shear=coeffs)
        last_note = (
            f"eliminant degree {len(lex.eliminant) - 1} below quotient dimension"
            f" {lex.dimension}"
        )
    return ChartResult(
        [], notes=[f"no separating shear found in {SHEAR_RETRIES + 1} attempts ({last_note})"]
    )


def _shape_back_substitute(lex, coeffs, k):
    """Chart points x_i = g_i(z) / p_sq'(z) at the roots z of the eliminant.

    Returns the points and the notes of the floating roots dropped because
    their refinement failed.  Each polynomial is prepared for fixed point
    once, for all the roots.
    """
    numerators = [lex.numerators[i] for i in range(k - 1)]
    squarefree = unipoly.FixedPoly(lex.squarefree)
    polys = [unipoly.FixedPoly(g) for g in numerators + [lex.denominator]]
    sols, notes = [], []
    for z0, mult in univariate_roots(lex.eliminant):
        if is_rational(z0):
            den = unipoly.evaluate(lex.denominator, z0)
            coords = tuple(unipoly.evaluate(g, z0) / den for g in numerators) + (z0,)
        else:
            try:
                coords = _rur_point(squarefree, polys, z0)
            except ArithmeticError as exc:
                notes.append(f"root near {z0:.6g} dropped: {exc}")
                continue
        coords = _unshear(coords, coeffs) if any(coeffs) else coords
        sols.append((coords, mult))
    return sols, notes


def _rur_point(squarefree, polys, z0):
    """The coordinates g_i(z) / p_sq'(z) at the root z near z0, in double precision.

    ``polys`` are the numerators g_i followed by the denominator p_sq', and
    ``squarefree`` is p_sq, as coefficient lists or ``unipoly.FixedPoly``.
    The values come from ``refined_values`` within 2**-bits, so a quotient
    keeps 64 bits while |p_sq'(z)| >= 2**(64 - bits).  Until the computed
    |p_sq'(z)| shows that, they are computed again with the bits it costs;
    a denominator lost in the error reads too small, so each pass raises
    bits by more than 32 until |p_sq'(z)|, nonzero at a simple root, is seen.
    """
    bits = unipoly.REFINE_BITS
    z_ref, values = unipoly.refined_values(squarefree, polys, z0)
    while (short := 65 - values[-1].exponent()) > bits:
        bits = short + 32
        z_ref, values = unipoly.refined_values(squarefree, polys, z0, bits)
    *tops, bottom = values
    return tuple(top / bottom for top in tops) + (complex(z_ref),)


# -- full eigenpoint enumeration --------------------------------------------


def eigenpoints(t, seed: int = 0, allow_large_n: bool = False) -> EigenSolution:
    """The complete eigenpoint set of a tensor, chart by chart.

    Solves the chart x_0 = 1; when the count falls short of the generic
    length, recurses into the hyperplane H = {x_0 = 0} and solves the
    scheme E ∩ H there (``_solve_projective``).  Every multiplicity is a
    lower bound for the length of E at the point, so certification, the
    full expected count with all multiplicities one, proves E reduced and
    complete.
    """
    if hasattr(t, "to_partial"):
        t = t.to_partial()
    if t.n not in (2, 3) and not allow_large_n:
        raise ValueError("exact path supports n in {2, 3}; pass allow_large_n=True to override")
    rng = random.Random(seed)
    expected = expected_count(t.n, t.d)
    charts = []
    diagnostics = []
    shears = {}
    positive_dim = False

    collected = _solve_projective(t.slices, [], rng, charts, diagnostics, shears, "", expected)
    if collected is None:
        positive_dim = True
        collected = []

    # the levels are disjoint and each level's roots are distinct
    points = sorted(
        ((ProjectivePoint(list(coords)), mult) for coords, mult in collected),
        key=lambda pm: pm[0].sort_key(),
    )

    gens = minor_ideal_generators(EigenMatrix(t))
    residual_ok = _check_residuals(points, gens, diagnostics)

    total = sum(m for _, m in points)
    certified = (
        not positive_dim
        and residual_ok
        and total == expected
        and all(m == 1 for _, m in points)
    )
    if positive_dim:
        diagnostics.append("eigenscheme is positive-dimensional or degenerate")
    elif not certified:
        if total != expected:
            diagnostics.append(
                f"found total multiplicity {total}, generic length is {expected}"
            )
        fat = [(repr(p), m) for p, m in points if m > 1]
        if fat:
            diagnostics.append(f"non-reduced points detected: {fat}")
    seed_info = {"seed": seed, "shears": shears}
    return EigenSolution(t.n, t.d, points, charts, certified, diagnostics, seed_info)


def _solve_projective(slices, filters, rng, charts, diagnostics, shears, prefix, budget):
    """Points of E ∩ L: E the eigenscheme of ``slices``, L the zeros of ``filters``.

    A level in P^m solves its chart x_0 = 1 (x_0 names the first coordinate
    of the level) and recurses into the hyperplane H = {x_0 = 0}.  On H the
    minors x_0 g_j - x_j g_0 become -x_j g_0|, and the x_j have no common
    zero, so E ∩ H is, as a scheme, the eigenscheme of the restricted
    tensor (g_1|, ..., g_m|) cut by the filter g_0|.  Each chart therefore
    solves the chart system with the dehomogenized filters appended, and
    that augmented system is E ∩ L in the chart, L the linear space of the
    level.  On P^1 the chart has one unknown, and the same engine takes the
    forms' gcd: it is the grevlex basis, which ``fglm`` returns, checked, as
    the eliminant.  (0:1) has the least of the forms' orders there, which is
    their degree drop in the chart; on P^0 the point is a zero only when no
    filter remains.

    For an isolated point p of E on L, O_{E∩L,p} is a quotient of O_{E,p},
    so the multiplicity reported for p, length(E ∩ L)_p, is at most
    length(E)_p.  Every multiplicity is thus a lower bound, and a total
    equal to the generic length with every multiplicity one still proves
    the eigenscheme reduced and complete.

    Returns a list of (projective coords, mult), or None when an augmented
    system is positive-dimensional.
    """
    m = len(slices) - 1
    filters = [f for f in filters if not f.is_zero()]

    if m == 0:
        return [] if filters else [((rational(1),), 1)]

    chart_name = f"{prefix}P1" if m == 1 else f"{prefix}x0=1"
    system = _chart_system(slices, 0) + [f.dehomogenize(0) for f in filters]
    result = solve_zero_dimensional(system, rng)
    charts.append(chart_name)
    if result.shear:
        shears[chart_name] = result.shear
    for note in result.notes:
        diagnostics.append(f"{chart_name}: {note}")
    if result.positive_dimensional:
        diagnostics.append(f"{chart_name}: positive-dimensional chart")
        return None
    out = []
    for coords, mult in result.solutions:
        one = rational(1) if all(is_rational(c) for c in coords) else 1.0 + 0j
        out.append(((one,) + tuple(coords), mult))

    if m == 1:
        binary = (
            Polynomial.variable(0, 2) * slices[1]
            - Polynomial.variable(1, 2) * slices[0]
        )
        drop = min(
            f.degree() - f.dehomogenize(0).degree()
            for f in [binary] + filters
            if not f.is_zero()
        )
        if drop > 0:
            out.append(((rational(0), rational(1)), drop))
        return out

    # a chart holding the generic length leaves no isolated point on H
    found = sum(mult for _, mult in out)
    if budget is not None and found >= budget:
        return out

    restricted = [g.restrict_zero(0) for g in slices[1:]]
    new_filters = [f.restrict_zero(0) for f in filters] + [slices[0].restrict_zero(0)]
    sub = _solve_projective(
        restricted, new_filters, rng, charts, diagnostics, shears, prefix + "x0=0|", None
    )
    if sub is None:
        return None
    for coords, mult in sub:
        zero = rational(0) if all(is_rational(c) for c in coords) else 0j
        out.append(((zero,) + tuple(coords), mult))
    return out


def _check_residuals(points, gens, diagnostics) -> bool:
    ok = True
    residuals = _complex_residuals(gens)
    for p, _ in points:
        if p.exact:
            for g in gens:
                if g.evaluate(list(p.coords)) != 0:
                    diagnostics.append(f"exact point {p!r} fails minor {g.to_text()}")
                    ok = False
                    break
        else:
            coords = p.as_complex()
            for g, scale in residuals:
                val = abs(complex(g.evaluate(coords)))
                if val > RESIDUAL_TOL * scale:
                    diagnostics.append(f"point {p!r} residual {val:.2e} on a minor")
                    ok = False
                    break
    return ok


def curve_membership_check(t: PartialSymTensor, i: int, j: int, solution: EigenSolution) -> dict:
    """Verify every solved point sits on the deleted-column curves C_i and C_j."""
    if i == j:
        raise ValueError("need two distinct deleted columns")
    report = {"i": i, "j": j, "max_residual": 0.0, "all_exact_zero": True, "count": 0}
    for deleted in (i, j):
        gens = minor_ideal_generators(EigenMatrix(t, (deleted,)))
        residuals = _complex_residuals(gens)
        for p, _ in solution.points:
            report["count"] += 1
            if p.exact:
                for g in gens:
                    if g.evaluate(list(p.coords)) != 0:
                        report["all_exact_zero"] = False
                        report["max_residual"] = float("inf")
            else:
                report["all_exact_zero"] = False
                coords = p.as_complex()
                for g, scale in residuals:
                    val = abs(complex(g.evaluate(coords))) / scale
                    report["max_residual"] = max(report["max_residual"], val)
    report["passes"] = report["max_residual"] <= RESIDUAL_TOL or report["all_exact_zero"]
    return report
