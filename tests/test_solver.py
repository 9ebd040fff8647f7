import pytest

from eigenpoints.counts import expected_count
from eigenpoints.multipoly import Polynomial
from eigenpoints.points import ProjectivePoint
from eigenpoints.rationals import rational
from eigenpoints.solver import (
    EigenSolution,
    _solve_projective,
    chart_system,
    curve_membership_check,
    eigenpoints,
    solve_zero_dimensional,
)
from eigenpoints.tensors import (
    EigenMatrix,
    PartialSymTensor,
    degenerate_tensor,
    fermat_tensor,
    minor_ideal_generators,
)

from conftest import FERMAT_15, SEEDS, random_form, random_tensor


def test_chart_system_fermat():
    t = fermat_tensor(3, 3).to_partial()
    system = chart_system(t, 0)
    assert len(system) == 3
    for k, p in enumerate(system):
        # g_k - x_k g_0 at x_0 = 1 is 3(x_k^2 - x_k) in the chart variables
        var = Polynomial.variable(k, 3)
        assert p == (var * var - var) * rational(3)


def test_solve_unit_grid():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    result = solve_zero_dimensional([x * x - x, y * y - y])
    assert len(result.solutions) == 4
    got = {(str(a), str(b)) for (a, b), m in result.solutions}
    assert got == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    assert all(m == 1 for _, m in result.solutions)
    # an overdetermined planar system: xy = 0 removes the point (1, 1)
    result = solve_zero_dimensional([x * x - x, y * y - y, x * y])
    got = {(str(a), str(b)) for (a, b), m in result.solutions}
    assert got == {("0", "0"), ("0", "1"), ("1", "0")}
    assert all(m == 1 for _, m in result.solutions)


def test_solve_multiplicity_two():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    result = solve_zero_dimensional([x * x, y])
    assert len(result.solutions) == 1
    (coords, mult) = result.solutions[0]
    assert mult == 2
    assert tuple(map(str, coords)) == ("0", "0")


def test_solve_three_vars_grid():
    vs = [Polynomial.variable(i, 3) for i in range(3)]
    result = solve_zero_dimensional([v * v - v for v in vs])
    assert len(result.solutions) == 8
    assert all(m == 1 for _, m in result.solutions)


def test_positive_dimensional_reported():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    result = solve_zero_dimensional([x, Polynomial.zero(2)])
    assert result.positive_dimensional
    one, two = Polynomial.constant(2, 1), Polynomial.constant(2, 2)
    circle = x * x + y * y - one
    line = x - one
    for system in ([circle], [line * (y - two), line * (x + y)]):
        result = solve_zero_dimensional(system)
        assert result.positive_dimensional
        assert result.notes
        assert result.solutions == []


def test_no_separating_shear_leaves_the_solve_uncertified(monkeypatch):
    from eigenpoints.groebner import LexBasis

    monkeypatch.setattr(LexBasis, "in_shape_position", lambda self: False)
    sol = eigenpoints(random_tensor(2, 3, seed=SEEDS[0]), seed=0)
    assert not sol.certified
    assert any("x0=1: no separating shear found" in d for d in sol.diagnostics)
    # the chart x_0 = 1 gives no points, and this tensor has none on x_0 = 0
    assert sol.points == []
    assert "found total multiplicity 0, generic length is 7" in sol.diagnostics


def test_newton_cap_drops_the_root_and_leaves_the_solve_uncertified(monkeypatch):
    from eigenpoints import unipoly

    monkeypatch.setattr(unipoly, "NEWTON_STEPS", 1)
    sol = eigenpoints(random_tensor(2, 5, seed=1), seed=0)
    assert not sol.certified
    dropped = [d for d in sol.diagnostics if "dropped: Newton did not converge in 1 steps" in d]
    assert dropped and all(d.startswith("x0=1: root near ") for d in dropped)
    assert sol.total_multiplicity == expected_count(2, 5) - len(dropped)


def test_each_floating_root_is_refined_once(monkeypatch):
    from collections import Counter

    from eigenpoints import unipoly

    calls = Counter()
    for name in ("newton_correction", "refined_values", "_newton", "_to_fixed"):

        def counting(*args, _name=name, _f=getattr(unipoly, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(unipoly, name, counting)
    sol = eigenpoints(random_tensor(2, 5, seed=1), seed=0)
    assert sol.certified and sol.charts_solved == ["x0=1"]
    floating = sum(1 for p, _ in sol.points if not p.exact)
    assert floating > 6
    assert calls["newton_correction"] == 0
    assert calls["refined_values"] == calls["_newton"] == floating
    # p_sq, g_1 and p_sq' are converted for the chart, not for each root
    assert calls["_to_fixed"] <= 6


@pytest.mark.parametrize(
    "tensor", [fermat_tensor(3, 3), random_tensor(3, 4, SEEDS[0])], ids=["fermat", "seeded"]
)
def test_every_level_isolates_its_roots_in_univariate_roots(monkeypatch, tensor):
    from eigenpoints import solver

    degrees = []
    isolate = solver.univariate_roots

    def counting(coeffs):
        degrees.append(len(coeffs) - 1)
        return isolate(coeffs)

    monkeypatch.setattr(solver, "univariate_roots", counting)
    sol = eigenpoints(tensor, seed=0)
    assert sol.certified
    # one call per solved level, P^1 included; every point but (0:...:0:1)
    # is a root of one of the eliminants
    assert len(degrees) == len(sol.charts_solved)
    last = sum(1 for p, _ in sol.points if not any(p.coords[:-1]))
    assert sum(degrees) + last == sol.expected


def test_p1_root_dropped_at_the_newton_cap(monkeypatch):
    from eigenpoints import unipoly

    monkeypatch.setattr(unipoly, "NEWTON_STEPS", 1)
    for seed in range(3):
        sol = eigenpoints(_restriction_degenerate_tensor(seed), seed=0)
        assert not sol.certified
        dropped = [d for d in sol.diagnostics if d.startswith("x0=0|P1: root near ")]
        assert len(dropped) == 2
        assert all(d.endswith("dropped: Newton did not converge in 1 steps") for d in dropped)
        on_h = [m for p, m in sol.points if p.as_complex()[0] == 0]
        assert sum(on_h) == 0


def test_fermat_golden_15(fermat_solution):
    sol = fermat_solution
    assert sol.certified
    assert sol.total_multiplicity == 15
    got = {tuple(str(c) for c in p.coords) for p, _ in sol.points}
    want = {tuple(str(c) for c in pt) for pt in FERMAT_15}
    assert got == want
    assert all(p.exact for p, _ in sol.points)


def test_fermat_chart_zero_contributes_eight(fermat_solution):
    in_chart = [p for p, _ in fermat_solution.points if p.coords[0] != 0]
    assert len(in_chart) == 8


def test_seeded_counts_small():
    for n, d in [(2, 3), (2, 4), (3, 3)]:
        t = random_tensor(n, d, seed=SEEDS[0])
        sol = eigenpoints(t, seed=0)
        assert sol.certified
        assert sol.total_multiplicity == expected_count(n, d)


def test_residuals_on_minors():
    t = random_tensor(3, 3, seed=SEEDS[1])
    sol = eigenpoints(t, seed=0)
    gens = minor_ideal_generators(EigenMatrix(t))
    for p, _ in sol.points:
        if p.exact:
            for g in gens:
                assert g.evaluate(list(p.coords)) == 0
        else:
            coords = list(p.as_complex())
            scale = max(abs(float(c)) for g in gens for c in g.terms.values())
            for g in gens:
                assert abs(complex(g.evaluate(coords))) <= 1e-8 * scale


def test_hoisted_residuals_match_evaluate():
    from eigenpoints.solver import _complex_residuals, _poly_scale

    t = random_tensor(2, 6, seed=SEEDS[0])
    sol = eigenpoints(t, seed=0)
    floating = [p for p, _ in sol.points if not p.exact]
    assert sol.certified and floating
    gens = minor_ideal_generators(EigenMatrix(t))
    for p in floating:
        coords = p.as_complex()
        for g, (gc, scale) in zip(gens, _complex_residuals(gens)):
            assert scale == _poly_scale(g)
            assert gc.evaluate(coords) == complex(g.evaluate(list(coords)))
    report = curve_membership_check(t, 0, 1, sol)
    worst = max(
        abs(complex(g.evaluate(list(p.as_complex())))) / _poly_scale(g)
        for deleted in (0, 1)
        for g in minor_ideal_generators(EigenMatrix(t, (deleted,)))
        for p in floating
    )
    assert report["max_residual"] == worst


def test_degenerate_tensor_flagged():
    h = random_form(4, 1, seed=1)
    t = degenerate_tensor(3, 3, h)
    sol = eigenpoints(t, seed=0)
    assert not sol.certified
    assert any("positive" in d for d in sol.diagnostics)


def test_scaling_invariance():
    t = random_tensor(3, 3, seed=SEEDS[2])
    sol1 = eigenpoints(t, seed=0)
    sol2 = eigenpoints(t.scale(rational(-7, 3)), seed=0)
    assert sol1.certified and sol2.certified
    assert sol1.point_set().same_set(sol2.point_set())


def test_shift_invariance_when_certified():
    from eigenpoints.tensors import degenerate_shift

    t = random_tensor(3, 3, seed=SEEDS[3])
    h = random_form(4, 1, seed=10)
    shifted = degenerate_shift(t, h)
    a = eigenpoints(t, seed=0)
    b = eigenpoints(shifted, seed=0)
    assert minor_ideal_generators(EigenMatrix(t)) == minor_ideal_generators(
        EigenMatrix(shifted)
    )
    if a.certified and b.certified:
        assert a.point_set().same_set(b.point_set())


def test_curve_membership_fermat(fermat_solution):
    t = fermat_tensor(3, 3).to_partial()
    report = curve_membership_check(t, 0, 1, fermat_solution)
    assert report["passes"]
    assert report["all_exact_zero"]


def test_joint_deleted_column_system_matches():
    # E(T) in the chart equals the joint zero set of the M_0 and M_1 minors
    t = random_tensor(3, 3, seed=SEEDS[4])
    sol = eigenpoints(t, seed=0)
    assert sol.certified
    joint = []
    for deleted in (0, 1):
        for g in minor_ideal_generators(EigenMatrix(t, (deleted,))):
            joint.append(g.dehomogenize(0))
    result = solve_zero_dimensional(joint[:3] + joint[3:])
    chart_points = {p.sort_key() for p, _ in sol.points if p.coords[0] != 0}
    got = set()
    for coords, _ in result.solutions:
        exact = all(not isinstance(c, complex) for c in coords)
        one = rational(1) if exact else 1.0 + 0j
        got.add(ProjectivePoint([one, *coords]).sort_key())
    assert got == chart_points


def test_solution_json_round_trip(fermat_solution):
    data = fermat_solution.to_json()
    back = EigenSolution.from_json(data)
    assert back.total_multiplicity == fermat_solution.total_multiplicity
    assert back.certified == fermat_solution.certified
    assert back.point_set().same_set(fermat_solution.point_set())


def test_real_only_filter():
    t = random_tensor(2, 3, seed=SEEDS[0])
    sol = eigenpoints(t, seed=0)
    real = sol.real_points()
    assert all(p.is_real() for p, _ in real)
    assert len(real) <= len(sol.points)


def test_large_n_guard():
    t = random_tensor(4, 2, seed=1)
    with pytest.raises(ValueError):
        eigenpoints(t, seed=0)


def test_order_two_classical_eigenvectors():
    # d = 2 is the matrix case: n+1 eigenpoints
    for n in (2, 3):
        t = random_tensor(n, 2, seed=5)
        sol = eigenpoints(t, seed=0)
        assert sol.certified
        assert sol.total_multiplicity == n + 1


def test_simple_coordinate_point_counted_once():
    # for this tensor the binary minor on the line x_0 = 0 vanishes to order
    # 2 at (0:0:1), yet the minors' Jacobian has rank 2 there: a simple point
    t = random_tensor(2, 7, 4)
    e2 = ProjectivePoint([rational(0), rational(0), rational(1)])
    for seed in range(2):
        sol = eigenpoints(t, seed=seed)
        assert sol.certified
        assert len(sol.points) == sol.total_multiplicity == 43
        assert [m for p, m in sol.points if p.same_point(e2)] == [1]


def test_cone_tensor_reports_non_reduced():
    # a cubic cone in P^3: the vertex is a non-reduced eigenpoint and the
    # total drops below the generic length; reported, never repaired
    from eigenpoints.tensors import SymmetricTensor

    f = Polynomial.from_text("1 * x0^3 + 1 * x1^3 + 1 * x2^3", 4)
    sol = eigenpoints(SymmetricTensor(f), seed=0)
    assert not sol.certified
    vertex = ProjectivePoint([rational(0), rational(0), rational(0), rational(1)])
    fat = [(p, m) for p, m in sol.points if m > 1]
    assert fat and fat[0][0].same_point(vertex)
    assert any("generic length" in d or "non-reduced" in d for d in sol.diagnostics)


def _restriction_degenerate_tensor(seed):
    # g_1 = x_1 x_2 + x_0 l_1, g_2 = x_2^2 + x_0 l_2: on x_0 = 0 the restricted
    # tensor (x_1 x_2, x_2^2) has every point of the line as an eigenpoint
    x = [Polynomial.variable(i, 3) for i in range(3)]
    l1 = random_form(3, 1, seed=100 + seed)
    l2 = random_form(3, 1, seed=200 + seed)
    g0 = random_form(3, 2, seed=300 + seed)
    return PartialSymTensor(2, 3, [g0, x[1] * x[2] + x[0] * l1, x[2] * x[2] + x[0] * l2])


def test_degenerate_restriction_solves_e_cap_h():
    # the level x_0 = 0 solves E ∩ H, the two zeros of g_0| on the line,
    # not the restricted tensor's eigenscheme, which is the whole line
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    for seed in range(2):
        t = _restriction_degenerate_tensor(seed)
        g1, g2 = (g.restrict_zero(0) for g in t.slices[1:])
        assert (x1 * g2 - x2 * g1).is_zero()
        sol = eigenpoints(t, seed=0)
        assert sol.certified, sol.diagnostics
        assert len(sol.points) == sol.total_multiplicity == 7
        assert sol.charts_solved == ["x0=1", "x0=0|P1"]
        on_h = [p for p, _ in sol.points if p.as_complex()[0] == 0]
        assert len(on_h) == 2
        for g in minor_ideal_generators(EigenMatrix(t)):
            scale = max(abs(float(c)) for c in g.terms.values())
            for p in on_h:
                assert abs(complex(g.evaluate(list(p.as_complex())))) < 1e-8 * scale


def test_line_level_takes_the_gcd_with_the_filters():
    x0, x1 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)

    def line(slices, filters):
        return _solve_projective(slices, filters, None, [], [], {}, "", None)

    # the binary minor of (x_0^2, x_0 x_1) vanishes; the filter leaves (1 : ±i)
    out = line([x0 * x0, x1 * x0], [x0 * x0 + x1 * x1])
    assert sorted(complex(c[1]).imag for c, _ in out) == [-1.0, 1.0]
    assert all(m == 1 for _, m in out)
    # (0:1) gets the least order of the forms there: the filter x_0^2 has
    # order 2 and no other zero on the line
    assert line([x0, x1], [x0 * x0]) == [((rational(0), rational(1)), 2)]
    # the minor x_0^3 of (x_0^2, x_0 x_1 + x_0^2) has order 3 at (0:1), the
    # filter x_0 x_1 order 1, and the filter's zero (1:0) is no eigenpoint
    assert line([x0 * x0, x0 * x1 + x0 * x0], [x0 * x1]) == [((rational(0), rational(1)), 1)]
    # no filter and a vanishing minor: the whole line
    assert line([x0, x1], []) is None
    # on P^0 the point survives only when no filter remains
    z = Polynomial.variable(0, 1)
    assert _solve_projective([z], [z], None, [], [], {}, "", None) == []
    assert _solve_projective([z], [], None, [], [], {}, "", None) == [((rational(1),), 1)]
