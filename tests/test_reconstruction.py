import random

import pytest

from eigenpoints import reconstruction as R
from eigenpoints.points import PointSet, ProjectivePoint
from eigenpoints.rationals import rational
from eigenpoints.solver import eigenpoints
from eigenpoints.tensors import fermat_tensor

from conftest import SEEDS, random_tensor


def _random_points(n, count, seed, box=20):
    rng = random.Random(seed)
    ps = PointSet(n)
    while len(ps) < count:
        coords = [rational(rng.randint(-box, box)) for _ in range(n + 1)]
        if any(c != 0 for c in coords):
            ps.add(ProjectivePoint(coords))
    return ps


def test_basis_dimension():
    basis = R.TensorSpaceBasis(3, 3)
    assert basis.block == 10  # C(5,3) monomials of degree 2 in 4 variables
    assert basis.dimension == 40
    t = fermat_tensor(3, 3).to_partial()
    v = basis.tensor_to_vector(t)
    assert basis.vector_to_tensor(v) == t


def test_single_coordinate_point_gives_n_conditions():
    p = ProjectivePoint([rational(1), rational(0), rational(0), rational(0)])
    m = R.containment_system([p], 3, 3)
    assert m.rows == 6
    assert m.rank() == 3  # conditions reduce to g_j(p) = 0 for j >= 1


def test_empty_point_set_kernel_is_everything():
    rep = R.eigenscheme_kernel([], 3, 3)
    assert rep.dimension == 40


def test_fermat_containment_shapes(fermat_solution):
    pts = fermat_solution.point_set()
    m = R.containment_system(pts, 3, 3)
    assert (m.rows, m.cols) == (90, 40)
    rep = R.eigenscheme_kernel(pts, 3, 3)
    # regression value fixed by the independent fraction-elimination oracle
    assert rep.dimension == 5
    assert rep.degenerate_dimension == 4
    assert rep.contains_proper_tensor
    assert R.in_kernel_span(rep, fermat_tensor(3, 3).to_partial())


def test_fermat_45x40_kernel_regression(fermat_solution):
    # first-column pairs only: 15 points x 3 pairs = 45 rows; the kernel
    # dimension 13 was frozen with a plain-Fraction elimination oracle
    from eigenpoints.exact_linalg import ExactMatrix
    from eigenpoints.rationals import ZERO

    pts = fermat_solution.point_set()
    basis = R.TensorSpaceBasis(3, 3)
    rows = []
    for p in pts:
        coords = list(p.coords)
        mono_vals = [R._mono_value(coords, m) for m in basis.monomials]
        for i, j in [(0, 1), (0, 2), (0, 3)]:
            row = [ZERO] * basis.dimension
            for k in range(basis.block):
                if mono_vals[k] == 0:
                    continue
                if coords[i] != 0:
                    row[basis.index(j, basis.monomials[k])] = coords[i] * mono_vals[k]
                if coords[j] != 0:
                    row[basis.index(i, basis.monomials[k])] -= coords[j] * mono_vals[k]
            rows.append(row)
    m = ExactMatrix(rows)
    assert (m.rows, m.cols) == (45, 40)
    assert len(m.right_kernel()) == 13


def test_degenerate_subspace_always_in_kernel():
    for seed in SEEDS[:2]:
        pts = _random_points(3, 7, seed)
        rep = R.eigenscheme_kernel(pts, 3, 3)
        for v in R.degenerate_subspace(3, 3):
            kernel_matrix = R.containment_system(pts, 3, 3)
            assert all(x == 0 for x in kernel_matrix.mul_vector(v))
        assert rep.dimension >= 4


def test_random_15_points_kernel_degenerate_only():
    pts = _random_points(3, 15, seed=3)
    rep = R.eigenscheme_kernel(pts, 3, 3)
    assert rep.dimension == 4
    assert not rep.contains_proper_tensor
    dec = R.is_eigenscheme(pts, 3, 3, seed=0)
    assert dec["decision"] == "NO"


def test_forty_generic_points_kernel_degenerate_only():
    pts = _random_points(3, 40, seed=4, box=30)
    rep = R.eigenscheme_kernel(pts, 3, 3)
    assert rep.dimension == 4


def test_kernel_monotone_under_point_addition():
    pts = list(_random_points(3, 12, seed=6))
    last = 40
    for k in range(1, 13):
        rep = R.eigenscheme_kernel(pts[:k], 3, 3)
        assert rep.dimension <= last
        last = rep.dimension


def test_fermat_symmetric_kernel(fermat_solution):
    pts = fermat_solution.point_set()
    rep = R.eigenscheme_kernel(pts, 3, 3, symmetric=True)
    assert rep.symmetric_subspace_dimension == rep.dimension
    assert R.in_kernel_span(rep, fermat_tensor(3, 3).to_partial())
    # every symmetric-kernel tensor is a gradient: exactness holds
    for v in rep.kernel_vectors:
        t = rep.basis.vector_to_tensor(v)
        for i in range(4):
            for j in range(i + 1, 4):
                lhs = t.slices[i].partial_derivative(j)
                rhs = t.slices[j].partial_derivative(i)
                assert lhs == rhs


def test_symmetric_euler_round_trip(fermat_solution):
    rep = R.eigenscheme_kernel(fermat_solution.point_set(), 3, 3, symmetric=True)
    t = rep.basis.vector_to_tensor(rep.kernel_vectors[0])
    sym = R.symmetric_form_from_tensor(t)
    assert sym.to_partial() == t


def test_is_eigenscheme_fermat_symmetric(fermat_solution):
    dec = R.is_eigenscheme(fermat_solution.point_set(), 3, 3, symmetric=True, seed=0)
    assert dec["decision"] == "YES"
    witness = dec["witness"]
    # witness slices are proportional to x_i^2
    scale = None
    for i, g in enumerate(witness.slices):
        mono = tuple(2 if k == i else 0 for k in range(4))
        assert set(g.terms) == {mono}
        if scale is None:
            scale = g.terms[mono]
        assert g.terms[mono] == scale


def test_symmetric_round_trip_floating_points():
    # a symmetric tensor with irrational eigenpoints: the numeric symmetric
    # kernel must rationalize and report the degenerate intersection (0 at
    # d = 3), so the decision machinery can reach YES
    from conftest import random_form
    from eigenpoints.tensors import SymmetricTensor

    t = SymmetricTensor(random_form(4, 3, seed=31))
    sol = eigenpoints(t, seed=0)
    assert sol.certified
    dec = R.is_eigenscheme(sol.point_set(), 3, 3, symmetric=True, seed=0)
    assert dec["decision"] == "YES"
    assert dec["kernel"]["degenerateDimension"] == 0
    w = dec["witness"]
    for i in range(4):
        for j in range(i + 1, 4):
            assert w.slices[i].partial_derivative(j) == w.slices[j].partial_derivative(i)


def test_floating_input_proves_no_no():
    # moving one floating coordinate by 1e-3 leaves a degenerate-only kernel
    # by an SVD rank at 1e-8; that rank proves nothing, so no NO
    pts = list(eigenpoints(random_tensor(3, 3, SEEDS[0]), seed=0).point_set())
    assert len(pts) == 15 and not pts[0].exact
    coords = list(pts[0].coords)
    coords[0] += 1e-3
    pts[0] = ProjectivePoint(coords)
    dec = R.is_eigenscheme(pts, 3, 3)
    assert not dec["kernel"]["containsProperTensor"]
    assert dec["kernel"]["numeric"]
    assert dec["decision"] == "UNDECIDED"
    assert any("numeric (SVD) rank" in diag for diag in dec["diagnostics"])


def test_round_trip_seeded():
    for n, d, seed in [(3, 3, SEEDS[0]), (2, 3, SEEDS[1]), (2, 4, SEEDS[2]), (2, 5, SEEDS[3])]:
        t = random_tensor(n, d, seed)
        sol = eigenpoints(t, seed=0)
        assert sol.certified
        dec = R.is_eigenscheme(sol.point_set(), n, d, seed=0)
        assert dec["decision"] == "YES"
        rep = R.eigenscheme_kernel(sol.point_set(), n, d)
        assert rep.exact_vectors_available
        assert R.in_kernel_span(rep, t)


def test_enlarge_ten_points():
    pts = _random_points(3, 10, seed=11, box=10)
    result = R.enlarge(pts, 3, seed=0)
    assert result["tensor"] is not None
    z = result["solution"].point_set()
    assert len(z) == 15
    assert pts.is_subset_of(z)


def test_enlarge_fermat_subset(fermat_solution):
    subset = PointSet(3)
    for p in list(fermat_solution.point_set())[:10]:
        subset.add(p)
    result = R.enlarge(subset, 3, seed=0)
    assert result["tensor"] is not None
    assert subset.is_subset_of(result["solution"].point_set())


def test_enlarge_bound_rejected():
    pts = _random_points(3, 11, seed=12)
    with pytest.raises(ValueError, match="bound is 10"):
        R.enlarge(pts, 3)


def test_enlarge_single_point():
    pts = _random_points(3, 1, seed=13)
    result = R.enlarge(pts, 3, seed=0)
    assert result["tensor"] is not None
    assert pts.is_subset_of(result["solution"].point_set())


def test_converse_hypothesis_report(fermat_solution):
    rep = R.converse_hypothesis_report(fermat_solution.point_set(), 3)
    assert rep["threshold"] == 14
    assert rep["degree_target"] == 7
    assert rep["genus_target"] == 5
    assert rep["condition1_holds"]


def test_converse_targets_d4():
    with pytest.raises(ValueError):
        R.converse_hypothesis_report(_random_points(3, 10, seed=1), 4)
    # formula spot checks at d = 4
    assert (4 - 1) * (4 * 4 - 4 + 1) == 39
    assert 4**3 - 7 * 4 * 3 // 2 - 1 == 21


def test_cardinality_mismatch_reported(fermat_solution):
    pts = list(fermat_solution.point_set())[:14]
    dec = R.is_eigenscheme(pts, 3, 3, seed=0)
    assert dec["decision"] in ("NO", "UNDECIDED")
    assert any("cardinality" in d for d in dec["diagnostics"])
