import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

from eigenpoints import modular
from eigenpoints import reconstruction as R
from eigenpoints.exact_linalg import ExactMatrix
from eigenpoints.groebner import EliminationError
from eigenpoints.points import PointSet, ProjectivePoint
from eigenpoints.rationals import rational
from eigenpoints.solver import eigenpoints
from eigenpoints.tensors import fermat_tensor

from conftest import FERMAT_15, SEEDS, random_tensor


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
    assert m.rows == 3  # n rows per point
    assert m.rank() == 3  # conditions reduce to g_j(p) = 0 for j >= 1


def test_empty_point_set_kernel_is_everything():
    rep = R.eigenscheme_kernel([], 3, 3)
    assert rep.dimension == 40


def test_fermat_containment_shapes(fermat_solution):
    pts = fermat_solution.point_set()
    m = R.containment_system(pts, 3, 3)
    assert (m.rows, m.cols) == (45, 40)  # n = 3 rows per point
    rep = R.eigenscheme_kernel(pts, 3, 3)
    # regression value fixed by the independent fraction-elimination oracle
    assert rep.dimension == 5
    assert rep.degenerate_dimension == 4
    assert rep.contains_proper_tensor
    assert R.in_kernel_span(rep, fermat_tensor(3, 3).to_partial())


def _all_pairs_fraction_rows(points, n, d, symmetric):
    """The containment matrix built another way, as an oracle.

    Column t holds the basis tensor with a single 1 at coordinate t.  At
    every point, every column pair i < j gives the row of minors
    x_i g_j - x_j g_i, evaluated in Fraction arithmetic from the tensor's
    slices; with ``symmetric``, the coefficients of d_j g_i - d_i g_j follow.
    """
    basis = R.TensorSpaceBasis(n, d)
    units = [
        basis.vector_to_tensor([Fraction(int(k == t)) for k in range(basis.dimension)])
        for t in range(basis.dimension)
    ]
    rows = []
    for p in points:
        x = [Fraction(c) for c in p.coords]
        values = [[g.evaluate(x) for g in u.slices] for u in units]
        for i, j in combinations(range(n + 1), 2):
            rows.append([x[i] * v[j] - x[j] * v[i] for v in values])
    if symmetric:
        for i, j in combinations(range(n + 1), 2):
            cols = [
                (u.slices[i].partial_derivative(j) - u.slices[j].partial_derivative(i)).terms
                for u in units
            ]
            for mono in sorted(set().union(*cols)):
                rows.append([Fraction(c.get(mono, 0)) for c in cols])
    return rows


def _rational_points(n, count, seed):
    """Seeded points with small fractional coordinates, a third of them at x_0 = 0."""
    rng = random.Random(seed)
    ps = PointSet(n)
    while len(ps) < count:
        coords = [rational(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n + 1)]
        if len(ps) % 3 == 2:
            coords[0] = rational(0)
        if any(c != 0 for c in coords):
            ps.add(ProjectivePoint(coords))
    return ps


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize(
    "n, d, count",
    [(2, 3, 3), (2, 3, 4), (2, 4, 9), (3, 3, 5), (3, 3, 6), (3, 4, 14)],
)
def test_kernel_equals_the_all_pairs_fraction_kernel(n, d, count, symmetric):
    pts = _rational_points(n, count, seed=100 * n + 10 * d + count)
    assert any(p.coords[0] == 0 for p in pts)
    assert any(c.denominator > 1 for p in pts for c in p.coords)
    oracle = ExactMatrix(_all_pairs_fraction_rows(pts, n, d, symmetric)).right_kernel()
    rep = R.eigenscheme_kernel(pts, n, d, symmetric=symmetric)
    assert rep.kernel_vectors == oracle


@pytest.mark.parametrize("n, d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5)])
def test_degenerate_dimension_is_the_exact_intersection(n, d):
    # the degenerate tensors that are gradients, from the rank of the
    # degenerate subspace stacked with the gradients (the symmetry kernel)
    gradients = ExactMatrix(R._symmetry_rows(R.TensorSpaceBasis(n, d))).right_kernel()
    degenerate = R.degenerate_subspace(n, d)
    union = ExactMatrix(degenerate + gradients).rank()
    assert R.degenerate_dimension(n, d) == len(degenerate)
    assert R.degenerate_dimension(n, d, symmetric=True) == len(degenerate) + len(gradients) - union


@pytest.mark.parametrize("symmetric", [False, True])
def test_no_needs_no_lift(kernel_calls, symmetric):
    pts = _random_points(3, 40, seed=4, box=25)
    dec = R.is_eigenscheme(pts, 3, 4, symmetric=symmetric)
    assert kernel_calls == []
    # the decision and the kernel report as before the image proved them
    assert dec["decision"] == "NO"
    assert dec["seeds_used"] == [] and dec["diagnostics"] == []
    assert dec["kernel"] == {
        "dimension": 1 if symmetric else 10,
        "degenerateDimension": 1 if symmetric else 10,
        "containsProperTensor": False,
        "symmetric": symmetric,
        "symmetricSubspaceDimension": 1 if symmetric else None,
        "numeric": False,
        "rationalized": False,
    }
    # the vectors are lifted once, when first read
    rep = R.eigenscheme_kernel(pts, 3, 4, symmetric=symmetric)
    assert kernel_calls == []
    vectors = rep.kernel_vectors
    assert len(vectors) == rep.dimension
    assert rep.kernel_vectors is vectors and len(kernel_calls) == 1


def _nudged_fermat_points(q):
    """The Fermat (3,3) eigenpoints with (1,1,1,1) moved to (1,1,1,1+q): no
    proper tensor over Q, the Fermat set modulo q."""
    coords = FERMAT_15[:-1] + [(1, 1, 1, 1 + q)]
    return [ProjectivePoint([rational(x) for x in c]) for c in coords]


@pytest.mark.parametrize("symmetric", [False, True])
def test_unlucky_first_prime_keeps_the_decision_and_the_kernel(
    monkeypatch, kernel_calls, symmetric
):
    bad = 1_000_003
    pts = _nudged_fermat_points(bad)
    rows = R.containment_system(pts, 3, 3).entries
    if symmetric:
        rows = rows + R._symmetry_rows(R.TensorSpaceBasis(3, 3))
    matrix = ExactMatrix(rows)
    rank = matrix.rank()
    reference = R.eigenscheme_kernel(pts, 3, 3, symmetric)
    vectors = reference.kernel_vectors
    decision = R.is_eigenscheme(pts, 3, 3, symmetric=symmetric)
    assert decision["decision"] == "NO"
    assert reference.dimension == len(vectors) == matrix.cols - rank
    primes = modular._primes
    monkeypatch.setattr(modular, "_primes", lambda bits: chain([bad], primes(bits)))
    # the first prime under-ranks, so the image proves nothing
    assert matrix.rank_bound() < rank
    lifts = len(kernel_calls)
    rep = R.eigenscheme_kernel(pts, 3, 3, symmetric)
    assert len(kernel_calls) == lifts + 1
    assert rep.to_json() == reference.to_json()
    assert rep.kernel_vectors == vectors
    assert R.is_eigenscheme(pts, 3, 3, symmetric=symmetric) == decision


def test_containment_system_builds_in_ints(monkeypatch):
    pts = _random_points(3, 40, seed=21, box=25)
    made = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    m = R.containment_system(pts, 3, 4)
    monkeypatch.undo()
    assert made == []
    assert (m.rows, m.cols) == (3 * 40, 80)
    assert all(type(x) is int for row in m.entries for x in row)


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


def test_enlarge_floating_input_reports_a_failed_solve():
    # the rationalized kernel of ten random floating points gives a witness
    # whose solve finds no checked eliminant: a rejected draw, not an error
    rng = random.Random(3)
    pts = [ProjectivePoint([rng.uniform(-1, 1) for _ in range(4)]) for _ in range(10)]
    result = R.enlarge(pts, 3, seed=0, retries=1)
    assert result["tensor"] is None
    assert result["diagnostics"][0].startswith("draw 0: elimination error")


def test_enlarge_floating_points_past_the_target_rank():
    # five floating points: the kernel's echelon pivots spread over several
    # blocks, so the rounded vectors do not span the degenerate tensors
    # exactly and the columns' rank passes the target; the complement keeps
    # the first dimension - degenerate_dimension kernel pivots
    rng = random.Random(2)
    pts = [ProjectivePoint([rng.uniform(-1, 1) for _ in range(4)]) for _ in range(5)]
    report = R.eigenscheme_kernel(pts, 3, 3)
    assert report.rationalized
    degenerate = R.degenerate_subspace(3, 3)
    need = report.dimension - report.degenerate_dimension
    columns = ExactMatrix(degenerate + report.kernel_vectors).transpose()
    assert columns.rank_bound() > len(degenerate) + need
    complement = R._complement_vectors(report)
    assert len(complement) == need
    assert ExactMatrix(degenerate + complement).transpose().rank() == len(degenerate) + need
    result = R.enlarge(pts, 3, seed=0, retries=1)
    assert result["seeds_used"] and result["diagnostics"]


def _complex_points(count, seed=3):
    rng = random.Random(seed)
    return [
        ProjectivePoint([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)])
        for _ in range(count)
    ]


def test_enlarge_numeric_kernel_reports():
    # complex floating points: the numeric kernel does not rationalize, so
    # there are no exact vectors to draw a witness from
    result = R.enlarge(_complex_points(10), 3, seed=0, retries=1)
    assert result["kernel"]["numeric"] and not result["kernel"]["rationalized"]
    assert result["tensor"] is None and result["seeds_used"] == []
    assert result["diagnostics"] == ["floating input: numeric kernel, no certification"]


@pytest.mark.parametrize("symmetric", [False, True])
def test_is_eigenscheme_numeric_kernel_is_undecided(symmetric):
    # four complex points of P^3 leave a kernel beyond the degenerate
    # tensors, numerically (with the symmetric flag, past the degenerate
    # intersection's SVD), and it does not rationalize
    dec = R.is_eigenscheme(_complex_points(4), 3, 3, symmetric=symmetric)
    kernel = dec["kernel"]
    assert kernel["numeric"] and not kernel["rationalized"]
    assert kernel["containsProperTensor"]
    assert kernel["dimension"] == (8 if symmetric else 28)
    assert kernel["degenerateDimension"] == (0 if symmetric else 4)
    assert dec["decision"] == "UNDECIDED" and dec["witness"] is None
    assert "floating input: numeric kernel, no certification" in dec["diagnostics"]


def test_elimination_error_is_a_rejected_draw(fermat_solution, monkeypatch):
    def failing_solve(t, seed=0):
        raise EliminationError("no checked eliminant within the prime budget")

    monkeypatch.setattr(R, "eigenpoints", failing_solve)
    dec = R.is_eigenscheme(fermat_solution.point_set(), 3, 3, seed=0, retries=2)
    assert dec["decision"] == "UNDECIDED"
    assert len(dec["seeds_used"]) == 2
    assert dec["diagnostics"][:2] == [
        f"draw {k}: elimination error: no checked eliminant within the prime budget"
        for k in range(2)
    ]


def test_enlarge_bound_rejected():
    pts = _random_points(3, 11, seed=12)
    with pytest.raises(ValueError, match="bound is 10"):
        R.enlarge(pts, 3)


@pytest.mark.parametrize("n", [4, 2])
def test_point_list_of_wrong_dimension_rejected(n):
    # a plain list is checked point by point, as a PointSet is: otherwise
    # points of P^4 lose a coordinate against the monomials of P^3 and the
    # kernel decides NO, and points of P^2 run out of coordinates
    pts = list(_random_points(n, 15, seed=14))
    for call in (
        lambda: R.eigenscheme_kernel(pts, 3, 3),
        lambda: R.is_eigenscheme(pts, 3, 3),
        lambda: R.enlarge(pts[:10], 3),
    ):
        with pytest.raises(ValueError, match="point has wrong ambient dimension"):
            call()


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


def _greedy_exact_complement(report):
    # the selection with the exact rank at every trial
    rows = R.degenerate_subspace(report.basis.n, report.basis.d)
    complement = []
    for v in report.kernel_vectors:
        trial = rows + [list(v)]
        if ExactMatrix(trial).transpose().rank() == len(trial):
            rows = trial
            complement.append(v)
    return complement


@pytest.fixture(scope="module")
def complement_reports():
    """Kernel reports with a proper tensor, their kernels already lifted.

    The (3,3) YES sets, the 10-point enlarge sets, and the symmetric reports
    of the Fermat (3,3) and (3,4) points, where not every degenerate tensor
    lies in the kernel.
    """
    yes_sets = [eigenpoints(random_tensor(3, 3, s), seed=0).point_set() for s in SEEDS]
    enlarge_sets = [_random_points(3, 10, s, box=10) for s in SEEDS]
    reports = [R.eigenscheme_kernel(pts, 3, 3) for pts in yes_sets + enlarge_sets]
    for d in (3, 4):
        pts = eigenpoints(fermat_tensor(3, d), seed=0).point_set()
        reports.append(R.eigenscheme_kernel(pts, 3, d, symmetric=True))
    for report in reports:
        assert report.exact_vectors_available and report.contains_proper_tensor
        report.kernel_vectors
    return reports


def test_complement_vectors_lift_no_kernel(kernel_calls, complement_reports):
    for report in complement_reports:
        del kernel_calls[:]
        complement = R._complement_vectors(report)
        assert kernel_calls == []
        assert len(complement) == report.dimension - report.degenerate_dimension
        assert complement == _greedy_exact_complement(report)


def test_complement_vectors_take_one_image(monkeypatch, complement_reports):
    # the degenerate and kernel vectors are the columns of one image
    rref, images = modular._rref_mod, []

    def counting(a, q):
        images.append(a.shape)
        return rref(a, q)

    monkeypatch.setattr(modular, "_rref_mod", counting)
    for report in complement_reports:
        del images[:]
        R._complement_vectors(report)
        columns = len(R.degenerate_subspace(3, report.basis.d)) + report.dimension
        assert images == [(report.basis.dimension, columns)]


def test_complement_vectors_recover_from_an_unlucky_image(monkeypatch):
    # the first image loses a pivot, so it is short of the target rank and
    # the next prime picks the complement
    pts = _random_points(3, 10, SEEDS[0], box=10)
    report = R.eigenscheme_kernel(pts, 3, 3)
    expected = _greedy_exact_complement(report)
    rref, primes = modular._rref_mod, []

    def losing_first(a, q):
        primes.append(q)
        pivots = rref(a, q)
        return pivots[:-1] if len(primes) == 1 else pivots

    monkeypatch.setattr(modular, "_rref_mod", losing_first)
    assert R._complement_vectors(report) == expected
    assert len(primes) == 2 and primes[0] != primes[1]
    # with one prime allowed, the unlucky image is the last
    del primes[:]
    monkeypatch.setattr(modular, "_PRIME_BUDGET", 1)
    with pytest.raises(ArithmeticError):
        R._complement_vectors(report)
