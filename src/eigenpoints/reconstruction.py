"""Reconstructing tensors from prescribed eigenpoint configurations.

Requiring the eigenscheme minors to vanish at given points is linear in
the tensor's coefficients, so all tensors whose eigenscheme contains a
point set form the kernel of an explicit matrix over the tensor-space
basis.  That kernel always contains the degenerate tensors (x_0 h, ...,
x_n h), which never move the minors; a configuration is an eigenscheme
precisely when some kernel element beyond that subspace forward-solves
to exactly the given points.  The same machinery embeds small general
point sets into full eigenschemes.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, lcm

import numpy as np

from .configuration import _mono_value, _monomials, subset_on_hypersurface
from .counts import expected_count
from .exact_linalg import ExactMatrix
from .groebner import EliminationError
from .multipoly import Polynomial
from .points import PointSet
from .rationals import ZERO, rational
from .solver import eigenpoints
from .tensors import PartialSymTensor, SymmetricTensor


class TensorSpaceBasis:
    """Coordinates on (n+1)-tuples of degree-(d-1) forms.

    Slice i occupies the block i*M..(i+1)*M-1 where M is the number of
    degree-(d-1) monomials in graded-lex descending order.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.monomials = _monomials(n + 1, d - 1)
        self.block = len(self.monomials)
        self.dimension = (n + 1) * self.block
        self._index = {m: k for k, m in enumerate(self.monomials)}

    def index(self, slice_i: int, mono: tuple) -> int:
        return slice_i * self.block + self._index[mono]

    def tensor_to_vector(self, t: PartialSymTensor):
        if (t.n, t.d) != (self.n, self.d):
            raise ValueError("tensor does not match this basis")
        v = [ZERO] * self.dimension
        for i, g in enumerate(t.slices):
            for mono, c in g.terms.items():
                v[self.index(i, mono)] = c
        return v

    def vector_to_tensor(self, v) -> PartialSymTensor:
        nv = self.n + 1
        slices = []
        for i in range(nv):
            terms = {}
            for k, mono in enumerate(self.monomials):
                c = v[i * self.block + k]
                if c != 0:
                    terms[mono] = c
            slices.append(Polynomial(nv, terms))
        return PartialSymTensor(self.n, self.d, slices)


class KernelReport:
    """Kernel of the point-containment conditions on tensor space.

    ``dimension`` is the kernel's dimension.  ``kernel_vectors``, its
    reduced-echelon basis, is either given or lifted through
    ``ExactMatrix.right_kernel`` the first time it is read: a NO proved from
    a modular image knows the dimension and never needs the vectors.
    """

    def __init__(
        self,
        basis,
        dimension,
        degenerate_dim,
        symmetric,
        vectors,
        numeric=False,
        rationalized=False,
    ):
        self.basis = basis
        self.dimension = dimension
        # a list of vectors, or the zero-argument call that lifts them
        self._vectors = vectors
        self.degenerate_dimension = degenerate_dim
        self.contains_proper_tensor = dimension > degenerate_dim
        self.symmetric = symmetric
        self.symmetric_subspace_dimension = dimension if symmetric else None
        self.numeric = numeric
        # numeric kernels of real configurations are rational subspaces;
        # when the echelon basis rationalizes and re-verifies, exact
        # operations (membership, witness draws) become available
        self.rationalized = rationalized

    @property
    def kernel_vectors(self):
        if callable(self._vectors):
            self._vectors = self._vectors()
        return self._vectors

    @property
    def exact_vectors_available(self) -> bool:
        return not self.numeric or self.rationalized

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "degenerateDimension": self.degenerate_dimension,
            "containsProperTensor": self.contains_proper_tensor,
            "symmetric": self.symmetric,
            "symmetricSubspaceDimension": self.symmetric_subspace_dimension,
            "numeric": self.numeric,
            "rationalized": self.rationalized,
        }


def containment_system(points, n: int, d: int) -> ExactMatrix:
    """The conditions that the minors vanish at the points, as an int matrix.

    The kernel of this matrix is the space of tensors whose eigenscheme
    contains every given point.  Exact rational coordinates required.

    A point x with first nonzero coordinate x_k gives the n rows
    x_k g_j(x) - x_j g_k(x), j != k, linear in the coefficients of the
    slices g.  They span every minor x_i g_j - x_j g_i at x, since

        x_k (x_i g_j - x_j g_i) = x_i (x_k g_j - x_j g_k) - x_j (x_k g_i - x_i g_k)

    and x_k != 0.  Each point is first scaled by the lcm of its
    denominators, lambda: x_k g_j(x) - x_j g_k(x) is homogeneous of degree
    d in x, so every row of the point is multiplied by lambda^d != 0 and
    the kernel does not change.  The rows are then built in ints.
    """
    basis = TensorSpaceBasis(n, d)
    block = basis.block
    rows = []
    for p in _point_list(points, n):
        if not p.exact:
            raise ValueError("containment_system needs exact rational points")
        scale = lcm(*(int(c.denominator) for c in p.coords))
        x = [int(c.numerator) * (scale // int(c.denominator)) for c in p.coords]
        k = next(i for i, c in enumerate(x) if c)
        mono_vals = [_mono_value(x, m) for m in basis.monomials]
        lead = [x[k] * v for v in mono_vals]
        for j in range(n + 1):
            if j == k:
                continue
            row = [0] * basis.dimension
            row[j * block : (j + 1) * block] = lead
            row[k * block : (k + 1) * block] = [-x[j] * v for v in mono_vals]
            rows.append(row)
    if not rows:
        # no conditions: the kernel is all of tensor space
        rows = [[0] * basis.dimension]
    return ExactMatrix(rows)


def _point_list(points, n):
    if isinstance(points, PointSet) and points.n != n:
        raise ValueError("point set has wrong ambient dimension")
    pts = list(points)
    if any(p.n != n for p in pts):
        raise ValueError("point has wrong ambient dimension")
    return pts


def degenerate_subspace(n: int, d: int):
    """Vectors of the tensors (x_0 h, ..., x_n h), h of degree d-2."""
    basis = TensorSpaceBasis(n, d)
    out = []
    nv = n + 1
    for h_mono in _monomials(nv, d - 2):
        v = [0] * basis.dimension
        for i in range(nv):
            mono = tuple(e + (1 if k == i else 0) for k, e in enumerate(h_mono))
            v[basis.index(i, mono)] = 1
        out.append(v)
    return out


def degenerate_dimension(n: int, d: int, symmetric: bool = False) -> int:
    """The dimension of the degenerate tensors, or of those that are gradients.

    The tensors (x_0 h, ..., x_n h) form a space of dimension C(n+d-2, n).
    One is the gradient of f exactly when h = c q^((d-2)/2), q = sum x_i^2,
    so the symmetric dimension is 1 for even d and 0 for odd d.  By the
    Euler relation d f = q h, and d_i f = x_i h then gives
    q d_i h = (d-2) x_i h.  For d > 2 and h != 0, q is irreducible in n+1 >= 3
    variables and divides x_i h, so h = q h' where h' satisfies the same
    relation for d-2; at degree 1 it would factor q, so h = 0 for odd d.
    Conversely q^(d/2) is the f of even d.
    """
    if symmetric:
        return 1 - d % 2
    return comb(n + d - 2, n)


def _symmetry_rows(basis: TensorSpaceBasis):
    """Exactness conditions d_j g_i = d_i g_j as rows over tensor space."""
    n, d = basis.n, basis.d
    nv = n + 1
    rows = []
    for i, j in combinations(range(nv), 2):
        for mu in _monomials(nv, d - 2):
            row = [0] * basis.dimension
            m_i = tuple(e + (1 if k == j else 0) for k, e in enumerate(mu))
            m_j = tuple(e + (1 if k == i else 0) for k, e in enumerate(mu))
            row[basis.index(i, m_i)] = mu[j] + 1
            row[basis.index(j, m_j)] -= mu[i] + 1
            rows.append(row)
    return rows


def eigenscheme_kernel(points, n: int, d: int, symmetric: bool = False) -> KernelReport:
    """All tensors whose eigenscheme contains the points, as a kernel report.

    With the symmetric flag the kernel is intersected with the exactness
    subspace (tuples that are gradients); the degenerate dimension is then
    the dimension of the degenerate tensors that are gradients.

    The degenerate tensors always lie in the kernel, and the rank of one
    modular image is at most the rank over Q.  So when the image leaves a
    kernel of the degenerate dimension, that is the kernel's dimension, and
    the vectors are lifted only if they are read.  Otherwise the kernel is
    lifted at once.
    """
    pts = _point_list(points, n)
    basis = TensorSpaceBasis(n, d)
    if pts and not all(p.exact for p in pts):
        return _numeric_kernel(pts, basis, symmetric)
    matrix = containment_system(pts, n, d)
    if symmetric:
        matrix = ExactMatrix(matrix.entries + _symmetry_rows(basis))
    degenerate_dim = degenerate_dimension(n, d, symmetric)
    if matrix.cols - matrix.rank_bound() == degenerate_dim:
        return KernelReport(basis, degenerate_dim, degenerate_dim, symmetric, matrix.right_kernel)
    kernel = matrix.right_kernel()
    return KernelReport(basis, len(kernel), degenerate_dim, symmetric, kernel)


def _numeric_kernel(pts, basis: TensorSpaceBasis, symmetric: bool) -> KernelReport:
    """Floating-point mirror: SVD rank decisions, flagged numeric.

    A real configuration's kernel is a subspace defined over Q, so its
    reduced row echelon basis has rational entries; we recover them by
    continued fractions and re-verify against the matrix.  When that
    succeeds the report carries exact vectors despite the numeric route.
    """
    n, d = basis.n, basis.d
    rows = []
    for p in pts:
        coords = list(p.as_complex())
        mono_vals = [_mono_value(coords, m) for m in basis.monomials]
        for i, j in combinations(range(n + 1), 2):
            row = [0j] * basis.dimension
            for k in range(basis.block):
                row[basis.index(j, basis.monomials[k])] = coords[i] * mono_vals[k]
                row[basis.index(i, basis.monomials[k])] = -coords[j] * mono_vals[k]
            rows.append(row)
    if symmetric:
        for row in _symmetry_rows(basis):
            rows.append([complex(x) for x in row])
    m = np.array(rows, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    tol = 1e-8 * (s[0] if len(s) and s[0] > 0 else 1.0)
    rank = int(np.sum(s > tol))
    kernel = [vh[k].conj() for k in range(rank, vh.shape[0])]
    rational_kernel = _rationalize_kernel(kernel, m) if kernel else []
    degenerate_dim = degenerate_dimension(n, d, symmetric)
    if rational_kernel:
        return KernelReport(
            basis,
            len(rational_kernel),
            degenerate_dim,
            symmetric,
            rational_kernel,
            numeric=True,
            rationalized=True,
        )
    return KernelReport(
        basis, len(kernel), degenerate_dim, symmetric, [list(v) for v in kernel], numeric=True
    )


def _rationalize_kernel(kernel, matrix, den_bound: int = 10**6, tol: float = 1e-6):
    """Rational reduced-echelon basis of a numerically computed kernel."""
    from fractions import Fraction

    rows = [np.array(v, dtype=complex) for v in kernel]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = max(range(r, len(rows)), key=lambda k: abs(rows[k][c]))
        if abs(rows[pivot_row][c]) < 1e-9:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = rows[r] / rows[r][c]
        for k in range(len(rows)):
            if k != r and abs(rows[k][c]) > 1e-14:
                rows[k] = rows[k] - rows[k][c] * rows[r]
        pivots.append(c)
        r += 1
    out = []
    scale = float(np.max(np.abs(matrix))) or 1.0
    for row in rows[:r]:
        vec = []
        for z in row:
            z = complex(z)
            if abs(z.imag) > tol:
                return None
            fr = Fraction(z.real).limit_denominator(den_bound)
            if abs(z.real - float(fr)) > tol:
                return None
            vec.append(rational(fr.numerator, fr.denominator))
        residual = np.max(np.abs(matrix @ np.array([float(x) for x in vec])))
        if residual > 1e-6 * scale * max(1.0, float(max(abs(x) for x in vec))):
            return None
        out.append(vec)
    return out


def in_kernel_span(report: KernelReport, tensor: PartialSymTensor) -> bool:
    """Exact membership of a tensor in the kernel span."""
    if not report.kernel_vectors:
        return False
    rows = list(report.kernel_vectors) + [report.basis.tensor_to_vector(tensor)]
    return ExactMatrix(rows).transpose().rank() == len(report.kernel_vectors)


def _complement_vectors(report: KernelReport):
    """Kernel basis vectors extending the degenerate subspace.

    The degenerate vectors, then the kernel vectors, are the columns of one
    modular image (``ExactMatrix.independent_rows``).  The degenerate ones
    have disjoint supports, so they are pivots modulo every prime; the first
    dimension - degenerate_dimension kernel pivots after them, the greedy
    choice over Q in a lucky image, are the complement.  With ``symmetric``
    not every degenerate tensor is in the kernel, and on floating input the
    rounded kernel vectors may pass that rank, so the image need only reach it.
    """
    degenerate = degenerate_subspace(report.basis.n, report.basis.d)
    vectors = report.kernel_vectors
    start = len(degenerate)
    stop = start + report.dimension - report.degenerate_dimension
    picked = ExactMatrix(degenerate + vectors).independent_rows(stop)
    return [vectors[k - start] for k in picked[start:stop]]


def symmetric_form_from_tensor(t: PartialSymTensor) -> SymmetricTensor:
    """Recover f with grad f = slices via the Euler relation; verifies exactness."""
    nv = t.n + 1
    total = Polynomial.zero(nv)
    for i in range(nv):
        total = total + Polynomial.variable(i, nv) * t.slices[i]
    f = total * rational(1, t.d)
    for i in range(nv):
        if f.partial_derivative(i) != t.slices[i]:
            raise ValueError("tensor is not a gradient: exactness fails")
    return SymmetricTensor(f)


def is_eigenscheme(
    points,
    n: int,
    d: int,
    symmetric: bool = False,
    seed: int = 0,
    retries: int = 8,
) -> dict:
    """Decide whether a point set is exactly the eigenscheme of some tensor.

    YES requires a verified witness: a random kernel element beyond the
    degenerate subspace whose forward solve certifies and reproduces the
    input exactly.  NO is returned when the exact kernel is degenerate-only,
    which its dimension alone proves: mostly from one modular image, with
    no kernel vector lifted (``eigenscheme_kernel``).  On floating input the
    kernel dimension is a numeric rank, which proves no NO.  Everything else
    is UNDECIDED, with diagnostics.
    """
    pts = _point_list(points, n)
    report = eigenscheme_kernel(pts, n, d, symmetric)
    expected = expected_count(n, d)
    out = {
        "decision": "UNDECIDED",
        "witness": None,
        "kernel": report.to_json(),
        "seeds_used": [],
        "diagnostics": [],
        "expected": expected,
        "count": len(pts),
    }
    if len(pts) != expected:
        out["diagnostics"].append(
            f"cardinality {len(pts)} differs from the generic length {expected}"
        )
    if report.numeric:
        out["diagnostics"].append(
            "floating input: kernel rationalized from the numeric echelon"
            if report.rationalized
            else "floating input: numeric kernel, no certification"
        )
    if report.contains_proper_tensor:
        if len(pts) != expected or not report.exact_vectors_available:
            return out
        complement = _complement_vectors(report)
    else:
        complement = []
    if not complement:
        if report.numeric:
            out["diagnostics"].append(
                "no NO decision: the kernel dimension is a numeric (SVD) rank, not a proof"
            )
        else:
            out["decision"] = "NO"
        return out
    target = PointSet(n)
    for p in pts:
        target.add(p)
    witness, solution = _draw_witness(
        report,
        complement,
        seed,
        retries,
        lambda solution: solution.certified and solution.point_set().same_set(target),
        out,
    )
    if witness is None:
        out["diagnostics"].append("no draw certified and reproduced the input")
        return out
    out["decision"] = "YES"
    out["witness"] = witness
    out["solution"] = solution
    return out


def _draw_witness(report: KernelReport, complement, seed: int, retries: int, accept, out: dict):
    """Forward-solve random kernel elements beyond the degenerate subspace.

    Draw k combines the complement vectors with coefficients from the k-th
    seed of ``random.Random(seed)``, which ``out["seeds_used"]`` records and
    the solve uses too.  Returns the first (witness, solution) whose
    solution ``accept`` takes, or (None, None) after ``retries`` draws; each
    rejected solve adds a diagnostic to ``out``.  A solve that raises
    EliminationError (no checked elimination within the prime budget) is a
    rejected draw, not a failure of the decision.
    """
    rng = random.Random(seed)
    for attempt in range(retries):
        draw_seed = rng.randint(0, 2**32 - 1)
        out["seeds_used"].append(draw_seed)
        draw_rng = random.Random(draw_seed)
        vec = [ZERO] * report.basis.dimension
        for v in complement:
            c = rational(draw_rng.randint(-5, 5))
            if c == 0:
                c = rational(1)
            vec = [a + c * b for a, b in zip(vec, v)]
        try:
            witness = report.basis.vector_to_tensor(vec)
        except ValueError:
            continue
        if witness.is_zero():
            continue
        try:
            solution = eigenpoints(witness, seed=draw_seed)
        except EliminationError as exc:
            out["diagnostics"].append(f"draw {attempt}: elimination error: {exc}")
            continue
        if accept(solution):
            return witness, solution
        out["diagnostics"].append(
            f"draw {attempt}: certified={solution.certified},"
            f" count={solution.total_multiplicity}"
        )
    return None, None


def enlarge(points, d: int, seed: int = 0, retries: int = 8) -> dict:
    """Embed a small general point set W in P^3 into a full eigenscheme.

    Enforces the counting bound k <= C(d-1,3) + 3 C(d,2) + 1, then samples
    kernel elements beyond the degenerate subspace until a forward solve
    certifies with the full expected length and contains W exactly.
    """
    n = 3
    pts = _point_list(points, n)
    k = len(pts)
    bound = comb(d - 1, 3) + 3 * comb(d, 2) + 1
    if k > bound:
        raise ValueError(f"{k} points exceed the enlargement bound; bound is {bound}")
    report = eigenscheme_kernel(pts, n, d, symmetric=False)
    out = {
        "bound": bound,
        "kernel": report.to_json(),
        "seeds_used": [],
        "diagnostics": [],
        "tensor": None,
        "solution": None,
    }
    if not report.contains_proper_tensor:
        out["diagnostics"].append("kernel reduces to the degenerate subspace")
        return out
    if not report.exact_vectors_available:
        out["diagnostics"].append("floating input: numeric kernel, no certification")
        return out
    complement = _complement_vectors(report)
    expected = expected_count(n, d)
    w_set = PointSet(n)
    for p in pts:
        w_set.add(p)
    out["tensor"], out["solution"] = _draw_witness(
        report,
        complement,
        seed,
        retries,
        lambda solution: solution.certified
        and solution.total_multiplicity == expected
        and w_set.is_subset_of(solution.point_set()),
        out,
    )
    if out["tensor"] is None:
        out["diagnostics"].append("all retries failed to certify an enlargement")
    return out


def converse_hypothesis_report(points, d: int, enumeration_cap: int = 10**6) -> dict:
    """Check hypothesis (1) of the planarity-free converse and report targets.

    Condition (1): no (d-1)(d^2-d+1) points on a surface of degree d-1.
    The curve-side conditions (2)-(4) are not decidable from a point list;
    their target degree d^2-d+1 and genus d^3 - 7d(d-1)/2 - 1 are reported
    as values a complete-intersection presentation must attain.
    """
    n = 3
    pts = _point_list(points, n)
    expected = expected_count(n, d)
    if len(pts) != expected:
        raise ValueError(f"need exactly {expected} points, got {len(pts)}")
    threshold = (d - 1) * (d * d - d + 1)
    ps = PointSet(n)
    for p in pts:
        ps.add(p)
    rep = subset_on_hypersurface(ps, d - 1, threshold, enumeration_cap)
    return {
        "d": d,
        "threshold": threshold,
        "condition1_holds": not rep.found,
        "offending_subset": rep.witness if rep.found else None,
        "degree_target": d * d - d + 1,
        "genus_target": d**3 - 7 * d * (d - 1) // 2 - 1,
        "numeric": rep.numeric,
    }
