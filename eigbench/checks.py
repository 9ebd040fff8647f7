"""Output checks computed apart from the solver.

The checks rebuild every 2x2 minor x_i g_j - x_j g_i from the tensor's
coefficients and evaluate it on their own: exactly (Fractions) at rational
points, in floating point at the others.  They read the program's outputs
(points, multiplicities, decisions, witness coefficients) but call none of
its functions.  Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np

# a floating minor value passes below this share of the minors' coefficient scale
RESIDUAL_TOL = 1e-8
# two points are the same when their unit-vector cross products are below this
SAME_POINT_TOL = 1e-8
# NO decisions: the containment rank is taken modulo this prime.  Products of
# two residues stay below 2**62, inside int64.
PRIME = 2**31 - 1


class CheckFailed(Exception):
    pass


def generic_length(n: int, d: int) -> int:
    """Number of eigenpoints of a general (n, d) tensor: sum of (d-1)^i."""
    return sum((d - 1) ** i for i in range(n + 1))


def is_exact(coords) -> bool:
    return not any(isinstance(c, (complex, float)) for c in coords)


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _bump(exp: tuple, i: int) -> tuple:
    return tuple(e + 1 if k == i else e for k, e in enumerate(exp))


class TensorMinors:
    """The 2x2 minors of a tensor given as n+1 dicts exponent -> coefficient."""

    def __init__(self, slices):
        self.exact = [{e: _fraction(c) for e, c in g.items()} for g in slices]
        self.floats = [{e: float(c) for e, c in g.items()} for g in self.exact]
        self.nv = len(slices)
        self.minors = []
        for i, j in combinations(range(self.nv), 2):
            m = {}
            for e, c in self.exact[j].items():
                m[_bump(e, i)] = m.get(_bump(e, i), 0) + c
            for e, c in self.exact[i].items():
                m[_bump(e, j)] = m.get(_bump(e, j), 0) - c
            self.minors.append({e: c for e, c in m.items() if c != 0})
        self.scale = max(
            (abs(float(c)) for m in self.minors for c in m.values()), default=0.0
        )

    def degenerate(self) -> bool:
        """Every minor vanishes identically: (g_i) = (x_i h)."""
        return not any(self.minors)

    def vanishes_at(self, coords) -> bool:
        """Every minor is zero at the point: exactly if it is rational,
        below RESIDUAL_TOL of the coefficient scale at its max-modulus
        normalization otherwise."""
        if is_exact(coords):
            x = [_fraction(c) for c in coords]
            vals = [_evaluate(g, x) for g in self.exact]
            return all(
                x[i] * vals[j] == x[j] * vals[i]
                for i, j in combinations(range(self.nv), 2)
            )
        x = _max_normalized(coords)
        vals = [_evaluate(g, x) for g in self.floats]
        return all(
            abs(x[i] * vals[j] - x[j] * vals[i]) <= RESIDUAL_TOL * self.scale
            for i, j in combinations(range(self.nv), 2)
        )


def _evaluate(terms: dict, x):
    total = 0
    for exp, c in terms.items():
        v = c
        for xi, e in zip(x, exp):
            if e:
                v = v * xi**e
        total = total + v
    return total


def _max_normalized(coords) -> list:
    z = [complex(c) for c in coords]
    lead = max(z, key=abs)
    return [c / lead for c in z]


def _unit(coords) -> list:
    z = [complex(c) for c in coords]
    norm = sum(abs(c) ** 2 for c in z) ** 0.5
    return [c / norm for c in z]


def same_point(a, b) -> bool:
    """Projective equality: exact cross products for rational points, unit
    vectors' cross products below SAME_POINT_TOL otherwise."""
    pairs = list(combinations(range(len(a)), 2))
    if is_exact(a) and is_exact(b):
        a = [_fraction(c) for c in a]
        b = [_fraction(c) for c in b]
        return all(a[i] * b[j] == a[j] * b[i] for i, j in pairs)
    ua, ub = _unit(a), _unit(b)
    return all(abs(ua[i] * ub[j] - ua[j] * ub[i]) < SAME_POINT_TOL for i, j in pairs)


def solution_points(solution) -> list:
    """(coords, multiplicity) pairs of an EigenSolution."""
    return [(tuple(p.coords), m) for p, m in solution.points]


def check_solve(minors: TensorMinors, n: int, d: int, solution) -> None:
    """A general tensor's solve: certified, the generic length of distinct
    simple points, every minor vanishing at every point."""
    if not solution.certified:
        raise CheckFailed(f"uncertified: {solution.diagnostics}")
    check_points(minors, n, d, solution_points(solution))


def check_points(minors: TensorMinors, n: int, d: int, points) -> None:
    """check_solve on (coords, multiplicity) pairs, certification aside."""
    fat = [c for c, m in points if m != 1]
    if fat:
        raise CheckFailed(f"{len(fat)} points of multiplicity above 1")
    want = generic_length(n, d)
    if len(points) != want:
        raise CheckFailed(f"{len(points)} points, generic length is {want}")
    coords = [c for c, _ in points]
    for a, b in combinations(coords, 2):
        if same_point(a, b):
            raise CheckFailed(f"point {a} appears twice")
    for c in coords:
        if not minors.vanishes_at(c):
            raise CheckFailed(f"point {c} is off the eigenscheme")


def check_coordinate_point_fault(minors: TensorMinors, n: int, d: int, solution) -> None:
    """Passes only on the output of the known solver fault at e_n =
    (0:...:0:1): the solve is uncertified, e_n is listed once with
    multiplicity 2, and with that multiplicity set to 1 the points pass
    check_points.  Any other wrong output fails."""
    if solution.certified:
        raise CheckFailed("certified, not the coordinate-point fault")
    e_n = tuple(1 if k == n else 0 for k in range(n + 1))
    points = solution_points(solution)
    doubled = [i for i, (c, m) in enumerate(points) if m == 2 and same_point(c, e_n)]
    if len(doubled) != 1:
        raise CheckFailed("e_n is not listed with multiplicity 2")
    i = doubled[0]
    points[i] = (points[i][0], 1)
    check_points(minors, n, d, points)


def fermat_points(d: int) -> set:
    """Closed-form eigenpoints of x_0^d + ... + x_3^d for d = 3, 4:
    {0,1}-vectors for d = 3, {0,+-1}-vectors up to sign for d = 4."""
    values = {3: (0, 1), 4: (-1, 0, 1)}[d]
    return {canonical(v) for v in product(values, repeat=4) if any(v)}


def canonical(coords) -> tuple:
    """Exact projective representative: first nonzero coordinate 1."""
    lead = next(c for c in coords if c != 0)
    return tuple(Fraction(c) / lead for c in coords)


def check_fermat(d: int, solution) -> None:
    """The Fermat (3, d) solve returns exactly its closed-form point set."""
    points = solution_points(solution)
    if not solution.certified:
        raise CheckFailed(f"uncertified: {solution.diagnostics}")
    if any(m != 1 for _, m in points):
        raise CheckFailed("a point of multiplicity above 1")
    if not all(is_exact(c) for c, _ in points):
        raise CheckFailed("a Fermat point came back floating")
    got = [canonical([_fraction(x) for x in c]) for c, _ in points]
    if len(got) != len(set(got)) or set(got) != fermat_points(d):
        raise CheckFailed("point set differs from the closed form")


def _monomials(nv: int, e: int) -> list:
    out = []
    for mono in combinations_with_replacement(range(nv), e):
        out.append(tuple(mono.count(k) for k in range(nv)))
    return out


def containment_rank_mod_p(points, n: int, d: int) -> int:
    """Rank modulo PRIME of the linear conditions "the minors vanish at the
    point" on the tensor coefficients, for integer points."""
    nv = n + 1
    monos = _monomials(nv, d - 1)
    block = len(monos)
    rows = []
    for x in points:
        vals = [_evaluate({m: 1}, x) for m in monos]
        for i, j in combinations(range(nv), 2):
            row = [0] * (nv * block)
            for k, v in enumerate(vals):
                row[j * block + k] = x[i] * v
                row[i * block + k] = -x[j] * v
            rows.append(row)
    return rank_mod_p(rows)


def rank_mod_p(rows) -> int:
    a = np.array([[v % PRIME for v in row] for row in rows], dtype=np.int64)
    rank = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), PRIME - 2, PRIME)
        a[rank] = a[rank] * inv % PRIME
        below = a[rank + 1 :, c].copy()
        a[rank + 1 :] = (a[rank + 1 :] - below[:, None] * a[rank][None, :] % PRIME) % PRIME
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def no_kernel_is_degenerate(points, n: int, d: int) -> bool:
    """The tensors whose eigenscheme contains the points are only the
    degenerate ones: the kernel dimension, from the rank modulo a prime,
    equals C(n+d-2, n).  The rank modulo p is at most the rank over Q and
    the degenerate tensors always lie in the kernel, so equality proves it
    over Q too."""
    nv = n + 1
    block = comb(n + d - 1, n)
    kernel_dim = nv * block - containment_rank_mod_p(points, n, d)
    return kernel_dim == comb(n + d - 2, n)


def check_no(decision: dict, degenerate_only: bool) -> None:
    if decision["decision"] != "NO":
        raise CheckFailed(f"decision {decision['decision']}, want NO")
    if not degenerate_only:
        raise CheckFailed("NO, yet a non-degenerate tensor contains the points")


def check_witness(witness, solution, inputs, n: int, d: int) -> None:
    """A YES witness or an enlargement: not degenerate, its minors vanish at
    every input point, its solve passes check_solve and contains the input."""
    if witness is None or solution is None:
        raise CheckFailed("no witness")
    minors = TensorMinors([g.terms for g in witness.slices])
    if minors.degenerate():
        raise CheckFailed("witness is degenerate")
    for x in inputs:
        if not minors.vanishes_at(x):
            raise CheckFailed(f"witness minors do not vanish at input {x}")
    check_solve(minors, n, d, solution)
    solved = [c for c, _ in solution_points(solution)]
    for x in inputs:
        if not any(same_point(x, c) for c in solved):
            raise CheckFailed(f"input point {x} is not in the solved set")


def check_yes(decision: dict, inputs, n: int, d: int) -> None:
    if decision["decision"] != "YES":
        raise CheckFailed(f"decision {decision['decision']}, want YES")
    check_witness(decision["witness"], decision.get("solution"), inputs, n, d)


def check_enlarge(result: dict, inputs, d: int) -> None:
    check_witness(result["tensor"], result["solution"], inputs, 3, d)
