"""The operations of one pass of each workload, built from the run's seed.

An operation is one call into the program's public API (a solve, an
``is_eigenscheme`` decision or an ``enlarge``) plus the check of its output.
Calls go through module attributes looked up at call time, so the traced
pass sees them through its wrappers.
"""

from __future__ import annotations

import random

import checks
import inputs
from eigenpoints import reconstruction, solver
from eigenpoints.multipoly import Polynomial
from eigenpoints.points import PointSet, ProjectivePoint
from eigenpoints.rationals import rational
from eigenpoints.tensors import PartialSymTensor, fermat_tensor

PLANE_DEGREES = (5, 6, 7, 8)
PLANE_PER_DEGREE = 5
SPACE_PER_DEGREE = 5
NO_SETS = 12  # is_eigenscheme NO decisions on 40 random points, d = 4
YES_SETS = 6  # is_eigenscheme YES decisions on (3,3) solve points
# enlarge on the five 10-point sets of acceptance criterion 7, the same in
# every run: across seeded sets one enlargement takes 0.2 to 2 s, and ten
# seeded sets per pass made pass_s spread by 21% from seed to seed
ENLARGE_SEEDS = (17, 34, 51, 68, 85)


class Op:
    """One timed call; ``check`` raises checks.CheckFailed on a wrong output.

    ``fault_check``, when set, passes only on the output of the named solver
    fault; a failure it recognises is counted but does not make the run
    incorrect, any other failure does.
    """

    __slots__ = ("name", "call", "check", "fault_check")

    def __init__(self, name, call, check, fault_check=None):
        self.name = name
        self.call = call
        self.check = check
        self.fault_check = fault_check

    def shows_known_fault(self, output) -> bool:
        if self.fault_check is None:
            return False
        try:
            self.fault_check(output)
        except checks.CheckFailed:
            return False
        return True


def program_tensor(n: int, d: int, slices) -> PartialSymTensor:
    nv = n + 1
    return PartialSymTensor(
        n, d, [Polynomial(nv, {e: rational(c) for e, c in g.items()}) for g in slices]
    )


def program_points(points) -> PointSet:
    ps = PointSet(3)
    for x in points:
        ps.add(ProjectivePoint([rational(c) for c in x]))
    return ps


def solve_op(name, n, d, slices) -> Op:
    """A solve, checked by check_solve; on a tensor that the coordinate-point
    fault hits (inputs.hits_coordinate_point_fault) the fault's exact output
    is recognised as that fault."""
    tensor = program_tensor(n, d, slices)
    minors = checks.TensorMinors(slices)
    fault_check = None
    if inputs.hits_coordinate_point_fault(slices, n, d):
        fault_check = lambda sol: checks.check_coordinate_point_fault(minors, n, d, sol)  # noqa: E731
    return Op(
        name,
        lambda: solver.eigenpoints(tensor, seed=0),
        lambda sol: checks.check_solve(minors, n, d, sol),
        fault_check,
    )


def fermat_op(d) -> Op:
    tensor = fermat_tensor(3, d)
    return Op(
        f"fermat(3,{d})",
        lambda: solver.eigenpoints(tensor, seed=0),
        lambda sol: checks.check_fermat(d, sol),
    )


def plane_ops(seed: int) -> list:
    rng = random.Random(f"plane:{seed}")
    ops = []
    for d in PLANE_DEGREES:
        for s, slices in inputs.tensor_draws(rng, 2, d, PLANE_PER_DEGREE):
            ops.append(solve_op(f"(2,{d}) seed {s}", 2, d, slices))
    n, d, s = inputs.FAULT_TENSOR
    ops.append(
        solve_op(f"(2,{d}) seed {s} [fixed]", n, d, inputs.random_slices(n, d, s))
    )
    return ops


def space_ops(seed: int) -> list:
    rng = random.Random(f"space:{seed}")
    ops = []
    for d in (3, 4):
        for s, slices in inputs.tensor_draws(rng, 3, d, SPACE_PER_DEGREE):
            ops.append(solve_op(f"(3,{d}) seed {s}", 3, d, slices))
    ops.append(fermat_op(3))
    ops.append(fermat_op(4))
    return ops


class NoCheck:
    """The NO check's kernel dimension depends on the input alone, so it is
    computed once, on the first output, outside the timed pass."""

    def __init__(self, points, n, d):
        self.points, self.n, self.d = points, n, d
        self.degenerate_only = None

    def __call__(self, decision):
        if self.degenerate_only is None:
            self.degenerate_only = checks.no_kernel_is_degenerate(
                self.points, self.n, self.d
            )
        checks.check_no(decision, self.degenerate_only)


def no_op(name, points, d) -> Op:
    ps = program_points(points)
    return Op(
        name,
        lambda: reconstruction.is_eigenscheme(ps, 3, d, seed=0),
        NoCheck(points, 3, d),
    )


def yes_inputs(rng, count: int) -> list:
    """Points of (3,3) solves that pass check_solve: the YES inputs.

    A draw whose solve fails its check is replaced; the space workload
    times and checks such solves itself.
    """
    out = []
    while len(out) < count:
        s, slices = inputs.tensor_draws(rng, 3, 3, 1)[0]
        sol = solver.eigenpoints(program_tensor(3, 3, slices), seed=0)
        try:
            checks.check_solve(checks.TensorMinors(slices), 3, 3, sol)
        except checks.CheckFailed:
            continue
        out.append((s, sol))
    return out


def yes_op(name, solution) -> Op:
    ps = solution.point_set()
    coords = [c for c, _ in checks.solution_points(solution)]
    return Op(
        name,
        lambda: reconstruction.is_eigenscheme(ps, 3, 3, seed=0),
        lambda dec: checks.check_yes(dec, coords, 3, 3),
    )


def enlarge_op(name, points, d) -> Op:
    ps = program_points(points)
    return Op(
        name,
        lambda: reconstruction.enlarge(ps, d, seed=0),
        lambda res: checks.check_enlarge(res, points, d),
    )


def reconstruct_ops(seed: int) -> list:
    rng = random.Random(f"reconstruct:{seed}")
    ops = []
    for k in range(NO_SETS):
        ops.append(no_op(f"NO #{k}", inputs.random_points(rng, 40, inputs.NO_BOX), 4))
    for s, sol in yes_inputs(rng, YES_SETS):
        ops.append(yes_op(f"YES (3,3) seed {s}", sol))
    for s in ENLARGE_SEEDS:
        points = inputs.random_points(random.Random(s), 10, inputs.ENLARGE_BOX)
        ops.append(enlarge_op(f"enlarge set {s}", points, 3))
    return ops


def build(workload: str, seed: int) -> list:
    return {"plane": plane_ops, "space": space_ops, "reconstruct": reconstruct_ops}[
        workload
    ](seed)
