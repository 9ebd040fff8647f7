"""Self-tests of the benchmark's output checks and of its tracer.

    python3 eigbench/selftest.py

Each check must accept a known-good program output and reject a corrupted
copy of it: a point nudged off the scheme, a dropped point, a duplicated
point, a degenerate witness, a NO on the Fermat set.
"""

import os
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eigenpoints import solver  # noqa: E402
from eigenpoints.tensors import degenerate_tensor  # noqa: E402
from eigenpoints.multipoly import Polynomial  # noqa: E402
from eigenpoints.rationals import rational  # noqa: E402


def fake_solution(points, certified=True):
    """An EigenSolution look-alike holding (coords, multiplicity) pairs."""
    return SimpleNamespace(
        points=[(SimpleNamespace(coords=tuple(c)), m) for c, m in points],
        certified=certified,
        diagnostics=[],
    )


def corrupted(solution, edit):
    pts = checks.solution_points(solution)
    return fake_solution(edit(list(pts)))


def nudge(coords, eps):
    return coords[:-1] + (coords[-1] + eps,)


class SolveCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.slices = inputs.random_slices(2, 5, 17)
        cls.minors = checks.TensorMinors(cls.slices)
        cls.sol = solver.eigenpoints(workloads.program_tensor(2, 5, cls.slices), seed=0)
        pts = checks.solution_points(cls.sol)
        cls.float_at = next(i for i, (c, _) in enumerate(pts) if not checks.is_exact(c))

    def check(self, sol):
        checks.check_solve(self.minors, 2, 5, sol)

    def test_accepts_program_output(self):
        self.check(self.sol)
        self.check(corrupted(self.sol, lambda p: p))

    def test_rejects_floating_point_nudged_off(self):
        i = self.float_at
        with self.assertRaisesRegex(checks.CheckFailed, "off the eigenscheme"):
            self.check(corrupted(self.sol, lambda p: p[:i] + [(nudge(p[i][0], 1e-5), 1)] + p[i + 1 :]))

    def test_rejects_dropped_point(self):
        with self.assertRaisesRegex(checks.CheckFailed, "generic length"):
            self.check(corrupted(self.sol, lambda p: p[1:]))

    def test_rejects_duplicated_point(self):
        with self.assertRaisesRegex(checks.CheckFailed, "appears twice"):
            self.check(corrupted(self.sol, lambda p: p[:-1] + [p[0]]))

    def test_rejects_double_point(self):
        with self.assertRaisesRegex(checks.CheckFailed, "multiplicity"):
            self.check(corrupted(self.sol, lambda p: [(p[0][0], 2)] + p[2:]))

    def test_rejects_uncertified(self):
        with self.assertRaisesRegex(checks.CheckFailed, "uncertified"):
            self.check(fake_solution(checks.solution_points(self.sol), certified=False))

    def test_generic_length(self):
        self.assertEqual(
            [checks.generic_length(n, d) for n, d in [(2, 5), (2, 8), (3, 3), (3, 4)]],
            [21, 57, 15, 40],
        )

    def test_coordinate_point_fault_signature(self):
        """check_coordinate_point_fault accepts e_n doubled on an otherwise
        good solve of the fixed tensor and nothing else; the program's own
        output is either good or exactly that."""
        n, d, s = inputs.FAULT_TENSOR
        slices = inputs.random_slices(n, d, s)
        self.assertTrue(inputs.hits_coordinate_point_fault(slices, n, d))
        minors = checks.TensorMinors(slices)
        sol = solver.eigenpoints(workloads.program_tensor(n, d, slices), seed=0)
        pts = checks.solution_points(sol)
        e_n = (0, 0, 1)
        k = next(i for i, (c, _) in enumerate(pts) if checks.same_point(c, e_n))
        simple = pts[:k] + [(pts[k][0], 1)] + pts[k + 1 :]
        checks.check_points(minors, n, d, simple)

        def faulty(points):
            return fake_solution(points, certified=False)

        double = simple[:k] + [(pts[k][0], 2)] + simple[k + 1 :]
        fault = lambda sol: checks.check_coordinate_point_fault(minors, n, d, sol)  # noqa: E731
        fault(faulty(double))
        try:
            checks.check_solve(minors, n, d, sol)
        except checks.CheckFailed:
            fault(sol)
        j = 0 if k else 1
        other = double[:j] + [(double[j][0], 2)] + double[j + 1 :]
        for bad in (
            fake_solution(simple),
            faulty(simple),
            faulty([p for i, p in enumerate(double) if i != j]),
            faulty(other),
            faulty(double[:j] + [(nudge(double[j][0], 1e-5), 1)] + double[j + 1 :]),
        ):
            with self.assertRaises(checks.CheckFailed):
                fault(bad)


class FermatCheck(unittest.TestCase):
    def test_closed_form_sizes(self):
        self.assertEqual(len(checks.fermat_points(3)), 15)
        self.assertEqual(len(checks.fermat_points(4)), 40)

    def test_accepts_and_rejects(self):
        for d in (3, 4):
            op = workloads.fermat_op(d)
            sol = op.call()
            op.check(sol)
            with self.assertRaises(checks.CheckFailed):
                op.check(corrupted(sol, lambda p: p[1:]))
            with self.assertRaises(checks.CheckFailed):
                op.check(corrupted(sol, lambda p: p[:-1] + [p[0]]))
            moved = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
            with self.assertRaises(checks.CheckFailed):
                op.check(corrupted(sol, lambda p: p[:-1] + [(moved, 1)]))


class NoCheck(unittest.TestCase):
    def test_accepts_program_no(self):
        points = inputs.random_points(random.Random(5), 40, inputs.NO_BOX)
        op = workloads.no_op("NO", points, 4)
        op.check(op.call())

    def test_rejects_no_on_fermat_set(self):
        fermat = [tuple(int(c) for c in p) for p in checks.fermat_points(3)]
        self.assertFalse(checks.no_kernel_is_degenerate(fermat, 3, 3))
        with self.assertRaisesRegex(checks.CheckFailed, "non-degenerate"):
            checks.check_no({"decision": "NO"}, False)

    def test_rejects_other_decision(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_no({"decision": "UNDECIDED"}, True)

    def test_rank_mod_p(self):
        self.assertEqual(checks.rank_mod_p([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 2)
        self.assertEqual(checks.rank_mod_p([[checks.PRIME, 0], [0, 5]]), 1)


class WitnessCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rng = random.Random(3)
        cls.points = inputs.random_points(rng, 10, inputs.ENLARGE_BOX)
        cls.op = workloads.enlarge_op("enlarge", cls.points, 3)
        cls.result = cls.op.call()
        _, cls.yes_solution = workloads.yes_inputs(rng, 1)[0]
        cls.yes_op = workloads.yes_op("YES", cls.yes_solution)
        cls.decision = cls.yes_op.call()

    def test_accepts_program_output(self):
        self.op.check(self.result)
        self.yes_op.check(self.decision)

    def test_rejects_degenerate_witness(self):
        h = Polynomial(4, {(1, 0, 0, 0): rational(1)})
        bad = dict(self.result, tensor=degenerate_tensor(3, 3, h))
        with self.assertRaisesRegex(checks.CheckFailed, "degenerate"):
            self.op.check(bad)

    def test_rejects_exact_point_nudged_off(self):
        solved = checks.solution_points(self.result["solution"])
        i = next(i for i, (c, _) in enumerate(solved) if checks.is_exact(c))
        eps = Fraction(1, 10**30)
        bad = dict(
            self.result,
            solution=corrupted(
                self.result["solution"], lambda p: p[:i] + [(nudge(p[i][0], eps), 1)] + p[i + 1 :]
            ),
        )
        with self.assertRaisesRegex(checks.CheckFailed, "off the eigenscheme"):
            self.op.check(bad)

    def test_rejects_input_off_witness(self):
        moved = self.points[:-1] + [nudge(self.points[-1], 1)]
        with self.assertRaises(checks.CheckFailed):
            checks.check_enlarge(self.result, moved, 3)

    def test_rejects_solution_missing_an_input(self):
        inside = checks.solution_points(self.result["solution"])
        first = next(i for i, (c, _) in enumerate(inside) if checks.same_point(c, self.points[0]))
        bad = dict(self.result, solution=corrupted(self.result["solution"], lambda p: p[:first] + p[first + 1 :]))
        with self.assertRaises(checks.CheckFailed):
            self.op.check(bad)

    def test_rejects_yes_with_foreign_witness(self):
        bad = dict(self.decision, witness=self.result["tensor"], solution=self.result["solution"])
        with self.assertRaisesRegex(checks.CheckFailed, "do not vanish"):
            self.yes_op.check(bad)

    def test_rejects_no_answer(self):
        with self.assertRaises(checks.CheckFailed):
            self.yes_op.check(dict(self.decision, decision="NO"))
        with self.assertRaises(checks.CheckFailed):
            self.op.check(dict(self.result, tensor=None, solution=None))


class TracerTest(unittest.TestCase):
    def test_restores_every_name_and_covers_the_pass(self):
        originals = [
            (owner, attr, vars(owner)[attr])
            for _, targets, _ in spans.SPANS
            for owner, attr in targets
        ]
        tracer = spans.Tracer()
        op = workloads.solve_op("(3,3)", 3, 3, inputs.random_slices(3, 3, 17))
        with tracer.installed():
            self.assertTrue(all(vars(o)[a] is not f for o, a, f in originals))
            op.check(op.call())
        self.assertTrue(all(vars(o)[a] is f for o, a, f in originals))
        m = tracer.metrics(tracer.covered_s, tracer.covered_s)
        self.assertEqual(m["solver.eigenpoints.calls"][0], 1)
        self.assertGreater(m["groebner.fglm.calls"][0], 0)
        total = sum(tracer.self_s.values())
        self.assertAlmostEqual(total, tracer.covered_s, delta=1e-6)


if __name__ == "__main__":
    unittest.main()
