"""Per-layer spans for one traced pass.

``Tracer.installed()`` replaces each public entry point below by a timing
wrapper at the name its caller looks up, and puts every original back on
exit.  A span's self time is its duration minus the spans it encloses.
Counts are read from the wrapped calls' return values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from eigenpoints import exact_linalg, groebner, reconstruction, resultants, solver, unipoly


def _bits(x) -> int:
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


def _max_bits(coeffs) -> int:
    return max((_bits(c) for c in coeffs if c != 0), default=0)


def _count_eigenpoints(tr, sol):
    tr.add("solver.charts", len(sol.charts_solved))


def _count_chart(tr, result):
    # a chart solved by elimination carries the shear that separated it
    if result.shear is not None:
        tr.add("solver.charts_eliminated", 1)


def _count_fglm(tr, lex):
    tr.add("groebner.quotient_dim", lex.dimension)
    tr.top("groebner.eliminant_bits", _max_bits(lex.eliminant))


def _count_eliminate(tr, elim):
    tr.top("resultants.eliminant_bits", _max_bits(elim.eliminant))


def _count_roots(tr, roots):
    exact = sum(1 for r, _ in roots if not isinstance(r, complex))
    tr.add("roots.rational_roots", exact)
    tr.add("roots.float_roots", len(roots) - exact)


def _count_refined(tr, result):
    root, values = result
    tr.top("unipoly.refine_bits", max(v.scale for v in [root, *values]))


def _count_kernel(tr, basis):
    tr.add("exact_linalg.kernel_entries", sum(len(v) for v in basis))


def _count_decision(tr, out):
    tr.add("reconstruction.witness_draws", len(out["seeds_used"]))
    tr.add("reconstruction.witness_found", out["decision"] == "YES")


def _count_enlarge(tr, out):
    tr.add("reconstruction.witness_draws", len(out["seeds_used"]))
    tr.add("reconstruction.witness_found", out["tensor"] is not None)


# span name, the (owner, attribute) pairs callers look it up at, count hook
SPANS = [
    ("solver.eigenpoints", [(solver, "eigenpoints"), (reconstruction, "eigenpoints")],
     _count_eigenpoints),
    ("solver.solve_zero_dimensional", [(solver, "solve_zero_dimensional")], _count_chart),
    ("tensors.minor_ideal_generators", [(solver, "minor_ideal_generators")], None),
    ("groebner.buchberger", [(groebner, "buchberger")], None),
    ("groebner.multiplication_matrices", [(groebner, "multiplication_matrices")], None),
    ("groebner.fglm", [(groebner, "fglm")], _count_fglm),
    ("resultants.eliminate_y", [(resultants, "eliminate_y")], _count_eliminate),
    ("roots.univariate_roots", [(solver, "univariate_roots")], _count_roots),
    ("unipoly.squarefree_decomposition", [(unipoly, "squarefree_decomposition")], None),
    ("unipoly.is_squarefree", [(unipoly, "is_squarefree")], None),
    ("unipoly.gcd", [(unipoly, "gcd")], None),
    ("unipoly.refined_values", [(unipoly, "refined_values")], _count_refined),
    ("unipoly.newton_correction", [(unipoly, "newton_correction")], None),
    ("exact_linalg.right_kernel", [(exact_linalg.ExactMatrix, "right_kernel")],
     _count_kernel),
    ("reconstruction.eigenscheme_kernel", [(reconstruction, "eigenscheme_kernel")], None),
    ("reconstruction.is_eigenscheme", [(reconstruction, "is_eigenscheme")], _count_decision),
    ("reconstruction.enlarge", [(reconstruction, "enlarge")], _count_enlarge),
]

SPAN_NAMES = [name for name, _, _ in SPANS]

# counts reported as they are, and the unit of each
COUNTS = {
    "groebner.quotient_dim": "count",
    "groebner.eliminant_bits": "bits",
    "resultants.eliminant_bits": "bits",
    "unipoly.refine_bits": "bits",
    "roots.rational_roots": "count",
    "roots.float_roots": "count",
    "exact_linalg.kernel_entries": "count",
    "reconstruction.witness_draws": "count",
    "solver.charts": "count",
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = {}
        self.covered_s = 0.0  # time under some outermost span
        self._enclosed = []  # per open span, time of the spans it encloses

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def top(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            self._enclosed.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, result)
                return result
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._enclosed.pop()
                self.calls[name] += 1
                if self._enclosed:
                    self._enclosed[-1] += duration
                else:
                    self.covered_s += duration

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, targets, hook in SPANS:
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if any(vars(owner)[attr] is not original for owner, attr, original in saved):
                raise RuntimeError("a traced entry point was not restored")

    def metrics(self, pass_s: float, untraced_pass_s: float) -> dict:
        """Per-layer metrics of the traced pass, name -> (value, unit)."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        for key, unit in COUNTS.items():
            out[key] = (self.counts.get(key, 0), unit)
        attempts = self.calls["resultants.eliminate_y"] + self.calls["groebner.fglm"]
        out["solver.elimination_attempts"] = (attempts, "count")
        eliminated = self.counts.get("solver.charts_eliminated", 0)
        out["solver.shear_success_ratio"] = (eliminated / attempts if attempts else 0.0, "ratio")
        draws = self.counts.get("reconstruction.witness_draws", 0)
        found = self.counts.get("reconstruction.witness_found", 0)
        out["reconstruction.draw_success_ratio"] = (found / draws if draws else 0.0, "ratio")
        out["trace.pass_s"] = (pass_s, "s")
        out["trace.overhead_s"] = (pass_s - untraced_pass_s, "s")
        out["trace.uncovered_s"] = (pass_s - self.covered_s, "s")
        return out
