"""Command-line interface: solve, verify, enlarge, analyze, lattice, fermat.

All file formats are JSON with rationals as "num/den" strings.  Every
randomized run records its seeds in a manifest; identical manifests give
byte-identical outputs.  Exit codes: 0 success/YES, 1 usage or parse
error, 2 uncertified/NO with diagnostics, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from . import configuration, lattice, reconstruction
from .counts import expected_count
from .points import PointSet, point_from_json
from .solver import EigenSolution, eigenpoints
from .tensors import fermat_tensor, tensor_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_points(path: str):
    data = _load_json(path)
    try:
        return PointSet.from_json(data), data
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad points file {path}: {exc}") from exc


def _load_tensor(path: str):
    data = _load_json(path)
    try:
        return tensor_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad tensor file {path}: {exc}") from exc


def _manifest(args, inputs, seeds, started) -> dict:
    return {
        "command": [a for a in sys.argv[1:]] if sys.argv[1:] else [args.command],
        "inputDigests": {p: _digest(p) for p in inputs},
        "seeds": seeds,
        "toolVersion": f"eigenpoints {__version__}",
        "timingSeconds": round(time.perf_counter() - started, 6),
    }


def _emit(args, report: dict, out_payload: str | None):
    if args.out and out_payload is not None:
        with open(args.out, "w") as fh:
            fh.write(out_payload)
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(_dump(report["manifest"]))
    if getattr(args, "json", False):
        sys.stdout.write(_dump(report))


def cmd_solve(args) -> int:
    started = time.perf_counter()
    tensor = _load_tensor(args.tensor)
    solution = eigenpoints(tensor, seed=args.seed)
    points = solution.to_json()
    if args.real_only:
        real = solution.real_points()
        points["points"] = [
            {"coords": p.coords_json(), "mult": m} for p, m in real
        ]
        points["realOnly"] = True
    report = {
        "command": "solve",
        "certified": solution.certified,
        "count": solution.total_multiplicity,
        "expected": solution.expected,
        "diagnostics": solution.diagnostics,
        "manifest": _manifest(args, [args.tensor], solution.seed_info, started),
    }
    _emit(args, report, _dump(points))
    if not getattr(args, "json", False):
        print(
            f"solve: {solution.total_multiplicity}/{solution.expected} points,"
            f" certified={solution.certified}"
        )
        for diag in solution.diagnostics:
            print(f"  note: {diag}")
    return EXIT_OK if solution.certified else EXIT_UNCERTIFIED


def cmd_verify(args) -> int:
    started = time.perf_counter()
    points, _ = _load_points(args.points)
    expected = expected_count(points.n, args.degree)
    decision = reconstruction.is_eigenscheme(
        points, points.n, args.degree, symmetric=args.symmetric, seed=args.seed
    )
    report = {
        "command": "verify",
        "decision": decision["decision"],
        "kernel": decision["kernel"],
        "expected": expected,
        "count": len(points),
        "diagnostics": decision["diagnostics"],
        "seedsUsed": decision["seeds_used"],
        "witness": decision["witness"].to_json() if decision["witness"] else None,
        "manifest": _manifest(
            args, [args.points], {"seed": args.seed, "draws": decision["seeds_used"]}, started
        ),
    }
    _emit(args, report, _dump(report["witness"]) if decision["witness"] else None)
    if not getattr(args, "json", False):
        print(f"verify: {decision['decision']} (kernel dim {decision['kernel']['dimension']},"
              f" degenerate dim {decision['kernel']['degenerateDimension']})")
        for diag in decision["diagnostics"]:
            print(f"  note: {diag}")
    return EXIT_OK if decision["decision"] == "YES" else EXIT_UNCERTIFIED


def cmd_enlarge(args) -> int:
    started = time.perf_counter()
    points, _ = _load_points(args.points)
    if points.n != 3:
        raise CliError("enlarge expects points in P^3")
    try:
        result = reconstruction.enlarge(points, args.degree, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    success = result["tensor"] is not None
    payload = None
    if success:
        solution: EigenSolution = result["solution"]
        marked = solution.to_json()
        for entry in marked["points"]:
            entry["input"] = point_from_json(entry["coords"]) in points
        payload = _dump({"tensor": result["tensor"].to_json(), "eigenscheme": marked})
    report = {
        "command": "enlarge",
        "success": success,
        "bound": result["bound"],
        "kernel": result["kernel"],
        "diagnostics": result["diagnostics"],
        "seedsUsed": result["seeds_used"],
        "manifest": _manifest(
            args, [args.points], {"seed": args.seed, "draws": result["seeds_used"]}, started
        ),
    }
    _emit(args, report, payload)
    if not getattr(args, "json", False):
        if success:
            print(
                f"enlarge: embedded {len(points)} points into an eigenscheme of"
                f" {result['solution'].total_multiplicity} points (bound {result['bound']})"
            )
        else:
            print(f"enlarge: failed (bound {result['bound']})")
            for diag in result["diagnostics"]:
                print(f"  note: {diag}")
    return EXIT_OK if success else EXIT_UNCERTIFIED


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    points, _ = _load_points(args.points)
    d = args.degree
    collinear, witness = configuration.max_collinear(points)
    report = {
        "command": "analyze",
        "n": points.n,
        "count": len(points),
        "maxCollinear": collinear,
        "collinearWitness": witness,
        "collinearBound": d + 1,
        "predicates": {},
    }
    if points.n == 2:
        report["predicates"]["bezoutGuard"] = configuration.bezout_guard(points, d)
    if points.n == 3:
        threshold = (d - 1) * (d * d - d + 1)
        if threshold <= len(points):
            rep = configuration.subset_on_hypersurface(points, d - 1, threshold)
            report["predicates"]["hypersurfaceThreshold"] = {
                "threshold": threshold,
                "degree": d - 1,
                "found": rep.found,
                "witness": rep.witness,
                "numeric": rep.numeric,
            }
        if len(points) == expected_count(3, d):
            report["predicates"]["converseTargets"] = reconstruction.converse_hypothesis_report(
                points, d
            )
    report["manifest"] = _manifest(args, [args.points], {}, started)
    _emit(args, report, _dump(report))
    if not getattr(args, "json", False):
        print(f"analyze: max collinear {collinear} (bound {d + 1})")
        for name, pred in report["predicates"].items():
            print(f"  {name}: {pred}")
    return EXIT_OK


def cmd_lattice(args) -> int:
    started = time.perf_counter()
    try:
        report = lattice.identity_report(args.n, args.d)
        lat, lines = lattice.cubic_surface_lattice()
        report["cubicSurface"] = {
            "lineCensus": len(lines),
            "gram": [list(r) for r in lat.gram],
        }
    except ArithmeticError as exc:
        raise CliError(f"lattice identity failed: {exc}", EXIT_INTERNAL) from exc
    report["command"] = "lattice"
    report["manifest"] = _manifest(args, [], {}, started)
    _emit(args, report, _dump(report))
    if not getattr(args, "json", False):
        print(f"lattice ({args.n},{args.d}): ci_degree={report['ci_degree']}"
              f" expected={report['expected_count']} match={report['ci_matches_count']}")
        if "curve_genus" in report:
            print(f"  genus {report['curve_genus']} (closed form {report['genus_closed_form']})")
            print(f"  riemann-roch {report['riemann_roch']}")
        print(f"  27-line census: {report['cubicSurface']['lineCensus']}")
    return EXIT_OK


def cmd_fermat(args) -> int:
    started = time.perf_counter()
    tensor = fermat_tensor(args.n, args.d)
    payload = _dump(tensor.to_json())
    report = {
        "command": "fermat",
        "n": args.n,
        "d": args.d,
        "manifest": _manifest(args, [], {}, started),
    }
    _emit(args, report, payload)
    if not args.out and not getattr(args, "json", False):
        sys.stdout.write(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenpoints",
        description="Eigenpoint configurations: solve, verify, enlarge, analyze.",
    )
    parser.add_argument("--version", action="version", version=f"eigenpoints {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--out", help="output file path")
        p.add_argument("--json", action="store_true", help="machine report on stdout")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("solve", help="enumerate the eigenpoints of a tensor file")
    p.add_argument("tensor", help="tensor JSON file")
    p.add_argument("--real-only", action="store_true", help="report only real points")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="decide whether points form an eigenscheme")
    p.add_argument("points", help="points JSON file")
    p.add_argument("--degree", type=int, required=True, help="tensor order d")
    p.add_argument("--symmetric", action="store_true", help="restrict to gradients")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enlarge", help="embed points into a full eigenscheme (P^3)")
    p.add_argument("points", help="points JSON file")
    p.add_argument("--degree", type=int, required=True, help="tensor order d")
    common(p)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("analyze", help="incidence analysis of a point configuration")
    p.add_argument("points", help="points JSON file")
    p.add_argument("--degree", type=int, required=True, help="reference order d")
    common(p, seeded=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lattice", help="intersection-theory identity report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p, seeded=False)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("fermat", help="write the Fermat tensor x_0^d + ... + x_n^d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p, seeded=False)
    p.set_defaults(func=cmd_fermat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
