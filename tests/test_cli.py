import json
import random

import pytest

from eigenpoints.cli import main
from eigenpoints.points import PointSet, ProjectivePoint
from eigenpoints.rationals import rational


def run(args):
    return main(args)


@pytest.fixture
def fermat_files(tmp_path):
    tensor = tmp_path / "fermat.json"
    points = tmp_path / "points.json"
    assert run(["fermat", "--n", "3", "--d", "3", "--out", str(tensor)]) == 0
    assert run(["solve", str(tensor), "--out", str(points)]) == 0
    return tensor, points


def test_fermat_solve_verify_pipeline(fermat_files):
    tensor, points = fermat_files
    data = json.loads(points.read_text())
    assert data["count"] == 15
    assert data["certified"]
    assert run(["verify", str(points), "--degree", "3", "--symmetric"]) == 0


def test_fermat_small_case(tmp_path):
    out = tmp_path / "t.json"
    assert run(["fermat", "--n", "2", "--d", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "symmetric"
    assert data["n"] == 2 and data["d"] == 4


def test_solve_deterministic_reruns(fermat_files, tmp_path):
    tensor, points = fermat_files
    again = tmp_path / "again.json"
    assert run(["solve", str(tensor), "--out", str(again), "--seed", "0"]) == 0
    assert again.read_text() == points.read_text()


def test_solve_degenerate_exits_2(tmp_path):
    # tensor (x_0 h, ..., x_3 h) has identically vanishing minors
    from eigenpoints.multipoly import Polynomial
    from eigenpoints.tensors import degenerate_tensor

    t = degenerate_tensor(3, 3, Polynomial.variable(0, 4))
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(t.to_json()))
    assert run(["solve", str(path)]) == 2


def test_solve_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", str(bad)]) == 1


def test_verify_random_points_no(tmp_path):
    rng = random.Random(6)
    ps = PointSet(3)
    while len(ps) < 15:
        ps.add(ProjectivePoint([rational(rng.randint(-15, 15)) for _ in range(4)]))
    path = tmp_path / "random.json"
    path.write_text(json.dumps(ps.to_json()))
    assert run(["verify", str(path), "--degree", "3"]) == 2


def test_verify_integer_points_file(fermat_files, tmp_path, capsys):
    # JSON integer coordinates are exact, so the decision is the exact one
    _, points = fermat_files
    data = json.loads(points.read_text())
    for entry in data["points"]:
        entry["coords"] = [int(c) for c in entry["coords"]]
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(data))
    code = run(["verify", str(path), "--degree", "3", "--symmetric", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["decision"] == "YES"
    assert not any("floating" in d for d in out["diagnostics"])


@pytest.mark.parametrize(
    "part", ["1" + "0" * 400, "1e400", "-Infinity", "NaN"], ids=["10**400", "1e400", "-inf", "nan"]
)
def test_verify_rejects_a_pair_part_that_is_no_finite_double(tmp_path, capsys, part):
    # an integer past the double range, one that JSON reads as inf, and the
    # non-finite constants: each is a bad points file, not a failed solve
    path = tmp_path / "points.json"
    path.write_text('{"n": 3, "points": [{"coords": [[%s, 0], 1, 1, 1], "mult": 1}]}' % part)
    assert run(["verify", str(path), "--degree", "3"]) == 1
    assert "bad points file" in capsys.readouterr().err


def test_verify_cardinality_warning(fermat_files, tmp_path, capsys):
    _, points = fermat_files
    data = json.loads(points.read_text())
    data["points"] = data["points"][:14]
    path = tmp_path / "fourteen.json"
    path.write_text(json.dumps(data))
    code = run(["verify", str(path), "--degree", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert any("cardinality" in d for d in out["diagnostics"])
    assert "kernel" in out


def test_enlarge_cli(tmp_path):
    rng = random.Random(9)
    ps = PointSet(3)
    while len(ps) < 10:
        ps.add(ProjectivePoint([rational(rng.randint(-10, 10)) for _ in range(4)]))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(ps.to_json()))
    out = tmp_path / "enlarged.json"
    assert run(["enlarge", str(path), "--degree", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["eigenscheme"]["points"]) == 15
    flagged = [e for e in data["eigenscheme"]["points"] if e["input"]]
    assert len(flagged) == 10


def test_enlarge_bound_violation_message(tmp_path, capsys):
    rng = random.Random(10)
    ps = PointSet(3)
    while len(ps) < 11:
        ps.add(ProjectivePoint([rational(rng.randint(-10, 10)) for _ in range(4)]))
    path = tmp_path / "w11.json"
    path.write_text(json.dumps(ps.to_json()))
    assert run(["enlarge", str(path), "--degree", "3"]) == 1
    err = capsys.readouterr().err
    assert "bound is 10" in err


def test_analyze_fermat(fermat_files, capsys):
    _, points = fermat_files
    assert run(["analyze", str(points), "--degree", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxCollinear"] == 3
    assert out["predicates"]["hypersurfaceThreshold"]["found"] is False


def test_lattice_cli(capsys):
    assert run(["lattice", "--n", "3", "--d", "5", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ci_matches_count"]
    assert out["genus_matches"]
    assert out["cubicSurface"]["lineCensus"] == 27


def test_output_files_round_trip(fermat_files):
    from eigenpoints.solver import EigenSolution
    from eigenpoints.tensors import tensor_from_json

    tensor, points = fermat_files
    t = tensor_from_json(json.loads(tensor.read_text()))
    sol = EigenSolution.from_json(json.loads(points.read_text()))
    assert sol.total_multiplicity == 15
    assert t.d == 3


def test_solve_real_only(tmp_path, capsys):
    from conftest import random_tensor

    t = random_tensor(2, 3, seed=17)
    tensor_path = tmp_path / "t.json"
    tensor_path.write_text(json.dumps(t.to_json()))
    out = tmp_path / "real.json"
    code = run(["solve", str(tensor_path), "--out", str(out), "--real-only"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["realOnly"]
    assert len(data["points"]) <= data["count"]


def test_manifest_written(fermat_files):
    tensor, points = fermat_files
    with open(str(points) + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert "inputDigests" in manifest
    assert manifest["seeds"]["seed"] == 0


def test_json_report_times_the_command(capsys):
    assert run(["fermat", "--n", "2", "--d", "3", "--json"]) == 0
    timing = json.loads(capsys.readouterr().out)["manifest"]["timingSeconds"]
    assert isinstance(timing, float) and timing >= 0
