import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stretchnet
from stretchnet import shapes
from stretchnet.cli import main
from stretchnet.mesh import export_off

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def tetra_off(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(export_off(shapes.tetrahedron()))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def child_env(**overrides):
    # a fresh interpreter must import the same stretchnet as this session,
    # whether it comes from an uninstalled src/ checkout or an installation
    env = dict(os.environ)
    env.pop("UNFOLD_EPS", None)
    root = str(Path(stretchnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def test_unfold_writes_artifacts(tetra_off, tmp_path, capsys):
    out = tmp_path / "net"
    code = run_cli("unfold", "--input", tetra_off, "--out", out, "--format", "both")
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "net"
    assert (tmp_path / "net.svg").exists()
    assert (tmp_path / "net.json").exists()
    doc = json.loads((tmp_path / "net.json").read_text())
    assert len(doc["faces"]) == 4
    assert doc["meta"]["seed"] == 0


def test_unfold_icosahedron_svg(tmp_path, capsys):
    out = tmp_path / "ico.svg"
    code = run_cli("unfold", "--input", DATA / "icosahedron.off", "--out", out, "--format", "svg")
    assert code == 0
    assert (tmp_path / "ico.svg").read_text().count("<polygon") == 20


def test_unfold_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.off"
    bad.write_text("OFF\n4 4 6\n0 0\n")
    code = run_cli("unfold", "--input", bad, "--out", tmp_path / "x")
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_unfold_missing_file_exit_2(tmp_path, capsys):
    code = run_cli("unfold", "--input", tmp_path / "nope.off", "--out", tmp_path / "x")
    assert code == 2


def test_theta_max_bounds(tetra_off, tmp_path, capsys):
    # pi/10 ~ 0.3142: 0.3 is an accepted flag value (though such a weak
    # stretch may honestly fail certification), 0.32 is out of range
    ok = run_cli(
        "unfold", "--input", tetra_off, "--out", tmp_path / "a", "--theta-max", "0.3"
    )
    assert ok in (0, 1)
    bad = run_cli(
        "unfold", "--input", tetra_off, "--out", tmp_path / "b", "--theta-max", "0.32"
    )
    assert bad == 2
    assert "theta-max" in capsys.readouterr().err


def test_verify_roundtrip(tetra_off, tmp_path, capsys):
    out = tmp_path / "net"
    run_cli("unfold", "--input", tetra_off, "--out", out, "--format", "json")
    capsys.readouterr()
    code = run_cli("verify", "--input", tmp_path / "net.json")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "net"


def test_verify_corrupted_layout(tetra_off, tmp_path, capsys):
    out = tmp_path / "net"
    run_cli("unfold", "--input", tetra_off, "--out", out, "--format", "json")
    capsys.readouterr()
    doc = json.loads((tmp_path / "net.json").read_text())
    doc["faces"][1] = [[x + 0.5, y + 0.25] for x, y in doc["faces"][1]]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code = run_cli("verify", "--input", tmp_path / "bad.json")
    assert code == 1
    status = json.loads(capsys.readouterr().out)["status"]
    assert status in ("overlap", "precondition_failure")


def test_verify_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run_cli("verify", "--input", empty) == 2


def _corner_of_first_segment(doc, value):
    rec = doc["boundary"][0]
    x, y = doc["faces"][rec["face"]][rec["pos"]]
    doc["faces"][rec["face"]][rec["pos"]] = value(x, y)


MALFORMED = {
    "fold-face-99": lambda doc: doc["folds"][0]["a"].__setitem__(0, 99),
    "three-number-corner": lambda doc: _corner_of_first_segment(doc, lambda x, y: [x, y, 0.0]),
    "dual-not-int": lambda doc: doc["boundary"][0].__setitem__("dual", "x"),
    "dual-missing": lambda doc: doc["boundary"][0].pop("dual"),
    "string-coordinate": lambda doc: _corner_of_first_segment(doc, lambda x, y: [str(x), y]),
    "empty-boundary": lambda doc: doc.__setitem__("boundary", []),
    "negative-face": lambda doc: doc["boundary"][0].__setitem__("face", -1),
    "negative-pos": lambda doc: doc["boundary"][0].__setitem__("pos", -1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_layout_exit_2(case, tmp_path, capsys):
    run_cli("unfold", "--input", DATA / "cube.off", "--out", tmp_path / "net", "--format", "json")
    capsys.readouterr()
    doc = json.loads((tmp_path / "net.json").read_text())
    MALFORMED[case](doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run_cli("verify", "--input", tmp_path / "bad.json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_nan_corner_off_the_boundary(tmp_path, capsys):
    # every comparison with NaN is false, so a NaN corner that only fold
    # edges read must still fail the fold check
    run_cli("unfold", "--input", DATA / "cube.off", "--out", tmp_path / "net", "--format", "json")
    capsys.readouterr()
    doc = json.loads((tmp_path / "net.json").read_text())
    faces = doc["faces"]
    read = {(r["face"], (r["pos"] + k) % len(faces[r["face"]])) for r in doc["boundary"] for k in (0, 1)}
    f, p = next((f, p) for f, face in enumerate(faces) for p in range(len(face)) if (f, p) not in read)
    faces[f][p][0] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run_cli("verify", "--input", tmp_path / "bad.json") == 1
    assert json.loads(capsys.readouterr().out)["checks"] == {"layout_consistency": False}


def test_census_tetra_rows(tetra_off, tmp_path):
    out = tmp_path / "census.csv"
    code = run_cli("census", "--input", tetra_off, "--lambda-list", "auto", "--out", out)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 17  # header + 16 trees
    assert lines[0] == "tree_id,increasing,verdict,witnesses,lambda"


def test_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--input", DATA / "cube.off", "--sweep-k", "12", "--out", out
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 13
    assert lines[0] == "x,y,z,lambda,status"


def test_outputs_deterministic(tetra_off, tmp_path, capsys):
    for tag in ("one", "two"):
        run_cli("unfold", "--input", tetra_off, "--out", tmp_path / tag, "--format", "both")
        run_cli(
            "census", "--input", tetra_off, "--lambda-list", "1.5,auto",
            "--out", tmp_path / f"{tag}.csv",
        )
    capsys.readouterr()
    assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_console_entry_point(tetra_off, tmp_path):
    # the module also runs as a subprocess (exit code contract)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "stretchnet.cli",
            "unfold",
            "--input",
            str(tetra_off),
            "--out",
            str(tmp_path / "n"),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "net"


def test_unfold_eps_env_override():
    # UNFOLD_EPS must take effect at import time in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-c", "from stretchnet.geometry import EPS; print(EPS)"],
        capture_output=True,
        text=True,
        env=child_env(UNFOLD_EPS="1e-6"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1e-06"


@pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf"])
def test_unfold_eps_env_rejected(value):
    # a tolerance that is not a positive finite number stops the import
    # with a message naming the variable
    proc = subprocess.run(
        [sys.executable, "-c", "import stretchnet"],
        capture_output=True,
        text=True,
        env=child_env(UNFOLD_EPS=value),
    )
    assert proc.returncode != 0
    assert "ValueError: UNFOLD_EPS must be a positive finite number" in proc.stderr
    assert repr(value) in proc.stderr
