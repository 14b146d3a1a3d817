import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stretchnet import shapes
from stretchnet.cli import main
from stretchnet.mesh import export_off, load_off
from stretchnet.pipeline import stretch_and_unfold
from stretchnet.tree import TieRule
from stretchnet.unfold import _json_dumps, layout_to_json

from conftest import child_env

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def tetra_off(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(export_off(shapes.tetrahedron()))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


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


def test_unfold_development_failure_is_a_verdict(tmp_path, capsys):
    # at theta-max 1e-30 the stretch is so large that two placements of a
    # fold edge disagree: a precondition failure on stdout, exit 1, no files
    out = tmp_path / "net"
    code = run_cli("unfold", "--input", DATA / "cube.off", "--out", out, "--format", "both", "--theta-max", "1e-30")
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    verdict = json.loads(captured.out)
    assert verdict["status"] == "precondition_failure"
    assert verdict["checks"] == {"layout_consistency": False}
    assert verdict["witnesses"][0]["note"].startswith("fold edge (4, 6) placements disagree by")
    assert list(tmp_path.iterdir()) == []


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


def test_verify_file_name_starting_with_a_brace(tetra_off, tmp_path, monkeypatch, capsys):
    # a relative path such as {net}.json names a file, not JSON text
    monkeypatch.chdir(tmp_path)
    run_cli("unfold", "--input", tetra_off, "--out", "{net}", "--format", "json")
    capsys.readouterr()
    assert run_cli("verify", "--input", "{net}.json") == 0
    assert json.loads(capsys.readouterr().out)["status"] == "net"


def test_verify_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run_cli("verify", "--input", empty) == 2


def _corner_of_first_segment(doc, value):
    rec = doc["boundary"][0]
    x, y = doc["faces"][rec["face"]][rec["pos"]]
    doc["faces"][rec["face"]][rec["pos"]] = value(x, y)


def _corner_of_first_fold(doc, value):
    f, p = doc["folds"][0]["a"]
    x, y = doc["faces"][f][p]
    doc["faces"][f][p] = value(x, y)


def _corner_no_fold_reads(doc, value):
    faces = doc["faces"]
    read = {(f, (p + k) % len(faces[f])) for r in doc["folds"] for f, p in (r["a"], r["b"]) for k in (0, 1)}
    rec = next(r for r in doc["boundary"] if (r["face"], r["pos"]) not in read)
    x, y = faces[rec["face"]][rec["pos"]]
    faces[rec["face"]][rec["pos"]] = value(x, y)


MALFORMED = {
    "fold-face-99": lambda doc: doc["folds"][0]["a"].__setitem__(0, 99),
    "three-number-corner": lambda doc: _corner_of_first_segment(doc, lambda x, y: [x, y, 0.0]),
    "dual-not-int": lambda doc: doc["boundary"][0].__setitem__("dual", "x"),
    "dual-missing": lambda doc: doc["boundary"][0].pop("dual"),
    "string-coordinate": lambda doc: _corner_of_first_segment(doc, lambda x, y: [str(x), y]),
    "empty-boundary": lambda doc: doc.__setitem__("boundary", []),
    "negative-face": lambda doc: doc["boundary"][0].__setitem__("face", -1),
    "negative-pos": lambda doc: doc["boundary"][0].__setitem__("pos", -1),
    "fold-face-b-empty": lambda doc: doc["faces"].__setitem__(doc["folds"][0]["b"][0], []),
    "huge-int-fold-corner": lambda doc: _corner_of_first_segment(doc, lambda x, y: [10**400, y]),
    "huge-int-boundary-corner": lambda doc: _corner_no_fold_reads(doc, lambda x, y: [10**400, y]),
    # JSON's true would read as 1 where an index or a coordinate is expected
    "true-fold-face": lambda doc: doc["folds"][0]["b"].__setitem__(0, True),
    "true-fold-corner": lambda doc: _corner_of_first_fold(doc, lambda x, y: [True, y]),
    "true-boundary-head": lambda doc: doc["boundary"][0].__setitem__("head", True),
    "string-fold-edge": lambda doc: doc["folds"][0]["edge"].__setitem__(0, "x"),
    "tree-null": lambda doc: doc.__setitem__("tree", None),
    "tree-missing": lambda doc: doc.pop("tree"),
    "true-tree-root": lambda doc: doc["tree"].__setitem__("root", True),
    "negative-tree-parent": lambda doc: doc["tree"]["pairs"][0].__setitem__(1, -1),
    "meta-list": lambda doc: doc.__setitem__("meta", []),
    "meta-missing": lambda doc: doc.pop("meta"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--cap", "0"),
        ("sweep", "--sweep-k", "0"),
        ("census", "--lambda-list", "0"),
        ("census", "--lambda-list", "-1"),
        ("census", "--lambda-list", "1,nan"),
        ("unfold", "--out", "unused", "--seed", "-1"),
        ("census", "--seed", "-1"),
        ("sweep", "--seed", "-1"),
    ],
    ids=[
        "cap-0",
        "sweep-k-0",
        "lambda-0",
        "lambda-minus-1",
        "lambda-nan",
        "unfold-seed-minus-1",
        "census-seed-minus-1",
        "sweep-seed-minus-1",
    ],
)
def test_bad_count_or_lambda_exit_2(argv, tetra_off, capsys):
    assert run_cli(*argv, "--input", tetra_off) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("rule", ["first", "random"])
def test_tie_rule_reaches_the_pipeline(rule, tmp_path, capsys):
    off = DATA / "icosahedron.off"
    code = run_cli("unfold", "--input", off, "--out", tmp_path / rule, "--format", "json", "--tie-rule", rule)
    run = stretch_and_unfold(load_off(off.read_text()), tie_rule=TieRule(rule))
    meta = {"lambda": run.stretch.lam, "theta_max": run.stretch.theta_max, "seed": 0}
    assert code == 0 and run.verdict.status.value == "net"
    assert capsys.readouterr().out == _json_dumps(run.verdict.to_json()) + "\n"
    assert (tmp_path / f"{rule}.json").read_text() == layout_to_json(run.layout, meta)
    # each rule picks another tree of the icosahedron than the default
    steepest = stretch_and_unfold(load_off(off.read_text()))
    assert run.layout.surface.tree != steepest.layout.surface.tree


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


# -- verify on mutated documents ---------------------------------------------


def cube_layout() -> dict:
    """The document ``unfold --format json`` writes for ``data/cube.off``."""
    run = stretch_and_unfold(load_off((DATA / "cube.off").read_text()))
    meta = {"lambda": run.stretch.lam, "theta_max": run.stretch.theta_max, "seed": 0}
    return json.loads(layout_to_json(run.layout, meta))


CUBE_LAYOUT = cube_layout()


def _nodes(node, path=()):
    """``(path, node)`` for the document and everything in it, depth first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_layouts(draw):
    """The cube's layout after 1 to 3 mutations: a leaf replaced by an
    unfit value, a face emptied, a corner repeated or a key dropped."""
    doc = copy.deepcopy(CUBE_LAYOUT)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        faces = doc.get("faces") if isinstance(doc.get("faces"), list) else []
        kind = draw(st.sampled_from(["leaf", "empty-face", "repeat-corner", "drop-key"]))
        if kind == "leaf":
            leaves = [p for p, node in nodes if p and not isinstance(node, (dict, list))]
            if leaves:
                path = draw(st.sampled_from(leaves))
                _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([-1, 10**400, math.nan, "x", [], None, True]))
        elif kind == "empty-face" and faces:
            faces[draw(st.integers(0, len(faces) - 1))] = []
        elif kind == "repeat-corner":
            corners = [(f, p) for f, face in enumerate(faces) if isinstance(face, list) for p in range(len(face))]
            if corners:
                f, p = draw(st.sampled_from(corners))
                faces[f].insert(p, copy.deepcopy(faces[f][p]))
        elif kind == "drop-key":
            keys = [(p, key) for p, node in nodes if isinstance(node, dict) for key in node]
            if keys:
                path, key = draw(st.sampled_from(keys))
                del _at(doc, path)[key]
    return doc


def _with(change):
    doc = copy.deepcopy(CUBE_LAYOUT)
    change(doc)
    return doc


# one face whose corners 1 and 2 coincide, every cut edge its own dual
ZERO_LENGTH_SEGMENT = {
    "faces": [[[0, 0], [1, 0.1], [1, 0.1], [2, 0], [1, -0.2]]],
    "boundary": [{"face": 0, "pos": i, "tail": i, "head": (i + 1) % 5, "edge": [i, i + 1], "dual": i} for i in range(5)],
    "folds": [],
    "tree": {"pairs": [[i + 1, i] for i in range(5)], "root": 0},
    "meta": {},
}


@settings(max_examples=150, deadline=None)
@given(mutated_layouts())
@example(ZERO_LENGTH_SEGMENT)
@example(_with(MALFORMED["fold-face-b-empty"]))
@example(_with(MALFORMED["huge-int-boundary-corner"]))
@example(_with(MALFORMED["true-fold-face"]))
@example(_with(MALFORMED["true-fold-corner"]))
def test_verify_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated-layout.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--input", str(path)]) in (0, 1, 2)
