"""One untimed, traced round of each benchmark workload.

The harness resolves names in the package (the traced functions, the
face centroids it probes with, the ``interior_probes=`` keyword), so a
deletion of any of them fails here before the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing():
    # byte-code caches aside, which the test session itself may write
    return sorted(p for p in PERFBENCH.rglob("*") if "__pycache__" not in p.parts)


@pytest.mark.parametrize("workload", ["hull-large", "tree-census", "overlap-census"])
def test_workload_runs_one_traced_round(workload):
    before = _listing()
    argv = ["--workload", workload, "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert _listing() == before
