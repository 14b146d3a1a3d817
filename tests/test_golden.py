"""CLI artefacts on ``data/*.off`` stay byte-identical.

``tests/data/golden_digests.json`` holds the SHA-256 of every artefact of
``unfold --format both`` (JSON, SVG and the verdict printed on stdout)
and of ``census --lambda-list 1,auto`` (CSV).  The JSON, SVG and verdict
digests were recorded before mesh validation was vectorised and linear
maps stopped re-validating.  The CSV digests were recorded again when the
certificate stopped running the winding grid: overlap rows count fewer
witnesses, and ``test_certificate_equivalence.test_census_rows_match_the_reference``
shows that every other field, and each changed count, follows the
reference certificate.  A speed-up that changes a single byte of any of
them fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stretchnet.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
GOLDEN = json.loads((HERE / "data" / "golden_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_every_data_file():
    assert sorted(GOLDEN) == sorted(p.stem for p in DATA.glob("*.off"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_artefacts_match_golden_digests(name, tmp_path, capsys):
    off = DATA / f"{name}.off"
    main(["unfold", "--input", str(off), "--out", str(tmp_path / name), "--format", "both"])
    verdict = capsys.readouterr().out
    csv = tmp_path / f"{name}.csv"
    assert main(["census", "--input", str(off), "--lambda-list", "1,auto", "--out", str(csv)]) == 0
    got = {
        "json": sha256((tmp_path / f"{name}.json").read_bytes()),
        "svg": sha256((tmp_path / f"{name}.svg").read_bytes()),
        "csv": sha256(csv.read_bytes()),
        "verdict": sha256(verdict.encode()),
    }
    assert got == GOLDEN[name]
