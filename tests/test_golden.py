"""Golden `zeta` reports: one file per corpus instance.

Each file in tests/golden/zeta/ holds the exit code, the stderr text and
the JSON report on stdout with its `timings` block removed (null when
nothing is printed).  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff: a changed golden is a changed CLI contract.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from parzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden" / "zeta"
INSTANCES = sorted(p.stem for p in CORPUS.glob("*.json"))


def zeta_record(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["zeta", str(CORPUS / f"{name}.json")])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["timings"]
    return {"exit_code": code, "stderr": err.getvalue(), "stdout": report}


@pytest.mark.parametrize("name", INSTANCES)
def test_zeta_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert zeta_record(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in INSTANCES:
        text = json.dumps(zeta_record(name), sort_keys=True, indent=2)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
