"""Golden CLI reports: one file per (subcommand, case).

Each file tests/golden/<subcommand>/<case>.json holds the exit code, the
stderr text and stdout: the JSON report with its `timings` block removed,
the text of a csv or table report without its `timings.` lines, or null
when nothing is printed.  A default case runs the subcommand on one corpus
instance with default flags and is named after the instance: `zeta` on
every instance, `count`, `faltings` and `sweep` (all-ones profile) on every
variety, `graph` on every graph and `as` on every Artin-Schreier instance.
The extra cases reach the refusal, failure and format paths; their names
append the flags.  The cases (`CASES`) and the normaliser
(`golden_record`) live in the stdlib-only `tests/witnesses.py`, which also
runs every case through an installed console script.  Regenerate every
directory with

    PYTHONPATH=src python tests/test_golden.py

and review the diff: a changed golden is a changed CLI contract.
"""

import contextlib
import io
import json

import pytest

from parzeta.cli import main
from witnesses import CASES, GOLDEN, golden_record


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return golden_record(argv, code, out.getvalue(), err.getvalue())


def check(sub, case):
    path = GOLDEN / sub / f"{case}.json"
    assert record(CASES[sub, case]) == json.loads(path.read_text())


# `zeta` keeps its own test name, so its ids are the instance names alone
@pytest.mark.parametrize("case", sorted(c for s, c in CASES if s == "zeta"))
def test_zeta_golden(case):
    check("zeta", case)


OTHER = sorted(k for k in CASES if k[0] != "zeta")


def test_every_golden_has_a_case():
    # a golden left behind when its case is removed would go unchecked
    files = {(path.parent.name, path.stem) for path in GOLDEN.glob("*/*")}
    assert files == set(CASES)


@pytest.mark.parametrize("sub,case", OTHER, ids=["/".join(k) for k in OTHER])
def test_golden(sub, case):
    check(sub, case)


if __name__ == "__main__":
    for (sub, case), argv in sorted(CASES.items()):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
        text = json.dumps(record(argv), sort_keys=True, indent=2)
        (GOLDEN / sub / f"{case}.json").write_text(text + "\n")
