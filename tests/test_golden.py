"""Golden CLI reports: one file per (subcommand, case).

Each file tests/golden/<subcommand>/<case>.json holds the exit code, the
stderr text and stdout: the JSON report with its `timings` block removed,
the text of a csv or table report without its `timings.` lines, or null
when nothing is printed.  A default case runs the subcommand on one corpus
instance with default flags and is named after the instance: `zeta` on
every instance, `count`, `faltings` and `sweep` (all-ones profile) on every
variety, `graph` on every graph and `as` on every Artin-Schreier instance.
The extra cases reach the refusal, failure and format paths; their names
append the flags.  Regenerate every directory with

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
GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = sorted(p.stem for p in CORPUS.glob("*.json"))
PAYLOAD = {name: json.loads((CORPUS / f"{name}.json").read_text())
           for name in INSTANCES}

# (subcommand, instance, extra flags) beyond the default cases
EXTRA = [
    ("zeta", "diag11_f2", ("--budget", "10")),
    ("graph", "g_cycle3_square", ("--max-k", "2")),
    ("count", "mu3_profile6_f2", ("-k", "3", "--budget", "10000")),
    ("sweep", "diag11_f2", ("1,1", "2,3", "--budget", "3")),
    ("sweep", "diag11_f2", ("1,1", "x")),
    ("faltings", "diag23_f2", ("--budget", "100")),
    ("graph", "g_selfloop_square", ("--budget", "50")),
    ("graph", "g_selfloop_square", ("--budget", "200")),
] + [(sub, name, flags + ("--format", fmt))
     for sub, name, flags in [("count", "diag11_f2", ()),
                              ("zeta", "diag11_f2", ()),
                              ("faltings", "diag11_f2", ()),
                              ("graph", "g_selfloop_square", ()),
                              ("as", "as_cubic_f2_d1", ()),
                              ("sweep", "diag11_f2", ("1,1", "1,2"))]
     for fmt in ("csv", "table")]


def _default_cases():
    for name in INSTANCES:
        yield "zeta", name, ()
        kind = PAYLOAD[name]["kind"]
        if kind == "variety":
            yield "count", name, ()
            yield "faltings", name, ()
            yield "sweep", name, (",".join(["1"] * PAYLOAD[name]["n"]),)
        elif kind == "graph":
            yield "graph", name, ()
        else:
            yield "as", name, ()


def _case_name(name, flags):
    return "_".join([name] + [f.lstrip("-").replace(",", "-") for f in flags])


# (subcommand, case name) -> argv
CASES = {(sub, name): [sub, str(CORPUS / f"{name}.json"), *flags]
         for sub, name, flags in _default_cases()}
CASES.update({(sub, _case_name(name, flags)):
              [sub, str(CORPUS / f"{name}.json"), *flags]
              for sub, name, flags in EXTRA})


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if not text:
        stdout = None
    elif "--format" in argv:
        stdout = "".join(line for line in text.splitlines(keepends=True)
                         if not line.startswith("timings."))
    else:
        stdout = json.loads(text)
        del stdout["timings"]
    return {"exit_code": code, "stderr": err.getvalue(), "stdout": stdout}


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
