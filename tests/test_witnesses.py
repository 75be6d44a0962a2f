"""The witness table's own checks, and its runner's on entries that must
fail."""

import os
import re
import sys

import pytest

import witnesses
from witnesses import (EMPTY, ROOT, WITNESSES, Outcome, Witness, check,
                       run_command, run_in_process)

# diag11_f2 counted to k = 1: N_1 = 2
GOOD = Witness("good", "a run that holds", "corpus/diag11_f2.json",
               ("count", "-k", "1"), 0, {"outputs.counts": [2]},
               re.escape("  N_1 = 2") + "\n", 1.0)
RAN = Outcome(0, '{"outputs": {"counts": [2]}}', "  N_1 = 2\n", 0.5)


def test_the_runner_passes_a_run_that_holds():
    assert check(GOOD, RAN) == []


@pytest.mark.parametrize("witness, outcome, fault", [
    (GOOD._replace(exit=3), RAN, "exit 0, expected 3"),
    (GOOD._replace(stdout={"outputs.counts": [3]}), RAN,
     "outputs.counts = [2], expected [3]"),
    # True is no 1 in a JSON report
    (GOOD._replace(stdout={"outputs.counts.0": True}),
     RAN._replace(stdout='{"outputs": {"counts": [1]}}'),
     "outputs.counts.0 = 1, expected true"),
    (GOOD._replace(stdout={"outputs.rows.0": 2}), RAN,
     "the report has no outputs.rows.0"),
    (GOOD._replace(stdout=EMPTY), RAN, "stdout "),
    (GOOD._replace(stderr=""), RAN, "stderr "),
    # the regex must match the whole of stderr
    (GOOD._replace(stderr="  N_1"), RAN, "stderr "),
    (GOOD._replace(instance="corpus/no_such_instance.json"), RAN,
     "no instance file corpus/no_such_instance.json"),
    (GOOD, RAN._replace(seconds=1.5), "took 1.50 s, bound 1.0 s"),
    (GOOD, RAN._replace(exit=None), "killed at 1.0 s"),
], ids=["exit", "leaf", "leaf-type", "missing-leaf", "stdout-not-empty",
        "stderr", "stderr-prefix", "corpus-path", "over-bound", "killed"])
def test_the_runner_fails_a_run_that_breaks_its_entry(witness, outcome,
                                                      fault):
    faults = check(witness, outcome)
    assert len(faults) == 1 and faults[0].startswith(fault), faults


def test_a_wrong_entry_fails_in_process_and_in_a_fresh_process(
        tmp_path, monkeypatch):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    wrong = GOOD._replace(exit=3)
    assert check(wrong, run_in_process(wrong, tmp_path)) == [
        "exit 0, expected 3"]
    command = [sys.executable, "-m", "parzeta.cli"]
    assert check(wrong, run_command(wrong, command, tmp_path)) == [
        "exit 0, expected 3"]


def test_a_fresh_process_is_killed_at_its_bound_and_allowance(
        tmp_path, monkeypatch):
    monkeypatch.setattr(witnesses, "START_ALLOWANCE_S", 0.2)
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    outcome = run_command(GOOD._replace(seconds=0.1), sleeper, tmp_path)
    assert outcome.exit is None
    # the wall time less the allowance: about the bound, far below 30 s
    assert 0.1 <= outcome.seconds < 5


def test_entry_names_are_unique():
    names = [w.name for w in WITNESSES]
    assert len(names) == len(set(names))


def test_every_entry_is_whole():
    for w in WITNESSES:
        # its reason, its instance and what its run must give
        assert w.why.strip(), w.name
        assert isinstance(w.instance, (dict, bytes)) or (
            w.instance.startswith("corpus/")), w.name
        assert w.stdout == EMPTY or isinstance(w.stdout, dict), w.name
        assert w.seconds > 0, w.name
        re.compile(w.stderr)
