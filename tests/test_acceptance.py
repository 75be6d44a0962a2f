"""End-to-end acceptance checks over the bundled corpus.

Each test prints a single pass/fail line; run pytest with -rA (the
default here) to see them for passing tests too.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from parzeta.artin_schreier import (ASInstance, as_count_brute,
                                    as_count_trace, bound_check,
                                    diagonal_smooth_check, fibred_sum)
from parzeta.cli import load_instance, main
from parzeta.counting import partial_count
from parzeta.faltings import lemma_check
from parzeta.graphs import graph_count_direct, reduction_check
from parzeta.polys import base_field, parse_poly
from parzeta.zeta import certify, series_from_counts

from test_engine import oracle_count
from test_zeta import counts_of

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"

PER_K_BUDGET = 10 ** 7

# instances whose per-k cost stays within the fresh-count budget
RATIONALITY_CORPUS = [
    "diag11_f2", "diag12_f2", "hyperbola11_f2", "union_axes_f2",
    "point12_f2", "empty_f2", "affine_line_d2_f2", "mu3_d2_f2",
    "quartic_fixed_f2", "line11_f3", "parabola_f3", "sqrtneg1_f3",
    "genpoint_f4", "mu3_f4",
]

# every bundled variety, including the lcm-6 profiles
ALL_VARIETIES = RATIONALITY_CORPUS + [
    "diag23_f2", "hyperbola23_f2", "mu3_profile6_f2",
]

GRAPHS = ["g_single_d2", "g_pair_identity", "g_selfloop_square",
          "g_cycle3_square", "g_cycle3_identity", "g_pair_shift"]

AS_INSTANCES = ["as_cubic_f2_d1", "as_cubic_f2_d3", "as_linear_f2",
                "as_xy_f2", "as_quad_f3_d1", "as_quad_f3_d2",
                "as_quad_f3_d3", "as_cubic_f4_d1", "as_mixed_f2",
                "as_quintic_f2"]


def variety(name):
    X, _, _ = load_instance(str(CORPUS / f"{name}.json"), "variety")
    return X


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def reconstructions():
    out = {}
    for name in RATIONALITY_CORPUS:
        X = variety(name)
        out[name] = (X, certify(X, 12, holdout=3, budget=PER_K_BUDGET))
    return out


@pytest.fixture(scope="module")
def graph_reports():
    out = {}
    for name in GRAPHS:
        G, _, _ = load_instance(str(CORPUS / f"{name}.json"), "graph")
        out[name] = (G, reduction_check(G, 3, budget=PER_K_BUDGET))
    return out


def test_criterion_1_rationality(reconstructions):
    ok = len(reconstructions) >= 12
    for name, (X, cert) in reconstructions.items():
        B = len(cert.counts)
        fresh = [partial_count(X, k, budget=PER_K_BUDGET)
                 for k in (B + 1, B + 2)]
        predicted = counts_of(cert.function, B + 2)[B:]
        if predicted != fresh:
            ok = False
    report("1 (rationality certification)", ok)


def test_criterion_2_closed_forms():
    ok = True
    diag = variety("diag11_f2")
    for profile in [(1, 1), (1, 2), (2, 3)]:
        X = diag.with_profile(profile)
        R = certify(X, 12).function
        if R.num != (1,) or R.den != (1, -2):
            ok = False
        oracle = [oracle_count(X, k) for k in (1, 2, 3)]
        if counts_of(R, 3) != oracle:
            ok = False
    hyp = variety("hyperbola11_f2")
    R = certify(hyp, 12).function
    if R.num != (1, -1) or R.den != (1, -2):
        ok = False
    if counts_of(R, 3) != [oracle_count(hyp, k) for k in (1, 2, 3)]:
        ok = False
    report("2 (closed-form matches)", ok)


def test_criterion_3_fixed_point_equality():
    ok = True
    for name in ALL_VARIETIES:
        X = variety(name)
        assert X.D <= 6
        rep = lemma_check(X, 2, budget=PER_K_BUDGET)
        if not (rep.passed and rep.reconstruction_ok):
            ok = False
    report("3 (cyclic-cover fixed points)", ok)


def test_criterion_4_graph_reduction(graph_reports):
    ok = len(graph_reports) >= 5
    for name, (G, rep) in graph_reports.items():
        for k in (1, 2, 3):
            if graph_count_direct(G, k) != rep.reduced_counts[k - 1]:
                ok = False
        if not (rep.passed and rep.certificate.weights.passed):
            ok = False
    report("4 (graph zeta reduction)", ok)


def test_criterion_5_weil_weights(reconstructions, graph_reports):
    ok = True
    for name, (X, cert) in reconstructions.items():
        wr = cert.weights
        if not wr.passed or any(r.weight < 0 for r in wr.roots):
            ok = False
    for name, (G, rep) in graph_reports.items():
        if not rep.certificate.weights.passed:
            ok = False
    report("5 (Weil weights)", ok)


def test_criterion_6_integrality(reconstructions):
    ok = True
    for name, (X, cert) in reconstructions.items():
        S = series_from_counts(cert.counts)
        if not all(z.denominator == 1 for z in S.coeffs):
            ok = False
        coeffs = cert.function.num + cert.function.den
        if not all(isinstance(c, int) for c in coeffs):
            ok = False
    report("6 (integer coefficients)", ok)


def test_criterion_7_artin_schreier():
    ok = True
    for name in AS_INSTANCES:
        inst, _, _ = load_instance(str(CORPUS / f"{name}.json"),
                                   "artin-schreier")
        space = (inst.q ** inst.d) ** (inst.n + 1) * inst.q ** inst.nprime
        assert space <= PER_K_BUDGET
        if as_count_brute(inst) != as_count_trace(inst):
            ok = False
    rep = bound_check(
        ASInstance(2, 1, 1, 1, 1,
                   parse_poly("x1^3 + y1^3", ["x1", "y1"],
                              base_field(2, 1))))
    if not (rep.N_d == 4 and rep.deviation == 0 and rep.bound_squared == 64
            and rep.satisfied):
        ok = False
    # Example 4.4: the fibred sum of f(x) + f(y) is smooth iff p does not
    # divide d
    for text, p in (("x1^3 + y1^3", 2), ("x1^2 + y1^2", 3)):
        form = parse_poly(text, ["x1", "y1"], base_field(p, 1))
        for d in range(1, 7):
            smooth = diagonal_smooth_check(fibred_sum(form, 1, 1, d), p)
            if (smooth == "smooth") != (d % p != 0):
                ok = False
    report("7 (exponential-sum oracles and bound)", ok)


def _without_timings(stdout):
    rep = json.loads(stdout)
    del rep["timings"]
    return json.dumps(rep, sort_keys=True, indent=2).encode()


def _cli_report(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return _without_timings(buf.getvalue())


def _fresh_cli_report(argv, hash_seed):
    """The report of ``python -m parzeta.cli`` in a new process, whose
    field, orbit and count-order caches start empty."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-m", "parzeta.cli", *argv],
                         capture_output=True, env=env, check=True)
    return _without_timings(run.stdout)


def test_criterion_8_determinism():
    # each job in two fresh processes under different hash seeds, then
    # twice here, where the second run finds every cache warm
    ok = True
    jobs = [
        ["zeta", str(CORPUS / "diag12_f2.json")],
        ["count", str(CORPUS / "hyperbola11_f2.json"), "-k", "4"],
        ["zeta", str(CORPUS / "union_axes_f2.json")],
    ]
    for argv in jobs:
        reports = {_fresh_cli_report(argv, 0), _fresh_cli_report(argv, 1),
                   _cli_report(argv), _cli_report(argv)}
        if len(reports) != 1:
            ok = False
    report("8 (determinism)", ok)
