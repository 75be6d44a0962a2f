"""The benchmark's three workloads: job lists, seeded inputs and result checks.

A job is a callable timed from outside by the worker.  Its raw return
value is reduced to a JSON-able *summary* (the mathematical part of the
result) after the clock stops, and the summary is compared with the
expected one.  Every job ends in one verdict:

- ``ok``:                the summary equals the expected result;
- ``weight_false_pass``: the float Weil-weight check accepted a non-Weil
                         candidate whose |lambda|^2 = q^w + 1 with
                         q^w >= 10^9 lies closer to q^w than its 1e-6
                         tolerance can tell (ROADMAP item 5);
- ``early_match``:       ``auto_reconstruct``'s deepening with 3 held-out
                         terms accepted a rational function of lower
                         total degree that reproduces every count it used;
- ``failed``:            anything else: a wrong result, an unexpected
                         exception or an unexpected exit code.

The two known defects count in ``failed`` but do not make a run wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus", "enumerate", "reconstruct")

KNOWN_DEFECTS = ("weight_false_pass", "early_match")

# run() is timed; summary(raw) is the JSON-able mathematical result and
# check(summary) its verdict, both computed after the clock stops
Job = namedtuple("Job", "id run summary check")

# ---------------------------------------------------------------------------
# corpus: every CLI subcommand on every corpus instance it applies to
# ---------------------------------------------------------------------------

RATIONALITY_CORPUS = [
    "diag11_f2", "diag12_f2", "hyperbola11_f2", "union_axes_f2",
    "point12_f2", "empty_f2", "affine_line_d2_f2", "mu3_d2_f2",
    "quartic_fixed_f2", "line11_f3", "parabola_f3", "sqrtneg1_f3",
    "genpoint_f4", "mu3_f4",
]
ALL_VARIETIES = RATIONALITY_CORPUS + ["diag23_f2", "hyperbola23_f2",
                                      "mu3_profile6_f2"]
GRAPHS = ["g_single_d2", "g_pair_identity", "g_selfloop_square",
          "g_cycle3_square", "g_cycle3_identity", "g_pair_shift"]
AS_INSTANCES = ["as_cubic_f2_d1", "as_cubic_f2_d3", "as_linear_f2",
                "as_xy_f2", "as_quad_f3_d1", "as_quad_f3_d2",
                "as_quad_f3_d3", "as_cubic_f4_d1", "as_mixed_f2",
                "as_quintic_f2"]


def _corpus_argvs():
    """(job id, argv) for the corpus job list, in a fixed canonical order.

    ``zeta`` leaves out hyperbola23_f2 and mu3_profile6_f2: at the seed
    commit one runs about 38 s and the other builds a 2^24-element
    subfield before refusing.
    """
    def path(name):
        return os.path.join("corpus", f"{name}.json")

    jobs = []
    for name in ALL_VARIETIES:
        k = "2" if name == "mu3_profile6_f2" else "3"
        jobs.append(["count", path(name), "-k", k])
    for name in RATIONALITY_CORPUS + ["diag23_f2"]:
        jobs.append(["zeta", path(name), "--budget", "10000000"])
    for name in ALL_VARIETIES:
        jobs.append(["faltings", path(name)])
    for name in GRAPHS:
        jobs.append(["graph", path(name)])
    for name in AS_INSTANCES:
        jobs.append(["as", path(name)])
    jobs.append(["sweep", path("diag11_f2"), "1,1", "1,2", "2,3"])
    jobs.append(["sweep", path("hyperbola11_f2"), "1,1", "1,2", "2,1"])
    # the budget refusal: exit 3 after materialising 2^18 subfield elements
    jobs.append(["count", path("mu3_profile6_f2"), "-k", "3",
                 "--budget", "10000"])
    return [(" ".join(argv), argv) for argv in jobs]


def _weights(w):
    if w is None:
        return None
    return {"passed": w.get("passed"),
            "weights": sorted(r.get("weight") for r in w.get("roots", []))}


def _zeta(z):
    if z is None:
        return None
    return {"numerator": z.get("numerator"),
            "denominator": z.get("denominator")}


def corpus_summary(argv, raw):
    """The mathematical part of a CLI report, plus the exit code.

    ``timings`` and ``budget.consumed`` are ignored, and so is every
    field not named here, so a format-only change is not a failure.
    """
    code, out = raw
    s = {"exit": code}
    if not out.strip():
        return s
    o = json.loads(out).get("outputs", {})
    cmd = argv[0]
    if cmd == "count":
        s["counts"] = o.get("counts")
    elif cmd == "zeta":
        s.update(status=o.get("status"), counts=o.get("counts"),
                 zeta=_zeta(o.get("zeta")), B_used=o.get("B_used"),
                 weights=_weights(o.get("weights")))
    elif cmd == "faltings":
        lem = o.get("lemma", {})
        s["lemma"] = {
            "passed": lem.get("passed"),
            "reconstruction_ok": lem.get("reconstruction_ok"),
            "entries": [[e.get("a"), e.get("k"), e.get("partial_count"),
                         e.get("fixed_point_count"), e.get("equal")]
                        for e in lem.get("entries", [])],
        }
    elif cmd == "graph":
        s.update(status=o.get("status"),
                 direct_counts=o.get("direct_counts"),
                 reduced_counts=o.get("reduced_counts"),
                 counts_agree=o.get("counts_agree"),
                 zeta=_zeta(o.get("zeta")), B_used=o.get("B_used"),
                 weights=_weights(o.get("weights")))
    elif cmd == "as":
        s.update(status=o.get("status"), N_d=o.get("N_d"),
                 satisfied=o.get("satisfied"),
                 smooth_status=o.get("smooth_status"))
    elif cmd == "sweep":
        keys = ("profile", "B_used", "deg_num", "deg_den", "total_degree",
                "weights", "status")
        s["rows"] = [{k: row.get(k) for k in keys}
                     for row in o.get("rows", [])]
    return s


def _run_cli(argv):
    from parzeta.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def load_corpus_expected():
    with open(os.path.join(HERE, "corpus_expected.json")) as fh:
        return json.load(fh)


def corpus_round(rng, expected):
    """All corpus jobs in a seeded order."""
    jobs = [Job(job_id, functools.partial(_run_cli, argv),
                functools.partial(corpus_summary, argv),
                functools.partial(_equals, expected[job_id]))
            for job_id, argv in _corpus_argvs()]
    rng.shuffle(jobs)
    return jobs


def _equals(want, summary):
    return "ok" if summary == want else "failed"


# ---------------------------------------------------------------------------
# enumerate: partial counts of random varieties from a shipped pool
# ---------------------------------------------------------------------------

def load_pool():
    with open(os.path.join(HERE, "enumerate_pool.json")) as fh:
        return json.load(fh)


def variety_from_entry(entry):
    from parzeta.polys import VarietySpec, base_field, parse_poly

    base = base_field(entry["p"], 1)
    names = [f"x{i + 1}" for i in range(entry["n"])]
    eqs = tuple(parse_poly(t, names, base) for t in entry["equations"])
    return VarietySpec(entry["p"], 1, entry["n"], eqs, tuple(entry["profile"]))


# varieties per pool shape in a round: the pool's first ones, which are a
# seeded random draw.  All 16 make a run take about 45 s, too long to
# repeat for every seed of a baseline.
ENUMERATE_PER_SHAPE = 12


def enumerate_jobs(rng, pool, rounds):
    """The first ENUMERATE_PER_SHAPE varieties of each pool shape once a
    round, each job counting N_1..N_K.

    The seed only permutes the order, so every run does the same work and
    its tail job does not depend on which varieties a seed draws.
    """
    from parzeta.counting import partial_count

    jobs = []
    for _ in range(rounds):
        for shape in pool["shapes"]:
            for entry in shape["entries"][:ENUMERATE_PER_SHAPE]:
                X = variety_from_entry(entry)

                def run(X=X, K=entry["K"]):
                    return [partial_count(X, k) for k in range(1, K + 1)]

                jobs.append(Job(entry["id"], run, list,
                                functools.partial(_equals, entry["counts"])))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# reconstruct: Pade recovery and the weight check on synthetic zetas
# ---------------------------------------------------------------------------

# One round: (total degree, non-Weil kind) per job.  A non-Weil factor
# 1 + (q^w + 1) T^2 is "small" when q^w <= 10^4, so |lambda|^2 = q^w + 1 is
# far from q^w, and "large" when q^w >= 10^9, closer than a 1e-6 relative
# tolerance can tell.  Their coefficients are big, so they go on low degrees.
# Every degree from 4 to 22 is used, so job cost rises in small steps and
# neither the median nor the tail job sits on a jump between degrees.
RECON_ROUND = [(d, None) for d in range(4, 23)] + [(6, "small"), (12, "large")]
RECON_QS = [2, 3, 4, 5, 7, 9]
# held-out terms, as in auto_reconstruct
HOLDOUT = 3
# (q, non-Weil kind, P, Q): a Weil P/Q at q = 2 that the deepening takes
# for 1/(1 + T + 4T^2 + 8T^3), which matches its N_1..N_6.  Synthetic
# candidates meet such an early match about once in 3000, so one per
# round keeps the defect in view.
EARLY_MATCH_WITNESS = (2, None, (1, 1, 4, -2, 8, 0, 16),
                       (1, 2, 9, 14, 30, 32, 32))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pgcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by a plain Euclid on Fractions."""
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a = trim([Fraction(x) for x in a])
    b = trim([Fraction(x) for x in b])
    while b:
        r = list(a)
        while len(r) >= len(b) and trim(r):
            c = r[-1] / b[-1]
            sh = len(r) - len(b)
            for i, y in enumerate(b):
                r[sh + i] -= c * y
            trim(r)
        a, b = b, r
    return len(a) - 1


def _weil_side(rng, q, degree, start):
    """A product of Weil factors of the given degree.

    Quadratics 1 - aT + q^w T^2 with a^2 <= 4 q^w (|lambda|^2 = q^w), then
    one 1 -/+ q^w T if the degree is odd; w cycles 0, 1, 2 from ``start``,
    so a job's coefficient sizes, and its cost, follow from its degree.
    """
    poly, i = [1], start
    while degree >= 2:
        w = i % 3
        bound = math.isqrt(4 * q ** w)
        poly = _pmul(poly, [1, -rng.randint(-bound, bound), q ** w])
        degree -= 2
        i += 1
    if degree:
        poly = _pmul(poly, [1, rng.choice((-1, 1)) * q ** (i % 3)])
    return poly


def _non_weil_factor(rng, q, kind):
    """1 + (q^w + 1) T^2: |lambda|^2 = q^w + 1 is never a power of q."""
    ws = [w for w in range(1, 41)
          if (q ** w <= 10 ** 4 if kind == "small" else q ** w >= 10 ** 9)]
    return [1, 0, q ** rng.choice(ws) + 1]


def _synthetic(rng, total, q, non_weil):
    """Coprime P, Q, deg P = total // 2, deg Q = the rest; P(0) = Q(0) = 1."""
    degrees = [total // 2, total - total // 2]
    while True:
        bad_side = rng.randint(0, 1) if non_weil else None
        sides = []
        for side, degree in enumerate(degrees):
            if side == bad_side:
                sides.append(_pmul(_non_weil_factor(rng, q, non_weil),
                                   _weil_side(rng, q, degree - 2, side)))
            else:
                sides.append(_weil_side(rng, q, degree, side))
        P, Q = sides
        if _pgcd_degree(P, Q) == 0:
            return tuple(P), tuple(Q)


def _counts_from(P, Q, B):
    """N_1..N_B of P/Q: power sums of the reciprocal poles minus zeros."""
    def power_sums(c):
        out = []
        for k in range(1, B + 1):
            v = -k * (c[k] if k < len(c) else 0)
            for j in range(1, min(k - 1, len(c) - 1) + 1):
                v -= c[j] * out[k - j - 1]
            out.append(v)
        return out

    return [a - b for a, b in zip(power_sums(Q), power_sums(P))]


def _split_order(total):
    splits = [(dn, total - dn) for dn in range(total + 1)]
    splits.sort(key=lambda t: (abs(t[0] - t[1]), 0 if t[0] < t[1] else 1))
    return splits


def reconstruct_counts(counts, max_k, on_accept=None):
    """auto_reconstruct's iterative deepening, from counts, by public calls."""
    from parzeta.zeta import (ReconstructionError, pade_reconstruct,
                              series_from_counts)

    for B in range(2, max_k + 1):
        total = B - HOLDOUT
        if total < 0:
            continue
        S = series_from_counts(counts[:B])
        for dn, dd in _split_order(total):
            try:
                R = pade_reconstruct(S, dn, dd)
            except ReconstructionError:
                continue
            expansion = R.expand(B)
            if all(Fraction(expansion[k]) == S.coeffs[k]
                   for k in range(B + 1)):
                if on_accept is not None:
                    on_accept()
                return R
    return None


def _reconstruct_summary(raw):
    R, passed = raw
    if R is None:
        return {"num": None, "den": None, "passed": None}
    return {"num": list(R.num), "den": list(R.den), "passed": passed}


def _early_match(s, total, counts):
    """``early_match`` if the wrong answer is a lower-degree function that
    reproduces every count the deepening had used when it accepted it."""
    if s["num"] is None:
        return "failed"
    used = len(s["num"]) + len(s["den"]) - 2 + HOLDOUT
    if used - HOLDOUT < total and \
            _counts_from(s["num"], s["den"], used) == counts[:used]:
        return "early_match"
    return "failed"


def reconstruct_round(rng, round_index, on_accept=None):
    """One synthetic zeta per entry of RECON_ROUND, q cycling per round,
    and the EARLY_MATCH_WITNESS."""
    from parzeta.zeta import weil_weight_check

    cases = []
    for i, (total, non_weil) in enumerate(RECON_ROUND):
        q = RECON_QS[(i + round_index) % len(RECON_QS)]
        cases.append((q, non_weil) + _synthetic(rng, total, q, non_weil))
    cases.append(EARLY_MATCH_WITNESS)
    jobs = []
    for q, non_weil, P, Q in cases:
        total = len(P) + len(Q) - 2
        max_k = total + HOLDOUT
        counts = _counts_from(P, Q, max_k)

        def run(counts=counts, max_k=max_k, q=q):
            R = reconstruct_counts(counts, max_k, on_accept=on_accept)
            if R is None:
                return None, None
            return R, weil_weight_check(R, q).passed

        def check(s, P=P, Q=Q, kind=non_weil, counts=counts, total=total):
            if s["num"] != list(P) or s["den"] != list(Q):
                return _early_match(s, total, counts)
            if s["passed"] == (kind is None):
                return "ok"
            return ("weight_false_pass" if kind == "large" and s["passed"]
                    else "failed")

        jobs.append(Job(f"q{q}:deg{total}:{non_weil or 'weil'}:{P}/{Q}",
                        run, _reconstruct_summary, check))
    rng.shuffle(jobs)
    return jobs


def build_jobs(workload, seed, rounds, on_accept=None):
    """The run's whole job list: ``rounds`` rounds, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "corpus":
        expected = load_corpus_expected()
        for _ in range(rounds):
            jobs += corpus_round(rng, expected)
    elif workload == "enumerate":
        jobs = enumerate_jobs(rng, load_pool(), rounds)
    elif workload == "reconstruct":
        for r in range(rounds):
            jobs += reconstruct_round(rng, r, on_accept=on_accept)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
