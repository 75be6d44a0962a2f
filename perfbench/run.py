"""parzeta benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads are ``corpus``, ``enumerate`` and ``reconstruct`` (see
``workloads.py``).  A run is a whole number of rounds of the workload's
job list, ``round(seconds / ROUND_SECONDS)`` of them, so every commit
does the same work and a run at the seed commit takes about ``seconds``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of start to ``import parzeta`` done), ``jobs_per_s``,
``job_p50_s``, ``job_tail_s`` and ``peak_rss_mb`` of the one fresh
process that runs the jobs.  ``--trace 1`` runs the same job list once
untraced and once with span recorders, checks that both give the same
results, and prints the per-layer metrics.  Every time is scaled to the
machine's fast-phase speed by reference loops timed around it (see
``speed.py``).  The line before the result holds the run record and the
details behind the metrics, unscaled values included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
from layers import UNITS
from workloads import KNOWN_DEFECTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# seconds one round takes at the seed commit on a 2-core x86-64 virtual machine
ROUND_SECONDS = {"corpus": 24.0, "enumerate": 28.0, "reconstruct": 6.4}
# A corpus round has 68 jobs, so with one round the tail (10 jobs beyond)
# is p85 and lands on the cliff between the ten heavy jobs and the
# cache-dependent 0.1-0.2 s ones; two rounds put it at p93.
MIN_ROUNDS = {"corpus": 2, "enumerate": 1, "reconstruct": 1}
# setup is sampled before and after the job process
SETUP_SPAWNS = (5, 4)
TAIL_BEYOND = 10
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(args, deadline):
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(count, deadline):
    """Start to ``import parzeta`` done, for ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        before = speed.reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "setup"],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("setup process did not import parzeta")
        samples.append((elapsed, speed.factor(before, speed.reference())))
    return samples


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it."""
    xs = sorted(latencies)
    i = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[i], 100.0 * (i + 1) / len(xs)


def verdicts(jobs):
    counts = dict.fromkeys(("ok", "failed") + KNOWN_DEFECTS, 0)
    for j in jobs:
        counts[j["verdict"]] += 1
    return counts


def failures(jobs):
    return [{k: j[k] for k in ("id", "verdict", "summary", "error")}
            for j in jobs if j["verdict"] != "ok"][:20]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def scaled(jobs):
    return [j["latency_s"] * j["factor"] for j in jobs]


def end_to_end(args, rounds, deadline):
    setup = setup_samples(SETUP_SPAWNS[0], deadline)
    res = worker(["run", args.workload, str(args.seed), str(rounds)], deadline)
    setup += setup_samples(SETUP_SPAWNS[1], deadline)
    jobs = res["jobs"]
    lat = scaled(jobs)
    tail_s, tail_pct = tail(lat)
    v = verdicts(jobs)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "jobs_per_s": (v["ok"] / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    raw = [j["latency_s"] for j in jobs]
    details = {
        "jobs": len(jobs), "verdicts": v,
        "failed_frac": (len(jobs) - v["ok"]) / len(jobs),
        "tail_percentile": tail_pct, "tail_samples": len(lat),
        "unscaled": {"setup_s": statistics.median(t for t, _ in setup),
                     "jobs_per_s": v["ok"] / res["wall_s"],
                     "job_p50_s": statistics.median(raw),
                     "job_tail_s": tail(raw)[0]},
        "factor_median": statistics.median(j["factor"] for j in jobs),
        "setup_samples": setup, "wall_s": res["wall_s"],
        "failures": failures(jobs),
    }
    return jobs, metrics, details, res["record"], True


def traced(args, rounds, deadline):
    job_args = [args.workload, str(args.seed), str(rounds)]
    plain = worker(["run"] + job_args, deadline)
    res = worker(["trace"] + job_args, deadline)
    jobs = res["jobs"]
    same = ([(j["id"], j["summary"]) for j in plain["jobs"]]
            == [(j["id"], j["summary"]) for j in jobs])
    layers = dict(res["layers"])
    layers["trace.overhead_frac"] = sum(scaled(jobs)) / sum(
        scaled(plain["jobs"])) - 1
    metrics = {name: (layers[name], unit) for name, unit in UNITS.items()}
    details = {
        "jobs": len(jobs), "verdicts": verdicts(jobs),
        "traced_same_results": same, "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": res["wall_s"], "absent": res["absent"],
        "span_count": res["span_count"], "spans": res["spans"],
        "failures": failures(jobs),
    }
    return jobs, metrics, details, res["record"], same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for needed in (os.path.join("src", "parzeta", "__init__.py"), "corpus"):
        if not os.path.exists(needed):
            sys.stderr.write(f"run.py: {needed} not found; run from the root "
                             "of a parzeta checkout\n")
            return 2
    # one CPU for this process and all it starts, so that the reference
    # loop and what it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    if not args.trace:   # the traced run reports no tail
        rounds = max(rounds, MIN_ROUNDS[args.workload])
    run = traced if args.trace else end_to_end
    jobs, metrics, details, record, consistent = run(args, rounds, deadline)
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, rounds=rounds, trace=args.trace,
                  commit=git_commit())
    print(json.dumps({"record": record, "details": details}, sort_keys=True))
    failed = sum(1 for j in jobs if j["verdict"] != "ok")
    print(json.dumps({
        # a known defect is counted in failed but does not make a run wrong
        "correct": consistent and all(j["verdict"] != "failed" for j in jobs),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
