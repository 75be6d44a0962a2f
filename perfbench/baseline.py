"""Repeat the benchmark over seeds, twice, and summarise its spread.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run from the repository root.  It makes two sets of runs of ``run.py``:
each set runs every workload of BENCHMARK.json once per seed 1..10, and
the second set starts after the first has ended.  For each set it
reports each end-to-end metric's median, quartiles and spread (quartile
distance over median, the steadiness measure the bounds in
BENCHMARK.json are checked against), and for each metric how much worse
the second set's median is than the first's.  Then it makes one traced
run per workload.  ``--out`` writes everything, with each run's record,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def run_set(workload, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in SEEDS:
        info, result = run_once(workload, seed, bench["run_seconds"], False)
        runs.append({"seed": seed, "record": info["record"],
                     "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "verdicts": info["details"]["verdicts"],
                     "tail_percentile": info["details"]["tail_percentile"],
                     "wall_s": info["details"]["wall_s"],
                     "unscaled": info["details"]["unscaled"],
                     "metrics": {k: v["value"] for k, v
                                 in result["metrics"].items()}})
        print(workload, seed, result["correct"], info["details"]["verdicts"],
              {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
              flush=True)
    summary = {name: spread([r["metrics"][name] for r in runs])
               for name in bounds}
    unscaled = {name: spread([r["unscaled"][name] for r in runs])
                for name in runs[0]["unscaled"]}
    for name, s in summary.items():
        flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over 1/3 bound"
        raw = (f"  (unscaled {unscaled[name]['spread']:.4f})"
               if name in unscaled else "")
        print(f"  {workload:12s} {name:12s} median {s['median']:.5g}  spread "
              f"{s['spread']:.4f}  bound {bounds[name]}{flag}{raw}",
              flush=True)
    return {"runs": runs, "summary": summary, "unscaled": unscaled,
            "failed_frac": [r["failed"] / r["attempted"] for r in runs]}


def agreement(first, second, bench):
    """Per metric: how much worse the second set's median is than the
    first's, as a share of the first; negative when it is better."""
    out = {}
    for m in bench["end_to_end"]:
        a = first["summary"][m["name"]]["median"]
        b = second["summary"][m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"worse": worse, "bound": m["bound"],
                          "within": worse <= m["bound"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    sets = [{w: run_set(w, bench) for w in names} for _ in range(SETS)]
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        entry = {"sets": [s[w] for s in sets],
                 "agreement": agreement(sets[0][w], sets[-1][w], bench)}
        for name, a in entry["agreement"].items():
            print(f"  {w:12s} {name:12s} second set worse by "
                  f"{a['worse']:+.4f}  bound {a['bound']}"
                  f"{'' if a['within'] else '  <-- over bound'}", flush=True)
        info, result = run_once(w, SEEDS[0], bench["run_seconds"], True)
        details = info["details"]
        entry["traced"] = {
            "seed": SEEDS[0], "record": info["record"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "details": details,
        }
        print(f"  {w} traced: overhead "
              f"{result['metrics']['trace.overhead_frac']['value']:.4f}, "
              f"same results {details['traced_same_results']}", flush=True)
        out["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
