"""Regenerate the benchmark's shipped data.

    python3 perfbench/make_data.py corpus   # perfbench/corpus_expected.json
    python3 perfbench/make_data.py pool     # perfbench/enumerate_pool.json

Run from the repository root.  ``corpus`` records the mathematical part
of every corpus job's report at the current commit; regenerate it only
when a change is meant to alter those results.  ``pool`` draws the
enumerate workload's random varieties from a fixed seed and counts their
points with an oracle that shares nothing with ``counting``: subfields
by Frobenius filtering, points by ``SparsePoly.evaluate`` on the full
product.  It also asserts that ``partial_count`` agrees.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

POOL_SEED = 20030417
POOL_PER_SHAPE = 16
TUPLE_CAP = 2 ** 15

# (p, profile, number of equations); lcm 6 appears for p = 2 and p = 3
SHAPES = [
    (2, (1, 1), 1), (2, (1, 2), 1), (2, (1, 3), 2), (2, (2, 3), 1),
    (2, (1, 1, 1), 2), (2, (1, 2, 2), 1),
    (3, (1, 1), 1), (3, (1, 2), 2), (3, (1, 1, 1), 1), (3, (1, 2, 3), 2),
]


def write_json(name, data):
    with open(os.path.join(HERE, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_corpus():
    expected = {}
    for job_id, argv in workloads._corpus_argvs():
        t0 = time.perf_counter()
        raw = workloads._run_cli(argv)
        expected[job_id] = workloads.corpus_summary(argv, raw)
        print(f"{time.perf_counter() - t0:8.3f}s exit {raw[0]}  {job_id}",
              flush=True)
    write_json("corpus_expected.json", expected)


def _random_equation(rng, p, n):
    monos = [e for e in product(range(4), repeat=n) if 0 < sum(e) <= 3]
    monos.append((0,) * n)
    terms = []
    for exps in rng.sample(monos, rng.randint(2, 4)):
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exps) if e]
        c = rng.randint(1, p - 1)
        if not factors:
            terms.append(str(c))
        else:
            terms.append("*".join(([str(c)] if c > 1 else []) + factors))
    return " + ".join(terms)


def _largest_k(p, profile):
    k = 0
    while p ** (sum(profile) * (k + 1)) <= TUPLE_CAP:
        k += 1
    return k


def oracle_count(X, k):
    from parzeta.fields import field

    amb = field(X.p, X.s, X.D * k)
    doms = [amb.subfield(d * k, method="filter") for d in X.profile]
    return sum(1 for pt in product(*doms)
               if all(eq.evaluate(pt, amb).is_zero() for eq in X.equations))


def make_pool():
    from parzeta.counting import partial_count

    rng = random.Random(POOL_SEED)
    shapes = []
    for p, profile, n_eq in SHAPES:
        n = len(profile)
        K = _largest_k(p, profile)
        entries = []
        t_engine = t_oracle = 0.0
        while len(entries) < POOL_PER_SHAPE:
            eqs = [_random_equation(rng, p, n) for _ in range(n_eq)]
            entry = {"id": f"p{p}:{','.join(map(str, profile))}:{len(entries)}",
                     "p": p, "n": n, "profile": list(profile),
                     "equations": eqs, "K": K}
            X = workloads.variety_from_entry(entry)
            if not all(eq.terms for eq in X.equations):
                continue   # an equation that collapsed to zero mod p
            t0 = time.perf_counter()
            counts = [oracle_count(X, k) for k in range(1, K + 1)]
            t1 = time.perf_counter()
            engine = [partial_count(X, k) for k in range(1, K + 1)]
            t_oracle += t1 - t0
            t_engine += time.perf_counter() - t1
            if engine != counts:
                raise SystemExit(f"partial_count {engine} != oracle {counts} "
                                 f"for {entry}")
            entry["counts"] = counts
            entries.append(entry)
        print(f"p={p} profile={profile} K={K}: engine {t_engine:.2f}s, "
              f"oracle {t_oracle:.2f}s for {POOL_PER_SHAPE}", flush=True)
        shapes.append({"p": p, "profile": list(profile), "K": K,
                       "entries": entries})
    write_json("enumerate_pool.json",
               {"seed": POOL_SEED, "tuple_cap": TUPLE_CAP, "shapes": shapes})


if __name__ == "__main__":
    what = sys.argv[1:] or ["corpus", "pool"]
    for w in what:
        {"corpus": make_corpus, "pool": make_pool}[w]()
