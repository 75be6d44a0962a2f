"""One fresh, single-threaded process of the benchmark.

    worker.py setup
        import parzeta, print one line, exit: what ``setup_s`` times.
    worker.py run   WORKLOAD SEED ROUNDS
    worker.py trace WORKLOAD SEED ROUNDS
        build the job list, time every job from outside, then check the
        results; ``trace`` also records spans and runs the field micro
        section.  The last stdout line is one JSON object.

``run.py`` starts it with ``src`` on PYTHONPATH from the checkout root.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
import traceback

import speed


def _import_parzeta():
    """Import the package, which loads every module but the CLI, and the CLI."""
    import parzeta
    import parzeta.cli  # noqa: F401

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(parzeta.__file__).startswith(src + os.sep):
        raise SystemExit(f"parzeta imported from {parzeta.__file__}, "
                         f"not from {src}")


def record():
    import numpy

    return {"machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0))}


def run_jobs(jobs, tracer=None):
    """Time each job's call only; summaries and checks come after the clock.

    ``speed.reference()`` runs before the first job and after every job,
    and job i is scaled by the factor of the two around it.  A full
    collection before each job, outside its time, makes the collector's
    work inside a job depend on that job and not on the ones before it.
    """
    raws, latencies, errors = [], [], []
    refs = [speed.reference()]
    t_start = time.perf_counter()
    for i, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            raw, err = job.run(), None
        except Exception:  # a job failure is a result, not a crash
            raw, err = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.job = None
        refs.append(speed.reference())
        raws.append(raw)
        errors.append(err)
    wall = time.perf_counter() - t_start
    out = []
    for job, raw, err, lat, before, after in zip(jobs, raws, errors,
                                                  latencies, refs, refs[1:]):
        if err is not None:
            verdict, summary = "failed", None
        else:
            try:
                summary = job.summary(raw)
                verdict = job.check(summary)
            except Exception:
                summary, verdict = None, "failed"
                err = traceback.format_exc(limit=3)
        out.append({"id": job.id, "latency_s": lat,
                    "factor": speed.factor(before, after),
                    "verdict": verdict, "summary": summary, "error": err})
    return out, wall


def main(argv):
    mode = argv[0]
    _import_parzeta()
    if mode == "setup":
        print("ready", flush=True)
        return 0
    # the benchmark's own modules load after the setup line, outside setup_s
    import micro
    import workloads
    from layers import UNITS
    from tracer import Tracer

    workload, seed, rounds = argv[1], int(argv[2]), int(argv[3])
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    jobs = workloads.build_jobs(workload, seed, rounds,
                                on_accept=tracer.accept if tracer else None)
    results, wall = run_jobs(jobs, tracer)
    result = {"jobs": results, "wall_s": wall, "record": record(),
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024}
    if tracer is not None:
        tracer.uninstall()
        layers, spans = tracer.layer_metrics(UNITS,
                                             [j["factor"] for j in results])
        layers.update(micro.field_metrics(seed))
        result.update(layers=layers, spans=spans, absent=tracer.absent,
                      span_count=len(tracer.spans))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
