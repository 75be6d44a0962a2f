"""Span recorders rebound over parzeta's public functions, from outside.

``Tracer.install`` replaces each listed function, in every ``parzeta``
module namespace that holds it, with a wrapper that records a span
(name, start, end, parent span, job id) and, for some functions, counts
taken from the arguments and the return value.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics.  A listed name
that the package no longer has is skipped and reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

def _partial_count_counts(c, args, kwargs, out):
    X, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    tuples = 1
    for d in X.profile:
        tuples *= (X.p ** X.s) ** (d * k)
    c["counting.tuples"] += tuples
    c["counting.solutions"] += out


def _subfield_counts(c, args, kwargs, out):
    c["fields.subfield.elements"] += len(out)


def _accept_counts(c, args, kwargs, out):
    c["zeta.pade_accepted"] += 1


# span name -> count hook; "module.name" is a module-level function and
# "module.Class.name" a method.  build_field and classical_count are
# listed so that their removal is reported, not fatal.
TARGETS = {
    "cli.main": None,
    "cli.load_instance": None,
    "polys.parse_poly": None,
    "fields.field": None,
    "fields.build_field": None,
    "fields.smallest_irreducible": None,
    "fields.Field.subfield": _subfield_counts,
    "fields.Field.embed_base": None,
    "counting.partial_count": _partial_count_counts,
    "counting.classical_count": None,
    "faltings.lemma_check": None,
    "faltings.enumerate_y_points": None,
    "faltings.variety_points": None,
    "faltings.build_faltings": None,
    "graphs.graph_count_direct": None,
    "graphs.reduction_check": None,
    "artin_schreier.as_count_brute": None,
    "artin_schreier.as_count_trace": None,
    "artin_schreier.singular_search": None,
    "zeta.series_from_counts": None,
    "zeta.pade_reconstruct": None,
    "zeta.auto_reconstruct": _accept_counts,
    "zeta.weil_weight_check": None,
}


def _span_key(target):
    """'fields.Field.subfield' is reported as 'fields.subfield'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counters = {"counting.tuples": 0, "counting.solutions": 0,
                         "fields.subfield.elements": 0,
                         "zeta.pade_accepted": 0}
        self.absent = []
        self._undo = []

    def accept(self):
        """Count a Pade candidate accepted outside ``auto_reconstruct``."""
        self.counters["zeta.pade_accepted"] += 1

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.job is None:    # building inputs, not running a job
                return fn(*args, **kwargs)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        return span

    def install(self):
        for target, hook in TARGETS.items():
            parts = target.split(".")
            module = importlib.import_module(f"parzeta.{parts[0]}")
            name = _span_key(target)
            if len(parts) == 3:
                cls = getattr(module, parts[1], None)
                fn = cls.__dict__.get(parts[2]) if cls is not None else None
                if fn is None:
                    self.absent.append(target)
                    continue
                setattr(cls, parts[2], self._wrap(name, fn, hook))
                self._undo.append((cls, parts[2], fn))
                continue
            fn = getattr(module, parts[1], None)
            if fn is None:
                self.absent.append(target)
                continue
            wrapped = self._wrap(name, fn, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "parzeta"
                                       or mod_name.startswith("parzeta.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- per-layer metrics ---------------------------------------------------

    def span_totals(self, factors):
        """span name -> {calls, total_s, self_s} over the recorded spans.

        Durations are scaled by their job's factor (see ``speed``).
        total_s skips spans nested in a span of the same name, so recursion
        is not counted twice; self_s is a span's duration minus the time
        its direct child spans cover.
        """
        spans = self.spans
        durations = [(end - start) * factors[job]
                     for _, start, end, _, job in spans]
        child_time = [0.0] * len(spans)
        for (_, _, _, parent, _), d in zip(spans, durations):
            if parent >= 0:
                child_time[parent] += d
        out = {}
        for i, (name, _, _, parent, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += durations[i] - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["total_s"] += durations[i]
        return out

    def layer_metrics(self, names, factors):
        """The span- and counter-based metrics among ``names``.

        ``<span>.calls``, ``<span>.total_s`` and ``<span>.self_s`` come from
        the spans (0 when the span never ran), counters by their own name,
        plus the ratios built from them.
        """
        totals = self.span_totals(factors)
        spans = {_span_key(target) for target in TARGETS}
        c = self.counters
        out = {}
        for name in names:
            span, _, stat = name.rpartition(".")
            if name in c:
                out[name] = c[name]
            elif span in spans and stat in ("calls", "total_s", "self_s"):
                out[name] = totals.get(span, {}).get(stat, 0)
        counting_s = totals.get("counting.partial_count", {}).get("total_s")
        out["counting.tuples_per_s"] = (c["counting.tuples"] / counting_s
                                        if counting_s else 0.0)
        out["counting.solutions_per_tuple"] = (
            c["counting.solutions"] / c["counting.tuples"]
            if c["counting.tuples"] else 0.0)
        pade_calls = totals.get("zeta.pade_reconstruct", {}).get("calls")
        out["zeta.pade_accept_frac"] = (c["zeta.pade_accepted"] / pade_calls
                                        if pade_calls else 0.0)
        return out, totals
