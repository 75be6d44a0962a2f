"""Field arithmetic and construction, per element, through the public API.

For each listed field F_{p^m}: ns per ``x + y``, ``x * y``,
``x.inverse()`` and ``F.frobenius(x, 1)`` on seeded random elements, the
time of a cold ``field(p, 1, m)`` build, and the time to span the whole
field as ``subfield(m, method="span")`` on that fresh field object, all
in reference-speed time (see ``speed``).
"""

from __future__ import annotations

import random
import statistics

import speed

SIZES = {"p2m6": (2, 6), "p2m12": (2, 12), "p2m18": (2, 18), "p3m8": (3, 8)}
ELEMENTS = 400
REPEATS = 5


def _per_op_ns(op, xs, ys):
    """Median over REPEATS of the ns per call of op over the element pairs."""
    def loop():
        for x, y in zip(xs, ys):
            op(x, y)

    return statistics.median(speed.timed(loop)[1] / len(xs) * 1e9
                             for _ in range(REPEATS))


def _cold_field(fields, p, m):
    """A freshly built field(p, 1, m): clear the caches the build goes through."""
    for fn in (fields.field, getattr(fields, "smallest_irreducible", None)):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()
    return speed.timed(fields.field, p, 1, m)


def field_metrics(seed):
    from parzeta import fields

    rng = random.Random(f"fields:{seed}")
    out = {}
    for tag, (p, m) in SIZES.items():
        F, build_s = _cold_field(fields, p, m)
        span, span_s = speed.timed(F.subfield, m, "span")
        if len(span) != p ** m:
            raise RuntimeError(f"span of F_{p}^{m} has {len(span)} elements")

        def rand_nonzero():
            while True:
                c = [rng.randrange(p) for _ in range(m)]
                if any(c):
                    return F.element(c)

        xs = [rand_nonzero() for _ in range(ELEMENTS)]
        ys = [rand_nonzero() for _ in range(ELEMENTS)]
        out[f"fields.add_ns.{tag}"] = _per_op_ns(lambda x, y: x + y, xs, ys)
        out[f"fields.mul_ns.{tag}"] = _per_op_ns(lambda x, y: x * y, xs, ys)
        out[f"fields.inv_ns.{tag}"] = _per_op_ns(lambda x, y: x.inverse(),
                                                  xs, ys)
        out[f"fields.frobenius_ns.{tag}"] = _per_op_ns(
            lambda x, y: F.frobenius(x, 1), xs, ys)
        out[f"fields.build_s.{tag}"] = build_s
        out[f"fields.span_subfield_s.{tag}"] = span_s
    return out
