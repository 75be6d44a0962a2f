"""Per-layer metrics: unit, direction, and what each should move where.

Each row: (name, unit, better, end-to-end metrics it should move,
workloads that run it, workloads that bypass it).  A change to one layer
should move the named end-to-end metrics on the running workloads and
leave the bypassing ones unchanged.  ``run.py --trace 1`` prints exactly
these metrics, in this order.
"""

SIZES = ("p2m6", "p2m12", "p2m18", "p3m8")

ALL = ("corpus", "enumerate", "reconstruct")

PER_LAYER = [
    ("cli.main.self_s", "s", "lower", ["job_p50_s"], ["corpus"],
     ["enumerate", "reconstruct"]),
    ("cli.load_instance.total_s", "s", "lower", ["job_p50_s"], ["corpus"],
     ["enumerate", "reconstruct"]),
    ("polys.parse_poly.total_s", "s", "lower", ["job_p50_s"], ["corpus"],
     ["enumerate", "reconstruct"]),
    ("polys.parse_poly.calls", "count", "lower", ["job_p50_s"], ["corpus"],
     ["enumerate", "reconstruct"]),
    ("fields.field.total_s", "s", "lower", ["job_p50_s", "setup_s"],
     ["corpus"], ["reconstruct"]),
    ("fields.field.calls", "count", "lower", ["job_p50_s", "setup_s"],
     ["corpus"], ["reconstruct"]),
    ("fields.smallest_irreducible.total_s", "s", "lower",
     ["job_p50_s", "setup_s"], ["corpus"], ["reconstruct"]),
    ("fields.embed_base.total_s", "s", "lower", ["job_p50_s", "setup_s"],
     ["corpus"], ["reconstruct"]),
    ("fields.subfield.total_s", "s", "lower", ["jobs_per_s", "peak_rss_mb"],
     ["corpus", "enumerate"], ["reconstruct"]),
    ("fields.subfield.calls", "count", "lower", ["jobs_per_s", "peak_rss_mb"],
     ["corpus", "enumerate"], ["reconstruct"]),
    ("fields.subfield.elements", "count", "lower",
     ["jobs_per_s", "peak_rss_mb"], ["corpus", "enumerate"], ["reconstruct"]),
    ("counting.partial_count.self_s", "s", "lower", ["jobs_per_s"],
     ["enumerate"], ["reconstruct"]),
    ("counting.partial_count.calls", "count", "lower", ["jobs_per_s"],
     ["enumerate"], ["reconstruct"]),
    ("counting.tuples", "count", "lower", ["jobs_per_s"], ["enumerate"],
     ["reconstruct"]),
    ("counting.solutions", "count", "higher", ["jobs_per_s"], ["enumerate"],
     ["reconstruct"]),
    ("counting.tuples_per_s", "1/s", "higher", ["jobs_per_s"], ["enumerate"],
     ["reconstruct"]),
    ("counting.solutions_per_tuple", "ratio", "higher", ["jobs_per_s"],
     ["enumerate"], ["reconstruct"]),
    ("faltings.lemma_check.self_s", "s", "lower", ["jobs_per_s"], ["corpus"],
     ["enumerate", "reconstruct"]),
    ("faltings.enumerate_y_points.self_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("faltings.variety_points.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("faltings.build_faltings.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("graphs.graph_count_direct.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("graphs.reduction_check.self_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("artin_schreier.as_count_brute.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("artin_schreier.as_count_trace.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("artin_schreier.singular_search.total_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate", "reconstruct"]),
    ("zeta.series_from_counts.total_s", "s", "lower", ["jobs_per_s"],
     ["reconstruct"], ["enumerate"]),
    ("zeta.pade_reconstruct.total_s", "s", "lower", ["jobs_per_s"],
     ["reconstruct"], ["enumerate"]),
    ("zeta.pade_reconstruct.calls", "count", "lower", ["jobs_per_s"],
     ["reconstruct"], ["enumerate"]),
    ("zeta.pade_accept_frac", "ratio", "higher", ["jobs_per_s"],
     ["reconstruct"], ["enumerate"]),
    ("zeta.auto_reconstruct.self_s", "s", "lower", ["jobs_per_s"],
     ["corpus"], ["enumerate"]),
    ("zeta.weil_weight_check.total_s", "s", "lower", ["job_p50_s"],
     ["reconstruct"], ["enumerate"]),
    ("zeta.weil_weight_check.calls", "count", "lower", ["job_p50_s"],
     ["reconstruct"], ["enumerate"]),
]
for _op, _moves, _on, _off in (
        ("add", ["jobs_per_s"], ["enumerate"], ["reconstruct"]),
        ("mul", ["jobs_per_s"], ["enumerate"], ["reconstruct"]),
        ("inv", ["jobs_per_s"], ["corpus"], ["reconstruct"]),
        ("frobenius", ["jobs_per_s"], ["corpus"], ["reconstruct"])):
    for _size in SIZES:
        PER_LAYER.append((f"fields.{_op}_ns.{_size}", "ns", "lower", _moves,
                          _on, _off))
for _size in SIZES:
    PER_LAYER.append((f"fields.build_s.{_size}", "s", "lower",
                      ["setup_s", "job_p50_s"], ["corpus"], ["reconstruct"]))
for _size in SIZES:
    PER_LAYER.append((f"fields.span_subfield_s.{_size}", "s", "lower",
                      ["jobs_per_s", "peak_rss_mb"], ["corpus", "enumerate"],
                      ["reconstruct"]))
PER_LAYER.append(("trace.overhead_frac", "ratio", "lower", [], list(ALL), []))

UNITS = {row[0]: row[1] for row in PER_LAYER}
