"""Command-line front end: instance files in, run reports out.

Instance files are JSON with a "kind" tag (variety | graph |
artin-schreier); unknown fields are rejected before any computation.
Reports are emitted with sorted keys so repeated runs are byte-identical
once the timings block is set aside.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

from .artin_schreier import ASInstance, OracleMismatchError, bound_check
from .counting import BudgetExceededError, DEFAULT_BUDGET, partial_count
from .faltings import lemma_check
from .graphs import GraphEdge, GraphSystem, GraphVertex, reduction_check
from .polys import (MorphismSpec, PolyParseError, VarietySpec, base_field,
                    parse_poly)
from .zeta import (AutoReconstructError, RootFindingError, SWEEP_COLUMNS,
                   auto_reconstruct, degree_sweep, sweep_rows_to_csv,
                   weil_weight_check)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_NO_CONVERGENCE = 4
EXIT_ASSERTION = 5


class SchemaError(Exception):
    pass


def _require(payload: dict, required, optional=()):
    missing = [k for k in required if k not in payload]
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")
    unknown = [k for k in payload if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"unknown fields: {', '.join(unknown)}")


def _check_int(payload, key, minimum=1):
    v = payload[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise SchemaError(f"{key!r} must be an integer >= {minimum}")
    return v


def _var_names(n, prefix="x", offset=0):
    return [f"{prefix}{i + 1 + offset}" for i in range(n)]


def _parse_eq(text, varnames, base):
    if not isinstance(text, str):
        raise SchemaError("equations must be strings")
    try:
        return parse_poly(text, varnames, base)
    except PolyParseError as exc:
        raise SchemaError(f"bad polynomial {text!r}: {exc}") from exc


def variety_from_payload(payload: dict) -> VarietySpec:
    _require(payload, ("kind", "p", "s", "n", "equations", "profile"),
             optional=("budget",))
    p = _check_int(payload, "p", 2)
    s = _check_int(payload, "s")
    n = _check_int(payload, "n")
    if not isinstance(payload["equations"], list):
        raise SchemaError("'equations' must be a list")
    profile = payload["profile"]
    if (not isinstance(profile, list) or len(profile) != n
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 1
                   for d in profile)):
        raise SchemaError("'profile' must be a list of n positive integers")
    base = base_field(p, s)
    names = _var_names(n)
    eqs = tuple(_parse_eq(t, names, base) for t in payload["equations"])
    try:
        return VarietySpec(p, s, n, eqs, tuple(profile))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def graph_from_payload(payload: dict) -> GraphSystem:
    _require(payload, ("kind", "p", "s", "vertices", "edges"),
             optional=("budget",))
    p = _check_int(payload, "p", 2)
    s = _check_int(payload, "s")
    base = base_field(p, s)
    if not isinstance(payload["vertices"], list) or not payload["vertices"]:
        raise SchemaError("'vertices' must be a non-empty list")
    if not isinstance(payload["edges"], list):
        raise SchemaError("'edges' must be a list")
    vertices = []
    dims = {}
    for v in payload["vertices"]:
        if not isinstance(v, dict):
            raise SchemaError("each vertex must be an object")
        _require(v, ("name", "n", "equations", "d"))
        if not isinstance(v["name"], str) or not v["name"]:
            raise SchemaError("vertex 'name' must be a non-empty string")
        n = _check_int(v, "n")
        d = _check_int(v, "d")
        names = _var_names(n)
        eqs = tuple(_parse_eq(t, names, base) for t in v["equations"])
        vertices.append(GraphVertex(v["name"], n, eqs, d))
        dims[v["name"]] = n
    edges = []
    for e in payload["edges"]:
        if not isinstance(e, dict):
            raise SchemaError("each edge must be an object")
        _require(e, ("src", "dst", "morphism"))
        if e["src"] not in dims or e["dst"] not in dims:
            raise SchemaError(f"edge references unknown vertex "
                              f"{e['src']!r} or {e['dst']!r}")
        n_in, n_out = dims[e["src"]], dims[e["dst"]]
        comps = e["morphism"]
        if not isinstance(comps, list) or len(comps) != n_out:
            raise SchemaError("edge 'morphism' must list one component "
                              "per target coordinate")
        names = _var_names(n_in)
        components = tuple(_parse_eq(t, names, base) for t in comps)
        edges.append(GraphEdge(e["src"], e["dst"],
                               MorphismSpec(n_in, n_out, components)))
    try:
        return GraphSystem(p, s, tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def as_from_payload(payload: dict) -> ASInstance:
    _require(payload, ("kind", "p", "s", "n", "n_prime", "d", "f"),
             optional=("budget",))
    p = _check_int(payload, "p", 2)
    s = _check_int(payload, "s")
    n = _check_int(payload, "n")
    nprime = _check_int(payload, "n_prime")
    d = _check_int(payload, "d")
    base = base_field(p, s)
    names = _var_names(n) + _var_names(nprime, prefix="y")
    f = _parse_eq(payload["f"], names, base)
    try:
        return ASInstance(p, s, n, nprime, d, f)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


_LOADERS = {"variety": variety_from_payload,
            "graph": graph_from_payload,
            "artin-schreier": as_from_payload}


def load_instance(path: str, expect_kind: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("instance file must be a JSON object")
    kind = payload.get("kind")
    if kind not in _LOADERS:
        raise SchemaError(f"'kind' must be one of {sorted(_LOADERS)}")
    if kind != expect_kind:
        raise SchemaError(f"expected a {expect_kind!r} instance, got {kind!r}")
    digest = hashlib.sha256(raw).hexdigest()
    obj = _LOADERS[kind](payload)
    file_budget = payload.get("budget")
    if file_budget is not None:
        if not isinstance(file_budget, int) or isinstance(file_budget, bool) \
                or file_budget < 1:
            raise SchemaError("'budget' must be a positive integer")
    return obj, digest, file_budget


# ---------------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------------

def make_report(command, digest, parameters, outputs, budget_limit,
                budget_consumed, wall_time, workers=1):
    return {
        "command": command,
        "input_digest": digest,
        "parameters": parameters,
        "outputs": outputs,
        "budget": {"limit": budget_limit, "consumed": budget_consumed},
        "timings": {"wall_time_s": wall_time, "workers": workers},
    }


def emit_json(report, out):
    out.write(json.dumps(report, sort_keys=True, indent=2))
    out.write("\n")


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else k, value[k], rows)
    elif isinstance(value, list):
        rows.append((prefix, " ".join(str(v) for v in value)))
    else:
        rows.append((prefix, value))


def emit_csv(report, out):
    rows = []
    _flatten("", {k: v for k, v in report.items() if k != "timings"}, rows)
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, value])


def emit_table(report, out):
    rows = []
    _flatten("", report, rows)
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        out.write(f"{key.ljust(width)}  {value}\n")


def emit(report, fmt, out):
    if fmt == "json":
        emit_json(report, out)
    elif fmt == "csv":
        emit_csv(report, out)
    else:
        emit_table(report, out)


def _variety_outputs(X: VarietySpec):
    return {
        "p": X.p, "s": X.s, "n": X.n,
        "profile": list(X.profile), "lcm": X.D,
        "equations": [eq.to_string() for eq in X.equations],
    }


def _enumeration_cost(X: VarietySpec, k: int) -> int:
    q = X.p ** X.s
    return q ** (k * sum(X.profile))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    X, digest, file_budget = load_instance(args.file, "variety")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    t0 = time.perf_counter()
    counts = []
    consumed = 0
    for k in range(1, args.k + 1):
        counts.append(partial_count(X, k, budget=budget,
                                    workers=args.workers))
        consumed += _enumeration_cost(X, k)
    report = make_report(
        "count", digest,
        {"k": args.k},
        {"variety": _variety_outputs(X), "counts": counts},
        budget, consumed, time.perf_counter() - t0,
        workers=args.workers)
    emit(report, args.format, sys.stdout)
    if args.format == "json":
        # companion human table on stderr so the JSON stream stays clean
        for k, nk in enumerate(counts, start=1):
            print(f"  N_{k} = {nk}", file=sys.stderr)
    return EXIT_OK


def cmd_zeta(args) -> int:
    X, digest, file_budget = load_instance(args.file, "variety")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    params = {"max_k": args.max_k, "holdout": args.holdout,
              "tol": args.tol}
    t0 = time.perf_counter()
    try:
        res = auto_reconstruct(X, args.max_k, holdout=args.holdout,
                               budget=budget, workers=args.workers)
    except AutoReconstructError as exc:
        consumed = sum(_enumeration_cost(X, k)
                       for k in range(1, exc.table.B + 1))
        report = make_report(
            "zeta", digest, params,
            {"variety": _variety_outputs(X),
             "status": ("budget-exceeded" if exc.table.truncated
                        else "no-acceptance"),
             "counts": list(exc.table.counts)},
            budget, consumed, time.perf_counter() - t0,
        workers=args.workers)
        emit(report, args.format, sys.stdout)
        return EXIT_NO_CONVERGENCE
    try:
        wr = weil_weight_check(res.function, X.p ** X.s, tol=args.tol)
    except RootFindingError:
        report = make_report(
            "zeta", digest, params,
            {"variety": _variety_outputs(X),
             "status": "root-finding-failed",
             "zeta": res.function.to_json_dict(),
             "B_used": res.B_used,
             "counts": list(res.table.counts)},
            budget, None, time.perf_counter() - t0,
            workers=args.workers)
        emit(report, args.format, sys.stdout)
        return EXIT_NO_CONVERGENCE
    consumed = sum(_enumeration_cost(X, k) for k in range(1, res.B_used + 1))
    report = make_report(
        "zeta", digest, params,
        {"variety": _variety_outputs(X),
         "status": "ok",
         "zeta": res.function.to_json_dict(),
         "B_used": res.B_used,
         "counts": list(res.table.counts),
         "weights": wr.to_json_dict()},
        budget, consumed, time.perf_counter() - t0,
        workers=args.workers)
    emit(report, args.format, sys.stdout)
    return EXIT_OK if wr.passed else EXIT_ASSERTION


def cmd_faltings(args) -> int:
    X, digest, file_budget = load_instance(args.file, "variety")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    t0 = time.perf_counter()
    rep = lemma_check(X, args.k_max, budget=budget)
    report = make_report(
        "faltings", digest, {"k_max": args.k_max},
        {"variety": _variety_outputs(X), "lemma": rep.to_json_dict()},
        budget, None, time.perf_counter() - t0)
    emit(report, args.format, sys.stdout)
    return EXIT_OK if (rep.passed and rep.reconstruction_ok) else EXIT_ASSERTION


def cmd_graph(args) -> int:
    G, digest, file_budget = load_instance(args.file, "graph")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    t0 = time.perf_counter()
    try:
        rep = reduction_check(G, args.k_max, max_k=args.max_k,
                              holdout=args.holdout, tol=args.tol,
                              budget=budget)
    except AutoReconstructError:
        report = make_report(
            "graph", digest,
            {"k_max": args.k_max, "max_k": args.max_k,
             "holdout": args.holdout, "tol": args.tol},
            {"status": "no-acceptance"},
            budget, None, time.perf_counter() - t0)
        emit(report, args.format, sys.stdout)
        return EXIT_NO_CONVERGENCE
    report = make_report(
        "graph", digest,
        {"k_max": args.k_max, "max_k": args.max_k,
         "holdout": args.holdout, "tol": args.tol},
        rep.to_json_dict(),
        budget, None, time.perf_counter() - t0)
    emit(report, args.format, sys.stdout)
    ok = rep.passed and rep.weight_report.passed
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_as(args) -> int:
    inst, digest, file_budget = load_instance(args.file, "artin-schreier")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    t0 = time.perf_counter()
    try:
        rep = bound_check(inst, e_max=args.e_max, budget=budget)
    except OracleMismatchError as exc:
        report = make_report(
            "as", digest, {"e_max": args.e_max},
            {"status": "oracle-mismatch", "detail": str(exc)},
            budget, None, time.perf_counter() - t0)
        emit(report, args.format, sys.stdout)
        return EXIT_ASSERTION
    report = make_report(
        "as", digest, {"e_max": args.e_max},
        rep.to_json_dict(),
        budget, None, time.perf_counter() - t0)
    emit(report, args.format, sys.stdout)
    if rep.hypothesis_ok and not rep.satisfied:
        return EXIT_ASSERTION
    return EXIT_OK


def _parse_profiles(specs, n):
    profiles = []
    for spec in specs:
        parts = spec.replace(",", " ").split()
        try:
            profile = tuple(int(v) for v in parts)
        except ValueError:
            raise SchemaError(f"bad profile {spec!r}")
        if len(profile) != n or any(d < 1 for d in profile):
            raise SchemaError(
                f"profile {spec!r} must list {n} positive integers")
        profiles.append(profile)
    return profiles


def cmd_sweep(args) -> int:
    X, digest, file_budget = load_instance(args.file, "variety")
    budget = args.budget if args.budget is not None else \
        (file_budget if file_budget is not None else DEFAULT_BUDGET)
    profiles = _parse_profiles(args.profiles, X.n)
    t0 = time.perf_counter()
    rows = degree_sweep(X, profiles, max_k=args.max_k, holdout=args.holdout,
                        budget=budget, tol=args.tol, workers=args.workers)
    stable = [{k: v for k, v in row.items() if k != "wall_time_s"}
              for row in rows]
    if args.format == "csv":
        sweep_rows_to_csv(rows, sys.stdout)
    else:
        report = make_report(
            "sweep", digest,
            {"max_k": args.max_k, "holdout": args.holdout,
             "tol": args.tol},
            {"columns": [c for c in SWEEP_COLUMNS if c != "wall_time_s"],
             "rows": stable},
            budget, None, time.perf_counter() - t0, workers=args.workers)
        emit(report, args.format, sys.stdout)
    if any(row["status"] != "ok" for row in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, zeta_flags=False):
    sub.add_argument("file", help="instance JSON file")
    sub.add_argument("--budget", type=int, default=None,
                     help="enumeration budget (tuples per count)")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--format", choices=("json", "csv", "table"),
                     default="json")
    if zeta_flags:
        sub.add_argument("--max-k", type=int, default=12, dest="max_k")
        sub.add_argument("--holdout", type=int, default=3)
        sub.add_argument("--tol", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parzeta",
        description="Exact partial zeta functions of varieties over "
                    "finite fields.")
    subs = ap.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("count", help="print N_1..N_k for a variety")
    _add_common(sp)
    sp.add_argument("-k", type=int, default=3)
    sp.set_defaults(func=cmd_count)

    sp = subs.add_parser("zeta", help="reconstruct the partial zeta function")
    _add_common(sp, zeta_flags=True)
    sp.set_defaults(func=cmd_zeta)

    sp = subs.add_parser("faltings",
                         help="fixed-point comparison on the cyclic cover")
    _add_common(sp)
    sp.add_argument("--k-max", type=int, default=2, dest="k_max")
    sp.set_defaults(func=cmd_faltings)

    sp = subs.add_parser("graph",
                         help="graph system vs fibred-product reduction")
    _add_common(sp, zeta_flags=True)
    sp.add_argument("--k-max", type=int, default=3, dest="k_max")
    sp.set_defaults(func=cmd_graph)

    sp = subs.add_parser("as", help="Artin-Schreier count and bound check")
    _add_common(sp)
    sp.add_argument("--e-max", type=int, default=2, dest="e_max")
    sp.set_defaults(func=cmd_as)

    sp = subs.add_parser("sweep", help="degree sweep over profiles")
    _add_common(sp, zeta_flags=True)
    sp.add_argument("profiles", nargs="+",
                    help="profiles like '1,1' '2,3' (one per argument)")
    sp.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
