"""Command-line front end: instance files in, run reports out.

Six subcommands take a variety (count, zeta, faltings, sweep), a graph
(graph) or an Artin-Schreier instance (as).  `COMMANDS` is their table:
each one's instance kind, help, compute and extra flags, which are also
the report's parameters.  One runner, `_run`, owns the rest: it loads the
instance and its budget, the flag, else the file's "budget", else
DEFAULT_BUDGET (unknown fields and a base field past the budget are refused
first), times the compute, builds the report and emits it as sorted-key
JSON, a key,value csv or a table.  Runs differ only in `timings`.

This module is the one report writer: the library returns records, and
each compute writes its own outputs from them.  `zeta` and `graph` write
a certificate's Z(T), B_used and weights by one writer, `_certificate`,
and `sweep` loops `certify` over its profiles and writes its own rows.
A compute maps (instance, args, budget) to (outputs, budget consumed, exit
code) and reports a mathematical failure as a status in its outputs;
outputs of None mean it printed its own stdout (`sweep --format csv`).
`main` maps SchemaError to exit 2 and BudgetExceededError to exit 3.
"""

import argparse
import csv
import functools
import json
import math
import sys
import time
from decimal import Decimal

# the interpreter's own SHA-256, as `random` takes its SHA-512: hashlib
# would load OpenSSL's libcrypto into every process for one digest
try:
    from _sha2 import sha256                # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256          # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .artin_schreier import ASInstance, OracleMismatchError, bound_check
from .counting import (BudgetExceededError, DEFAULT_BUDGET, check_cost,
                       partial_count)
from .faltings import lemma_check
from .graphs import GraphEdge, GraphSystem, GraphVertex, reduction_check
from .polys import (MorphismSpec, PolyParseError, VarietySpec, base_field,
                    parse_poly)
from .zeta import certify

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_NO_CONVERGENCE = 4
EXIT_ASSERTION = 5

# a certificate's status -> the exit code of a run that reports it
EXIT_CODES = {"ok": EXIT_OK, "weights-failed": EXIT_ASSERTION,
              "root-finding-failed": EXIT_NO_CONVERGENCE,
              "budget-exceeded": EXIT_NO_CONVERGENCE,
              "no-acceptance": EXIT_NO_CONVERGENCE}


class SchemaError(Exception):
    pass


def _require(payload: dict, required, optional=(), item=None):
    if item is not None and not isinstance(payload, dict):
        raise SchemaError(f"each {item} must be an object")
    missing = [k for k in required if k not in payload]
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")
    unknown = [k for k in payload if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"unknown fields: {', '.join(unknown)}")


def _is_int(v, minimum=1):
    return isinstance(v, int) and not isinstance(v, bool) and v >= minimum


def _check_int(payload, key, minimum=1):
    if not _is_int(payload[key], minimum):
        raise SchemaError(f"{key!r} must be an integer >= {minimum}")
    return payload[key]


def _var_names(n, prefix="x"):
    return [f"{prefix}{i + 1}" for i in range(n)]


def _parse_eq(text, varnames, base, budget):
    if not isinstance(text, str):
        raise SchemaError("equations must be strings")
    try:
        return parse_poly(text, varnames, base, budget)
    except PolyParseError as exc:
        raise SchemaError(f"bad polynomial {text!r}: {exc}") from exc


def variety_from_payload(payload: dict, p: int, s: int,
                         budget: int) -> VarietySpec:
    n = _check_int(payload, "n")
    if not isinstance(payload["equations"], list):
        raise SchemaError("'equations' must be a list")
    profile = payload["profile"]
    if (not isinstance(profile, list) or len(profile) != n
            or not all(_is_int(d) for d in profile)):
        raise SchemaError("'profile' must be a list of n positive integers")
    base = base_field(p, s)
    names = _var_names(n)
    eqs = tuple(_parse_eq(t, names, base, budget)
                for t in payload["equations"])
    return VarietySpec(p, s, n, eqs, tuple(profile))


def graph_from_payload(payload: dict, p: int, s: int,
                       budget: int) -> GraphSystem:
    base = base_field(p, s)
    if not isinstance(payload["vertices"], list) or not payload["vertices"]:
        raise SchemaError("'vertices' must be a non-empty list")
    if not isinstance(payload["edges"], list):
        raise SchemaError("'edges' must be a list")
    vertices = []
    for v in payload["vertices"]:
        _require(v, ("name", "n", "equations", "d"), item="vertex")
        if not isinstance(v["name"], str) or not v["name"]:
            raise SchemaError("vertex 'name' must be a non-empty string")
        n = _check_int(v, "n")
        d = _check_int(v, "d")
        if not isinstance(v["equations"], list):
            raise SchemaError("vertex 'equations' must be a list")
        # the direct count visits at least q^n tuples
        check_cost(p ** s, n, budget, "variables")
        names = _var_names(n)
        eqs = tuple(_parse_eq(t, names, base, budget)
                    for t in v["equations"])
        vertices.append(GraphVertex(v["name"], n, eqs, d))
    dims = {v.name: v.n for v in vertices}
    edges = []
    for e in payload["edges"]:
        _require(e, ("src", "dst", "morphism"), item="edge")
        if not all(isinstance(e[end], str) for end in ("src", "dst")):
            raise SchemaError("edge 'src' and 'dst' must be vertex names")
        if e["src"] not in dims or e["dst"] not in dims:
            raise SchemaError(f"edge references unknown vertex "
                              f"{e['src']!r} or {e['dst']!r}")
        n_in, n_out = dims[e["src"]], dims[e["dst"]]
        comps = e["morphism"]
        if not isinstance(comps, list) or len(comps) != n_out:
            raise SchemaError("edge 'morphism' must list one component "
                              "per target coordinate")
        names = _var_names(n_in)
        components = tuple(_parse_eq(t, names, base, budget) for t in comps)
        edges.append(GraphEdge(e["src"], e["dst"],
                               MorphismSpec(n_in, n_out, components)))
    return GraphSystem(p, s, tuple(vertices), tuple(edges))


def as_from_payload(payload: dict, p: int, s: int,
                    budget: int) -> ASInstance:
    n = _check_int(payload, "n")
    nprime = _check_int(payload, "n_prime")
    d = _check_int(payload, "d")
    # both counts visit at least q^(n + n') tuples
    check_cost(p ** s, n + nprime, budget, "variables")
    base = base_field(p, s)
    names = _var_names(n) + _var_names(nprime, prefix="y")
    f = _parse_eq(payload["f"], names, base, budget)
    inst = ASInstance(p, s, n, nprime, d, f)
    # the brute count's refusal first, as in bound_check; then, before the
    # counts, the report's decimal bound square (p-1)^2 (r-1)^(2e) q^e,
    # r = deg f and e = dn + n', past the int-to-str limit (0, or none in
    # this Python, is no limit)
    check_cost(p ** s, d * (n + 1) + nprime, budget, "as_count_brute")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    r, e = f.total_degree(), d * n + nprime
    if limit and (2 * math.log10(p - 1) + e * (2 * math.log10(max(r - 1, 1))
                                               + s * math.log10(p))) >= limit:
        raise SchemaError(f"f's degree, a {Decimal(r).adjusted() + 1}-digit "
                          f"number, makes the bound's square longer than the "
                          f"{limit}-digit limit on printing an integer")
    return inst


# kind -> (fields beside kind, p, s and budget, loader(payload, p, s, budget))
_LOADERS = {"variety": (("n", "equations", "profile"), variety_from_payload),
            "graph": (("vertices", "edges"), graph_from_payload),
            "artin-schreier": (("n", "n_prime", "d", "f"), as_from_payload)}


def load_instance(path: str, expect_kind: str, budget=None):
    """(instance, digest, budget), the budget ``budget``, else the file's,
    else DEFAULT_BUDGET; F_(p^s) is refused past it before it is built."""
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
    # too deep to decode, not UTF-8, or an integer past the int-to-str limit
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("instance file must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise SchemaError(f"'kind' must be one of {sorted(_LOADERS)}")
    if kind != expect_kind:
        raise SchemaError(f"expected a {expect_kind!r} instance, got {kind!r}")
    digest = sha256(raw).hexdigest()
    fields, loader = _LOADERS[kind]
    _require(payload, ("kind", "p", "s") + fields, optional=("budget",))
    p, s = _check_int(payload, "p", 2), _check_int(payload, "s")
    file_budget = payload.get("budget")
    if file_budget is not None and not _is_int(file_budget):
        raise SchemaError("'budget' must be a positive integer")
    budget = next(b for b in (budget, file_budget, DEFAULT_BUDGET)
                  if b is not None)
    # every enumeration over F_q visits at least q tuples
    check_cost(p, s, budget, "base field")
    try:
        obj = loader(payload, p, s, budget)
    except ValueError as exc:     # FieldError and the constructors' checks
        raise SchemaError(str(exc)) from exc
    return obj, digest, budget


# -- computes: (instance, args, budget) -> (outputs, consumed, exit code) --

def _variety_outputs(X: VarietySpec):
    return {
        "p": X.p, "s": X.s, "n": X.n,
        "profile": list(X.profile), "lcm": X.D,
        "equations": [eq.to_string() for eq in X.equations],
    }


def _enumeration_cost(X: VarietySpec, B: int) -> int:
    """The tuples behind N_1..N_B: q^(k * sum(profile)) summed over k."""
    q = X.p ** X.s
    return sum(q ** (k * sum(X.profile)) for k in range(1, B + 1))


def _count(X, args, budget):
    counts = [partial_count(X, k, budget=budget) for k in range(1, args.k + 1)]
    if args.format == "json":
        # companion human table on stderr so the JSON stream stays clean
        for k, nk in enumerate(counts, start=1):
            print(f"  N_{k} = {nk}", file=sys.stderr)
    return ({"variety": _variety_outputs(X), "counts": counts},
            _enumeration_cost(X, args.k), EXIT_OK)


def _certificate(cert):
    """A certificate's Z(T), B_used and weights, where it has them."""
    outputs = {}
    if cert.result is not None:
        R = cert.result.function
        outputs.update(zeta={"numerator": list(R.num),
                             "denominator": list(R.den),
                             "total_degree": R.total_degree()},
                       B_used=cert.result.B_used)
    if cert.weights is not None:
        outputs["weights"] = {
            "q": cert.weights.q,
            "tolerance": cert.weights.tol,
            "passed": cert.weights.passed,
            "roots": [
                {
                    "side": r.side,
                    "value": [repr(r.value.real), repr(r.value.imag)],
                    "magnitude": repr(r.magnitude),
                    "weight": r.weight,
                    "residual": repr(r.residual),
                }
                for r in cert.weights.roots
            ],
        }
    return outputs


def _zeta(X, args, budget):
    cert = certify(X, args.max_k, holdout=args.holdout, budget=budget,
                   tol=args.tol)
    outputs = {"variety": _variety_outputs(X), "status": cert.status,
               "counts": list(cert.counts), **_certificate(cert)}
    return (outputs, _enumeration_cost(X, len(cert.counts)),
            EXIT_CODES[cert.status])


def _faltings(X, args, budget):
    rep = lemma_check(X, args.k_max, budget=budget)
    ok = rep.passed and rep.reconstruction_ok
    lemma = {
        "d": rep.d,
        "passed": rep.passed,
        "reconstruction_ok": rep.reconstruction_ok,
        "entries": [
            {"a": e.a, "k": e.k, "partial_count": e.partial,
             "fixed_point_count": e.fixed, "equal": e.equal}
            for e in rep.entries
        ],
        "witness_count": rep.witness_count,
    }
    return ({"variety": _variety_outputs(X), "lemma": lemma}, None,
            EXIT_OK if ok else EXIT_ASSERTION)


def _graph(G, args, budget):
    rep = reduction_check(G, args.k_max, max_k=args.max_k,
                          holdout=args.holdout, tol=args.tol, budget=budget)
    cert = rep.certificate
    if cert.weights is None:
        return {"status": cert.status}, None, EXIT_CODES[cert.status]
    code = EXIT_CODES[cert.status] if rep.passed else EXIT_ASSERTION
    outputs = {"direct_counts": list(rep.direct_counts),
               "reduced_counts": list(rep.reduced_counts),
               "counts_agree": rep.passed, **_certificate(cert)}
    return outputs, None, code


def _as(inst, args, budget):
    try:
        rep = bound_check(inst, e_max=args.e_max, budget=budget)
    except OracleMismatchError as exc:
        return ({"status": "oracle-mismatch", "detail": str(exc)}, None,
                EXIT_ASSERTION)
    violated = rep.hypothesis_ok and not rep.satisfied
    outputs = {
        "p": inst.p, "q": inst.q,
        "n": inst.n, "n_prime": inst.nprime,
        "d": inst.d, "r": rep.r,
        "N_d": rep.N_d,
        "main_term": str(rep.main_term),
        "deviation": str(rep.deviation),
        "bound_squared": str(rep.bound_squared),
        "bound_decimal": repr(rep.bound_decimal),
        "p_divides_r": rep.p_divides_r,
        "smooth_status": rep.smooth_status,
        "hypothesis_ok": rep.hypothesis_ok,
        "satisfied": rep.satisfied,
    }
    return outputs, None, EXIT_ASSERTION if violated else EXIT_OK


def _parse_profiles(specs, n):
    profiles = []
    for spec in specs:
        try:
            profile = tuple(int(v) for v in spec.replace(",", " ").split())
        except ValueError:
            raise SchemaError(f"bad profile {spec!r}")
        if len(profile) != n or any(d < 1 for d in profile):
            raise SchemaError(f"profile {spec!r} must list {n} positive "
                              "integers")
        profiles.append(profile)
    return profiles


SWEEP_COLUMNS = ["profile", "lcm", "B_used", "deg_num", "deg_den",
                 "total_degree", "weights", "status"]


def _sweep(X, args, budget):
    """One `certify` per profile, one row each: its status, and the
    candidate's and the weights' columns where it has them, else ""."""
    rows = []
    for profile in _parse_profiles(args.profiles, X.n):
        Xp = X.with_profile(profile)
        cert = certify(Xp, args.max_k, holdout=args.holdout, budget=budget,
                       tol=args.tol)
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(profile=" ".join(str(d) for d in profile), lcm=Xp.D,
                   status=cert.status)
        if cert.result is not None:
            R = cert.result.function
            row.update(B_used=cert.result.B_used, deg_num=len(R.num) - 1,
                       deg_den=len(R.den) - 1, total_degree=R.total_degree())
        if cert.weights is not None:
            row["weights"] = " ".join(
                str(w) for w in cert.weights.weight_multiset())
        rows.append(row)
    code = max(EXIT_CODES[row["status"]] for row in rows)
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        return None, None, code
    return {"columns": SWEEP_COLUMNS, "rows": rows}, None, code


# -- the runner -------------------------------------------------------------

def _flatten(prefix, value):
    """(dotted key, value) rows: a list of scalars is one space-joined
    value, and a list that holds an object or a list is keyed by index."""
    if isinstance(value, list) and any(isinstance(v, (dict, list))
                                       for v in value):
        value = dict(enumerate(value))
    if isinstance(value, dict):
        return [row for k in sorted(value) for row in
                _flatten(f"{prefix}.{k}" if prefix else k, value[k])]
    if isinstance(value, list):
        return [(prefix, " ".join(str(v) for v in value))]
    return [(prefix, value)]


def emit(report, fmt, out):
    """JSON with sorted keys, a key,value csv without timings, or a table."""
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        rows = _flatten("", {k: v for k, v in report.items()
                             if k != "timings"})
        csv.writer(out).writerows([("key", "value")] + rows)
    else:
        rows = _flatten("", report)
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            out.write(f"{key.ljust(width)}  {value}\n")


def _run(args) -> int:
    kind, _, compute, flags = COMMANDS[args.subcommand]
    obj, digest, budget = load_instance(args.file, kind, args.budget)
    t0 = time.perf_counter()
    outputs, consumed, code = compute(obj, args, budget)
    if outputs is not None:
        emit({"command": args.subcommand,
              "input_digest": digest,
              "parameters": {name: getattr(args, name) for name in flags},
              "outputs": outputs,
              "budget": {"limit": budget, "consumed": consumed},
              "timings": {"wall_time_s": time.perf_counter() - t0}},
             args.format, sys.stdout)
    return code


# -- argument parsing -------------------------------------------------------

def _positive(cast):
    """An argparse type: a `cast` value > 0 and finite, else exit 2."""
    def parse(text):
        value = cast(text)
        if not 0 < value < math.inf:
            raise ValueError(text)
        return value
    parse.__name__ = f"positive {cast.__name__}"
    return parse


_ZETA_FLAGS = {"max_k": 12, "holdout": 3, "tol": 1e-6}

# name -> (instance kind, help, compute, extra flags as {name: default}).
# The extra flags are the report's parameters; each is spelled -x or
# --long-name, has its default's type and must be positive and finite.
COMMANDS = {
    "count": ("variety", "print N_1..N_k for a variety", _count, {"k": 3}),
    "zeta": ("variety", "reconstruct the partial zeta function", _zeta,
             _ZETA_FLAGS),
    "faltings": ("variety", "fixed-point comparison on the cyclic cover",
                 _faltings, {"k_max": 2}),
    "graph": ("graph", "graph system vs fibred-product reduction", _graph,
              {**_ZETA_FLAGS, "k_max": 3}),
    "as": ("artin-schreier", "Artin-Schreier count and bound check", _as,
           {"e_max": 2}),
    "sweep": ("variety", "degree sweep over profiles", _sweep, _ZETA_FLAGS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="parzeta",
        description="Exact partial zeta functions of varieties over "
                    "finite fields.")
    subs = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, _, flags) in COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("file", help="instance JSON file")
        sp.add_argument("--budget", type=_positive(int), default=None,
                        help="enumeration budget: the most tuples, search "
                             "nodes or join nodes one enumeration may visit, "
                             "term pairs the products of one equation's parse "
                             "may make, and products (deg^2 times Q's bit "
                             "length) one root count's x^Q mod g may take")
        sp.add_argument("--format", choices=("json", "csv", "table"),
                        default="json")
        for flag, default in flags.items():
            dashes = "-" if len(flag) == 1 else "--"
            sp.add_argument(dashes + flag.replace("_", "-"),
                            type=_positive(type(default)), default=default)
    subs.choices["sweep"].add_argument(
        "profiles", nargs="+",
        help="profiles like '1,1' '2,3' (one per argument)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
