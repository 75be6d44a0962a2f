"""The CLI's witnesses: one table of runs, each an instance and an argv with
the exit code, stdout, stderr and wall time they must give, and the one
runner that checks them.

An entry (`Witness`) holds
- `name`, unique. It is also the run's tier-1 test id,
  `tests/test_cli.py::test_<name>`, where a `[...]` suffix is the
  parameter id;
- `why`: the ROADMAP item it pins, or the reason it exists;
- `instance`: a dict, written as JSON; raw bytes; or a `corpus/` path;
- `argv`: the subcommand and its flags. The instance's path goes right
  after the subcommand;
- `exit`: the exit code;
- `stdout`: `EMPTY`, or a dict from dotted paths into the JSON report
  (`outputs.rows.0.status`) to the values found there;
- `stderr`: one regex, fullmatched;
- `seconds`: the bound on the run's wall time.

`tests/test_cli.py` runs every entry in process through `cli.main` and
checks its wall time once the run returns. Run as a script, this module
runs every entry against a command, each in a fresh process killed at its
bound plus `START_ALLOWANCE_S` for the interpreter's start:

    python tests/witnesses.py parzeta
    PYTHONPATH=src python tests/witnesses.py python -m parzeta.cli

With `--goldens` it runs every golden case instead (`CASES`, checked by
`tests/test_golden.py` in process) and compares each outcome, normalised
by `golden_record`, with its file under `tests/golden/`:

    python tests/witnesses.py --goldens parzeta

It needs only the standard library, so it runs in a venv without pytest.
Run it with the interpreter that runs the command: some entries read its
int-to-str limit.
"""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"
# Python's int-to-str limit; 0 is none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# a fresh process's start and imports, numpy's included, before the run
START_ALLOWANCE_S = 1.0
EMPTY = "empty"


class Witness(NamedTuple):
    name: str
    why: str
    instance: object
    argv: tuple
    exit: int
    stdout: object
    stderr: str = ""
    seconds: float = 10.0


class Outcome(NamedTuple):
    exit: object  # the exit code, or None for a process killed at its bound
    stdout: str
    stderr: str
    seconds: float


def _corpus(name, **changes):
    return {**json.loads((CORPUS / f"{name}.json").read_text()), **changes}


def _variety(equations, profile, p=2, s=1, **extra):
    return {"kind": "variety", "p": p, "s": s, "n": len(profile),
            "equations": equations, "profile": profile, **extra}


def _graph_vertex(n, d, equations):
    return {"kind": "graph", "p": 2, "s": 1, "edges": [],
            "vertices": [{"name": "u", "n": n, "d": d,
                          "equations": equations}]}


def _graph_with_u_at(d):
    inst = _corpus("g_cycle3_square")
    inst["vertices"][0]["d"] = d
    return inst


def _selfloop(spoil):
    """The self-loop x -> x^2 of `g_selfloop_square`, spoilt by `spoil`."""
    inst = _corpus("g_selfloop_square")
    spoil(inst)
    return inst


def as_with_exponent(digits):
    return {"kind": "artin-schreier", "p": 2, "s": 1, "n": 1, "n_prime": 1,
            "d": 1, "f": "x1^" + "9" * digits + " + y1"}


def _line(text, then=""):
    """One stderr line: `text`, matched literally, then the regex `then`."""
    return re.escape(text) + then + "\n"


def _refused(cost, budget, context):
    return _line(f"budget exceeded: enumeration cost {cost} exceeds budget "
                 f"{budget} ({context})")


def _progress(counts):
    """The lines `count` writes to stderr as it counts."""
    return "".join(_line(f"  N_{k} = {n}") for k, n in enumerate(counts, 1))


def _usage_error(prog, message):
    """argparse's usage block for `prog`, then its one error line."""
    return (f"usage: {re.escape(prog)} [^:]*\n"
            + _line(f"{prog}: error: {message}"))


# x1^E + 1, E = 10^4000 + 1, at profile (14000): its 2^14000 tuples pass
# the budget 10^4290, its leaf's price E^2 * 14001, 8005 digits, does not
UNPRINTABLE_E, UNPRINTABLE_BUDGET = 10 ** 4000 + 1, 10 ** 4290
# the squared Artin-Schreier bound of f = x1^(10^400 - 1) + y1:
# (r - 1)^4 * q^(dn + n'), r = 10^400 - 1 and q^(dn + n') = 4
FLOAT_PAST_BOUND_SQUARED = str((10 ** 400 - 2) ** 4 * 4)
# ROADMAP item 3's witnesses, (p, s, equations, profile, --k-max) with the
# parameter id each ran under as a test: each listing closes its last
# variable nonlinearly, so every node scans that variable's field
FALTINGS_SCANS = [
    ("3-1-equations0-profile0-1", 3, 1,
     ["x1^2*x2^2 + x1*x2 + x2^3 + 2"], [3, 4], 1),
    ("3-1-equations1-profile1-2", 3, 1,
     ["x2^3", "x1 + x1^4*x2^4 + x1"], [3, 2], 2),
    ("2-1-equations2-profile2-2", 2, 1, ["x3^3 + x2^3"], [1, 2, 3], 2),
    ("3-2-equations3-profile3-2", 3, 2,
     ["x1^2*x1^2 + x1^2 + x2^2 + 1"], [1, 2], 2),
    ("5-1-equations4-profile4-1", 5, 1,
     ["3*x1^4*x2^2*x3 + 3*x2^2*x3^2 + 2*x1*x2^4*x3"], [2, 3, 1], 1),
]
# the counts of each scan witness at its --k-max, which the budget passes
SCAN_COUNTS = [[3], [1, 1], [8, 40], [16, 160], [3245]]
# N_1..N_20 of x1^5 + x2^5 + 1 over F_2
DIAGONAL_55 = [2, 4, 8, 60, 32, 64, 128, 60, 512, 1024, 2048, 4860, 8192,
               16384, 32768, 62460, 131072, 262144, 524288, 1060860]
LEAF_PLAN = [0, 2, 9, 22, 40, 59, 112, 222, 477, 1022, 2112, 4219, 8320]


WITNESSES = [
    # the five subcommands' reports on corpus instances
    Witness("count_diagonal", "count reports N_1..N_k and the file's SHA-256",
            "corpus/diag11_f2.json", ("count", "-k", "3"), 0,
            {"outputs.counts": [2, 4, 8],
             "input_digest": "735da0daad7b7d1ddbcf288c88925c74"
                             "9ff2f99caee91acffa10e13984595470"},
            _progress([2, 4, 8])),
    Witness("count_empty_variety", "an empty variety counts 0 at every k",
            "corpus/empty_f2.json", ("count", "-k", "4"), 0,
            {"outputs.counts": [0, 0, 0, 0]}, _progress([0, 0, 0, 0])),
    Witness("counts_outside_the_search_field[diag23_f2]",
            "counts whose counted variable's field lies outside the search "
            "field are exact (closed forms: x1 is forced into F_(2^k))",
            "corpus/diag23_f2.json", ("count", "-k", "5"), 0,
            {"outputs.counts": [2, 4, 8, 16, 32]},
            _progress([2, 4, 8, 16, 32])),
    Witness("counts_outside_the_search_field[hyperbola23_f2]",
            "as above, on a hyperbola",
            "corpus/hyperbola23_f2.json", ("count", "-k", "5"), 0,
            {"outputs.counts": [1, 3, 7, 15, 31]},
            _progress([1, 3, 7, 15, 31])),
    Witness("zeta_diagonal", "zeta of a line is 1/(1 - 2T), of Weil weight 2",
            "corpus/diag11_f2.json", ("zeta",), 0,
            {"outputs.zeta": {"numerator": [1], "denominator": [1, -2],
                              "total_degree": 1},
             "outputs.weights.passed": True}),
    Witness("zeta_hyperbola", "zeta of x1*x2 = 1 is (1 - T)/(1 - 2T)",
            "corpus/hyperbola11_f2.json", ("zeta",), 0,
            {"outputs.zeta.numerator": [1, -1],
             "outputs.zeta.denominator": [1, -2]}),
    Witness("zeta_point_is_constant_one", "zeta of the empty variety is 1",
            "corpus/empty_f2.json", ("zeta",), 0,
            {"outputs.zeta.numerator": [1],
             "outputs.zeta.denominator": [1]}),
    Witness("zeta_non_convergence_exit_4",
            "a zeta past its budget reports budget-exceeded, exit 4",
            "corpus/diag11_f2.json", ("zeta", "--budget", "10"), 4,
            {"outputs.status": "budget-exceeded"}),
    Witness("faltings_subcommand", "the cyclic-cover lemma holds on diag23_f2",
            "corpus/diag23_f2.json", ("faltings", "--k-max", "2"), 0,
            {"outputs.lemma.passed": True}),
    Witness("graph_subcommand",
            "the graph reduction holds on the self-loop x -> x^2",
            "corpus/g_selfloop_square.json", ("graph",), 0,
            {"outputs.counts_agree": True,
             "outputs.zeta.denominator": [1, -2, 1]}),
    Witness("as_subcommand", "the Artin-Schreier bound holds with equality",
            "corpus/as_cubic_f2_d1.json", ("as",), 0,
            {"outputs.N_d": 4, "outputs.deviation": "0",
             "outputs.satisfied": True}),
    Witness("sweep_json", "a sweep row's profile may be space-separated",
            "corpus/diag11_f2.json", ("sweep", "2 3"), 0,
            {"outputs.rows.0.status": "ok", "outputs.rows.0.lcm": 6}),

    # deep counts, each pinning the plan that makes it quick
    Witness("linear_leaf_summed_by_root_counts",
            "a last bound level whose leaf is linear in the counted variable "
            "is summed by root counts, not scanned (README, engine)",
            _variety(["x1*x2 + x3"], [1, 1, 1]),
            ("count", "-k", "13", "--budget", "10000000000000"), 0,
            {"outputs.counts": [4 ** k for k in range(1, 14)]},
            _progress([4 ** k for k in range(1, 14)])),
    Witness("leaf_plan_counts_the_cheapest_variable",
            "the plan counts the variable whose leaf is cheapest: x2 here, "
            "where counting x3 took 52 s (README, engine)",
            _variety(["1 + x1*x2*x3 + x1 + x1^3", "x1*x2 + x3^2 + 1"],
                     [1, 1, 1]),
            ("count", "-k", "13", "--budget", "100000000000000"), 0,
            {"outputs.counts": LEAF_PLAN}, _progress(LEAF_PLAN)),
    Witness("diagonal_leaves_counted_by_one_power",
            "a diagonal curve's leaves are binomials x2^5 + c, or x2^5 with "
            "its root at zero, each counted by one power",
            _variety(["x1^5 + x2^5 + 1"], [1, 1]),
            ("count", "-k", "20", "--budget", "10000000000000"), 0,
            {"outputs.counts": DIAGONAL_55}, _progress(DIAGONAL_55), 6),
    Witness("coefficient_g_over_f9[count]",
            "over F_9, odd p with s = 2, the coefficient g is embedded into "
            "every level's field",
            _variety(["x1^4 - g"], [1], p=3, s=2), ("count", "-k", "4"), 0,
            {"outputs.counts": [0, 4, 0, 4]}, _progress([0, 4, 0, 4])),
    Witness("coefficient_g_over_f9[faltings]", "as above, through the lemma",
            _variety(["x1^4 - g"], [1], p=3, s=2), ("faltings",), 0,
            {"outputs.lemma.passed": True, "outputs.lemma.entries": [
                {"a": 1, "equal": True, "fixed_point_count": 0, "k": 1,
                 "partial_count": 0},
                {"a": 1, "equal": True, "fixed_point_count": 4, "k": 2,
                 "partial_count": 4}]}),
    Witness("coefficient_g_over_f9[zeta]", "as above, through its zeta",
            _variety(["x1^4 - g"], [1], p=3, s=2), ("zeta",), 0,
            {"outputs.status": "ok", "outputs.zeta.numerator": [1],
             "outputs.zeta.denominator": [1, 0, -2, 0, 1],
             "outputs.B_used": 7, "outputs.weights.passed": True}),
    Witness("faltings_on_a_graph_variety[x1^2 + x2]",
            "the lemma for morphisms f_i is the lemma on the graph variety "
            "Gamma_f, written as a variety file",
            _variety(["x1^2 + x2"], [2, 2]), ("faltings", "--k-max", "2"), 0,
            {"outputs.lemma.passed": True, "outputs.lemma.entries": [
                {"a": 1, "equal": True, "fixed_point_count": 4, "k": 1,
                 "partial_count": 4},
                {"a": 1, "equal": True, "fixed_point_count": 16, "k": 2,
                 "partial_count": 16}]}),
    Witness("faltings_on_a_graph_variety[x1 + x2, x1 + x3, x2^2 + x4]",
            "as above, with two moduli",
            _variety(["x1 + x2", "x1 + x3", "x2^2 + x4"], [6, 6, 2, 3]),
            ("faltings", "--k-max", "2", "--budget", "100000000000"), 0,
            {"outputs.lemma.passed": True, "outputs.lemma.entries": [
                {"a": 1, "equal": True, "fixed_point_count": 2, "k": 1,
                 "partial_count": 2},
                {"a": 5, "equal": True, "fixed_point_count": 2, "k": 1,
                 "partial_count": 2},
                {"a": 1, "equal": True, "fixed_point_count": 4, "k": 2,
                 "partial_count": 4},
                {"a": 5, "equal": True, "fixed_point_count": 4, "k": 2,
                 "partial_count": 4}]}),
    Witness("huge_exponents_are_reduced_to_the_field"
            "[equations0-profile0-counts0]",
            "an exponent past the field's order costs no more than one "
            "below it (README, engine)",
            _variety(["x1^99999999999"], [1]), ("count", "-k", "1"), 0,
            {"outputs.counts": [1]}, _progress([1]), 1.0),
    Witness("huge_exponents_are_reduced_to_the_field"
            "[equations1-profile1-counts1]", "as above, in two variables",
            _variety(["x1^99999999999 + x2^99999999999 + 1"], [1, 2]),
            ("count", "-k", "1"), 0,
            {"outputs.counts": [4]}, _progress([4]), 1.0),
    Witness("huge_exponents_are_reduced_to_the_field"
            "[equations2-profile2-counts2]", "as above, of a sum",
            _variety(["(x1+1)^100000"], [1]), ("count", "-k", "1"), 0,
            {"outputs.counts": [1]}, _progress([1]), 1.0),
    Witness("parse_within_the_budget_counts",
            "(1+x1+x2)^728 over F_3 parses within the budget and counts",
            _variety(["(1+x1+x2)^728"], [1, 1], p=3),
            ("count", "-k", "1", "--budget", "100000000"), 0,
            {"outputs.counts": [3]}, _progress([3])),
    Witness("unary_minus_after_plus_counts_as_minus[x1^2 + -x2^2]",
            "a unary minus after + is a minus",
            _variety(["x1^2 + -x2^2"], [1, 1], p=3), ("count", "-k", "3"), 0,
            {"outputs.counts": [5, 17, 53]}, _progress([5, 17, 53])),
    Witness("unary_minus_after_plus_counts_as_minus[x1^2 - x2^2]",
            "the binary minus the entry above must equal",
            _variety(["x1^2 - x2^2"], [1, 1], p=3), ("count", "-k", "3"), 0,
            {"outputs.counts": [5, 17, 53]}, _progress([5, 17, 53])),
    Witness("as_bound_past_the_float_range_is_inf",
            "an Artin-Schreier bound past the float range prints as inf, "
            "its square exact",
            as_with_exponent(400), ("as",), 0,
            {"outputs.bound_decimal": "inf",
             "outputs.bound_squared": FLOAT_PAST_BOUND_SQUARED,
             "outputs.satisfied": True}),
    Witness("as_zero_fibred_form_is_singular",
            "f = 1 is its own leading form, and two copies of it sum to 0 "
            "over F_2: the fibred form is singular",
            {"kind": "artin-schreier", "p": 2, "s": 1, "n": 1, "n_prime": 1,
             "d": 2, "f": "1"}, ("as",), 0,
            {"outputs.smooth_status": "singular", "outputs.r": 0,
             "outputs.p_divides_r": True, "outputs.hypothesis_ok": False}),

    # schema errors, exit 2
    Witness("unknown_field_exit_2", "an unknown key is a schema error",
            _variety([], [1], zzz=1), ("count",), 2, EMPTY,
            _line("schema error: unknown fields: zzz")),
    Witness("malformed_json_exit_2", "a file that is not JSON",
            b"{not json", ("count",), 2, EMPTY,
            _line("schema error: malformed JSON at line 1 column 2: "
                  "Expecting property name enclosed in double quotes")),
    Witness("unreadable_json_exit_2[100000-deep]",
            "a file the JSON reader cannot read: nested too deep",
            b"[" * 100000, ("count", "-k", "1"), 2, EMPTY,
            _line("schema error: malformed JSON: maximum recursion depth",
                  ".*")),
    Witness("unreadable_json_exit_2[not-utf8]",
            "a file the JSON reader cannot read: not UTF-8",
            b'{"kind": "variety", "p": 2\xff}', ("count", "-k", "1"), 2, EMPTY,
            _line("schema error: malformed JSON: 'utf-8' codec", ".*")),
    Witness("unreadable_json_exit_2[bare-not-utf8]", "as above, a bare byte",
            b"{\xff}", ("count", "-k", "1"), 2, EMPTY,
            _line("schema error: malformed JSON: 'utf-8' codec", ".*")),
    Witness("unreadable_json_exit_2[5000-digit]",
            "a file the JSON reader cannot read: an int past Python's "
            "int-to-str limit (else n is not the profile's length)",
            b'{"kind": "variety", "p": 2, "s": 1, "n": ' + b"9" * 5000
            + b', "equations": [], "profile": [1]}', ("count", "-k", "1"), 2,
            EMPTY, _line("schema error: " + (
                "malformed JSON: Exceeds the limit" if INT_DIGITS
                else "'profile'"), ".*")),
    Witness("bad_polynomial_exit_2", "an unknown variable is a bad polynomial",
            _variety(["x9 + 1"], [1]), ("count",), 2, EMPTY,
            _line("schema error: bad polynomial 'x9 + 1': unknown variable "
                  "'x9' (at position 0)")),
    Witness("non_ascii_or_overlong_exponent_is_a_bad_polynomial[superscript]",
            "a superscript digit is no exponent",
            _variety(["x1^\u00b2"], [1]), ("count", "-k", "1"), 2, EMPTY,
            _line("schema error: bad polynomial ", r".*\(at position 3\)")),
    Witness("non_ascii_or_overlong_exponent_is_a_bad_polynomial[5000-digit]",
            "a 5000-digit exponent is refused before it is read",
            _variety(["x1^" + "9" * 5000], [1]), ("count", "-k", "1"), 2,
            EMPTY, _line("schema error: bad polynomial ",
                         r".*\(at position 3\)")),
    Witness("deeply_nested_equation_is_a_schema_error",
            "a 3000-deep equation is a schema error, not a RecursionError",
            _variety(["(" * 3000 + "x1" + ")" * 3000], [1]), ("count",), 2,
            EMPTY, _line("schema error: bad polynomial ",
                         ".*expression nested too deeply.*")),
    Witness("deeply_nested_unary_minus_is_a_schema_error",
            "as above, 3000 unary minus signs",
            _variety(["-" * 3000 + "x1"], [1]), ("count",), 2,
            EMPTY, _line("schema error: bad polynomial ",
                         ".*expression nested too deeply.*")),
    Witness("field_error_is_schema_error", "p must be prime",
            _variety([], [1], p=4), ("count",), 2, EMPTY,
            _line("schema error: p = 4 is not prime")),
    Witness("wrong_kind_exit_2", "zeta takes a variety, not a graph",
            "corpus/g_pair_shift.json", ("zeta",), 2, EMPTY,
            _line("schema error: expected a 'variety' instance, got 'graph'")),
    *[Witness(f"vertex_equations_not_a_list_exit_2[{equations}]",
              "a vertex's equations must be a list",
              _selfloop(lambda inst, e=equations:
                        inst["vertices"][0].update(equations=e)),
              ("graph",), 2, EMPTY,
              _line("schema error: vertex 'equations' must be a list"))
      for equations in (5, None, "1")],
    Witness("malformed_graph_is_a_schema_error[duplicate-vertex]",
            "a vertex named twice",
            _selfloop(lambda inst: inst.update(vertices=inst["vertices"] * 2)),
            ("graph",), 2, EMPTY,
            _line("schema error: duplicate vertex names", ".*")),
    Witness("malformed_graph_is_a_schema_error[unknown-vertex]",
            "an edge to no vertex",
            _selfloop(lambda inst: inst["edges"][0].update(dst="w")),
            ("graph",), 2, EMPTY,
            _line("schema error: edge references unknown vertex 'v' or 'w'",
                  ".*")),
    Witness("malformed_graph_is_a_schema_error[two-components]",
            "a morphism with more components than its target's coordinates",
            _selfloop(lambda inst: inst["edges"][0].update(
                morphism=["x1^2", "x1"])), ("graph",), 2, EMPTY,
            _line("schema error: edge 'morphism' must list one component per "
                  "target coordinate", ".*")),
    Witness("malformed_graph_is_a_schema_error[list-src]",
            "an edge's source that is not a name",
            _selfloop(lambda inst: inst["edges"][0].update(src=["v"])),
            ("graph",), 2, EMPTY,
            _line("schema error: edge 'src' and 'dst' must be vertex names",
                  ".*")),
    Witness("malformed_graph_is_a_schema_error[list-kind]",
            "a kind that is not a string",
            _selfloop(lambda inst: inst.update(kind=["graph"])),
            ("graph",), 2, EMPTY,
            _line("schema error: 'kind' must be one of", ".*")),
    *([Witness("as_exponent_of_2500_digits_is_a_schema_error",
               "an Artin-Schreier bound too long to print is refused before "
               "either count",
               as_with_exponent(2500), ("as",), 2, EMPTY,
               _line("schema error: f's degree, a 2500-digit number, makes "
                     "the bound's square longer than the "
                     f"{INT_DIGITS}-digit limit on printing an integer"))]
      if INT_DIGITS else []),
    *[Witness(f"numeric_flags_rejected_exit_2[{sub} {name} {' '.join(flags)}]",
              "a numeric flag must be positive and finite: a check over an "
              "empty range would report a pass",
              f"corpus/{name}.json", (sub, *flags), 2, EMPTY,
              _usage_error(f"parzeta {sub}", f"argument {flags[-2]}: invalid "
                           f"positive {kind} value: '{flags[-1]}'"))
      for sub, name, flags, kind in [
          ("zeta", "diag11_f2", ("--tol", "nan"), "float"),
          ("zeta", "diag11_f2", ("--tol", "inf"), "float"),
          ("zeta", "diag11_f2", ("--tol", "-1"), "float"),
          ("zeta", "diag11_f2", ("--tol", "0"), "float"),
          ("zeta", "diag11_f2", ("--holdout", "0"), "int"),
          ("zeta", "diag11_f2", ("--max-k", "0"), "int"),
          ("count", "diag11_f2", ("-k", "-2"), "int"),
          ("count", "diag11_f2", ("--budget", "-5"), "int"),
          ("count", "diag11_f2", ("-k", "x"), "int"),
          ("faltings", "diag11_f2", ("--k-max", "0"), "int"),
          ("graph", "g_selfloop_square", ("--k-max", "0"), "int"),
          ("graph", "g_selfloop_square", ("--tol", "nan"), "float"),
          ("as", "as_cubic_f2_d1", ("--e-max", "0"), "int"),
          ("sweep", "diag11_f2", ("1,1", "--holdout", "0"), "int")]],
    *[Witness(f"workers_flag_is_gone_exit_2[{argv[0]}]",
              "the retired --workers flag is refused",
              f"corpus/{name}.json", (*argv, "--workers", "2"), 2, EMPTY,
              _usage_error("parzeta", "unrecognized arguments: --workers 2"))
      for name, argv in [("diag11_f2", ("count",)), ("diag11_f2", ("zeta",)),
                         ("diag11_f2", ("faltings",)),
                         ("g_selfloop_square", ("graph",)),
                         ("as_cubic_f2_d1", ("as",)),
                         ("diag11_f2", ("sweep", "1,1"))]],

    # budget refusals, exit 3, each before the work it prices
    Witness("budget_exit_3", "a count past --budget is refused",
            "corpus/diag11_f2.json", ("count", "-k", "5", "--budget", "4"), 3,
            EMPTY, _refused(16, 4, "partial_count k=2")),
    Witness("file_budget_override", "the file's own budget limits the run",
            _variety(["x1 + x2"], [1, 1], budget=4), ("count", "-k", "2"), 3,
            EMPTY, _refused(16, 4, "partial_count k=2")),
    Witness("flag_budget_beats_the_files",
            "an explicit --budget beats the file's own budget",
            _variety(["x1 + x2"], [1, 1], budget=4),
            ("count", "-k", "2", "--budget", "1000"), 0,
            {"outputs.counts": [2, 4]}, _progress([2, 4])),
    *[witness for d in (20000, 10 ** 12) for witness in [
        # 2^(d + 1) tuples: too many digits to print, or to build at all;
        # the four runs shared one second as one test
        Witness(f"huge_profile_entry_refused_from_the_exponent[{d}]",
                "a level whose q^e is over the budget is refused from its "
                "exponent, before anything is built",
                _variety(["x1 + x2"], [d, 1]), ("count", "--budget", "1000"),
                3, EMPTY, _refused(f"2^{d + 1}", 1000, "partial_count k=1"),
                0.25),
        Witness(f"huge_profile_entry_refused_from_the_exponent[{d}-faltings]",
                "as above, in faltings",
                _variety(["x1 + x2"], [d, 1]),
                ("faltings", "--budget", "1000"), 3, EMPTY,
                _refused(f"2^{d + 1}", 1000, "partial_count k=1"), 0.25),
        Witness(f"huge_profile_entry_refused_from_the_exponent[{d}-zeta]",
                "as above, in zeta, which reports it",
                _variety(["x1 + x2"], [d, 1]), ("zeta", "--budget", "1000"),
                4, {"outputs.status": "budget-exceeded", "outputs.counts": []},
                seconds=0.25),
        Witness(f"huge_profile_entry_refused_from_the_exponent[{d}-sweep]",
                "as above, in a sweep row, beside a row that converges",
                _variety(["x1 + x2"], [d, 1]),
                ("sweep", f"{d},1", "1,1", "--budget", "1000"), 4,
                {"outputs.rows": [
                    {"B_used": "", "deg_den": "", "deg_num": "", "lcm": d,
                     "profile": f"{d} 1", "status": "budget-exceeded",
                     "total_degree": "", "weights": ""},
                    {"B_used": 4, "deg_den": 1, "deg_num": 0, "lcm": 1,
                     "profile": "1 1", "status": "ok", "total_degree": 1,
                     "weights": "2"}]}, seconds=0.25)]],
    Witness("huge_level_refused_before_anything_is_built[as-20000]",
            "an Artin-Schreier level over the budget is refused from its "
            "exponent", _corpus("as_linear_f2", d=20000),
            ("as", "--budget", "1000"), 3, EMPTY,
            _refused("2^40001", 1000, "as_count_brute"), 1.0),
    Witness("huge_level_refused_before_anything_is_built[as-10^12]",
            "as above, at d = 10^12", _corpus("as_linear_f2", d=10 ** 12),
            ("as", "--budget", "1000"), 3, EMPTY,
            _refused(f"2^{2 * 10 ** 12 + 1}", 1000, "as_count_brute"), 1.0),
    # the fibred product's profile is (d, 1, 1)
    Witness("huge_level_refused_before_anything_is_built[graph-200]",
            "a graph level over the budget is refused from its exponent",
            _graph_with_u_at(200), ("graph", "--budget", "1000"), 3, EMPTY,
            _refused(2 ** 202, 1000, "graph_count_direct k=1"), 1.0),
    Witness("huge_level_refused_before_anything_is_built[graph-10^12]",
            "as above, at d = 10^12", _graph_with_u_at(10 ** 12),
            ("graph", "--budget", "1000"), 3, EMPTY,
            _refused(f"2^{10 ** 12 + 2}", 1000, "graph_count_direct k=1"),
            1.0),
    Witness("graph_refused_at_the_first_level_past_the_budget",
            "the fibred product's 2^19 tuples at level 1 pass the budget, its "
            "2^38 at level 2 do not: refused there, before u's points over "
            "F_(2^34) are listed", _graph_with_u_at(17),
            ("graph", "--budget", "1000000"), 3, EMPTY,
            _refused(274877906944, 1000000, "graph_count_direct k=2")),
    # x1^100000 + 1 = (x1^3125 + 1)^32: x^Q mod a gcd of degree 3125
    *[Witness(f"graph_leaf_refused_before_a_vertex_field_is_built[{d}]",
              "the fibred product's 2^d tuples at level 1 pass the budget, "
              "its leaf does not: refused before the direct count lists "
              "F_(2^d)", _graph_vertex(1, d, ["x1^100000 + 1"]),
              ("graph", "--k-max", "1"), 3, EMPTY,
              _refused(3125 ** 2 * (d + 1), 100000000, "count_roots k=1"), 1.0)
      for d in (20, 24)],
    Witness("leaf_degree_and_parse_refused_before_their_work[2-x1^100000 + 1"
            "-profile0-100000000-enumeration cost 205078125 exceeds budget "
            "100000000 (count_roots k=1)]",
            "a leaf's x^Q mod a gcd of degree 3125, Q = 2^20, is priced at "
            "3125^2 * 21 products before it is built (ROADMAP item 11)",
            _variety(["x1^100000 + 1"], [20]),
            ("count", "-k", "1", "--budget", "100000000"), 3, EMPTY,
            _refused(205078125, 100000000, "count_roots k=1"), 1.0),
    Witness("leaf_degree_and_parse_refused_before_their_work[3-(1+x1+x2)^2186"
            "-profile1-1000000-enumeration cost 1804461 exceeds budget "
            "1000000 (parse_poly)]",
            "the square of (1+x1+x2)^512, 1296 terms over F_3: 1296^2 pairs "
            "after the 124,845 of the products before it",
            _variety(["(1+x1+x2)^2186"], [1, 1], p=3),
            ("count", "-k", "1", "--budget", "1000000"), 3, EMPTY,
            _refused(1804461, 1000000, "parse_poly"), 1.0),
    Witness("leaf_exponent_reduced_before_its_price",
            "a leaf's largest exponent is reduced mod Q - 1 before it is "
            "priced", _variety(["x1^16383 + x1^16384 + 1"], [14]),
            ("count", "-k", "1", "--budget", "100000000"), 3, EMPTY,
            _refused(4026040335, 100000000, "count_roots k=1")),
    Witness("leaf_price_too_long_to_print_is_refused_by_its_size",
            "a cost too long to print is shown by its bit length, on one line",
            _variety([f"x1^{UNPRINTABLE_E} + 1"], [14000],
                     budget=UNPRINTABLE_BUDGET),
            ("count", "-k", "1"), 3, EMPTY,
            _line("budget exceeded: enumeration cost at least 2^"
                  f"{(UNPRINTABLE_E ** 2 * 14001).bit_length() - 1} exceeds "
                  f"budget {UNPRINTABLE_BUDGET} (count_roots k=1)")),
    *[Witness(f"base_field_refused[{p}-{s}]",
              "q > budget: every enumeration over F_q visits at least q "
              "tuples, so F_q is refused before it is built",
              _variety(["x1"], [1], p=p, s=s), ("count", "-k", "1"), 3, EMPTY,
              _refused(p ** s, 100000000, "base field"), 1.0)
      for p, s in [(2, 3000), (2 ** 61 - 1, 1), (10 ** 30 + 57, 1)]],
    Witness("singular_search_refused_past_the_budget",
            "each degree e of the singular-point search is refused when "
            "q^(e(n-1)) passes the budget",
            "corpus/as_xy_f2.json", ("as", "--e-max", "300"), 3, EMPTY,
            _refused(134217728, 100000000, "singular_search e=27"), 1.0),
    Witness("huge_variable_count_refused_before_its_names[as]",
            "an Artin-Schreier instance's q^(n + n') tuples are priced "
            "before its variables' names are built",
            _corpus("as_linear_f2", n=2 * 10 ** 6), ("as",), 3, EMPTY,
            _refused(f"2^{2 * 10 ** 6 + 1}", 100000000, "variables"), 1.0),
    Witness("huge_variable_count_refused_before_its_names[graph]",
            "as above, a graph vertex's q^n tuples",
            _graph_vertex(2 * 10 ** 6, 1, []), ("graph",), 3, EMPTY,
            _refused(f"2^{2 * 10 ** 6}", 100000000, "variables"), 1.0),
    Witness("billion_variables_refused_before_their_names[as]",
            "as above, at n = 10^9", _corpus("as_linear_f2", n=10 ** 9),
            ("as",), 3, EMPTY,
            _refused(f"2^{10 ** 9 + 1}", 100000000, "variables")),
    Witness("billion_variables_refused_before_their_names[graph]",
            "as above, at n = 10^9", _graph_vertex(10 ** 9, 1, []),
            ("graph",), 3, EMPTY,
            _refused(f"2^{10 ** 9}", 100000000, "variables")),
    # the partial count's 2^24 tuples pass the default budget, but the
    # listing binds x_1 over all of F_(2^143)
    *[Witness(f"faltings_listing_refused_whatever_closes_x1"
              f"[{', '.join(equations)}]",
              "a faltings level whose orbit listing passes the budget is "
              "refused before its field is built",
              _variety(equations, [11, 13]), ("faltings", "--k-max", "1"), 3,
              EMPTY, _refused(2 ** 143, 100000000,
                              "enumerate_orbit_points k=1"), 1.0)
      for equations in (["x1^3 + x2^2 + 1"], ["x1 + 1", "x2^3 + x2 + 1"],
                        ["x1^3 + x1 + 1", "x1^3 + x2^2 + 1"])],
    Witness("faltings_leaf_degree_refused_at_profile_24",
            "a faltings level whose leaf degree passes the budget is refused "
            "by the partial count's check, before the listing builds "
            "F_(2^24)", _variety(["x1^100000 + 1"], [24]),
            ("faltings", "--k-max", "1"), 3, EMPTY,
            _refused(3125 ** 2 * 25, 100000000, "count_roots k=1")),
    *[witness for (id_, p, s, equations, profile, k), counts
      in zip(FALTINGS_SCANS, SCAN_COUNTS) for witness in [
          Witness(f"faltings_scan_refused_by_its_candidates[{id_}]",
                  "ROADMAP item 3: the search charges each scanned "
                  "candidate, so a budget of 10^6 stops the listing after "
                  "10^6 of them",
                  _variety(equations, profile, p=p, s=s),
                  ("faltings", "--k-max", str(k), "--budget", "1000000"), 3,
                  EMPTY, _refused(1000001, 1000000, "variety enumeration")),
          Witness(f"count_of_a_faltings_scan_witness[{id_}]",
                  "ROADMAP item 3: the count at the same level passes",
                  _variety(equations, profile, p=p, s=s),
                  ("count", "-k", str(k), "--budget", "1000000"), 0,
                  {"outputs.counts": counts}, _progress(counts))]],
]


def _leaf(report, path):
    value = report
    for key in path.split("."):
        if isinstance(value, list) and key.isdigit() and int(key) < len(value):
            value = value[int(key)]
        elif isinstance(value, dict) and key in value:
            value = value[key]
        else:
            raise KeyError(path)
    return value


def check(w, outcome):
    """What in `outcome`, the run of entry `w`, breaks the entry: a list of
    one message per fault, empty when the run holds."""
    faults = []
    if isinstance(w.instance, str) and not (ROOT / w.instance).is_file():
        faults.append(f"no instance file {w.instance}")
    if outcome.exit is None:
        faults.append(f"killed at {w.seconds} s plus {START_ALLOWANCE_S} s "
                      "to start")
    elif outcome.exit != w.exit:
        faults.append(f"exit {outcome.exit}, expected {w.exit}")
    if w.stdout == EMPTY:
        if outcome.stdout:
            faults.append(f"stdout {outcome.stdout[:200]!r}, expected none")
    else:
        try:
            report = json.loads(outcome.stdout)
        except ValueError:
            report = None
            faults.append(f"stdout {outcome.stdout[:200]!r} is no JSON report")
        for path, want in w.stdout.items() if report is not None else ():
            try:
                got = _leaf(report, path)
            except KeyError:
                faults.append(f"the report has no {path}")
                continue
            # as JSON, so True is not 1
            if json.dumps(got, sort_keys=True) != json.dumps(want,
                                                             sort_keys=True):
                faults.append(f"{path} = {json.dumps(got)[:200]}, expected "
                              f"{json.dumps(want)[:200]}")
    if not re.fullmatch(w.stderr, outcome.stderr):
        faults.append(f"stderr {outcome.stderr[:300]!r} does not match "
                      f"{w.stderr[:300]!r}")
    if outcome.seconds > w.seconds:
        faults.append(f"took {outcome.seconds:.2f} s, bound {w.seconds} s")
    return faults


def _argv(w, directory):
    """`w`'s argv with its instance's path, writing an inline instance to
    `directory`."""
    if isinstance(w.instance, str):
        path = ROOT / w.instance
    else:
        path = Path(directory) / "instance.json"
        path.write_bytes(w.instance if isinstance(w.instance, bytes)
                         else json.dumps(w.instance).encode())
    return [w.argv[0], str(path), *w.argv[1:]]


def run_in_process(w, directory):
    """Run `w` through `cli.main` in this process."""
    from parzeta.cli import main

    argv = _argv(w, directory)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return Outcome(code, out.getvalue(), err.getvalue(),
                   time.perf_counter() - t0)


def run_command(w, command, directory):
    """Run `w` by `command` in a fresh process, killed at its bound plus
    the start allowance; its seconds are the wall time less the
    allowance."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run([*command, *_argv(w, directory)],
                              capture_output=True,
                              timeout=w.seconds + START_ALLOWANCE_S)
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    else:
        code, out, err = done.returncode, done.stdout, done.stderr
    return Outcome(code, out.decode(), err.decode(),
                   time.perf_counter() - t0 - START_ALLOWANCE_S)


# golden cases: (subcommand, instance, extra flags) beyond the default ones
INSTANCES = sorted(p.stem for p in CORPUS.glob("*.json"))
PAYLOAD = {name: json.loads((CORPUS / f"{name}.json").read_text())
           for name in INSTANCES}
EXTRA = [
    ("zeta", "diag11_f2", ("--budget", "10")),
    ("graph", "g_cycle3_square", ("--max-k", "2")),
    ("count", "mu3_profile6_f2", ("-k", "3", "--budget", "10000")),
    ("sweep", "diag11_f2", ("1,1", "2,3", "--budget", "3")),
    ("sweep", "diag11_f2", ("1,1", "x")),
    ("faltings", "diag23_f2", ("--budget", "100")),
    ("graph", "g_selfloop_square", ("--budget", "50")),
    ("graph", "g_selfloop_square", ("--budget", "200")),
] + [(sub, name, flags + ("--format", fmt))
     for sub, name, flags in [("count", "diag11_f2", ()),
                              ("zeta", "diag11_f2", ()),
                              ("faltings", "diag11_f2", ()),
                              ("graph", "g_selfloop_square", ()),
                              ("as", "as_cubic_f2_d1", ()),
                              ("sweep", "diag11_f2", ("1,1", "1,2"))]
     for fmt in ("csv", "table")]


def _default_cases():
    for name in INSTANCES:
        yield "zeta", name, ()
        kind = PAYLOAD[name]["kind"]
        if kind == "variety":
            yield "count", name, ()
            yield "faltings", name, ()
            yield "sweep", name, (",".join(["1"] * PAYLOAD[name]["n"]),)
        elif kind == "graph":
            yield "graph", name, ()
        else:
            yield "as", name, ()


def _case_name(name, flags):
    return "_".join([name] + [f.lstrip("-").replace(",", "-") for f in flags])


# (subcommand, case name) -> argv
CASES = {(sub, name): [sub, str(CORPUS / f"{name}.json"), *flags]
         for sub, name, flags in _default_cases()}
CASES.update({(sub, _case_name(name, flags)):
              [sub, str(CORPUS / f"{name}.json"), *flags]
              for sub, name, flags in EXTRA})


def golden_record(argv, code, stdout, stderr):
    """A run's golden form: its exit code, its stderr and its stdout, the
    JSON report without its `timings` block, the text of a csv or table
    report without its `timings.` lines, or None when nothing is
    printed."""
    if not stdout:
        report = None
    elif "--format" in argv:
        report = "".join(line for line in stdout.splitlines(keepends=True)
                         if not line.startswith("timings."))
    else:
        report = json.loads(stdout)
        del report["timings"]
    return {"exit_code": code, "stderr": stderr, "stdout": report}


def _golden_faults(sub, case, command):
    argv = CASES[sub, case]
    done = subprocess.run([*command, *argv], capture_output=True)
    got = golden_record(argv, done.returncode, done.stdout.decode(),
                        done.stderr.decode())
    want = json.loads((GOLDEN / sub / f"{case}.json").read_text())
    return [f"{key} differs from its golden" for key in want
            if got[key] != want[key]]


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run every CLI witness, or every golden case, against "
                    "a command, each in a fresh process.")
    ap.add_argument("--goldens", action="store_true",
                    help="run the golden cases instead of the witnesses")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command that runs parzeta: parzeta, or "
                         "python -m parzeta.cli")
    args = ap.parse_args(argv)
    if not args.command:
        ap.error("give the command that runs parzeta")
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        if args.goldens:
            runs = [("/".join(key), lambda key=key: _golden_faults(
                *key, args.command)) for key in sorted(CASES)]
        else:
            runs = [(w.name, lambda w=w: check(
                w, run_command(w, args.command, directory)))
                    for w in WITNESSES]
        for name, run in runs:
            faults = run()
            failed += bool(faults)
            print("FAIL" if faults else "ok", name, flush=True)
            for fault in faults:
                print("   ", fault, flush=True)
    print(f"{len(runs) - failed} of {len(runs)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
