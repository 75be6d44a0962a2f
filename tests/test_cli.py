import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from parzeta import artin_schreier, fields
from parzeta.artin_schreier import bound_check, singular_search
from parzeta.cli import load_instance, main
from parzeta.faltings import lemma_check
from parzeta.graphs import reduction_check
from test_golden import CASES, GOLDEN

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"
# Python's int-to-str limit; 0 is none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_count_diagonal(capsys):
    code, rep = run_json(capsys, "count", str(CORPUS / "diag11_f2.json"),
                         "-k", "3")
    assert code == 0
    assert rep["outputs"]["counts"] == [2, 4, 8]
    assert len(rep["input_digest"]) == 64


def test_count_empty_variety(capsys):
    code, rep = run_json(capsys, "count", str(CORPUS / "empty_f2.json"),
                         "-k", "4")
    assert code == 0
    assert rep["outputs"]["counts"] == [0, 0, 0, 0]


def test_zeta_diagonal(capsys):
    code, rep = run_json(capsys, "zeta", str(CORPUS / "diag11_f2.json"))
    assert code == 0
    z = rep["outputs"]["zeta"]
    assert z["numerator"] == [1]
    assert z["denominator"] == [1, -2]
    assert z["total_degree"] == 1
    assert rep["outputs"]["weights"]["passed"] is True


def test_zeta_hyperbola(capsys):
    code, rep = run_json(capsys, "zeta", str(CORPUS / "hyperbola11_f2.json"))
    assert code == 0
    z = rep["outputs"]["zeta"]
    assert z["numerator"] == [1, -1]
    assert z["denominator"] == [1, -2]


def test_zeta_point_is_constant_one(capsys):
    code, rep = run_json(capsys, "zeta", str(CORPUS / "empty_f2.json"))
    assert code == 0
    z = rep["outputs"]["zeta"]
    assert z["numerator"] == [1] and z["denominator"] == [1]


def test_zeta_non_convergence_exit_4(capsys):
    code, rep = run_json(capsys, "zeta", str(CORPUS / "diag11_f2.json"),
                         "--budget", "10")
    assert code == 4
    assert rep["outputs"]["status"] == "budget-exceeded"


def test_faltings_subcommand(capsys):
    code, rep = run_json(capsys, "faltings", str(CORPUS / "diag23_f2.json"),
                         "--k-max", "2")
    assert code == 0
    assert rep["outputs"]["lemma"]["passed"] is True


def test_graph_subcommand(capsys):
    code, rep = run_json(capsys, "graph",
                         str(CORPUS / "g_selfloop_square.json"))
    assert code == 0
    assert rep["outputs"]["counts_agree"] is True
    assert rep["outputs"]["zeta"]["denominator"] == [1, -2, 1]


def test_as_subcommand(capsys):
    code, rep = run_json(capsys, "as", str(CORPUS / "as_cubic_f2_d1.json"))
    assert code == 0
    o = rep["outputs"]
    assert o["N_d"] == 4 and o["deviation"] == "0" and o["satisfied"] is True


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                       "1,1", "1,2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("profile,lcm,B_used")
    assert len(lines) == 3


def test_sweep_json(capsys):
    code, rep = run_json(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                         "2 3")
    assert code == 0
    row = rep["outputs"]["rows"][0]
    assert row["status"] == "ok" and row["lcm"] == 6


def test_table_format(capsys):
    code, out, _ = run(capsys, "count", str(CORPUS / "diag11_f2.json"),
                       "--format", "table")
    assert code == 0
    assert "outputs.counts" in out


def test_unknown_field_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                               "equations": [], "profile": [1], "zzz": 1}))
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2
    assert "zzz" in err


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("raw, error", [
    (b"[" * 100000, "malformed JSON: maximum recursion depth"),
    (b'{"kind": "variety", "p": 2\xff}', "malformed JSON: 'utf-8' codec"),
    # the variety's n: past the int-to-str limit, or else not the
    # profile's length
    (b'{"kind": "variety", "p": 2, "s": 1, "n": ' + b"9" * 5000
     + b', "equations": [], "profile": [1]}',
     "malformed JSON: Exceeds the limit" if INT_DIGITS else "'profile'"),
], ids=["100000-deep", "not-utf8", "5000-digit"])
def test_unreadable_json_exit_2(tmp_path, capsys, raw, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run(capsys, "count", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("schema error: " + error)


def test_bad_polynomial_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                               "equations": ["x9 + 1"], "profile": [1]}))
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2


@pytest.mark.parametrize("equation", ["x1^\u00b2", "x1^" + "9" * 5000],
                         ids=["superscript", "5000-digit"])
def test_non_ascii_or_overlong_exponent_is_a_bad_polynomial(tmp_path, capsys,
                                                            equation):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                               "equations": [equation], "profile": [1]}))
    code, out, err = run(capsys, "count", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("schema error: bad polynomial ")
    assert "(at position 3)" in err


@pytest.mark.parametrize("equations", [5, None, "1"])
def test_vertex_equations_not_a_list_exit_2(tmp_path, capsys, equations):
    inst = json.loads((CORPUS / "g_selfloop_square.json").read_text())
    inst["vertices"][0]["equations"] = equations
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    code, out, err = run(capsys, "graph", str(bad))
    assert code == 2 and out == ""
    assert err == "schema error: vertex 'equations' must be a list\n"


def _duplicate_vertex(inst):
    inst["vertices"] *= 2


def _unknown_vertex(inst):
    inst["edges"][0]["dst"] = "w"


def _two_components(inst):
    inst["edges"][0]["morphism"] = ["x1^2", "x1"]


def _list_src(inst):
    inst["edges"][0]["src"] = ["v"]


def _list_kind(inst):
    inst["kind"] = ["graph"]


@pytest.mark.parametrize("spoil, error", [
    (_duplicate_vertex, "duplicate vertex names"),
    (_unknown_vertex, "edge references unknown vertex 'v' or 'w'"),
    (_two_components, "edge 'morphism' must list one component per target "
                      "coordinate"),
    (_list_src, "edge 'src' and 'dst' must be vertex names"),
    (_list_kind, "'kind' must be one of"),
], ids=["duplicate-vertex", "unknown-vertex", "two-components", "list-src",
        "list-kind"])
def test_malformed_graph_is_a_schema_error(tmp_path, capsys, spoil, error):
    # the self-loop x -> x^2, spoilt one way each
    inst = json.loads((CORPUS / "g_selfloop_square.json").read_text())
    spoil(inst)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    code, out, err = run(capsys, "graph", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("schema error: " + error)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_wrong_kind_exit_2(capsys):
    code, _, err = run(capsys, "zeta", str(CORPUS / "g_pair_shift.json"))
    assert code == 2
    assert "variety" in err


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "count", str(CORPUS / "diag11_f2.json"),
                       "-k", "5", "--budget", "4")
    assert code == 3


def test_file_budget_override(tmp_path, capsys):
    inst = {"kind": "variety", "p": 2, "s": 1, "n": 2,
            "equations": ["x1 + x2"], "profile": [1, 1], "budget": 4}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    code, _, _ = run(capsys, "count", str(f), "-k", "2")
    assert code == 3
    # an explicit flag beats the file's own budget
    code, rep = run_json(capsys, "count", str(f), "-k", "2",
                         "--budget", "1000")
    assert code == 0


@pytest.mark.parametrize("d", [20000, 10 ** 12])
def test_huge_profile_entry_refused_from_the_exponent(tmp_path, capsys, d):
    # 2^(d + 1) tuples: too many digits to print, or to build at all
    inst = {"kind": "variety", "p": 2, "s": 1, "n": 2,
            "equations": ["x1 + x2"], "profile": [d, 1]}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    t0 = time.perf_counter()
    for sub in ("count", "faltings"):
        code, out, err = run(capsys, sub, str(f), "--budget", "1000")
        assert code == 3 and out == ""
        assert err == (f"budget exceeded: enumeration cost 2^{d + 1} exceeds "
                       "budget 1000 (partial_count k=1)\n")
    code, rep = run_json(capsys, "zeta", str(f), "--budget", "1000")
    assert code == 4
    assert rep["outputs"]["status"] == "budget-exceeded"
    assert rep["outputs"]["counts"] == []
    code, rep = run_json(capsys, "sweep", str(f), f"{d},1", "1,1",
                         "--budget", "1000")
    assert code == 4
    assert [row["status"] for row in rep["outputs"]["rows"]] == \
        ["budget-exceeded", "ok"]
    assert time.perf_counter() - t0 < 1.0


def _as_with_d(d):
    return {**json.loads((CORPUS / "as_linear_f2.json").read_text()), "d": d}


def _graph_with_u_at(d):
    inst = json.loads((CORPUS / "g_cycle3_square.json").read_text())
    inst["vertices"][0]["d"] = d
    return inst


@pytest.mark.parametrize("sub, inst, cost, context", [
    ("as", _as_with_d(20000), "2^40001", "as_count_brute"),
    ("as", _as_with_d(10 ** 12), f"2^{2 * 10 ** 12 + 1}", "as_count_brute"),
    # the fibred product's profile is (d, 1, 1)
    ("graph", _graph_with_u_at(200), str(2 ** 202), "graph_count_direct k=1"),
    ("graph", _graph_with_u_at(10 ** 12), f"2^{10 ** 12 + 2}",
     "graph_count_direct k=1"),
], ids=["as-20000", "as-10^12", "graph-200", "graph-10^12"])
def test_huge_level_refused_before_anything_is_built(tmp_path, capsys, sub,
                                                     inst, cost, context):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    t0 = time.perf_counter()
    code, out, err = run(capsys, sub, str(f), "--budget", "1000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == (f"budget exceeded: enumeration cost {cost} exceeds "
                   f"budget 1000 ({context})\n")


def test_graph_refused_at_the_first_level_past_the_budget(tmp_path, capsys):
    # the fibred product has 2^19 tuples at level 1, within the budget, and
    # 2^38 at level 2: refused there before u's points over F_(2^34) are
    # listed for the direct count
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(_graph_with_u_at(17)))
    code, out, err = run(capsys, "graph", str(f), "--budget", "1000000")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: enumeration cost 274877906944 exceeds "
                   "budget 1000000 (graph_count_direct k=2)\n")


@pytest.mark.parametrize("d", [20, 24])
def test_graph_leaf_refused_before_a_vertex_field_is_built(tmp_path, capsys,
                                                         d):
    # the fibred product's 2^d tuples at level 1 pass the budget, its leaf
    # x1^100000 + 1 = (x1^3125 + 1)^32 does not: refused before the direct
    # count lists F_(2^d), which took seconds at d = 20 before its exit 4
    inst = {"kind": "graph", "p": 2, "s": 1, "edges": [],
            "vertices": [{"name": "u", "n": 1, "d": d,
                          "equations": ["x1^100000 + 1"]}]}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "graph", str(f), "--k-max", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == (f"budget exceeded: enumeration cost {3125 ** 2 * (d + 1)} "
                   "exceeds budget 100000000 (count_roots k=1)\n")


@pytest.mark.parametrize("p, s", [(2, 3000), (2 ** 61 - 1, 1),
                                  (10 ** 30 + 57, 1)])
def test_base_field_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                               p, s):
    # q > budget: every enumeration over F_q visits at least q tuples
    inst = {"kind": "variety", "p": p, "s": s, "n": 1, "equations": ["x1"],
            "profile": [1]}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))

    def refuse(*args):
        raise AssertionError("base field built before the budget check")

    monkeypatch.setattr(fields, "is_prime", refuse)
    monkeypatch.setattr(fields, "smallest_irreducible", refuse)
    for argv in (("count", "-k", "1"), ("zeta",)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert err.endswith("(base field)\n")


def test_singular_search_refused_past_the_budget(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "as", str(CORPUS / "as_xy_f2.json"),
                         "--e-max", "300")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == ("budget exceeded: enumeration cost 134217728 exceeds "
                   "budget 100000000 (singular_search e=27)\n")


def test_deeply_nested_equation_is_a_schema_error(tmp_path, capsys):
    f = tmp_path / "inst.json"
    for eq in ("(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"):
        f.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                                 "equations": [eq], "profile": [1]}))
        code, out, err = run(capsys, "count", str(f))
        assert code == 2 and out == ""
        assert "expression nested too deeply" in err


@pytest.mark.parametrize("equations, profile, counts", [
    (["x1^99999999999"], [1], [1]),
    (["x1^99999999999 + x2^99999999999 + 1"], [1, 2], [4]),
    (["(x1+1)^100000"], [1], [1]),
])
def test_huge_exponents_are_reduced_to_the_field(tmp_path, capsys, equations,
                                                 profile, counts):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1,
                             "n": len(profile), "equations": equations,
                             "profile": profile}))
    t0 = time.perf_counter()
    code, rep = run_json(capsys, "count", str(f), "-k", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and rep["outputs"]["counts"] == counts


@pytest.mark.parametrize("p, equation, profile, budget, refusal", [
    # x1^100000 + 1 = (x1^3125 + 1)^32: x^Q mod a gcd of degree 3125,
    # Q = 2^20, 3125^2 * 21 products
    (2, "x1^100000 + 1", [20], 10 ** 8,
     "enumeration cost 205078125 exceeds budget 100000000 "
     "(count_roots k=1)"),
    # the square of (1+x1+x2)^512, 1296 terms over F_3: 1296^2 pairs after
    # the 124,845 of the products before it
    (3, "(1+x1+x2)^2186", [1, 1], 10 ** 6,
     "enumeration cost 1804461 exceeds budget 1000000 (parse_poly)"),
])
def test_leaf_degree_and_parse_refused_before_their_work(
        tmp_path, capsys, p, equation, profile, budget, refusal):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "variety", "p": p, "s": 1,
                             "n": len(profile), "equations": [equation],
                             "profile": profile}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "count", str(f), "-k", "1",
                         "--budget", str(budget))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == f"budget exceeded: {refusal}\n"


# x1^E + 1, E = 10^4000 + 1, at profile (14000): its 2^14000 tuples pass
# the budget 10^4290, its leaf's price E^2 * 14001, 8005 digits, does not
UNPRINTABLE_E, UNPRINTABLE_BUDGET = 10 ** 4000 + 1, 10 ** 4290


def test_leaf_price_too_long_to_print_is_refused_by_its_size(tmp_path,
                                                             capsys):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                             "equations": [f"x1^{UNPRINTABLE_E} + 1"],
                             "profile": [14000],
                             "budget": UNPRINTABLE_BUDGET}))
    bits = (UNPRINTABLE_E ** 2 * 14001).bit_length()
    code, out, err = run(capsys, "count", str(f), "-k", "1")
    assert code == 3 and out == ""
    assert err == (f"budget exceeded: enumeration cost at least "
                   f"2^{bits - 1} exceeds budget {UNPRINTABLE_BUDGET} "
                   "(count_roots k=1)\n")


@pytest.mark.parametrize("equation", ["x1^2 + -x2^2", "x1^2 - x2^2"])
def test_unary_minus_after_plus_counts_as_minus(tmp_path, capsys, equation):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "variety", "p": 3, "s": 1, "n": 2,
                             "equations": [equation], "profile": [1, 1]}))
    code, rep = run_json(capsys, "count", str(f), "-k", "3")
    assert code == 0 and rep["outputs"]["counts"] == [5, 17, 53]


def _graph_with_n(n):
    return {"kind": "graph", "p": 2, "s": 1, "edges": [],
            "vertices": [{"name": "u", "n": n, "d": 1, "equations": []}]}


@pytest.mark.parametrize("sub, inst, e", [
    ("as", {**_as_with_d(1), "n": 2 * 10 ** 6}, 2 * 10 ** 6 + 1),
    ("graph", _graph_with_n(2 * 10 ** 6), 2 * 10 ** 6),
], ids=["as", "graph"])
def test_huge_variable_count_refused_before_its_names(tmp_path, capsys, sub,
                                                      inst, e):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    t0 = time.perf_counter()
    code, out, err = run(capsys, sub, str(f))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == (f"budget exceeded: enumeration cost 2^{e} exceeds budget "
                   f"100000000 (variables)\n")


def _as_with_exponent(digits):
    return {"kind": "artin-schreier", "p": 2, "s": 1, "n": 1, "n_prime": 1,
            "d": 1, "f": "x1^" + "9" * digits + " + y1"}


def test_as_bound_past_the_float_range_is_inf(tmp_path, capsys):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(_as_with_exponent(400)))
    code, rep = run_json(capsys, "as", str(f))
    assert code == 0
    out = rep["outputs"]
    assert out["bound_decimal"] == "inf"
    # r = 10^400 - 1 and q^(dn + n') = 4: the squared bound stays exact
    r = 10 ** 400 - 1
    assert out["bound_squared"] == str((r - 1) ** 4 * 4)
    assert out["satisfied"] is True


@pytest.mark.skipif(not INT_DIGITS, reason="no int-to-str limit")
def test_as_bound_too_long_to_print_is_a_schema_error(tmp_path, capsys,
                                                      monkeypatch):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(_as_with_exponent(2500)))

    def refuse(*args):
        raise AssertionError("a count ran before the instance was refused")

    monkeypatch.setattr(artin_schreier, "field", refuse)
    code, out, err = run(capsys, "as", str(f))
    assert code == 2 and out == ""
    assert err == ("schema error: f's degree, a 2500-digit number, makes the "
                   "bound's square longer than the "
                   f"{INT_DIGITS}-digit limit on printing "
                   "an integer\n")
    # past the budget too: the count's refusal comes first
    f.write_text(json.dumps({**_as_with_exponent(2500), "d": 20000}))
    code, out, err = run(capsys, "as", str(f))
    assert code == 3 and out == ""
    assert err.endswith("(as_count_brute)\n")


def test_as_zero_fibred_form_is_singular(tmp_path, capsys):
    # f = 1 is its own leading form; two copies of it sum to 0 over F_2
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "artin-schreier", "p": 2, "s": 1,
                             "n": 1, "n_prime": 1, "d": 2, "f": "1"}))
    code, rep = run_json(capsys, "as", str(f))
    assert code == 0
    out = rep["outputs"]
    assert out["smooth_status"] == "singular" and out["r"] == 0
    assert out["p_divides_r"] is True and out["hypothesis_ok"] is False


def _faltings_on(tmp_path, capsys, monkeypatch, equations, profile, *argv):
    """``parzeta faltings`` on X over F_2, one variable per profile entry,
    with the degrees of the moduli it searched for and its wall time."""
    inst = {"kind": "variety", "p": 2, "s": 1, "n": len(profile),
            "equations": equations, "profile": profile}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(inst))
    degrees = []
    search = fields.smallest_irreducible

    def spy(p, m):
        degrees.append(m)
        return search(p, m)

    with monkeypatch.context() as mp:
        mp.setattr(fields, "smallest_irreducible", spy)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "faltings", str(f), *argv)
        wall = time.perf_counter() - t0
    return code, out, err, degrees, wall


def test_faltings_listing_refused_before_its_field_is_built(tmp_path, capsys,
                                                          monkeypatch):
    # the partial count's 2^24 tuples pass the default budget, but the
    # listing binds x_1 over all of F_(2^143): refused before any field
    # past the count's is built, F_(2^143) included.  An equation in x_1
    # alone, linear or not, leaves x_1 fewer nodes than values, and is
    # refused all the same, before the later variables are scanned
    for equations in (["x1^3 + x2^2 + 1"], ["x1 + 1", "x2^3 + x2 + 1"],
                      ["x1^3 + x1 + 1", "x1^3 + x2^2 + 1"]):
        code, out, err, degrees, wall = _faltings_on(
            tmp_path, capsys, monkeypatch, equations, [11, 13],
            "--k-max", "1")
        assert code == 3 and out == ""
        assert err == (f"budget exceeded: enumeration cost {2 ** 143} "
                       "exceeds budget 100000000 "
                       "(enumerate_orbit_points k=1)\n")
        assert max(degrees, default=0) <= 13
        assert wall < 1.0


def test_faltings_leaf_degree_refused_before_its_field_is_built(
        tmp_path, capsys, monkeypatch):
    # x^Q mod a degree-3125 gcd, x1^100000 + 1 = (x1^3125 + 1)^32 and
    # Q = 2^20, is refused by the partial count's check, before the
    # listing builds F_(2^20) and walks it
    code, out, err, degrees, wall = _faltings_on(
        tmp_path, capsys, monkeypatch, ["x1^100000 + 1"], [20],
        "--k-max", "1")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: enumeration cost 205078125 exceeds "
                   "budget 100000000 (count_roots k=1)\n")
    assert max(degrees, default=0) <= 1
    assert wall < 1.0


def test_faltings_listing_refused_though_x1_is_fixed(tmp_path, capsys,
                                                     monkeypatch):
    # x_1 = 1 leaves one node at x_1 and the count only 2^11 tuples, but
    # the listing's 2^28 values of x_1 are over the default budget
    eqs, prof = ["x1 + 1", "x2 + x1"], [4, 7]
    code, out, err, _, _ = _faltings_on(tmp_path, capsys, monkeypatch,
                                        eqs, prof, "--k-max", "1")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: enumeration cost 268435456 exceeds "
                   "budget 100000000 (enumerate_orbit_points k=1)\n")
    code, out, err, _, _ = _faltings_on(tmp_path, capsys, monkeypatch,
                                        eqs, prof, "--k-max", "1",
                                        "--budget", "268435456")
    assert code == 0 and err == ""
    assert json.loads(out)["outputs"]["lemma"]["passed"] is True


# ROADMAP item 3's witnesses, (p, s, equations, profile, --k-max): each
# listing closes its last variable nonlinearly, so every node scans that
# variable's field
FALTINGS_WITNESSES = [
    (3, 1, ["x1^2*x2^2 + x1*x2 + x2^3 + 2"], [3, 4], 1),
    (3, 1, ["x2^3", "x1 + x1^4*x2^4 + x1"], [3, 2], 2),
    (2, 1, ["x3^3 + x2^3"], [1, 2, 3], 2),
    (3, 2, ["x1^2*x1^2 + x1^2 + x2^2 + 1"], [1, 2], 2),
    (5, 1, ["3*x1^4*x2^2*x3 + 3*x2^2*x3^2 + 2*x1*x2^4*x3"], [2, 3, 1], 1),
]


@pytest.mark.parametrize("p, s, equations, profile, k_max",
                         FALTINGS_WITNESSES)
def test_faltings_scan_refused_by_its_candidates(tmp_path, capsys, p, s,
                                                 equations, profile, k_max):
    # the search charges each scanned candidate, so a budget of 10^6 stops
    # the listing after 10^6 of them, within seconds; the count at the same
    # level passes
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"kind": "variety", "p": p, "s": s,
                             "n": len(profile), "equations": equations,
                             "profile": profile}))
    budget = ["--budget", "1000000"]
    code, _, _ = run(capsys, "count", str(f), "-k", str(k_max), *budget)
    assert code == 0
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-m", "parzeta.cli", "faltings",
                           str(f), "--k-max", str(k_max), *budget],
                          capture_output=True, text=True, env=env,
                          timeout=10)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("budget exceeded: enumeration cost 1000001 "
                           "exceeds budget 1000000 (variety enumeration)\n")


def test_consumed_is_an_int_within_the_limit_in_every_golden():
    # budget.consumed reads the work meter in all six subcommands: the most
    # work one enumeration did, which its budget bounds
    subs = set()
    for path in sorted(GOLDEN.glob("*/*.json")):
        report = json.loads(path.read_text())["stdout"]
        if isinstance(report, dict):
            budget = report["budget"]
            assert type(budget["consumed"]) is int, path
            assert 0 <= budget["consumed"] <= budget["limit"], path
            subs.add(report["command"])
    assert len(subs) == 6


def _fail_root_finding(R, q, tol):
    from parzeta.zeta import RootFindingError
    raise RootFindingError("root refinement did not converge")


def _fail_weights(R, q, tol):
    from parzeta.zeta import WeightReport
    return WeightReport(q, tol, (), False)


# the subcommands that certify a zeta function, each with an instance it
# accepts (and sweep's profiles); all of them reach the weight check
# through zeta.certify alone, so one patch point serves them all
CERTIFYING = {"zeta": ["diag11_f2"], "graph": ["g_selfloop_square"],
              "sweep": ["diag11_f2", "1,1", "1,2"]}


def _certifying(capsys, monkeypatch, sub, weight_check):
    import parzeta.zeta as zeta

    monkeypatch.setattr(zeta, "weil_weight_check", weight_check)
    name, *profiles = CERTIFYING[sub]
    return run_json(capsys, sub, str(CORPUS / f"{name}.json"), *profiles)


@pytest.mark.parametrize("sub", CERTIFYING)
def test_root_finding_failure_exit_4(capsys, monkeypatch, sub):
    code, rep = _certifying(capsys, monkeypatch, sub, _fail_root_finding)
    assert code == 4
    out = rep["outputs"]
    if sub == "zeta":
        assert out["status"] == "root-finding-failed"
        assert out["B_used"] == 4 and "weights" not in out
        # x1 + x2's bound level is summed, so each count's search charges
        # its root alone
        assert rep["budget"]["consumed"] == 1
    elif sub == "graph":
        # the counts are written whatever the certificate holds
        assert out["status"] == "root-finding-failed"
        assert out["B_used"] == 5 and "weights" not in out
        assert out["direct_counts"] == out["reduced_counts"] == [2, 2, 2]
        assert out["counts_agree"] is True
    else:
        rows = out["rows"]
        assert [r["status"] for r in rows] == ["root-finding-failed"] * 2
        assert [r["weights"] for r in rows] == ["", ""]


@pytest.mark.parametrize("sub", CERTIFYING)
def test_failed_weight_check_exit_5(capsys, monkeypatch, sub):
    code, rep = _certifying(capsys, monkeypatch, sub, _fail_weights)
    assert code == 5
    out = rep["outputs"]
    if sub == "zeta":
        assert out["status"] == "weights-failed"
        assert out["weights"]["passed"] is False
        assert out["zeta"]["denominator"] == [1, -2]
    elif sub == "graph":
        assert out["counts_agree"] is True
        assert out["weights"]["passed"] is False
        assert out["zeta"]["denominator"] == [1, -2, 1]
    else:
        assert [r["status"] for r in out["rows"]] == ["weights-failed"] * 2


def test_every_certificate_status_has_an_exit_code(monkeypatch):
    import parzeta.zeta as zeta
    from parzeta.cli import EXIT_CODES

    X = _loaded("diag11_f2", "variety")
    statuses = {zeta.certify(X, 10).status,
                zeta.certify(X, 10, budget=100).status,
                zeta.certify(X, 4, holdout=4).status}
    for weight_check in (_fail_weights, _fail_root_finding):
        monkeypatch.setattr(zeta, "weil_weight_check", weight_check)
        statuses.add(zeta.certify(X, 10).status)
    assert statuses == set(EXIT_CODES) == {
        "ok", "weights-failed", "root-finding-failed", "budget-exceeded",
        "no-acceptance"}


def test_sweep_failed_weight_check_exit_5(capsys, monkeypatch):
    import parzeta.zeta as zeta

    monkeypatch.setattr(zeta, "weil_weight_check", _fail_weights)
    code, rep = run_json(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                         "1,1", "1,2")
    assert code == 5
    assert [r["status"] for r in rep["outputs"]["rows"]] == \
        ["weights-failed"] * 2
    # a failed weight check outranks a row that did not converge
    code, rep = run_json(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                         "1,1", "20000,1", "--budget", "1000")
    assert code == 5
    assert [r["status"] for r in rep["outputs"]["rows"]] == \
        ["weights-failed", "budget-exceeded"]


@pytest.mark.parametrize("argv", [
    ("zeta", "diag11_f2", "--tol", "nan"),
    ("zeta", "diag11_f2", "--tol", "inf"),
    ("zeta", "diag11_f2", "--tol", "-1"),
    ("zeta", "diag11_f2", "--tol", "0"),
    ("zeta", "diag11_f2", "--holdout", "0"),
    ("zeta", "diag11_f2", "--max-k", "0"),
    ("count", "diag11_f2", "-k", "-2"),
    ("count", "diag11_f2", "--budget", "-5"),
    ("count", "diag11_f2", "-k", "x"),
    ("faltings", "diag11_f2", "--k-max", "0"),
    ("graph", "g_selfloop_square", "--k-max", "0"),
    ("graph", "g_selfloop_square", "--tol", "nan"),
    ("as", "as_cubic_f2_d1", "--e-max", "0"),
    ("sweep", "diag11_f2", "1,1", "--holdout", "0"),
], ids=" ".join)
def test_numeric_flags_rejected_exit_2(capsys, argv):
    sub, name, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([sub, str(CORPUS / f"{name}.json"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[-2]}" in err and "invalid positive" in err


def _loaded(name, kind):
    return load_instance(str(CORPUS / f"{name}.json"), kind)[0]


@pytest.mark.parametrize("check", [
    lambda: lemma_check(_loaded("diag11_f2", "variety"), 0),
    lambda: reduction_check(_loaded("g_selfloop_square", "graph"), 0),
    lambda: bound_check(_loaded("as_xy_f2", "artin-schreier"), e_max=0),
    lambda: singular_search(_loaded("as_xy_f2", "artin-schreier")
                            .f.leading_form()[0], 0),
], ids=["lemma_check", "reduction_check", "bound_check", "singular_search"])
def test_library_checks_refuse_an_empty_range(check):
    # the library twin of the flags above: a check over k (or e) in 1..0
    # checks nothing, so it must not report a pass
    with pytest.raises(ValueError, match="must be positive"):
        check()


@pytest.mark.parametrize("argv", [
    ("count", "diag11_f2"),
    ("zeta", "diag11_f2"),
    ("faltings", "diag11_f2"),
    ("graph", "g_selfloop_square"),
    ("as", "as_cubic_f2_d1"),
    ("sweep", "diag11_f2", "1,1"),
], ids=lambda argv: argv[0])
def test_workers_flag_is_gone_exit_2(capsys, argv):
    sub, name, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([sub, str(CORPUS / f"{name}.json"), *rest, "--workers", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --workers 2" in out.err


def test_timings_hold_only_the_wall_time(capsys):
    code, rep = run_json(capsys, "count", str(CORPUS / "diag11_f2.json"))
    assert code == 0
    assert list(rep["timings"]) == ["wall_time_s"]


def test_sweep_csv_is_deterministic(capsys):
    argv = ("sweep", str(CORPUS / "diag11_f2.json"), "1,1", "1,2", "2,3")
    first = run(capsys, *argv, "--format", "csv")
    second = run(capsys, *argv, "--format", "csv")
    assert first == second
    _, rep = run_json(capsys, *argv)
    header = first[1].splitlines()[0]
    assert header.split(",") == rep["outputs"]["columns"]


def _json_text(value):
    return value if isinstance(value, str) else json.dumps(value)


def _leaves(prefix, value):
    """(dotted path, text) of a JSON report's leaves: a list of scalars is
    one leaf, its items' texts space-joined, and a list that holds an
    object or a list gives one per index.  A string's text is itself, any
    other scalar's is its JSON."""
    if isinstance(value, list) and any(isinstance(v, (dict, list))
                                       for v in value):
        value = dict(enumerate(value))
    if isinstance(value, list):
        return [(prefix, " ".join(map(_json_text, value)))]
    if not isinstance(value, dict):
        return [(prefix, _json_text(value))]
    return [leaf for k, v in value.items()
            for leaf in _leaves(f"{prefix}.{k}" if prefix else str(k), v)]


# every csv and table golden case but sweep's csv, which prints its rows
FORMATS = sorted(key for key, argv in CASES.items() if "--format" in argv
                 and argv[:1] + argv[-1:] != ["sweep", "csv"])


@pytest.mark.parametrize("sub,case", FORMATS,
                         ids=["/".join(k) for k in FORMATS])
def test_csv_and_table_carry_the_json_reports_fields(capsys, sub, case):
    argv = CASES[sub, case]
    i = argv.index("--format")
    _, rep = run_json(capsys, *argv[:i], *argv[i + 2:])
    _, out, _ = run(capsys, *argv)
    if argv[i + 1] == "csv":
        rows = list(csv.reader(io.StringIO(out, newline="")))[1:]
    else:
        rows = [(key, value.lstrip(" ")) for key, _, value in
                (line.partition(" ") for line in out.splitlines())]
    del rep["timings"]
    rows = [(k, v) for k, v in rows if not k.startswith("timings.")]
    assert sorted(rows) == sorted(_leaves("", rep))


def test_field_error_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 4, "s": 1, "n": 1,
                               "equations": [], "profile": [1]}))
    code, out, err = run(capsys, "count", str(bad))
    assert code == 2 and out == ""
    assert err == "schema error: p = 4 is not prime\n"


def fresh_python(code):
    """The last stdout line of ``code`` run by this interpreter in a new
    process that imports the package from this checkout."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return run.stdout.splitlines()[-1]


@pytest.mark.skipif(not any(importlib.util.find_spec(m)
                            for m in ("_sha2", "_sha256")),
                    reason="this interpreter has no builtin SHA-256 module")
def test_a_cli_process_loads_no_openssl_hash():
    argv = ["count", str(CORPUS / "diag11_f2.json"), "-k", "3"]
    last = fresh_python(
        "import sys\n"
        "from parzeta.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, [m for m in ('_hashlib', 'hashlib') if m in sys.modules])")
    assert last == "0 []"


def non_ascii_instance(tmp_path):
    # a graph whose vertex is named in UTF-8 bytes past ASCII
    f = tmp_path / "vertex_u_umlaut.json"
    f.write_bytes(json.dumps({
        "kind": "graph", "p": 2, "s": 1, "edges": [],
        "vertices": [{"name": "\u00fc\u221a", "n": 1, "equations": [],
                      "d": 1}]}, ensure_ascii=False).encode())
    assert max(f.read_bytes()) > 127
    return f


def test_input_digest_is_the_sha256_of_the_files_bytes(tmp_path):
    files = sorted(CORPUS.glob("*.json")) + [non_ascii_instance(tmp_path)]
    for f in files:
        raw = f.read_bytes()
        _, digest, _ = load_instance(str(f), json.loads(raw)["kind"])
        assert digest == hashlib.sha256(raw).hexdigest(), f.name


def test_the_hashlib_fallback_gives_the_same_digest(tmp_path):
    # both builtin modules blocked: cli falls back to hashlib
    f = non_ascii_instance(tmp_path)
    last = fresh_python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from parzeta.cli import load_instance\n"
        f"print('hashlib' in sys.modules, load_instance({str(f)!r}, "
        "'graph')[1])")
    assert last == f"True {hashlib.sha256(f.read_bytes()).hexdigest()}"
