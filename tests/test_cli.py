import json
import sys
import time
from pathlib import Path

import pytest

from parzeta import artin_schreier, fields
from parzeta.artin_schreier import bound_check, singular_search
from parzeta.cli import load_instance, main
from parzeta.faltings import lemma_check
from parzeta.graphs import reduction_check

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
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
    # x^Q mod a gcd of degree 10^5, Q = 2^20: 10^10 * 21 products
    (2, "x1^100000 + 1", [20], 10 ** 8,
     "enumeration cost 210000000000 exceeds budget 100000000 "
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
    # x^Q mod a degree-10^5 gcd, Q = 2^20, is refused by the partial
    # count's check, before the listing builds F_(2^20) and walks it
    code, out, err, degrees, wall = _faltings_on(
        tmp_path, capsys, monkeypatch, ["x1^100000 + 1"], [20],
        "--k-max", "1")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: enumeration cost 210000000000 exceeds "
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


def test_zeta_root_finding_failure_exit_4(capsys, monkeypatch):
    import parzeta.cli as cli
    from parzeta.zeta import RootFindingError

    def fail(*args, **kwargs):
        raise RootFindingError("root refinement did not converge")

    monkeypatch.setattr(cli, "weil_weight_check", fail)
    code, rep = run_json(capsys, "zeta", str(CORPUS / "diag11_f2.json"))
    assert code == 4
    assert rep["outputs"]["status"] == "root-finding-failed"


def _fail_root_finding(*args, **kwargs):
    from parzeta.zeta import RootFindingError
    raise RootFindingError("root refinement did not converge")


def test_graph_root_finding_failure_exit_4(capsys, monkeypatch):
    import parzeta.graphs as graphs

    monkeypatch.setattr(graphs, "weil_weight_check", _fail_root_finding)
    code, rep = run_json(capsys, "graph",
                         str(CORPUS / "g_selfloop_square.json"))
    assert code == 4
    assert rep["outputs"] == {"status": "root-finding-failed"}


def test_sweep_root_finding_failure_is_a_row(capsys, monkeypatch):
    import parzeta.zeta as zeta

    monkeypatch.setattr(zeta, "weil_weight_check", _fail_root_finding)
    code, rep = run_json(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                         "1,1", "1,2")
    assert code == 4
    rows = rep["outputs"]["rows"]
    assert [r["status"] for r in rows] == ["root-finding-failed"] * 2
    assert [r["weights"] for r in rows] == ["", ""]


def _fail_weights(R, q, tol):
    from parzeta.zeta import WeightReport
    return WeightReport(q, tol, (), False)


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


def test_field_error_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 4, "s": 1, "n": 1,
                               "equations": [], "profile": [1]}))
    code, out, err = run(capsys, "count", str(bad))
    assert code == 2 and out == ""
    assert err == "schema error: p = 4 is not prime\n"
