import json
import time
from pathlib import Path

import pytest

from parzeta.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


def test_bad_polynomial_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 1,
                               "equations": ["x9 + 1"], "profile": [1]}))
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2


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


def test_reports_deterministic_across_workers(capsys):
    def report(workers):
        code, rep = run_json(capsys, "zeta", str(CORPUS / "diag12_f2.json"),
                             "--workers", workers)
        assert code == 0
        del rep["timings"]
        return json.dumps(rep, sort_keys=True)

    assert report("1") == report("4")


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
    code, out, err = run(capsys, "count", str(f), "--budget", "1000")
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


def test_zeta_root_finding_failure_keeps_workers(capsys, monkeypatch):
    import parzeta.cli as cli
    from parzeta.zeta import RootFindingError

    def fail(*args, **kwargs):
        raise RootFindingError("root refinement did not converge", [1])

    monkeypatch.setattr(cli, "weil_weight_check", fail)
    code, rep = run_json(capsys, "zeta", str(CORPUS / "diag11_f2.json"),
                         "--workers", "2")
    assert code == 4
    assert rep["outputs"]["status"] == "root-finding-failed"
    assert rep["timings"]["workers"] == 2


def _fail_root_finding(*args, **kwargs):
    from parzeta.zeta import RootFindingError
    raise RootFindingError("root refinement did not converge", [1])


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


@pytest.mark.parametrize("argv", [
    ("zeta", "diag11_f2", "--tol", "nan"),
    ("zeta", "diag11_f2", "--tol", "inf"),
    ("zeta", "diag11_f2", "--tol", "-1"),
    ("zeta", "diag11_f2", "--tol", "0"),
    ("zeta", "diag11_f2", "--holdout", "0"),
    ("zeta", "diag11_f2", "--max-k", "0"),
    ("count", "diag11_f2", "-k", "-2"),
    ("count", "diag11_f2", "--budget", "-5"),
    ("count", "diag11_f2", "--workers", "0"),
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


@pytest.mark.parametrize("sub,name", [("faltings", "diag11_f2"),
                                      ("graph", "g_selfloop_square"),
                                      ("as", "as_cubic_f2_d1")])
def test_workers_recorded_for_every_subcommand(capsys, sub, name):
    code, rep = run_json(capsys, sub, str(CORPUS / f"{name}.json"),
                         "--workers", "3")
    assert code == 0
    assert rep["timings"]["workers"] == 3


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
