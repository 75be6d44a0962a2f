import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time

import pytest

from parzeta import artin_schreier, fields
from parzeta.artin_schreier import bound_check, singular_search
from parzeta.cli import load_instance, main
from parzeta.faltings import lemma_check
from parzeta.graphs import reduction_check
import witnesses
from witnesses import CASES, CORPUS, GOLDEN, INT_DIGITS, as_with_exponent

SRC = CORPUS.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def _witness_test(members):
    """The tier-1 test of `members`, the (parameter id, entry) pairs of the
    witnesses that share a test name: each run in process through
    `cli.main`, its wall time checked once it returns."""
    def run_witness(tmp_path, witness):
        faults = witnesses.check(witness,
                                 witnesses.run_in_process(witness, tmp_path))
        assert not faults, "\n".join(faults)

    ids = [param for param, _ in members]
    if ids == [None]:
        return lambda tmp_path: run_witness(tmp_path, members[0][1])
    assert None not in ids, "an entry without a parameter id shares its test"
    return pytest.mark.parametrize("witness", [w for _, w in members],
                                   ids=ids)(run_witness)


def _witness_tests():
    """test_<name> for each witness, its `[...]` suffix the parameter id."""
    groups = {}
    for w in witnesses.WITNESSES:
        test, _, param = w.name.partition("[")
        groups.setdefault(f"test_{test}", []).append(
            (param.removesuffix("]") or None, w))
    return {name: _witness_test(members) for name, members in groups.items()}


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", str(CORPUS / "diag11_f2.json"),
                       "1,1", "1,2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("profile,lcm,B_used")
    assert len(lines) == 3


def test_table_format(capsys):
    code, out, _ = run(capsys, "count", str(CORPUS / "diag11_f2.json"),
                       "--format", "table")
    assert code == 0
    assert "outputs.counts" in out


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


@pytest.mark.skipif(not INT_DIGITS, reason="no int-to-str limit")
def test_as_bound_too_long_to_print_is_a_schema_error(tmp_path, capsys,
                                                      monkeypatch):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(as_with_exponent(2500)))

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
    f.write_text(json.dumps({**as_with_exponent(2500), "d": 20000}))
    code, out, err = run(capsys, "as", str(f))
    assert code == 3 and out == ""
    assert err.endswith("(as_count_brute)\n")


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


# after every hand-written test, so that no witness hides one of them
for _name, _test in _witness_tests().items():
    assert _name not in globals(), f"{_name} is also a hand-written test"
    globals()[_name] = _test
