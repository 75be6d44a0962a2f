import time

import pytest

from parzeta import artin_schreier, counting, faltings
from parzeta.artin_schreier import (ASInstance, as_count_brute, as_count_trace,
                                    singular_search)
from parzeta.counting import BudgetExceededError, partial_count
from parzeta.faltings import lemma_check
from parzeta.polys import (MorphismSpec, SparsePoly, VarietySpec, base_field,
                           parse_poly)
from test_engine import oracle_count

F2 = base_field(2, 1)
F3 = base_field(3, 1)


def V(p, s, n, texts, profile, base=None):
    base = base or base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


DIAG = V(2, 1, 2, ["x1 + x2"], (1, 1))


def test_diagonal_counts():
    assert [partial_count(DIAG, k) for k in (1, 2, 3)] == [2, 4, 8]


def test_diagonal_mixed_profile():
    # x1 = x2 with x1 in F_{2^k}, x2 in F_{2^{2k}} forces both into F_{2^k}
    X = DIAG.with_profile((1, 2))
    assert [partial_count(X, k) for k in (1, 2, 3)] == [2, 4, 8]


def test_diagonal_profile_23():
    # intersection F_{4^k} with F_{8^k} is F_{2^k}
    X = DIAG.with_profile((2, 3))
    assert [partial_count(X, k) for k in (1, 2)] == [2, 4]


def test_hyperbola_counts():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    for k in (1, 2, 3, 4):
        assert partial_count(X, k) == 2 ** k - 1


def test_free_variety():
    X = V(2, 1, 1, [], (3,))
    assert partial_count(X, 1) == 8
    assert partial_count(X, 2) == 64


def test_empty_variety():
    X = V(2, 1, 2, ["1"], (1, 1))
    assert partial_count(X, 5) == 0


@pytest.mark.parametrize("p, texts, profile, plan", [
    (2, ["1", "x1"], (1, 1), None),  # a nonzero constant equation
    (2, [], (1, 1), ((), ())),       # no variable used
    # x3 is counted by its linear roots, and x2 placed just before it,
    # where x1^2 + x2 closes linearly
    (2, ["x3 + x1^3 + 1", "x1^2 + x2"], (1, 1, 1), ((0, 1, 2), (1,))),
    # every equation uses x3, the largest domain, which is counted; the
    # others are placed smallest domain last, so x2's orbits come first
    (3, ["x1*x2^2 + 2*x1^2*x3 + x3",
         "x2^2*x3 + 2*x1*x2^2 + 2*x1^2*x3 + x3^3"], (1, 2, 3),
     ((1, 0, 2), (1, 3))),
    # every equation is linear in x2, which is counted and its last bound
    # level summed; that level, the place filled first, takes x3, the
    # higher index of two equal domains
    (2, ["1 + x1*x2*x3 + x1 + x1^3", "x1*x2 + x3^2 + 1"], (1, 1, 1),
     ((0, 2, 1), (1,))),
    # x2 and x3 are both summable: x3 is counted, the higher index, and
    # x2, the higher index left, is the summed level
    (3, ["x1^2*x3 + x1^2*x2"], (1, 1, 1), ((0, 1, 2), (1,))),
    # x1^3 has effective degree 1 over F_3 (a cube), x2 degree 3
    (3, ["x1^3 + 2*x2^3 + x2^2 + 2*x2"], (1, 1), ((1, 0), (3,))),
    # x2^4096 has effective degree 1, x1^3 degree 3, but x2's leaf builds
    # 4097 coefficients: x1's costs less, 3^2 + 3 against 1 + 4096
    (2, ["x2^4096 + x1^3 + 1"], (13, 13), ((1, 0), (3,))),
], ids=["constant", "empty", "p2-111", "p3-123", "summable-p2-111",
        "summable-tie-p3-111", "cube-p3-11", "long-leaf-p2-13-13"])
def test_count_plan(p, texts, profile, plan):
    assert counting._count_plan(V(p, 1, len(profile), texts, profile)) == plan


def test_refusal_of_a_price_too_long_to_print_prints():
    # x1^E + 1 at (14000): the leaf's price E^2 * 14001 has 8005 digits,
    # past the int-to-str limit; the error keeps it exact and shows it by
    # its bit length, whatever that limit is
    E = 10 ** 4000 + 1
    X = VarietySpec(2, 1, 1, (SparsePoly(1, base_field(2, 1),
                                         {(E,): 1, (0,): 1}),), (14000,))
    with pytest.raises(BudgetExceededError) as exc:
        counting.partial_count_check(X, 1, 10 ** 4290)
    assert exc.value.cost == E * E * 14001
    shown = f"at least 2^{(E * E * 14001).bit_length() - 1}"
    assert str(exc.value).startswith(f"enumeration cost {shown} exceeds")
    assert str(exc.value).endswith(" (count_roots k=1)")


def test_constant_equation_builds_no_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("field built for a nonzero constant equation")

    monkeypatch.setattr(counting, "field", refuse)
    assert partial_count(V(2, 1, 2, ["1", "x1"], (1, 1)), 3) == 0


def test_count_plan_worked_out_once_per_variety():
    X = V(2, 1, 2, ["x2 + x1^3"], (1, 2))
    counting._count_plan.cache_clear()
    for k in range(1, 7):
        partial_count(X, k)
    assert counting._count_plan.cache_info().misses == 1


def test_matches_classical_on_trivial_profile():
    X = V(3, 1, 2, ["x2 - x1^2"], (1, 1))
    for k in (1, 2):
        assert partial_count(X, k) == oracle_count(X, k)


def test_point_over_f4():
    X = V(2, 2, 1, ["x1 + g"], (1,))
    assert [partial_count(X, k) for k in (1, 2)] == [1, 1]


def test_budget_enforced():
    X = V(2, 1, 2, [], (1, 1))
    with pytest.raises(BudgetExceededError):
        partial_count(X, 4, budget=100)


def _as_inst(p, s, nprime, d=1):
    # f = x1 with n = 1: the brute count enumerates q^(2d + n') tuples,
    # the trace count q^(d + n')
    f = SparsePoly.var(1 + nprime, base_field(p, s), 0)
    return ASInstance(p, s, 1, nprime, d, f)


def _x1_squared(n, base):
    x1 = SparsePoly.var(n, base, 0)
    return x1 * x1


def _listing_run(p, s, e, budget):
    # x2 at profile (e, 1) with f_i the coordinates: no partial count is
    # checked, and the listing binds x_1 over all q^e values of F_(q^e)
    X = V(p, s, 2, ["x2"], (e, 1))
    projections = tuple(MorphismSpec(2, 1, (SparsePoly.var(2, X.base, i),))
                        for i in range(2))
    return lemma_check(X, 1, projections, budget=budget)


@pytest.mark.parametrize("d", [20000, 10 ** 12])
def test_budget_refusal_from_the_exponent(d):
    # 2^e has too many digits to print, or to build at all: each count
    # refuses within a second and names it as a power
    runs = [
        (lambda: partial_count(V(2, 1, 2, ["x1 + x2"], (d, 1)), 1,
                               budget=1000), d + 1, "partial_count k=1"),
        (lambda: _listing_run(2, 1, d, 1000), d,
         "enumerate_orbit_points k=1"),
        (lambda: as_count_brute(_as_inst(2, 1, 1, d), budget=1000),
         2 * d + 1, "as_count_brute"),
        (lambda: as_count_trace(_as_inst(2, 1, 1, d), budget=1000),
         d + 1, "as_count_trace"),
    ]
    for run, e, context in runs:
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            run()
        assert time.perf_counter() - t0 < 1.0, context
        assert exc.value.cost == (2, e)
        assert str(exc.value) == (f"enumeration cost 2^{e} exceeds budget "
                                  f"1000 ({context})")


# counter -> (the least exponent of q it can cost, a run at cost q^e)
BOUNDARY_RUNS = {
    "partial_count": (1, lambda p, s, e, budget: partial_count(
        V(p, s, 1, [], (1,)), e, budget=budget)),
    "lemma_check": (1, _listing_run),
    "as_count_brute": (3, lambda p, s, e, budget: as_count_brute(
        _as_inst(p, s, e - 2), budget=budget)),
    "as_count_trace": (2, lambda p, s, e, budget: as_count_trace(
        _as_inst(p, s, e - 1), budget=budget)),
    # degree 1 in e + 1 variables: e coordinates after the leading 1
    "singular_search": (1, lambda p, s, e, budget: singular_search(
        _x1_squared(e + 1, base_field(p, s)), 1, budget=budget)),
}


class FieldBuilt(Exception):
    """Raised in place of a field build: the count passed its budget check."""


@pytest.mark.parametrize("q, budget", [(2, 1), (2, 1023), (2, 1024),
                                       (3, 3 ** 40 - 1), (3, 3 ** 40),
                                       (4, 10 ** 8), (9, 10 ** 300)])
def test_budget_exponent_boundary(monkeypatch, q, budget):
    # for each count, the largest e with q^e <= budget passes the shared
    # check, and every larger exponent is refused with cost q^e.
    # partial_count counts the free variety outright; the other counts
    # enumerate all q^e tuples (the lemma's listing, all q^e values of x_1),
    # so they are stopped where they would build their field
    def built(*args):
        raise FieldBuilt

    monkeypatch.setattr(counting, "field", built)
    monkeypatch.setattr(artin_schreier, "field", built)
    monkeypatch.setattr(faltings, "field", built)
    p, s = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q]
    e = 0
    while q ** (e + 1) <= budget:
        e += 1
    for counter, (low, run) in BOUNDARY_RUNS.items():
        if e >= low and counter == "partial_count":
            assert run(p, s, e, budget) == q ** e
        elif e >= low:
            with pytest.raises(FieldBuilt):
                run(p, s, e, budget)
        over = max(e + 1, low)
        with pytest.raises(BudgetExceededError) as exc:
            run(p, s, over, budget)
        assert exc.value.cost == q ** over, counter


def test_invalid_k():
    with pytest.raises(ValueError):
        partial_count(DIAG, 0)


def test_budget_checked_before_subfields(monkeypatch):
    # mu3_profile6_f2 at k = 3 would span a 2^18-element subfield
    from pathlib import Path

    from parzeta.cli import load_instance
    from parzeta.fields import Field

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    X, _, _ = load_instance(str(corpus / "mu3_profile6_f2.json"), "variety")

    def refuse(self, e, method="span"):
        raise AssertionError("subfield materialised before the budget check")

    monkeypatch.setattr(Field, "subfield", refuse)
    with pytest.raises(BudgetExceededError) as exc:
        partial_count(X, 3, budget=10)
    assert exc.value.cost == 2 ** (3 * sum(X.profile))
