"""The pruned counting engine against plain enumeration.

``partial_count`` skips free variables, binds the first enumerated
variable to one value per Frobenius orbit and counts the last variable's
values as a gcd degree; these tests hold it to a plain product over
Frobenius-filtered subfields with ``SparsePoly.evaluate``, hold
``count_roots`` to a scan of the subfield it counts in, computed with
``test_packed_fields``' dense schoolbook reference, or, where F_{q^e}
lies outside its field, as it does for ``partial_count``'s counted
variable, to a scan of F_{q^e} itself, and its linear,
descent and quadratic routes to the gcd with x^Q - x by x^Q mod g, and
hold ``join`` to a filter over the product of its blocks.  Both listings
are held to a filter over the product of their domains, and their
budgets to the node count of the search over every value of x_1:
``enumerate_points``, the plain search, over any subfields, with some
variables pinned by equations, and ``enumerate_orbit_points``, which
lists one value of x_1 per Frobenius orbit of the whole field, with the
conjugates added, over the whole field.  The direct graph count and the
singular-point search, built on the plain listing, are held to walk no
Frobenius orbit.  The field's memoised orbit walk is held to a fresh
walk, and a second count, lemma check or refused-then-completed listing
over the same field to walk no orbit twice.
"""

import json
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parzeta import counting, fields
from parzeta.artin_schreier import singular_search
from parzeta.cli import load_instance
from parzeta.counting import (BudgetExceededError, _count_plan, _search,
                               count_roots, enumerate_orbit_points,
                               enumerate_points, join, partial_count)
from parzeta.faltings import lemma_check
from parzeta.fields import Field, _gcd, _monic, _trim, field
from parzeta.graphs import fibred_product_reduce, graph_count_direct
from parzeta.polys import SparsePoly, VarietySpec, base_field, parse_poly

from test_packed_fields import ref_add, ref_mul, ref_neg, ref_one

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def oracle_count(X, k):
    """Every tuple of the subfield product, each equation evaluated."""
    amb = field(X.p, X.s, X.D * k)
    domains = [amb.subfield(d * k, method="filter") for d in X.profile]
    return sum(1 for pt in product(*domains)
               if not any(eq.evaluate(pt, amb) for eq in X.equations))


# (p, s, profile, k) with at most 2^10 tuples and an ambient field of at
# most 2^12 elements, so the oracle stays quick
CASES = [(p, s, prof, k)
         for p in (2, 3) for s in (1, 2) for n in (1, 2, 3)
         for prof in product((1, 2, 3), repeat=n) for k in (1, 2)
         if (p ** s) ** (k * sum(prof)) <= 2 ** 10
         and (p ** s) ** (k * lcm(*prof)) <= 2 ** 12]


@st.composite
def varieties(draw, cases=CASES):
    """(X, k) with (p, s, profile, k) from ``cases`` and up to two random
    equations."""
    p, s, profile, k = draw(st.sampled_from(cases))
    n = len(profile)
    base = base_field(p, s)
    equations = []
    for _ in range(draw(st.integers(0, 2))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[exps] = draw(st.integers(1, p ** s - 1))
        equations.append(SparsePoly(n, base, terms))
    return VarietySpec(p, s, n, tuple(equations), profile), k


@settings(max_examples=120, deadline=None)
@given(varieties())
def test_engine_matches_product_oracle(case):
    X, k = case
    assert partial_count(X, k) == oracle_count(X, k)


@settings(max_examples=60, deadline=None)
@given(varieties(), st.integers(1, 3))
def test_exponents_shifted_by_the_field_order_count_the_same(case, j):
    # x^e and x^(e + j (Q - 1)), Q = q^(Dk), agree on F_Q, which holds
    # every value the count binds or counts
    X, k = case
    shift = j * ((X.p ** X.s) ** (X.D * k) - 1)
    shifted = tuple(
        SparsePoly(X.n, X.base, {tuple(e and e + shift for e in exps): c
                                 for exps, c in eq.terms.items()})
        for eq in X.equations)
    Xs = VarietySpec(X.p, X.s, X.n, shifted, X.profile)
    assert partial_count(Xs, k) == partial_count(X, k)


def V(p, s, n, texts, profile):
    base = base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


@pytest.mark.parametrize("X", [
    # x1 = 0 makes the last variable's polynomial vanish
    V(2, 1, 2, ["x1*x2^2 + x1"], (1, 2)),
    V(3, 1, 2, ["x1*x2^2 + x1"], (2, 1)),
    # x2 and x3 are free
    V(2, 1, 3, ["x1^3 + x1"], (1, 2, 1)),
    V(3, 1, 3, ["x2^2 + 1"], (1, 1, 2)),
    # constant equations: zero is vacuous, a nonzero one empties X
    V(2, 1, 2, ["x1 - x1", "x1 + x2"], (1, 2)),
    V(2, 1, 2, ["x1 + x2", "1"], (1, 1)),
    V(2, 2, 2, ["g"], (1, 1)),
    # roots outside the last variable's subfield: x2 = x1 lies in F_{8^k}
    # only when x1 lies in F_{2^k}, and x2^3 - x2 = x1 has its roots in
    # x2's F_{9^k} for some x1 only
    V(2, 1, 2, ["x1 + x2"], (2, 3)),
    V(3, 1, 2, ["x2^3 - x2 - x1"], (1, 2)),
    # two equations in the last variable: common roots only
    V(2, 1, 2, ["x2^2 + x2", "x1*x2 + x2"], (1, 3)),
    V(2, 2, 2, ["x1*x2^2 + g*x2 + x1", "x2^3 + x1"], (1, 1)),
    # tied domains: the counted variable is the one of least degree, x2
    # and not x3, x1 and not x3, x1 and not x2
    V(2, 1, 3, ["x2 + x2*x3^2 + x3^3"], (1, 1, 1)),
    V(2, 1, 3, ["x2^2*x3 + 1 + x3^2 + x1*x3^2"], (1, 1, 1)),
    V(3, 1, 2, ["x1^2 + 2*x2^3 + x1"], (1, 1)),
])
@pytest.mark.parametrize("k", [1, 2])
def test_engine_special_shapes(X, k):
    assert partial_count(X, k) == oracle_count(X, k)


# ---------------------------------------------------------------------------
# one value per Frobenius orbit of the first enumerated variable
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("X, k", [
    # x1 runs over F_8, in orbits of length 3; x2 in F_64 is counted
    (V(2, 1, 2, ["x1^2*x2 + x2^3 + x1 + 1"], (1, 2)), 3),
    # over F_4 sigma is x -> x^4, so F_16 splits into orbits of length 2
    (V(2, 2, 2, ["x1^2*x2 + g*x2^2 + x1 + 1"], (1, 1)), 2),
    # x3 in F_16 is bound first, ahead of x1 in F_4; x2 in F_64 is counted
    (V(2, 1, 3, ["x1*x2 + x3^2*x2^2 + x3", "x1^3 + x3^5 + x2"], (1, 3, 2)), 2),
    (V(3, 1, 2, ["x1^2*x2 - x2^3 + x1"], (2, 1)), 2),
    # linear in the first variable alone: its root g^2 lies in F_4, a
    # sigma-orbit of its own
    (V(2, 2, 2, ["g*x1 + 1", "x1*x2^3 + x2 + g"], (1, 1)), 2),
])
def test_engine_orbit_cases(X, k):
    assert partial_count(X, k) == oracle_count(X, k)


def _count_roots_calls(monkeypatch):
    calls = []
    counted = counting.count_roots

    def spy(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(counting, "count_roots", spy)
    return calls


def test_one_root_count_per_frobenius_orbit(monkeypatch):
    # the equation closes at x2, so every value of x1 reaches a leaf
    X = V(2, 2, 2, ["x1*x2^2 + x2 + 1"], (2, 3))
    amb = field(2, 2, 6)
    domain = amb.subfield(2, method="filter")
    orbits = {frozenset(amb.pow(x, 4 ** j) for j in range(2)) for x in domain}
    calls = _count_roots_calls(monkeypatch)
    assert partial_count(X, 1) == oracle_count(X, 1)
    assert len(calls) == len(orbits) == 10
    assert len(domain) == 16


def test_a_linearly_closing_variable_is_solved_not_counted(monkeypatch):
    # x3 (x1^2 + 1) closes linearly in x3, so x3 is bound after x1 and
    # solved, and x2 is counted.  x1 runs over F_8 in 4 orbits: 0, 1 and
    # two of length 3.  Where x1^2 + 1 != 0 only x3 = 0 passes: one leaf
    # each, 1 + 2.  At x1 = 1 the equation vanishes, and the leaf
    # x3 x2 + 1 is linear in x2: its level is summed by root counts, one
    # of A = x3 (B = 1 is a nonzero constant and takes none), where a scan
    # would reach 8 leaves.  Counting x3 would reach 4 * 8.
    X = V(2, 1, 3, ["x1^2*x3 + x3", "x1^2*x2 + x1*x2*x3 + x1*x2 + 1"],
          (1, 1, 1))
    want = oracle_count(X, 3)
    calls = _count_roots_calls(monkeypatch)
    assert partial_count(X, 3) == want
    assert len(calls) == 1 + 1 + 2


# ---------------------------------------------------------------------------
# the point listings: every value of x_1, or one per Frobenius orbit
# ---------------------------------------------------------------------------

# (p, s, N): ambient fields F_{q^N} of at most 81 elements
LISTING_FIELDS = [(2, 1, N) for N in range(1, 7)] + [
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 1, 1), (3, 1, 2), (3, 1, 3),
    (3, 1, 4), (3, 2, 1), (3, 2, 2)]


@st.composite
def listing_problems(draw):
    """Equations over F_q, an ambient F_{q^N}, a degree per variable and
    the domains of the product oracle: the variables' subfields, with
    some pinned to 0 or 1 as the singular point search pins them, by the
    equation x_i or x_i - 1 and the one-value domain (0,) or (1,), at
    most 2^12 tuples in all; when that allows, half the problems have
    degree N and no pin for every variable."""
    p, s, N = draw(st.sampled_from(LISTING_FIELDS))
    amb = field(p, s, N)
    base = base_field(p, s)
    n = draw(st.integers(1, 3))
    whole = amb.size() ** n <= 2 ** 12 and draw(st.booleans())
    degrees = [N if whole else
               draw(st.sampled_from([e for e in range(1, N + 1)
                                     if N % e == 0]))
               for _ in range(n)]
    pins = [None if whole else draw(st.sampled_from([None, None, 0, 1]))
            for _ in range(n)]
    size = 1
    for e, pin in zip(degrees, pins):
        size *= amb.q ** e if pin is None else 1
    if size > 2 ** 12:
        pins[0] = 0
    equations = []
    for _ in range(draw(st.integers(0, 2))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[exps] = draw(st.integers(1, p ** s - 1))
        equations.append(SparsePoly(n, base, terms))
    domains = []
    for i, (e, pin) in enumerate(zip(degrees, pins)):
        if pin is None:
            domains.append(amb.subfield(e, method="span"))
        else:
            x = SparsePoly.var(n, base, i)
            equations.append(x - SparsePoly.const_int(n, base, 1)
                             if pin else x)
            domains.append((ref_one(amb) if pin else 0,))
    return equations, n, amb, base, degrees, domains


def unreduced_nodes(equations, n, amb, base, degrees):
    """The node count of the search over every value of x_1: the least
    budget under which ``_search`` without orbit weights passes."""
    def passes(budget):
        try:
            _search(equations, amb, base, range(n), degrees,
                    lambda point, polys, length: 1, budget)
        except BudgetExceededError:
            return False
        return True

    if passes(0):
        return 0  # a nonzero constant equation: not even the root is visited
    hi = 1
    while not passes(hi):
        hi *= 2
    lo = hi // 2  # refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@settings(max_examples=150, deadline=None)
@given(listing_problems())
def test_listing_matches_product_filter(problem):
    equations, n, amb, base, degrees, domains = problem
    want = sorted(pt for pt in product(*domains)
                  if not any(eq.evaluate(pt, amb) for eq in equations))
    nodes = unreduced_nodes(equations, n, amb, base, degrees)

    def conjugates(budget):
        pairs = enumerate_orbit_points(equations, n, amb, base, budget)
        return sorted(tuple(amb.frob(c, i) for c in pt)
                      for pt, length in pairs for i in range(length))

    listings = [lambda budget: enumerate_points(equations, amb, base,
                                                degrees, budget)]
    if all(e == amb.N for e in degrees):
        listings.append(conjugates)  # the orbit listing's whole field
    for listing in listings:
        assert listing(nodes) == want
        if nodes:
            with pytest.raises(BudgetExceededError) as info:
                listing(nodes - 1)
            assert info.value.cost == nodes
            assert info.value.budget == nodes - 1


def test_orbits_walked_only_as_the_search_reaches_them():
    # x2 is solved linearly under every x1, so the search over F_(2^40)
    # passes its budget of 1000 nodes within the first few hundred orbits
    # of x1; walking all 2^40 values of x1 first would not end
    amb = Field(2, 1, 40)  # its own instance, so the spy stays local
    calls = 0
    frob = amb.frob

    def spy(x, i):
        nonlocal calls
        calls += 1
        assert calls <= 40 * 1000, "orbits walked ahead of the search"
        return frob(x, i)

    amb.frob = spy
    X = V(2, 1, 2, ["x1^3 + x2 + 1"], (1, 1))
    with pytest.raises(BudgetExceededError) as info:
        enumerate_orbit_points(X.equations, X.n, amb, X.base, budget=1000)
    assert info.value.cost == 1001


def test_orbit_replay_equals_a_fresh_walk():
    # each orbit's least member and length, read off the orbits themselves
    for p, s, N in ((2, 1, 12), (3, 1, 6), (2, 2, 4)):
        amb = Field(p, s, N)  # its own instance, so the memo starts empty
        for e in [e for e in range(1, N + 1) if N % e == 0]:
            values = amb.subfield(e, method="filter")
            orbits = {frozenset(amb.frob(x, i) for i in range(e))
                      for x in values}
            want = sorted((min(o), len(o)) for o in orbits)
            assert list(Field(p, s, N).frobenius_orbits(e)) == want
            # a partial walk, two interleaved readers, then a full replay
            head = amb.frobenius_orbits(e)
            assert [next(head) for _ in range(min(3, len(want)))] \
                == want[:3]
            first, second = amb.frobenius_orbits(e), amb.frobenius_orbits(e)
            mixed = [[], []]
            for a, b in zip(first, second):
                mixed[0].append(a)
                mixed[1].append(b)
            assert mixed == [want, want]
            assert list(head) == want[3:]
            assert list(amb.frobenius_orbits(e)) == want


def test_interrupted_orbit_walk_starts_anew():
    # an exception inside frob (an interrupt, say) ends the walk's
    # generator; the memo must not then replay a truncated walk
    amb = Field(2, 1, 10)  # its own instance, so the spy stays local
    want = list(Field(2, 1, 10).frobenius_orbits(10))
    frob, calls = amb.frob, []

    def interrupted(x, e):
        calls.append(x)
        if len(calls) == 100:
            raise KeyboardInterrupt
        return frob(x, e)

    amb.frob = interrupted
    with pytest.raises(KeyboardInterrupt):
        list(amb.frobenius_orbits(10))
    amb.frob = frob
    assert list(amb.frobenius_orbits(10)) == want


def _first_level_spy(monkeypatch, amb):
    """Record amb.frob(x, 1), the step of every orbit walk; no other
    Frobenius power the checks below use is 1."""
    walked = []
    frob = amb.frob

    def spy(x, e):
        if e == 1:
            walked.append(x)
        return frob(x, e)

    monkeypatch.setattr(amb, "frob", spy)
    return walked


def test_second_count_replays_the_first_level(monkeypatch):
    # x1 ranges over F_(2^4), the whole of the count's field; x2^3 + x1^3
    # + 1 never has a linear gcd, so the root count applies no Frobenius
    # either
    X = V(2, 1, 2, ["x1^3 + x2^3 + 1"], (2, 3))
    want = oracle_count(X, 2)
    assert partial_count(X, 2) == want
    amb = counting.count_field(X, 2)
    assert amb is field(2, 1, 4)
    walked = _first_level_spy(monkeypatch, amb)
    assert partial_count(X, 2) == want
    assert walked == []


def test_second_lemma_check_replays_the_first_level(monkeypatch):
    # at k = 2 the chains apply Frob^(2m) and the root counts Frob^(2 d_i),
    # so a frob(x, 1) there comes only from an orbit walk, the listing's
    # over F_(2^12) or the count's over F_(2^4)
    X = load_instance(str(CORPUS / "hyperbola23_f2.json"), "variety")[0]
    report = lemma_check(X, 2)
    assert report.passed
    walked = [_first_level_spy(monkeypatch, amb)
              for amb in (field(2, 1, X.D * 2), counting.count_field(X, 2))]
    assert lemma_check(X, 2) == report
    assert walked == [[], []]


def test_refused_listing_keeps_no_partial_walk():
    X = V(2, 1, 2, ["x1^3 + x2 + 1"], (1, 1))
    amb = Field(2, 1, 12)  # its own instance, so the spy stays local
    frob, calls = amb.frob, []
    amb.frob = lambda x, e: calls.append(x) or frob(x, e)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_orbit_points(X.equations, X.n, amb, X.base, budget=500)
    assert info.value.cost == 501
    assert amb.N not in amb._orbit_cache
    refused = len(calls)
    pairs = enumerate_orbit_points(X.equations, X.n, amb, X.base)
    assert pairs == enumerate_orbit_points(X.equations, X.n, Field(2, 1, 12),
                                           X.base)
    # the full listing walks every element once, the partial walk not kept
    assert 0 < refused and len(calls) - refused == amb.size()
    # a third listing replays the finished walk
    del calls[:]
    assert enumerate_orbit_points(X.equations, X.n, amb, X.base) == pairs
    assert calls == []


def test_plain_listing_walks_no_frobenius_orbit(monkeypatch):
    # the direct graph count and the singular-point search share no orbit
    # reduction with partial_count, which the fibred product's count uses
    graphs = [load_instance(str(path), "graph")[0]
              for path in sorted(CORPUS.glob("*.json"))
              if json.loads(path.read_text())["kind"] == "graph"]
    want = [[partial_count(fibred_product_reduce(G), k) for k in (1, 2)]
            for G in graphs]
    assert len(graphs) == 6

    def refuse(*args, **kwargs):
        raise AssertionError("Frobenius orbits walked")

    monkeypatch.setattr(Field, "frobenius_orbits", refuse)
    assert [[graph_count_direct(G, k) for k in (1, 2)]
            for G in graphs] == want
    F2 = base_field(2, 1)
    # x1^2*x2 is singular along x1 = 0; x1*x2 is smooth
    assert singular_search(parse_poly("x1^2*x2", ["x1", "x2"], F2), 2) \
        == (1, (0, 1))
    assert singular_search(parse_poly("x1*x2", ["x1", "x2"], F2), 2) is None


def test_constant_in_the_bound_variable_prunes_without_a_scan():
    # at x1 = 0, x1*x2 + 1 is the constant 1 in x2: no value of x2 is tried
    amb = Field(2, 1, 12)  # its own instance, so the spy stays local
    tried = []
    power = amb.pow
    amb.pow = lambda x, e: tried.append(x) or power(x, e)
    eq, pin = (parse_poly(text, ["x1", "x2"], base_field(2, 1))
               for text in ("x1*x2 + 1", "x1"))
    assert enumerate_points([eq, pin], amb, eq.base, [12, 12]) == []
    assert tried == [0]  # x1's own power, and no scan of the 4096 x2


def test_exponents_fold_to_their_variables_field():
    # on F_2, x1^2 is x1: x1^2 + x1 + 1 folds to the constant 1 in x1 and
    # prunes before any value is powered, where folded on F_(2^6) it
    # would scan both values
    amb = Field(2, 1, 6)  # its own instance, so the spy stays local
    tried = []
    power = amb.pow
    amb.pow = lambda x, e: tried.append(x) or power(x, e)
    eq = parse_poly("x1^2 + x1 + 1", ["x1"], base_field(2, 1))
    assert enumerate_points([eq], amb, eq.base, [1]) == []
    assert tried == []


@pytest.mark.parametrize("count", [1, 3])
def test_listing_takes_one_degree_per_variable(count):
    # one degree would read x2 as a constant, three would index past x2
    amb = field(2, 1, 2)
    eq = parse_poly("x1 + x2 + 1", ["x1", "x2"], base_field(2, 1))
    with pytest.raises(ValueError, match="one degree per variable"):
        enumerate_points([eq], amb, eq.base, [amb.N] * count)


@pytest.mark.parametrize("text", ["x1 + x2", "1"])
def test_listing_refuses_a_degree_not_dividing_n(text):
    # F_(2^4) is no subfield of F_(2^6), whether or not the equations
    # leave anything to list
    amb = field(2, 1, 6)
    eq = parse_poly(text, ["x1", "x2"], base_field(2, 1))
    with pytest.raises(fields.FieldError, match="e = 4 is not"):
        enumerate_points([eq], amb, eq.base, [6, 4])


# ---------------------------------------------------------------------------
# the root counter
# ---------------------------------------------------------------------------

# (p, s, N, e): the root count is over F_{q^e} inside F_{q^N}; the last
# three ambient fields, 2^21 and 5^9 elements, lie above TABLE_CAP = 2^20
# and run on schoolbook products
ROOT_FIELDS = [(2, 1, 6, 1), (2, 1, 6, 2), (2, 1, 6, 3), (2, 1, 6, 6),
               (3, 1, 4, 2), (3, 1, 4, 4), (2, 2, 3, 1), (2, 2, 3, 3),
               (3, 2, 2, 1), (2, 1, 21, 3), (2, 1, 21, 7), (5, 1, 9, 3)]


def mul_poly(F, a, b):
    """The product of two packed coefficient lists, by the reference."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ref_add(F, out[i + j], ref_mul(F, x, y))
    return out


def linear(F, root):
    """x - root, as a packed coefficient list."""
    return [ref_neg(F, root), ref_one(F)]


@st.composite
def root_problems(draw):
    """Polynomials (packed coefficient lists) over F_{q^N} and e."""
    p, s, N, e = draw(st.sampled_from(ROOT_FIELDS))
    F = field(p, s, N)
    sub = F.subfield(e, method="span")
    # roots from a small pool, so repeated and common roots occur
    pool = ([draw(st.sampled_from(sub)) for _ in range(2)]
            + [draw(st.integers(0, F.size() - 1)) for _ in range(2)])
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("zero", "constant", "random", "roots")))
        if kind == "zero":
            poly = []
        elif kind == "constant":
            poly = [draw(st.integers(1, F.size() - 1))]
        elif kind == "random":
            poly = [draw(st.integers(0, F.size() - 1))
                    for _ in range(draw(st.integers(1, 5)))]
        else:
            poly = [draw(st.integers(1, F.size() - 1))]
            for _ in range(draw(st.integers(1, 4))):
                root = draw(st.sampled_from(pool))
                poly = mul_poly(F, poly, linear(F, root))
        while poly and poly[-1] == 0:
            poly.pop()
        polys.append(poly)
    return F, e, polys


def scan_count(F, e, polys):
    """The values of F_{q^e} at which every polynomial vanishes, by Horner
    in the reference arithmetic."""
    def value(poly, x):
        acc = 0
        for c in reversed(poly):
            acc = ref_add(F, ref_mul(F, acc, x), c)
        return acc

    return sum(1 for x in F.subfield(e, method="span")
               if all(value(f, x) == 0 for f in polys))


@settings(max_examples=150, deadline=None)
@given(root_problems())
def test_root_count_matches_scan(problem):
    F, e, polys = problem
    assert count_roots(polys, F, e) == scan_count(F, e, polys)


@pytest.mark.parametrize("p, s, N, e", ROOT_FIELDS)
def test_root_count_repeated_and_outside_roots(p, s, N, e):
    F = field(p, s, N)
    sub = F.subfield(e, method="span")
    square = mul_poly(F, linear(F, sub[-1]), linear(F, sub[-1]))
    cases = [([], F.q ** e), ([ref_one(F)], 0), (square, 1)]
    if e < N:
        outside = next(v for v in range(F.size()) if not F.in_subfield(v, e))
        cases += [(mul_poly(F, square, linear(F, outside)), 1),
                  (mul_poly(F, linear(F, outside), linear(F, outside)), 0)]
    for poly, want in cases:
        assert count_roots([poly], F, e) == want
        assert scan_count(F, e, [poly]) == want


@st.composite
def pth_power_problems(draw):
    """(F, e, polys, h): polys[0] = h^(p^j), j = 1, or 2 for p < 5, h of
    degree 1-3 over F with roots inside F_{q^e} and outside it, or random,
    and maybe a second polynomial."""
    p, s, N, e = draw(st.sampled_from(ROOT_FIELDS))
    F = field(p, s, N)
    sub = F.subfield(e, method="span")
    h = [draw(st.integers(1, F.size() - 1))]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            h = mul_poly(F, h, linear(F, draw(st.sampled_from(sub))))
        else:
            h = mul_poly(F, h, [draw(st.integers(0, F.size() - 1)),
                                ref_one(F)])
    step = p ** draw(st.integers(1, 2 if p < 5 else 1))
    g = [0] * (step * (len(h) - 1) + 1)
    for i, c in enumerate(h):
        g[step * i] = F.pow(c, step)
    polys = [g]
    if draw(st.booleans()):
        polys.append(mul_poly(F, h, [draw(st.integers(0, F.size() - 1)),
                                     ref_one(F)]))
    return F, e, polys, h


@settings(max_examples=80, deadline=None)
@given(pth_power_problems())
def test_root_count_of_a_pth_power_matches_scan(problem):
    # g' = 0 makes g = h^p: g alone is counted by its p-th root, and x^Q
    # is reduced only when that root has degree >= 3
    F, e, polys, h = problem
    with pytest.MonkeyPatch.context() as mp:
        calls = _x_power_calls(mp)
        got = count_roots([list(f) for f in polys], F, e)
    assert got == scan_count(F, e, polys)
    if len(polys) == 1 and len(h) <= 3:
        assert calls == []


def gcd_route_count(polys, F, e):
    """deg gcd(f_1, ..., f_r, x^Q - x), Q = q^e, with x^Q reduced by
    ``fields._x_power`` whatever the gcd's degree: the route of every
    count before the linear, descent and quadratic routes."""
    polys = [f for f in polys if f]
    if not polys:
        return F.q ** e
    g = polys[0]
    for f in polys[1:]:
        g = _gcd(g, f, F)
    if len(g) == 1:
        return 0
    # x^Q - x is squarefree, so g^2 has the same common roots with it as
    # g, and the degree >= 2 that _x_power asks for
    g = packed_product(_monic(g, F), _monic(g, F), F)
    h = fields._x_power(F.q ** e, g, F)
    h[1] = F.sub(h[1], F._one)
    return len(_gcd(g, _trim(h), F)) - 1


def packed_product(a, b, F):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


# (p, s, N, e) with N = 2e, so F holds F_{Q^2}, Q = q^e, and a quadratic
# over F_Q with no root in it is (x - z)(x - z^Q) for z outside F_Q: p = 2
# and odd p, each with s = 1 and s = 2, and two ambient fields above
# TABLE_CAP
ROUTE_FIELDS = [(2, 1, 2, 1), (2, 1, 6, 3), (2, 2, 2, 1), (2, 2, 4, 2),
                (3, 1, 4, 2), (3, 2, 2, 1), (5, 1, 2, 1), (2, 1, 22, 11),
                (3, 1, 14, 7)]


@st.composite
def route_problems(draw):
    """(F, e, polys, want): packed coefficient lists for one route of
    ``count_roots``, with the count when the draw fixes it, else None."""
    kind = draw(st.sampled_from(("double", "split", "irreducible",
                                 "descent", "linear", "prime field")))
    if kind == "prime field":
        # F_Q lies outside F = F_p, as in Rabin's test
        p, e = draw(st.sampled_from((2, 3, 5))), draw(st.integers(2, 6))
        F = field(p, 1, 1)
        coeff = st.integers(0, p - 1)
        polys = [draw(st.lists(coeff, min_size=2, max_size=6))
                 for _ in range(draw(st.integers(1, 3)))]
        return F, e, [_trim(f) for f in polys], None
    p, s, N, e = draw(st.sampled_from(ROUTE_FIELDS))
    F = field(p, s, N)
    sub = F.subfield(e, method="span")
    inside = st.sampled_from(sub)
    outside = st.integers(1, F.size() - 1).filter(
        lambda v: not F.in_subfield(v, e))
    unit = st.integers(1, F.size() - 1)

    def linear(root):
        return [F.neg(root), F._one]

    lead = [draw(unit)]
    if kind in ("double", "split", "irreducible"):
        a = draw(inside)
        if kind == "double":
            roots, want = (a, a), 1
        elif kind == "split":
            roots, want = (a, draw(inside.filter(lambda v: v != a))), 2
        else:
            z = draw(outside)
            roots, want = (z, F.frob(z, e)), 0
        poly = packed_product(lead, packed_product(linear(roots[0]),
                                                   linear(roots[1]), F), F)
        return F, e, [poly], want
    pool = st.one_of(inside, outside)
    if kind == "descent":
        # a root outside F_Q puts coefficients outside it; the count is
        # that of the distinct roots inside
        roots = draw(st.lists(inside, max_size=2))
        poly = lead
        for r in roots + draw(st.lists(outside, min_size=1, max_size=2)):
            poly = packed_product(poly, linear(r), F)
        polys = [poly]
        if draw(st.booleans()):
            polys.append(packed_product(poly, linear(draw(pool)), F))
        return F, e, polys, len(set(roots))
    # a linear polynomial and others, each zero at its root or not
    r = draw(pool)
    polys = [packed_product(lead, linear(r), F)]
    for _ in range(draw(st.integers(1, 2))):
        poly = _trim(draw(st.lists(st.integers(0, F.size() - 1),
                                   min_size=1, max_size=4)))
        if draw(st.booleans()):
            poly = packed_product(poly or [F._one], linear(r), F)
        polys.append(poly)
    return F, e, polys, None


@settings(max_examples=300, deadline=None)
@given(route_problems())
def test_root_count_routes_match_gcd_with_x_power(problem):
    F, e, polys, want = problem
    got = count_roots([list(f) for f in polys], F, e)
    assert got == gcd_route_count(polys, F, e)
    if want is not None:
        assert got == want


def _x_power_calls(monkeypatch):
    calls = []
    reduce = fields._x_power

    def spy(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(fields, "_x_power", spy)
    return calls


def test_quadratic_leaves_never_reduce_x_to_the_q(monkeypatch):
    # 2 x2 (x1 + x2) is quadratic in x2 at every x1; x2 has the larger
    # domain, so it is the counted variable
    X = V(3, 1, 2, ["2*x1*x2 + 2*x2^2"], (1, 2))
    # the oracle builds the fields first: their modulus search reduces x^Q
    want = [oracle_count(X, k) for k in range(1, 4)]
    calls = _x_power_calls(monkeypatch)
    assert [partial_count(X, k) for k in range(1, 4)] == want
    assert calls == []


def test_cubic_leaves_still_reduce_x_to_the_q(monkeypatch):
    X, _, _ = load_instance(str(CORPUS / "mu3_d2_f2.json"), "variety")
    want = [oracle_count(X, k) for k in range(1, 4)]
    calls = _x_power_calls(monkeypatch)
    # x1 is the only variable: each level has one leaf, the cubic x1^3 + 1
    assert [partial_count(X, k) for k in range(1, 4)] == want
    assert len(calls) == 3


def test_high_degree_leaf_refused_by_its_x_power_cost(monkeypatch):
    # x1^9 + x1 + 1 is its own gcd at every leaf: x^16 mod a degree-9 g,
    # priced deg^2 times Q's bit length, 9^2 * 5, before F_16 is built
    X = V(2, 1, 1, ["x1^9 + x1 + 1"], (4,))
    want = oracle_count(X, 1)
    calls = _x_power_calls(monkeypatch)
    assert partial_count(X, 1, budget=9 * 9 * 5) == want
    assert len(calls) == 1
    with pytest.raises(BudgetExceededError) as exc:
        partial_count(X, 1, budget=9 * 9 * 5 - 1)
    assert exc.value.cost == 9 * 9 * 5
    assert len(calls) == 1


def test_leaf_degree_reduced_as_the_engine_reduces_it():
    # x2^8 = x2 on x2's F_8 at k = 1, so the leaf is linear and counted,
    # although 8 is not reduced mod |F_4| - 1 nor mod 2^6 - 1; at k = 2
    # the product's 2^10 tuples are refused first
    X = V(2, 1, 2, ["x2^8 + x1"], (2, 3))
    assert partial_count(X, 1, budget=200) == oracle_count(X, 1) == 2
    with pytest.raises(BudgetExceededError) as exc:
        partial_count(X, 2, budget=200)
    assert exc.value.cost == 1024
    assert str(exc.value).endswith("(partial_count k=2)")
    # on F_8, x1^7 + x1^8 + 1 is x1^7 + x1 + 1: the largest reduced
    # exponent is 7, where the reduced largest exponent would be 1
    X = V(2, 1, 1, ["x1^7 + x1^8 + 1"], (3,))
    assert partial_count(X, 1, budget=7 * 7 * 4) == oracle_count(X, 1) == 0
    with pytest.raises(BudgetExceededError) as exc:
        partial_count(X, 1, budget=7 * 7 * 4 - 1)
    assert exc.value.cost == 7 * 7 * 4
    assert str(exc.value).endswith("(count_roots k=1)")


# ---------------------------------------------------------------------------
# counting in the smallest field that holds the bound values
# ---------------------------------------------------------------------------

# (p, s, N, e) with e not dividing N: F_{q^e} lies outside F = F_{q^N}; the
# last field, 2^21 elements, lies above TABLE_CAP
OUTSIDE_FIELDS = [(2, 1, 1, 3), (2, 1, 2, 3), (2, 1, 3, 2), (2, 1, 4, 6),
                  (2, 2, 1, 2), (2, 2, 2, 3), (3, 1, 1, 2), (3, 1, 2, 3),
                  (3, 1, 3, 2), (3, 2, 2, 3), (2, 1, 21, 2)]


@st.composite
def outside_root_problems(draw):
    """(p, s, N, e, polys): polynomials over F_q, as base-field packed
    ints, of degree <= 6: zero, random, p-th powers and products with a
    square."""
    p, s, N, e = draw(st.sampled_from(OUTSIDE_FIELDS))
    base = base_field(p, s)
    coeff = st.integers(0, base.size() - 1)

    def poly(most):
        return _trim(draw(st.lists(coeff, min_size=1, max_size=most + 1)))

    polys = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("zero", "random", "power", "square")))
        if kind == "zero":
            f = []
        elif kind == "random":
            f = poly(6)
        elif kind == "power":  # f' = 0
            g = f = poly(6 // p)
            for _ in range(p - 1):
                f = packed_product(f, g, base)
        else:  # a repeated factor
            g = poly(2)
            f = packed_product(packed_product(g, g, base), poly(2), base)
        polys.append(_trim(f))
    return p, s, N, e, polys


@settings(max_examples=200, deadline=None)
@given(outside_root_problems())
def test_root_count_outside_the_field_matches_scan(problem):
    # the count over F = F_{q^N} against a Horner scan of F_{q^e} itself,
    # the coefficients mapped into each by its embedding of F_q
    p, s, N, e, polys = problem
    base, F, S = base_field(p, s), field(p, s, N), field(p, s, e)
    into_F, into_S = F.embed_base(base), S.embed_base(base)

    def zero_at(f, x):
        acc = 0
        for c in reversed(f):
            acc = S.add(S.mul(acc, x), into_S(c))
        return not acc

    want = sum(1 for x in S.elements() if all(zero_at(f, x) for f in polys))
    assert count_roots([[into_F(c) for c in f] for f in polys], F, e) == want


OUTSIDE_VARIETIES = [
    # x2's F_{q^{2k}} lies outside the count's F_{q^k}
    V(2, 1, 2, ["x1*x2^2 + x2 + x1"], (1, 2)),
    V(3, 1, 2, ["x2^3 - x2 - x1", "x1*x2^2 + x2^3 + 1"], (1, 2)),
    # x2's F_{q^{3k}} outside x1's F_{q^{2k}}
    V(2, 1, 2, ["x1*x2 + x2^3 + 1"], (2, 3)),
    V(2, 1, 2, ["x1^2 + x2^3 + x2"], (2, 3)),
    V(2, 1, 2, ["x1 + x2^2 + x1*x2^4"], (2, 3)),
    # x2's F_{q^{3k}} outside x1's F_{q^k}
    V(2, 1, 2, ["x2^2 + x1*x2 + 1"], (1, 3)),
    V(3, 1, 2, ["x2^2 - x1"], (1, 3)),
    # x3's F_{q^{3k}} outside the F_{q^{2k}} of x1 and x2
    V(2, 1, 3, ["x1*x2 + x3^2 + x2 + 1"], (1, 2, 3)),
    V(2, 1, 3, ["x3^3 + x1*x3 + x2", "x1^2*x2 + x2 + 1"], (1, 2, 3)),
]


# k <= 3, with at most 2^18 tuples for the oracle
@pytest.mark.parametrize("X, k", [
    (X, k) for X in OUTSIDE_VARIETIES for k in (1, 2, 3)
    if (X.p ** X.s) ** (k * sum(X.profile)) <= 2 ** 18])
def test_engine_counts_outside_its_field(X, k):
    assert partial_count(X, k) == oracle_count(X, k)


def test_count_builds_no_field_past_the_bound_variables(monkeypatch):
    # x1 + x2 at (2, 3), k = 4: x1 is bound in F_(2^8) and x2 counted in
    # F_(2^12); nothing needs F_(2^24)
    built = []
    init = Field.__init__

    def spy(self, p, s, N):
        built.append(s * N)
        init(self, p, s, N)

    monkeypatch.setattr(Field, "__init__", spy)
    monkeypatch.setattr(counting, "field", Field)  # every field built anew
    X = V(2, 1, 2, ["x1 + x2"], (2, 3))
    assert partial_count(X, 4) == 16
    assert built and max(built) <= 8


# ---------------------------------------------------------------------------
# a last bound level whose leaves are linear in the counted variable
# ---------------------------------------------------------------------------

# CASES with two or more variables, the last of largest profile entry: a
# multiple of the others' ((1, 2), (1, 1, 3)), so that F_Q holds the
# count's field and the level is summed by root counts, or not ((2, 3)),
# so that it is scanned
LINEAR_CASES = [case for case in CASES
                if len(case[2]) > 1 and case[2][-1] == max(case[2])]


@st.composite
def linear_leaf_varieties(draw):
    """(X, k): one to three equations A y + B, y the last variable, A and
    B random in the others, each maybe times a common factor, so that A
    and B share roots; zero A and A zero on the domain occur.  Maybe one
    more equation in the others alone, which closes at the last bound
    level or before it."""
    p, s, profile, k = draw(st.sampled_from(LINEAR_CASES))
    n = len(profile)
    base = base_field(p, s)

    def poly():  # in the variables but y
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n - 1))
            terms[exps + (0,)] = draw(st.integers(1, p ** s - 1))
        return SparsePoly(n, base, terms)

    y = SparsePoly.var(n, base, n - 1)
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        eq = poly() * y + poly()
        if draw(st.booleans()):
            eq = eq * poly()
        equations.append(eq)
    if draw(st.booleans()):
        equations.append(poly())
    return VarietySpec(p, s, n, tuple(equations), profile), k


@settings(max_examples=200, deadline=None)
@given(linear_leaf_varieties())
def test_linear_leaf_level_matches_product_oracle(case):
    X, k = case
    assert partial_count(X, k) == oracle_count(X, k)


def search_count(X, k, budget, collapse):
    """``partial_count``'s search at level k, without its a-priori checks,
    which refuse every budget below the node bound: its last bound level
    summed by root counts where ``_collapses`` allows, else scanned, and
    with ``collapse`` false scanned always."""
    order, _ = _count_plan(X)
    amb = counting.count_field(X, k)
    e_last = X.profile[order[-1]] * k
    with pytest.MonkeyPatch.context() as patch:
        if not collapse:
            patch.setattr(counting, "_collapses", lambda deg, size: False)
        return _search(X.equations, amb, X.base, order,
                       [X.profile[i] * k for i in order[:-1]],
                       lambda point, polys, w:
                       w * count_roots(polys, amb, e_last),
                       budget, amb.frobenius_orbits(X.profile[order[0]] * k),
                       e_last)


def search_outcome(X, k, budget, collapse):
    try:
        return search_count(X, k, budget, collapse)
    except BudgetExceededError as err:
        return err.cost, str(err)


@settings(max_examples=80, deadline=None)
@given(st.one_of(linear_leaf_varieties(), varieties()))
def test_a_count_search_stays_within_its_tuple_bound(case):
    # the search visits at most 1 + q^(a_1) + ... + q^A <= q^(A + 1) - 1
    # nodes, A = k times the sum of the bound variables' d_i, and A + 1 is
    # at most k times the used variables' sum: a budget that
    # partial_count_check lets through is never refused by the node
    # meter, summed or scanned
    X, k = case
    plan = _count_plan(X)
    if plan is None or len(plan[0]) < 2:
        return  # no bound variable
    q, used = X.p ** X.s, sum(X.profile[i] for i in plan[0])
    free = q ** (k * (sum(X.profile) - used))
    for collapse in (True, False):
        got = search_count(X, k, q ** (k * used) - 1, collapse)
        assert got * free == oracle_count(X, k)


def test_the_node_bound_is_tight():
    # x1*x2 + x1 over F_2 at (1, 1), k = 1, counts x2: the scan of x1
    # visits the root and both values, q^2 - 1 = 3 nodes, where the sum
    # binds no value and charges the root alone
    X = V(2, 1, 2, ["x1*x2 + x1"], (1, 1))
    assert _count_plan(X)[0] == (0, 1)
    assert oracle_count(X, 1) == 3
    assert search_count(X, 1, 3, False) == 3
    assert search_outcome(X, 1, 2, False) == (
        3, "enumeration cost 3 exceeds budget 2 (variety enumeration)")
    assert search_count(X, 1, 1, True) == 3


@pytest.mark.parametrize("X, k, most", [
    # one equation: r(C), r(C u A), r(C u A u B); x1 alone is bound
    (V(2, 1, 2, ["x1^2*x2 + x1^3 + 1"], (1, 2)), 3, 3),
    (V(3, 1, 2, ["x1^2*x2 + x2 + x1 + 2"], (1, 2)), 2, 3),
    # x2^3 + x1^3 + 1 closes nonlinearly at x2, bound after x1
    (V(2, 1, 3, ["x1*x2*x3 + x2^2 + x1", "x1^2*x2^2 + x2^3 + x1^3 + 1"],
       (1, 1, 2)), 2, 3),
    # two leaf equations and no closing one: r(M), r(A), r(A u B)
    (V(2, 1, 3, ["x1*x2*x3 + x2^2 + x1", "x2^2*x3 + x1*x2 + 1"], (1, 1, 2)),
     2, 3),
    (V(2, 2, 2, ["x1*x2 + g", "x1^2*x2 + x1 + 1"], (1, 2)), 1, 3),
    # both: r(C u M), r(C u A), r(C u A u B), with no count of r(C) alone
    (V(2, 1, 3, ["x1*x2*x3 + x2^2 + x1", "x2^2*x3 + x1*x2 + 1",
                 "x1^2*x2^2 + x2^3 + x1^3 + 1"], (1, 1, 2)), 2, 3),
])
def test_a_summed_level_takes_few_root_counts(monkeypatch, X, k, most):
    want = oracle_count(X, k)
    calls = _count_roots_calls(monkeypatch)
    decide = counting._collapses

    def spy(deg, size):
        summed = decide(deg, size)
        calls.append(summed)  # the counts of one prefix follow its mark
        return summed

    monkeypatch.setattr(counting, "_collapses", spy)
    assert partial_count(X, k) == want
    # every prefix of the last bound level is summed, and none reaches a
    # leaf
    assert calls[0] is True and False not in calls
    per_prefix = [0]
    for call in calls[1:]:
        if call is True:
            per_prefix.append(0)
        else:
            per_prefix[-1] += 1
    assert max(per_prefix) <= most


def test_the_degree_bound_scans_a_level_of_high_degree(monkeypatch):
    # x1^4 x2 + x1 + 1 over F_2 at (1, 2): on x1's F_(2^k), x1^4 is x1 at
    # k = 1 and 2, and of degree 4 at k = 3 and 4: past 3, and with
    # 4^2 > 8 at k = 3 the level is scanned, with 4^2 <= 16 at k = 4 summed
    X = V(2, 1, 2, ["x1^4*x2 + x1 + 1"], (1, 2))
    want = [oracle_count(X, k) for k in (1, 2, 3, 4)]
    decided = []
    decide = counting._collapses
    monkeypatch.setattr(counting, "_collapses",
                        lambda deg, size: decided.append((deg, size))
                        or decide(deg, size))
    assert [partial_count(X, k) for k in (1, 2, 3, 4)] == want
    assert decided == [(1, 2), (1, 4), (4, 8), (4, 16)]
    assert [decide(deg, size) for deg, size in decided] == [
        True, True, False, True]


# ---------------------------------------------------------------------------
# memory: the last variable's subfield is never listed
# ---------------------------------------------------------------------------

def test_last_variable_subfield_never_listed(monkeypatch):
    from parzeta.cli import load_instance

    X, _, _ = load_instance(str(CORPUS / "diag11_f2.json"), "variety")
    X = X.with_profile((2, 3))
    asked = []
    listed = Field.subfield

    def spy(self, e, *args, **kwargs):
        asked.append(e)
        return listed(self, e, *args, **kwargs)

    monkeypatch.setattr(Field, "subfield", spy)
    # x1 = x2 in F_{2^4} and F_{2^6}: the common subfield F_{2^2}
    assert partial_count(X, 2) == 4
    assert 4 in asked
    assert 6 not in asked


# ---------------------------------------------------------------------------
# the join of listed points
# ---------------------------------------------------------------------------

@st.composite
def join_problems(draw):
    """Block sizes and links with small-int images; links run both ways,
    repeat, and tie a block to itself."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    blocks = st.integers(0, len(sizes) - 1)

    def images(b):
        return draw(st.lists(st.integers(0, 2), min_size=sizes[b],
                             max_size=sizes[b]))

    links = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(blocks), draw(blocks)
        links.append((a, images(a), b, images(b)))
    links += links[:draw(st.integers(0, 2))]
    return sizes, links


@settings(max_examples=300, deadline=None)
@given(join_problems())
def test_join_matches_product_filter(problem):
    sizes, links = problem
    want = {ix for ix in product(*(range(n) for n in sizes))
            if all(f[ix[a]] == g[ix[b]] for a, f, b, g in links)}
    got = join(sizes, links, 10 ** 6, "test")
    assert len(got) == len(set(got))
    assert set(got) == want


def test_join_refuses_one_node_below_its_count():
    # block 0 first: the root, 2 candidates for x_0, then 2 + 1 for x_1
    sizes, links = [2, 3], [(0, [0, 1], 1, [0, 0, 1])]
    assert join(sizes, links, 6, "ctx") == [(0, 0), (0, 1), (1, 2)]
    with pytest.raises(BudgetExceededError) as info:
        join(sizes, links, 5, "ctx")
    assert info.value.cost == 6 and info.value.budget == 5
    assert str(info.value) == "enumeration cost 6 exceeds budget 5 (ctx)"
