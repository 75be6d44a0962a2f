"""The cyclic-cover lemma against Y itself.

The library finds the fixed points of sigma^a o Frob^k on the cyclic
cover Y from X's orbit listing and Y's links alone, and never builds Y.
These tests keep Y: its equations in d*n variables (``y_variety``), their
stability under the block rotation sigma, and its full listing
(``enumerate_y_points``), X listed in full by the plain search and joined
d times over.  The listing is held to the equations, and the fixed points
to a filter over the listing.  The fixed points come from the library's
one path, ``lemma_check``'s listing and chains, expanded here
(``fixed_points``) to every conjugate.  The library checks the lemma for
morphisms f_i on the graph variety Gamma_f (``graph_variety``), so these
tests keep Y's morphism form as the oracle: Gamma_f's fixed points, cut
to X's coordinates, against the filter over Y's listing, and its partial
count against X's points whose images lie in their subfields.
"""

import json
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from parzeta import counting, faltings
from parzeta.cli import load_instance, main
from parzeta.counting import (DEFAULT_BUDGET, BudgetExceededError,
                              enumerate_points, join, partial_count)
from parzeta.faltings import (_orbit_listing, _twisted_fixed_points,
                              _y_links, lemma_check)
from parzeta.fields import Field, field
from parzeta.graphs import (GraphEdge, GraphSystem, GraphVertex,
                            fibred_product_reduce)
from parzeta.polys import SparsePoly, VarietySpec, base_field, parse_poly
from test_engine import oracle_count, varieties

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
VARIETIES = sorted(path.stem for path in CORPUS.glob("*.json")
                   if json.loads(path.read_text())["kind"] == "variety")


def V(p, s, n, texts, profile):
    base = base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


# ---------------------------------------------------------------------------
# Y itself: its equations, the block rotation and its full listing
# ---------------------------------------------------------------------------

def sigma_apply(blocks, a: int):
    """sigma^a: one step sends (y_1,...,y_d) to (y_d, y_1,...,y_{d-1})."""
    d = len(blocks)
    return tuple(blocks[(j - a) % d] for j in range(d))


def _slot(j: int, i: int, n: int) -> int:
    return j * n + i


def y_variety(X, morphisms=None):
    """Y inside X^d, in d*n variables: d copies of X's equations, one per
    block, and for each profile entry d_i and block j the identity
    f_i(block j) = f_i(block j + d_i), componentwise; without morphisms
    f_i is the i-th coordinate, and the identity a slot equality."""
    d, n = X.D, X.n
    dn = d * n
    blocks = [{v: _slot(j, v, n) for v in range(n)} for j in range(d)]
    equations = [eq.rename(blocks[j], dn) for j in range(d)
                 for eq in X.equations]
    for i, di in enumerate(X.profile):
        comps = ((SparsePoly.var(n, base_field(X.p, X.s), i),)
                 if morphisms is None else morphisms[i])
        for j in range(d):
            j2 = (j + di) % d
            if j2 != j:
                equations.extend(c.rename(blocks[j], dn)
                                 - c.rename(blocks[j2], dn) for c in comps)
    return VarietySpec(X.p, X.s, dn, tuple(equations), (1,) * dn)


def sigma_stable(X, Y):
    """Whether rotating the blocks permutes Y's equation set, up to sign."""
    d, n = X.D, X.n
    dn = d * n
    rot = {_slot(j, i, n): _slot((j + 1) % d, i, n)
           for j in range(d) for i in range(n)}
    eqset = set(Y.equations) | {-eq for eq in Y.equations}
    return all(eq.rename(rot, dn) in eqset for eq in Y.equations)


def enumerate_y_points(X, morphisms, k: int, budget: int = DEFAULT_BUDGET):
    """Y's full listing: its points with all coordinates in F_{q^{dk}},
    lex-sorted.  X's points are listed once, in full, by the plain search,
    which binds x_1 to every value rather than one per Frobenius orbit,
    and joined d times over by Y's links."""
    d = X.D
    amb = field(X.p, X.s, d * k)
    xpts = enumerate_points(X.equations, amb, [amb.N] * X.n, budget=budget)
    if morphisms is None:
        images = [[pt[i] for pt in xpts] for i in range(len(X.profile))]
    else:
        images = [[tuple(c.evaluate(pt, amb) for c in f) for pt in xpts]
                  for f in morphisms]
    links = [(j, images[i], j2, images[i])
             for j, i, j2 in _y_links(X.profile, d)]
    return sorted(tuple(xpts[x] for x in ix)
                  for ix in join([len(xpts)] * d, links, budget, "Y enumeration"))


def test_sigma_apply():
    blocks = ("A", "B", "C")
    assert sigma_apply(blocks, 1) == ("C", "A", "B")
    assert sigma_apply(blocks, 2) == ("B", "C", "A")
    assert sigma_apply(blocks, 3) == blocks


def test_sigma_orbit_order():
    blocks = tuple(range(6))
    cur = blocks
    for _ in range(6):
        cur = sigma_apply(cur, 1)
    assert cur == blocks


def test_build_faltings_shape():
    X = V(2, 1, 2, ["x1 + x2"], (1, 2))
    assert X.D == 2
    Y = y_variety(X)
    assert Y.n == 4
    # two rotated copies of the defining equation plus identifications
    assert len(Y.equations) >= 2


def test_trivial_profile_gives_back_x():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    assert X.D == 1
    assert y_variety(X).n == X.n
    ypts = enumerate_y_points(X, None, 2)
    assert len(ypts) == partial_count(X, 2)


def test_variety_points_match_classical():
    X = V(3, 1, 2, ["x2 - x1^2"], (1, 1))
    amb = field(3, 1, 2)
    pts = enumerate_points(X.equations, amb, [amb.N] * X.n)
    assert len(pts) == oracle_count(X, 2)


def fixed_points(X, a, k):
    """The fixed points of sigma^a o Frob^k by ``lemma_check``'s path:
    the kept chains over one orbit listing of X, each (y, L) expanded to
    its conjugates Frob^s(y), s < L, lex-sorted."""
    amb = field(X.p, X.s, X.D * k)
    listing = _orbit_listing(X, k, DEFAULT_BUDGET)
    pairs = _twisted_fixed_points(X, listing)[a]
    return sorted(tuple(tuple(amb.frob(c, s) for c in b) for b in y)
                  for y, length in pairs for s in range(length))


def test_fixed_point_count_matches_partial_count():
    X = V(2, 1, 2, ["x1 + x2"], (1, 2))
    assert len(fixed_points(X, 1, 1)) == partial_count(X, 1)
    assert len(fixed_points(X, 1, 2)) == partial_count(X, 2)


def test_lemma_check_diagonal_12():
    X = V(2, 1, 2, ["x1 + x2"], (1, 2))
    rep = lemma_check(X, 2)
    assert rep.passed
    assert rep.reconstruction_ok
    assert all(e.equal for e in rep.entries)


def test_lemma_check_diagonal_23():
    rep = lemma_check(V(2, 1, 2, ["x1 + x2"], (2, 3)), 2)
    assert rep.passed and rep.reconstruction_ok
    # phi(6) = 2 twists per level
    assert [(e.a, e.k) for e in rep.entries] == [(1, 1), (5, 1), (1, 2), (5, 2)]


def test_lemma_check_hyperbola():
    rep = lemma_check(V(2, 1, 2, ["x1*x2 + 1"], (1, 2)), 2)
    assert rep.passed and rep.reconstruction_ok


def test_lemma_check_over_f3():
    rep = lemma_check(V(3, 1, 2, ["x2 - x1^2"], (1, 2)), 2)
    assert rep.passed and rep.reconstruction_ok


def test_lemma_check_fails_on_wrong_orbit_lengths(monkeypatch):
    # where the orbit walk weights the partial count, the fixed points are
    # weighted by their first coordinate's degree, so doubling the walk's
    # lengths must make the two sides differ
    walk = Field.frobenius_orbits

    def doubled(self, e, g=1):
        return ((x, 2 * length) for x, length in walk(self, e, g))

    monkeypatch.setattr(Field, "frobenius_orbits", doubled)
    # the count reads the walk where x2's leaf is nonlinear (x1*x2^2 + 1),
    # or linear but with x2's F_(8^k) not holding x1's F_(4^k) (x1 + x2 at
    # (2, 3)); every entry mismatches, so witness_count sums their fixed
    # points, capped at 10: 2 + 2 + 4 + 4 on the first, 1 + 3 on the second
    for X, witnesses in [(V(2, 1, 2, ["x1 + x2"], (2, 3)), 10),
                         (V(2, 1, 2, ["x1*x2^2 + 1"], (1, 2)), 4)]:
        rep = lemma_check(X, 2)
        assert not rep.passed
        assert not any(e.equal for e in rep.entries)
        assert rep.witness_count == witnesses
    # x1*x2 + 1 at (1, 2) is linear in x2, whose F_(4^k) holds x1's F_(2^k),
    # and the squaring line's Gamma_f, x1^2 + x2 at (2, 2), is linear in x2
    # at x1's own level: the count sums x1's level by root counts and reads
    # no walk, so the entries agree, and the tally of the listing's walk
    # fails the level
    for X in (V(2, 1, 2, ["x1*x2 + 1"], (1, 2)),
              graph_variety(*squaring_line())):
        rep = lemma_check(X, 2)
        assert all(e.equal for e in rep.entries)
        assert not rep.passed
        assert rep.witness_count == 0


def test_lemma_check_fails_on_a_skipped_orbit(monkeypatch):
    # both sides take their representatives from the walk, the partial
    # count's over the first bound variable's subfield and the fixed
    # points' over the whole field; dropping the first orbit of length 1,
    # or of length > 1, must fail the level.  On x1 + x2 at (2, 3) both
    # sides drop the same representative and still agree: only the tally
    # of the walk's orbits by length catches it
    walk = Field.frobenius_orbits
    for dropped in (1, 2):

        def skipping(self, e, g=1):
            pairs = walk(self, e, g)
            for x, length in pairs:
                if min(length, 2) == dropped:
                    break
                yield x, length
            yield from pairs

        monkeypatch.setattr(Field, "frobenius_orbits", skipping)
        for X in (V(2, 1, 2, ["x1*x2 + 1"], (1, 2)),
                  V(3, 1, 2, ["x2 - x1^2"], (1, 2)),
                  V(2, 1, 2, ["x1 + x2"], (2, 3))):
            assert not lemma_check(X, 2).passed


def test_lemma_check_certifies_the_count_fields_walk(monkeypatch):
    # partial_count walks x1's orbits in its own field, F_4 at k = 1, not
    # in the listing's F_64; dropping the orbit {w, w^2} of F_4 there alone
    # leaves both sides equal, since x2^3 + w x2 + 1 has no root in F_8,
    # so only the tally of the count's walk can fail the level
    X = V(2, 1, 2, ["x1*x2 + x2^3 + 1"], (2, 3))
    counted = field(X.p, X.s, counting.partial_count_check(
        X, 1, DEFAULT_BUDGET).field_degree)
    assert counted.N == 2
    walk = Field.frobenius_orbits

    def skipping(self, e, g=1):
        pairs = walk(self, e, g)
        for x, length in pairs:
            if self is counted and length > 1:
                break
            yield x, length
        yield from pairs

    monkeypatch.setattr(Field, "frobenius_orbits", skipping)
    rep = lemma_check(X, 1)
    assert all(e.equal for e in rep.entries)
    assert not rep.passed


def test_lemma_check_certifies_the_count_fields_relative_walk(monkeypatch):
    # at k = 2 partial_count binds x1, then x2, in F_16 and counts x3.
    # Under x1 of degree 2, x2 takes one value per orbit of x -> x^4, the
    # prefix's stabiliser: a relative walk.  x2^4 + x2 prunes every x2
    # outside F_4, so dropping one orbit of length 2 there, values outside
    # F_4, leaves both sides equal, and only the tally of that walk can
    # fail the level
    X = V(2, 1, 3, ["x2^4 + x2", "x1^3*x2 + x3^3 + 1"], (2, 2, 2))
    assert counting._count_plan(X)[0] == (0, 1, 2)
    counted = field(X.p, X.s, counting.partial_count_check(
        X, 2, DEFAULT_BUDGET).field_degree)
    walk = Field.frobenius_orbits
    dropped = []

    def skipping(self, e, g=1):
        pairs = walk(self, e, g)
        for x, length in pairs:
            if self is counted and g > 1 and length > 1:
                dropped.append((e, g))
                break
            yield x, length
        yield from pairs

    monkeypatch.setattr(Field, "frobenius_orbits", skipping)
    rep = lemma_check(X, 2)
    assert (4, 2) in dropped
    assert all(e.equal for e in rep.entries)
    assert not rep.passed


def test_lemma_check_reads_only_the_walks_its_level_takes(monkeypatch):
    # at k = 1 the count binds x3, then x2, in F_64 and counts x1; the
    # listing walks F_4096 at its N, the count F_8 and F_4 inside F_64.  A
    # broken walk where neither goes, F_64 whole or F_8 inside F_4096,
    # leaves the level passing; the same walk where the count goes fails it
    X = V(2, 1, 3, ["x2 + x1^3", "x3 + x1^5"], (12, 2, 3))
    plan = counting.partial_count_check(X, 1, DEFAULT_BUDGET)
    assert plan.degrees == (3, 2) and plan.field_degree == 6
    counted, listed = field(2, 1, 6), field(2, 1, 12)
    for F, e, passed in ((counted, 6, True), (listed, 3, True),
                         (counted, 3, False)):
        # fields are shared by the process: the planted walk is undone
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(F._orbit_cache, (e, 1),
                          tuple(F.frobenius_orbits(e))[1:])
            assert not faltings._walk_is_whole(F, e)
            assert lemma_check(X, 1).passed is passed


def _orbits_of_length(q, L):
    """M_q(L) = (1/L) sum_(j | L) mu(L/j) q^j, by the Moebius function."""
    def mu(n):
        sign, f = 1, 2
        while n > 1:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                sign = -sign
            f += 1
        return sign
    return sum(mu(L // j) * q ** j for j in range(1, L + 1) if L % j == 0) // L


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(p, s, e, c) for p in (2, 3) for s in (1, 2)
                        for e in range(1, 13) for c in (1, 2, 3)
                        if (p ** s) ** (e * c) <= 2 ** 14]))
def test_orbit_walk_tallies_to_the_irreducible_count(case):
    # the walk of F_(q^e) inside F_(q^(ec)), the whole field at c = 1
    p, s, e, c = case
    amb = field(p, s, e * c)
    q = p ** s
    tally = {}
    for _, length in amb.frobenius_orbits(e):
        tally[length] = tally.get(length, 0) + 1
    assert tally == {L: _orbits_of_length(q, L)
                     for L in range(1, e + 1) if e % L == 0}
    assert faltings._walk_is_whole(amb, e)
    # the relative walks, of x -> x^(q^g): F_(q^e) over F_(q^g)
    for g in [g for g in range(2, e + 1) if e % g == 0]:
        tally = {}
        for _, length in amb.frobenius_orbits(e, g):
            tally[length] = tally.get(length, 0) + 1
        assert tally == {L: _orbits_of_length(q ** g, L)
                         for L in range(1, e // g + 1) if e // g % L == 0}
        assert faltings._walk_is_whole(amb, e, g)


def test_reconstruction_fails_on_a_block_off_x(monkeypatch):
    # diag11_f2, x1 + x2 at (1, 1), with the point (1, 0), not on X, added
    # to the listing: at d = 1 Y has no links, so its chain is kept, and
    # only the check that each block lies on X can refuse it
    listing = faltings.enumerate_orbit_points

    def with_stray_point(*args, **kwargs):
        return listing(*args, **kwargs) + [((1, 0), 1)]

    monkeypatch.setattr(faltings, "enumerate_orbit_points", with_stray_point)
    rep = lemma_check(V(2, 1, 2, ["x1 + x2"], (1, 1)), 2)
    assert [(e.a, e.k) for e in rep.entries] == [(1, 1), (1, 2)]
    assert not rep.reconstruction_ok


def test_reconstruction_fails_on_blocks_out_of_order(monkeypatch):
    # the plane at (1, 3): every chain lies on X, and a chain whose second
    # coordinate is outside F_q is not constant, so reversing its d = 3
    # blocks breaks y_j = Frob^k(y_(j - a)) while both counts stay equal
    found = faltings._twisted_fixed_points

    def reversed_blocks(*args, **kwargs):
        return {a: [(y[::-1], length) for y, length in pairs]
                for a, pairs in found(*args, **kwargs).items()}

    monkeypatch.setattr(faltings, "_twisted_fixed_points", reversed_blocks)
    rep = lemma_check(V(2, 1, 2, [], (1, 3)), 1)
    assert rep.passed
    assert not rep.reconstruction_ok


def _listing_spy(monkeypatch):
    """The ambient degree N of every `enumerate_orbit_points` call, in
    order; listing Y, or all of X, fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("Y or all of X listed")

    for name in ("join", "enumerate_points", "enumerate_y_points"):
        assert not hasattr(faltings, name)
    monkeypatch.setattr(counting, "join", refuse)
    monkeypatch.setattr(counting, "enumerate_points", refuse)
    calls = []
    listing = faltings.enumerate_orbit_points

    def spy(X, ambient, *args, **kwargs):
        calls.append(ambient.N)
        return listing(X, ambient, *args, **kwargs)

    monkeypatch.setattr(faltings, "enumerate_orbit_points", spy)
    return calls


def morphisms_of(X, *maps):
    """One morphism, its components in X's variables, per list of
    component texts."""
    names, base = [f"x{i+1}" for i in range(X.n)], base_field(X.p, X.s)
    return tuple(tuple(parse_poly(t, names, base) for t in f) for f in maps)


def squaring_line():
    """The affine line at profile (2,) with f_1 the squaring map."""
    X = V(2, 1, 1, [], (2,))
    return X, morphisms_of(X, ["x1^2"])


def diagonal_23_with_square():
    """x1 + x2 = 0 at profile (2, 3) with f = (x1, x2^2)."""
    X = V(2, 1, 2, ["x1 + x2"], (2, 3))
    return X, morphisms_of(X, ["x1"], ["x2^2"])


def graph_variety(X, morphisms):
    """Gamma_f = {(x, y) : x in X, y_i = f_i(x)} at profile
    (d,...,d, d_1,...,d_n), d = X.D: the fibred product of X at level d
    and one affine vertex per f_i at X's profile entry d_i, one edge per
    f_i.  Its partial count is #{x in X(F_(q^(dk))) : f_i(x) in
    F_(q^(d_i k))}, the lemma's count for the f_i."""
    vertices = [GraphVertex("x", X.n, X.equations, X.D)]
    vertices += [GraphVertex(f"y{i}", len(f), (), di)
                 for i, (f, di) in enumerate(zip(morphisms, X.profile))]
    edges = [GraphEdge("x", f"y{i}", f) for i, f in enumerate(morphisms)]
    return fibred_product_reduce(GraphSystem(X.p, X.s, tuple(vertices),
                                             tuple(edges)))


def _entries_by_filter(X, morphisms, k_max):
    """(a, k, partial, fixed) from the oracle: X's points over
    F_(q^(dk)) listed in full, kept when each f_i(x) lies in
    F_(q^(d_i k)), and the filter over Y's full listing."""
    entries = []
    for k in range(1, k_max + 1):
        amb = field(X.p, X.s, X.D * k)
        partial = sum(
            all(amb.in_subfield(c.evaluate(x, amb), di * k)
                for f, di in zip(morphisms, X.profile) for c in f)
            for x in enumerate_points(X.equations, amb, [amb.N] * X.n))
        entries += [(a, k, partial, len(fixed_by_filter(X, morphisms, a, k)))
                    for a in twists(X.D)]
    return entries


def _entries(rep):
    return [(e.a, e.k, e.partial, e.fixed) for e in rep.entries]


def test_lemma_check_with_morphisms(monkeypatch):
    # f_1 the squaring map on the affine line: points of X with f_1(x) in
    # F_{q^{2k}} -- squaring is injective in characteristic 2.  The lemma
    # for f_1 is the lemma on Gamma_f, x1^2 + x2 at (2, 2), whose fixed
    # points come from one listing of its orbit representatives per k;
    # neither Y nor all of Gamma_f is listed
    X, morphisms = squaring_line()
    want = _entries_by_filter(X, morphisms, 2)
    assert want == [(1, 1, 4, 4), (1, 2, 16, 16)]
    calls = _listing_spy(monkeypatch)
    rep = lemma_check(graph_variety(X, morphisms), 2)
    assert calls == [2, 4]
    assert _entries(rep) == want
    assert rep.passed and rep.reconstruction_ok


def test_lemma_check_with_two_morphisms_lists_points_once_per_k(monkeypatch):
    # Gamma_f's partial count prices its y-coordinates' tuples too,
    # 2^34 of them at k = 2, past the default budget
    X, morphisms = diagonal_23_with_square()
    want = _entries_by_filter(X, morphisms, 2)
    assert want == [(1, 1, 2, 2), (5, 1, 2, 2), (1, 2, 4, 4), (5, 2, 4, 4)]
    calls = _listing_spy(monkeypatch)
    rep = lemma_check(graph_variety(X, morphisms), 2, 10 ** 11)
    assert calls == [6, 12]
    assert _entries(rep) == want
    assert rep.passed and rep.reconstruction_ok


@pytest.mark.parametrize("X, maps, want", [
    (V(2, 1, 2, ["x1*x2 + 1"], (1, 2)), (["x1 + x2"], ["x2^3"]),
     [(1, 1, 3, 3), (1, 2, 7, 7)]),
    (V(3, 1, 2, ["x1^2 + x2"], (1, 2)), (["x1", "x1*x2"], ["x2 + 1"]),
     [(1, 1, 3, 3), (1, 2, 9, 9)]),
], ids=["hyperbola_12", "parabola_12_f3"])
def test_lemma_check_on_graph_varieties(X, maps, want):
    # a morphism of two components, and f_i that are not coordinates
    morphisms = morphisms_of(X, *maps)
    assert _entries_by_filter(X, morphisms, 2) == want
    rep = lemma_check(graph_variety(X, morphisms), 2)
    assert _entries(rep) == want
    assert rep.passed and rep.reconstruction_ok


def test_report_json_shape(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": 2,
                                "equations": ["x1 + x2"], "profile": [1, 2]}))
    assert main(["faltings", str(path), "--k-max", "1"]) == 0
    d = json.loads(capsys.readouterr().out)["outputs"]["lemma"]
    assert d["passed"] is True
    assert {"a", "k", "partial_count", "fixed_point_count", "equal"} \
        <= set(d["entries"][0])


# ---------------------------------------------------------------------------
# the join against Y's own equations
# ---------------------------------------------------------------------------

def y_by_equations(X, morphisms, k):
    """Y's points from its equations on the counting engine, in blocks."""
    d, n = X.D, X.n
    amb = field(X.p, X.s, d * k)
    Y = y_variety(X, morphisms)
    pts = enumerate_points(Y.equations, amb, [amb.N] * Y.n)
    return [tuple(pt[j * n:(j + 1) * n] for j in range(d)) for pt in pts]


@pytest.mark.parametrize("name", VARIETIES)
def test_y_join_matches_y_equations(name):
    X, _, _ = load_instance(str(CORPUS / f"{name}.json"), "variety")
    for k in (1, 2) if X.D * X.n <= 4 else (1,):
        assert enumerate_y_points(X, None, k) == y_by_equations(X, None, k)


@pytest.mark.parametrize("k", [1, 2])
def test_y_join_matches_y_equations_with_morphisms(k):
    # the morphism case of test_lemma_check_with_morphisms
    X, morphisms = squaring_line()
    assert (enumerate_y_points(X, morphisms, k)
            == y_by_equations(X, morphisms, k))


# ---------------------------------------------------------------------------
# the fixed points against a filter over Y's full listing
# ---------------------------------------------------------------------------

def fixed_by_filter(X, morphisms, a, k, budget=DEFAULT_BUDGET):
    """The points of Y's listing that sigma^a(Frob^k(y)) sends to y."""
    frob = field(X.p, X.s, X.D * k).frob
    return [y for y in enumerate_y_points(X, morphisms, k, budget=budget)
            if sigma_apply(tuple(tuple(frob(x, k) for x in b) for b in y), a)
            == y]


def twists(d):
    return [a for a in range(1, d + 1) if gcd(a, d) == 1]


# (p, s, profile, k) with n <= 2 and at most 2^12 tuples of X over
# F_{q^{Dk}}: listing X scans up to q^{Dk n} tuples
FALTINGS_CASES = [(p, s, prof, k)
                  for p in (2, 3) for s in (1, 2) for n in (1, 2)
                  for prof in product((1, 2, 3), repeat=n) for k in (1, 2)
                  if (p ** s) ** (k * lcm(*prof) * n) <= 2 ** 12]


@settings(max_examples=100, deadline=None)
@given(varieties(FALTINGS_CASES))
def test_fixed_points_match_filter_on_random_varieties(case):
    X, k = case
    for a in twists(X.D):
        try:
            want = fixed_by_filter(X, None, a, k, budget=2 ** 15)
        except BudgetExceededError:
            reject()  # Y too large for the oracle to list
        assert fixed_points(X, a, k) == want


@pytest.mark.parametrize("name", VARIETIES)
def test_fixed_points_match_filter_on_corpus(name):
    X, _, _ = load_instance(str(CORPUS / f"{name}.json"), "variety")
    for k, a in product((1, 2), twists(X.D)):
        assert fixed_points(X, a, k) == fixed_by_filter(X, None, a, k)


CHOSEN = {
    "squaring_line": squaring_line(),
    "diagonal_23_with_square": diagonal_23_with_square(),
    # d = 5, where twists 2 and 3 are each other's inverse, unlike every
    # twist mod 1, 2, 3, 4 or 6: the five roots of an irreducible quintic
    "quintic": (V(2, 1, 1, ["x1^5 + x1^2 + 1"], (5,)), None),
    # ... and with x2 their common trace, tied across the blocks
    "quintic_trace": (V(2, 1, 2, ["x1^5 + x1^2 + 1",
                                  "x2 + x1 + x1^2 + x1^4 + x1^8 + x1^16"],
                        (5, 1)), None),
}


@pytest.mark.parametrize("name", CHOSEN)
def test_fixed_points_match_filter_on_chosen_specs(name):
    # with morphisms, Gamma_f's fixed points cut to X's coordinates
    X, morphisms = CHOSEN[name]
    G = X if morphisms is None else graph_variety(X, morphisms)
    for k, a in product((1, 2), twists(X.D)):
        fixed = sorted(tuple(b[:X.n] for b in y)
                       for y in fixed_points(G, a, k))
        assert fixed  # the comparison below is not vacuous
        assert fixed == fixed_by_filter(X, morphisms, a, k)


# ---------------------------------------------------------------------------
# Y's equations are permuted by the block rotation
# ---------------------------------------------------------------------------

def test_sigma_stability_sees_a_missing_equation():
    X = V(2, 1, 2, ["x1 + x2"], (2, 3))
    Y = y_variety(X)
    assert sigma_stable(X, Y)
    # without block 0's copy of x1 + x2, block 5's rotates out of the set
    assert not sigma_stable(X, VarietySpec(Y.p, Y.s, Y.n, Y.equations[1:],
                                              Y.profile))


@pytest.mark.parametrize("name", VARIETIES)
def test_y_stable_under_sigma_on_corpus(name):
    X, _, _ = load_instance(str(CORPUS / f"{name}.json"), "variety")
    assert sigma_stable(X, y_variety(X))


@pytest.mark.parametrize("name", CHOSEN)
def test_y_stable_under_sigma_on_chosen_specs(name):
    X, morphisms = CHOSEN[name]
    assert sigma_stable(X, y_variety(X, morphisms))


@settings(max_examples=100, deadline=None)
@given(varieties(FALTINGS_CASES))
def test_y_stable_under_sigma_on_random_varieties(case):
    X = case[0]
    assert sigma_stable(X, y_variety(X))


def test_lemma_check_never_lists_y(monkeypatch):
    # the fixed points come from one listing of X's
    # orbit representatives per k, walked along Frobenius chains; Y is
    # never joined or listed, and X is never listed in full
    calls = _listing_spy(monkeypatch)
    rep = lemma_check(V(2, 1, 2, ["x1 + x2"], (2, 3)), 2)
    assert calls == [6, 12]
    assert rep.passed and rep.reconstruction_ok


def _build_spy(mp):
    """The names of the `faltings.field` and
    `faltings.enumerate_orbit_points` calls, in order."""
    calls = []
    for name in ("field", "enumerate_orbit_points"):
        def spy(*args, _name=name, _real=getattr(faltings, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        mp.setattr(faltings, name, spy)
    return calls


@settings(max_examples=200, deadline=None)
@given(varieties(),
       st.sampled_from([None, "x1 + 1", "x1^3 + x1 + 1", "1"]), st.data())
def test_listing_refused_from_its_field_size_alone(case, extra, data):
    # a level's orbit listing is refused from x_1's q^(Dk) values alone,
    # whatever the equations, before its field is built or searched;
    # ``extra`` adds an equation that closes at x_1 alone, or a nonzero
    # constant, which leave x_1 with fewer nodes than values
    X, k = case
    if extra is not None:
        names = [f"x{i+1}" for i in range(X.n)]
        eq = parse_poly(extra, names, base_field(X.p, X.s))
        X = VarietySpec(X.p, X.s, X.n, (eq,) + X.equations, X.profile)
    size = (X.p ** X.s) ** (X.D * k)
    # a budget at or past the field size runs the listing, whose scans of
    # x_2, ... the budget does not bound: only over at most 2^8 elements,
    # so that one draw takes well under a second
    budget = data.draw(st.integers(1, 2 * size if size <= 2 ** 8
                                   else size - 1))
    with pytest.MonkeyPatch.context() as mp:
        calls = _build_spy(mp)
        if size > budget:
            with pytest.raises(BudgetExceededError) as info:
                _orbit_listing(X, k, budget)
            assert info.value.cost == size
            assert str(info.value).endswith(
                f"(enumerate_orbit_points k={k})")
            assert calls == []
        else:
            try:
                _orbit_listing(X, k, budget)
            except BudgetExceededError as err:
                assert str(err).endswith("(variety enumeration)")
            assert calls == ["field", "enumerate_orbit_points"]

