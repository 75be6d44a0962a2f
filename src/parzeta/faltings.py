"""The cyclic-shift fixed-point variety and its counting identity.

Given X with profile (d_1,...,d_n) and d = lcm, the subvariety Y of X^d is
cut out by identifying the i-th coordinate of block j with that of block
j + d_i (indices mod d); Y is stable under the block rotation sigma, and
for every a coprime to d the fixed points of sigma^a composed with the
k-th Frobenius power biject with the partial-count points at level k.
The lemma for morphisms f_i, which tie block j to block j + d_i by equal
images under f_i, is this one on the graph variety
Gamma_f = {(x, y) : x in X, y_i = f_i(x)} at profile (d,...,d, d_1,...,d_n):
its partial count is #{x in X(F_{q^{dk}}) : f_i(x) in F_{q^{d_i k}}}, and
``graphs.fibred_product_reduce`` builds it from the graph with X a vertex
at level d, one affine vertex per f_i at level d_i and one edge per f_i.
This module finds those fixed points by walking Frobenius chains along
Y's links, ``_y_links``, and verifies the equality and the per-point
reconstruction bijection: each chain's blocks lie on X, by evaluation,
and obey y_j = Frob^k(y_{j-a}).  Y's equations are never built.  Per
level it lists only X's points whose first coordinate is the least
member of its orbit under Frobenius x -> x^q.  Each such point starts
one chain, computed only as far as Y's links ask for it, and Frobenius,
which commutes with the whole construction, carries each fixed point
found to L of them, L the degree over F_q of its first coordinate; so
the count sums L, and neither Y nor all of X is listed.
L is decided by powering, ``Field.in_subfield``, not taken from the
orbit walk whose lengths weight the partial count, so a wrong length
from the walk makes the two sides differ.  The representatives
themselves, which x_1 values start a chain, still come from that walk,
as do the partial count's: each of its bound levels walks its
variable's subfield inside its plan's count field, a smaller field
whenever the bound variables' profile entries have an lcm below d, by
the orbits of x -> x^(q^g), g the gcd of the level's degree and its
prefix's orbit length (g = 1 at the first level).  A level that the
partial count sums by root counts reads no walk, and where it reads
none a wrong length shows only in the listing's tally.  A walk that
skips an orbit mostly shows as unequal sides (``x1*x2 + 1`` at profile
(1, 2)), but not always: on ``x1 + x2`` at (2, 3) both sides drop the
same representative and still agree, and an orbit of values that an
equation prunes anyway changes no count.  So a level passes only when
each walk it read, the listing's and every one of the partial count's,
also has M_(q^g)(L) orbits of each length L dividing e/g, e its degree
and g its step, ``_walk_is_whole``, a count that shares no code with
the walk.  What stays shared is which member of an orbit represents it,
which neither count depends on.
``lemma_check`` is the one entry: it builds each level's listing, whose
field every step of the level but the partial count reads, and reports
counts, with ``witness_count`` the fixed points of the mismatched
entries, at most 10; no point is expanded to its conjugates.  Each side
checks its own cost before it builds F_{q^{dk}}: the partial count's
check comes first, then the listing refuses x_1's q^{dk} values over
the budget, whatever the equations, and only then is the field built.
Y's equations, their stability under sigma, and Y's full listing, a join
of d copies of X's points listed by the plain search over every value of
x_1, are the tests' oracle; they share no orbit reduction with the fixed
points they check, which the tests expand from ``lemma_check``'s path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .counting import (DEFAULT_BUDGET, check_cost, enumerate_orbit_points,
                       partial_count, partial_count_check)
from .fields import field
from .polys import VarietySpec


def _y_links(profile, d: int):
    """Y's links (j, i, j2): blocks j and j2 = j + d_i (mod d) have equal
    i-th coordinates, for each profile entry d_i and each j it moves."""
    return [(j, i, (j + di) % d)
            for i, di in enumerate(profile)
            for j in range(d) if (j + di) % d != j]


# ---------------------------------------------------------------------------
# fixed points and the counting identity
# ---------------------------------------------------------------------------

def _orbit_listing(X: VarietySpec, k: int, budget: int):
    """(amb, reps): the level's one field F_{q^{Dk}} and X's
    ``enumerate_orbit_points`` over it.  Refused from x_1's q^{Dk} values
    before that field is built."""
    check_cost(X.p ** X.s, X.D * k, budget, f"enumerate_orbit_points k={k}")
    amb = field(X.p, X.s, X.D * k)
    return amb, enumerate_orbit_points(X, amb, budget=budget)


def _twisted_fixed_points(X: VarietySpec, listing):
    """For each twist a <= d coprime to d, the points y of Y over
    F_{q^{dk}} with sigma^a(Frob^k(y)) = y whose first block is one of
    ``listing``'s points, as lex-sorted pairs (y, L), L the degree of
    y_0's first coordinate over F_q, once per kept chain; the others are
    the Frob^s(y), 0 < s < L.  ``listing`` is `_orbit_listing`'s result
    for level k, which is read from it as k = N/d, F_{q^N} its field.

    The equation reads y_j = Frob^k(y_{j-a}) for every block j.  With a
    coprime to d this is y_{ma} = F^m(y_0) for m = 0..d-1, F = Frob^k;
    the chain closes because Frob^{dk} fixes F_{q^{dk}}.  So each listed
    y_0 starts one candidate per twist, kept when its chain meets Y's
    links.  The chain's i-th coordinates are the F^m of y_0's; each is
    computed when a link first asks for it and shared by the twists, and
    the whole chain is built once, for the first twist that keeps it.
    Frobenius commutes with sigma^a, F and Y's links, so it carries the
    fixed points over y_0 onto those over each conjugate of y_0.  Y
    itself is never listed.
    """
    d = X.D
    r = len(X.profile)
    amb, reps = listing
    k = amb.N // d
    frob = amb.frob
    # block j holds F^m(y_0) for m = j / a (mod d); a link (j, i, j2)
    # compares the slots m_j r + i and m_j2 r + i, coordinate i of
    # F^m(y_0), each slot with its i and its power e = k m of Frobenius
    m_of, tests = {}, {}
    for a in [a for a in range(1, d + 1) if gcd(a, d) == 1]:  # the twists
        m = m_of[a] = [j * pow(a, -1, d) % d for j in range(d)]
        tests[a] = [(m[j] * r + i, i, k * m[j], m[j2] * r + i, k * m[j2])
                    for j, i, j2 in _y_links(X.profile, d)]
    # a kept chain counts the degree over F_q of y_0's first coordinate,
    # decided by powering: the orbit walk's lengths weight the partial
    # count's side, so this side does not take them from it
    divisors = [e for e in range(1, amb.N + 1) if amb.N % e == 0]
    out = {a: [] for a in tests}
    for y0, _ in reps:
        seen = [None] * (d * r)
        seen[:r] = y0
        chain = None  # F^m(y_0), m < d, built once for the twists keeping it
        for a, links in tests.items():
            for s, i, e, t, et in links:
                u = seen[s]
                if u is None:
                    u = seen[s] = frob(seen[i], e)
                v = seen[t]
                if v is None:
                    v = seen[t] = frob(seen[i], et)
                if u != v:
                    break
            else:
                if chain is None:
                    chain = [tuple(frob(c, k * m) for c in y0)
                             for m in range(d)]
                    L = next(j for j in divisors if amb.in_subfield(y0[0], j))
                out[a].append((tuple(chain[m] for m in m_of[a]), L))
    return out


def _walk_is_whole(amb, e: int, g: int = 1) -> bool:
    """Whether ``amb.frobenius_orbits(e, g)``, the orbits of x -> x^Q,
    Q = q^g, on F_{q^e} = F_{Q^(e/g)}, lists for each L dividing e/g
    M_Q(L) orbits of length L and no other: M_Q(L) is the number of monic
    irreducibles of degree L over F_Q (Gauss; Lidl and Niederreiter,
    *Finite Fields*, Thm 3.25), here L M_Q(L) = Q^L minus the elements of
    each smaller degree j dividing L."""
    exact = {}  # L -> the elements of F_{q^e} of degree exactly L over F_Q
    for L in range(1, e // g + 1):
        if e // g % L == 0:
            exact[L] = amb.q ** (g * L) - sum(n for j, n in exact.items()
                                              if L % j == 0)
    return Counter(L for _, L in amb.frobenius_orbits(e, g)) == {
        L: n // L for L, n in exact.items()}


@dataclass(frozen=True)
class LemmaEntry:
    a: int
    k: int
    partial: int
    fixed: int

    @property
    def equal(self):
        return self.partial == self.fixed


@dataclass(frozen=True)
class LemmaReport:
    d: int
    entries: tuple
    passed: bool
    reconstruction_ok: bool
    witness_count: int  # mismatched fixed points, at most 10


def lemma_check(X: VarietySpec, k_max: int,
                budget: int = DEFAULT_BUDGET) -> LemmaReport:
    """Compare the partial count with the fixed-point count for all valid a;
    ``passed`` also asks each Frobenius walk a level read to pass
    ``_walk_is_whole``.  For morphisms f_i, pass their graph variety
    Gamma_f (the module docstring)."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    d = X.D
    entries = []
    witness_count = 0
    recon_ok = walks_ok = True
    for k in range(1, k_max + 1):
        # both checks precede F_{q^{dk}}: the count's whole (tuples, leaf
        # degree) here, the listing's inside it; partial_count then counts
        # in its own smaller field after the listing, the twists past both
        plan = partial_count_check(X, k, budget)
        # one listing of X's orbit representatives per level, for the chains
        listing = _orbit_listing(X, k, budget)
        lhs = partial_count(X, k, budget=budget)
        # the walks the level read, replayed (a field keeps only a finished
        # walk): the listing's at F_{q^{dk}}'s N, and the partial count's at
        # its plan's bound degrees in its count field, with any step
        amb = listing[0]
        count = field(X.p, X.s, plan.field_degree)
        walked = {(amb, amb.N)} | {(count, e) for e in plan.degrees}
        frob = amb.frob
        walks_ok = walks_ok and all(
            _walk_is_whole(F, e, g) for F in {F for F, _ in walked}
            for e, g in list(F._orbit_cache) if (F, e) in walked)
        found = _twisted_fixed_points(X, listing)
        # reconstruction bijection, checked on the chains; Frobenius carries
        # it to their conjugates.  Every distinct block is a point of X ...
        blocks = {b for pairs in found.values() for y, _ in pairs for b in y}
        recon_ok = recon_ok and not any(eq.evaluate(b, amb) for b in blocks
                                        for eq in X.equations)
        for a, pairs in found.items():
            fixed = sum(length for _, length in pairs)
            entries.append(LemmaEntry(a, k, lhs, fixed))
            if lhs != fixed:
                witness_count = min(10, witness_count + fixed)
            # ... and sigma^a(Frob^k(y)) = y: y_j = Frob^k(y_{j-a}) for all j
            recon_ok = recon_ok and all(
                y[j] == tuple(frob(c, k) for c in y[(j - a) % d])
                for y, _ in pairs for j in range(d))
    passed = walks_ok and all(e.equal for e in entries)
    return LemmaReport(d, tuple(entries), passed, recon_ok, witness_count)
