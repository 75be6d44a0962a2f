"""The cyclic-shift fixed-point variety and its counting identity.

Given X with profile (d_1,...,d_n) and d = lcm, the subvariety Y of X^d is
cut out by identifying the image under f_i of block j with that of block
j + d_i (indices mod d), f_i the i-th coordinate when no morphisms are
given; Y is stable under the block rotation sigma, and for every a
coprime to d the fixed points of sigma^a composed with the k-th
Frobenius power biject with the partial-count points at level k.
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
as do the partial count's, over the subfield of its first bound
variable inside ``counting.count_field``, a smaller field whenever the
bound variables' profile entries have an lcm below d; a partial count
that sums that variable's level by root counts reads no walk, and then
a wrong length shows only in the listing's tally.  A walk that skips
an orbit mostly shows as unequal sides (``x1*x2 + 1`` at profile
(1, 2)), but not always: on ``x1 + x2`` at (2, 3) both sides drop the
same representative and still agree.  So a
level passes only when each walk it read also has M_q(L) orbits of
each length L dividing its degree, ``_walk_is_whole``, a count that
shares no code with the walk.  What stays shared is which member of an
orbit represents it, which neither count depends on.
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

from .counting import (DEFAULT_BUDGET, check_cost, count_field,
                       enumerate_orbit_points, partial_count,
                       partial_count_check)
from .fields import field
from .polys import VarietySpec


def _y_links(profile, d: int):
    """Y's links (j, i, j2): blocks j and j2 = j + d_i (mod d) have equal
    images under f_i, for each profile entry d_i and each j it moves."""
    return [(j, i, (j + di) % d)
            for i, di in enumerate(profile)
            for j in range(d) if (j + di) % d != j]


# ---------------------------------------------------------------------------
# fixed points and the counting identity
# ---------------------------------------------------------------------------

def _orbit_listing(X: VarietySpec, k: int, morphisms, budget: int):
    """(amb, reps, images): the level's one field F_{q^{Dk}}, X's
    ``enumerate_orbit_points`` over it and, with ``morphisms``, the points'
    images under each f_i (None for the coordinate projections).  Refused
    from x_1's q^{Dk} values before that field is built."""
    check_cost(X.p ** X.s, X.D * k, budget, f"enumerate_orbit_points k={k}")
    amb = field(X.p, X.s, X.D * k)
    reps = enumerate_orbit_points(X.equations, X.n, amb, X.base,
                                  budget=budget)
    if morphisms is None:
        return amb, reps, None
    return amb, reps, [[f.apply(pt, amb) for pt, _ in reps] for f in morphisms]


def _twisted_fixed_points(X: VarietySpec, k: int, twists, listing):
    """For each a in ``twists``, the points y of Y over F_{q^{dk}} with
    sigma^a(Frob^k(y)) = y whose first block is one of ``listing``'s
    points, ``listing`` being `_orbit_listing`'s result for level k, as
    lex-sorted pairs (y, L), L the degree of y_0's first coordinate over
    F_q, once per kept chain; the others are the Frob^s(y), 0 < s < L.

    The equation reads y_j = Frob^k(y_{j-a}) for every block j.  With a
    coprime to d this is y_{ma} = F^m(y_0) for m = 0..d-1, F = Frob^k;
    the chain closes because Frob^{dk} fixes F_{q^{dk}}.  So each listed
    y_0 starts one candidate per twist, kept when its chain meets Y's
    links.  The chain's images under f_i are the F^m of f_i(y_0), f_i
    being defined over F_q; each is computed when a link first asks for
    it and shared by the twists, and the whole chain is built once, for
    the first twist that keeps it.  Frobenius commutes with sigma^a, F and Y's links, so
    it carries the fixed points over y_0 onto those over each conjugate
    of y_0.  Y itself is never listed.
    """
    d = X.D
    r = len(X.profile)
    amb, reps, images = listing
    frob = amb.frob
    if images is None:
        move = frob
    else:
        def move(w, e):
            return tuple(frob(v, e) for v in w)
    # block j holds F^m(y_0) for m = j / a (mod d); a link (j, i, j2)
    # compares the slots m_j r + i and m_j2 r + i of f_i(F^m(y_0)), each
    # slot with its i and its power e = k m of Frobenius
    m_of, tests = {}, {}
    for a in twists:
        m = m_of[a] = [j * pow(a, -1, d) % d for j in range(d)]
        tests[a] = [(m[j] * r + i, i, k * m[j], m[j2] * r + i, k * m[j2])
                    for j, i, j2 in _y_links(X.profile, d)]
    # a kept chain counts the degree over F_q of y_0's first coordinate,
    # decided by powering: the orbit walk's lengths weight the partial
    # count's side, so this side does not take them from it
    divisors = [e for e in range(1, d * k + 1) if d * k % e == 0]
    out = {a: [] for a in twists}
    for x, (y0, _) in enumerate(reps):
        seen = [None] * (d * r)
        seen[:r] = y0 if images is None else [f[x] for f in images]
        chain = None  # F^m(y_0), m < d, built once for the twists keeping it
        for a, links in tests.items():
            for s, i, e, t, et in links:
                u = seen[s]
                if u is None:
                    u = seen[s] = move(seen[i], e)
                v = seen[t]
                if v is None:
                    v = seen[t] = move(seen[i], et)
                if u != v:
                    break
            else:
                if chain is None:
                    chain = [tuple(frob(c, k * m) for c in y0)
                             for m in range(d)]
                    L = next(j for j in divisors if amb.in_subfield(y0[0], j))
                out[a].append((tuple(chain[m] for m in m_of[a]), L))
    return out


def _walk_is_whole(amb, e: int) -> bool:
    """Whether ``amb.frobenius_orbits(e)`` lists, for each L dividing e,
    M_q(L) orbits of length L and no other: M_q(L) is the number of monic
    irreducibles of degree L over F_q (Gauss; Lidl and Niederreiter,
    *Finite Fields*, Thm 3.25), here L M_q(L) = q^L minus the elements of
    each smaller degree j dividing L."""
    exact = {}  # L -> the elements of F_{q^e} of degree exactly L over F_q
    for L in range(1, e + 1):
        if e % L == 0:
            exact[L] = amb.q ** L - sum(n for j, n in exact.items()
                                        if L % j == 0)
    return Counter(L for _, L in amb.frobenius_orbits(e)) == {
        L: n // L for L, n in exact.items()}


def morphism_partial_count(X: VarietySpec, k: int, listing) -> int:
    """#{x in X(F_{q^{dk}}) : f_i(x) has coordinates in F_{q^{d_i k}}}.

    Complete only when (f_1,...,f_n) is an embedding; that hypothesis is
    the caller's obligation.  Subfield membership is Frobenius-invariant
    and f_i commutes with Frobenius, so each listed orbit representative
    counts its orbit's length.  ``listing`` is `_orbit_listing`'s result
    for level k, with its field and the morphisms' images.
    """
    amb, reps, images = listing
    return sum(length for x, (_, length) in enumerate(reps)
               if all(amb.in_subfield(v, di * k)
                      for di, f_images in zip(X.profile, images)
                      for v in f_images[x]))


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

    def to_json_dict(self):
        return {
            "d": self.d,
            "passed": self.passed,
            "reconstruction_ok": self.reconstruction_ok,
            "entries": [
                {"a": e.a, "k": e.k, "partial_count": e.partial,
                 "fixed_point_count": e.fixed, "equal": e.equal}
                for e in self.entries
            ],
            "witness_count": self.witness_count,
        }


def lemma_check(X: VarietySpec, k_max: int, morphisms=None,
                budget: int = DEFAULT_BUDGET) -> LemmaReport:
    """Compare the partial count with the fixed-point count for all valid a;
    ``passed`` also asks each Frobenius walk a level read to pass
    ``_walk_is_whole``.

    ``morphisms`` are the f_i, one per profile entry, each a map from X's
    n variables with coefficients in X's base field, else ``ValueError``;
    None means the coordinate projections."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if morphisms is not None:
        morphisms = tuple(morphisms)
        if len(morphisms) != len(X.profile):
            raise ValueError("need one morphism per profile entry")
        for f in morphisms:
            if f.n_in != X.n:
                raise ValueError(f"a morphism takes {f.n_in} variables, "
                                 f"X has {X.n}")
            if any(c.base is not X.base for c in f.components):
                raise ValueError("a morphism has coefficients outside "
                                 "X's base field")
    d = X.D
    entries = []
    witness_count = 0
    recon_ok = walks_ok = True
    for k in range(1, k_max + 1):
        # both checks precede F_{q^{dk}}: the count's whole (tuples, leaf
        # degree) here, the listing's inside it; partial_count then counts
        # in its own smaller field after the listing, the twists past both
        if morphisms is None:
            partial_count_check(X, k, budget)
        # one listing of X's orbit representatives per level; the chains
        # walk it, and with morphisms the left side filters it by subfield
        listing = _orbit_listing(X, k, morphisms, budget)
        twists = [a for a in range(1, d + 1) if gcd(a, d) == 1]
        amb = listing[0]
        if morphisms is None:
            lhs = partial_count(X, k, budget=budget)
            read = {amb, count_field(X, k)}
        else:
            lhs = morphism_partial_count(X, k, listing)
            read = {amb}
        frob = amb.frob
        # the walks the level read, the listing's over F_{q^{dk}} and the
        # partial count's over its first bound variable's F_{q^{d_i k}}
        # inside ``count_field``, replayed: a field keeps a walk only once
        # it has ended, so one it does not keep was not read
        walks_ok = walks_ok and all(
            _walk_is_whole(F, e) for F in read
            for e in {F.N, *(di * k for di in X.profile)}
            if e in F._orbit_cache)
        found = _twisted_fixed_points(X, k, twists, listing)
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
