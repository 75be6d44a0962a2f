"""The cyclic-shift fixed-point variety and its counting identity.

Given X with profile (d_1,...,d_n) and d = lcm, the subvariety Y of X^d is
cut out by identifying coordinate i of block j with coordinate i of block
j + d_i (indices mod d); Y is stable under the block rotation sigma, and
for every a coprime to d the fixed points of sigma^a composed with the
k-th Frobenius power biject with the partial-count points at level k.
This module builds Y, finds those fixed points by walking Frobenius
chains through one listing of X's points per level (Y is never listed),
and verifies the equality and the per-point reconstruction bijection.
Y's full listing, a join of d copies of X's points, is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .counting import (DEFAULT_BUDGET, enumerate_points, join, partial_count,
                       partial_count_check)
from .fields import Field, field
from .polys import SparsePoly, VarietySpec


@dataclass(frozen=True)
class FaltingsSpec:
    X: VarietySpec
    d: int
    block_size: int          # coordinates per block (n of X)
    Y: VarietySpec           # in d * block_size variables
    morphisms: tuple = None  # one MorphismSpec per profile entry; None for
                             # the coordinate projections


def h_index(a: int, d: int, j: int) -> int:
    """The unique h in [0, d) with a*h + 1 = j (mod d)."""
    if gcd(a, d) != 1:
        raise ValueError(f"a = {a} is not coprime to d = {d}")
    if not 1 <= j <= d:
        raise ValueError("j must lie in 1..d")
    return ((j - 1) * pow(a, -1, d)) % d


def sigma_apply(blocks, a: int):
    """sigma^a: one step sends (y_1,...,y_d) to (y_d, y_1,...,y_{d-1})."""
    d = len(blocks)
    return tuple(blocks[(j - a) % d] for j in range(d))


def _slot(j: int, i: int, n: int) -> int:
    return j * n + i


def build_faltings(X: VarietySpec, morphisms=None) -> FaltingsSpec:
    """Construct Y inside X^d with its identification equations.

    With no morphisms the f_i are the coordinate projections, so the
    identifications are slot equalities; with morphisms they are
    componentwise polynomial identities.  Either way the resulting
    equation set is checked to be permuted by the block rotation.
    """
    d = X.D
    n = X.n
    dn = d * n
    if morphisms is not None:
        morphisms = tuple(morphisms)
        if len(morphisms) != len(X.profile):
            raise ValueError("need one morphism per profile entry")
    blocks = [{v: _slot(j, v, n) for v in range(n)} for j in range(d)]
    # d copies of X's equations, one per block
    equations = [eq.rename(blocks[j], dn) for j in range(d) for eq in X.equations]
    for i, di in enumerate(X.profile):
        comps = ((SparsePoly.var(n, X.base, i),) if morphisms is None
                 else morphisms[i].components)
        for j in range(d):
            j2 = (j + di) % d
            if j2 != j:
                equations.extend(c.rename(blocks[j], dn) - c.rename(blocks[j2], dn)
                                 for c in comps)
    Y = VarietySpec(X.p, X.s, dn, tuple(equations), (1,) * dn)
    spec = FaltingsSpec(X, d, n, Y, morphisms)
    _check_sigma_stability(spec)
    return spec


def _check_sigma_stability(spec: FaltingsSpec):
    """Rotating the blocks must permute Y's equation set."""
    d, n = spec.d, spec.block_size
    dn = d * n
    rot = {_slot(j, i, n): _slot((j + 1) % d, i, n)
           for j in range(d) for i in range(n)}
    eqset = set()
    for eq in spec.Y.equations:
        eqset.add(eq)
        eqset.add(-eq)  # equalities are sign-insensitive
    for eq in spec.Y.equations:
        r = eq.rename(rot, dn)
        if r not in eqset:
            raise ValueError("Y equation set is not stable under the shift")


# ---------------------------------------------------------------------------
# variety points
# ---------------------------------------------------------------------------

def variety_points(X: VarietySpec, ambient: Field, domains=None,
                   budget: int = DEFAULT_BUDGET):
    """X's points with coordinates in ``domains`` (sorted packed ints of
    ``ambient``; the whole field when None), lex-sorted int tuples."""
    return enumerate_points(X.equations, X.n, ambient, X.base,
                            domains=domains, budget=budget)


# ---------------------------------------------------------------------------
# Y enumeration
# ---------------------------------------------------------------------------

def _x_listing(X: VarietySpec, morphisms, amb: Field, budget: int):
    """X's points over ``amb`` and, per profile entry i, their images under
    f_i: the i-th coordinate when ``morphisms`` is None, else a tuple per
    point."""
    xpts = variety_points(X, amb, budget=budget)
    if morphisms is None:
        images = [[pt[i] for pt in xpts] for i in range(len(X.profile))]
    else:
        images = [[f.apply(pt, amb) for pt in xpts] for f in morphisms]
    return xpts, images


def _y_links(profile, d: int, images):
    """Y's links, as `join` takes them: block j and block j + d_i (mod d)
    have equal images under f_i, for each profile entry d_i and each j it
    moves."""
    return [(j, f, (j + di) % d, f)
            for di, f in zip(profile, images)
            for j in range(d) if (j + di) % d != j]


def enumerate_y_points(spec: FaltingsSpec, k: int, budget: int = DEFAULT_BUDGET,
                       listing=None):
    """Y's full listing: its points with all coordinates in F_{q^{dk}},
    lex-sorted.  The tests use it, and it is the oracle for the fixed
    points.

    X's points are listed once and joined d times over by Y's links.
    ``listing`` is `_x_listing`'s result for F_{q^{dk}}, when the caller
    already has it.
    """
    X, d = spec.X, spec.d
    if listing is None:
        listing = _x_listing(X, spec.morphisms, field(X.p, X.s, d * k), budget)
    xpts, images = listing
    links = _y_links(X.profile, d, images)
    return sorted(tuple(xpts[x] for x in ix)
                  for ix in join([len(xpts)] * d, links, budget, "Y enumeration"))


# ---------------------------------------------------------------------------
# fixed points and the counting identity
# ---------------------------------------------------------------------------

def _twisted_fixed_points(spec: FaltingsSpec, k: int, twists, budget: int,
                          listing=None):
    """For each a in ``twists``, the points y of Y over F_{q^{dk}} with
    sigma^a(Frob^k(y)) = y, lex-sorted.

    The equation reads y_j = Frob^k(y_{j-a}) for every block j.  With a
    coprime to d this is y_{ma} = F^m(y_0) for m = 0..d-1, F being Frob^k
    as a permutation of X's listing (X is defined over F_q); the chain
    closes because Frob^{dk} fixes F_{q^{dk}}.  So each listed point y_0
    starts one candidate per twist, kept when it meets Y's links.  Y
    itself is never listed.
    """
    X, d = spec.X, spec.d
    amb = field(X.p, X.s, d * k)
    if listing is None:
        listing = _x_listing(X, spec.morphisms, amb, budget)
    xpts, images = listing
    frob = amb.frob
    where = {pt: x for x, pt in enumerate(xpts)}
    # power[m][x]: the listing index of F^m(x)
    power = [range(len(xpts))]
    step = [where[tuple(frob(c, k) for c in pt)] for pt in xpts]
    for _ in range(d - 1):
        power.append([step[x] for x in power[-1]])
    links = _y_links(X.profile, d, images)
    out = {}
    for a in twists:
        # block j holds F^m(y_0) for m = j / a (mod d)
        inv = pow(a, -1, d)
        m_of = [j * inv % d for j in range(d)]
        kept = power[0]
        for j, f, j2, _ in links:
            p1, p2 = power[m_of[j]], power[m_of[j2]]
            kept = [x for x in kept if f[p1[x]] == f[p2[x]]]
        out[a] = sorted(tuple(xpts[power[m][x]] for m in m_of) for x in kept)
    return out


def fixed_points(spec: FaltingsSpec, a: int, k: int,
                 budget: int = DEFAULT_BUDGET):
    if gcd(a, spec.d) != 1:
        raise ValueError(f"a = {a} is not coprime to d = {spec.d}")
    return _twisted_fixed_points(spec, k, (a,), budget)[a]


def fixed_point_count(spec: FaltingsSpec, a: int, k: int,
                      budget: int = DEFAULT_BUDGET) -> int:
    return len(fixed_points(spec, a, k, budget=budget))


def morphism_partial_count(X: VarietySpec, morphisms, k: int,
                           budget: int = DEFAULT_BUDGET, listing=None) -> int:
    """#{x in X(F_{q^{dk}}) : f_i(x) has coordinates in F_{q^{d_i k}}}.

    Complete only when (f_1,...,f_n) is an embedding; that hypothesis is
    the caller's obligation.  ``listing`` is `_x_listing`'s result for
    F_{q^{dk}}, when the caller already has it.
    """
    amb = field(X.p, X.s, X.D * k)
    if listing is None:
        listing = _x_listing(X, morphisms, amb, budget)
    xpts, images = listing
    return sum(all(amb.in_subfield(v, di * k)
                   for di, f_images in zip(X.profile, images)
                   for v in f_images[x])
               for x in range(len(xpts)))


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
    witnesses: tuple  # first mismatched fixed points, if any

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
            "witness_count": len(self.witnesses),
        }


def lemma_check(X: VarietySpec, k_max: int, morphisms=None,
                budget: int = DEFAULT_BUDGET) -> LemmaReport:
    """Compare the partial count with the fixed-point count for all valid a."""
    if morphisms is None:  # the first count's refusal, before Y is built
        partial_count_check(X, 1, budget)
    spec = build_faltings(X, morphisms=morphisms)
    d = spec.d
    twists = [a for a in range(1, d + 1) if gcd(a, d) == 1]
    entries = []
    witnesses = []
    recon_ok = True
    for k in range(1, k_max + 1):
        if morphisms is None:
            listing = None
            lhs = partial_count(X, k, budget=budget)
        else:
            # one listing of X's points and images serves both sides: the
            # left filters it by subfield, the right walks Frobenius chains
            # through it
            listing = _x_listing(X, spec.morphisms, field(X.p, X.s, d * k),
                                 budget)
            lhs = morphism_partial_count(X, morphisms, k, budget=budget,
                                         listing=listing)
        frob = field(X.p, X.s, d * k).frob
        for a, fixed in _twisted_fixed_points(spec, k, twists, budget,
                                              listing).items():
            entries.append(LemmaEntry(a, k, lhs, len(fixed)))
            if lhs != len(fixed) and len(witnesses) < 10:
                witnesses.extend(fixed[:10 - len(witnesses)])
            # reconstruction bijection: y_j = Frob^{k h_j}(y_1)
            hs = [h_index(a, d, j) for j in range(1, d + 1)]
            for y in fixed:
                for block, h in zip(y, hs):
                    if block != tuple(frob(x, k * h) for x in y[0]):
                        recon_ok = False
    passed = all(e.equal for e in entries)
    return LemmaReport(d, tuple(entries), passed, recon_ok, tuple(witnesses))
