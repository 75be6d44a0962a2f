"""The cyclic-shift fixed-point variety and its counting identity.

Given X with profile (d_1,...,d_n) and d = lcm, the subvariety Y of X^d is
cut out by identifying coordinate i of block j with coordinate i of block
j + d_i (indices mod d); Y is stable under the block rotation sigma, and
for every a coprime to d the fixed points of sigma^a composed with the
k-th Frobenius power biject with the partial-count points at level k.
This module builds Y, enumerates it with constraint propagation, and
verifies the equality and the per-point reconstruction bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .counting import (BudgetExceededError, DEFAULT_BUDGET, enumerate_points,
                       partial_count)
from .fields import Field, FieldElement, field
from .polys import SparsePoly, VarietySpec


@dataclass(frozen=True)
class FaltingsSpec:
    X: VarietySpec
    d: int
    block_size: int          # coordinates per block (n of X)
    Y: VarietySpec           # in d * block_size variables
    ident_pairs: tuple       # projection mode: ((j, i), (j2, i)) slot equalities
    morphisms: tuple = None  # general mode: one MorphismSpec per profile entry


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

    With no morphisms the f_i are the coordinate projections and the
    identifications are plain slot equalities; with morphisms they become
    componentwise polynomial identities.  Either way the resulting
    equation set is checked to be permuted by the block rotation.
    """
    d = X.D
    n = X.n
    base = X.base
    dn = d * n
    equations = []
    # d copies of X's equations, one per block
    for j in range(d):
        mapping = {i: _slot(j, i, n) for i in range(n)}
        for eq in X.equations:
            equations.append(eq.rename(mapping, dn))
    ident_pairs = []
    if morphisms is None:
        seen = set()
        for i, di in enumerate(X.profile):
            for j in range(d):
                j2 = (j + di) % d
                if j2 == j:
                    continue
                key = tuple(sorted(((j, i), (j2, i))))
                if key in seen:
                    continue
                seen.add(key)
                ident_pairs.append(((j, i), (j2, i)))
                lhs = SparsePoly.var(dn, base, _slot(j, i, n))
                rhs = SparsePoly.var(dn, base, _slot(j2, i, n))
                equations.append(lhs - rhs)
    else:
        morphisms = tuple(morphisms)
        if len(morphisms) != len(X.profile):
            raise ValueError("need one morphism per profile entry")
        for i, (di, f_i) in enumerate(zip(X.profile, morphisms)):
            for j in range(d):
                j2 = (j + di) % d
                if j2 == j:
                    continue
                map_j = {v: _slot(j, v, n) for v in range(n)}
                map_j2 = {v: _slot(j2, v, n) for v in range(n)}
                for comp in f_i.components:
                    equations.append(comp.rename(map_j, dn) - comp.rename(map_j2, dn))
    Y = VarietySpec(X.p, X.s, dn, tuple(equations), (1,) * dn)
    spec = FaltingsSpec(X, d, n, Y, tuple(ident_pairs),
                        morphisms if morphisms is None else tuple(morphisms))
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
    """X's points with coordinates in ``domains`` (lists of elements of
    ``ambient``; the whole field when None), lex-sorted."""
    if domains is not None:
        domains = [[x.value for x in d] for d in domains]
    return enumerate_points(X.equations, X.n, ambient, X.base,
                            domains=domains, budget=budget)


# ---------------------------------------------------------------------------
# Y enumeration
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def enumerate_y_points(spec: FaltingsSpec, k: int, budget: int = DEFAULT_BUDGET):
    """Points of Y with all coordinates in F_{q^{dk}}, lex-sorted."""
    X = spec.X
    amb = field(X.p, X.s, spec.d * k)
    xpts = variety_points(X, amb, budget=budget)
    if spec.morphisms is not None:
        return _enumerate_y_general(spec, amb, xpts, budget)
    return _enumerate_y_projection(spec, amb, xpts, budget)


def _enumerate_y_projection(spec, amb, xpts, budget):
    d, n = spec.d, spec.block_size
    uf = _UnionFind([(j, i) for j in range(d) for i in range(n)])
    for a, b in spec.ident_pairs:
        uf.union(a, b)
    cls = {slot: uf.find(slot) for slot in uf.parent}
    # greedy block order: most already-bound slot classes first
    order = []
    bound_classes = set()
    remaining = set(range(d))
    while remaining:
        best = min(remaining,
                   key=lambda j: (-sum(1 for i in range(n)
                                       if cls[(j, i)] in bound_classes), j))
        order.append(best)
        for i in range(n):
            bound_classes.add(cls[(best, i)])
        remaining.discard(best)
    # per-position index of X points keyed by their bound-coordinate pattern
    index_cache = {}

    def candidates(j, values):
        bound_pos = tuple(i for i in range(n) if values[cls[(j, i)]] is not None)
        if not bound_pos:
            return xpts
        key_vals = tuple(values[cls[(j, i)]] for i in bound_pos)
        idx = index_cache.get((j, bound_pos))
        if idx is None:
            idx = {}
            for pt in xpts:
                kk = tuple(pt[i].value for i in bound_pos)
                idx.setdefault(kk, []).append(pt)
            index_cache[(j, bound_pos)] = idx
        return idx.get(tuple(v for v in key_vals), [])

    out = []
    values = {c: None for c in set(cls.values())}
    nodes = [0]

    def descend(pos):
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceededError(nodes[0], budget, "Y enumeration")
        if pos == d:
            blocks = tuple(
                tuple(FieldElement(amb, values[cls[(j, i)]]) for i in range(n))
                for j in range(d))
            out.append(blocks)
            return
        j = order[pos]
        for pt in candidates(j, values):
            newly = []
            ok = True
            for i in range(n):
                c = cls[(j, i)]
                if values[c] is None:
                    values[c] = pt[i].value
                    newly.append(c)
                elif values[c] != pt[i].value:
                    ok = False
                    break
            if ok:
                descend(pos + 1)
            for c in newly:
                values[c] = None

    descend(0)
    out.sort(key=lambda blocks: tuple(x.value for b in blocks for x in b))
    return out


def _enumerate_y_general(spec, amb, xpts, budget):
    d, n = spec.d, spec.block_size
    X = spec.X

    def key(pt):
        return tuple(x.value for x in pt)

    # cache morphism images per X point
    fvals = []
    for f_i in spec.morphisms:
        fvals.append({key(pt): tuple(v.value for v in f_i.apply(pt, amb))
                      for pt in xpts})
    # constraint (i, j, j2): f_i(block j) == f_i(block j2)
    constraints = []
    for i, di in enumerate(X.profile):
        for j in range(d):
            j2 = (j + di) % d
            if j2 != j:
                constraints.append((i, j, j2))
    by_block = [[] for _ in range(d)]
    for (i, j, j2) in constraints:
        by_block[max(j, j2)].append((i, j, j2))
    out = []
    blocks = [None] * d
    nodes = [0]

    def descend(j):
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceededError(nodes[0], budget, "Y enumeration")
        if j == d:
            out.append(tuple(blocks))
            return
        for pt in xpts:
            blocks[j] = pt
            ok = True
            for (i, ja, jb) in by_block[j]:
                va = fvals[i][key(blocks[ja])]
                vb = fvals[i][key(blocks[jb])]
                if va != vb:
                    ok = False
                    break
            if ok:
                descend(j + 1)
            blocks[j] = None

    descend(0)
    out.sort(key=lambda bl: tuple(x.value for b in bl for x in b))
    return out


# ---------------------------------------------------------------------------
# fixed points and the counting identity
# ---------------------------------------------------------------------------

def _values(blocks):
    """A Y point as nested tuples of packed ints."""
    return tuple(tuple(x.value for x in block) for block in blocks)


def _apply_frobenius(blocks, amb: Field, k: int):
    """Frobenius^k on every coordinate of a Y point given by ``_values``."""
    frob = amb.frob
    return tuple(tuple(frob(x, k) for x in block) for block in blocks)


def fixed_points(spec: FaltingsSpec, a: int, k: int,
                 budget: int = DEFAULT_BUDGET):
    if gcd(a, spec.d) != 1:
        raise ValueError(f"a = {a} is not coprime to d = {spec.d}")
    amb = field(spec.X.p, spec.X.s, spec.d * k)
    ypts = enumerate_y_points(spec, k, budget=budget)
    out = []
    for y in ypts:
        v = _values(y)
        if sigma_apply(_apply_frobenius(v, amb, k), a) == v:
            out.append(y)
    return out


def fixed_point_count(spec: FaltingsSpec, a: int, k: int,
                      budget: int = DEFAULT_BUDGET) -> int:
    return len(fixed_points(spec, a, k, budget=budget))


def morphism_partial_count(X: VarietySpec, morphisms, k: int,
                           budget: int = DEFAULT_BUDGET) -> int:
    """#{x in X(F_{q^{dk}}) : f_i(x) has coordinates in F_{q^{d_i k}}}.

    Complete only when (f_1,...,f_n) is an embedding; that hypothesis is
    the caller's obligation.
    """
    amb = field(X.p, X.s, X.D * k)
    count = 0
    for pt in variety_points(X, amb, budget=budget):
        ok = True
        for di, f_i in zip(X.profile, morphisms):
            img = f_i.apply(pt, amb)
            if not all(amb.in_subfield(v, di * k) for v in img):
                ok = False
                break
        if ok:
            count += 1
    return count


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
    spec = build_faltings(X, morphisms=morphisms)
    d = spec.d
    entries = []
    witnesses = []
    recon_ok = True
    for k in range(1, k_max + 1):
        if morphisms is None:
            lhs = partial_count(X, k, budget=budget)
        else:
            lhs = morphism_partial_count(X, morphisms, k, budget=budget)
        amb = field(X.p, X.s, d * k)
        frob = amb.frob
        ypts = enumerate_y_points(spec, k, budget=budget)
        yvals = [_values(y) for y in ypts]
        images = [_apply_frobenius(v, amb, k) for v in yvals]
        for a in range(1, d + 1):
            if gcd(a, d) != 1:
                continue
            fixed = [(y, v) for y, v, img in zip(ypts, yvals, images)
                     if sigma_apply(img, a) == v]
            entries.append(LemmaEntry(a, k, lhs, len(fixed)))
            if lhs != len(fixed) and len(witnesses) < 10:
                witnesses.extend(y for y, _ in fixed[:10 - len(witnesses)])
            # reconstruction bijection: y_j = Frob^{k h_j}(y_1)
            for _, v in fixed:
                y1 = v[0]
                for j in range(1, d + 1):
                    h = h_index(a, d, j)
                    if v[j - 1] != tuple(frob(x, k * h) for x in y1):
                        recon_ok = False
    passed = all(e.equal for e in entries)
    return LemmaReport(d, tuple(entries), passed, recon_ok, tuple(witnesses))
