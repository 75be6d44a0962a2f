"""Directed graphs of varieties and the fibred-product reduction.

A graph system assigns a variety and a field level to each vertex and a
morphism to each edge; its counting sequence can be computed directly or
through the fibred product, whose partial zeta function is the graph zeta
function.  The two routes must agree, and checking that they do is the
point of this module.  The direct count refuses each level before it
builds a field: its tuples, which are the fibred product's, and then the
fibred product's leaf, by ``partial_count_check``.  `reduction_check`
counts each level once: the zeta deepening's counts serve as its reduced
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .counting import (DEFAULT_BUDGET, check_cost, enumerate_points, join,
                       partial_count, partial_count_check)
from .fields import field
from .polys import SparsePoly, VarietySpec
from .zeta import Certificate, certify


@dataclass(frozen=True)
class GraphVertex:
    name: str
    n: int
    equations: tuple  # SparsePoly in n variables
    d: int


@dataclass(frozen=True)
class GraphEdge:
    src: str
    dst: str
    morphism: tuple  # SparsePoly per dst coordinate, in src's variables


@dataclass(frozen=True)
class GraphSystem:
    p: int
    s: int
    vertices: tuple
    edges: tuple

    def __post_init__(self):
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex names")
        for f in chain(*(v.equations for v in self.vertices),
                       *(e.morphism for e in self.edges)):
            f.check_base(self.p, self.s)
        if any(eq.n != v.n for v in self.vertices for eq in v.equations):
            raise ValueError("equation variable count mismatch")
        vmap = {v.name: v for v in self.vertices}
        for e in self.edges:
            if e.src not in vmap or e.dst not in vmap:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown vertex")
            n_in = vmap[e.src].n
            if (len(e.morphism) != vmap[e.dst].n
                    or any(c.n != n_in for c in e.morphism)):
                raise ValueError(f"edge {e.src}->{e.dst} morphism dimension mismatch")

    @property
    def D(self) -> int:
        return math.lcm(*(v.d for v in self.vertices))


def graph_count_direct(G: GraphSystem, k: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Tuples (x_v) with x_v in X_v(F_{q^{d_v k}}) meeting every edge equation.

    Refused before any field is built when the product of the vertex
    domains, q^e with e = k sum n_v d_v (the fibred product's count), is
    over the budget; then by the fibred product's ``partial_count_check``,
    whose tuple price is that same product, so only its leaf can refuse."""
    check_cost(G.p ** G.s, k * sum(v.n * v.d for v in G.vertices), budget,
               f"graph_count_direct k={k}")
    partial_count_check(fibred_product_reduce(G), k, budget)
    amb = field(G.p, G.s, G.D * k)
    vpoints = [enumerate_points(v.equations, amb, [v.d * k] * v.n,
                                budget=budget) for v in G.vertices]
    # edge src -> dst asks f(x_src) == x_dst
    vindex = {v.name: i for i, v in enumerate(G.vertices)}
    links = []
    for e in G.edges:
        src, dst = vindex[e.src], vindex[e.dst]
        images = [tuple(c.evaluate(pt, amb) for c in e.morphism)
                  for pt in vpoints[src]]
        links.append((src, images, dst, vpoints[dst]))
    return len(join([len(pts) for pts in vpoints], links, budget,
                    f"graph_count_direct k={k}"))


def fibred_product_reduce(G: GraphSystem) -> VarietySpec:
    """The fibred product as a single variety.

    Coordinates are the concatenated vertex blocks in input order; the
    profile repeats each d_v over its block.
    """
    base = field(G.p, G.s, 1)
    start = {}  # vertex name -> its block's first coordinate
    total = 0
    for v in G.vertices:
        start[v.name] = total
        total += v.n
    equations = []
    profile = []
    for v in G.vertices:
        mapping = {i: start[v.name] + i for i in range(v.n)}
        for eq in v.equations:
            equations.append(eq.rename(mapping, total))
        profile.extend([v.d] * v.n)
    for e in G.edges:
        for c_i, comp in enumerate(e.morphism):
            lhs = comp.rename({i: start[e.src] + i for i in range(comp.n)},
                              total)
            rhs = SparsePoly.var(total, base, start[e.dst] + c_i)
            equations.append(lhs - rhs)
    return VarietySpec(G.p, G.s, total, tuple(equations), tuple(profile))


@dataclass(frozen=True)
class GraphReport:
    direct_counts: tuple
    reduced_counts: tuple
    passed: bool  # the direct and reduced counts agree
    certificate: Certificate  # the fibred product's: the graph zeta


def reduction_check(G: GraphSystem, k_max: int, max_k: int = 12,
                    holdout: int = 3, tol: float = 1e-6,
                    budget: int = DEFAULT_BUDGET) -> GraphReport:
    """Direct counts vs the reduction for k <= k_max, then the graph zeta
    by `certify` on the fibred product, whatever its status.  Each level's
    tuples, then the fibred product's leaf, are checked before its direct
    count builds a field, so no reduced count at k <= k_max is refused."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    X = fibred_product_reduce(G)
    direct = tuple(graph_count_direct(G, k, budget=budget)
                   for k in range(1, k_max + 1))
    cert = certify(X, max_k, holdout=holdout, budget=budget, tol=tol)
    reduced = cert.counts[:k_max] + tuple(
        partial_count(X, k, budget=budget)
        for k in range(len(cert.counts) + 1, k_max + 1))
    return GraphReport(direct, reduced, direct == reduced, cert)
