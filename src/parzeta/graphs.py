"""Directed graphs of varieties and the fibred-product reduction.

A graph system assigns a variety and a field level to each vertex and a
morphism to each edge; its counting sequence can be computed directly or
through the fibred product, whose partial zeta function is the graph zeta
function.  The two routes must agree, and checking that they do is the
point of this module.  `reduction_check` refuses and counts each level
once: the direct count's check, whose cost is the fibred product's, refuses
it, and the zeta deepening's counts serve as its reduced counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import (DEFAULT_BUDGET, check_cost, enumerate_points, join,
                       partial_count)
from .fields import field
from .polys import MorphismSpec, SparsePoly, VarietySpec
from .zeta import (ReconstructionResult, WeightReport, auto_reconstruct,
                   weil_weight_check)


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
    morphism: MorphismSpec


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
        vmap = {v.name: v for v in self.vertices}
        for e in self.edges:
            if e.src not in vmap or e.dst not in vmap:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown vertex")
            if e.morphism.n_in != vmap[e.src].n or e.morphism.n_out != vmap[e.dst].n:
                raise ValueError(f"edge {e.src}->{e.dst} morphism dimension mismatch")

    @property
    def D(self) -> int:
        return math.lcm(*(v.d for v in self.vertices))


def graph_count_direct(G: GraphSystem, k: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Tuples (x_v) with x_v in X_v(F_{q^{d_v k}}) meeting every edge equation.

    Refused before any field is built when the product of the vertex
    domains, q^e with e = k sum n_v d_v (the fibred product's count), is
    over the budget."""
    check_cost(G.p ** G.s, k * sum(v.n * v.d for v in G.vertices), budget,
               f"graph_count_direct k={k}")
    amb = field(G.p, G.s, G.D * k)
    base = field(G.p, G.s, 1)
    vpoints = []
    for v in G.vertices:
        vpoints.append(enumerate_points(v.equations, amb, base,
                                        [v.d * k] * v.n, budget=budget))
    # edge src -> dst asks f(x_src) == x_dst
    vindex = {v.name: i for i, v in enumerate(G.vertices)}
    links = []
    for e in G.edges:
        src, dst = vindex[e.src], vindex[e.dst]
        images = [e.morphism.apply(pt, amb) for pt in vpoints[src]]
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
        src_map = {i: start[e.src] + i for i in range(e.morphism.n_in)}
        for c_i, comp in enumerate(e.morphism.components):
            lhs = comp.rename(src_map, total)
            rhs = SparsePoly.var(total, base, start[e.dst] + c_i)
            equations.append(lhs - rhs)
    return VarietySpec(G.p, G.s, total, tuple(equations), tuple(profile))


@dataclass(frozen=True)
class GraphReport:
    direct_counts: tuple
    reduced_counts: tuple
    passed: bool
    reconstruction: ReconstructionResult
    weight_report: WeightReport

    def to_json_dict(self):
        return {
            "direct_counts": list(self.direct_counts),
            "reduced_counts": list(self.reduced_counts),
            "counts_agree": self.passed,
            "zeta": self.reconstruction.function.to_json_dict(),
            "B_used": self.reconstruction.B_used,
            "weights": self.weight_report.to_json_dict(),
        }


def reduction_check(G: GraphSystem, k_max: int, max_k: int = 12,
                    holdout: int = 3, tol: float = 1e-6,
                    budget: int = DEFAULT_BUDGET) -> GraphReport:
    """Direct counts vs the reduction for k <= k_max, then the graph zeta."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    X = fibred_product_reduce(G)
    direct = tuple(graph_count_direct(G, k, budget=budget)
                   for k in range(1, k_max + 1))
    res = auto_reconstruct(X, max_k, holdout=holdout, budget=budget)
    reduced = res.counts[:k_max] + tuple(
        partial_count(X, k, budget=budget)
        for k in range(len(res.counts) + 1, k_max + 1))
    wr = weil_weight_check(res.function, G.p ** G.s, tol=tol)
    return GraphReport(direct, reduced, direct == reduced, res, wr)
