"""Directed graphs of varieties and the fibred-product reduction.

A graph system assigns a variety and a field level to each vertex and a
morphism to each edge; its counting sequence can be computed directly or
through the fibred product, whose partial zeta function is the graph zeta
function.  The two routes must agree, and checking that they do is the
point of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import (BudgetExceededError, DEFAULT_BUDGET, enumerate_points,
                       join, partial_count)
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
    """Tuples (x_v) with x_v in X_v(F_{q^{d_v k}}) meeting every edge equation."""
    amb = field(G.p, G.s, G.D * k)
    base = field(G.p, G.s, 1)
    vpoints = []
    for v in G.vertices:
        domain = amb.subfield(v.d * k, method="span")
        pts = enumerate_points(v.equations, v.n, amb, base,
                               domains=[domain] * v.n, budget=budget)
        vpoints.append(pts)
    cost = 1
    for pts in vpoints:
        cost *= len(pts)
    if cost > budget:
        raise BudgetExceededError(cost, budget, f"graph_count_direct k={k}")
    # edge src -> dst asks f(x_src) == x_dst
    vindex = {v.name: i for i, v in enumerate(G.vertices)}
    links = []
    for e in G.edges:
        src, dst = vindex[e.src], vindex[e.dst]
        images = [e.morphism.apply(pt, amb) for pt in vpoints[src]]
        links.append((src, images, dst, vpoints[dst]))
    return len(join([len(pts) for pts in vpoints], links, budget,
                    f"graph_count_direct k={k}"))


def fibred_product_reduce(G: GraphSystem):
    """The fibred product as a single variety plus the vertex index map.

    Coordinates are the concatenated vertex blocks in input order; the
    profile repeats each d_v over its block.
    """
    base = field(G.p, G.s, 1)
    offsets = {}
    total = 0
    for v in G.vertices:
        offsets[v.name] = (total, total + v.n)
        total += v.n
    equations = []
    profile = []
    for v in G.vertices:
        start, _ = offsets[v.name]
        mapping = {i: start + i for i in range(v.n)}
        for eq in v.equations:
            equations.append(eq.rename(mapping, total))
        profile.extend([v.d] * v.n)
    for e in G.edges:
        s_start, _ = offsets[e.src]
        d_start, _ = offsets[e.dst]
        src_map = {i: s_start + i for i in range(e.morphism.n_in)}
        for c_i, comp in enumerate(e.morphism.components):
            lhs = comp.rename(src_map, total)
            rhs = SparsePoly.var(total, base, d_start + c_i)
            equations.append(lhs - rhs)
    X = VarietySpec(G.p, G.s, total, tuple(equations), tuple(profile))
    return X, offsets


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
    X, _ = fibred_product_reduce(G)
    direct = tuple(graph_count_direct(G, k, budget=budget)
                   for k in range(1, k_max + 1))
    reduced = tuple(partial_count(X, k, budget=budget)
                    for k in range(1, k_max + 1))
    passed = direct == reduced
    res = auto_reconstruct(X, max_k, holdout=holdout, budget=budget)
    wr = weil_weight_check(res.function, G.p ** G.s, tol=tol)
    return GraphReport(direct, reduced, passed, res, wr)
