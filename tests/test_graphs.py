import json
from pathlib import Path

import pytest

from parzeta import graphs, zeta
from parzeta.cli import load_instance, main
from parzeta.counting import BudgetExceededError, partial_count
from parzeta.fields import Field
from parzeta.graphs import (GraphEdge, GraphSystem, GraphVertex,
                            fibred_product_reduce, graph_count_direct,
                            reduction_check)
from parzeta.polys import base_field, parse_poly

F2 = base_field(2, 1)


def poly(text, n=1):
    return parse_poly(text, [f"x{i+1}" for i in range(n)], F2)


def morph(texts, n_in=1):
    return tuple(poly(t, n_in) for t in texts)


def line(name, d):
    return GraphVertex(name, 1, (), d)


SELF_LOOP = GraphSystem(2, 1, (line("v", 2),),
                        (GraphEdge("v", "v", morph(["x1^2"])),))

CYCLE3 = GraphSystem(
    2, 1,
    (GraphVertex("u", 1, (poly("x1^4 + x1"),), 1),
     GraphVertex("v", 1, (poly("x1^4 + x1"),), 1),
     GraphVertex("w", 1, (poly("x1^4 + x1"),), 1)),
    (GraphEdge("u", "v", morph(["x1^2"])),
     GraphEdge("v", "w", morph(["x1^2"])),
     GraphEdge("w", "u", morph(["x1^2"]))))


def test_validation():
    with pytest.raises(ValueError):
        GraphSystem(2, 1, (line("v", 1), line("v", 1)), ())
    with pytest.raises(ValueError):
        GraphSystem(2, 1, (line("v", 1),),
                    (GraphEdge("v", "w", morph(["x1"])),))


# one component per target coordinate, each in the source's variables
@pytest.mark.parametrize("morphism", [
    morph(["x1", "x1"]),        # two components for a line
    morph(["x1 + x2"], n_in=2),  # a component in two variables
])
def test_morphism_dimensions_are_the_vertices(morphism):
    with pytest.raises(ValueError, match="morphism dimension mismatch"):
        GraphSystem(2, 1, (line("v", 1), line("w", 1)),
                    (GraphEdge("v", "w", morphism),))


# an equation in other than its vertex's n variables: refused when built,
# as VarietySpec refuses it, not when the counts rename or enumerate it
@pytest.mark.parametrize("n, equation", [(1, poly("x1 + x2", 2)),
                                         (2, poly("x1"))])
def test_vertex_equations_are_in_its_variables(n, equation):
    with pytest.raises(ValueError, match="equation variable count mismatch"):
        GraphSystem(2, 1, (GraphVertex("v", n, (equation,), 1),), ())


def test_lcm_of_levels():
    G = GraphSystem(2, 1, (line("a", 2), line("b", 3)), ())
    assert G.D == 6


def test_edgeless_graph_counts():
    G = GraphSystem(2, 1, (line("v", 2),), ())
    assert [graph_count_direct(G, k) for k in (1, 2)] == [4, 16]


def test_self_loop_counts():
    # x^2 = x pins the vertex to F_2 regardless of the field level
    assert [graph_count_direct(SELF_LOOP, k) for k in (1, 2, 3)] == [2, 2, 2]


def test_cycle_counts():
    # squaring three times is x -> x^8 = x on the x^4 = x locus iff x in F_2
    assert [graph_count_direct(CYCLE3, k) for k in (1, 2)] == [2, 2]


def test_identity_edge_pair():
    G = GraphSystem(2, 1, (line("a", 1), line("b", 2)),
                    (GraphEdge("a", "b", morph(["x1"])),))
    assert [graph_count_direct(G, k) for k in (1, 2, 3)] == [2, 4, 8]


def test_reduction_shape():
    X = fibred_product_reduce(SELF_LOOP)
    assert X.n == 1
    assert X.profile == (2,)
    assert len(X.equations) == 1
    assert X.equations[0] == poly("x1^2 + x1")


def test_reduction_counts_match_direct():
    for G in (SELF_LOOP, CYCLE3):
        X = fibred_product_reduce(G)
        for k in (1, 2, 3):
            assert partial_count(X, k) == graph_count_direct(G, k)


def test_reduction_check_self_loop():
    rep = reduction_check(SELF_LOOP, 3)
    assert rep.passed
    assert rep.certificate.function.num == (1,)
    assert rep.certificate.function.den == (1, -2, 1)
    assert rep.certificate.weights.passed


def test_reduction_check_cycle():
    rep = reduction_check(CYCLE3, 3)
    assert rep.passed
    assert rep.certificate.function.den == (1, -2, 1)


def test_report_json(capsys):
    # SELF_LOOP is corpus/g_selfloop_square.json
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    assert main(["graph", str(corpus / "g_selfloop_square.json"),
                 "--k-max", "2"]) == 0
    d = json.loads(capsys.readouterr().out)["outputs"]
    assert d["counts_agree"] is True
    assert d["zeta"]["denominator"] == [1, -2, 1]


def test_direct_count_refuses_before_it_builds_anything(monkeypatch):
    # g_single_d2 at k = 10: the product of the vertex domains is 2^20,
    # refused from its exponent before any subfield is listed
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    G, _, _ = load_instance(str(corpus / "g_single_d2.json"), "graph")

    def refuse(self, e, method="span"):
        raise AssertionError("subfield listed before the budget check")

    monkeypatch.setattr(Field, "subfield", refuse)
    with pytest.raises(BudgetExceededError,
                       match=r"\(graph_count_direct k=10\)") as exc:
        graph_count_direct(G, 10, budget=100)
    assert exc.value.cost == 2 ** 20


def test_direct_count_refuses_the_fibred_products_leaf(monkeypatch):
    # x1^100000 + 1 = (x1^3125 + 1)^32 at d = 24: the 2^24 tuples pass the
    # budget, x^Q mod the degree-3125 gcd does not, and the direct count
    # refuses it itself before it builds any field but the base field
    G = GraphSystem(2, 1, (GraphVertex("u", 1, (poly("x1^100000 + 1"),), 24),),
                    ())
    built = graphs.field

    def refuse(p, s, N):
        assert N == 1, "a field built before the leaf check"
        return built(p, s, N)

    monkeypatch.setattr(graphs, "field", refuse)
    with pytest.raises(BudgetExceededError) as exc:
        graph_count_direct(G, 1)
    assert exc.value.cost == 3125 ** 2 * 25
    assert str(exc.value).endswith("(count_roots k=1)")


def test_reduction_check_counts_each_level_once(monkeypatch):
    # the deepening accepts at B_used = 4; levels 5 and 6 are counted
    # after it, each once
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    G, _, _ = load_instance(str(corpus / "g_single_d2.json"), "graph")
    levels = []

    def spy(X, k, budget):
        levels.append(k)
        return partial_count(X, k, budget=budget)

    monkeypatch.setattr(graphs, "partial_count", spy)
    monkeypatch.setattr(zeta, "partial_count", spy)
    rep = reduction_check(G, 6)
    assert len(rep.certificate.counts) == 4
    assert levels == [1, 2, 3, 4, 5, 6]
    assert rep.passed and rep.reduced_counts == rep.direct_counts
