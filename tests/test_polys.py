import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from parzeta.artin_schreier import ASInstance
from parzeta.counting import BudgetExceededError, DEFAULT_BUDGET
from parzeta.fields import FieldError, field
from parzeta.graphs import GraphEdge, GraphSystem, GraphVertex
from parzeta.polys import (PolyParseError, SparsePoly, VarietySpec,
                           base_field, parse_poly)

from test_packed_fields import ref_add, ref_mul, ref_one, ref_pow

F2 = base_field(2, 1)
F3 = base_field(3, 1)
F4 = base_field(2, 2)


def P(text, n=2, base=F2, budget=DEFAULT_BUDGET):
    return parse_poly(text, [f"x{i+1}" for i in range(n)], base, budget)


def test_parse_simple():
    f = P("x1 + x2")
    assert f.terms == {(1, 0): 1, (0, 1): 1}


def test_parse_collects_coefficients():
    # coefficients collapse mod p
    assert P("x1 + x1").is_zero()
    assert P("3*x1", base=F3).is_zero()
    assert P("4*x1", base=F3) == P("x1", base=F3)


def test_power_squares_only_while_a_bit_is_left():
    # over F_3, (1+x1+x2)^(3^j) = 1 + x1^(3^j) + x2^(3^j), and 728 is
    # 2 (1 + 3 + ... + 3^5): the product of the squares of those six
    t0 = time.perf_counter()
    f = P("(1+x1+x2)^728", base=F3)
    assert time.perf_counter() - t0 < 1.0
    assert f == P("*".join(f"(1 + x1^{3 ** j} + x2^{3 ** j})^2"
                           for j in range(6)), base=F3)
    assert len(f.terms) == 6 ** 6


def test_parse_products_refused_past_the_budget():
    # (1+x1+x2)^512 has 1296 terms over F_3: its square, 1296^2 pairs,
    # passes the budget after the 124,845 pairs of the products before it
    with pytest.raises(BudgetExceededError) as exc:
        parse_poly("(1+x1+x2)^2186", ["x1", "x2"], F3, budget=10 ** 6)
    assert exc.value.cost == 124845 + 1296 ** 2
    assert str(exc.value).endswith("(parse_poly)")
    # a product of exactly the budget's pairs passes
    assert P("(x1 + x2)*(x1 + 1)", budget=4) == P("x1^2 + x1*x2 + x1 + x2")
    with pytest.raises(BudgetExceededError):
        P("(x1 + x2)*(x1 + 1)", budget=3)


def test_parse_budget_counts_the_whole_parse():
    # 2*2 pairs, then 3*2: each product is under 9 pairs, the parse is not
    text = "(x1+1)*(x1+1)*(x1+1)"
    assert P(text, n=1, base=F3, budget=10) == P("x1^3 + 1", n=1, base=F3)
    with pytest.raises(BudgetExceededError) as exc:
        P(text, n=1, base=F3, budget=9)
    assert exc.value.cost == 10


def test_parse_precedence():
    f = P("x1 + x2*x1^2")
    assert f.terms[(2, 1)] == 1
    assert f.terms[(1, 0)] == 1


def test_parse_parens_and_unary_minus():
    f = parse_poly("-(x1 - x2)^2", ["x1", "x2"], F3)
    g = parse_poly("2*x1^2 + 2*x2^2 + 2*x1*x2", ["x1", "x2"], F3)
    assert f == g


@pytest.mark.parametrize("text, want", [
    ("0 + -x1^2", "2*x1^2"),
    ("x2*-x1^2", "2*x1^2*x2"),
    ("--x1^2", "x1^2"),
    ("-x1^2", "2*x1^2"),
    ("x1^2 + -x2^2", "x1^2 - x2^2"),
])
def test_unary_minus_negates_the_power_after_it(text, want):
    assert P(text, base=F3) == P(want, base=F3)


# an expression tree: ("var", i), ("const", c), ("neg", t), ("pow", t, e),
# or (op, a, b) for op in "+", "-", "*"; printed with the fewest
# parentheses that conventional precedence allows: ^, then unary -, then *,
# then + and -, all left-associative
LEVEL = {"+": 1, "-": 1, "*": 2, "neg": 3, "pow": 4, "var": 5, "const": 5}


def show(t, least=1):
    kind = t[0]
    if kind == "var":
        text = f"x{t[1] + 1}"
    elif kind == "const":
        text = str(t[1])
    elif kind == "neg":
        text = "-" + show(t[1], LEVEL["neg"])
    elif kind == "pow":
        text = f"{show(t[1], LEVEL['var'])}^{t[2]}"
    else:
        sep = "*" if kind == "*" else f" {kind} "
        text = show(t[1], LEVEL[kind]) + sep + show(t[2], LEVEL[kind] + 1)
    return text if LEVEL[kind] >= least else f"({text})"


def value(t, point, p):
    """The tree at ``point`` on plain ints mod p."""
    kind = t[0]
    if kind == "var":
        return point[t[1]]
    if kind == "const":
        return t[1] % p
    if kind == "neg":
        return -value(t[1], point, p) % p
    if kind == "pow":
        return pow(value(t[1], point, p), t[2], p)
    a, b = value(t[1], point, p), value(t[2], point, p)
    return (a + b if kind == "+" else a - b if kind == "-" else a * b) % p


trees = st.recursive(
    st.one_of(st.tuples(st.just("var"), st.integers(0, 1)),
              st.tuples(st.just("const"), st.integers(0, 7))),
    lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3)),
        st.tuples(st.sampled_from("+-*"), sub, sub)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5]), trees)
def test_parse_follows_conventional_precedence(p, tree):
    base = base_field(p, 1)
    f = P(show(tree), base=base)
    for point in itertools.product(range(p), repeat=2):
        assert f.evaluate(point, base) == value(tree, point, p), show(tree)


def test_parse_generator():
    # F_4 = F_2[g]/(1 + g + g^2), so g^2 = 1 + g
    f = parse_poly("g*x1 + g^2", ["x1"], F4)
    assert f.terms[(1,)] == F4.to_int((0, 1))
    assert f.terms[(0,)] == F4.to_int((1, 1))


def test_generator_rejected_over_prime_field():
    with pytest.raises(PolyParseError):
        parse_poly("g*x1", ["x1"], F2)


def test_parse_error_position():
    with pytest.raises(PolyParseError) as exc:
        P("x1 + ?")
    assert exc.value.position == 5


@pytest.mark.parametrize("text, position, message", [
    ("x1^\u00b2", 3, "expected integer exponent"),
    ("\u00b2", 0, "unexpected character"),
    ("x1^" + "9" * 5000, 3, "integer literal too long"),
    ("x1 + " + "7" * 5000, 5, "integer literal too long"),
], ids=["superscript-exponent", "superscript-literal", "long-exponent",
        "long-literal"])
def test_only_ascii_digits_of_bounded_length_are_integers(text, position,
                                                          message):
    # str.isdigit() accepts a superscript two, which int() then refuses,
    # and int() refuses a digit run past Python's int-string limit
    with pytest.raises(PolyParseError, match=message) as exc:
        P(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text", ["(" * 3000 + "x1" + ")" * 3000,
                                  "-" * 3000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(PolyParseError, match="nested too deeply"):
        P(text)


def test_negative_exponent_rejected():
    with pytest.raises(PolyParseError):
        P("x1^-2")


def test_unknown_variable():
    with pytest.raises(PolyParseError):
        P("x3")


def test_roundtrip_printing():
    for text in ["x1^2 + x1*x2 + 1", "x1^3 + x2", "1"]:
        f = P(text)
        assert P(f.to_string()) == f


def test_evaluate():
    # F_8 = F_2[t]/(1 + t^2 + t^3), where 1/t = t + t^2
    F8 = field(2, 1, 3)
    f = P("x1*x2 + 1")
    t, t_inv = F8.to_int((0, 1, 0)), F8.to_int((0, 1, 1))
    assert f.evaluate((t, t_inv), F8) == 0
    assert f.evaluate((t, t), F8) == F8.to_int((1, 0, 1))


def test_evaluate_refuses_a_field_of_another_tower():
    # coefficients of F_2, or of F_4, have no embedding into F_9 or F_16
    for f, amb in ((P("x1 + 1", n=1), field(3, 1, 2)),
                   (P("x1 + g", n=1, base=F4), field(2, 1, 4))):
        with pytest.raises(FieldError, match=r"^base field must be F_q = "
                           r"F_\{p\^s\} for this tower$"):
            f.evaluate((amb._one,), amb)


def test_total_degree_and_leading_form():
    f = P("x1^3 + x1*x2 + x2")
    assert f.total_degree() == 3
    form, r = f.leading_form()
    assert r == 3
    assert form == P("x1^3")


def test_homogeneous():
    assert P("x1^2 + x1*x2").is_homogeneous()
    assert not P("x1^2 + x2").is_homogeneous()


def test_partial_derivative():
    f = parse_poly("x1^3 + x1*x2", ["x1", "x2"], F3)
    assert f.partial_derivative(0) == parse_poly("3*x1^2 + x2",
                                                 ["x1", "x2"], F3)
    assert f.partial_derivative(1) == parse_poly("x1", ["x1", "x2"], F3)


def test_derivative_drops_multiples_of_p():
    f = P("x1^2")
    assert f.partial_derivative(0).is_zero()


def test_rename():
    f = P("x1^2 + x2")
    g = f.rename({0: 2, 1: 0}, 3)
    assert g.terms == {(0, 0, 2): 1, (1, 0, 0): 1}
    with pytest.raises(ValueError):
        f.rename({0: 1, 1: 1}, 2)


def test_variety_spec_validation():
    eq = P("x1 + x2")
    X = VarietySpec(2, 1, 2, (eq,), (1, 2))
    assert X.D == 2
    with pytest.raises(ValueError):
        VarietySpec(2, 1, 2, (eq,), (1,))
    with pytest.raises(ValueError):
        VarietySpec(2, 1, 2, (eq,), (1, 0))


# x1^2 + 1 over F_2: read over F_3 it counted [0, 2] with no error
OVER_F2 = P("x1^2 + 1", n=1)
FOREIGN = {
    "variety": lambda: VarietySpec(3, 1, 1, (OVER_F2,), (1,)),
    # x1 + g over F_9 in a (3, 1) variety raised IndexError
    "variety-s2": lambda: VarietySpec(
        3, 1, 1, (P("x1 + g", n=1, base=base_field(3, 2)),), (1,)),
    "graph-vertex": lambda: GraphSystem(
        3, 1, (GraphVertex("v", 1, (OVER_F2,), 1),), ()),
    "graph-morphism": lambda: GraphSystem(
        3, 1, (GraphVertex("v", 1, (), 1), GraphVertex("w", 1, (), 1)),
        (GraphEdge("v", "w", (OVER_F2,)),)),
    "artin-schreier": lambda: ASInstance(3, 1, 1, 1, 1,
                                         P("x1^2 + 1", n=2)),
}


@pytest.mark.parametrize("build", FOREIGN.values(), ids=FOREIGN.keys())
def test_constructors_refuse_polynomials_over_another_field(build):
    with pytest.raises(ValueError, match="base field must be F_q"):
        build()


def test_with_profile():
    X = VarietySpec(2, 1, 2, (), (1, 1))
    assert X.with_profile((2, 3)).D == 6


# ---------------------------------------------------------------------------
# the int evaluation route against the reference arithmetic
# ---------------------------------------------------------------------------

# (p, s, N): coefficients in F_q, q = p^s, points in F_{q^N}; s = 2 embeds
# the base generator, and F_2^21 lies above TABLE_CAP = 2^20
EVAL_FIELDS = [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2), (2, 1, 21)]


@st.composite
def evaluations(draw):
    """Polynomials in n variables over F_q and an int point of F_{q^N}."""
    p, s, N = draw(st.sampled_from(EVAL_FIELDS))
    base, amb = base_field(p, s), field(p, s, N)
    n = draw(st.integers(1, 3))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[exps] = draw(st.integers(1, base.size() - 1))
        polys.append(SparsePoly(n, base, terms))
    point = tuple(draw(st.integers(0, amb.size() - 1)) for _ in range(n))
    return amb, polys, point


def monomial_sum(f, point, amb):
    """f at ``point`` as a sum of monomials in the reference arithmetic of
    ``test_packed_fields``.  A coefficient sum c_i g^i goes to
    sum c_i r^i, r the lex-smallest root of the base modulus in ``amb``,
    found by scanning ``amb``."""
    base = f.base

    def combine(coeffs, powers):  # sum c_i w_i, c_i in F_p
        total = 0
        for c, w in zip(coeffs, powers):
            total = ref_add(amb, total, ref_mul(amb, c * ref_one(amb), w))
        return total

    if base.m == 1:
        powers = [ref_one(amb)]
    else:
        r = next(x for x in amb.elements()
                 if combine(base.modulus, [ref_pow(amb, x, i) for i in
                                           range(len(base.modulus))]) == 0)
        powers = [ref_pow(amb, r, i) for i in range(base.m)]
    total = 0
    for exps, c in f.terms.items():
        term = combine(base.to_coeffs(c), powers)
        for x, e in zip(point, exps):
            term = ref_mul(amb, term, ref_pow(amb, x, e))
        total = ref_add(amb, total, term)
    return total


@settings(max_examples=150, deadline=None)
@given(evaluations())
def test_int_evaluation_matches_reference_arithmetic(case):
    amb, polys, point = case
    want = tuple(monomial_sum(f, point, amb) for f in polys)
    assert tuple(f.evaluate(point, amb) for f in polys) == want


@pytest.mark.parametrize("p, s, N", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_subfield_is_an_int_tuple_equal_between_methods(p, s, N):
    F = field(p, s, N)
    for e in (e for e in range(1, N) if N % e == 0):
        span = F.subfield(e, method="span")
        assert type(span) is tuple and all(type(x) is int for x in span)
        assert span == F.subfield(e, method="filter")
    # the whole field is elements(), by either method; powering confirms
    # that every element is in it
    for method in ("span", "filter"):
        assert F.subfield(N, method) == F.elements()
    assert len(F.elements()) == F.q ** N
    assert all(F.in_subfield(x, N) for x in F.elements())
