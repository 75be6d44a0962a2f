import time

import pytest
from hypothesis import given, settings, strategies as st

from parzeta.artin_schreier import (ASInstance, as_count_brute,
                                    as_count_trace, bound_check,
                                    diagonal_smooth_check, fibred_sum,
                                    singular_search, trace_to_prime)
from parzeta import fields
from parzeta.counting import BudgetExceededError
from parzeta.fields import field
from parzeta.polys import SparsePoly, base_field, parse_poly

F2 = base_field(2, 1)
F3 = base_field(3, 1)


def xy_poly(text, base=F2):
    return parse_poly(text, ["x1", "y1"], base)


CUBIC = xy_poly("x1^3 + y1^3")


def test_trace_partition():
    # the trace is a surjective F_p-linear map, so each fiber has q/p elements
    F8 = field(2, 1, 3)
    zeros = sum(1 for x in F8.elements() if trace_to_prime(F8, x) == 0)
    assert zeros == 4


def test_counts_agree_cubic():
    for d in (1, 2, 3):
        inst = ASInstance(2, 1, 1, 1, d, CUBIC)
        assert as_count_brute(inst) == as_count_trace(inst)


def test_cubic_d1_exact_count():
    inst = ASInstance(2, 1, 1, 1, 1, CUBIC)
    assert as_count_brute(inst) == 4


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
def test_counts_agree_random_f2(monomials):
    f = SparsePoly(2, F2)
    for ex, ey in monomials:
        f = f + SparsePoly(2, F2, {(ex, ey): 1})
    if f.is_zero():
        return
    inst = ASInstance(2, 1, 1, 1, 1, f)
    assert as_count_brute(inst) == as_count_trace(inst)


def test_fibred_sum_shape():
    g = fibred_sum(CUBIC, 1, 1, 3)
    assert g.n == 4
    assert g == parse_poly("x1^3 + x2^3 + x3^3 + 3*y1^3",
                           ["x1", "x2", "x3", "y1"], F2)


def test_fibred_sum_d1_is_identity():
    assert fibred_sum(CUBIC, 1, 1, 1) == CUBIC


def test_diagonal_smooth_check():
    assert diagonal_smooth_check(xy_poly("x1^3 + y1^3"), 2) == "smooth"
    assert diagonal_smooth_check(xy_poly("x1^2 + y1^2"), 2) == "singular"
    assert diagonal_smooth_check(xy_poly("x1^2 + y1^2", F3), 3) == "smooth"
    assert diagonal_smooth_check(xy_poly("x1*y1"), 2) == "not-diagonal"
    # y-coefficient collapses after summing two copies in characteristic 2
    assert diagonal_smooth_check(fibred_sum(CUBIC, 1, 1, 2), 2) == "singular"


def test_diagonal_smooth_check_requires_homogeneous():
    with pytest.raises(ValueError):
        diagonal_smooth_check(xy_poly("x1^3 + y1"), 2)


def test_singular_search_finds_witness():
    # x1^2 * x2 is singular along x1 = 0
    f = parse_poly("x1^2*x2", ["x1", "x2"], F2)
    hit = singular_search(f, 1)
    assert hit is not None
    e, pt = hit
    assert e == 1 and pt[0] == 0


def test_singular_search_none_on_smooth_form():
    assert singular_search(xy_poly("x1*y1"), 2) is None


def test_bound_cubic_d1():
    rep = bound_check(ASInstance(2, 1, 1, 1, 1, CUBIC))
    assert rep.N_d == 4 and rep.main_term == 4
    assert rep.deviation == 0
    assert rep.bound_squared == 64  # bound itself is 8
    assert rep.smooth_status == "verified-diagonal"
    assert rep.hypothesis_ok and rep.satisfied


def test_bound_cubic_d2_flags_singular():
    rep = bound_check(ASInstance(2, 1, 1, 1, 2, CUBIC))
    assert rep.smooth_status == "singular"
    assert not rep.hypothesis_ok


def test_bound_quadric_f3():
    f = xy_poly("x1^2 + y1^2", F3)
    r1 = bound_check(ASInstance(3, 1, 1, 1, 1, f))
    assert r1.hypothesis_ok and r1.satisfied
    # deviation 6 exactly saturates (p-1)(r-1)^2 q = 2*1*3... squared: 36
    assert r1.deviation ** 2 == r1.bound_squared == 36
    r3 = bound_check(ASInstance(3, 1, 1, 1, 3, f))
    assert r3.smooth_status == "singular"


def test_bound_uses_leading_form():
    rep = bound_check(ASInstance(2, 1, 1, 1, 1,
                                 xy_poly("x1^3 + x1*y1 + y1^3")))
    assert rep.r == 3
    assert rep.smooth_status == "verified-diagonal"


def test_bound_zero_fibred_form_is_singular():
    # f = 1 is its own leading form; two copies of it sum to 0 over F_2,
    # which defines no hypersurface
    f = xy_poly("1")
    with pytest.raises(ValueError, match="zero form"):
        diagonal_smooth_check(fibred_sum(f, 1, 1, 2), 2)
    rep = bound_check(ASInstance(2, 1, 1, 1, 2, f))
    assert rep.r == 0 and rep.p_divides_r
    assert rep.smooth_status == "singular"
    assert not rep.hypothesis_ok


def example44_verdicts(f, p):
    """Example 4.4: the fibred sum of the split form f(x) + f(y) is smooth
    exactly when p does not divide d; its verdicts for d = 1..6."""
    return [diagonal_smooth_check(fibred_sum(f, 1, 1, d), p)
            for d in range(1, 7)]


def test_example_sweep_p2():
    verdicts = example44_verdicts(CUBIC, 2)
    assert verdicts == ["smooth", "singular"] * 3


def test_example_sweep_p3():
    verdicts = example44_verdicts(xy_poly("x1^2 + y1^2", F3), 3)
    assert verdicts == ["smooth", "smooth", "singular"] * 2


def test_budget_checked_before_domains(monkeypatch):
    from parzeta.counting import BudgetExceededError
    from parzeta.fields import Field

    def refuse(self, e, method="span"):
        raise AssertionError("domain materialised before the budget check")

    monkeypatch.setattr(Field, "subfield", refuse)
    inst = ASInstance(2, 1, 1, 1, 9, CUBIC)
    with pytest.raises(BudgetExceededError) as exc:
        as_count_brute(inst, budget=10)
    assert exc.value.cost == 2 ** (9 * 2) * 2
    with pytest.raises(BudgetExceededError) as exc:
        as_count_trace(inst, budget=10)
    assert exc.value.cost == 2 ** 9 * 2


def test_singular_search_refused_before_its_field_is_built(monkeypatch):
    # x1*y1 is smooth: every degree is searched until 2^(e(n-1)) = 2^27
    # passes the default budget, refused before F_(2^27) is built
    degrees = []
    search = fields.smallest_irreducible

    def spy(p, m):
        degrees.append(m)
        return search(p, m)

    monkeypatch.setattr(fields, "smallest_irreducible", spy)
    assert singular_search(xy_poly("x1*y1"), 26) is None
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        singular_search(xy_poly("x1*y1"), 40)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.cost == 2 ** 27
    assert str(exc.value).endswith("(singular_search e=27)")
    assert max(degrees, default=0) <= 26
