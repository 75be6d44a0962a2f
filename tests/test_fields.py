import random

import pytest
from hypothesis import given, settings, strategies as st

from parzeta.fields import (TABLE_CAP, FieldError, field, is_irreducible,
                            smallest_irreducible)


def test_degree_one_modulus_is_t():
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(5, 1) == (0, 1)


def test_modulus_is_irreducible():
    for p, m in [(2, 3), (2, 8), (3, 4), (5, 3)]:
        assert is_irreducible(smallest_irreducible(p, m), p)


def test_modulus_is_lex_smallest():
    # brute force over all monic cubics mod 2, constant-term-up ordering
    from itertools import product
    best = None
    for coeffs in product(range(2), repeat=3):
        g = coeffs + (1,)
        if is_irreducible(g, 2) and (best is None or coeffs < best[:3]):
            best = g
    assert smallest_irreducible(2, 3) == best


# smallest_irreducible(p, m) for m = 1, 2, ..., as digit strings from the
# constant term up.  The modulus fixes every packed int, so a change here
# would change every report.
MODULI = {
    2: ["01", "111", "1011", "10011", "100101", "1000011", "10000011",
        "100011011", "1000000011", "10000001001", "100000000101",
        "1000000001001", "10000000011011", "100000000100001",
        "1000000000000011", "10000000000101011", "100000000000001001",
        "1000000000000001001", "10000000000000100111",
        "100000000000000001001", "1000000000000000000101",
        "10000000000000000000011", "100000000000000000100001",
        "1000000000000000000011011"],
    3: ["01", "101", "1021", "10111", "100021", "1000111", "10000121",
        "100001101", "1000002101", "10000000201", "100000000121",
        "1000000010011"],
    5: ["01", "111", "1011", "10111", "100041", "1000111"],
    7: ["01", "101", "1011", "10011", "100031", "1000101"],
}


@pytest.mark.parametrize("p", sorted(MODULI))
def test_moduli_are_pinned(p):
    assert ["".join(map(str, smallest_irreducible(p, m)))
            for m in range(1, len(MODULI[p]) + 1)] == MODULI[p]


def test_element_count():
    assert len(list(field(2, 1, 3).elements())) == 8
    assert len(list(field(3, 2, 1).elements())) == 9


def test_basic_arithmetic():
    F = field(2, 1, 3)
    a, one = F._gen, F._one
    assert F.add(a, a) == 0
    assert F.mul(a, one) == a
    assert F.mul(F.add(a, one), F.add(a, one)) == F.add(F.mul(a, a), one)


def test_inverse_exhaustive():
    F = field(3, 1, 2)
    for x in F.elements():
        if x:
            assert F.mul(x, F.inv(x)) == F._one


def test_division_by_zero():
    F = field(2, 1, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ring_laws_f27(a, b, c):
    F = field(3, 1, 3)
    add, mul = F.add, F.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)


def test_frobenius_is_qth_power():
    F = field(2, 2, 3)  # F_64 over F_4
    for x in list(F.elements())[:16]:
        assert F.frob(x, 1) == F.pow(x, 4)


# perfbench/micro.py's fields, on exp/log tables, and two above TABLE_CAP
@pytest.mark.parametrize("p, m", [(2, 6), (2, 12), (2, 18), (3, 8), (2, 24),
                                  (3, 13)])
def test_element_handle_runs_the_int_operations(p, m):
    # the handle's +, * and inverse() and Field.frobenius return the int
    # add, mul, inv and frob of its value, so timing one times the other
    F = field(p, 1, m)
    rng = random.Random(f"{p}^{m}")
    for _ in range(40):
        c, d = ([rng.randrange(p) for _ in range(m)] for _ in range(2))
        c[0] = d[0] = 1  # nonzero, for inverse()
        x, y = F.element(c), F.element(d)
        a, b = F.to_int(c), F.to_int(d)
        for h, v in [(x + y, F.add(a, b)), (x * y, F.mul(a, b)),
                     (x.inverse(), F.inv(a)), (F.frobenius(x, 1), F.frob(a, 1))]:
            assert h.field is F and h.value == v


def test_frobenius_fixed_field_sizes():
    F = field(2, 1, 6)
    for e in (1, 2, 3, 6):
        assert len(F.subfield(e)) == 2 ** e


def test_subfield_methods_agree():
    F = field(2, 1, 6)
    for e in (1, 2, 3):
        assert F.subfield(e, method="filter") == F.subfield(e, method="span")
    G = field(3, 1, 4)
    assert G.subfield(2, method="filter") == G.subfield(2, method="span")


@pytest.mark.parametrize("e", [0, -1, -2])
def test_subfield_refuses_degree_below_one(e):
    # e = 0 used to raise ZeroDivisionError, and e = -1, -2 spanned the
    # whole field before they were refused for the wrong cardinality
    F = field(2, 1, 4)
    with pytest.raises(FieldError, match="positive divisor"):
        F.subfield(e)
    with pytest.raises(FieldError, match="not a subfield"):
        F.in_subfield(1, e)


@pytest.mark.parametrize("p, s, N, e", [
    (2, 1, 24, 1), (2, 1, 24, 2), (2, 1, 24, 3), (2, 1, 24, 4),
    (2, 1, 24, 6), (2, 1, 24, 8), (3, 1, 14, 1), (3, 1, 14, 2),
    (3, 1, 14, 7), (2, 2, 11, 1)])
def test_span_above_the_table_cap(p, s, N, e):
    # q^e strictly increasing elements, each fixed by x -> x^(q^e) as
    # decided by powering: x^(q^e) - x has only q^e roots, so that is
    # the whole subfield
    F = field(p, s, N)
    assert F.size() > TABLE_CAP
    sub = F.subfield(e, method="span")
    assert isinstance(sub, tuple)
    assert all(a < b for a, b in zip(sub, sub[1:]))
    assert len(sub) == F.q ** e
    assert all(F.in_subfield(x, e) for x in sub)


def test_subfield_is_closed():
    F = field(2, 1, 4)
    sub = F.subfield(2)
    ss = set(sub)
    for a in sub:
        for b in sub:
            assert F.add(a, b) in ss and F.mul(a, b) in ss


def test_in_subfield_consistent():
    F = field(3, 1, 2)
    sub = set(F.subfield(1))
    for x in F.elements():
        assert F.in_subfield(x, 1) == (x in sub)


def test_embed_base_is_homomorphism():
    base = field(2, 2, 1)
    F = field(2, 2, 3)
    emb = F.embed_base(base)
    els = list(base.elements())
    for a in els:
        for b in els:
            assert emb(base.add(a, b)) == F.add(emb(a), emb(b))
            assert emb(base.mul(a, b)) == F.mul(emb(a), emb(b))
    assert emb(base._one) == F._one


def test_embedded_base_lands_in_subfield():
    base = field(2, 2, 1)
    F = field(2, 2, 2)
    emb = F.embed_base(base)
    for a in base.elements():
        assert F.in_subfield(emb(a), 1)


def test_element_constructors_pack_constant_term_first():
    F = field(3, 1, 4)
    assert F._one == 3 ** 3
    assert F.to_coeffs(2 * F._one) == (2, 0, 0, 0)
    assert F.to_coeffs(F._gen) == (0, 1, 0, 0)
    x = (2, 0, 1, 1)
    assert F.to_coeffs(F.to_int(x)) == x
    assert F.element(x).value == F.element((5, 3, 4, 1)).value == F.to_int(x)
    with pytest.raises(FieldError, match="expected 4 coordinates"):
        F.element(x[:3])
