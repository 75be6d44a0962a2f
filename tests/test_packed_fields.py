"""Packed-int field arithmetic against the dense-polynomial reference.

Every operation is checked against ``_poly_mul``/``_poly_mod``/
``_poly_powmod`` on coefficient lists, for p in {2, 3, 5, 7} and degrees
on both sides of TABLE_CAP, so the table path and the schoolbook path are
each compared with code that shares nothing with them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from parzeta.fields import (TABLE_CAP, Field, _poly_mod, _poly_mul,
                            _poly_powmod, field)

BELOW = [(2, 6), (2, 12), (2, 20), (3, 5), (3, 8), (5, 5), (7, 3)]
ABOVE = [(2, 21), (3, 13), (5, 9), (7, 8)]


def reference(F, poly):
    """A reduced coefficient list, padded to the field's degree."""
    r = _poly_mod(poly, list(F.modulus), F.p)
    return tuple(r + [0] * (F.m - len(r)))


def ref_mul(F, a, b):
    return reference(F, _poly_mul(list(F.to_coeffs(a)), list(F.to_coeffs(b)),
                                  F.p))


def ref_pow(F, a, e):
    return reference(F, _poly_powmod(list(F.to_coeffs(a)), e,
                                     list(F.modulus), F.p))


@st.composite
def operands(draw, sizes=BELOW + ABOVE):
    p, m = draw(st.sampled_from(sizes))
    F = field(p, 1, m)
    a = draw(st.integers(0, p ** m - 1))
    b = draw(st.integers(0, p ** m - 1))
    return F, a, b


def test_sizes_straddle_the_cap():
    assert all(p ** m <= TABLE_CAP for p, m in BELOW)
    assert all(p ** m > TABLE_CAP for p, m in ABOVE)
    assert (2, 20) in BELOW and 2 ** 20 == TABLE_CAP


@settings(max_examples=300, deadline=None)
@given(operands())
def test_add_sub_neg_are_digitwise(case):
    F, a, b = case
    p = F.p
    x, y = F.to_coeffs(a), F.to_coeffs(b)
    assert F.to_coeffs(F.add(a, b)) == tuple((u + v) % p for u, v in zip(x, y))
    assert F.to_coeffs(F.sub(a, b)) == tuple((u - v) % p for u, v in zip(x, y))
    assert F.to_coeffs(F.neg(a)) == tuple(-u % p for u in x)


@settings(max_examples=300, deadline=None)
@given(operands())
def test_mul_matches_reference(case):
    F, a, b = case
    assert F.to_coeffs(F.mul(a, b)) == ref_mul(F, a, b)


@settings(max_examples=150, deadline=None)
@given(operands())
def test_inv_matches_reference(case):
    F, a, _ = case
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        return
    one = F.to_coeffs(F.one().value)
    assert ref_mul(F, a, F.inv(a)) == one
    assert F.to_coeffs(F.inv(a)) == ref_pow(F, a, F.size() - 2)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(0, 10 ** 6))
def test_pow_matches_reference(case, e):
    F, a, _ = case
    assert F.to_coeffs(F.pow(a, e)) == ref_pow(F, a, e)
    if a:
        assert F.pow(a, -e) == F.inv(F.pow(a, e))


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(0, 4))
def test_frobenius_matches_reference(case, e):
    F, a, _ = case
    x = F.frobenius(F.element(F.to_coeffs(a)), e)
    assert x.coeffs == ref_pow(F, a, F.q ** e)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2, 3), (3, 2, 2), (2, 3, 7), (2, 2, 11)]),
       st.integers(0, 3), st.data())
def test_frobenius_over_extension_base(pSN, e, data):
    # q = p^s: Frobenius is the q-th power, not the p-th
    F = field(*pSN)
    a = data.draw(st.integers(0, F.size() - 1))
    assert F.frobenius(F.element(F.to_coeffs(a)), e).coeffs == \
        ref_pow(F, a, F.q ** e)


@settings(max_examples=100, deadline=None)
@given(operands(ABOVE), st.integers(0, 5))
def test_frobenius_matrix_equals_pow_above_cap(case, e):
    F, a, _ = case
    assert F.frob(a, e) == F.pow(a, F.q ** e)


@settings(max_examples=300, deadline=None)
@given(operands())
def test_int_tuple_round_trip_and_order(case):
    F, a, b = case
    x, y = F.to_coeffs(a), F.to_coeffs(b)
    assert len(x) == F.m and all(0 <= c < F.p for c in x)
    assert F.to_int(x) == a
    assert F.element(x).value == a and F.element(x).coeffs == x
    # int order is the lex order of tuples read from the constant term up
    assert (a < b) == (x < y)


def test_constant_term_is_most_significant():
    F = field(3, 1, 4)
    assert F.one().value == 3 ** 3
    assert F.from_int(2).coeffs == (2, 0, 0, 0)
    assert F.gen().coeffs == (0, 1, 0, 0)
    assert [x.value for x in F.elements()][:5] == [0, 1, 2, 3, 4]


def test_tables_are_built_lazily():
    F = Field(2, 1, 18)
    assert "mul" not in vars(F)
    assert F.one() * F.gen() == F.gen()
    assert "mul" in vars(F) and "frob" in vars(F)


def test_filter_oracle_never_uses_the_frobenius_matrix(monkeypatch):
    def refuse(self, e):
        raise AssertionError("filter must decide x^(q^e) = x by powering")

    monkeypatch.setattr(Field, "_frobenius_cols", refuse)
    F = Field(2, 1, 6)
    assert len(F.subfield(3, method="filter")) == 8
    G = Field(3, 1, 13)  # above the cap
    x = G.element([1, 2, 0, 1, 0, 0, 2, 0, 0, 1, 0, 2, 1])
    assert G.in_subfield(x, 13)
    assert not G.in_subfield(x, 1)
