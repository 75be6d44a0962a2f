"""Packed-int field arithmetic against the dense-polynomial reference.

Every operation is checked against ``_poly_mul``/``_poly_mod``/
``_poly_powmod`` on coefficient lists, for p in {2, 3, 5, 7} and degrees
on both sides of TABLE_CAP, so the table path and the schoolbook path are
each compared with code that shares nothing with them.  The same
reference decides irreducibility by trial division, against the library's
Rabin test.  Above the cap, the p = 2 extended-Euclid inverse is also
held to a^(p^m - 2) by schoolbook products.  The tests of other modules
take the reference on packed ints, ``ref_one``, ``ref_add``, ``ref_neg``,
``ref_mul`` and ``ref_pow``, as arithmetic that shares no code with
``Field``'s.
"""

import random
from array import array
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from parzeta.fields import (TABLE_CAP, Field, _prime_factors, field,
                            is_irreducible)

# ---------------------------------------------------------------------------
# the reference: dense polynomials over F_p as coefficient lists, constant
# term first, with no trailing zeros
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, b, p):
    """a mod b, for b with a nonzero leading coefficient."""
    a = _trim(list(a))
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _trim(a)
    return a


def _poly_powmod(base, e, modulus, p):
    result = [1]
    base = _poly_mod(base, modulus, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), modulus, p)
        base = _poly_mod(_poly_mul(base, base, p), modulus, p)
        e >>= 1
    return result


BELOW = [(2, 6), (2, 12), (2, 20), (3, 5), (3, 8), (5, 5), (7, 3)]
ABOVE = [(2, 21), (3, 13), (5, 9), (7, 8)]


def reference(F, poly):
    """The packed int of a coefficient list, reduced by the modulus."""
    r = _poly_mod(poly, list(F.modulus), F.p)
    return F.to_int(r + [0] * (F.m - len(r)))


def ref_one(F):
    return F.to_int((1,) + (0,) * (F.m - 1))


def ref_add(F, a, b):
    return F.to_int([(u + v) % F.p
                     for u, v in zip(F.to_coeffs(a), F.to_coeffs(b))])


def ref_neg(F, a):
    return F.to_int([-u % F.p for u in F.to_coeffs(a)])


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
    assert F.add(a, b) == ref_add(F, a, b)
    assert F.sub(a, b) == ref_add(F, a, ref_neg(F, b))
    assert F.neg(a) == ref_neg(F, a)


@settings(max_examples=300, deadline=None)
@given(operands())
def test_mul_matches_reference(case):
    F, a, b = case
    assert F.mul(a, b) == ref_mul(F, a, b)


@settings(max_examples=150, deadline=None)
@given(operands())
def test_inv_matches_reference(case):
    F, a, _ = case
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        return
    assert ref_mul(F, a, F.inv(a)) == ref_one(F)
    assert F.inv(a) == ref_pow(F, a, F.size() - 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(21, 64), st.data())
def test_euclid_inverse_matches_powering(m, data):
    # above the cap F_(2^m) inverts by extended Euclid over F_2[t];
    # a^(2^m - 2), by schoolbook products alone, is the reference
    F = field(2, 1, m)
    assert F.size() > TABLE_CAP
    a = data.draw(st.one_of(st.just(1), st.just(F.size() - 1),
                            st.integers(1, F.size() - 1)))
    assert F.mul(a, F.inv(a)) == F.to_int((1,) + (0,) * (m - 1))
    assert F.inv(a) == F.pow(a, F.size() - 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(0, 10 ** 6))
def test_pow_matches_reference(case, e):
    F, a, _ = case
    assert F.pow(a, e) == ref_pow(F, a, e)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(0, 4))
def test_frobenius_matches_reference(case, e):
    F, a, _ = case
    assert F.frob(a, e) == ref_pow(F, a, F.q ** e)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2, 3), (3, 2, 2), (2, 3, 7), (2, 2, 11)]),
       st.integers(0, 3), st.data())
def test_frobenius_over_extension_base(pSN, e, data):
    # q = p^s: Frobenius is the q-th power, not the p-th
    F = field(*pSN)
    a = data.draw(st.integers(0, F.size() - 1))
    assert F.frob(a, e) == ref_pow(F, a, F.q ** e)


@settings(max_examples=100, deadline=None)
@given(operands(ABOVE), st.integers(0, 5))
def test_frobenius_matrix_equals_pow_above_cap(case, e):
    F, a, _ = case
    assert F.frob(a, e) == F.pow(a, F.q ** e)


@pytest.mark.parametrize("p, m", [(2, 21), (3, 13)])
def test_frobenius_above_cap_reduces_its_power_mod_n(p, m):
    # x^(q^N) = x, so Frob^e = Frob^(e mod N): one matrix per residue, with
    # root counts asking for e past N
    F = Field(p, 1, m)  # its own instance, so no matrix is cached yet
    built = []
    cols = F._frobenius_cols
    F._frobenius_cols = lambda e: built.append(e) or cols(e)
    values = [1, F._gen, F.size() - 1, F.size() // 3]
    for e in range(3 * m + 1):
        for a in values:
            assert F.frob(a, e) == F.frob(a, e % m)
    assert len(built) <= m
    assert [F.frob(a, 2 * m + 1) for a in values] == \
        [ref_pow(F, a, p ** (2 * m + 1)) for a in values]


@settings(max_examples=300, deadline=None)
@given(operands())
def test_int_tuple_round_trip_and_order(case):
    F, a, b = case
    x, y = F.to_coeffs(a), F.to_coeffs(b)
    assert len(x) == F.m and all(0 <= c < F.p for c in x)
    assert F.to_int(x) == a
    # int order is the lex order of tuples read from the constant term up
    assert (a < b) == (x < y)


def test_constant_term_is_most_significant():
    F = field(3, 1, 4)
    assert F.to_int((1, 0, 0, 0)) == 3 ** 3
    assert F.to_coeffs(2 * 3 ** 3) == (2, 0, 0, 0)
    assert F.to_coeffs(3 ** 2) == (0, 1, 0, 0)  # t
    assert list(F.elements())[:5] == [0, 1, 2, 3, 4]


# (p, m) with tables built by 1 to 18 doublings; odd p reaches past 1024
# elements.  The ids are m for p = 2 and p^m for odd p.
EXP_LOG_SIZES = ([(2, m) for m in list(range(1, 13)) + [18]]
                 + [(3, m) for m in range(1, 9)] + [(5, m) for m in range(1, 6)]
                 + [(7, m) for m in range(1, 5)])


@pytest.mark.parametrize("p, m", EXP_LOG_SIZES,
                         ids=[str(m) if p == 2 else f"{p}^{m}"
                              for p, m in EXP_LOG_SIZES])
def test_doubling_exp_log_equals_sequential_build(p, m):
    F = Field(p, 1, m)
    school = F._schoolbook()
    n, one = p ** m - 1, F._one
    alpha = next(v for v in range(1, n + 1)
                 if all(school["pow"](v, n // r) != one
                        for r in _prime_factors(n)))
    exp = array("I", [0]) * n
    log = array("I", [0]) * (n + 1)
    x = one
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = school["mul"](x, alpha)
    assert F._exp_log(alpha, school["mul"]) == (exp, log)


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 7), (5, 5), (7, 4)])
def test_zech_table_adds_one_to_every_element(p, m):
    # add(1, x) reads zech[log x], so this covers the whole Zech table
    F = Field(p, 1, m)
    one = ref_one(F)
    for x in F.elements():
        c = F.to_coeffs(x)
        assert F.to_coeffs(F.add(one, x)) == ((c[0] + 1) % p,) + c[1:]


@pytest.mark.parametrize("p, top", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_is_irreducible_matches_trial_division(p, top):
    # every monic polynomial of degree <= top against every monic divisor
    # of degree 1 .. m/2
    for m in range(1, top + 1):
        divisors = [list(t) + [1] for d in range(1, m // 2 + 1)
                    for t in product(range(p), repeat=d)]
        for tail in product(range(p), repeat=m):
            f = list(tail) + [1]
            trial = all(_poly_mod(f, g, p) for g in divisors)
            assert is_irreducible(f, p) == trial, f


@pytest.mark.parametrize("p", [46309, 2 ** 31 - 1])
def test_is_irreducible_on_cubics_over_a_large_prime(p):
    # p = 1 mod 3, so (x + t)^3 - c is irreducible iff c is not a cube,
    # decided by Python's pow; at p = 2^31 - 1, 3 p^2 passes 2^63 and the
    # Frobenius chain runs on Python ints in place of int64
    rng = random.Random(p)
    for _ in range(12):
        c, t = rng.randrange(1, p), rng.randrange(p)
        f = [(t ** 3 - c) % p, 3 * t * t % p, 3 * t % p, 1]
        assert is_irreducible(f, p) == (pow(c, (p - 1) // 3, p) != 1)


def test_filter_oracle_never_uses_the_frobenius_matrix(monkeypatch):
    def refuse(self, e):
        raise AssertionError("filter must decide x^(q^e) = x by powering")

    monkeypatch.setattr(Field, "_frobenius_cols", refuse)
    F = Field(2, 1, 6)
    assert len(F.subfield(3, method="filter")) == 8
    G = Field(3, 1, 13)  # above the cap
    x = G.to_int([1, 2, 0, 1, 0, 0, 2, 0, 0, 1, 0, 2, 1])
    assert G.in_subfield(x, 13)
    assert not G.in_subfield(x, 1)
