import pytest
from hypothesis import given, settings, strategies as st

from parzeta.fields import (FieldElement, field, is_irreducible,
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
    a = F.gen()
    assert a + a == F.zero()
    assert a * F.one() == a
    assert (a + F.one()) * (a + F.one()) == a * a + F.one()


def test_inverse_exhaustive():
    F = field(3, 1, 2)
    for x in (FieldElement(F, v) for v in F.elements()):
        if not x.is_zero():
            assert x * x.inverse() == F.one()


def test_division_by_zero():
    F = field(2, 1, 2)
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_ring_laws_f27(i, j, k):
    F = field(3, 1, 3)
    els = [FieldElement(F, v) for v in F.elements()]
    a, b, c = els[i], els[j], els[k]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_frobenius_is_qth_power():
    F = field(2, 2, 3)  # F_64 over F_4
    for x in [FieldElement(F, v) for v in F.elements()][:16]:
        assert F.frobenius(x, 1) == x ** 4


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
    assert emb(base.one().value) == F.one().value


def test_embedded_base_lands_in_subfield():
    base = field(2, 2, 1)
    F = field(2, 2, 2)
    emb = F.embed_base(base)
    for a in base.elements():
        assert F.in_subfield(emb(a), 1)


def test_element_constructors_pack_constant_term_first():
    F = field(3, 1, 4)
    assert F.one().value == 3 ** 3
    assert F.from_int(2).coeffs == (2, 0, 0, 0)
    assert F.gen().coeffs == (0, 1, 0, 0)
    x = (2, 0, 1, 1)
    assert F.element(x).value == F.to_int(x) and F.element(x).coeffs == x


def test_from_int():
    F = field(5, 1, 1)
    assert F.from_int(7) == F.from_int(2)
    assert F.from_int(0).is_zero()
