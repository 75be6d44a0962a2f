import copy
import json
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parzeta.cli import main
from parzeta.fields import _trim
from parzeta.polys import VarietySpec, base_field, parse_poly
from parzeta.zeta import (NoSolutionError, RationalFunctionZ,
                          TruncatedSeries, certify, pade_reconstruct,
                          reconstruct_counts, series_from_counts,
                          weil_weight_check)
from parzeta import zeta
from parzeta.zeta import (NonIntegerError, ReconstructionError, RootFindingError,
                          _denominator, _euclid, _euclid_step, _reciprocal_roots,
                          _scaled, _simple_roots, _split_order)

# the Mersenne prime 2^61 - 1: pinned inputs built on it agree mod p but
# differ over Q
_P61 = (1 << 61) - 1


def V(p, s, n, texts, profile):
    base = base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


def counts_of(R, k_max: int):
    """N_1..N_k of the rational function R via exact Newton power sums on
    both polynomials."""

    def power_sums(coeffs):
        out = []
        for k in range(1, k_max + 1):
            c_k = coeffs[k] if k < len(coeffs) else 0
            v = -k * c_k
            for j in range(1, min(k - 1, len(coeffs) - 1) + 1):
                v -= coeffs[j] * out[k - j - 1]
            out.append(v)
        return out

    sp = power_sums(R.den)
    sz = power_sums(R.num)
    return [a - b for a, b in zip(sp, sz)]


def test_series_recurrence():
    # exp(T + 3 T^2/2 + 4 T^3/3 + ...) with N = (1, 3, 4)
    S = series_from_counts([1, 3, 4])
    assert S.coeffs == (Fraction(1), Fraction(1), Fraction(2), Fraction(3))


def test_series_geometric():
    # N_k = q^k gives 1/(1 - qT): z_k = q^k... no, z_k = q^k? exp(sum (qT)^k/k)
    S = series_from_counts([2, 4, 8, 16])
    assert [z for z in S.coeffs] == [1, 2, 4, 8, 16]
    assert all(z.denominator == 1 for z in S.coeffs)


def test_series_can_be_fractional():
    S = series_from_counts([1, 0])
    assert S.coeffs[2] == Fraction(1, 2)
    assert not all(z.denominator == 1 for z in S.coeffs)


def test_expand_inverts_series():
    R = RationalFunctionZ((1, -1), (1, -2))
    z = R.expand(5)
    assert z[0] == 1
    S = series_from_counts(counts_of(R, 5))
    assert tuple(Fraction(v) for v in z) == S.coeffs


def test_trailing_zeros_are_trimmed():
    # (1, 0)/(1, -2) is the Weil function 1/(1 - 2T): degree 1, one pole
    # of weight 2, and no reciprocal root 0
    R = RationalFunctionZ((1, 0), (1, -2, 0, 0))
    assert R == RationalFunctionZ((1,), (1, -2))
    assert R.total_degree() == 1
    wr = weil_weight_check(R, 2)
    assert wr.passed
    assert [(r.side, r.weight) for r in wr.roots] == [("pole", 2)]


@pytest.mark.parametrize("num, den", [((), (1,)), ((1,), ()), ((2,), (1,)),
                                      ((1,), (0, 1))])
def test_constant_terms_other_than_one_refused(num, den):
    # an empty side has no constant term, so it is no 1 either
    with pytest.raises(ValueError, match="constant terms must be 1"):
        RationalFunctionZ(num, den)


def test_counts_newton():
    R = RationalFunctionZ((1,), (1, -2))
    assert counts_of(R, 4) == [2, 4, 8, 16]
    R2 = RationalFunctionZ((1, -1), (1, -2))
    assert counts_of(R2, 4) == [1, 3, 7, 15]


def test_pade_exact():
    S = series_from_counts([2, 4, 8, 16, 32])
    R = pade_reconstruct(S, 0, 1)
    assert R.num == (1,) and R.den == (1, -2)


def test_pade_reduces_to_lowest_terms():
    # series of (1-T)/(1-T)(1-2T) asked with inflated degrees
    R0 = RationalFunctionZ((1, -1), (1, -3, 2))
    S = TruncatedSeries(tuple(Fraction(v) for v in R0.expand(8)))
    R = pade_reconstruct(S, 1, 2)
    assert R.num == (1,) and R.den == (1, -2)


def test_pade_no_solution():
    # singular and inconsistent denominator system
    S = TruncatedSeries((Fraction(1), Fraction(1), Fraction(1), Fraction(2)))
    with pytest.raises(NoSolutionError):
        pade_reconstruct(S, 1, 2)


def test_pade_requires_enough_coefficients():
    S = series_from_counts([2, 4])
    with pytest.raises(ValueError):
        pade_reconstruct(S, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=0, max_size=2),
       st.lists(st.integers(-3, 3), min_size=1, max_size=2))
def test_pade_recovers_random_rational(num_tail, den_tail):
    # the degrees asked for are the tails' lengths, which a trailing zero
    # makes larger than R0's own
    R0 = RationalFunctionZ((1, *num_tail), (1, *den_tail))
    dn, dd = len(num_tail), len(den_tail)
    S = TruncatedSeries(tuple(Fraction(v) for v in R0.expand(dn + dd + 2)))
    R = pade_reconstruct(S, dn, dd)
    # compare by expansion: R0 may not be in lowest terms
    assert R.expand(dn + dd + 2) == R0.expand(dn + dd + 2)


# certify's reconstruction: these tests keep the names they had when it
# was auto_reconstruct

def test_auto_reconstruct_diagonal():
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    cert = certify(X, 10)
    assert cert.status == "ok"
    assert cert.function.num == (1,)
    assert cert.function.den == (1, -2)


def test_auto_reconstruct_hyperbola():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    cert = certify(X, 10)
    assert cert.status == "ok"
    assert cert.function.num == (1, -1)
    assert cert.function.den == (1, -2)


def test_auto_reconstruct_reports_budget():
    X = V(2, 1, 3, [], (1, 1, 1))
    cert = certify(X, 10, budget=600)
    assert cert.status == "budget-exceeded"
    assert cert.counts == (8, 64, 512)
    assert cert.function is None and cert.weights is None


def test_auto_reconstruct_truncated_counts():
    # N_k = 4^k; with 4 held out nothing fits N_1..N_4, and N_5 would
    # cost 1024 tuples
    X = V(2, 1, 2, [], (1, 1))
    cert = certify(X, 6, holdout=4, budget=300)
    assert cert.status == "budget-exceeded"
    assert cert.counts == (4, 16, 64, 256)


def test_auto_reconstruct_counts_through_max_k():
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    cert = certify(X, 4, holdout=4)
    assert cert.status == "no-acceptance"
    assert cert.counts == (2, 4, 8, 16)
    assert cert.function is None and cert.weights is None


def test_certify_weighs_the_accepted_candidate():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    cert = certify(X, 10)
    assert cert.counts == (1, 3, 7, 15, 31)
    assert cert.weights == weil_weight_check(cert.function, 2)
    assert cert.weights.weight_multiset() == [0, 2]


def test_certify_names_a_failed_weight_check(monkeypatch):
    monkeypatch.setattr(zeta, "weil_weight_check",
                        lambda R, q, tol: zeta.WeightReport(q, tol, (), False))
    cert = certify(V(2, 1, 2, ["x1 + x2"], (1, 1)), 10)
    assert cert.status == "weights-failed"
    assert cert.function.den == (1, -2)
    assert not cert.weights.passed


def test_certify_names_a_root_finding_failure(monkeypatch):
    def fail(R, q, tol):
        raise RootFindingError("root refinement did not converge")

    monkeypatch.setattr(zeta, "weil_weight_check", fail)
    cert = certify(V(2, 1, 2, ["x1 + x2"], (1, 1)), 10)
    assert cert.status == "root-finding-failed"
    assert cert.counts == (2, 4, 8, 16) and cert.function.den == (1, -2)
    assert cert.weights is None


def test_reconstructed_counts_match_fresh_enumeration():
    from parzeta.counting import partial_count
    X = V(2, 1, 2, ["x1*x2"], (1, 1))
    cert = certify(X, 12)
    B = len(cert.counts)
    fresh = [partial_count(X, k) for k in range(B + 1, B + 3)]
    assert counts_of(cert.function, B + 2)[B:] == fresh


def test_weight_check_simple():
    R = RationalFunctionZ((1, -1), (1, -2))
    wr = weil_weight_check(R, 2)
    assert wr.passed
    assert wr.weight_multiset() == [0, 2]


def test_weight_check_multiple_roots():
    # (1-T)^3 denominator: a triple reciprocal root at 1, weight 0
    R = RationalFunctionZ((1,), (1, -3, 3, -1))
    wr = weil_weight_check(R, 2)
    assert wr.passed
    assert wr.weight_multiset() == [0, 0, 0]


def test_weight_check_mixed_multiplicity():
    R = RationalFunctionZ((1,), (1, -4, 5, -2))  # (1-T)^2 (1-2T)
    wr = weil_weight_check(R, 2)
    assert wr.passed
    assert wr.weight_multiset() == [0, 0, 2]


def test_weight_check_rejects_off_weights():
    # reciprocal pole 3 is not a power of sqrt(2)
    R = RationalFunctionZ((1,), (1, -3))
    assert not weil_weight_check(R, 2).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("w", [20, 40])
def test_weight_check_rejects_a_pole_just_off_its_weight(w):
    # |lambda|^2 = 2^w + 1 at q = 2 is no Weil weight, but lies within the
    # relative tolerance of 2^(w/2), so the float check weighs it w
    R = RationalFunctionZ((1,), (1, 0, 2 ** w + 1))
    assert not weil_weight_check(R, 2).passed


def test_weight_check_conjugate_pair():
    # 1 + T^2 has reciprocal roots +-i, magnitude 1, weight 0
    R = RationalFunctionZ((1, 0, 1), (1,))
    wr = weil_weight_check(R, 3)
    assert wr.passed
    assert wr.weight_multiset() == [0, 0]


def sweep(tmp_path, capsys, equations, profiles, *flags, fmt="json"):
    """`parzeta sweep` on a variety over F_2 of profile 1, .., 1: its exit
    code and its report, or its csv text."""
    n = len(profiles[0].split(","))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"kind": "variety", "p": 2, "s": 1, "n": n,
                                "equations": equations, "profile": [1] * n}))
    code = main(["sweep", str(path), *profiles, "--max-k", "10", *flags,
                 "--format", fmt])
    out = capsys.readouterr().out
    return code, json.loads(out) if fmt == "json" else out


def test_degree_sweep_rows(tmp_path, capsys):
    code, rep = sweep(tmp_path, capsys, ["x1 + x2"], ["1,1", "1,2"])
    rows = rep["outputs"]["rows"]
    assert code == 0
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["total_degree"] for r in rows] == [1, 1]
    assert rows[1]["lcm"] == 2
    _, text = sweep(tmp_path, capsys, ["x1 + x2"], ["1,1", "1,2"], fmt="csv")
    assert text.splitlines()[0].startswith("profile,lcm,B_used")


def test_degree_sweep_failed_weights_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(zeta, "weil_weight_check",
                        lambda R, q, tol: zeta.WeightReport(q, tol, (), False))
    code, rep = sweep(tmp_path, capsys, ["x1 + x2"], ["1,1", "1,2"])
    rows = rep["outputs"]["rows"]
    assert code == 5
    assert [r["status"] for r in rows] == ["weights-failed"] * 2
    assert [r["total_degree"] for r in rows] == [1, 1]


def test_degree_sweep_failure_row(tmp_path, capsys):
    code, rep = sweep(tmp_path, capsys, [], ["1,1,1"], "--budget", "600")
    assert code == 4
    assert rep["outputs"]["rows"][0]["status"] == "budget-exceeded"


# ---------------------------------------------------------------------------
# The integer extended Euclid against the Fraction Gauss-Jordan path and
# the Fraction Euclid it replaced.  _solve_exact, _poly_gcd_q,
# _poly_div_exact and pade_reconstruct_oracle are the original
# implementation, kept verbatim as the oracle.
# ---------------------------------------------------------------------------


def _solve_exact(rows, rhs):
    """Solve A x = b over the rationals; free variables are set to 0.

    Returns the solution vector or None when the system is inconsistent.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for ri, c in enumerate(pivots):
        x[c] = aug[ri][n]
    return x


def _poly_gcd_q(a, b):
    """Monic gcd of rational-coefficient polynomials (constant first)."""

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def rem(x, y):
        x = list(x)
        dy = len(y) - 1
        while len(x) - 1 >= dy and trim(x):
            if len(x) - 1 < dy:
                break
            c = x[-1] / y[-1]
            sh = len(x) - 1 - dy
            for i, yi in enumerate(y):
                x[sh + i] -= c * yi
            trim(x)
        return x

    a, b = trim([Fraction(v) for v in a]), trim([Fraction(v) for v in b])
    while b:
        a, b = b, trim(rem(a, b))
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def _poly_div_exact(a, b):
    """Exact quotient a / b over Q; raises if the division is not exact."""
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a:
        return [Fraction(0)]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        sh = len(a) - len(b)
        q[sh] = c
        for i, bi in enumerate(b):
            a[sh + i] -= c * bi
    while a and a[-1] == 0:
        a.pop()
    if a:
        raise ValueError("inexact polynomial division")
    return q


def pade_reconstruct_oracle(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """P/Q with deg P <= dn, deg Q <= dd matching S through order dn + dd.

    The match is exact; the result is returned in lowest terms with
    integer coefficients and unit constant terms.
    """
    if dn + dd + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    z = S.coeffs
    # unknowns b_1..b_dd from  sum_{j=0}^{dd} b_j z_{k-j} = 0,  k = dn+1..dn+dd
    rows, rhs = [], []
    for k in range(dn + 1, dn + dd + 1):
        row = []
        for j in range(1, dd + 1):
            row.append(z[k - j] if k - j >= 0 else Fraction(0))
        rows.append(row)
        rhs.append(-z[k])
    sol = _solve_exact(rows, rhs)
    if sol is None:
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    den = [Fraction(1)] + list(sol)
    num = []
    for k in range(dn + 1):
        v = Fraction(0)
        for j in range(0, min(k, dd) + 1):
            v += den[j] * z[k - j]
        num.append(v)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    # reduce to lowest terms over Q
    g = _poly_gcd_q(num, den)
    if len(g) > 1:
        num = _poly_div_exact(num, g)
        den = _poly_div_exact(den, g)
    if not num or num[0] == 0 or den[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    num = [v / num[0] for v in num]
    den = [v / den[0] for v in den]
    if any(v.denominator != 1 for v in num + den):
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    R = RationalFunctionZ(tuple(int(v) for v in num), tuple(int(v) for v in den))
    # guard: the reduced candidate must still match through order dn + dd
    exp = R.expand(dn + dd)
    for k in range(dn + dd + 1):
        if Fraction(exp[k]) != z[k]:
            raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return R


def _reciprocal_roots_oracle(coeffs):
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    P = [Fraction(c) for c in coeffs]
    dP = [i * c for i, c in enumerate(P)][1:]
    g = _poly_gcd_q(P, dP)
    if len(g) > 1:
        sf = _poly_div_exact(P, g)
        return sorted(_simple_roots(sf) + _reciprocal_roots_oracle(g),
                      key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    return _simple_roots(P)


def _series_oracle(counts):
    z = [Fraction(1)]
    for k in range(1, len(counts) + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += Fraction(counts[j - 1]) * z[k - j]
        z.append(acc / k)
    return tuple(z)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _expand(num, den, length):
    """Series of num/den over Q, den[0] != 0."""
    z = []
    for k in range(length):
        v = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            v -= den[j] * z[k - j]
        z.append(v / den[0])
    return z


def _outcome(reconstruct, S, dn, dd):
    try:
        R = reconstruct(S, dn, dd)
    except (ReconstructionError, ValueError) as exc:
        return type(exc), str(exc)
    return R.num, R.den


_small = st.integers(-4, 4)


@st.composite
def pade_cases(draw):
    dn, dd = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    length = dn + dd + 1 + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["rational", "counts", "sparse", "fractions"]))
    if kind == "rational":
        # P/Q times a common factor F; F(0) != 1 makes the series fractional
        P = [1] + draw(st.lists(_small, max_size=4))
        Q = [1] + draw(st.lists(_small, max_size=4))
        F = [draw(st.sampled_from([1, 1, -1, 2, 3]))] + \
            draw(st.lists(_small, max_size=3))
        z = _expand(_pmul(P, F), _pmul(Q, F), length)
    elif kind == "counts":
        z = list(series_from_counts(
            draw(st.lists(st.integers(-6, 12), min_size=length,
                          max_size=length))).coeffs[:length])
    elif kind == "sparse":
        # mostly zeros: singular and inconsistent Hankel systems
        z = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]),
                          min_size=length, max_size=length))
    else:
        z = draw(st.lists(st.builds(Fraction, _small, st.integers(1, 4)),
                          min_size=length, max_size=length))
    if draw(st.booleans()) and draw(st.booleans()):
        z[0] = 0
    return TruncatedSeries(tuple(Fraction(v) for v in z)), dn, dd


@settings(max_examples=400, deadline=None)
@given(pade_cases())
def test_pade_matches_fraction_gauss_jordan(case):
    S, dn, dd = case
    assert _outcome(pade_reconstruct, S, dn, dd) == \
        _outcome(pade_reconstruct_oracle, S, dn, dd)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 200), min_size=1, max_size=20))
def test_series_integer_recurrence_matches_fractions(counts):
    assert series_from_counts(counts).coeffs == _series_oracle(counts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([[1, -1], [1, 2], [1, 0, 1],
                                           [1, -1, 2], [1, 3, 9],
                                           [1, 0, 2**20 + 1], [1, _P61],
                                           [3, 0, 0, -7 * 2**30]]),
                          st.integers(1, 3)),
                min_size=1, max_size=3))
def test_reciprocal_roots_match_exact_split(factors):
    P = [1]
    for f, e in factors:
        for _ in range(e):
            P = _pmul(P, f)
    assert _reciprocal_roots(P) == _reciprocal_roots_oracle(P)


def _check_against_oracle(num, den, dn, dd, length):
    S = TruncatedSeries(tuple(_expand(num, den, length)))
    got = _outcome(pade_reconstruct, S, dn, dd)
    assert got == _outcome(pade_reconstruct_oracle, S, dn, dd)
    for P in (num, den, _pmul(num, den)):
        assert _reciprocal_roots(P) == _reciprocal_roots_oracle(P)
    return got


def test_leading_multiple_of_p61_matches_oracle():
    # (1 + pT)(1 + T) / (1 + pT)(1 + 2T): mod p the common factor becomes
    # the constant 1 and the degrees drop, so a modular gcd alone would
    # call the pair coprime
    p = _P61
    num, den = _pmul([1, p], [1, 1]), _pmul([1, p], [1, 2])
    assert _poly_gcd_q(num, den) == [Fraction(1, p), 1]
    assert _check_against_oracle(num, den, 2, 2, 6) == ((1, 1), (1, 2))
    assert _check_against_oracle(num, den, 1, 1, 4) == ((1, 1), (1, 2))
    # (1 + pT)^2 / 2p(1 + pT): z_0 = 1/(2p), which the final guard rejects
    assert _check_against_oracle([1, 2 * p, p * p], [2 * p, 2 * p * p],
                                 2, 1, 5)[0] is NoSolutionError


def test_coprime_over_q_but_not_mod_p():
    # 1 + T and 1 + (1 + p)T agree mod p, but are coprime over Q
    p = _P61
    num, den = [1, 1], [1, 1 + p]
    assert _poly_gcd_q(num, den) == [1]
    assert _check_against_oracle(num, den, 1, 1, 5) == ((1, 1), (1, 1 + p))


def test_pade_rank_deficient_case_matches_oracle():
    # (1 + 3T)/(1 + T) asked at degrees (2, 4): the Hankel system has rank
    # 3 of 4, and Gauss-Jordan sets its free variable to 0
    z = [1, 2, -2, 2, -2, 2, -2]
    dn, dd = 2, 4
    rows = [[z[k - j] if k - j >= 0 else 0 for j in range(1, dd + 1)]
            for k in range(dn + 1, dn + dd + 1)]
    assert _solve_exact(rows, [-z[k] for k in range(dn + 1, dn + dd + 1)]) \
        == [1, 0, 0, 0]
    S = TruncatedSeries(tuple(Fraction(v) for v in z))
    R = pade_reconstruct(S, dn, dd)
    assert (R.num, R.den) == ((1, 3), (1, 1))
    assert _outcome(pade_reconstruct, S, dn, dd) == \
        _outcome(pade_reconstruct_oracle, S, dn, dd)


def _rem_q(x, a):
    """Remainder of x modulo a over Q (constant first, a nonzero)."""
    x = [Fraction(v) for v in x]
    while x and x[-1] == 0:
        x.pop()
    while len(x) >= len(a):
        c = x[-1] / a[-1]
        sh = len(x) - len(a)
        for i, v in enumerate(a):
            x[sh + i] -= c * v
        while x and x[-1] == 0:
            x.pop()
    return x


_int_poly = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 5, 2**40 + 1,
                                      -(2**40 + 1)]),
                     min_size=1, max_size=9).filter(any)


def _pair_step(r0, t0, r1, t1):
    """The extended Euclid's step on pairs, kept as the oracle for
    `_euclid_step`: with delta = deg r0 - deg r1, the new r is the
    pseudo-remainder lc(r1)^(delta+1) r0 - quo r1 (no scaling when
    delta < 0) and the new t is lc(r1)^(delta+1) t0 - quo t1, both divided
    by the positive content of the pair."""
    n, lead = len(r1) - 1, r1[-1]
    if len(r0) == n + 2:
        sq, shifted = lead * lead, [0, *r1]
        f1 = lead * r0[-1]
        f0 = lead * r0[-2] - r0[-1] * shifted[n]
        r = [sq * a - f1 * s - f0 * b for a, s, b in zip(r0[:n], shifted, r1)]
        m = max(len(t0), len(t1) + 1)
        t0, t1 = t0 + [0] * (m - len(t0)), t1 + [0] * (m - len(t1))
        t = [sq * a - f1 * s - f0 * b for a, s, b in zip(t0, [0, *t1], t1)]
    else:
        e = max(len(r0) - n, 0)
        s = lead ** e
        x, t = [s * v for v in r0], [s * v for v in t0]
        t += [0] * (e + len(t1) - 1 - len(t))
        for k in reversed(range(e)):
            f = x[k + n] // lead
            if f:
                for i, v in enumerate(r1):
                    x[k + i] -= f * v
                for i, v in enumerate(t1):
                    t[k + i] -= f * v
        r = x[:n]
    _trim(r)
    _trim(t)
    g = math.gcd(*r, *t)
    if g > 1:
        r = [v // g for v in r]
        t = [v // g for v in t]
    return r, t


def _euclid_pairs(a, b):
    """The extended Euclid on pairs, the oracle for `_euclid`: rows (r, t)
    with r - t b a multiple of a over Q, from (b, 1) down to the first
    r = [], each made by `_pair_step` from the two before it, the one
    before (b, 1) being (a, 0)."""
    r0, t0 = _trim(list(a)), []
    r1, t1 = _trim(list(b)), [1]
    yield r1, t1
    while r1:
        r0, t0, (r1, t1) = r1, t1, _pair_step(r0, t0, r1, t1)
        yield r1, t1


def _primitive(r):
    """r divided by its own positive content, sign kept."""
    g = math.gcd(*r)
    return [v // g for v in r] if g > 1 else list(r)


def _numerator_rows(a, b):
    """The rows `_euclid(a, b)` should give: each pair row's r over its
    own positive content."""
    return [_primitive(r) for r, _ in _euclid_pairs(a, b)]


@settings(max_examples=300, deadline=None)
@given(_int_poly, _int_poly, st.sampled_from([[1], [1, 1], [-2, 0, 3]]))
def test_euclid_rows_match_fraction_gcd(a, b, common):
    # a shared factor makes a nontrivial gcd likely
    a, b = _pmul(a, common), _pmul(b, common)
    rows, pairs = list(_euclid(a, b)), list(_euclid_pairs(a, b))
    # each row is the pair row's r over its own positive content
    assert rows == [_primitive(r) for r, _ in pairs]
    degrees = [len(r) - 1 for r in rows]
    assert degrees == sorted(set(degrees), reverse=True)
    assert rows[0] == _primitive(_trim(list(b)))
    assert rows[-1] == [] and all(rows[:-1])
    for r, t in pairs:
        # r = t b (mod a) over Q: every step keeps the identity exactly
        tb = _pmul(t, b) if t else [0]
        diff = [(r[i] if i < len(r) else 0) - (tb[i] if i < len(tb) else 0)
                for i in range(max(len(r), len(tb)))]
        assert _rem_q(diff, _poly_div_exact(a, [1])) == []
    g, t = rows[-2], pairs[-1][1]
    want = _poly_gcd_q(a, b)
    assert [Fraction(v, g[-1]) for v in g] == want
    # the cofactor beside the zero remainder is a scalar multiple of a / gcd
    cof = _poly_div_exact(a, want)
    assert [Fraction(v, t[-1]) for v in t] == [v / cof[-1] for v in cof]


def _euclid_reference(a, b):
    """The extended Euclid of the parent commit, kept as the reference: its
    pseudo-division scales by lc only where a quotient term would not be
    an integer, so its rows equal `_euclid_pairs`' up to sign."""
    r0, t0 = _trim(list(a)), []
    r1, t1 = _trim(list(b)), [1]
    yield r1, t1
    while r1:
        n, lead = len(r1) - 1, r1[-1]
        x, s = list(r0), 1
        quo = [0] * max(len(x) - n, 0)
        for k in reversed(range(len(quo))):
            c = x[k + n]
            if not c:
                continue
            if c % lead:
                x = [lead * v for v in x]
                quo = [lead * v for v in quo]
                s *= lead
                c = x[k + n]
            f = c // lead
            quo[k] = f
            for i, v in enumerate(r1):
                x[k + i] -= f * v
        r = _trim(x[:n])
        t = [s * v for v in t0]
        t += [0] * (len(quo) + len(t1) - 1 - len(t))
        for k, f in enumerate(quo):
            if f:
                for i, v in enumerate(t1):
                    t[k + i] -= f * v
        _trim(t)
        g = math.gcd(*r, *t)
        if g > 1:
            r = [v // g for v in r]
            t = [v // g for v in t]
        r0, t0, r1, t1 = r1, t1, r, t
        yield r1, t1


def _sign_rule_row(r0, t0, r1, t1):
    """The row after (r0, t0), (r1, t1) by the sign rule, over Q: e =
    max(deg r0 - deg r1 + 1, 0), quo the quotient of lc(r1)^e r0 by r1,
    and the pair lc^e (r0, t0) - quo (r1, t1) divided by its positive
    content."""
    lead, e = r1[-1], max(len(r0) - len(r1) + 1, 0)
    x = [Fraction(lead ** e * v) for v in r0]
    quo = [Fraction(0)] * max(len(x) - len(r1) + 1, 0)
    for k in reversed(range(len(quo))):
        quo[k] = x[k + len(r1) - 1] / lead
        for i, v in enumerate(r1):
            x[k + i] -= quo[k] * v
    assert all(v.denominator == 1 for v in quo)  # a pseudo-quotient
    qt = _pmul(quo, t1) if quo and t1 else []
    t = [(lead ** e * (t0[i] if i < len(t0) else 0)
          - (qt[i] if i < len(qt) else 0)) for i in range(max(len(t0), len(qt)))]
    r, t = _trim([int(v) for v in x[:len(r1) - 1]]), _trim([int(v) for v in t])
    g = math.gcd(*r, *t)
    return [v // g for v in r], [v // g for v in t]


_SIGN_FLIP = ([0, 0, 0, 0, 1], [1, 0, -1, 0, 0, 0, -2])


@settings(max_examples=300, deadline=None)
@given(_int_poly, _int_poly, st.sampled_from([[1], [1, 1], [-2, 0, 3],
                                               [0, 5, 0, -(2**40 + 1)]]))
@example(*_SIGN_FLIP, [1])
@example([1, 0, 0, 0, 0, 0, 0, 1], [3, 0, -(2**40 + 1), 0, -1], [1])
# a Pade table: T^9 against a scaled series, every step a drop of one
@example([0] * 9 + [1], [840, 840, 1680, 2520, 4620, 7308, 13608, 17676,
                         26979], [1])
def test_euclid_rows_equal_reference_up_to_sign(a, b, common):
    # drops of one (the one-pass step) and of two or more (the general
    # loop), shared factors, negative leading coefficients, zeros, 2^40 + 1
    a, b = _pmul(a, common), _pmul(b, common)
    pairs, ref = list(_euclid_pairs(a, b)), list(_euclid_reference(a, b))
    assert [len(r) for r, _ in pairs] == [len(r) for r, _ in ref]
    for (r, t), (u, w) in zip(pairs, ref):
        assert (r, t) in ((u, w), ([-v for v in u], [-v for v in w]))
    # the sign rule: each pair row after (b, 1) is lc^(delta+1) times the
    # one two back, minus quo times the last, over its positive content
    prev = [(_trim(list(a)), [])] + pairs
    for (r0, t0), (r1, t1), row in zip(prev, prev[1:], prev[2:]):
        assert row == _sign_rule_row(r0, t0, r1, t1)
    # and each numerator row is that pair's r over its own positive
    # content, sign included
    assert list(_euclid(a, b)) == [_primitive(r) for r, _ in pairs]


def test_euclid_sign_rule_examples():
    # T^4 against 1 - T^2 - 2T^6: a swap (no scaling), a drop of two by
    # T^4, then a drop of two by 1 - T^2, lc = -1: the rule scales by
    # (-1)^3, the parent by nothing (every quotient term was an integer),
    # so the signs part there
    pairs = list(_euclid_pairs(*_SIGN_FLIP))
    ref = list(_euclid_reference(*_SIGN_FLIP))
    assert pairs == [([1, 0, -1, 0, 0, 0, -2], [1]), ([0, 0, 0, 0, 1], []),
                     ([1, 0, -1], [1]), ([-1], [-1, 0, -1]),
                     ([], [0, 0, 0, 0, -1])]
    assert ref[:3] == pairs[:3]
    assert ref[3:] == [([1], [1, 0, 1]), ([], [0, 0, 0, 0, 1])]
    # the numerator rows keep the pairs' signs, -1 where the parent had 1
    assert list(_euclid(*_SIGN_FLIP)) == [r for r, _ in pairs]
    # a drop of one is scaled by lc^2 > 0: 4T^2 - (-2T - 3)(3 - 2T) = 9,
    # the pair's content 1 and the numerator's own content 9
    assert _pair_step([0, 0, 1], [], [3, -2], [1]) == ([9], [3, 2])
    assert _euclid_step([0, 0, 1], [3, -2]) == [1]
    # by 2 - 2T^2: 4T^3 + 2T (2 - 2T^2) = 4T, its content 4
    assert _euclid_step([0, 0, 0, 1], [2, 0, -2]) == [0, 1]


def _euclid_step_rescaling(r0, t0, r1, t1):
    """The reference Euclid step: `_pair_step`'s one-pass drop of one,
    and a general loop that scales by lc only where a quotient term would
    not be an integer, then takes the sign of lc^(delta+1)."""
    n, lead = len(r1) - 1, r1[-1]
    if len(r0) == n + 2:
        sq, shifted = lead * lead, [0, *r1]
        f1 = lead * r0[-1]
        f0 = lead * r0[-2] - r0[-1] * shifted[n]
        r = [sq * a - f1 * s - f0 * b for a, s, b in zip(r0[:n], shifted, r1)]
        m = max(len(t0), len(t1) + 1)
        t0, t1 = t0 + [0] * (m - len(t0)), t1 + [0] * (m - len(t1))
        t = [sq * a - f1 * s - f0 * b for a, s, b in zip(t0, [0, *t1], t1)]
    else:
        x, s = list(r0), 1
        quo = [0] * max(len(x) - n, 0)
        for k in reversed(range(len(quo))):
            c = x[k + n]
            if not c:
                continue
            if c % lead:
                x = [lead * v for v in x]
                quo = [lead * v for v in quo]
                s *= lead
                c = x[k + n]
            f = c // lead
            quo[k] = f
            for i, v in enumerate(r1):
                x[k + i] -= f * v
        r = x[:n]
        t = [s * v for v in t0]
        t += [0] * (len(quo) + len(t1) - 1 - len(t))
        for k, f in enumerate(quo):
            if f:
                for i, v in enumerate(t1):
                    t[k + i] -= f * v
        # s = lc^e, e <= delta + 1, so (r, t) is lc^(e - delta - 1) times
        # the pseudo-remainder pair: give it that pair's sign
        if (s < 0) != (lead < 0 and len(quo) % 2 == 1):
            r, t = [-v for v in r], [-v for v in t]
    _trim(r)
    _trim(t)
    g = math.gcd(*r, *t)
    if g > 1:
        r = [v // g for v in r]
        t = [v // g for v in t]
    return r, t


@pytest.mark.parametrize("lead", [1, -1, 2, -2, 3, -3])
@pytest.mark.parametrize("drop", [0, 1, 2, 3, -1, -2])
def test_euclid_step_rows_identical_to_rescaling_reference(drop, lead):
    # the same row, sign included, as the loop that rescaled only where a
    # quotient term was not an integer; drop = deg r0 - deg r1 < 0 is the
    # first step when deg a < deg b.  Leads 2 and 3 against tops 1, 5 and
    # 7 make that loop rescale; leads -1, -2 and -3 its sign fix-up
    rng = random.Random(f"{drop} {lead}")
    for _ in range(60):
        n = rng.randint(max(0, -drop), 4)
        r1 = [rng.randint(-6, 6) for _ in range(n)] + [lead]
        r0 = [rng.randint(-6, 6) for _ in range(n + drop)] + [
            rng.choice([1, -1, 2, 5, -6, 7, 9])]
        t1 = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [
            rng.choice([1, -2, 3])]
        t0 = _trim([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        ref = _euclid_step_rescaling(r0, t0, r1, t1)
        assert _pair_step(r0, t0, r1, t1) == ref
        # the numerator step: the reference r over its own positive content
        assert _euclid_step(r0, r1) == _primitive(ref[0])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_weight_check_rejects_tolerance_not_positive_finite(tol):
    # |lambda|^2 = 7 at q = 2 is no Weil weight; a NaN tolerance used to
    # pass it because every comparison with NaN is false
    with pytest.raises(ValueError):
        weil_weight_check(RationalFunctionZ((1,), (1, 0, 7)), 2, tol=tol)
    assert not weil_weight_check(RationalFunctionZ((1,), (1, 0, 7)), 2).passed


@pytest.mark.parametrize("R", [RationalFunctionZ((1,), (1,)),
                               RationalFunctionZ((1,), (1, -2))])
@pytest.mark.parametrize("q", [1, 0, -2])
def test_weight_check_refuses_q_below_two(q, R):
    # q = 1 used to pass 1/1 and raise ZeroDivisionError on 1/(1 - 2T),
    # and q = 0 a math domain error
    with pytest.raises(ValueError, match="q must be at least 2"):
        weil_weight_check(R, q)


# ---------------------------------------------------------------------------
# one Pade table per series: the tabled rows against a fresh Euclid per
# split
# ---------------------------------------------------------------------------

def pade_fresh_euclid(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """pade_reconstruct with its own pair Euclid, `_euclid_pairs`, run for
    this one split, and the cofactor beside the judged row as Q."""
    if dn + dd + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    z = S.coeffs[:dn + dd + 1]
    L = math.lcm(*(v.denominator for v in z))
    y = [v.numerator * (L // v.denominator) for v in z]
    num, den = next((r, t) for r, t in _euclid_pairs([0] * len(y) + [1], y)
                    if len(r) <= dn + 1)
    if den[0] == 0:
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    if not num or num[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    n0, d0 = num[0], den[0]
    if any(v % n0 for v in num) or any(v % d0 for v in den):
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    R = RationalFunctionZ(tuple(v // n0 for v in num),
                          tuple(v // d0 for v in den))
    if [v * L for v in R.expand(dn + dd)] != y:
        raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return R


@st.composite
def weil_factor(draw, qs=(2, 3, 4, 5, 7, 9)):
    """1 - a T + q^w T^2 with a^2 <= 4 q^w, or 1 -/+ q^w T, q in qs."""
    qw = draw(st.sampled_from(qs)) ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        bound = math.isqrt(4 * qw)
        return [1, -draw(st.integers(-bound, bound)), qw]
    return [1, draw(st.sampled_from([-qw, qw]))]


@st.composite
def weil_products(draw):
    """P/Q, each side a product of up to three `weil_factor`s."""
    sides = []
    for _ in range(2):
        P = [1]
        for f in draw(st.lists(weil_factor(), max_size=3)):
            P = _pmul(P, f)
        sides.append(tuple(P))
    return RationalFunctionZ(*sides)


@st.composite
def count_lists(draw):
    """N_1..N_L from a random Weil-factor P/Q, or random integers."""
    length = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-6, 40), min_size=length,
                             max_size=length))
    return counts_of(draw(weil_products()), length)


def _splits(counts):
    """(S, dn, dd) for every split of every B, S the series of N_1..N_B."""
    for B in range(1, len(counts) + 1):
        S = series_from_counts(counts[:B])
        for dn in range(B + 1):
            yield S, dn, B - dn


@settings(max_examples=60, deadline=None)
@given(count_lists(), count_lists())
def test_pade_shared_rows_match_fresh_euclid(counts_a, counts_b):
    # A, B, A at every split: each series answers from its own table, and
    # A's second ask judges the row its first one built
    splits_b = list(_splits(counts_b))
    for i, case_a in enumerate(_splits(counts_a)):
        case_b = splits_b[i % len(splits_b)]
        for S, dn, dd in (case_a, case_b, case_a):
            got = _outcome(pade_reconstruct, S, dn, dd)
            assert got == _outcome(pade_fresh_euclid, S, dn, dd)
            if isinstance(got[0], type):
                with pytest.raises(got[0]):
                    pade_reconstruct(S, dn, dd)


@st.composite
def series_z0(draw):
    """z_0 in {0, 1, 2, 1/2}, then z_1..z_M: y_0 = 0, L > 1 and Fraction
    terms.  The rest comes from a P/Q, from counts, mostly zeros or
    Fractions, and z_0 either replaces the first term or scales them all
    (z_0 = 0 then gives the zero series)."""
    z0 = draw(st.sampled_from([0, 1, 2, Fraction(1, 2)]))
    length = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["rational", "counts", "sparse", "fractions"]))
    if kind == "rational":
        z = _expand([1] + draw(st.lists(_small, max_size=4)),
                    [1] + draw(st.lists(_small, max_size=4)), length)
    elif kind == "counts":
        z = list(series_from_counts(draw(st.lists(
            st.integers(-6, 12), min_size=length, max_size=length))).coeffs)
    elif kind == "sparse":
        z = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]),
                          min_size=length, max_size=length))
    else:
        z = draw(st.lists(st.builds(Fraction, _small, st.integers(1, 4)),
                          min_size=length, max_size=length))
    z = z[:length]
    if draw(st.booleans()):
        z = [z0 * v for v in z]
    else:
        z[0] = z0
    return TruncatedSeries(tuple(z))


@settings(max_examples=300, deadline=None)
@given(series_z0())
@example(TruncatedSeries((0,)))
@example(TruncatedSeries((0, 0, 0)))
@example(TruncatedSeries((Fraction(1, 2), 1, 3, 0, 0, 2)))
def test_pade_matches_both_oracles_at_every_split(S):
    # every split of every order, dn falling, on one series: the
    # Gauss-Jordan oracle and the pair Euclid agree with the numerator
    # rows, the exception's type and message included
    for N in range(len(S.coeffs)):
        for dn in reversed(range(N + 1)):
            got = _outcome(pade_reconstruct, S, dn, N - dn)
            assert got == _outcome(pade_reconstruct_oracle, S, dn, N - dn)
            assert got == _outcome(pade_fresh_euclid, S, dn, N - dn)


def _step_spy(monkeypatch):
    """Patch `zeta._euclid_step` to record each call's arguments."""
    calls = []

    def spy(r0, r1):
        calls.append((r0, r1))
        return _euclid_step(r0, r1)

    monkeypatch.setattr(zeta, "_euclid_step", spy)
    return calls


def _table_rows(S, N):
    """dn -> the rows a table of S for N should hold once dn is asked:
    T^(N+1), then the numerator rows of (T^(N+1), y), y the scaled
    z_0..z_N, from the pair Euclid, down to the first with deg r <= dn."""
    z = S.coeffs[:N + 1]
    L = math.lcm(*(v.denominator for v in z))
    a = [0] * (N + 1) + [1]
    rows = [a] + _numerator_rows(a, [v.numerator * (L // v.denominator)
                                     for v in z])
    return lambda dn: rows[:next(i for i, r in enumerate(rows)
                                 if len(r) <= dn + 1) + 1]


def _fresh_outcomes(S, orders):
    """(dn, dd) -> `pade_fresh_euclid`'s outcome, for N in orders and dn
    from N down to 0."""
    return {(dn, N - dn): _outcome(pade_fresh_euclid, S, dn, N - dn)
            for N in orders for dn in reversed(range(N + 1))}


def test_pade_table_runs_one_euclid_per_order(monkeypatch):
    R = RationalFunctionZ((1, -2), (1, -3, 4))
    S = series_from_counts(counts_of(R, 8))
    want = _fresh_outcomes(S, range(9))
    rows_of = {N: _table_rows(S, N) for N in range(9)}
    calls = _step_spy(monkeypatch)
    for _ in range(2):
        for (dn, dd), outcome in want.items():
            assert _outcome(pade_reconstruct, S, dn, dd) == outcome
    # one Euclid per order, each step run once, down to the row of dn = 0
    assert sorted(S._pade) == list(range(9))
    for N, rows in S._pade.items():
        assert rows == rows_of[N](0)
    steps = [(rows[i - 2], rows[i - 1]) for rows in S._pade.values()
             for i in range(2, len(rows))]
    assert sorted(map(repr, calls)) == sorted(map(repr, steps))
    # one split builds one table, down to its own row only
    del calls[:]
    T = series_from_counts(counts_of(R, 8))
    assert pade_reconstruct(T, 1, 2) == R
    assert list(T._pade) == [3]
    assert T._pade[3] == rows_of[3](1)
    assert len(calls) == len(T._pade[3]) - 2 > 0
    # the library's deepening: one table per B, N = B - holdout, each
    # started once, from T^(N+1) (N = 0 needs no step: its row 1 has
    # degree 0)
    del calls[:]
    count_at, fetched = _recording(counts_of(R, 12))
    res = reconstruct_counts(count_at, 12)
    starts = [len(r0) - 2 for r0, _ in calls
              if r0 == [0] * (len(r0) - 1) + [1]]
    assert res == R and starts == list(range(1, len(fetched) - 2))


def test_pade_builds_rows_on_demand(monkeypatch):
    # a generic series: every step drops the degree by one
    S = series_from_counts([1, 3, 4, 9, 12, 30, 2, 5, 7])
    want = _fresh_outcomes(S, reversed(range(9)))
    rows_of = {N: _table_rows(S, N) for N in range(9)}
    calls = _step_spy(monkeypatch)
    assert _outcome(pade_reconstruct, S, 4, 4) == want[(4, 4)]
    rows = S._pade[8]
    assert rows == rows_of[8](4)
    assert len(rows[-2]) > 5 >= len(rows[-1])
    assert len(calls) == len(rows) - 2 == 4
    # every split asked afterwards, dn falling: the fresh Euclid's
    # outcome, with the rows grown only as far as the smallest dn asked
    for (dn, dd), outcome in want.items():
        N = dn + dd
        assert _outcome(pade_reconstruct, S, dn, dd) == outcome
        assert S._pade[N] == rows_of[N](min(dn, 4) if N == 8 else dn)
    assert len(calls) == sum(len(rows) - 2 for rows in S._pade.values())


def test_pade_table_holds_numerators_and_builds_denominators_lazily(
        monkeypatch):
    # the table holds numerator rows only, as ints, and Q is built only
    # for a judged row whose numerator passed: t(0) != 0, r(0) != 0 and
    # r / r(0) integral, read from the pair Euclid's judged row (r, t)
    built = []

    def spy(y, P, dd):
        built.append((P, dd, _denominator(y, P, dd)))
        return built[-1][2]

    monkeypatch.setattr(zeta, "_denominator", spy)
    R = RationalFunctionZ((1, -2), (1, -3, 4))
    seen = set()
    for z in (series_from_counts(counts_of(R, 7)).coeffs,
              series_from_counts([1, 0, 0, 0, 0]).coeffs,
              (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
              (0, 1, 3, -1, 5), (2, 1, 3, -1, 5), (0, 0, 0)):
        S = TruncatedSeries(z)
        for N in range(len(z)):
            rows_of, a = _table_rows(S, N), [0] * (N + 1) + [1]
            pairs = list(_euclid_pairs(a, _scaled(z[:N + 1])[1]))
            for dn in reversed(range(N + 1)):
                dd = N - dn
                del built[:]
                got = _outcome(pade_reconstruct, S, dn, dd)
                assert S._pade[N] == rows_of(dn)
                assert all(type(c) is int for r in S._pade[N] for c in r)
                r, t = next((r, t) for r, t in pairs if len(r) <= dn + 1)
                if t[0] and r and r[0] and not any(v % r[0] for v in r):
                    assert len(t) <= dd + 1
                    Q = [Fraction(v, t[0]) for v in t] + [0] * (dd + 1 - len(t))
                    want = Q if all(v.denominator == 1 for v in Q) else None
                    assert built == [([v // r[0] for v in r], dd, want)]
                    seen.add("integral" if want else got[0].__name__)
                else:
                    assert built == []
                    seen.add(got[0].__name__)
    assert seen == {"integral", "NoSolutionError", "NonIntegerError"}
    # the denominator refused a numerator that passed: 1 / (1 - T/2)
    S = TruncatedSeries((1, Fraction(1, 2), Fraction(1, 4)))
    del built[:]
    assert _outcome(pade_reconstruct, S, 0, 1)[0] is NonIntegerError
    assert built == [([1], 1, None)]


def test_used_series_pickles_deep_copies_and_equals_fresh():
    S = series_from_counts([1, 3, 4, 9, 12, 30, 2, 5, 7])
    for dn, dd in [(4, 4), (2, 1), (0, 5)]:
        _outcome(pade_reconstruct, S, dn, dd)
    fresh = series_from_counts([1, 3, 4, 9, 12, 30, 2, 5, 7])
    for T in (pickle.loads(pickle.dumps(S)), copy.deepcopy(S)):
        assert T == S == fresh and hash(T) == hash(fresh)
        assert T._pade == S._pade
        for N in range(10):
            for dn in range(N + 1):
                assert _outcome(pade_reconstruct, T, dn, N - dn) == \
                    _outcome(pade_reconstruct, fresh, dn, N - dn)


@pytest.mark.parametrize("dn, dd", [(3, -1), (-2, 2), (-5, 0), (-1, 3),
                                    (-1, 1)])
def test_pade_refuses_negative_degrees(dn, dd):
    # at the parent, (3, -1) returned (1 + T + 2T^2)/1 as a "degree (3, -1)"
    # candidate, (-2, 2) and (-5, 0) raised IndexError and (-1, 3)
    # NoSolutionError
    S = series_from_counts([1, 3, 4, 9, 12, 30])
    with pytest.raises(ValueError, match="nonnegative"):
        pade_reconstruct(S, dn, dd)
    assert not S._pade
    # and on a used series, before its table grows
    _outcome(pade_reconstruct, S, 0, 2)
    tables = copy.deepcopy(S._pade)
    with pytest.raises(ValueError, match="nonnegative"):
        pade_reconstruct(S, dn, dd)
    assert S._pade == tables


def test_constant_time_guard_matches_expansion_guard():
    # z_0 = 2 and z_0 = 1/2: the guard z_0 != 1 rules out exactly the
    # splits whose expansion guard failed, with the same message
    R = RationalFunctionZ((1, -2), (1, -3, 4))
    cases = [tuple(2 * v for v in R.expand(4)),
             tuple(Fraction(v, 2) for v in R.expand(4)),
             (2, 1, 3, -1, 5), (Fraction(1, 2), 1, 0, 0, 3)]
    for z in cases:
        S, inconsistent = TruncatedSeries(z), 0
        for N in range(5):
            for dn in range(N + 1):
                got = _outcome(pade_reconstruct, S, dn, N - dn)
                assert got == _outcome(pade_reconstruct_oracle, S, dn, N - dn)
                assert got == _outcome(pade_fresh_euclid, S, dn, N - dn)
                inconsistent += got == (
                    NoSolutionError,
                    f"degree ({dn},{N - dn}) system is inconsistent")
        assert inconsistent > 0


def test_series_equality_ignores_the_pade_table():
    S, T = series_from_counts([1, 3, 4, 9]), series_from_counts([1, 3, 4, 9])
    pade_reconstruct(S, 1, 2)
    assert S._pade and not T._pade
    assert S == T and hash(S) == hash(T) and repr(S) == repr(T)
    F = TruncatedSeries(tuple(Fraction(v) for v in S.coeffs))
    assert F == S and hash(F) == hash(S)
    assert len({S, T, F}) == 1
    assert S != series_from_counts([1, 3, 4, 8])


def _expand_double_loop(R, B):
    """RationalFunctionZ.expand as a loop over j for every k."""
    num, den = R.num, R.den
    z = []
    for k in range(B + 1):
        v = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            v -= den[j] * z[k - j]
        z.append(v)
    return z


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9) | st.sampled_from([2**70, -3**45]),
                max_size=6),
       st.lists(st.integers(-9, 9) | st.sampled_from([2**70, -3**45]),
                max_size=6),
       st.integers(0, 14))
def test_expand_matches_double_loop(num_tail, den_tail, B):
    R = RationalFunctionZ((1, *num_tail), (1, *den_tail))
    got = R.expand(B)
    assert got == _expand_double_loop(R, B)
    assert all(type(v) is int for v in got)


def test_series_terms_are_ints_where_k_divides_the_sum():
    # exp(T), N = (1, 0, 0, 0): 2 z_2 = N_1 z_1 + N_2 z_0 = 1, so
    # z_2 = 1/2; then 3 z_3 = z_2 = 1/2 and 4 z_4 = z_3 = 1/6
    assert series_from_counts([1, 0, 0, 0]).coeffs == \
        (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    # 1/(1 - T)(1 - 2T): every sum is divisible by its k
    S = series_from_counts(counts_of(RationalFunctionZ((1,), (1, -3, 2)), 6))
    assert S.coeffs == (1, 3, 7, 15, 31, 63, 127)
    for counts in ([1, 3, 4], [2, 4, 8, 16], [1, 0], [3, 1, 7, 2, 5],
                   [-6, 40, 12, 0, 1, 7]):
        z = series_from_counts(counts).coeffs
        assert type(z[0]) is int
        for k in range(1, len(z)):
            acc = sum(counts[j - 1] * z[k - j] for j in range(1, k + 1))
            assert z[k] == Fraction(acc, k)
            assert type(z[k]) is (int if acc % k == 0 else Fraction)


# ---------------------------------------------------------------------------
# reconstruct_counts against a deepening of one pade_reconstruct per split
# ---------------------------------------------------------------------------

def deepening_per_split(counts, max_k, holdout):
    """(P/Q, B) or None: the deepening over B with one `pade_reconstruct`
    per split, accepting the first candidate whose expansion equals the
    series coefficient by coefficient, as Fractions."""
    for B in range(2, max_k + 1):
        total = B - holdout
        if total < 0:
            continue
        S = series_from_counts(counts[:B])
        for dn, dd in _split_order(total):
            try:
                R = pade_reconstruct(S, dn, dd)
            except ReconstructionError:
                continue
            expansion = R.expand(B)
            if all(Fraction(expansion[k]) == S.coeffs[k]
                   for k in range(B + 1)):
                return R, B
    return None


@st.composite
def weil_product_counts(draw):
    """(counts, max_k, holdout): N_1..N_max_k of a product of Weil factors
    over one q in {2, 3, 4, 5} on each side, one count sometimes off by
    one, so that some deepenings end with no acceptance."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    sides = []
    for _ in range(2):
        P = [1]
        for f in draw(st.lists(weil_factor(qs=(q,)), max_size=4)):
            P = _pmul(P, f)
        sides.append(tuple(P))
    R = RationalFunctionZ(*sides)
    holdout = draw(st.integers(1, 4))
    # about enough counts to see the whole P/Q, give or take three
    max_k = max(1, R.total_degree() + holdout + draw(st.integers(-3, 3)))
    counts = counts_of(R, max_k)
    if draw(st.integers(0, 3)) == 0:
        counts[draw(st.integers(0, max_k - 1))] += draw(st.sampled_from([-1, 1]))
    return counts, max_k, holdout


def _recording(counts):
    calls = []

    def count_at(k):
        calls.append(k)
        return counts[k - 1]

    return count_at, calls


@settings(max_examples=200, deadline=None)
@given(weil_product_counts())
def test_reconstruct_counts_matches_per_split_deepening(case):
    counts, max_k, holdout = case
    count_at, calls = _recording(counts)
    res = reconstruct_counts(count_at, max_k, holdout)
    ref = deepening_per_split(counts, max_k, holdout)
    if ref is None:
        assert res is None
        assert calls == list(range(1, max_k + 1) if max_k >= 2 else [])
    else:
        R, B = ref
        assert res == R
        assert calls == list(range(1, B + 1))


def test_reconstruct_counts_fetches_counts_below_holdout():
    # max_k < holdout: nothing is tried, yet N_1..N_max_k are made, so a
    # refusal reports them
    count_at, calls = _recording([2, 4, 8])
    assert reconstruct_counts(count_at, 2, holdout=3) is None
    assert calls == [1, 2]
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    cert = certify(X, 2)
    assert cert.status == "no-acceptance"
    assert cert.counts == (2, 4)


def test_reconstruct_counts_calls_once_per_k_in_order():
    counts = counts_of(RationalFunctionZ((1, -1, 2), (1, -3, 4)), 12)
    count_at, calls = _recording(counts)
    res = reconstruct_counts(count_at, 12)
    assert res == RationalFunctionZ((1, -1, 2), (1, -3, 4))
    assert calls == list(range(1, 8))


def test_degree_24_weil_product_reconstructs_from_27_counts():
    # ROADMAP item 1's degree-24 input, deeper than the reconstruct
    # workload's degree-22 tables. q = 3: factors 1 - aT + 3^w T^2 with
    # a^2 <= 4 3^w, and 1 -/+ 3^w T
    sides = []
    for factors in ([[1, -1, 3], [1, 2, 3], [1, -3, 9], [1, 5, 9], [1, -9],
                     [1, 1], [1, 3, 9]],
                    [[1, -1], [1, -3], [1, -2, 3], [1, 0, 3], [1, -4, 9],
                     [1, 6, 27], [1, 1, 27]]):
        P = [1]
        for f in factors:
            P = _pmul(P, f)
        sides.append(tuple(P))
    R = RationalFunctionZ(*sides)
    assert R.total_degree() == 24
    # B = 27 counts: degree 24 plus the holdout of 3
    count_at, calls = _recording(counts_of(R, 27))
    t0 = time.perf_counter()
    assert reconstruct_counts(count_at, 27) == R
    assert time.perf_counter() - t0 < 10
    assert calls == list(range(1, 28))


def test_reconstruct_counts_rejects_holdout_zero():
    count_at, calls = _recording([2, 4, 8])
    with pytest.raises(ValueError):
        reconstruct_counts(count_at, 3, holdout=0)
    assert calls == []


# ---------------------------------------------------------------------------
# Newton on coefficients converted once: bit-identical to Fraction operators
# ---------------------------------------------------------------------------

def _simple_roots_fraction_ops(coeffs):
    """_simple_roots with every Newton step on the original coefficients."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    roots = np.roots([float(c) for c in coeffs])

    def poly_val(x):
        v = 0j
        for c in coeffs:
            v = v * x + c
        return v

    def poly_deriv(x):
        v = 0j
        for i, c in enumerate(coeffs[:-1]):
            v = v * x + c * (deg - i)
        return v

    refined = []
    for r in roots:
        x = complex(r)
        for _ in range(3):
            d = poly_deriv(x)
            if d == 0:
                break
            x = x - poly_val(x) / d
        refined.append(x)
    scale = max(abs(c) for c in coeffs) or 1.0
    for x in refined:
        if abs(poly_val(x)) > 1e-6 * scale * max(1.0, abs(x)) ** deg:
            raise RootFindingError("root refinement did not converge")
    refined.sort(key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    return refined


def _bits(simple_roots, coeffs):
    try:
        roots = simple_roots(coeffs)
    except RootFindingError:
        return RootFindingError
    return [(repr(x.real), repr(x.imag)) for x in roots]


_coeff = st.one_of(st.integers(-50, 50), st.sampled_from([2**40 + 1, -3**30]),
                   st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_coeff, min_size=1, max_size=10).filter(lambda c: c[0] != 0))
def test_simple_roots_newton_bit_identical(coeffs):
    assert _bits(_simple_roots, coeffs) == \
        _bits(_simple_roots_fraction_ops, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(weil_factor(), min_size=1, max_size=4), st.integers(1, 3))
def test_simple_roots_bit_identical_on_squarefree_parts(factors, power):
    P = [1]
    for f in factors:
        for _ in range(power):
            P = _pmul(P, f)
    seen = []

    def spy(coeffs):
        seen.append(list(coeffs))
        return _simple_roots(coeffs)

    zeta._simple_roots = spy
    try:
        _reciprocal_roots(P)
    finally:
        zeta._simple_roots = _simple_roots
    assert seen
    for coeffs in seen:
        assert _bits(_simple_roots, coeffs) == \
            _bits(_simple_roots_fraction_ops, coeffs)


# ---------------------------------------------------------------------------
# the squarefree part by exact division against the cofactor-scaled one
# ---------------------------------------------------------------------------

def _reciprocal_roots_by_cofactor(coeffs):
    """`_reciprocal_roots` with the squarefree part taken as the pair
    Euclid's cofactor beside the zero remainder, scaled to P's leading
    coefficient, kept as the reference."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    L, a = _scaled(coeffs)
    g = []
    for r, t in _euclid_pairs(a, [i * c for i, c in enumerate(a)][1:]):
        g = r or g
    if len(g) < 2:
        return zeta._simple_roots(coeffs)
    lead = Fraction(next(c for c in reversed(a) if c), L * t[-1])
    sf = [v * lead for v in t]
    g = [Fraction(v, g[-1]) for v in g]
    return sorted(zeta._simple_roots(sf) + _reciprocal_roots_by_cofactor(g),
                  key=lambda c: (round(c.real, 9), round(c.imag, 9)))


_split_factor = st.one_of(weil_factor(), st.sampled_from(
    [[1, -1], [2, 0, 5], [3, 0, 0, -7 * 2**30], [1, _P61],
     [Fraction(1, 2), 1], [1, Fraction(-2, 3), Fraction(1, 9)]]))


@settings(max_examples=100, deadline=None)
@given(_split_factor, st.integers(2, 4),
       st.lists(st.tuples(_split_factor, st.integers(1, 3)), max_size=2))
@example([1, 0, 1], 2, [([1, 0, 1], 1)])
def test_squarefree_part_by_division_equals_cofactor_scaled(repeated, power,
                                                            factors):
    # a repeated factor always, so the split recurses: `_simple_roots` is
    # handed the same Fractions, so the same floats, at every level
    P = [1]
    for f, e in [(repeated, power)] + factors:
        for _ in range(e):
            P = _pmul(P, f)
    seen, roots = [], []
    for split in (_reciprocal_roots, _reciprocal_roots_by_cofactor):
        calls = []

        def spy(coeffs):
            calls.append([(type(c), c) for c in coeffs])
            return _simple_roots(coeffs)

        zeta._simple_roots = spy
        try:
            roots.append(split(P))
        except RootFindingError:
            roots.append(RootFindingError)
        finally:
            zeta._simple_roots = _simple_roots
        seen.append(calls)
    assert len(seen[0]) >= 2 or roots[0] is RootFindingError
    assert seen[0] == seen[1]
    assert roots[0] == roots[1]


# ---------------------------------------------------------------------------
# the deepening's held-out check against the full expansion of each
# candidate
# ---------------------------------------------------------------------------

def reconstruct_counts_full_expansion(counts, holdout):
    """(function, B) of `reconstruct_counts` over ``counts``, each
    candidate accepted only when its expansion equals all B + 1 series
    coefficients; None when none is."""
    for B in range(2, len(counts) + 1):
        total = B - holdout
        if total < 0:
            continue
        S = series_from_counts(counts[:B])
        for dn, dd in _split_order(total):
            try:
                R = pade_reconstruct(S, dn, dd)
            except ReconstructionError:
                continue
            if tuple(R.expand(B)) == S.coeffs:
                return R, B
    return None


@st.composite
def held_out_cases(draw):
    """(counts, holdout): the counts of a Weil-factor P/Q; the same with
    one N_k moved by a multiple of k, which keeps the series integral, or
    by 1, which makes z_k a Fraction (near misses); or random integers,
    whose series is mostly not integral."""
    holdout = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["weil", "near", "fraction", "random"]))
    if kind == "random":
        return draw(st.lists(st.integers(-6, 40), min_size=1,
                             max_size=12)), holdout
    R = draw(weil_products())
    counts = counts_of(R, draw(st.integers(1, R.total_degree() + holdout + 3)))
    if kind != "weil":
        k = draw(st.integers(1, len(counts)))
        step = k if kind == "near" else 1
        counts[k - 1] += step * draw(st.sampled_from([-2, -1, 1, 2]))
    return counts, holdout


@settings(max_examples=300, deadline=None)
@given(held_out_cases())
# 1/(1 - 2T) with N_4 moved by 4: z_4 = 17, an integer one off
@example(([2, 4, 8, 20, 32, 64], 2))
# N_3 moved by 1: z_3 a Fraction
@example(([3, 9, 28, 81, 243], 1))
def test_held_out_check_accepts_as_the_full_expansion_did(case):
    counts, holdout = case
    count_at, calls = _recording(counts)
    res = reconstruct_counts(count_at, len(counts), holdout)
    got = res and (res, len(calls))
    assert got == reconstruct_counts_full_expansion(counts, holdout)
