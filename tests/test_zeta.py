import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parzeta.polys import VarietySpec, base_field, parse_poly
from parzeta.zeta import (AutoReconstructError, NoSolutionError,
                          RationalFunctionZ, TruncatedSeries,
                          auto_reconstruct, degree_sweep, pade_reconstruct,
                          reconstruct_counts, series_from_counts,
                          sweep_rows_to_csv, weil_weight_check)
from parzeta import zeta
from parzeta.zeta import (NonIntegerError, ReconstructionError, RootFindingError,
                          _euclid, _pade_rows, _reciprocal_roots, _simple_roots,
                          _split_order)

# the Mersenne prime 2^61 - 1: pinned inputs built on it agree mod p but
# differ over Q
_P61 = (1 << 61) - 1


def V(p, s, n, texts, profile):
    base = base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


def test_series_recurrence():
    # exp(T + 3 T^2/2 + 4 T^3/3 + ...) with N = (1, 3, 4)
    S = series_from_counts([1, 3, 4])
    assert S.coeffs == (Fraction(1), Fraction(1), Fraction(2), Fraction(3))


def test_series_geometric():
    # N_k = q^k gives 1/(1 - qT): z_k = q^k... no, z_k = q^k? exp(sum (qT)^k/k)
    S = series_from_counts([2, 4, 8, 16])
    assert [z for z in S.coeffs] == [1, 2, 4, 8, 16]
    assert S.all_integral()


def test_series_can_be_fractional():
    S = series_from_counts([1, 0])
    assert S.coeffs[2] == Fraction(1, 2)
    assert not S.all_integral()


def test_expand_inverts_series():
    R = RationalFunctionZ((1, -1), (1, -2))
    z = R.expand(5)
    assert z[0] == 1
    S = series_from_counts(R.counts(5))
    assert tuple(Fraction(v) for v in z) == S.coeffs


def test_counts_newton():
    R = RationalFunctionZ((1,), (1, -2))
    assert R.counts(4) == [2, 4, 8, 16]
    R2 = RationalFunctionZ((1, -1), (1, -2))
    assert R2.counts(4) == [1, 3, 7, 15]


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
    R0 = RationalFunctionZ((1, *num_tail), (1, *den_tail))
    dn, dd = len(R0.num) - 1, len(R0.den) - 1
    S = TruncatedSeries(tuple(Fraction(v) for v in R0.expand(dn + dd + 2)))
    R = pade_reconstruct(S, dn, dd)
    # compare by expansion: R0 may not be in lowest terms
    assert R.expand(dn + dd + 2) == R0.expand(dn + dd + 2)


def test_auto_reconstruct_diagonal():
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    res = auto_reconstruct(X, 10)
    assert res.function.num == (1,)
    assert res.function.den == (1, -2)
    assert res.holdout == 3


def test_auto_reconstruct_hyperbola():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    res = auto_reconstruct(X, 10)
    assert res.function.num == (1, -1)
    assert res.function.den == (1, -2)


def test_auto_reconstruct_reports_budget():
    X = V(2, 1, 3, [], (1, 1, 1))
    with pytest.raises(AutoReconstructError) as exc:
        auto_reconstruct(X, 10, budget=600)
    assert exc.value.status == "budget-exceeded"
    assert exc.value.counts == (8, 64, 512)


def test_auto_reconstruct_truncated_counts():
    # N_k = 4^k; with 4 held out nothing fits N_1..N_4, and N_5 would
    # cost 1024 tuples
    X = V(2, 1, 2, [], (1, 1))
    with pytest.raises(AutoReconstructError) as exc:
        auto_reconstruct(X, 6, holdout=4, budget=300)
    assert exc.value.status == "budget-exceeded"
    assert exc.value.counts == (4, 16, 64, 256)


def test_auto_reconstruct_counts_through_max_k():
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    with pytest.raises(AutoReconstructError) as exc:
        auto_reconstruct(X, 4, holdout=4)
    assert exc.value.status == "no-acceptance"
    assert exc.value.counts == (2, 4, 8, 16)


def test_reconstructed_counts_match_fresh_enumeration():
    from parzeta.counting import partial_count
    X = V(2, 1, 2, ["x1*x2"], (1, 1))
    res = auto_reconstruct(X, 12)
    fresh = [partial_count(X, k) for k in range(res.B_used + 1,
                                                res.B_used + 3)]
    assert res.function.counts(res.B_used + 2)[res.B_used:] == fresh


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


def test_weight_check_conjugate_pair():
    # 1 + T^2 has reciprocal roots +-i, magnitude 1, weight 0
    R = RationalFunctionZ((1, 0, 1), (1,))
    wr = weil_weight_check(R, 3)
    assert wr.passed
    assert wr.weight_multiset() == [0, 0]


def test_degree_sweep_rows():
    import io
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    rows = degree_sweep(X, [(1, 1), (1, 2)], max_k=10)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert [r["total_degree"] for r in rows] == [1, 1]
    assert rows[1]["lcm"] == 2
    buf = io.StringIO()
    sweep_rows_to_csv(rows, buf)
    assert buf.getvalue().splitlines()[0].startswith("profile,lcm,B_used")


def test_degree_sweep_failure_row():
    X = V(2, 1, 3, [], (1, 1, 1))
    rows = degree_sweep(X, [(1, 1, 1)], max_k=10, budget=600)
    assert rows[0]["status"] == "budget-exceeded"


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


_int_poly = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 5, 2**40 + 1]),
                     min_size=1, max_size=9).filter(any)


@settings(max_examples=300, deadline=None)
@given(_int_poly, _int_poly, st.sampled_from([[1], [1, 1], [-2, 0, 3]]))
def test_euclid_rows_match_fraction_gcd(a, b, common):
    # a shared factor makes a nontrivial gcd likely
    a, b = _pmul(a, common), _pmul(b, common)
    rows = list(_euclid(a, b))
    degrees = [len(r) - 1 for r, _ in rows]
    assert degrees == sorted(set(degrees), reverse=True)
    assert rows[0] == (_poly_div_exact(b, [1]), [1])
    assert rows[-1][0] == [] and all(r for r, _ in rows[:-1])
    for r, t in rows:
        # r = t b (mod a) over Q: every step keeps the identity exactly
        tb = _pmul(t, b) if t else [0]
        diff = [(r[i] if i < len(r) else 0) - (tb[i] if i < len(tb) else 0)
                for i in range(max(len(r), len(tb)))]
        assert _rem_q(diff, _poly_div_exact(a, [1])) == []
    g, t = rows[-2][0], rows[-1][1]
    want = _poly_gcd_q(a, b)
    assert [Fraction(v, g[-1]) for v in g] == want
    # the cofactor beside the zero remainder is a scalar multiple of a / gcd
    cof = _poly_div_exact(a, want)
    assert [Fraction(v, t[-1]) for v in t] == [v / cof[-1] for v in cof]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_weight_check_rejects_tolerance_not_positive_finite(tol):
    # |lambda|^2 = 7 at q = 2 is no Weil weight; a NaN tolerance used to
    # pass it because every comparison with NaN is false
    with pytest.raises(ValueError):
        weil_weight_check(RationalFunctionZ((1,), (1, 0, 7)), 2, tol=tol)
    assert not weil_weight_check(RationalFunctionZ((1,), (1, 0, 7)), 2).passed


# ---------------------------------------------------------------------------
# one Euclid per series: the memoised rows against a fresh Euclid per split
# ---------------------------------------------------------------------------

def pade_fresh_euclid(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """pade_reconstruct with its own `_euclid` run for this one split."""
    if dn + dd + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    z = S.coeffs[:dn + dd + 1]
    L = math.lcm(*(v.denominator for v in z))
    y = [v.numerator * (L // v.denominator) for v in z]
    num, den = next((r, t) for r, t in _euclid([0] * len(y) + [1], y)
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
def count_lists(draw):
    """N_1..N_L from a random Weil-factor P/Q, or random integers."""
    length = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-6, 40), min_size=length,
                             max_size=length))
    sides = []
    for _ in range(2):
        P = [1]
        for f in draw(st.lists(weil_factor(), max_size=3)):
            P = _pmul(P, f)
        sides.append(tuple(P))
    return RationalFunctionZ(*sides).counts(length)


def _splits(counts):
    """(S, dn, dd) for every split of every B, S the series of N_1..N_B."""
    for B in range(1, len(counts) + 1):
        S = series_from_counts(counts[:B])
        for dn in range(B + 1):
            yield S, dn, B - dn


@settings(max_examples=60, deadline=None)
@given(count_lists(), count_lists())
def test_pade_shared_rows_match_fresh_euclid(counts_a, counts_b):
    # A, B, A at every split: B evicts A's rows and A refills them, and
    # A's next split then hits
    info = _pade_rows.cache_info()
    splits_b = list(_splits(counts_b))
    for i, case_a in enumerate(_splits(counts_a)):
        case_b = splits_b[i % len(splits_b)]
        for S, dn, dd in (case_a, case_b, case_a):
            got = _outcome(pade_reconstruct, S, dn, dd)
            assert got == _outcome(pade_fresh_euclid, S, dn, dd)
            if isinstance(got[0], type):
                with pytest.raises(got[0]):
                    pade_reconstruct(S, dn, dd)
    after = _pade_rows.cache_info()
    assert after.maxsize == 1 and after.currsize == 1
    if counts_a[0] != counts_b[0]:
        # the first split's y differ, so B evicted A there
        assert after.misses >= info.misses + 2


def test_pade_rows_are_immutable_and_shared():
    S = series_from_counts(RationalFunctionZ((1, -2), (1, -3, 4)).counts(8))
    y = tuple(v.numerator for v in S.coeffs[:6])
    rows = _pade_rows(y)
    assert rows is _pade_rows(y)
    assert all(isinstance(r, tuple) and isinstance(t, tuple) for r, t in rows)
    assert [(list(r), list(t)) for r, t in rows] == \
        list(_euclid([0] * 6 + [1], list(y)))


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
    counts = R.counts(max_k)
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
        assert (res.function, res.B_used, res.holdout) == (R, B, holdout)
        assert res.counts == tuple(counts[:B])
        assert calls == list(range(1, B + 1))


def test_reconstruct_counts_fetches_counts_below_holdout():
    # max_k < holdout: nothing is tried, yet N_1..N_max_k are made, so a
    # refusal reports them
    count_at, calls = _recording([2, 4, 8])
    assert reconstruct_counts(count_at, 2, holdout=3) is None
    assert calls == [1, 2]
    X = V(2, 1, 2, ["x1 + x2"], (1, 1))
    with pytest.raises(AutoReconstructError) as exc:
        auto_reconstruct(X, 2)
    assert exc.value.status == "no-acceptance"
    assert exc.value.counts == (2, 4)


def test_reconstruct_counts_calls_once_per_k_in_order():
    counts = RationalFunctionZ((1, -1, 2), (1, -3, 4)).counts(12)
    count_at, calls = _recording(counts)
    res = reconstruct_counts(count_at, 12)
    assert res.function == RationalFunctionZ((1, -1, 2), (1, -3, 4))
    assert res.B_used == 7 and res.counts == tuple(counts[:7])
    assert calls == list(range(1, 8))


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
            raise RootFindingError("root refinement did not converge", coeffs)
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
