"""Zeta series, rational reconstruction, and Weil weight checks.

The series exp(sum N_k T^k / k) comes from the recurrence
k z_k = sum_j N_j z_{k-j}; its terms are ints where integral.  All exact
polynomial algebra is one remainder sequence over the integers,
`_euclid`, whose rows come one at a time from `_euclid_step`: each row
is the pseudo-remainder of the two before it, scaled by lc^(delta+1),
over its positive content, and no cofactor is carried.  A drop of one,
every step of a normal Pade table, is one pass of pseudo-division by
lc^2; any other drop is plain pseudo-division.  Run on T^(N+1) and the
primitive part y of z_0..z_N, its first row of degree <= dn is the
numerator of the Pade candidate of degrees (dn, dd), N = dn + dd, in
lowest terms.  A series keeps one table per N, its rows built so far; a
split extends them only until its row exists and judges that row,
reading the denominator back from the numerator and y only when it
needs it.  The judge's last guard, that the candidate matches the series
through order N, is z_0 = 1.  `pade_reconstruct` is the one candidate
path; `reconstruct_counts`, the deepening over the number B of counts,
builds one series per B and accepts a candidate only when it reproduces
the held-out coefficients.  Run on P and P', `_euclid` gives gcd(P, P'),
and P divided exactly by it is the squarefree part for the weight
report.  `certify` is the one path from a variety to a status: the
deepening over its partial counts, then the weight report.  No floating
point enters the reconstruction; floats appear only in the numerical
weight report.  The module returns records and writes no report: the
CLI writes every one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .counting import BudgetExceededError, DEFAULT_BUDGET, partial_count
from .fields import _trim
from .polys import VarietySpec


class ReconstructionError(Exception):
    pass


class NoSolutionError(ReconstructionError):
    """No rational function of the requested degrees matches the series."""


class NonIntegerError(ReconstructionError):
    """A matching rational function exists but has non-integer coefficients.

    Signals a wrong degree guess or a genuine integrality violation.
    """


class RootFindingError(RuntimeError):
    """The weight report's Newton refinement did not converge."""


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple  # z_0 .. z_B: ints where integral, else Fractions
    # N -> the Pade table's Euclid rows for z_0..z_N (`pade_reconstruct`),
    # not compared
    _pade: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


def series_from_counts(counts) -> TruncatedSeries:
    """exp(sum N_k T^k / k) truncated at the number of counts, by
    k z_k = sum_j N_j z_{k-j}: z_k is an int where k divides the sum,
    else a Fraction."""
    counts = list(counts)
    if not counts:
        raise ValueError("empty count table")
    z = [1]
    for k in range(1, len(counts) + 1):
        acc = sum(map(operator.mul, counts, reversed(z)))
        z.append(acc // k if acc % k == 0 else Fraction(acc, k))
    return TruncatedSeries(tuple(z))


@dataclass(frozen=True)
class RationalFunctionZ:
    """P(T)/Q(T) with integer coefficients, P(0) = Q(0) = 1, lowest terms."""

    num: tuple  # integer coefficients, constant term first
    den: tuple

    def __post_init__(self):
        if not (self.num and self.den) or self.num[0] != 1 or self.den[0] != 1:
            raise ValueError("constant terms must be 1")
        # a trailing zero is no degree: (1, 0)/(1, -2) is 1/(1 - 2T)
        for name in ("num", "den"):
            c = _trim(list(getattr(self, name)))
            object.__setattr__(self, name, tuple(c))

    def total_degree(self) -> int:
        return (len(self.num) - 1) + (len(self.den) - 1)

    def expand(self, B: int):
        """Series coefficients z_0..z_B of P/Q (integers since Q(0)=1)."""
        num, tail = self.num, self.den[1:]
        z = []
        for k in range(B + 1):
            z.append((num[k] if k < len(num) else 0)
                     - sum(map(operator.mul, tail, reversed(z))))
        return z


# ---------------------------------------------------------------------------
# exact polynomial algebra over Z
# ---------------------------------------------------------------------------

def _euclid_step(r0, r1):
    """The remainder after r0 and r1, r1 nonzero.

    With delta = deg r0 - deg r1, the new row is the pseudo-remainder of
    lc(r1)^(delta+1) r0 by r1 (r0 itself when delta < 0), divided by its
    positive content.  A drop of one, every step of a normal Pade table,
    is one pass: lc^2 r0 = (f1 T + f0) r1 + r.  Any other drop is plain
    pseudo-division of lc^(delta+1) r0 by r1 (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm R).
    """
    n, lead = len(r1) - 1, r1[-1]
    if len(r0) == n + 2:
        sq, shifted = lead * lead, [0, *r1]
        f1 = lead * r0[-1]
        f0 = lead * r0[-2] - r0[-1] * shifted[n]
        r = [sq * a - f1 * s - f0 * b for a, s, b in zip(r0[:n], shifted, r1)]
    else:
        # pseudo-division: lc^e r0 with e = max(delta + 1, 0) makes every
        # quotient term an exact division by lc
        e = max(len(r0) - n, 0)
        s = lead ** e
        r = [s * v for v in r0]
        for k in reversed(range(e)):
            f = r[k + n] // lead
            if f:
                for i, v in enumerate(r1):
                    r[k + i] -= f * v
        del r[n:]
    return _primitive(_trim(r))


def _primitive(r):
    """r divided by its positive content."""
    g = math.gcd(*r)
    return [v // g for v in r] if g > 1 else r


def _euclid(a, b):
    """The remainder sequence of integer polynomials a, b (constant term
    first): b over its content, then each row made from the two before it
    by `_euclid_step`, the one before b being a, down to the first [].
    Every row is primitive.  Sign rule: each row after b is the
    pseudo-remainder, scaled by lc^(delta+1), over its positive content.
    The degrees strictly decrease, and the last nonzero row is gcd(a, b)
    up to a scalar.  Each row is the extended Euclid's r over a positive
    scalar, so r = t b mod a for a cofactor t that is never built.
    """
    r0, r1 = _trim(list(a)), _primitive(_trim(list(b)))
    yield r1
    while r1:
        r0, r1 = r1, _euclid_step(r0, r1)
        yield r1


def _scaled(z):
    """(L, L z), L the lcm of the denominators of z: P = Q z mod T^(N+1)
    is homogeneous in z, so L z has the same solutions."""
    L = math.lcm(*(v.denominator for v in z))
    return L, [v.numerator * (L // v.denominator) for v in z]


def _judge(S, dn, dd, y, num):
    """The candidate with unit constant terms from the row num of the
    table of y, the primitive part of z_0..z_N, N = dn + dd, else the
    error ruling it out.  num, the first row with deg r <= dn, is
    r = t y mod T^(N+1) for a cofactor t with deg t <= dd, and every
    solution (r', t') with deg r' <= dn, deg t' <= dd is alpha (r, t) for
    a polynomial alpha; so when t(0) = 0, no solution has Q(0) != 0.
    gcd(r, t) divides T^(N+1): lowest terms already.  t is never built
    whole: t(0) = r_v / y_v at y's valuation v (t = 1 when y = 0), and
    Q = t / t(0) comes from `_denominator` only once P = r / r(0) is
    integral, which for a primitive r means r(0) = +-1.
    """
    v = 0
    while v < len(y) and not y[v]:
        v += 1
    if v < len(y) and (v >= len(num) or not num[v]):
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    if not num or num[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    n0, Q = num[0], None
    if n0 in (1, -1):
        P = [n0 * c for c in num]
        Q = _denominator(y, P, dd)
    if Q is None:
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    # guard: the normalised candidate must still match through order N.
    # Its expansion is y / y_0, and y / y_0 = z exactly when z_0 = 1
    if S.coeffs[0] != 1:
        raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return RationalFunctionZ(tuple(P), tuple(Q))


def _denominator(y, P, dd):
    """Q = t / t(0) = P y_0 / y mod T^(dd+1), y_0 != 0, by power-series
    division in ints, Q_k y_0 = P_k y_0 - sum_(j >= 1) y_j Q_(k-j); None
    at the first Q_k that is not an integer."""
    y0, tail, Q = y[0], y[1:dd + 1], []
    for k in range(dd + 1):
        acc = (P[k] * y0 if k < len(P) else 0) \
            - sum(map(operator.mul, tail, reversed(Q)))
        if acc % y0:
            return None
        Q.append(acc // y0)
    return Q


def pade_reconstruct(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """P/Q with deg P <= dn, deg Q <= dd matching S through order dn + dd.

    The match is exact; the result is returned in lowest terms with
    integer coefficients and unit constant terms.  S keeps one table per
    N = dn + dd, made on first use: the `_euclid` rows of (T^(N+1), y),
    after T^(N+1) itself, y = z_0..z_N scaled to integers (`_scaled`) and
    made primitive.  The rows are extended by `_euclid_step` only until
    the asked split's row exists, the first with deg r <= dn, and each
    ask judges that row.
    """
    if dn < 0 or dd < 0:
        raise ValueError("degrees must be nonnegative")
    N = dn + dd
    if N + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    rows = S._pade.get(N)
    if rows is None:
        rows = S._pade[N] = [[0] * (N + 1) + [1],
                             _primitive(_trim(_scaled(S.coeffs[:N + 1])[1]))]
    while len(rows[-1]) > dn + 1:
        rows.append(_euclid_step(rows[-2], rows[-1]))
    # back from the last row; rows[0], T^(N+1), is longer than dn + 1
    i = len(rows) - 1
    while len(rows[i - 1]) <= dn + 1:
        i -= 1
    return _judge(S, dn, dd, rows[1], rows[i])


@dataclass
class ReconstructionResult:
    function: RationalFunctionZ
    B_used: int
    counts: tuple  # N_1 .. N_B_used


def _split_order(total: int):
    splits = [(dn, total - dn) for dn in range(total + 1)]
    splits.sort(key=lambda t: (abs(t[0] - t[1]), 0 if t[0] < t[1] else 1))
    return splits


def reconstruct_counts(count_at, max_k: int,
                       holdout: int = 3) -> ReconstructionResult | None:
    """Iterative-deepening reconstruction with held-out verification: for
    B = 2, ..., max_k, fetch N_1..N_B by ``count_at(k)``, once per k in
    increasing k, then accept the first split dn + dd = B - holdout, in
    `_split_order`, whose candidate reproduces all B + 1 series
    coefficients.  A candidate matches through order B - holdout (the
    judge's guard), so only the held-out terms are compared
    (`_holds_out`).  None when nothing is accepted up to max_k."""
    if holdout < 1:
        raise ValueError("holdout must be at least 1")
    counts = []
    for B in range(2, max_k + 1):
        while len(counts) < B:
            counts.append(count_at(len(counts) + 1))
        total = B - holdout
        if total < 0:
            continue
        S = series_from_counts(counts)
        for dn, dd in _split_order(total):
            try:
                R = pade_reconstruct(S, dn, dd)
            except ReconstructionError:
                continue
            if _holds_out(R, S, total):
                return ReconstructionResult(R, B, tuple(counts))
    return None


def _holds_out(R: RationalFunctionZ, S: TruncatedSeries, N: int) -> bool:
    """Whether P/Q, which matches S through order N, matches its later
    terms: each z_k, k > N, against P_k - sum_(j >= 1) Q_j z_(k-j) from
    S's own coefficients, which equal the expansion's up to the first
    mismatch."""
    z, num, tail = S.coeffs, R.num, R.den[1:]
    for k in range(N + 1, len(z)):
        if z[k] != ((num[k] if k < len(num) else 0)
                    - sum(map(operator.mul, tail, reversed(z[:k])))):
            return False
    return True


# ---------------------------------------------------------------------------
# Weil weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootRecord:
    side: str          # "zero" or "pole"
    value: complex     # the reciprocal root lambda
    magnitude: float
    weight: int
    residual: float


@dataclass(frozen=True)
class WeightReport:
    q: int
    tol: float
    roots: tuple
    passed: bool

    def weight_multiset(self):
        return sorted(r.weight for r in self.roots)


def _reciprocal_roots(coeffs):
    """Reciprocal roots of P (constant-first coefficients) with multiplicity.

    Repeated roots defeat plain Newton refinement, so the polynomial is
    split exactly first: the roots of P are the roots of its squarefree
    part plus, recursively, those of gcd(P, P').  The gcd is the last
    nonzero row of `_euclid` on a = L P and a'.  By Gauss's lemma its
    primitive part g divides a over the integers, and the exact quotient
    times lc(g) / L is the squarefree part with P's leading coefficient.
    The numerics only ever see simple roots.
    """
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    L, a = _scaled(coeffs)
    g = []
    for r in _euclid(a, [i * c for i, c in enumerate(a)][1:]):
        g = r or g
    if len(g) < 2:
        return _simple_roots(coeffs)
    n = len(g) - 1
    quo = [0] * (len(a) - n)
    for k in reversed(range(len(quo))):
        quo[k] = f = a[k + n] // g[-1]
        for i, v in enumerate(g):
            a[k + i] -= f * v
    sf = [Fraction(v * g[-1], L) for v in quo]
    g = [Fraction(v, g[-1]) for v in g]
    return sorted(_simple_roots(sf) + _reciprocal_roots(g),
                  key=lambda c: (round(c.real, 9), round(c.imag, 9)))


def _simple_roots(coeffs):
    """Roots of a squarefree polynomial, refined by Newton's method."""
    deg = len(coeffs) - 1
    arr = [float(c) for c in coeffs]  # highest power first after reversal
    roots = np.roots(arr)
    # converted once, exactly as complex + Fraction converts at each step
    # (complex, not float: 0.0 is added to the imaginary part too)
    cv = [complex(float(c)) for c in coeffs]
    cd = [complex(float(c * (deg - i))) for i, c in enumerate(coeffs[:-1])]

    def horner(cs, x):
        v = 0j
        for c in cs:
            v = v * x + c
        return v

    refined = []
    for r in roots:
        x = complex(r)
        for _ in range(3):
            d = horner(cd, x)
            if d == 0:
                break
            x = x - horner(cv, x) / d
        refined.append(x)
    scale = max(abs(c) for c in coeffs) or 1.0
    for x in refined:
        if abs(horner(cv, x)) > 1e-6 * scale * max(1.0, abs(x)) ** deg:
            raise RootFindingError("root refinement did not converge")
    refined.sort(key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    return refined


def weil_weight_check(R: RationalFunctionZ, q: int, tol: float = 1e-6) -> WeightReport:
    """Check every reciprocal zero/pole magnitude against q^(w/2), w >= 0."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if q < 2:
        raise ValueError("q must be at least 2")
    records = []
    ok = True
    for side, coeffs in (("zero", R.num), ("pole", R.den)):
        for lam in _reciprocal_roots(coeffs):
            mag = abs(lam)
            w = round(2 * math.log(mag) / math.log(q))
            target = q ** (w / 2)
            residual = abs(mag - target)
            if w < 0 or residual > tol * target:
                ok = False
            records.append(RootRecord(side, lam, mag, w, residual))
    return WeightReport(q, tol, tuple(records), ok)


# ---------------------------------------------------------------------------
# certification: reconstruct, then weigh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """`certify`'s outcome: its status, the counts made, and the accepted
    candidate and its weight report where it has them."""
    status: str
    counts: tuple  # N_1, N_2, ...
    result: ReconstructionResult | None = None
    weights: WeightReport | None = None


def certify(X: VarietySpec, max_k: int, holdout: int = 3,
            budget: int = DEFAULT_BUDGET, tol: float = 1e-6) -> Certificate:
    """Z(T) of X by `reconstruct_counts` over its partial counts, then its
    `weil_weight_check` at q = p^s; every outcome is a status, with the
    counts made.  Nothing accepted is "budget-exceeded", when a count is
    refused, or "no-acceptance"; weights that cannot be found are
    "root-finding-failed"; else the weights give "ok" or
    "weights-failed"."""
    counts = []

    def count_at(k):
        counts.append(partial_count(X, k, budget=budget))
        return counts[-1]

    try:
        res = reconstruct_counts(count_at, max_k, holdout)
    except BudgetExceededError:
        return Certificate("budget-exceeded", tuple(counts))
    if res is None:
        return Certificate("no-acceptance", tuple(counts))
    try:
        wr = weil_weight_check(res.function, X.p ** X.s, tol=tol)
    except RootFindingError:
        return Certificate("root-finding-failed", res.counts, res)
    return Certificate("ok" if wr.passed else "weights-failed", res.counts,
                       res, wr)
