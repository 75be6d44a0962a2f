"""Zeta series, rational reconstruction, and Weil weight checks.

The series exp(sum N_k T^k / k) comes from the logarithmic-derivative
recurrence run on the integers y_k = k! z_k.  All exact polynomial
algebra is one extended Euclid over the integers, `_euclid`.  Run on
T^(N+1) and the series scaled by the lcm of its denominators, it gives
the Pade candidate of degrees (dn, dd), N = dn + dd, already in lowest
terms; a candidate is accepted only when it reproduces held-out series
coefficients.  `reconstruct_counts` is the one deepening over the number
B of counts: per B it scales the series once and runs one Euclid, whose
rows serve every split (dn, dd) of N = B - holdout.  `pade_reconstruct`
is the one-split entry point; both take their candidate from the same
row check.  Run on P and P', `_euclid` gives gcd(P, P') and the
squarefree part for the weight report.  No floating point enters the
certification path; floats appear only in the numerical weight report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import BudgetExceededError, DEFAULT_BUDGET, partial_count
from .polys import VarietySpec


class ReconstructionError(Exception):
    pass


class NoSolutionError(ReconstructionError):
    """No rational function of the requested degrees matches the series."""


class NonIntegerError(ReconstructionError):
    """A matching rational function exists but has non-integer coefficients.

    Signals a wrong degree guess or a genuine integrality violation.
    """


class AutoReconstructError(ReconstructionError):
    """No accepted candidate: ``status`` is the report status,
    "budget-exceeded" or "no-acceptance", and ``counts`` the counts made."""

    def __init__(self, message, counts, status: str):
        super().__init__(message)
        self.counts = tuple(counts)
        self.status = status


class RootFindingError(RuntimeError):
    status = "root-finding-failed"  # the report status

    def __init__(self, message, coeffs):
        super().__init__(message)
        self.coeffs = coeffs


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple  # Fractions z_0 .. z_B

    @property
    def B(self) -> int:
        return len(self.coeffs) - 1

    def all_integral(self) -> bool:
        return all(z.denominator == 1 for z in self.coeffs)


def series_from_counts(counts) -> TruncatedSeries:
    """exp(sum N_k T^k / k) truncated at the number of counts.

    k z_k = sum_j N_j z_{k-j}, so y_k = k! z_k is the integer
    sum_j N_j y_{k-j} (k-1)!/(k-j)!; only z_k = y_k / k! is a Fraction.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("empty count table")
    y = [1]
    z = [Fraction(1)]
    fact = 1
    for k in range(1, len(counts) + 1):
        acc, falling = 0, 1  # falling = (k-1)!/(k-j)!
        for j in range(1, k + 1):
            acc += counts[j - 1] * falling * y[k - j]
            falling *= k - j
        y.append(acc)
        fact *= k
        z.append(Fraction(acc, fact))
    return TruncatedSeries(tuple(z))


@dataclass(frozen=True)
class RationalFunctionZ:
    """P(T)/Q(T) with integer coefficients, P(0) = Q(0) = 1, lowest terms."""

    num: tuple  # integer coefficients, constant term first
    den: tuple

    def __post_init__(self):
        if self.num[0] != 1 or self.den[0] != 1:
            raise ValueError("constant terms must be 1")

    def total_degree(self) -> int:
        return (len(self.num) - 1) + (len(self.den) - 1)

    def expand(self, B: int):
        """Series coefficients z_0..z_B of P/Q (integers since Q(0)=1)."""
        num, den = self.num, self.den
        z = []
        for k in range(B + 1):
            v = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                v -= den[j] * z[k - j]
            z.append(v)
        return z

    def counts(self, k_max: int):
        """N_1..N_k via exact Newton power sums on both polynomials."""

        def power_sums(coeffs):
            out = []
            for k in range(1, k_max + 1):
                c_k = coeffs[k] if k < len(coeffs) else 0
                v = -k * c_k
                for j in range(1, min(k - 1, len(coeffs) - 1) + 1):
                    v -= coeffs[j] * out[k - j - 1]
                out.append(v)
            return out

        sp = power_sums(self.den)
        sz = power_sums(self.num)
        return [a - b for a, b in zip(sp, sz)]

    def to_json_dict(self):
        return {"numerator": list(self.num), "denominator": list(self.den),
                "total_degree": self.total_degree()}


# ---------------------------------------------------------------------------
# exact polynomial algebra over Z
# ---------------------------------------------------------------------------

def _euclid(a, b):
    """Extended Euclid on integer polynomials a, b (constant term first).

    Yields rows (r, t), trailing zeros trimmed, with r - t*b a multiple of
    a over Q: from (b, 1) down to the first r = [].  Each step is one
    pseudo-division s*r_prev = quo*r + rem, with s a product of powers of
    lc(r) taken only where a quotient term would not be an integer; the
    new row is s*(r_prev, t_prev) - quo*(r, t), divided by the content of
    the pair when that exceeds 1.  The degrees of r strictly decrease, the
    last nonzero r is gcd(a, b) up to a scalar, and the t beside r = [] is
    a scalar multiple of a / gcd(a, b).
    """

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    r0, t0 = trim(list(a)), []
    r1, t1 = trim(list(b)), [1]
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
        r = trim(x[:n])
        t = [s * v for v in t0]
        t += [0] * (len(quo) + len(t1) - 1 - len(t))
        for k, f in enumerate(quo):
            if f:
                for i, v in enumerate(t1):
                    t[k + i] -= f * v
        trim(t)
        g = math.gcd(*r, *t)
        if g > 1:
            r = [v // g for v in r]
            t = [v // g for v in t]
        r0, t0, r1, t1 = r1, t1, r, t
        yield r1, t1


@functools.lru_cache(maxsize=1)
def _pade_rows(y: tuple) -> tuple:
    """Every `_euclid` row of (T^(N+1), y), N + 1 = len(y), as tuples,
    so that the cached rows cannot be mutated.  One entry serves a caller
    that tries one series' splits back to back through `pade_reconstruct`,
    as the benchmark's own copy of the deepening does."""
    return tuple((tuple(r), tuple(t))
                 for r, t in _euclid([0] * len(y) + [1], y))


def _scaled(z):
    """(L, L z), L the lcm of the denominators of the Fractions z: P = Q z
    mod T^(N+1) is homogeneous in z, so L z has the same solutions."""
    L = math.lcm(*(v.denominator for v in z))
    return L, [v.numerator * (L // v.denominator) for v in z]


def _candidate(rows, dn: int, dd: int) -> RationalFunctionZ:
    """The degree (dn, dd) candidate, with unit constant terms, from the
    Euclid rows of one series y, else the ReconstructionError ruling it out:
    the first row with deg r <= dn has deg t <= dd, and every solution
    (r', t') of r' = t' y mod T^(N+1), deg r' <= dn, deg t' <= dd is
    alpha (r, t) for a polynomial alpha; so when t(0) = 0, no solution
    has Q(0) != 0.  gcd(r, t) divides T^(N+1): lowest terms already.
    """
    num, den = next((r, t) for r, t in rows if len(r) <= dn + 1)
    if den[0] == 0:
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    if not num or num[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    n0, d0 = num[0], den[0]
    if any(v % n0 for v in num) or any(v % d0 for v in den):
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    return RationalFunctionZ(tuple(v // n0 for v in num),
                             tuple(v // d0 for v in den))


def pade_reconstruct(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """P/Q with deg P <= dn, deg Q <= dd matching S through order dn + dd.

    The match is exact; the result is returned in lowest terms with
    integer coefficients and unit constant terms.
    """
    if dn + dd + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    L, y = _scaled(S.coeffs[:dn + dd + 1])
    R = _candidate(_pade_rows(tuple(y)), dn, dd)
    # guard: the normalised candidate must still match through order
    # dn + dd; it rejects a series whose z_0 is not 1
    if [v * L for v in R.expand(dn + dd)] != y:
        raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return R


@dataclass
class ReconstructionResult:
    function: RationalFunctionZ
    B_used: int
    counts: tuple  # N_1 .. N_B_used
    holdout: int


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
    coefficients.  None when nothing is accepted up to max_k."""
    if holdout < 1:
        raise ValueError("holdout must be at least 1")
    counts = []
    for B in range(2, max_k + 1):
        while len(counts) < B:
            counts.append(count_at(len(counts) + 1))
        total = B - holdout
        if total < 0:
            continue
        L, y = _scaled(series_from_counts(counts).coeffs)
        rows = _pade_rows(tuple(y[:total + 1]))
        for dn, dd in _split_order(total):
            try:
                R = _candidate(rows, dn, dd)
            except ReconstructionError:
                continue
            if [v * L for v in R.expand(B)] == y:
                return ReconstructionResult(R, B, tuple(counts), holdout)
    return None


def auto_reconstruct(X: VarietySpec, max_k: int, holdout: int = 3,
                     budget: int = DEFAULT_BUDGET) -> ReconstructionResult:
    """`reconstruct_counts` over the partial counts of X; AutoReconstructError
    with the counts made when the budget runs out or nothing is accepted."""
    counts = []

    def count_at(k):
        counts.append(partial_count(X, k, budget=budget))
        return counts[-1]

    try:
        res = reconstruct_counts(count_at, max_k, holdout)
    except BudgetExceededError as exc:
        raise AutoReconstructError(
            f"budget exhausted at k={len(counts) + 1} without acceptance",
            counts, "budget-exceeded") from exc
    if res is None:
        raise AutoReconstructError(
            f"no candidate accepted up to max_k={max_k}", counts,
            "no-acceptance")
    return res


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

    def to_json_dict(self):
        return {
            "q": self.q,
            "tolerance": self.tol,
            "passed": self.passed,
            "roots": [
                {
                    "side": r.side,
                    "value": [repr(r.value.real), repr(r.value.imag)],
                    "magnitude": repr(r.magnitude),
                    "weight": r.weight,
                    "residual": repr(r.residual),
                }
                for r in self.roots
            ],
        }


def _reciprocal_roots(coeffs):
    """Reciprocal roots of P (constant-first coefficients) with multiplicity.

    Repeated roots defeat plain Newton refinement, so the polynomial is
    split exactly first: the roots of P are the roots of its squarefree
    part plus, recursively, those of gcd(P, P').  One integer Euclid on
    P and P' gives both: the gcd is its last nonzero remainder and the
    squarefree part the cofactor beside the zero remainder.  The numerics
    only ever see simple roots.
    """
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    P = [Fraction(c) for c in coeffs]
    L = math.lcm(*(c.denominator for c in P))
    a = [c.numerator * (L // c.denominator) for c in P]
    g = []
    for r, t in _euclid(a, [i * c for i, c in enumerate(a)][1:]):
        g = r or g
    if len(g) < 2:
        return _simple_roots(P)
    # t is a scalar multiple of P / gcd; scale it to P's leading coefficient
    lead = Fraction(next(c for c in reversed(a) if c), L * t[-1])
    sf = [v * lead for v in t]
    g = [Fraction(v, g[-1]) for v in g]
    return sorted(_simple_roots(sf) + _reciprocal_roots(g),
                  key=lambda c: (round(c.real, 9), round(c.imag, 9)))


def _simple_roots(coeffs):
    """Roots of a squarefree polynomial, refined by Newton's method."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    arr = [float(c) for c in coeffs]  # highest power first after reversal
    roots = np.roots(arr)
    # converted once, exactly as complex + Fraction converts at each step
    # (complex, not float: 0.0 is added to the imaginary part too)
    cv = [complex(float(c)) for c in coeffs]
    cd = [complex(float(c * (deg - i))) for i, c in enumerate(coeffs[:-1])]

    def poly_val(x):
        v = 0j
        for c in cv:
            v = v * x + c
        return v

    def poly_deriv(x):
        v = 0j
        for c in cd:
            v = v * x + c
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


def weil_weight_check(R: RationalFunctionZ, q: int, tol: float = 1e-6) -> WeightReport:
    """Check every reciprocal zero/pole magnitude against q^(w/2), w >= 0."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    records = []
    ok = True
    for side, coeffs in (("zero", R.num), ("pole", R.den)):
        for lam in _reciprocal_roots(coeffs):
            mag = abs(lam)
            if mag <= 0:
                ok = False
                records.append(RootRecord(side, lam, mag, -1, float("inf")))
                continue
            w = round(2 * math.log(mag) / math.log(q))
            target = q ** (w / 2)
            residual = abs(mag - target)
            if w < 0 or residual > tol * target:
                ok = False
            records.append(RootRecord(side, lam, mag, w, residual))
    return WeightReport(q, tol, tuple(records), ok)


# ---------------------------------------------------------------------------
# degree sweep over profiles
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ["profile", "lcm", "B_used", "deg_num", "deg_den",
                 "total_degree", "weights", "status"]


def degree_sweep(X: VarietySpec, profiles, max_k: int = 12, holdout: int = 3,
                 budget: int = DEFAULT_BUDGET, tol: float = 1e-6):
    """One reconstruction per profile; failures become rows, not aborts."""
    rows = []
    for profile in profiles:
        Xp = X.with_profile(profile)
        row = {
            "profile": " ".join(str(d) for d in profile),
            "lcm": Xp.D,
            "B_used": "", "deg_num": "", "deg_den": "",
            "total_degree": "", "weights": "", "status": "ok",
        }
        try:
            res = auto_reconstruct(Xp, max_k, holdout=holdout, budget=budget)
            row.update({
                "B_used": res.B_used,
                "deg_num": len(res.function.num) - 1,
                "deg_den": len(res.function.den) - 1,
                "total_degree": res.function.total_degree(),
            })
            wr = weil_weight_check(res.function, Xp.p ** Xp.s, tol=tol)
            row["weights"] = " ".join(str(w) for w in wr.weight_multiset())
        except (AutoReconstructError, RootFindingError) as exc:
            row["status"] = exc.status
        rows.append(row)
    return rows


def sweep_rows_to_csv(rows, fh):
    import csv

    writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
