"""Zeta series, rational reconstruction, and Weil weight checks.

The series exp(sum N_k T^k / k) comes from the recurrence
k z_k = sum_j N_j z_{k-j}; its terms are ints where integral.  All exact
polynomial algebra is one extended Euclid over the integers, `_euclid`,
whose rows come one at a time from `_euclid_step`: a step where the
degree drops by one, every step of a normal Pade table, is one pass of
pseudo-division by lc^2; any other drop is plain pseudo-division by
lc^(delta+1).  Run on T^(N+1) and z_0..z_N scaled by the lcm L of their
denominators, it gives the Pade candidate of degrees (dn, dd),
N = dn + dd, already in lowest terms.  A series keeps one table per N,
its Euclid rows built so far.  A split extends the rows only until its
row exists, the first with deg r <= dn, and judges that row.  The
judge's last guard, that the candidate matches the series through order
N, is z_0 = 1, read from the series: every row has r = t y mod T^(N+1),
so the candidate's expansion is y / y_0.  `pade_reconstruct` is the one
candidate path; `reconstruct_counts`, the deepening over the number B of
counts, builds one series per B and accepts a candidate only when it
reproduces the held-out coefficients.  Run on P and P', `_euclid` gives
gcd(P, P') and the squarefree part for the weight report.  No floating
point enters the certification path; floats appear only in the
numerical weight report.
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


class AutoReconstructError(ReconstructionError):
    """No accepted candidate: ``status`` is the report status,
    "budget-exceeded" or "no-acceptance", and ``counts`` the counts made."""

    def __init__(self, message, counts, status: str):
        super().__init__(message)
        self.counts = tuple(counts)
        self.status = status


class RootFindingError(RuntimeError):
    status = "root-finding-failed"  # the report status


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

    def to_json_dict(self):
        return {"numerator": list(self.num), "denominator": list(self.den),
                "total_degree": self.total_degree()}


# ---------------------------------------------------------------------------
# exact polynomial algebra over Z
# ---------------------------------------------------------------------------

def _euclid_step(r0, t0, r1, t1):
    """The Euclid row after (r0, t0) and (r1, t1), r1 nonzero.

    With delta = deg r0 - deg r1, the new r is the pseudo-remainder
    lc(r1)^(delta+1) r0 - quo r1 (no scaling when delta < 0) and the new
    t is lc(r1)^(delta+1) t0 - quo t1, both divided by the positive
    content of the pair.  A drop of one, every step of a normal Pade
    table, is one pass: lc^2 r0 = (f1 T + f0) r1 + r.  Any other drop is
    plain pseudo-division of lc^(delta+1) r0 by r1 (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm R).
    """
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
        # pseudo-division: lc^e r0 with e = max(delta + 1, 0) makes every
        # quotient term an exact division by lc
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


def _euclid(a, b):
    """Extended Euclid on integer polynomials a, b (constant term first).

    Yields rows (r, t), trailing zeros trimmed, with r - t*b a multiple of
    a over Q: from (b, 1) down to the first r = [], each row made from
    the two before it by `_euclid_step`, the one before (b, 1) being
    (a, 0).  Sign rule: each row after (b, 1) is the pseudo-remainder
    pair, scaled by lc^(delta+1), divided by its positive content, so a
    row is the primitive pair of its degree with that sign.  The degrees
    of r strictly decrease, the last nonzero r is gcd(a, b) up to a
    scalar, and the t beside r = [] is a scalar multiple of a / gcd(a, b).
    """
    r0, t0 = _trim(list(a)), []
    r1, t1 = _trim(list(b)), [1]
    yield r1, t1
    while r1:
        r0, t0, (r1, t1) = r1, t1, _euclid_step(r0, t0, r1, t1)
        yield r1, t1


def _scaled(z):
    """(L, L z), L the lcm of the denominators of z: P = Q z mod T^(N+1)
    is homogeneous in z, so L z has the same solutions."""
    L = math.lcm(*(v.denominator for v in z))
    return L, [v.numerator * (L // v.denominator) for v in z]


def _judge(S, dn, dd, num, den):
    """The candidate with unit constant terms from the Euclid row
    (num, den) of y = L z_0..L z_N, N = dn + dd, else the error ruling it
    out.  The first row with deg r <= dn has deg t <= dd, and every
    solution (r', t') of r' = t' y mod T^(N+1), deg r' <= dn, deg t' <= dd
    is alpha (r, t) for a polynomial alpha; so when t(0) = 0, no solution
    has Q(0) != 0.  gcd(r, t) divides T^(N+1): lowest terms already.
    """
    if den[0] == 0:
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    if not num or num[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    n0, d0 = num[0], den[0]
    if any(v % n0 for v in num) or any(v % d0 for v in den):
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    # guard: the normalised candidate must still match through order N.
    # r = t y mod T^(N+1) gives n0 = d0 y_0 and L expand(R) = (L / y_0) y,
    # so it matches exactly when y_0 = L z_0 equals L, that is, z_0 = 1
    if S.coeffs[0] != 1:
        raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return RationalFunctionZ(tuple(v // n0 for v in num),
                             tuple(v // d0 for v in den))


def pade_reconstruct(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """P/Q with deg P <= dn, deg Q <= dd matching S through order dn + dd.

    The match is exact; the result is returned in lowest terms with
    integer coefficients and unit constant terms.  S keeps one table per
    N = dn + dd, made on first use: the rows (T^(N+1), 0), then the
    `_euclid` rows of (T^(N+1), y), y = L z_0..L z_N (`_scaled`).  The
    rows are extended by `_euclid_step` only until the asked split's row
    exists, the first with deg r <= dn, and each ask judges that row.
    """
    if dn < 0 or dd < 0:
        raise ValueError("degrees must be nonnegative")
    N = dn + dd
    if N + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    rows = S._pade.get(N)
    if rows is None:
        rows = S._pade[N] = [([0] * (N + 1) + [1], []),
                             (_trim(_scaled(S.coeffs[:N + 1])[1]), [1])]
    while len(rows[-1][0]) > dn + 1:
        rows.append(_euclid_step(*rows[-2], *rows[-1]))
    row = next(row for row in rows if len(row[0]) <= dn + 1)
    return _judge(S, dn, dd, *row)


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
        S = series_from_counts(counts)
        for dn, dd in _split_order(total):
            try:
                R = pade_reconstruct(S, dn, dd)
            except ReconstructionError:
                continue
            if tuple(R.expand(B)) == S.coeffs:
                return ReconstructionResult(R, B, tuple(counts))
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
    L, a = _scaled(coeffs)
    g = []
    for r, t in _euclid(a, [i * c for i, c in enumerate(a)][1:]):
        g = r or g
    if len(g) < 2:
        return _simple_roots(coeffs)
    # t is a scalar multiple of P / gcd; scale it to P's leading coefficient
    lead = Fraction(next(c for c in reversed(a) if c), L * t[-1])
    sf = [v * lead for v in t]
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
# degree sweep over profiles
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ["profile", "lcm", "B_used", "deg_num", "deg_den",
                 "total_degree", "weights", "status"]


def degree_sweep(X: VarietySpec, profiles, max_k: int = 12, holdout: int = 3,
                 budget: int = DEFAULT_BUDGET, tol: float = 1e-6):
    """One reconstruction per profile; failures become rows, not aborts,
    a failed Weil weight check among them, as status "weights-failed"."""
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
            row["status"] = "ok" if wr.passed else "weights-failed"
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
