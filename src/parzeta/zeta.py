"""Zeta series, rational reconstruction, and Weil weight checks.

The series exp(sum N_k T^k / k) comes from the logarithmic-derivative
recurrence run on the integers y_k = k! z_k.  Candidate rational functions
come from the Pade linear system, solved over the integers: the series is
scaled by the lcm of its denominators and the Hankel system goes through
Bareiss fraction-free elimination, whose divisions are exact.  A candidate
is put in lowest terms by a Euclid modulo the prime 2^61 - 1 when that
proves the pair coprime, and by the exact rational Euclid otherwise; it
is accepted only when it reproduces held-out series coefficients.  No
floating point enters the certification path; floats appear only in the
numerical weight report, whose exact squarefree split uses the same
modular shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import (BudgetExceededError, CountTable, DEFAULT_BUDGET,
                       partial_count)
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
    """Budget exhausted without an accepted candidate."""

    def __init__(self, message, table: CountTable):
        super().__init__(message)
        self.table = table

    @property
    def status(self) -> str:
        """The report status: the budget ran out, or no candidate held."""
        return "budget-exceeded" if self.table.truncated else "no-acceptance"


class RootFindingError(RuntimeError):
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
    """exp(sum N_k T^k / k) truncated at the length of the count table.

    k z_k = sum_j N_j z_{k-j}, so y_k = k! z_k is the integer
    sum_j N_j y_{k-j} (k-1)!/(k-j)!; only z_k = y_k / k! is a Fraction.
    """
    if isinstance(counts, CountTable):
        counts = counts.counts
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
# exact linear algebra over Z
# ---------------------------------------------------------------------------

def _bareiss_solve(rows, rhs):
    """Solve A x = b for integer A, b; free variables are set to 0.

    Bareiss fraction-free elimination: after the k-th pivot every entry
    below it is a (k+1)-minor of the row-permuted matrix, so the division
    by the previous pivot is exact and every entry stays an integer.  A
    column with no nonzero entry at or below the current row is skipped.
    With the free variables at 0 the solution is unique, so this is the
    same vector Gauss-Jordan over Q returns.

    Returns (X, d) with x = X / d and d the last pivot (the pivot minor),
    or None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        pv = top[c]
        # columns up to c are zero below the pivot, before and after
        zeros, tail = [0] * (c + 1), top[c + 1:]
        for i in range(r + 1, m):
            row = aug[i]
            f = row[c]
            aug[i] = zeros + [(pv * a - f * t) // prev
                              for a, t in zip(row[c + 1:], tail)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][n] for i in range(r, m)):
        return None
    # By Cramer's rule d * x is integral, so each division here is exact.
    X = [0] * n
    for i in reversed(range(r)):
        row = aug[i]
        acc = prev * row[n] - sum(row[c] * X[c] for c in pivots[i + 1:])
        X[pivots[i]] = acc // row[pivots[i]]
    return X, prev


# the Mersenne prime 2^61 - 1: a residue fits in one 64-bit word
_P61 = (1 << 61) - 1


def _coprime_mod_p(a, b):
    """True when a and b are certainly coprime over Q (constant first).

    Each polynomial is scaled to integers and reduced mod p = 2^61 - 1.
    If g = gcd(a, b) over Q has positive degree, its primitive integer
    multiple divides both scaled polynomials (Gauss's lemma), so its
    leading coefficient divides theirs.  When neither leading coefficient
    vanishes mod p, g mod p keeps its degree and divides both reductions.
    So a degree-0 gcd mod p proves coprimality.  False means only that
    the exact Euclid must decide.
    """
    reduced = []
    for poly in (a, b):
        lcm = math.lcm(*(x.denominator for x in poly))
        r = [x.numerator * (lcm // x.denominator) % _P61 for x in poly]
        if not r or r[-1] == 0:
            return False
        reduced.append(r)
    a, b = reduced
    # a nonzero constant b ends the Euclid with a unit gcd
    while len(b) > 1:
        inv = pow(b[-1], -1, _P61)
        db = len(b) - 1
        while len(a) > db:
            c = a[-1] * inv % _P61
            sh = len(a) - 1 - db
            for i, bi in enumerate(b[:-1]):
                a[sh + i] = (a[sh + i] - c * bi) % _P61
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


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


def pade_reconstruct(S: TruncatedSeries, dn: int, dd: int) -> RationalFunctionZ:
    """P/Q with deg P <= dn, deg Q <= dd matching S through order dn + dd.

    The match is exact; the result is returned in lowest terms with
    integer coefficients and unit constant terms.
    """
    if dn + dd + 1 > len(S.coeffs):
        raise ValueError("series too short for requested degrees")
    z = S.coeffs[:dn + dd + 1]
    # The system below is homogeneous in z, so y = L z (L the lcm of the
    # denominators) gives the same solution with integer entries.
    L = math.lcm(*(v.denominator for v in z))
    y = [v.numerator * (L // v.denominator) for v in z]
    # unknowns b_1..b_dd from  sum_{j=0}^{dd} b_j y_{k-j} = 0,  k = dn+1..dn+dd
    rows = [[y[k - j] if k - j >= 0 else 0 for j in range(1, dd + 1)]
            for k in range(dn + 1, dn + dd + 1)]
    sol = _bareiss_solve(rows, [-y[k] for k in range(dn + 1, dn + dd + 1)])
    if sol is None:
        raise NoSolutionError(f"no degree ({dn},{dd}) match")
    # den and num up to the nonzero scalars d and d * L; both are
    # normalised to unit constant terms below, so the scalars drop out.
    X, d = sol
    den = [d] + X
    num = [sum(den[j] * y[k - j] for j in range(min(k, dd) + 1))
           for k in range(dn + 1)]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    # reduce to lowest terms over Q; the exact Euclid runs only when the
    # modular test cannot prove the pair coprime
    if not _coprime_mod_p(num, den):
        g = _poly_gcd_q(num, den)
        if len(g) > 1:
            num = _poly_div_exact(num, g)
            den = _poly_div_exact(den, g)
    if num[0] == 0 or den[0] == 0:
        raise NoSolutionError("degenerate candidate with vanishing constant term")
    # v / c is an integer exactly when v % c == 0, for ints and Fractions
    n0, d0 = num[0], den[0]
    if any(v % n0 for v in num) or any(v % d0 for v in den):
        raise NonIntegerError(
            f"degree ({dn},{dd}) candidate has non-integer coefficients")
    R = RationalFunctionZ(tuple(int(v // n0) for v in num),
                          tuple(int(v // d0) for v in den))
    # guard: the reduced candidate must still match through order dn + dd
    if [v * L for v in R.expand(dn + dd)] != y:
        raise NoSolutionError(f"degree ({dn},{dd}) system is inconsistent")
    return R


@dataclass
class ReconstructionResult:
    function: RationalFunctionZ
    B_used: int
    table: CountTable
    holdout: int


def _split_order(total: int):
    splits = [(dn, total - dn) for dn in range(total + 1)]
    splits.sort(key=lambda t: (abs(t[0] - t[1]), 0 if t[0] < t[1] else 1))
    return splits


def auto_reconstruct(X: VarietySpec, max_k: int, holdout: int = 3,
                     budget: int = DEFAULT_BUDGET,
                     workers: int = 1) -> ReconstructionResult:
    """Iterative-deepening reconstruction with held-out verification.

    For B = 2, 3, ... the candidate degrees split dn + dd = B - holdout and
    the first candidate reproducing the held-out coefficients wins.
    """
    if holdout < 1:
        raise ValueError("holdout must be at least 1")
    counts = []
    for B in range(2, max_k + 1):
        while len(counts) < B:
            k = len(counts) + 1
            try:
                counts.append(partial_count(X, k, budget=budget, workers=workers))
            except BudgetExceededError as exc:
                table = CountTable(X, tuple(counts), len(counts), truncated=True)
                raise AutoReconstructError(
                    f"budget exhausted at k={k} without acceptance", table) from exc
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
            if all(Fraction(expansion[k]) == S.coeffs[k] for k in range(B + 1)):
                table = CountTable(X, tuple(counts[:B]), B)
                return ReconstructionResult(R, B, table, holdout)
    table = CountTable(X, tuple(counts), len(counts), truncated=False)
    raise AutoReconstructError(
        f"no candidate accepted up to max_k={max_k}", table)


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
    part plus, recursively, those of gcd(P, P').  Both factors are
    computed in exact rational arithmetic; the numerics only ever see
    simple roots.
    """
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    P = [Fraction(c) for c in coeffs]
    dP = [i * c for i, c in enumerate(P)][1:]
    if not _coprime_mod_p(P, dP):
        g = _poly_gcd_q(P, dP)
        if len(g) > 1:
            sf = _poly_div_exact(P, g)
            return sorted(_simple_roots(sf) + _reciprocal_roots(g),
                          key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    return _simple_roots(P)


def _simple_roots(coeffs):
    """Roots of a squarefree polynomial, refined by Newton's method."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    arr = [float(c) for c in coeffs]  # highest power first after reversal
    roots = np.roots(arr)

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
                 budget: int = DEFAULT_BUDGET, tol: float = 1e-6,
                 workers: int = 1):
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
            res = auto_reconstruct(Xp, max_k, holdout=holdout, budget=budget,
                                   workers=workers)
            row.update({
                "B_used": res.B_used,
                "deg_num": len(res.function.num) - 1,
                "deg_den": len(res.function.den) - 1,
                "total_degree": res.function.total_degree(),
            })
            wr = weil_weight_check(res.function, Xp.p ** Xp.s, tol=tol)
            row["weights"] = " ".join(str(w) for w in wr.weight_multiset())
        except AutoReconstructError as exc:
            row["status"] = exc.status
        except RootFindingError:
            row["status"] = "root-finding-failed"
        rows.append(row)
    return rows


def sweep_rows_to_csv(rows, fh):
    import csv

    writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
