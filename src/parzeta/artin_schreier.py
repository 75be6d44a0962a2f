"""Artin-Schreier hypersurface counts and exponential-sum bounds.

Counts solutions of x_0^p - x_0 = f with the x-block ranging over F_{q^d}
and the y-block over F_q, by two independent routes (full enumeration and
the additive-trace criterion), and compares the deviation from the main
term against (p-1)(r-1)^(dn+n') q^((dn+n')/2).  The comparison is done on
squares so everything stays in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .counting import BudgetExceededError, DEFAULT_BUDGET
from .fields import Field, field
from .polys import SparsePoly


class OracleMismatchError(RuntimeError):
    """The two counting routes disagree; the instance is not trusted."""


@dataclass(frozen=True)
class ASInstance:
    p: int
    s: int
    n: int
    nprime: int
    d: int
    f: SparsePoly  # in n + nprime variables over F_q

    def __post_init__(self):
        if self.n < 1 or self.nprime < 1 or self.d < 1:
            raise ValueError("n, n', d must be positive")
        if self.f.is_zero():
            raise ValueError("f must be nonzero")
        if self.f.n != self.n + self.nprime:
            raise ValueError("f must have n + n' variables")

    @property
    def q(self) -> int:
        return self.p ** self.s


def _domains(inst: ASInstance):
    """The ambient F_{q^d}, its elements (the x-domain) and F_q (the y-domain).

    Callers check their budget, from len(xs) = q^d and len(ys) = q, before
    calling this, so nothing is materialised for a refused instance.
    """
    amb = field(inst.p, inst.s, inst.d)
    xs = amb.subfield(inst.d, method="span")   # the whole field, sorted
    ys = amb.subfield(1, method="span")
    return amb, xs, ys


def as_count_brute(inst: ASInstance, budget: int = DEFAULT_BUDGET) -> int:
    """Full enumeration over (x_0, x, y)."""
    q, d = inst.q, inst.d
    cost = q ** (d * (inst.n + 1)) * q ** inst.nprime
    if cost > budget:
        raise BudgetExceededError(cost, budget, "as_count_brute")
    amb, xs, ys = _domains(inst)
    # x_0^p - x_0 for every x_0, scanned in full for each right-hand side
    lhs = [amb.sub(amb.pow(x0.value, inst.p), x0.value) for x0 in xs]
    count = 0
    for xy in product(*([xs] * inst.n + [ys] * inst.nprime)):
        count += lhs.count(inst.f.evaluate(xy, amb).value)
    return count


def trace_to_prime(amb: Field, x) -> int:
    """Absolute trace down to F_p, returned as an integer residue."""
    add, pw, p = amb.add, amb.pow, amb.p
    acc = cur = x.value
    for _ in range(amb.m - 1):
        cur = pw(cur, p)
        acc = add(acc, cur)
    # in F_p exactly when every digit below the constant term vanishes
    c, rest = divmod(acc, amb.one().value)
    if rest:
        raise ArithmeticError("trace did not land in the prime field")
    return c


def as_count_trace(inst: ASInstance, budget: int = DEFAULT_BUDGET) -> int:
    """Trace oracle: x_0^p - x_0 = c has p solutions iff Tr(c) = 0, else none."""
    q, d = inst.q, inst.d
    cost = q ** (d * inst.n) * q ** inst.nprime
    if cost > budget:
        raise BudgetExceededError(cost, budget, "as_count_trace")
    amb, xs, ys = _domains(inst)
    count = 0
    for xy in product(*([xs] * inst.n + [ys] * inst.nprime)):
        if trace_to_prime(amb, inst.f.evaluate(xy, amb)) == 0:
            count += 1
    return inst.p * count


def fibred_sum(f: SparsePoly, n: int, nprime: int, d: int) -> SparsePoly:
    """Sum of d copies of f with fresh x-blocks and one shared y-block."""
    if f.n != n + nprime:
        raise ValueError("f must have n + n' variables")
    total = d * n + nprime
    out = SparsePoly.zero(total, f.base)
    for block in range(d):
        mapping = {}
        for i in range(n):
            mapping[i] = block * n + i
        for j in range(nprime):
            mapping[n + j] = d * n + j
        out = out + f.rename(mapping, total)
    return out


def diagonal_smooth_check(form: SparsePoly, p: int) -> str:
    """Exact smoothness for diagonal forms; 'not-diagonal' otherwise.

    A diagonal form sum a_i x_i^r (after coefficient collection) cuts a
    smooth projective hypersurface iff p does not divide r and every
    variable survives with a nonzero coefficient.
    """
    if form.is_zero():
        raise ValueError("zero form")
    if not form.is_homogeneous():
        raise ValueError("form must be homogeneous")
    r = form.total_degree()
    if r == 0:
        return "not-diagonal"
    seen_vars = set()
    for exps in form.terms:
        nz = [i for i, e in enumerate(exps) if e]
        if len(nz) != 1:
            return "not-diagonal"
        seen_vars.add(nz[0])
    if r % p == 0:
        return "singular"
    if len(seen_vars) != form.n:
        # a variable dropped out (its coefficient vanished mod p)
        return "singular"
    return "smooth"


def singular_search(form: SparsePoly, e_max: int,
                    budget: int = DEFAULT_BUDGET):
    """Look for a projective singular point over F_{q^e}, e = 1..e_max.

    Returns a witness (e, point) or None.  None is NOT a smoothness
    proof, only 'no singular point found up to degree e_max'.
    """
    if not form.is_homogeneous():
        raise ValueError("form must be homogeneous")
    base = form.base
    n = form.n
    derivs = [form.partial_derivative(i) for i in range(n)]
    for e in range(1, e_max + 1):
        amb = field(base.p, base.s, e)
        els = list(amb.elements())
        checked = 0
        # representatives with first nonzero coordinate equal to 1
        for lead in range(n):
            for tail in product(els, repeat=n - lead - 1):
                checked += 1
                if checked > budget:
                    raise BudgetExceededError(checked, budget, "singular_search")
                pt = tuple([amb.zero()] * lead + [amb.one()] + list(tail))
                if not form.evaluate(pt, amb).is_zero():
                    continue
                if all(dv.evaluate(pt, amb).is_zero() for dv in derivs):
                    return (e, pt)
    return None


@dataclass(frozen=True)
class BoundReport:
    instance: ASInstance
    r: int
    N_d: int
    main_term: int
    deviation: int
    bound_squared: int
    bound_decimal: float
    p_divides_r: bool
    smooth_status: str   # verified-diagonal | heuristic-pass | singular | unknown
    hypothesis_ok: bool
    satisfied: bool

    def to_json_dict(self):
        return {
            "p": self.instance.p, "q": self.instance.q,
            "n": self.instance.n, "n_prime": self.instance.nprime,
            "d": self.instance.d, "r": self.r,
            "N_d": self.N_d,
            "main_term": str(self.main_term),
            "deviation": str(self.deviation),
            "bound_squared": str(self.bound_squared),
            "bound_decimal": repr(self.bound_decimal),
            "p_divides_r": self.p_divides_r,
            "smooth_status": self.smooth_status,
            "hypothesis_ok": self.hypothesis_ok,
            "satisfied": self.satisfied,
        }


def bound_check(inst: ASInstance, e_max: int = 2,
                budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Exact count both ways, hypothesis flags, and the squared comparison."""
    fr, r = inst.f.leading_form()
    p, q, d, n, nn = inst.p, inst.q, inst.d, inst.n, inst.nprime
    p_div_r = (r % p == 0)
    form_sum = fibred_sum(fr, n, nn, d)
    verdict = diagonal_smooth_check(form_sum, p)
    if verdict == "smooth":
        status = "verified-diagonal"
    elif verdict == "singular":
        status = "singular"
    else:
        witness = singular_search(form_sum, e_max, budget=budget)
        status = "singular" if witness is not None else "heuristic-pass"
    n_brute = as_count_brute(inst, budget=budget)
    n_trace = as_count_trace(inst, budget=budget)
    if n_brute != n_trace:
        raise OracleMismatchError(
            f"brute count {n_brute} != trace count {n_trace}")
    e_tot = d * n + nn
    main = q ** e_tot
    deviation = abs(n_brute - main)
    bound_sq = (p - 1) ** 2 * (r - 1) ** (2 * e_tot) * q ** e_tot
    hypothesis_ok = (not p_div_r) and status in ("verified-diagonal",
                                                 "heuristic-pass")
    return BoundReport(
        instance=inst, r=r, N_d=n_brute, main_term=main, deviation=deviation,
        bound_squared=bound_sq,
        bound_decimal=(p - 1) * (r - 1) ** e_tot * q ** (e_tot / 2),
        p_divides_r=p_div_r, smooth_status=status,
        hypothesis_ok=hypothesis_ok,
        satisfied=deviation * deviation <= bound_sq,
    )


def example44_sweep(f1r: SparsePoly, f2r: SparsePoly, p: int, d_list):
    """Diagonal split forms: smoothness of the fibred sum iff p does not divide d."""
    r1 = f1r.total_degree()
    r2 = f2r.total_degree()
    if r1 != r2:
        raise ValueError("split forms must have equal degree")
    if r1 % p == 0:
        raise ValueError("p must not divide the degree r")
    for g, name in ((f1r, "x-part"), (f2r, "y-part")):
        if diagonal_smooth_check(g, p) != "smooth":
            raise ValueError(f"{name} must itself be diagonal-smooth")
    n, nn = f1r.n, f2r.n
    total = n + nn
    f = (f1r.rename({i: i for i in range(n)}, total)
         + f2r.rename({j: n + j for j in range(nn)}, total))
    rows = []
    for d in d_list:
        verdict = diagonal_smooth_check(fibred_sum(f, n, nn, d), p)
        rows.append({
            "d": d,
            "verdict": verdict,
            "expected_smooth": d % p != 0,
            "matches": (verdict == "smooth") == (d % p != 0),
        })
    return rows
