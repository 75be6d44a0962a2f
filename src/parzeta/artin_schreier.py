"""Artin-Schreier hypersurface counts and exponential-sum bounds.

Counts solutions of x_0^p - x_0 = f with the x-block ranging over F_{q^d}
and the y-block over F_q, by two independent routes (full enumeration and
the additive-trace criterion), and compares the deviation from the main
term against (p-1)(r-1)^(dn+n') q^((dn+n')/2).  The comparison is done on
squares so everything stays in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .counting import DEFAULT_BUDGET, check_cost, enumerate_points
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
        self.f.check_base(self.p, self.s)

    @property
    def q(self) -> int:
        return self.p ** self.s


def as_count_brute(inst: ASInstance, budget: int = DEFAULT_BUDGET) -> int:
    """Full enumeration over (x_0, x, y)."""
    check_cost(inst.q, inst.d * (inst.n + 1) + inst.nprime, budget,
               "as_count_brute")
    # both counts pass check_cost before the field is built
    amb = field(inst.p, inst.s, inst.d)
    xs, ys = amb.elements(), amb.subfield(1)  # F_{q^d}, a range, and F_q
    # x_0^p - x_0 for every x_0, scanned in full for each right-hand side
    lhs = [amb.sub(amb.pow(x0, inst.p), x0) for x0 in xs]
    count = 0
    for xy in product(*([xs] * inst.n + [ys] * inst.nprime)):
        count += lhs.count(inst.f.evaluate(xy, amb))
    return count


def trace_to_prime(amb: Field, x: int) -> int:
    """Absolute trace of a packed int down to F_p, as an integer residue."""
    add, pw, p = amb.add, amb.pow, amb.p
    acc = cur = x
    for _ in range(amb.m - 1):
        cur = pw(cur, p)
        acc = add(acc, cur)
    # in F_p exactly when every digit below the constant term vanishes
    c, rest = divmod(acc, amb._one)
    if rest:
        raise ArithmeticError("trace did not land in the prime field")
    return c


def as_count_trace(inst: ASInstance, budget: int = DEFAULT_BUDGET) -> int:
    """Trace oracle: x_0^p - x_0 = c has p solutions iff Tr(c) = 0, else none."""
    check_cost(inst.q, inst.d * inst.n + inst.nprime, budget,
               "as_count_trace")
    amb = field(inst.p, inst.s, inst.d)
    xs, ys = amb.elements(), amb.subfield(1)
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
    out = SparsePoly(total, f.base)
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

    Returns a witness (e, point), the point a tuple of packed ints, or
    None.  None is NOT a smoothness proof, only 'no singular point found
    up to degree e_max'.  The points are the common zeros of the form and
    its partials with first nonzero coordinate 1, listed by the counting
    engine over F_{q^e}^n one leading position at a time, with the pins
    x_i = 0 (i < lead) and x_lead = 1 added as the equations x_i and
    x_lead - 1, which it solves linearly; the witness is the first in lex
    order.  Degree e is refused before F_{q^e} is built when q^(e(n-1))
    (q^e for n = 1) passes ``budget``; each listing's nodes count against it.
    """
    if e_max < 1:
        raise ValueError("e_max must be positive")
    if not form.is_homogeneous():
        raise ValueError("form must be homogeneous")
    base = form.base
    n = form.n
    system = [form] + [form.partial_derivative(i) for i in range(n)]
    x = [SparsePoly.var(n, base, i) for i in range(n)]
    for e in range(1, e_max + 1):
        check_cost(base.q, e * max(n - 1, 1), budget, f"singular_search e={e}")
        amb = field(base.p, base.s, e)
        for lead in range(n):
            pins = x[:lead] + [x[lead] - SparsePoly.const_int(n, base, 1)]
            pts = enumerate_points(system + pins, amb, [e] * n, budget=budget)
            if pts:
                return (e, pts[0])
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
    smooth_status: str   # verified-diagonal | heuristic-pass | singular
    hypothesis_ok: bool
    satisfied: bool


def bound_check(inst: ASInstance, e_max: int = 2,
                budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Exact count both ways, hypothesis flags, and the squared comparison."""
    if e_max < 1:  # before the counts, though only a search would use it
        raise ValueError("e_max must be positive")
    # the counts refuse from their exponents, so count before building
    n_brute = as_count_brute(inst, budget=budget)
    n_trace = as_count_trace(inst, budget=budget)
    if n_brute != n_trace:
        raise OracleMismatchError(
            f"brute count {n_brute} != trace count {n_trace}")
    fr, r = inst.f.leading_form()
    p, q, d, n, nn = inst.p, inst.q, inst.d, inst.n, inst.nprime
    p_div_r = (r % p == 0)
    form_sum = fibred_sum(fr, n, nn, d)
    verdict = ("singular" if form_sum.is_zero()  # all of it is singular
               else diagonal_smooth_check(form_sum, p))
    if verdict == "smooth":
        status = "verified-diagonal"
    elif verdict == "singular":
        status = "singular"
    else:
        witness = singular_search(form_sum, e_max, budget=budget)
        status = "singular" if witness is not None else "heuristic-pass"
    e_tot = d * n + nn
    main = q ** e_tot
    deviation = abs(n_brute - main)
    bound_sq = (p - 1) ** 2 * (r - 1) ** (2 * e_tot) * q ** e_tot
    try:
        bound_dec = (p - 1) * abs(r - 1) ** e_tot * q ** (e_tot / 2)
    except OverflowError:  # past the float range; the comparison is exact
        bound_dec = math.inf
    hypothesis_ok = (not p_div_r) and status in ("verified-diagonal",
                                                 "heuristic-pass")
    return BoundReport(
        instance=inst, r=r, N_d=n_brute, main_term=main, deviation=deviation,
        bound_squared=bound_sq,
        bound_decimal=bound_dec,
        p_divides_r=p_div_r, smooth_status=status,
        hypothesis_ok=hypothesis_ok,
        satisfied=deviation * deviation <= bound_sq,
    )
