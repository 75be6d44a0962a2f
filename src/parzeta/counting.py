"""Partial point counts over prescribed subfield products.

The count N_k enumerates tuples whose i-th coordinate runs over
F_{q^{d_i k}} inside the ambient field F_{q^{Dk}} (D the lcm of the
profile) and keeps those where every defining equation vanishes.  The
enumeration is an odometer over the per-coordinate subfield lists in lex
order, so totals are independent of how the index space is partitioned
across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, product

from .fields import Field, field
from .polys import VarietySpec

DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    def __init__(self, cost, budget, context=""):
        msg = f"enumeration cost {cost} exceeds budget {budget}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.cost = cost
        self.budget = budget


@dataclass(frozen=True)
class CountTable:
    variety: VarietySpec
    counts: tuple
    B: int
    truncated: bool = False


def ambient_field(X: VarietySpec, k: int) -> Field:
    return field(X.p, X.s, X.D * k)


def _compiled_equations(X: VarietySpec, ambient: Field):
    """Equations as [(packed_coeff_in_ambient, ((var, exp), ...)), ...] lists."""
    emb = ambient.embed_base(X.base)
    out = []
    for eq in X.equations:
        terms = []
        for exps, c in sorted(eq.terms.items()):
            ve = tuple((i, e) for i, e in enumerate(exps) if e)
            terms.append((emb(c.coeffs).value, ve))
        out.append(terms)
    return out


def _count_block(domains, compiled, ambient, start, stop):
    """Count solutions among odometer positions [start, stop).

    ``domains`` are lists of packed ints, so the loop runs on the field's
    int ``add``/``mul`` and never builds an element object.
    """
    one = ambient.one().value
    mul, add, pw = ambient.mul, ambient.add, ambient.pow
    # precomputed power tables: (var, exp) -> exp-th powers of that domain
    powtab = {}
    eqs = []
    for terms in compiled:
        fast_terms = []
        for coeff, ve in terms:
            for i, e in ve:
                if (i, e) not in powtab:
                    powtab[(i, e)] = [pw(x, e) for x in domains[i]]
            const = None if (coeff == one and ve) else coeff
            fast_terms.append((const, [(powtab[(i, e)], i) for i, e in ve]))
        eqs.append(fast_terms)
    count = 0
    ranges = [range(len(d)) for d in domains]
    for idx in islice(product(*ranges), start, stop):
        for fast_terms in eqs:
            acc = 0
            for const, ves in fast_terms:
                v = const
                for tab, i in ves:
                    w = tab[idx[i]]
                    v = w if v is None else mul(v, w)
                acc = add(acc, v)
            if acc:
                break
        else:
            count += 1
    return count


def partial_count(X: VarietySpec, k: int, budget: int = DEFAULT_BUDGET,
                  workers: int = 1) -> int:
    """Exact #X_{d_1,...,d_n}(k) by exhaustive subfield-product enumeration.

    The budget is checked against the product of the domain sizes
    q^(d_i k) before any subfield is materialised.
    """
    if k < 1:
        raise ValueError("k must be positive")
    q = X.p ** X.s
    cost = 1
    for d in X.profile:
        cost *= q ** (d * k)
    if cost > budget:
        raise BudgetExceededError(cost, budget, f"partial_count k={k}")
    amb = ambient_field(X, k)
    domains = [[x.value for x in amb.subfield(d * k, method="span")]
               for d in X.profile]
    compiled = _compiled_equations(X, amb)
    if workers <= 1:
        return _count_block(domains, compiled, amb, 0, cost)
    chunk = (cost + workers - 1) // workers
    spans = [(i * chunk, min((i + 1) * chunk, cost)) for i in range(workers)
             if i * chunk < cost]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            lambda se: _count_block(domains, compiled, amb, se[0], se[1]), spans))
    return sum(parts)


def count_table(X: VarietySpec, B: int, budget: int = DEFAULT_BUDGET,
                workers: int = 1) -> CountTable:
    """N_1..N_B; stops at the first k over budget and flags truncation."""
    counts = []
    for k in range(1, B + 1):
        try:
            counts.append(partial_count(X, k, budget=budget, workers=workers))
        except BudgetExceededError:
            if not counts:
                raise
            return CountTable(X, tuple(counts), len(counts), truncated=True)
    return CountTable(X, tuple(counts), B, truncated=False)


def classical_count(X: VarietySpec, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """#X(F_{q^k}) by direct enumeration of the single field F_{q^k}.

    Independent of the subfield machinery; used to cross-check the
    profile (1,...,1) case.
    """
    amb = field(X.p, X.s, k)
    cost = amb.size() ** X.n
    if cost > budget:
        raise BudgetExceededError(cost, budget, f"classical_count k={k}")
    count = 0
    for point in product(list(amb.elements()), repeat=X.n):
        if all(eq.evaluate(point, amb).is_zero() for eq in X.equations):
            count += 1
    return count
