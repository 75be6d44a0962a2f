"""Partial point counts over prescribed subfield products.

The count N_k is the number of tuples whose i-th coordinate lies in
F_{q^{d_i k}} inside the ambient field F_{q^{Dk}} (D the lcm of the
profile) and at which every defining equation vanishes.

One depth-first engine, ``_search``, serves both counting and point
listing.  It binds the variables in a given order, each to the values of
its domain; an equation is checked as soon as its last variable is bound,
and an equation linear in the variable being bound is solved for it
instead of scanned.  Each equation's terms carry their values at the
bound prefix, so binding a variable costs one product per term.

- ``partial_count`` leaves out the variables no equation uses (they
  multiply the count by their domain size) and binds the used variable
  with the largest domain last, ties going to the highest index.  That
  variable is never enumerated: substituting the prefix leaves univariate
  polynomials, whose common roots in F_Q, Q = q^{d_last k}, ``count_roots``
  of ``fields`` counts as deg gcd(f_1, ..., f_r, x^Q - x) (the roots of
  x^Q - x are the elements of F_Q, each simple; Lidl-Niederreiter,
  *Finite Fields*, ch. 3).
  The other used variables are bound largest domain first, ties going to
  the lowest index, and the first of them takes one value per orbit of
  Frobenius sigma: x -> x^q on its domain, its count weighted by the
  orbit's length.  The equations have coefficients in F_q, so sigma
  permutes the solutions and maps the fibre over x onto the fibre over
  sigma(x); an orbit in F_{q^e} has a length dividing e, so the largest
  domain gains the most.
- ``enumerate_points`` binds every variable in index order, the last one
  by scan or linear solve like the others, and lists the solutions in lex
  order of their coordinates.  The cyclic-cover lemma compares the
  partial counts with fixed points found this way, so the two sides of
  that check reach their numbers by different routes.

Listed points are combined by ``join``: blocks of candidates tied by
equal images, placed one at a time, each block's candidates looked up in
an index keyed by its images towards the blocks already placed.  The
cyclic cover Y of ``faltings`` and the direct count of ``graphs`` are
such joins.
"""

from __future__ import annotations

import math
import sys
from itertools import product

from .fields import Field, _trim, count_roots, field
from .polys import VarietySpec

DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """``cost`` is an int, or a pair (q, e) standing for q^e when that
    number has too many digits to build or print."""

    def __init__(self, cost, budget, context=""):
        shown = f"{cost[0]}^{cost[1]}" if isinstance(cost, tuple) else cost
        msg = f"enumeration cost {shown} exceeds budget {budget}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.cost = cost
        self.budget = budget


def ambient_field(X: VarietySpec, k: int) -> Field:
    return field(X.p, X.s, X.D * k)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _collect(vals, exps, F: Field):
    """Term values grouped by their exponent of one variable: the
    coefficient list of a polynomial in that variable."""
    add = F.add
    c = [0] * (max(exps) + 1)
    for v, e in zip(vals, exps):
        c[e] = add(c[e], v)
    return _trim(c)


def _search(equations, ambient: Field, base: Field, order, domains, leaf,
            budget: int):
    """Depth-first search binding variable ``order[u]`` to the values in
    ``domains[u]``, for u < len(domains).

    ``order`` lists every variable the equations use, and may hold one
    more than ``domains`` covers.  An equation is checked once all its
    variables are bound.  At each full prefix, ``leaf(point, polys)`` is
    called with ``point`` the bound values in search order and ``polys``
    the equations that use the unbound variable, as coefficient lists in
    it; the sum of its return values is returned.  Every node visited,
    full prefixes included, counts against ``budget``.
    """
    add, mul, neg, inv, pw = (ambient.add, ambient.mul, ambient.neg,
                              ambient.inv, ambient.pow)
    emb = ambient.embed_base(base)
    depth = len(order)
    stop = len(domains)
    # per equation: term values (the coefficients, to begin with) and the
    # exponent of each term in the variable at each position
    start, exps = [], []
    close = [[] for _ in range(depth + 1)]
    touch = [[] for _ in range(depth)]
    for eq in equations:
        if not eq.terms:
            continue
        terms = sorted(eq.terms.items())
        by_pos = [tuple(ex[v] for ex, _ in terms) for v in order]
        used = [u for u in range(depth) if any(by_pos[u])]
        if not used:
            return 0  # a nonzero constant equation
        j = len(start)
        start.append([emb(c) for _, c in terms])
        exps.append(by_pos)
        last = used[-1]
        close[last].append(j)
        for u in used:
            if u < last:
                touch[u].append(j)
    powers = [sorted({e for j in close[u] + touch[u] for e in exps[j][u] if e})
              for u in range(stop)]
    members = [d if isinstance(d, range) else set(d) for d in domains]
    point = [None] * stop
    nodes = 0

    def descend(u, vals):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget, "variety enumeration")
        if u == stop:
            return leaf(point, [_collect(vals[j], exps[j][u], ambient)
                                for j in close[u]])
        closing = close[u]
        candidates = domains[u]
        for j in closing:
            c = _collect(vals[j], exps[j][u], ambient)
            if len(c) == 2:
                x = mul(neg(c[0]), inv(c[1]))
                candidates = (x,) if x in members[u] else ()
                break
        total = 0
        for x in candidates:
            xp = {e: pw(x, e) for e in powers[u]}
            for j in closing:
                acc = 0
                for v, e in zip(vals[j], exps[j][u]):
                    acc = add(acc, mul(v, xp[e]) if e else v)
                if acc:
                    break
            else:
                nxt = list(vals)
                for j in touch[u]:
                    nxt[j] = [mul(v, xp[e]) if e else v
                              for v, e in zip(vals[j], exps[j][u])]
                point[u] = x
                total += descend(u + 1, nxt)
        return total

    try:
        return descend(0, start)
    finally:
        del descend  # a self-referencing closure: free its state now, not at gc


def enumerate_points(equations, n: int, ambient: Field, base: Field,
                     domains=None, budget: int = DEFAULT_BUDGET):
    """All solutions, as int tuples, with coordinates in per-variable domains.

    ``domains`` are iterables of packed ints of ``ambient`` (the whole
    field when None).  The search binds x_1, ..., x_n in turn, so the
    solutions come out in lex order when the domains are sorted, and it
    raises ``BudgetExceededError`` once it has visited more than
    ``budget`` nodes.
    """
    if domains is None:
        domains = [range(ambient.size())] * n
    out = []

    def leaf(point, polys):
        out.append(tuple(point))
        return 1

    _search(equations, ambient, base, range(n), domains, leaf, budget)
    return out


def join(sizes, links, budget: int, context: str):
    """Index tuples (x_0, ..., x_{m-1}), 0 <= x_b < sizes[b], meeting
    every link, in block order.

    A link (a, f, b, g) asks f[x_a] == g[x_b]; f and g list hashable
    images, one per candidate of block a and of block b.  Blocks are
    placed most-linked-to-placed first, ties going to the lower index.
    A block's candidates come from an index keyed by their images under
    its links to the blocks already placed; a self-link (a == b) filters
    that index.  Every node visited, the root included, counts against
    ``budget``, and the refusal names ``context``.
    """
    m = len(sizes)
    # per position: the block, its index, and the (placed block, images)
    # whose values at the chosen candidates form the lookup key
    steps = []
    placed = set()
    while len(placed) < m:
        b = min((j for j in range(m) if j not in placed),
                key=lambda j: (-sum((a == j and c in placed) or
                                    (c == j and a in placed)
                                    for a, _, c, _ in links), j))
        own, other, filters = [], [], []
        for a, f, c, g in links:
            if a == b == c:
                filters.append((f, g))
            elif a == b and c in placed:
                own.append(f)
                other.append((c, g))
            elif c == b and a in placed:
                own.append(g)
                other.append((a, f))
        index = {}
        for x in range(sizes[b]):
            if all(f[x] == g[x] for f, g in filters):
                index.setdefault(tuple(h[x] for h in own), []).append(x)
        steps.append((b, index, other))
        placed.add(b)
    out = []
    chosen = [None] * m
    nodes = 0

    def descend(pos):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget, context)
        if pos == m:
            out.append(tuple(chosen))
            return
        b, index, other = steps[pos]
        for x in index.get(tuple(g[chosen[c]] for c, g in other), ()):
            chosen[b] = x
            descend(pos + 1)

    try:
        descend(0)
    finally:
        del descend  # as in _search
    return out


# ---------------------------------------------------------------------------
# partial counts
# ---------------------------------------------------------------------------

def _frobenius_orbits(values, frob):
    """The least member of each orbit of x -> frob(x, 1) among the sorted
    ``values``, mapped to the orbit's length, in increasing order."""
    weight = {}
    later = set()
    for x in values:
        if x in later:
            later.discard(x)
            continue
        y, n = frob(x, 1), 1
        while y != x:
            later.add(y)
            y, n = frob(y, 1), n + 1
        weight[x] = n
    return weight


def partial_count(X: VarietySpec, k: int,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Exact #X_{d_1,...,d_n}(k).

    The budget is checked against the product of the domain sizes,
    q^e with e = k sum d_i, before any subfield is materialised.
    """
    if k < 1:
        raise ValueError("k must be positive")
    q = X.p ** X.s
    e = k * sum(X.profile)
    # q^e >= 2^((bits(q) - 1) e): a power past the budget's bit length is
    # refused from its exponent, before it is built
    if (q.bit_length() - 1) * e >= budget.bit_length() or q ** e > budget:
        # Python's default int-to-str limit when there is none
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        cost = q ** e if e * math.log10(q) < digits - 1 else (q, e)
        raise BudgetExceededError(cost, budget, f"partial_count k={k}")
    sizes = [q ** (d * k) for d in X.profile]
    used = set()
    for eq in X.equations:
        vs = eq.variables_used()
        if eq.terms and not vs:
            return 0
        used |= vs
    free = 1
    for i, size in enumerate(sizes):
        if i not in used:
            free *= size
    if not used:
        return free
    last = max(used, key=lambda i: (sizes[i], i))
    order = sorted(used - {last}, key=lambda i: (-sizes[i], i)) + [last]
    amb = ambient_field(X, k)
    domains = [amb.subfield(X.profile[i] * k, method="span")
               for i in order[:-1]]
    e_last = X.profile[last] * k
    weight = {}
    if domains:
        # sigma: x -> x^q fixes the coefficients, so the first variable
        # needs one value per sigma-orbit.  A linear equation in it alone
        # has its root in F_q, which sigma fixes: the engine's linear
        # solve at this level lands on the root's own representative.
        weight = _frobenius_orbits(domains[0], amb.frob)
        domains[0] = list(weight)

    def roots(point, polys):
        n = count_roots(polys, amb, e_last)
        return weight[point[0]] * n if point else n

    return free * _search(X.equations, amb, X.base, order, domains, roots,
                          budget)


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
    for point in product(amb.elements(), repeat=X.n):
        if not any(eq.evaluate(point, amb) for eq in X.equations):
            count += 1
    return count
