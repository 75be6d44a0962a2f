"""Partial point counts over prescribed subfield products.

The count N_k is the number of tuples whose i-th coordinate lies in
F_{q^{d_i k}} (inside F_{q^{Dk}}, D the lcm of the profile) and at which
every defining equation vanishes.  ``partial_count`` never builds
F_{q^{Dk}}: it searches the count field, F_{q^{Lk}} with L the lcm of
the profile entries of the variables it binds, and counts the last
variable in F_{q^{d_c k}}, which need not lie in that field.  One
``CountPlan`` per level, made by ``partial_count_check``, holds the
order and the degrees, the count field's among them.

One depth-first engine, ``_search``, serves both counting and point
listing.  It binds the variables in a given order, each to the values of
its subfield F_{q^e} of the ambient field, named by its degree e; an
equation is checked as soon as its last variable is bound, an equation
linear in the variable being bound is solved for it instead of scanned,
and one that is a nonzero constant in it prunes the branch.  Each
equation's terms carry their values at the bound prefix, so binding a
variable costs one product per term; their exponents e >= 1 in a variable
are folded to (e - 1) mod (|F| - 1) + 1, F its field (F_Q, where its
roots are counted, for the unbound one), on which x^e takes the same
values.  The last bound level is fused with the leaf: each value that
passes it builds the coefficient lists of the equations left for the leaf
directly from those term values and its own powers, with no further level
of the search.  The equations have coefficients in F_q, so Frobenius
sigma: x -> x^q permutes the solutions and maps the subtree under a
prefix onto the subtree under its image.  In ``enumerate_orbit_points``
the first variable bound takes one value per orbit of sigma on the whole
field.  In ``partial_count`` every bound level takes one value per orbit
of its prefix's stabiliser: a prefix whose orbit under sigma has length
w, its weight (1 at the root), is fixed by sigma^w, which acts on the
level's F_{q^e} as x -> x^(q^g), g = gcd(w, e), and (prefix, x) then has
weight w m, m the length of x's orbit under that map (Burnside's
counting of orbits of a cyclic group).  The orbits come from the ambient
field's walk, ``Field.frobenius_orbits(e, g)``: an orbit is walked only
when the search reaches its least member, so a refused search has walked
only the orbits it reached, and a later search over the same subfield and
step replays a walk that ran to its end.  The budget counts every node of
the search over all the values: a node counts its weight, so a refusal
does not depend on the reduction, and its cost is always ``budget + 1``.

- ``partial_count`` leaves out the variables no equation uses (they
  multiply the count by their domain size) and counts one used variable
  of largest domain instead of binding it: substituting the prefix
  leaves univariate polynomials, whose common roots in F_Q,
  Q = q^{d_c k} with d_c its profile entry, ``count_roots`` of
  ``fields`` counts as deg gcd(f_1, ..., f_r, x^Q - x) (the roots of
  x^Q - x are the elements of F_Q, each simple; Lidl-Niederreiter,
  *Finite Fields*, ch. 3): a linear polynomial's root by Horner on the
  others, then Frobenius descent of the gcd to coefficients in F_Q, a
  closed form for a quadratic, and x^Q mod g only for a larger gcd.
  That degree is the same over any field holding the coefficients
  (Rabin, "Probabilistic algorithms in finite fields", 1980), so the
  search runs over the count field, the smallest field holding the bound
  values, and F_Q need not lie in it: x1 + x2 at profile (2, 3) and
  k = 4 searches F_{2^8}, not F_{2^24}, and counts x2 in F_{2^12}.  The
  order, ``_count_plan``'s, depends on the equations and the profile,
  not on k.  It counts the variable whose leaf costs least, x^Q mod a
  gcd of its effective degree after building polynomials of its largest
  degree; the cheapest leaf is linear, and its last bound level is summed
  (below) where it can be.  It binds the constraining variables first, so
  that equations close early and a linear one is solved with one
  candidate instead of a scan of q^{d k} (the fail-first principle;
  Haralick and Elliott, "Increasing tree search efficiency for
  constraint satisfaction problems", 1980), and otherwise the larger
  domains first, for the orbits to reduce.  Each root count is weighted
  by its prefix's weight.
  Where every leaf equation is linear in the counted variable y,
  f_j = A_j(x) y + B_j(x) with x the last bound variable, over F_{q^e},
  and F_Q holds the count field, the last bound level is summed without
  a scan.  A value x contributes Q when every A_j and B_j vanishes at it,
  else 1 when some A_j does not and the minors A_i B_j - A_j B_i all do
  (the root -B/A lies in the count field, so in F_Q), else 0.  So, with
  C the equations closing at that level and r(S) the common roots in
  F_{q^e} of S, the level sums to r(C u M) - r(C u A) + Q r(C u A u B),
  M the minors (none for one equation, and then r(C u M) = r(C)): at
  most three ``count_roots`` calls in place of one leaf per value, and
  no node charge.  A level of too high a degree in x, by
  ``_collapses``, is scanned.
- ``enumerate_points`` binds every variable in index order, each to
  every value of the subfield its degree names, the last one by scan or
  linear solve like the others: the plain listing, in lex order.  The
  direct graph count and the singular-point search, which pins
  coordinates by linear equations, build on it: no orbit reduction.
- ``enumerate_orbit_points`` binds the variables the same way, each over
  the whole ambient field, x_1 to one value per orbit.  It lists the
  solutions whose first coordinate is its orbit's least member, in lex
  order, each with that orbit's length L; the others are their images
  under sigma^i, 0 < i < L.  Only x_1 is reduced: ``faltings`` weights
  each chain by its first coordinate's degree, which a listing reduced
  deeper would not match.  The cyclic-cover lemma of ``faltings`` walks
  Frobenius chains from it and compares their orbit-length sum with the
  partial count's root counts.
  Both sides take their representatives from orbit walks, the partial
  count one per bound level over its variable's subfield of the count
  field, with its prefix's step, unless it sums that level by
  root counts, and they count by different routes.

Listed points are combined by ``join``: blocks of candidates tied by
equal images, placed one at a time, each block's candidates looked up in
an index keyed by its images towards the blocks already placed.  The
direct count of ``graphs`` is such a join.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .fields import Field, _trim, count_roots, field

if TYPE_CHECKING:  # polys imports the budget from here
    from .polys import VarietySpec

DEFAULT_BUDGET = 10 ** 8


def _too_long(q: int, e: int) -> bool:
    """Whether q^e may pass Python's int-to-str limit, its default where
    there is none."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    return e * math.log10(q) >= digits - 1


def _shown(n: int):
    """``n``, or when too long to print its bit length b, as at least
    2^(b - 1)."""
    if _too_long(2, n.bit_length()):
        return f"at least 2^{n.bit_length() - 1}"
    return n


class BudgetExceededError(RuntimeError):
    """``cost`` is an int, or a pair (q, e) standing for q^e when that
    number has too many digits to build or print; a cost or budget too long
    to print is shown by its bit length b, as at least 2^(b - 1)."""

    def __init__(self, cost, budget, context):
        shown = (f"{cost[0]}^{cost[1]}" if isinstance(cost, tuple)
                 else _shown(cost))
        super().__init__(f"enumeration cost {shown} exceeds budget "
                         f"{_shown(budget)} ({context})")
        self.cost = cost
        self.budget = budget


def check_cost(q: int, e: int, budget: int, context: str) -> None:
    """Refuse q^e tuples over ``budget`` before they are enumerated; the
    refusal's ``cost`` is q^e or, when too long to print, the pair (q, e)."""
    # q^e >= 2^((bits(q) - 1) e): a power past the budget's bit length is
    # refused from its exponent, before it is built
    if (q.bit_length() - 1) * e >= budget.bit_length() or q ** e > budget:
        cost = (q, e) if _too_long(q, e) else q ** e
        raise BudgetExceededError(cost, budget, context)


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


def _minor(a1, b1, a2, b2, F: Field, top: int):
    """a1 b2 - a2 b1 for coefficient lists of degree <= top, as a function
    on F_(top + 1): x^(top + i) folded onto x^i, 0 < i <= top."""
    add, sub, mul = F.add, F.sub, F.mul
    out = [0] * (min(top, max(len(a1) + len(b2), len(a2) + len(b1)) - 2) + 1)
    for a, b, op in ((a1, b2, add), (a2, b1, sub)):
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                h = i + j if i + j <= top else i + j - top
                out[h] = op(out[h], mul(x, y))
    return _trim(out)


def _collapses(deg: int, size: int) -> bool:
    """Whether a last bound level over a domain of ``size`` elements is
    summed by root counts of polynomials of degree ``deg`` in its
    variable, rather than scanned.  A count of degree > 2 reduces x^Q mod
    a gcd, about deg^2 log2(size) products, where a scan makes a leaf per
    value (per orbit at the first level).  Timed on single linear leaves
    (2-core x86-64 VM, Python 3.11), a sum at deg^2 = size took at most
    about 1.2 times the first level's orbit scan and less than a deeper
    level's full scan; deg <= 3 also pays on the benchmark's varieties,
    whose small fields fold few exponents."""
    return deg <= 3 or deg * deg <= size


@lru_cache(maxsize=256)
def _skeleton(equations, order):
    """``_search``'s setup that depends on the equations and the order
    alone, worked out once per (equations, order): None when an equation
    is a nonzero constant, else per equation its coefficients, in the
    order of its sorted terms, and per position u the row of those terms'
    exponents in ``order[u]`` with the row's largest entry; then per
    position the equations that close there (their last variable) and
    those that use it and close later."""
    depth = len(order)
    coeffs, rows = [], []
    close = [[] for _ in range(depth + 1)]
    touch = [[] for _ in range(depth)]
    for eq in equations:
        if not eq.terms:
            continue
        terms = sorted(eq.terms.items())
        by_pos = [tuple(ex[v] for ex, _ in terms) for v in order]
        used = [u for u in range(depth) if any(by_pos[u])]
        if not used:
            return None
        close[used[-1]].append(len(coeffs))
        for u in used[:-1]:
            touch[u].append(len(coeffs))
        coeffs.append(tuple(c for _, c in terms))
        rows.append(tuple((row, max(row)) for row in by_pos))
    return (tuple(coeffs), tuple(rows), tuple(map(tuple, close)),
            tuple(map(tuple, touch)))


def _search(equations, ambient: Field, base: Field, order, degrees, leaf,
            budget: int, orbits: int = 0, leaf_degree=None):
    """Depth-first search binding variable ``order[u]`` to the values of
    F_{q^e} inside ``ambient``, e = ``degrees[u]``, for u < len(degrees).
    Each subfield is listed before the equations are read, so a degree
    not dividing N is refused (``FieldError``) whatever they are.

    ``order`` lists every variable the equations use, and may hold one
    more than ``degrees`` covers: the unbound variable, whose values lie
    in F_Q, Q = q^``leaf_degree`` (by default ``ambient``'s size), which
    need not lie in ``ambient``.  The equations' ``_skeleton`` is worked
    out once per (equations, order); a call folds each exponent row whose
    largest entry passes its variable's field to that field and embeds
    the coefficients.  An equation is checked once all its variables are
    bound; one that is a nonzero constant in the variable being bound
    prunes the branch without a scan.  At each full prefix,
    ``leaf(point, polys, w)`` is called with ``point`` the bound values in
    search order, ``polys`` the equations that use the unbound variable,
    as coefficient lists in it (none when every variable is bound), and
    ``w`` the prefix's weight below; the sum of its return values is
    returned.  ``polys`` are built at the last bound level, from a plan of
    each term's exponents there and in the unbound variable, and ``leaf``
    is called from that level's loop.

    With an unbound variable, ``leaf`` returns w times the common roots of
    ``polys`` in F_Q, as ``partial_count``'s does.  Where every equation
    left for it is linear in that variable and F_Q holds ``ambient``
    (|ambient| - 1 divides Q - 1), a prefix of weight w that the last
    bound level, over F_{q^e}, does not solve is summed as
    w (r(C u M) - r(C u A) + Q r(C u A u B)), the module's identity,
    unless ``_collapses`` refuses its degree.  The sum reads no orbit
    walk: it is the plain sum over F_{q^e}.

    The first ``orbits`` levels bind one value per orbit of the prefix's
    stabiliser.  The prefix's weight w, 1 at the root, is the length of
    its orbit under sigma: x -> x^q, which sigma^w fixes; on F_{q^e},
    sigma^w generates the same group as x -> x^(q^g), g = gcd(w, e), so
    the level reads ``ambient.frobenius_orbits(e, g)`` as it reaches each
    pair (x, m), and (prefix, x) has weight w m, the lcm of w and x's
    degree over F_q.  A solved level keeps the weight: its one value is
    fixed by the stabiliser.  So does a level past ``orbits`` and a
    summed one.  The equations have coefficients in F_q, so the
    stabiliser maps the subtree under (prefix, x) onto the subtree under
    each value of x's orbit, and every subfield onto itself.  Every node
    visited, full prefixes included, counts its weight against
    ``budget``: the count is the node count of the search over every
    value.  A summed level binds no value, so it charges no node.  The
    refusal's cost is ``budget + 1``, the node at which that search
    stops.
    """
    domains = [ambient.subfield(e) for e in degrees]
    skeleton = _skeleton(tuple(equations), tuple(order))
    if skeleton is None:
        return 0  # a nonzero constant equation
    coeffs, rows, close, touch = skeleton
    add, mul, neg, inv, pw = (ambient.add, ambient.mul, ambient.neg,
                              ambient.inv, ambient.pow)
    emb = ambient.embed_base(base)
    depth = len(order)
    stop = len(degrees)
    # per equation: term values (the coefficients, to begin with) and the
    # exponent, folded to its variable's field, of each term in the
    # variable at each position
    tops = ([len(d) - 1 for d in domains]
            + [ambient.q ** (leaf_degree or ambient.N) - 1] * (depth - stop))
    start = [[emb(c) for c in cs] for cs in coeffs]
    exps = [[row if hi <= top else tuple(e and (e - 1) % top + 1 for e in row)
             for (row, hi), top in zip(by_pos, tops)] for by_pos in rows]
    powers = [sorted({e for j in close[u] + touch[u] for e in exps[j][u] if e})
              for u in range(stop)]
    members = [d if isinstance(d, range) else set(d) for d in domains]
    point = [None] * stop
    nodes = 1  # the root
    if budget < 1:
        raise BudgetExceededError(budget + 1, budget, "variety enumeration")
    if not stop:
        return leaf(point, [_collect(start[j], exps[j][0], ambient)
                            for j in close[0]], 1)
    # the last bound level builds the leaf's polynomials itself: per
    # equation closing at the leaf, its length and each term's exponents
    # at that level and in the unbound variable
    fuse = stop - 1
    plan = [(j, max(exps[j][stop]) + 1,
             list(zip(exps[j][fuse], exps[j][stop]))) for j in close[stop]]
    # the last bound level summed by the module's identity: the leaf
    # counts roots in an F_Q holding ambient, and is linear in the unbound
    # variable
    collapse = None
    if (stop < depth and tops[stop] % (ambient.size() - 1) == 0
            and all(f <= 1 for _, _, terms in plan for _, f in terms)):
        Q, size = tops[stop] + 1, tops[fuse] + 1
        width = {j: max(exps[j][fuse]) + 1 for j in close[stop]}

        def r(polys):
            """Common roots in F_size, with no call for none or a nonzero
            constant."""
            polys = [f for f in polys if f]
            if not polys:
                return size
            if any(len(f) == 1 for f in polys):
                return 0
            return count_roots(polys, ambient, degrees[fuse])

        def collapse(vals):
            """The level's sum at the prefix whose term values are
            ``vals``, or None for a degree ``_collapses`` refuses."""
            C = [_collect(vals[j], exps[j][fuse], ambient)
                 for j in close[fuse]]
            A, B = [], []
            for j, _, terms in plan:
                a, b = [0] * width[j], [0] * width[j]
                for v, (e, f) in zip(vals[j], terms):
                    c = a if f else b
                    c[e] = add(c[e], v)
                A.append(_trim(a))
                B.append(_trim(b))
            if not _collapses(max(map(len, C + A + B)) - 1, size):
                return None
            M = [_minor(A[i], B[i], A[j], B[j], ambient, size - 1)
                 for j in range(len(A)) for i in range(j)]
            total = r(C + M)
            if total:
                inside = r(C + A)
                total -= inside
                if inside:
                    total += Q * r(C + A + B)
            return total

    def descend(u, vals, w):
        nonlocal nodes
        closing = close[u]
        candidates = None
        for j in closing:
            c = _collect(vals[j], exps[j][u], ambient)
            if len(c) == 1:  # a nonzero constant: no value closes it
                candidates = ()
                break
            if len(c) == 2:
                x = mul(neg(c[0]), inv(c[1]))
                candidates = (x,) if x in members[u] else ()
                break
        if candidates is None and u == fuse and collapse is not None:
            level = collapse(vals)
            if level is not None:
                return w * level
        if candidates is not None:
            # a solved level keeps the weight: the one root is fixed by the
            # prefix's stabiliser (at u = 0, a root in F_q)
            candidates = zip(candidates, repeat(1))
        elif u < orbits:
            e = degrees[u]
            candidates = ambient.frobenius_orbits(e, math.gcd(w, e))
        else:
            candidates = zip(domains[u], repeat(1))
        total = 0
        for x, m in candidates:
            xp = {e: pw(x, e) for e in powers[u]}
            for j in closing:
                acc = 0
                for v, e in zip(vals[j], exps[j][u]):
                    acc = add(acc, mul(v, xp[e]) if e else v)
                if acc:
                    break
            else:
                wx = w * m
                nodes += wx
                if nodes > budget:
                    raise BudgetExceededError(budget + 1, budget,
                                              "variety enumeration")
                point[u] = x
                if u < fuse:
                    nxt = list(vals)
                    for j in touch[u]:
                        nxt[j] = [mul(v, xp[e]) if e else v
                                  for v, e in zip(vals[j], exps[j][u])]
                    total += descend(u + 1, nxt, wx)
                else:
                    polys = []
                    for j, size, terms in plan:
                        c = [0] * size
                        for v, (e, f) in zip(vals[j], terms):
                            c[f] = add(c[f], mul(v, xp[e]) if e else v)
                        polys.append(_trim(c))
                    total += leaf(point, polys, wx)
        return total

    try:
        return descend(0, start, 1)
    finally:
        del descend  # a self-referencing closure: free its state now, not at gc


def enumerate_orbit_points(equations, n: int, ambient: Field, base: Field,
                           budget: int = DEFAULT_BUDGET):
    """The solutions in ``ambient`` whose first coordinate is the least
    member of its Frobenius orbit, as lex-sorted (point, L) pairs of an
    int tuple and the length L of that orbit.

    sigma: x -> x^q permutes the solutions, the equations having
    coefficients in F_q, and maps the fibre over x_1 onto the fibre over
    sigma(x_1); so the solutions are the sigma^i(point), 0 <= i < L, of
    the pairs, each once.  x_1's orbits come from
    ``ambient.frobenius_orbits``, so a listing over the same field after
    a finished one replays its walk.  The search binds x_1, ..., x_n in
    turn, each at degree N, over the whole field, and raises
    ``BudgetExceededError`` once it has visited more than ``budget``
    nodes, counted as by the search over every value of x_1.
    """
    out = []

    def leaf(point, polys, length):
        out.append((tuple(point), length))
        return 1

    _search(equations, ambient, base, range(n), [ambient.N] * n, leaf,
            budget, 1)
    return out


def enumerate_points(equations, ambient: Field, base: Field, degrees,
                     budget: int = DEFAULT_BUDGET):
    """All solutions, as lex-sorted int tuples, with x_i in the subfield
    F_{q^e} of ``ambient``, e = ``degrees[i]``: one degree per variable of
    the equations (else ``ValueError``), each a divisor of ``ambient``'s
    N (else ``FieldError``, whatever the equations).

    The search binds x_1, ..., x_n, n = len(degrees), in turn, each to
    every value of its subfield, and raises ``BudgetExceededError`` once
    it has visited more than ``budget`` nodes.
    """
    if any(eq.n != len(degrees) for eq in equations):
        raise ValueError("enumerate_points takes one degree per variable")
    out = []

    def leaf(point, polys, length):
        out.append(tuple(point))
        return 1

    _search(equations, ambient, base, range(len(degrees)), degrees, leaf,
            budget)
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

def _effective_degree(rows, p: int) -> int:
    """The largest, over ``rows`` (a variable's exponents in each
    equation, positive ones and zeros), of the row's largest exponent over
    the largest power of p dividing all its positive ones.  An equation
    whose exponents in x are multiples of p^j is a p^j-th power in x, the
    gcd of such powers is one too, and ``count_roots`` takes its p-th
    roots before any x^Q, so that x^Q is taken mod a gcd of at most this
    degree."""
    deg = 0
    for row in rows:
        g, unit = math.gcd(*row), 1
        while g % p == 0:
            g, unit = g // p, unit * p
        deg = max(deg, max(row) // unit)
    return deg


@lru_cache(maxsize=256)
def _count_plan(X: VarietySpec):
    """The part of ``partial_count_check``'s plan that does not depend on
    k, worked out once per variety: None when an equation is a nonzero
    constant, else the order of the variables the equations use, the
    counted one last (empty when none is used), and the counted
    variable's positive exponents in the equations' terms, sorted, which
    the leaf check reads.

    The counted variable has a largest domain, and is chosen by its leaf,
    in this order of preference: one whose leaf costs least, e^2 + D,
    with e its ``_effective_degree`` (x^p - c takes ``count_roots``'
    p-th-root route, and x^Q is taken mod a gcd of degree at most e) and
    D its largest exponent, the length of the leaf's polynomials, which
    every leaf builds and reduces by p-th roots (the least, 2, is a leaf
    linear in every equation, summed where F_Q holds the count field, as
    it does for every candidate or none); then the choice whose places
    close best, back to front; then the one of least degree in the
    equations that use it, so that a linear leaf takes ``count_roots``'
    linear route; then the one of highest index.

    For each choice the others are placed back to front, each place
    taking, in this order of preference, a variable at which an equation
    without the counted one closes linearly (the search solves it: one
    candidate), one at which such an equation closes at all (it prunes),
    and the smallest domain, ties going to the highest index, so that the
    first variables, bound to one value per orbit, have the largest
    domains left.
    """
    d, p = X.profile, X.p
    # per equation that uses a variable: those variables, its degree in
    # each, its exponent vectors
    equations = []
    for eq in X.equations:
        if eq.terms:
            deg = [max(col) for col in zip(*eq.terms)]
            vs = {i for i, e in enumerate(deg) if e}
            if not vs:
                return None
            equations.append((vs, deg, tuple(eq.terms)))
    used = set().union(*(vs for vs, _, _ in equations))
    if not used:
        return (), ()
    top = max(d[i] for i in used)
    best = None
    for last in sorted(i for i in used if d[i] == top):
        rest = used - {last}
        leaf = [eq for eq in equations if last in eq[0]]
        effective = _effective_degree(
            [[ex[last] for ex in terms] for _, _, terms in leaf], p)
        # x^Q mod a gcd of degree `effective`, after building the leaf's
        # polynomials of degree `largest`
        largest = max(deg[last] for _, deg, _ in leaf)
        bound = [(vs, deg) for vs, deg, _ in equations if last not in vs]
        order, places = [last], []
        while rest:
            ranks = []
            for v in rest:
                # the degrees in v of the equations that close at v
                closing = [deg[v] for vs, deg in bound
                           if v in vs and vs <= rest]
                ranks.append((1 in closing, bool(closing), -d[v], v))
            rank = max(ranks)
            places += rank[:2]
            order.append(rank[-1])
            rest = rest - {rank[-1]}
        key = (-effective * effective - largest, places,
               -min(deg[last] for _, deg, _ in leaf))
        if best is None or key >= best[0]:
            best = key, tuple(order[::-1])
    order = best[1]
    return order, tuple(sorted({ex[order[-1]] for eq in X.equations
                                for ex in eq.terms} - {0}))


class CountPlan(NamedTuple):
    """``partial_count``'s plan at level k: the used variables in search
    ``order``, the counted one last; the bound ones' ``degrees`` d_i k;
    the counted one's ``leaf_degree`` d_c k (0 when none is used); the
    ``field_degree`` L k of the count field, L the lcm of the bound
    entries (1 when none is bound), which holds every bound value and the
    coefficients but need not hold F_Q; and the ``free`` factor q^(k d_i)
    of each unused variable, 0 when an equation is a nonzero constant."""
    order: tuple
    degrees: tuple
    leaf_degree: int
    field_degree: int
    free: int


def partial_count_check(X: VarietySpec, k: int, budget: int) -> CountPlan:
    """partial_count's refusals at level k, before any field is built,
    then its plan: k < 1 (``ValueError``); the q^e tuples, e = k sum d_i,
    over the budget (``partial_count k=...``), before Q is built; then
    x^Q mod a leaf's gcd, deg^2 times Q's bit length products, over the
    budget (``count_roots k=...``), deg > 2 the counted variable's
    ``_effective_degree`` in its exponents reduced mod Q - 1 as the engine
    reduces them, the degree ``_count_plan`` ranks by, worked out only
    when the largest reduced exponent, which bounds it, is refused."""
    if k < 1:
        raise ValueError("k must be positive")
    q, d = X.p ** X.s, X.profile
    check_cost(q, k * sum(d), budget, f"partial_count k={k}")
    plan = _count_plan(X)
    if plan is None:
        return CountPlan((), (), 0, 1, 0)
    order, exps = plan
    bound, leaf_degree = order[:-1], 0
    if order:
        c = order[-1]
        leaf_degree = d[c] * k
        Q = q ** leaf_degree
        bits = Q.bit_length()
        deg = max((e - 1) % (Q - 1) + 1 for e in exps)
        if deg > 2 and deg * deg * bits > budget:
            deg = _effective_degree(
                [[(ex[c] - 1) % (Q - 1) + 1 if ex[c] else 0
                  for ex in eq.terms]
                 for eq in X.equations if any(ex[c] for ex in eq.terms)],
                X.p)
            cost = deg * deg * bits
            if deg > 2 and cost > budget:
                raise BudgetExceededError(cost, budget, f"count_roots k={k}")
    return CountPlan(order, tuple(d[i] * k for i in bound), leaf_degree,
                     math.lcm(*(d[i] for i in bound)) * k if bound else 1,
                     q ** (k * (sum(d) - sum(d[i] for i in order))))


def partial_count(X: VarietySpec, k: int,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Exact #X_{d_1,...,d_n}(k), refused only by ``partial_count_check``,
    before any field is built.  The search then visits at most
    1 + q^(a_1) + ... + q^A <= q^(A + d_c k) - 1 nodes, A = k times the
    sum of the bound variables' d_i and d_c the counted one's, so its
    node meter never refuses a budget that check lets through.

    The used variables are searched in the plan's order over its count
    field, which holds the bound variables' subfields: the last is counted
    by ``count_roots`` in F_Q, Q = q^{d_c k}, which need not lie in that
    field; each bound level takes one value per orbit of its prefix's
    stabiliser, and the last one builds the leaf's polynomials itself.
    When F_Q holds the count field and every leaf equation is linear in
    the counted variable, A_j x_c + B_j, that level is summed instead, as
    r(C u M) - r(C u A) + Q r(C u A u B) over the level's subfield (the
    module's identity), if ``_collapses`` allows its degree.
    """
    plan = partial_count_check(X, k, budget)
    if not plan.order:  # no variable used, or a nonzero constant (free 0)
        return plan.free
    amb, e_last = field(X.p, X.s, plan.field_degree), plan.leaf_degree

    # sigma: x -> x^q fixes the coefficients, so each bound level needs
    # one value per orbit of its prefix's stabiliser, the root count
    # weighted by the prefix's orbit length; the field keeps a finished
    # walk for the next count
    def roots(point, polys, weight):
        return weight * count_roots(polys, amb, e_last)

    return plan.free * _search(X.equations, amb, X.base, plan.order,
                               plan.degrees, roots, budget,
                               len(plan.degrees), e_last)
