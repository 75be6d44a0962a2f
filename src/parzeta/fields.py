"""Exact arithmetic in finite field towers F_p[t]/(g).

A single ambient field F_{p^{s*N}} hosts every subfield needed by a
computation; membership in a subfield is decided by Frobenius fixedness,
so no embedding tables are ever required.  The modulus is always the
lexicographically smallest monic irreducible of the right degree, which
makes every field object reproducible without seeds.

An element of F_p[t]/(g), deg g = m, is a packed int in [0, p^m) whose
base-p digits are its coordinates in the power basis 1, t, ..., t^(m-1),
with the constant term as the *most* significant digit.  That choice makes
int order equal to the lex order of coordinate tuples read from the
constant term up, the order every sorted subfield list and every report
has always used, so sorting ints reproduces them unchanged.

The library works on these ints only: subfields, points, polynomial
coefficients and values are packed ints, and the field's int operations
(``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``pow``, ``frob``) do all
arithmetic.  ``FieldElement`` is only a handle on one packed int, for
timing the per-element operations: ``Field.element(coeffs)`` makes one,
and its ``+``, ``*`` and ``inverse()`` and ``Field.frobenius`` call
``add``, ``mul``, ``inv`` and ``frob``.  It has no other operation, and
nothing in the library takes one.

The int operations are bound when a field is built; a caller that may
refuse the work checks its cost first:

- p^m <= TABLE_CAP (2^20): exp/log tables over the lex-smallest primitive
  element alpha, held in ``array('I')`` (4 bytes an entry).  mul, inv and
  pow add or scale logs mod p^m - 1 and x^(q^e) is exp[log x * q^e].
  Addition is XOR for p = 2; for odd p it goes through the Zech table
  log(1 + alpha^k) (Lidl-Niederreiter, *Finite Fields*, ch. 9).  The
  exp table is built by doubling, exp[h:2h] = alpha^h exp[:h], each pass
  one F_p-linear map over the whole block in numpy: a byte-table lookup
  per byte for p = 2, a digit-matrix product for odd p.  The Zech table
  is one numpy pass over exp and log.
- larger fields: schoolbook products reduced by g (shift/XOR carry-less
  multiplication for p = 2, digit convolution for odd p), and x^(q^e)
  applies the F_p-linear matrix of Frobenius^(e mod N), one built per
  residue.  For p = 2 the
  inverse is extended Euclid over F_2[t] on the bit-reversed int, whose
  bit i holds t^i (Hankerson, Menezes and Vanstone, *Guide to Elliptic
  Curve Cryptography*, Alg. 2.48); for odd p it is a^(p^m - 2).

``subfield(e)`` lists F_{q^e} as the F_p-span of the relative traces
of the power basis, each taken with ``frob``, and the whole field,
e = N, as ``elements()``.  The ``filter`` oracle decides x^(q^e) = x by
``pow`` and never uses the Frobenius matrix, so the two subfield methods
stay independent below N.

``Field.frobenius_orbits(e)``, the library's one orbit walker, walks the
orbits of sigma: x -> x^q on F_{q^e}, one ``frob`` per element, and
yields the least member of each with the orbit's length.  The walk is
lazy, a value met in an earlier orbit skipped and an orbit walked when
its least member is reached, so a search refused part-way has walked
only the orbits it reached; only a finished walk is cached per e, for
later calls to replay.  It walks only whole subfields, which sigma maps
onto themselves, so the walk checks no stability.

Univariate polynomials over a field are coefficient lists of its packed
ints, constant term first.  One toolkit does their arithmetic: remainder,
monic gcd, x^Q mod g and ``count_roots``, the number of common roots in
F_{q^e} as deg gcd(f_1, ..., f_r, x^(q^e) - x).  ``count_roots`` gets
that degree by algebra first: a linear polynomial's root r counts when
r^Q = r and the others vanish at it; otherwise the gcd g of them all
descends to gcd(g, g^sigma), g^sigma its coefficients raised to the Q-th
power, until its coefficients lie in F_Q; a g with g' = 0, a p-th power,
is replaced by its p-th root; a quadratic is then counted by a closed
form (the discriminant's quadratic character for odd p, the absolute
trace of c/b^2 for p = 2), and only a g of degree >= 3 reduces x^Q mod
g.  The gcd's remainders are left unnormalised, each divided by one
inverse of its divisor's leading coefficient, and only the last is made
monic.  The counting engine counts its last variable with it, and
``is_irreducible`` runs Rabin's test with it over F_p = field(p, 1, 1),
whose packed ints are the digits.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product
from operator import pos, xor

import numpy as np

# the largest p^m whose arithmetic runs on exp/log tables
TABLE_CAP = 1 << 20

# elements per numpy pass of the exp/log build
_CHUNK = 1 << 16


class FieldError(ValueError):
    pass


def _prime_factors(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# univariate polynomials over a field: coefficient lists of packed ints,
# constant term first, with no trailing zeros
# ---------------------------------------------------------------------------

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, F: Field):
    if a[-1] == F._one:
        return a
    mul, c = F.mul, F.inv(a[-1])
    return [mul(x, c) for x in a]


def _rem(a, g, F: Field):
    """a mod g for nonzero g: one inverse, of g's leading coefficient."""
    sub, mul = F.sub, F.mul
    a = list(a)
    dg = len(g) - 1
    scale = None if g[-1] == F._one else F.inv(g[-1])
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        if c:
            if scale:
                c = mul(c, scale)
            for j in range(dg):
                a[i - dg + j] = sub(a[i - dg + j], mul(c, g[j]))
    return _trim(a[:dg])


def _gcd(a, b, F: Field):
    """The monic gcd of two nonzero polynomials; only the last nonzero
    remainder is made monic."""
    while b:
        if len(b) == 1:
            return [F._one]
        a, b = b, _rem(a, b, F)
    return _monic(a, F)


def _x_power(Q: int, g, F: Field):
    """x^Q mod monic g (deg g = n >= 2) by left-to-right repeated squaring.

    The remainder is kept as n coefficients, trailing zeros included; a
    square's upper half is folded back with the rows x^(n+j) mod g.
    """
    add, mul = F.add, F.mul
    n = len(g) - 1
    rows = [[F.neg(c) for c in g[:-1]]]
    for _ in range(n - 2):
        prev = rows[-1]
        top = prev[-1]
        rows.append([mul(top, rows[0][0])]
                    + [add(a, mul(top, b)) for a, b in zip(prev, rows[0][1:])])
    r = [0, F._one] + [0] * (n - 2)
    for bit in bin(Q)[3:]:
        sq = [0] * (2 * n - 1)
        if F.p == 2:
            # in characteristic 2 only the squares of the terms survive
            sq[::2] = [mul(c, c) for c in r]
        else:
            for i, a in enumerate(r):
                if a:
                    for j, b in enumerate(r):
                        sq[i + j] = add(sq[i + j], mul(a, b))
        r = sq[:n]
        for c, row in zip(sq[n:], rows):
            if c:
                r = [add(a, mul(c, b)) for a, b in zip(r, row)]
        if bit == "1":
            top = r[-1]
            r = [0] + r[:-1]
            if top:
                r = [add(a, mul(top, b)) for a, b in zip(r, rows[0])]
    return r


def count_roots(polys, F: Field, e: int) -> int:
    """Common roots in F_{q^e} of univariate polynomials over F.

    ``polys`` are coefficient lists of packed ints of F, constant term
    first, trailing zeros trimmed.  The answer is q^e when every
    polynomial is zero and 0 when one is a nonzero constant; otherwise it
    is the degree of G = gcd(f_1, ..., f_r, x^Q - x), Q = q^e, found by
    algebra where it can be, in this order:

    - a linear gcd of the shortest polynomials, before the others enter
      it: its root r counts when r^Q = r and every other polynomial is
      zero at r, by Horner;
    - Frobenius descent: with g the monic gcd of all of them and
      g^sigma its coefficients raised to the Q-th power, a root of g in
      F_Q is a root of g^sigma, so g becomes gcd(g, g^sigma) until
      g^sigma = g, which puts its coefficients in F_Q;
    - p-th roots: a g of degree >= 3 with g' = 0 is h^p, h's coefficients
      the p-th roots of g's, which lie in F_Q too, and h has g's roots, so
      g becomes h while g' = 0;
    - a quadratic x^2 + bx + c with b, c in F_Q by a closed form: for odd
      p, 1 root if the discriminant D = b^2 - 4c is 0, else 2 if
      D^((Q-1)/2) = 1, else 0; for p = 2, 1 root if b = 0, else 2 if the
      absolute trace of c/b^2 is 0 (x = by gives y^2 + y = c/b^2), else 0;
    - a larger g is reduced with x^Q mod g.

    These identities hold in the algebraic closure, so F_Q need not lie
    in F; the descent then stops at coefficients in F_Q inside F, its
    subfield F_{q^gcd(e, N)}.  ``is_irreducible`` counts over F_p with
    e > 1, and ``partial_count`` over the smallest field holding its bound
    values, with e past N when the counted variable's subfield is larger
    than theirs.  No element of F_{q^e} is listed.
    """
    polys = [f for f in polys if f]
    if not polys:
        return F.q ** e
    polys.sort(key=len)
    add, mul, frob = F.add, F.mul, F.frob
    g, i = polys[0], 1
    while len(g) > 2 and i < len(polys):
        g = _gcd(g, polys[i], F)
        i += 1
    if len(g) == 1:
        return 0
    if len(g) == 2:
        r = mul(F.neg(g[0]), F.inv(g[1]))
        if frob(r, e) != r:
            return 0
        for f in polys[i:]:
            acc = 0
            for c in reversed(f):
                acc = add(mul(acc, r), c)
            if acc:
                return 0
        return 1
    g = _monic(g, F)
    while True:
        h = [frob(c, e) for c in g]
        if h == g:
            break
        g = _gcd(g, h, F)
        if len(g) == 1:
            return 0
    p = F.p
    while len(g) > 3 and not any(g[i] for i in range(1, len(g)) if i % p):
        g = [F.pow(c, p ** (F.m - 1)) for c in g[::p]]
    if len(g) == 2:
        return 1
    if len(g) == 3:
        c, b = g[0], g[1]
        if p == 2:
            if not b:
                return 1
            a = t = mul(c, F.inv(mul(b, b)))
            for _ in range(F.s * e - 1):
                a = mul(a, a)
                t = add(t, a)
            return 0 if t else 2
        disc = F.sub(mul(b, b), mul(4 % p * F._one, c))
        if not disc:
            return 1
        return 2 if F.pow(disc, (F.q ** e - 1) // 2) == F._one else 0
    h = _x_power(F.q ** e, g, F)
    h[1] = F.sub(h[1], F._one)
    _trim(h)
    return len(_gcd(g, h, F)) - 1


def is_irreducible(coeffs, p: int) -> bool:
    """Monic polynomial irreducibility over F_p, by Rabin's test.

    The coefficients are packed ints of F_p = field(p, 1, 1), the digits
    themselves.  A monic f of degree m >= 2 is irreducible iff it has m
    roots in F_{p^m}, so that it is squarefree with factors of degrees
    dividing m, and none in F_p or in F_{p^(m/r)} for a prime r | m,
    which rules out every such degree below m.
    """
    f = _trim(list(coeffs))
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    Fp = field(p, 1, 1)
    below = sorted({1} | {m // r for r in _prime_factors(m)})
    return (not any(count_roots([f], Fp, e) for e in below)
            and count_roots([f], Fp, m) == m)


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, m: int):
    """Lex-smallest monic irreducible of degree m over F_p.

    Candidates are ordered by their coefficient sequence compared from the
    constant term up; past m = 1 that term is nonzero, else t divides.
    """
    if m == 1:
        return (0, 1)
    for head in product(range(1, p), *[range(p)] * (m - 1)):
        cand = head + (1,)
        if is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# field and element objects
# ---------------------------------------------------------------------------

class FieldElement:
    """A handle on the packed int ``value`` of a Field (see the module doc)."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def __add__(self, other):
        f = self.field
        return FieldElement(f, f.add(self.value, other.value))

    def __mul__(self, other):
        f = self.field
        return FieldElement(f, f.mul(self.value, other.value))

    def inverse(self):
        f = self.field
        return FieldElement(f, f.inv(self.value))


class Field:
    """F_{q^N} with q = p^s, realized as F_p[t]/(g), g the canonical modulus.

    The int operations are instance attributes bound at construction,
    tables and all.
    """

    def __init__(self, p: int, s: int, N: int):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if s < 1 or N < 1:
            raise FieldError("s and N must be positive")
        self.p = p
        self.s = s
        self.N = N
        self.m = s * N  # degree over F_p
        self.q = p ** s
        self.modulus = smallest_irreducible(p, self.m)
        self._one = p ** (self.m - 1)  # the constant term's place value
        # the class of t; it reduces to a constant mod a linear modulus
        self._gen = (-self.modulus[0]) % p if self.m == 1 else p ** (self.m - 2)
        self._subfield_cache = {}
        self._orbit_cache = {}
        self._embed = None  # embed_base's map, built on first use
        ops = self._schoolbook()
        if self.p ** self.m <= TABLE_CAP:
            ops.update(self._tables(ops))
        self.__dict__.update(ops)

    # -- packed ints <-> coordinate tuples ---------------------------------

    def to_int(self, coeffs) -> int:
        """Pack coordinates (constant term first, each in [0, p))."""
        p = self.p
        v = 0
        for c in coeffs:
            v = v * p + c
        return v

    def to_coeffs(self, v: int):
        """The coordinate tuple of a packed int, constant term first."""
        p, m = self.p, self.m
        out = [0] * m
        for i in range(m - 1, -1, -1):
            v, out[i] = divmod(v, p)
        return tuple(out)

    # -- int arithmetic -----------------------------------------------------

    def _schoolbook(self):
        """Table-free int operations: products reduced by the modulus."""
        p, m, one = self.p, self.m, self._one
        to_int, to_coeffs = self.to_int, self.to_coeffs
        if m == 1:
            def mul(a, b):
                return a * b % p
        elif p == 2:
            # bit m-1-i holds t^i, so a carry-less product holds t^j at bit
            # 2m-2-j; clearing bits 0..m-2 (degrees 2m-2 down to m) from the
            # bottom with the bit-reversed modulus leaves the result on top
            g = self.to_int(self.modulus)
            shift = m - 1

            def mul(a, b):
                r = 0
                while b:
                    if b & 1:
                        r ^= a
                    a <<= 1
                    b >>= 1
                for i in range(shift):
                    if r >> i & 1:
                        r ^= g << i
                return r >> shift
        else:
            # red[j] = t^(m+j) mod g, constant term first
            red = []
            cur = [(-c) % p for c in self.modulus[:-1]]
            for _ in range(m - 1):
                red.append(cur)
                lead = cur[-1]
                cur = [0] + cur[:-1]
                if lead:
                    cur = [(c - lead * gi) % p for c, gi in zip(cur, self.modulus)]

            def mul(a, b):
                x, y = to_coeffs(a), to_coeffs(b)
                conv = [0] * (2 * m - 1)
                for i, xi in enumerate(x):
                    if xi:
                        for j, yj in enumerate(y):
                            if yj:
                                conv[i + j] += xi * yj
                res = conv[:m]
                for c, row in zip(conv[m:], red):
                    if c % p:
                        for i, r in enumerate(row):
                            res[i] += c * r
                return to_int([c % p for c in res])

        if p == 2:
            add = sub = xor
            neg = pos
        else:
            def add(a, b):
                return to_int([(x + y) % p
                               for x, y in zip(to_coeffs(a), to_coeffs(b))])

            def sub(a, b):
                return to_int([(x - y) % p
                               for x, y in zip(to_coeffs(a), to_coeffs(b))])

            def neg(a):
                return to_int([-x % p for x in to_coeffs(a)])

        def power(a, e):
            if e < 0:
                a, e = inv(a), -e
            result = one
            while e:
                if e & 1:
                    result = mul(result, a)
                a = mul(a, a)
                e >>= 1
            return result

        size = p ** m
        mod = sum(c << i for i, c in enumerate(self.modulus))  # p = 2: bit i, t^i

        def inv(a):
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            if p != 2:
                return power(a, size - 2)
            # u = s*a and v = r*a mod g; each step lowers deg u or deg v
            u, v = int(format(a, f"0{m}b")[::-1], 2), mod
            s, r = 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, s, r, j = v, u, r, s, -j
                u ^= v << j
                s ^= r << j
            return int(format(s, f"0{m}b")[::-1], 2)

        maps, N = {}, self.N

        def frob(a, e):
            # x^(q^N) = x: one matrix per e mod N, however large e is
            e %= N
            apply = maps.get(e)
            if apply is None:
                apply = maps[e] = self._linear_map(self._frobenius_cols(e))
            return apply(a)

        return {"add": add, "sub": sub, "neg": neg, "mul": mul, "inv": inv,
                "pow": power, "frob": frob}

    def _tables(self, school):
        """exp/log (and for odd p Zech) table operations, built from ``school``."""
        p, m, q, one = self.p, self.m, self.q, self._one
        size = p ** m
        n = size - 1
        factors = _prime_factors(n)
        spow = school["pow"]
        alpha = next(v for v in range(1, size)
                     if all(spow(v, n // r) != one for r in factors))
        exp, log = self._exp_log(alpha, school["mul"])

        def mul(a, b):
            return exp[(log[a] + log[b]) % n] if a and b else 0

        def inv(a):
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            return exp[-log[a] % n]

        def power(a, e):
            if a:
                return exp[log[a] * e % n]
            if e > 0:
                return 0
            if e == 0:
                return one
            raise ZeroDivisionError("inversion of zero field element")

        qpow = {}

        def frob(a, e):
            if not a:
                return 0
            k = qpow.get(e)
            if k is None:
                k = qpow[e] = pow(q, e, n)
            return exp[log[a] * k % n]

        ops = {"mul": mul, "inv": inv, "pow": power, "frob": frob}
        if p == 2:
            return ops
        # zech[k] = log(1 + alpha^k), or n where 1 + alpha^k = 0; adding 1
        # steps the constant term, the most significant digit, mod p
        zech = array("I", [0]) * n
        y = (np.frombuffer(exp, dtype=np.uint32) + one) % size
        np.frombuffer(zech, dtype=np.uint32)[:] = np.where(
            y, np.frombuffer(log, dtype=np.uint32)[y], n)
        half = n // 2  # -1 = alpha^(n/2)

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[(log[b] - la) % n]
            return exp[(la + z) % n] if z != n else 0

        def neg(a):
            return exp[(log[a] + half) % n] if a else 0

        def sub(a, b):
            return add(a, neg(b))

        ops.update(add=add, sub=sub, neg=neg)
        return ops

    def _exp_log(self, alpha: int, mul):
        """exp[i] = alpha^i for i < p^m - 1 and its inverse log, as arrays.

        Built by doubling, exp[h:2h] = alpha^h * exp[:h]: x -> alpha^h * x
        is F_p-linear, so each pass is one ``_block_map``, applied to a
        chunk of the block at a time to keep the temporaries small.
        """
        p, m, one = self.p, self.m, self._one
        n = p ** m - 1
        exp = array("I", [0]) * n
        log = array("I", [0]) * (n + 1)
        powers = np.frombuffer(exp, dtype=np.uint32)
        powers[0] = one
        c, h = alpha, 1
        while h < n:
            times_c = self._block_map([mul(p ** (m - 1 - i), c)
                                       for i in range(m)])
            width = min(h, n - h)
            for lo in range(0, width, _CHUNK):
                hi = min(lo + _CHUNK, width)
                powers[h + lo:h + hi] = times_c(powers[lo:hi])
            c, h = mul(c, c), 2 * h
        logs = np.frombuffer(log, dtype=np.uint32)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            logs[powers[lo:hi]] = np.arange(lo, hi, dtype=np.uint32)
        return exp, log

    def _block_map(self, cols):
        """The F_p-linear map sending t^i to cols[i], on a numpy array of
        packed ints below TABLE_CAP: one byte-table lookup per byte of x
        for p = 2, and x's digits times the matrix of cols for odd p."""
        p, m = self.p, self.m
        if p == 2:
            tables = [np.array(t, dtype=np.uint32)
                      for t in self._byte_tables(cols)]

            def apply(x):
                acc = tables[0][x & 255]
                for j, t in enumerate(tables[1:], 1):
                    acc ^= t[x >> 8 * j & 255]
                return acc
            return apply
        place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
        matrix = np.array([self.to_coeffs(c) for c in cols], dtype=np.int64)

        def apply(x):
            return x[:, None] // place % p @ matrix % p @ place
        return apply

    def _linear_map(self, cols):
        """x -> sum_i x_i cols[i]: the F_p-linear map sending t^i to cols[i]."""
        p, m = self.p, self.m
        if p == 2:
            tables = self._byte_tables(cols)

            def apply(x):
                acc = 0
                for t in tables:
                    acc ^= t[x & 255]
                    x >>= 8
                return acc
            return apply
        to_int, to_coeffs = self.to_int, self.to_coeffs
        digit_cols = [to_coeffs(c) for c in cols]

        def apply(x):
            acc = [0] * m
            for c, col in zip(to_coeffs(x), digit_cols):
                if c:
                    for i, v in enumerate(col):
                        acc[i] += c * v
            return to_int([v % p for v in acc])
        return apply

    def _byte_tables(self, cols):
        """For p = 2, the F_2-linear map sending t^i to cols[i] as one
        256-entry table per byte of x: bit b of x holds t^(m-1-b), and
        table j maps byte j of x to its part of the image."""
        by_bit = cols[::-1]
        tables = []
        for lo in range(0, self.m, 8):
            t = [0]
            for c in by_bit[lo:lo + 8]:
                t += [v ^ c for v in t]
            tables.append(t)
        return tables

    def _frobenius_cols(self, e: int):
        """Images of the power basis t^i under x -> x^(q^e), as packed ints."""
        p, m, qe = self.p, self.m, self.q ** e
        return [self.pow(p ** (m - 1 - i), qe) for i in range(m)]

    # -- element constructors ---------------------------------------------

    def element(self, coeffs):
        """The handle on the element with these coordinates, constant term
        first, each reduced mod p."""
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coordinates, got {len(coeffs)}")
        return FieldElement(self, self.to_int(coeffs))

    def elements(self):
        """All p^m elements as packed ints, in lex order on coefficient tuples."""
        return range(self.p ** self.m)

    def size(self) -> int:
        return self.p ** self.m

    # -- Frobenius and subfields ------------------------------------------

    def frobenius(self, x: FieldElement, e: int) -> FieldElement:
        """x^(q^e): a table lookup, or the Frobenius matrix above TABLE_CAP."""
        if e < 0:
            raise FieldError("Frobenius exponent must be nonnegative")
        return FieldElement(self, self.frob(x.value, e))

    def in_subfield(self, x: int, e: int) -> bool:
        """x^(q^e) = x for a packed int x, decided by powering."""
        if e < 1 or self.N % e != 0:
            raise FieldError(f"F_q^{e} is not a subfield of F_q^{self.N}")
        return self.pow(x, self.q ** e) == x

    def subfield(self, e: int, method: str = "span"):
        """All q^e elements of F_{q^e} inside this field as a sorted tuple
        of packed ints, cached per (e, method); for e = N, by either
        method, the whole field as ``elements()``.

        ``span`` lists the F_p-span of the relative traces of the power
        basis; ``filter`` scans the whole ambient field for x^(q^e) = x by
        powering, the slow oracle the tests check ``span`` against.  Both
        agree as sets.
        """
        if e < 1 or self.N % e != 0:
            raise FieldError(f"e = {e} is not a positive divisor of N = {self.N}")
        if e == self.N:
            return self.elements()
        key = (e, method)
        if key in self._subfield_cache:
            return self._subfield_cache[key]
        if method == "filter":
            pw, qe = self.pow, self.q ** e
            vals = [v for v in range(self.p ** self.m) if pw(v, qe) == v]
        elif method == "span":
            vals = self._subfield_span(e)
        else:
            raise FieldError(f"unknown subfield method {method!r}")
        if len(vals) != self.q ** e:
            raise FieldError("subfield enumeration produced the wrong cardinality")
        out = self._subfield_cache[key] = tuple(vals)
        return out

    def frobenius_orbits(self, e: int):
        """(x, L) for the least member x of each orbit of sigma: x -> x^q
        on F_{q^e}, in increasing x, L the orbit's length.

        A finished walk is cached per e and replayed.  Otherwise the orbits
        are walked lazily, one ``frob`` per element, as the reader reaches
        them, and the pairs are cached only when the walk ends: a walk left
        part-way leaves nothing behind.
        """
        done = self._orbit_cache.get(e)
        if done is not None:
            yield from done
            return
        frob, later, walked = self.frob, set(), []
        for x in self.subfield(e):
            if x in later:
                later.discard(x)
                continue
            y, n = frob(x, 1), 1
            while y != x:
                later.add(y)
                y, n = frob(y, 1), n + 1
            walked.append((x, n))
            yield x, n
        self._orbit_cache[e] = walked

    def _subfield_span(self, e: int):
        """F_{q^e} as the F_p-span of the relative traces
        Tr(t^i) = sum_j (t^i)^(q^(e j)), j < N/e, of the power basis: Tr
        is F_p-linear onto F_{q^e} (Lidl-Niederreiter, *Finite Fields*,
        ch. 2 section 3).  A trace already in the span is skipped; each new
        one multiplies the span by p, until it holds q^e elements."""
        p, m, add, frob = self.p, self.m, self.add, self.frob
        size, terms = self.q ** e, self.N // e
        out = [0]
        for i in range(m):
            if len(out) == size:
                break
            x = tr = p ** (m - 1 - i)  # t^i
            for _ in range(terms - 1):
                x = frob(x, e)
                tr = add(tr, x)
            if tr in out:
                continue
            multiples = [tr]
            for _ in range(p - 2):
                multiples.append(add(multiples[-1], tr))
            out += [add(y, c) for c in multiples for y in out]
        return sorted(out)

    # -- canonical embedding of the base field F_q -------------------------

    def embed_base(self, base: "Field"):
        """Map packed ints of the base field F_q to packed ints of this field.

        The base generator goes to the lex-smallest root of the base modulus
        among the F_q elements of this field; any root works since the
        subfields are Frobenius-stable, so we pick deterministically.
        """
        if base.p != self.p or base.s != self.s or base.N != 1:
            raise FieldError("base field must be F_q = F_{p^s} for this tower")
        if self._embed is not None:
            return self._embed
        one = self._one
        if base.m == 1:
            def emb(c):
                return c * one
        else:
            add, mul = self.add, self.mul
            root = None
            for cand in self.subfield(1):
                val = 0
                for c in reversed(base.modulus):
                    val = add(mul(val, cand), c * one)
                if not val:
                    root = cand
                    break
            if root is None:
                raise FieldError("no root of base modulus found in ambient field")
            powers = [one]
            for _ in range(base.m - 1):
                powers.append(mul(powers[-1], root))
            table = {}

            def emb(c):
                v = table.get(c)
                if v is None:
                    acc = 0
                    for d, pw in zip(base.to_coeffs(c), powers):
                        if d:
                            acc = add(acc, mul(d * one, pw))
                    v = table[c] = acc
                return v
        self._embed = emb
        return emb

    def __repr__(self):
        return f"Field(p={self.p}, s={self.s}, N={self.N})"


@lru_cache(maxsize=None)
def field(p: int, s: int, N: int) -> Field:
    """Shared, cached field objects; repeated calls are identical."""
    return Field(p, s, N)
