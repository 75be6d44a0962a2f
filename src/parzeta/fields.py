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
``FieldElement`` is a thin wrapper over the int, ``x.coeffs`` the derived
tuple; hot loops call the field's int operations (``add``, ``sub``,
``neg``, ``mul``, ``inv``, ``pow``, ``frob``) directly.

The int operations are bound on a field's first arithmetic, never at
construction:

- p^m <= TABLE_CAP (2^20): exp/log tables over the lex-smallest primitive
  element alpha, held in ``array('I')`` (4 bytes an entry).  mul, inv and
  pow add or scale logs mod p^m - 1 and x^(q^e) is exp[log x * q^e].
  Addition is XOR for p = 2; for odd p it goes through the Zech table
  log(1 + alpha^k) (Lidl-Niederreiter, *Finite Fields*, ch. 9).
- larger fields: schoolbook products reduced by g (shift/XOR carry-less
  multiplication for p = 2, digit convolution for odd p), and x^(q^e)
  applies the F_p-linear matrix of Frobenius^e, the one
  ``subfield(e, "span")`` takes the fixed space of.

The ``filter`` subfield oracle decides x^(q^e) = x by ``pow`` and never
uses that matrix, so the two subfield methods stay independent.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product
from math import isqrt
from operator import pos, xor

import numpy as np

# the largest p^m whose arithmetic runs on exp/log tables
TABLE_CAP = 1 << 20

# the int operations Field binds on first use
_ARITH = ("add", "sub", "neg", "mul", "inv", "pow", "frob")


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(da - db + 1, 0)
    while len(a) - 1 >= db and any(a):
        _trim(a)
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        c = (a[-1] * inv_lead) % p
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
    return _trim(q), _trim(a)


def _poly_mod(a, b, p):
    return _poly_divmod(a, b, p)[1]


def _poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _poly_powmod(base, e, modulus, p):
    result = [1]
    base = _poly_mod(list(base), modulus, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), modulus, p)
        base = _poly_mod(_poly_mul(base, base, p), modulus, p)
        e >>= 1
    return result


def is_irreducible(coeffs, p: int) -> bool:
    """Monic polynomial irreducibility over F_p.

    A monic f of degree m >= 2 is irreducible iff it has no irreducible
    factor of degree <= m/2; gcd(x^(p^j) - x, f) collects exactly the
    factors of degree dividing j, so scanning j = 1..m/2 decides it and
    rejects composites as soon as a small factor shows up.
    """
    f = _trim(list(coeffs))
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    if f[0] == 0:  # divisible by t
        return False
    h = [0, 1]  # x
    for _j in range(1, m // 2 + 1):
        h = _poly_powmod(h, p, f, p)
        g = list(h)
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _trim(g)
        if not g:
            # x^(p^j) = x mod f: every factor has degree dividing j < m
            return False
        if len(_poly_gcd(g, f, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, m: int):
    """Lex-smallest monic irreducible of degree m over F_p.

    Candidates are ordered by their coefficient sequence compared from the
    constant term up, so (0,...,0) i.e. t^m comes first.
    """
    for c0 in range(p):
        if c0 == 0:
            # zero constant term means divisible by t; only t itself qualifies
            if m == 1:
                return (0, 1)
            continue
        for tail in product(range(p), repeat=m - 1):
            cand = (c0,) + tail + (1,)
            if is_irreducible(cand, p):
                return cand
    raise FieldError(f"no irreducible of degree {m} over F_{p}")  # unreachable




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


# ---------------------------------------------------------------------------
# field and element objects
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of a Field: the packed int ``value`` (see the module doc)."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    @property
    def coeffs(self):
        """Coordinates in the power basis of t, constant term first."""
        return self.field.to_coeffs(self.value)

    def __add__(self, other):
        f = self.field
        return FieldElement(f, f.add(self.value, other.value))

    def __sub__(self, other):
        f = self.field
        return FieldElement(f, f.sub(self.value, other.value))

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.neg(self.value))

    def __mul__(self, other):
        f = self.field
        return FieldElement(f, f.mul(self.value, other.value))

    def __pow__(self, e):
        f = self.field
        return FieldElement(f, f.pow(self.value, e))

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        f = self.field
        return FieldElement(f, f.inv(self.value))

    def is_zero(self):
        return not self.value

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.value == other.value
                and (self.field is other.field
                     or (self.field.p == other.field.p
                         and self.field.modulus == other.field.modulus)))

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


class Field:
    """F_{q^N} with q = p^s, realized as F_p[t]/(g), g the canonical modulus.

    The int operations named in ``_ARITH`` are instance attributes that the
    first access to any of them binds (``__getattr__``), tables and all.
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
        self._subfield_cache = {}
        self._embed_cache = {}
        self._frob_cols = {}

    def __getattr__(self, name):
        # reached only for attributes not set yet: the unbound int operations
        if name not in _ARITH:
            raise AttributeError(name)
        ops = self._schoolbook()
        if self.p ** self.m <= TABLE_CAP:
            ops.update(self._tables(ops))
        self.__dict__.update(ops)
        return ops[name]

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
        if p == 2:
            return tuple(map(int, format(v, f"0{m}b")))
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

        def inv(a):
            if not a:
                raise ZeroDivisionError("inversion of zero field element")
            return power(a, size - 2)

        maps = {}

        def frob(a, e):
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
        # steps the constant term, the most significant digit
        wrap = (p - 1) * one
        zech = array("I", [0]) * n
        for k, x in enumerate(exp):
            y = x + one if x < wrap else x - wrap
            zech[k] = log[y] if y else n
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
        """exp[i] = alpha^i for i < p^m - 1 and its inverse log, as arrays."""
        p, m, one = self.p, self.m, self._one
        size = p ** m
        n = size - 1
        exp = array("I", [0]) * n
        log = array("I", [0]) * size
        if p == 2:
            # x -> alpha * x costs one table lookup per byte of x
            step = self._linear_map([mul(1 << (m - 1 - i), alpha)
                                     for i in range(m)])
            x = one
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = step(x)
            return exp, log
        # odd p: a first block of powers by multiplication; past 1024
        # elements, block j is the first block times alpha^(j * block), one
        # matrix product over F_p, with the block size balancing the two
        block = n if n <= 1024 else isqrt(m * n) + 1
        x = one
        for i in range(block):
            exp[i] = x
            log[x] = i
            x = mul(x, alpha)
        if block == n:
            return exp, log
        powers = np.frombuffer(exp, dtype=np.uint32)
        place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
        digits = powers[:block, None] // place % p
        c = x
        for start in range(block, n, block):
            times_c = np.array([self.to_coeffs(mul(p ** (m - 1 - i), c))
                                for i in range(m)], dtype=np.int64)
            stop = min(start + block, n)
            powers[start:stop] = digits[:stop - start] @ times_c % p @ place
            c = mul(c, x)
        np.frombuffer(log, dtype=np.uint32)[powers] = np.arange(n, dtype=np.uint32)
        return exp, log

    def _linear_map(self, cols):
        """x -> sum_i x_i cols[i]: the F_p-linear map sending t^i to cols[i]."""
        p, m = self.p, self.m
        if p == 2:
            # bit b of x holds t^(m-1-b); one lookup table per byte of x
            by_bit = cols[::-1]
            tables = []
            for lo in range(0, m, 8):
                t = [0]
                for c in by_bit[lo:lo + 8]:
                    t += [v ^ c for v in t]
                tables.append(t)

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

    def _frobenius_cols(self, e: int):
        """Images of the power basis t^i under x -> x^(q^e), as packed ints."""
        cols = self._frob_cols.get(e)
        if cols is None:
            p, m, qe = self.p, self.m, self.q ** e
            cols = [self.pow(p ** (m - 1 - i), qe) for i in range(m)]
            self._frob_cols[e] = cols
        return cols

    # -- element constructors ---------------------------------------------

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, self._one)

    def from_int(self, c: int):
        return FieldElement(self, c % self.p * self._one)

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coordinates, got {len(coeffs)}")
        return FieldElement(self, self.to_int(coeffs))

    def gen(self):
        """The class of t."""
        if self.m == 1:
            # t reduces to a constant mod the linear modulus
            return FieldElement(self, (-self.modulus[0]) % self.p)
        return FieldElement(self, self.p ** (self.m - 2))

    def elements(self):
        """All p^m elements in lex order on coefficient tuples."""
        for v in range(self.p ** self.m):
            yield FieldElement(self, v)

    def size(self) -> int:
        return self.p ** self.m

    # -- Frobenius and subfields ------------------------------------------

    def frobenius(self, x: FieldElement, e: int) -> FieldElement:
        """x^(q^e): a table lookup, or the Frobenius matrix above TABLE_CAP."""
        if e < 0:
            raise FieldError("Frobenius exponent must be nonnegative")
        return FieldElement(self, self.frob(x.value, e))

    def in_subfield(self, x: FieldElement, e: int) -> bool:
        """x^(q^e) = x, decided by powering."""
        if self.N % e != 0:
            raise FieldError(f"F_q^{e} is not a subfield of F_q^{self.N}")
        return self.pow(x.value, self.q ** e) == x.value

    def subfield(self, e: int, method: str = "filter"):
        """All q^e elements of F_{q^e} inside this field, lex-sorted.

        ``filter`` scans the whole ambient field for x^(q^e) = x by
        powering; ``span`` solves for the fixed space of Frobenius^e by
        linear algebra over F_p.  Both agree as sets; span is the fast path
        used by the counting engines.
        """
        if self.N % e != 0:
            raise FieldError(f"e = {e} does not divide N = {self.N}")
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
        out = [FieldElement(self, v) for v in vals]
        self._subfield_cache[key] = out
        return out

    def _subfield_span(self, e: int):
        p, m = self.p, self.m
        # column j: Frobenius^e of the basis vector t^j
        cols = [self.to_coeffs(c) for c in self._frobenius_cols(e)]
        # kernel of (M - I) over F_p
        rows = [[(cols[j][i] - (1 if i == j else 0)) % p for j in range(m)]
                for i in range(m)]
        pivots = []
        r = 0
        for c in range(m):
            pivot = next((i for i in range(r, m) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [(v * inv) % p for v in rows[r]]
            for i in range(m):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        free = [c for c in range(m) if c not in pivots]
        basis_vecs = []
        for fc in free:
            v = [0] * m
            v[fc] = 1
            for ri, pc in enumerate(pivots):
                v[pc] = (-rows[ri][fc]) % p
            basis_vecs.append(v)
        add = self.add
        out = [0]
        for v in basis_vecs:
            multiples = [self.to_int(v)]
            for _ in range(p - 2):
                multiples.append(add(multiples[-1], multiples[0]))
            out += [add(x, c) for c in multiples for x in out]
        return sorted(out)

    # -- canonical embedding of the base field F_q -------------------------

    def embed_base(self, base: "Field"):
        """Map coefficient tuples of the base field F_q into this field.

        The base generator goes to the lex-smallest root of the base modulus
        among the F_q elements of this field; any root works since the
        subfields are Frobenius-stable, so we pick deterministically.
        """
        if base.p != self.p or base.s != self.s or base.N != 1:
            raise FieldError("base field must be F_q = F_{p^s} for this tower")
        key = (base.p, base.s)
        if key in self._embed_cache:
            return self._embed_cache[key]
        one = self._one
        table = {}
        if base.m == 1:
            def emb(coeffs):
                v = table.get(coeffs)
                if v is None:
                    v = table[coeffs] = self.from_int(coeffs[0])
                return v
        else:
            add, mul = self.add, self.mul
            root = None
            for cand in self.subfield(1, method="span"):
                val, xp = 0, one
                for c in base.modulus:
                    if c:
                        val = add(val, mul(c * one, xp))
                    xp = mul(xp, cand.value)
                if not val:
                    root = cand.value
                    break
            if root is None:
                raise FieldError("no root of base modulus found in ambient field")
            powers = [one]
            for _ in range(base.m - 1):
                powers.append(mul(powers[-1], root))

            def emb(coeffs):
                v = table.get(coeffs)
                if v is None:
                    acc = 0
                    for c, pw in zip(coeffs, powers):
                        if c:
                            acc = add(acc, mul(c * one, pw))
                    v = table[coeffs] = FieldElement(self, acc)
                return v
        self._embed_cache[key] = emb
        return emb

    def __repr__(self):
        return f"Field(p={self.p}, s={self.s}, N={self.N})"

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.s == other.s and self.N == other.N)

    def __hash__(self):
        return hash((self.p, self.s, self.N))


@lru_cache(maxsize=None)
def field(p: int, s: int, N: int) -> Field:
    """Shared, cached field objects; repeated calls are identical."""
    return Field(p, s, N)
