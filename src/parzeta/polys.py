"""Sparse multivariate polynomials over F_q, and varieties.

Coefficients always live in the base field F_q = F_{p^s}; when s > 1 the
expression grammar exposes a distinguished generator named ``g``.  Terms are
kept in a map from exponent vector to nonzero coefficient, a packed int of
the base field, and canonical printing uses graded lex order so output is
stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import math

from .counting import DEFAULT_BUDGET, charge
from .fields import Field, FieldError, field


class PolyParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def base_field(p: int, s: int) -> Field:
    """The coefficient field F_q = F_{p^s} as a standalone tower level."""
    return field(p, s, 1)


class SparsePoly:
    __slots__ = ("n", "base", "terms")

    def __init__(self, n: int, base: Field, terms=None):
        self.n = n
        self.base = base
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent vector length mismatch")
                if c:
                    self.terms[tuple(exps)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n, base, value: int):
        """The constant polynomial of a packed int of ``base``."""
        f = cls(n, base)
        if value:
            f.terms[(0,) * n] = value
        return f

    @classmethod
    def const_int(cls, n, base, value: int):
        """The constant polynomial of an integer, reduced mod p."""
        return cls.const(n, base, value % base.p * base._one)

    @classmethod
    def var(cls, n, base, i):
        f = cls(n, base)
        e = [0] * n
        e[i] = 1
        f.terms[tuple(e)] = base._one
        return f

    def _of(self, terms, n=None):
        """A polynomial of this ring, or of ``n`` variables, with ``terms``."""
        f = SparsePoly(self.n if n is None else n, self.base)
        f.terms = terms
        return f

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n or self.base is not other.base:
            raise ValueError("polynomial arithmetic across different rings")

    def _sum(self, pairs):
        """The sum of the terms (exponents, coefficient) in ``pairs``,
        a term that cancels deleted."""
        add = self.base.add
        out = {}
        for e, c in pairs:
            if e in out:
                v = add(out[e], c)
                if not v:
                    del out[e]
                else:
                    out[e] = v
            else:
                out[e] = c
        return self._of(out)

    def __add__(self, other):
        self._check(other)
        return self._sum(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        neg = self.base.neg
        return self._of({e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mul = self.base.mul
        return self._sum((tuple(a + b for a, b in zip(e1, e2)), mul(c1, c2))
                         for e1, c1 in self.terms.items()
                         for e2, c2 in other.terms.items())

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.base is other.base and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_form(self):
        """The top-degree homogeneous part and its degree."""
        r = self.total_degree()
        return self._of({e: c for e, c in self.terms.items() if sum(e) == r}), r

    def partial_derivative(self, i: int):
        base = self.base
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                v = base.mul(c, e[i] % base.p * base._one)
                if v:
                    out[tuple(ne)] = v
        return self._of(out)

    def rename(self, mapping: dict, new_n: int):
        """Move variable i to mapping[i] in an n=new_n ring."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("variable map is not injective")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * new_n
            for i, exp in enumerate(e):
                if exp:
                    if i not in mapping:
                        raise ValueError(f"variable {i} missing from map")
                    ne[mapping[i]] = exp
            out[tuple(ne)] = c
        return self._of(out, new_n)

    # -- evaluation --------------------------------------------------------

    def check_base(self, p: int, s: int) -> None:
        """Refuse (``FieldError``, a ``ValueError``) coefficients that are
        not packed ints of F_{p^s} = ``field(p, s, 1)``."""
        b = self.base
        if (b.p, b.s, b.N) != (p, s, 1):
            raise FieldError("base field must be F_q = F_{p^s} for this tower")

    def evaluate(self, point, ambient: Field) -> int:
        """Exact value, a packed int, at a point of packed ints of ``ambient``."""
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        self.check_base(ambient.p, ambient.s)
        emb = ambient.embed_base()
        add, mul, pw = ambient.add, ambient.mul, ambient.pow
        acc = 0
        for e, c in self.terms.items():
            v = emb(c)
            for x, exp in zip(point, e):
                if exp:
                    v = mul(v, pw(x, exp))
            acc = add(acc, v)
        return acc

    # -- printing ----------------------------------------------------------

    def _coeff_str(self, c: int) -> str:
        if self.base.m == 1:
            return str(c)
        parts = []
        for i, v in enumerate(self.base.to_coeffs(c)):
            if not v:
                continue
            if i == 0:
                parts.append(str(v))
            else:
                head = "g" if i == 1 else f"g^{i}"
                parts.append(head if v == 1 else f"{v}*{head}")
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(" + " + ".join(parts) + ")"

    def to_string(self) -> str:
        varnames = [f"x{i+1}" for i in range(self.n)]
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        pieces = []
        for e in keys:
            c = self.terms[e]
            factors = []
            cs = self._coeff_str(c)
            monos = []
            for i, exp in enumerate(e):
                if exp == 1:
                    monos.append(varnames[i])
                elif exp > 1:
                    monos.append(f"{varnames[i]}^{exp}")
            if not monos:
                factors.append(cs)
            else:
                if cs != "1":
                    factors.append(cs)
                factors.extend(monos)
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"SparsePoly({self.to_string()})"


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text, varnames, base: Field, budget: int):
        self.text = text
        self.pos = 0
        self.varnames = list(varnames)
        self.base = base
        self.n = len(self.varnames)
        self.has_gen = base.m > 1
        self.budget = budget
        self.pairs = 0

    def product(self, a, b):
        """a * b, its term pairs |a| |b| added to the parse's running total,
        which is charged: refused past the budget, else metered."""
        self.pairs += len(a.terms) * len(b.terms)
        charge(self.pairs, self.budget, "parse_poly")
        return a * b

    def power(self, b, e: int):
        """b^e by square and multiply; b is squared only while a bit of e
        is left."""
        result = SparsePoly.const_int(self.n, self.base, 1)
        while e:
            if e & 1:
                result = self.product(result, b)
            e >>= 1
            if e:
                b = self.product(b, b)
        return result

    def error(self, msg):
        raise PolyParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> SparsePoly:
        f = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return f

    def parse_expr(self):
        if self.peek() == "+":
            self.pos += 1
        acc = self.parse_term()
        while (ch := self.peek()) in ("+", "-"):
            self.pos += 1
            term = self.parse_term()
            acc = acc + term if ch == "+" else acc - term
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            acc = self.product(acc, self.parse_factor())
        return acc

    def parse_factor(self):
        """A unary minus negates the power that follows it: -x^2 = -(x^2)."""
        if self.peek() == "-":
            self.pos += 1
            return -self.parse_factor()
        atom = self.parse_atom()
        if self.peek() != "^":
            return atom
        self.pos += 1
        self.skip_ws()
        e = self.integer()
        if e is None:
            if self.text.startswith("-", self.pos):
                self.error("negative exponent")
            self.error("expected integer exponent")
        return self.power(atom, e)

    def integer(self):
        """The decimal integer (ASCII digits) at the position, else None."""
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            return None
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than Python's int-string limit
            self.pos = start
            self.error("integer literal too long")

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            f = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return f
        if "0" <= ch <= "9":
            return SparsePoly.const_int(self.n, self.base, self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "g" and self.has_gen:
                return SparsePoly.const(self.n, self.base, self.base._gen)
            if name in self.varnames:
                return SparsePoly.var(self.n, self.base, self.varnames.index(name))
            self.pos = start
            self.error(f"unknown variable {name!r}")
        if not ch:
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, varnames, base: Field,
               budget: int = DEFAULT_BUDGET) -> SparsePoly:
    """The polynomial ``text`` in ``varnames`` over ``base``; products of
    more than ``budget`` term pairs in all raise ``BudgetExceededError``,
    and the pairs are charged to ``counting``'s work meter."""
    parser = _Parser(text, varnames, base, budget)
    try:
        return parser.parse()
    except RecursionError:
        raise PolyParseError("expression nested too deeply", parser.pos)


# ---------------------------------------------------------------------------
# variety specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietySpec:
    p: int
    s: int
    n: int
    equations: tuple
    profile: tuple

    def __post_init__(self):
        if len(self.profile) != self.n:
            raise ValueError("profile length must equal the number of variables")
        if any(d < 1 for d in self.profile):
            raise ValueError("profile entries must be positive")
        for eq in self.equations:
            if eq.n != self.n:
                raise ValueError("equation variable count mismatch")
            eq.check_base(self.p, self.s)
        # hashed once: the counting caches key on the variety, and a
        # SparsePoly hashes its terms afresh on every call
        object.__setattr__(self, "_hash", hash(
            (self.p, self.s, self.n, self.equations, self.profile)))

    def __hash__(self):
        return self._hash

    @property
    def D(self) -> int:
        return math.lcm(*self.profile)

    def with_profile(self, profile):
        return VarietySpec(self.p, self.s, self.n, self.equations, tuple(profile))
