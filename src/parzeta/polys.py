"""Sparse multivariate polynomials over F_q, varieties and morphisms.

Coefficients always live in the base field F_q = F_{p^s}; when s > 1 the
expression grammar exposes a distinguished generator named ``g``.  Terms are
kept in a map from exponent vector to nonzero coefficient, and canonical
printing uses graded lex order so output is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import Field, FieldElement, field


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
                if not c.is_zero():
                    self.terms[tuple(exps)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, base):
        return cls(n, base)

    @classmethod
    def const(cls, n, base, value: FieldElement):
        f = cls(n, base)
        if not value.is_zero():
            f.terms[(0,) * n] = value
        return f

    @classmethod
    def const_int(cls, n, base, value: int):
        return cls.const(n, base, base.from_int(value))

    @classmethod
    def var(cls, n, base, i, exp=1):
        f = cls(n, base)
        e = [0] * n
        e[i] = exp
        f.terms[tuple(e)] = base.one()
        return f

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n or self.base is not other.base:
            raise ValueError("polynomial arithmetic across different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                v = out[exps] + c
                if v.is_zero():
                    del out[exps]
                else:
                    out[exps] = v
            else:
                out[exps] = c
        f = SparsePoly(self.n, self.base)
        f.terms = out
        return f

    def __neg__(self):
        f = SparsePoly(self.n, self.base)
        f.terms = {e: -c for e, c in self.terms.items()}
        return f

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    v = out[e] + c
                    if v.is_zero():
                        del out[e]
                    else:
                        out[e] = v
                elif not c.is_zero():
                    out[e] = c
        f = SparsePoly(self.n, self.base)
        f.terms = out
        return f

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.const_int(self.n, self.base, 1)
        b = self
        while e:
            if e & 1:
                result = result * b
            b = b * b
            e >>= 1
        return result

    def scale(self, c: FieldElement):
        f = SparsePoly(self.n, self.base)
        if not c.is_zero():
            f.terms = {e: v * c for e, v in self.terms.items()}
        return f

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset((e, c.value) for e, c in self.terms.items())))

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
        f = SparsePoly(self.n, self.base)
        f.terms = {e: c for e, c in self.terms.items() if sum(e) == r}
        return f, r

    def partial_derivative(self, i: int):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                v = c * self.base.from_int(e[i])
                if not v.is_zero():
                    out[tuple(ne)] = v
        f = SparsePoly(self.n, self.base)
        f.terms = out
        return f

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return used

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
                elif i in mapping:
                    pass
            out[tuple(ne)] = c
        f = SparsePoly(new_n, self.base)
        f.terms = out
        return f

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point, ambient: Field) -> FieldElement:
        """Exact value at a point with coordinates in ``ambient``."""
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        emb = ambient.embed_base(self.base)
        add, mul, pw = ambient.add, ambient.mul, ambient.pow
        acc = 0
        powcache = {}
        for e, c in self.terms.items():
            v = emb(c.coeffs).value
            for i, exp in enumerate(e):
                if exp:
                    key = (i, exp)
                    x = powcache.get(key)
                    if x is None:
                        x = powcache[key] = pw(point[i].value, exp)
                    v = mul(v, x)
            acc = add(acc, v)
        return FieldElement(ambient, acc)

    # -- printing ----------------------------------------------------------

    def _coeff_str(self, c: FieldElement) -> str:
        if self.base.m == 1:
            return str(c.coeffs[0])
        parts = []
        for i, v in enumerate(c.coeffs):
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

    def to_string(self, varnames=None) -> str:
        if varnames is None:
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
    def __init__(self, text, varnames, base: Field):
        self.text = text
        self.pos = 0
        self.varnames = list(varnames)
        self.base = base
        self.n = len(self.varnames)
        self.has_gen = base.m > 1

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
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            acc = -self.parse_term()
        else:
            if ch == "+":
                self.pos += 1
            acc = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.parse_term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                if self.pos < len(self.text) and self.text[self.pos] == "-":
                    self.error("negative exponent")
                self.error("expected integer exponent")
            return atom ** int(self.text[start:self.pos])
        return atom

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            f = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return f
        if ch == "-":
            self.pos += 1
            return -self.parse_atom()
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return SparsePoly.const_int(self.n, self.base, int(self.text[start:self.pos]))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "g" and self.has_gen:
                return SparsePoly.const(self.n, self.base, self.base.gen())
            if name in self.varnames:
                return SparsePoly.var(self.n, self.base, self.varnames.index(name))
            self.pos = start
            self.error(f"unknown variable {name!r}")
        if not ch:
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, varnames, base: Field) -> SparsePoly:
    return _Parser(text, varnames, base).parse()


# ---------------------------------------------------------------------------
# variety and morphism specifications
# ---------------------------------------------------------------------------

def lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


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

    @property
    def D(self) -> int:
        return lcm(self.profile)

    @property
    def base(self) -> Field:
        return base_field(self.p, self.s)

    def with_profile(self, profile):
        return VarietySpec(self.p, self.s, self.n, self.equations, tuple(profile))


@dataclass(frozen=True)
class MorphismSpec:
    n_in: int
    n_out: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.n_out:
            raise ValueError("component count must equal target dimension")
        for c in self.components:
            if c.n != self.n_in:
                raise ValueError("component variable count mismatch")

    def apply(self, point, ambient: Field):
        return tuple(c.evaluate(point, ambient) for c in self.components)
