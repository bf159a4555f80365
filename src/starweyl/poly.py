"""Sparse polynomials over a fixed generator tuple.

Monomials are exponent tuples (one slot per generator); coefficients live in
one of the scalar domains from scalars.py. Values are immutable after
construction and every operation returns a new canonical polynomial (zero
coefficients pruned). Monomial order for printing is total degree, then
lexicographic on exponent tuples, both descending.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernels
from .errors import IncompatibleError, TruncationError
from .parse import scalar_from_text
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GaussianRational,
    NumericScalar,
    _coeff_factor,
)


class Generators:
    """Ordered tuple of distinct generator names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("need at least one generator")
        for nm in names:
            if not nm or not isinstance(nm, str):
                raise ValueError(f"bad generator name {nm!r}")
            if not (nm[0].isalpha() or nm[0] == "_") or not all(
                c.isalnum() or c == "_" for c in nm
            ):
                raise ValueError(f"generator name {nm!r} is not an identifier")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {nm: k for k, nm in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("Generators is immutable")

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, k):
        return self.names[k]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Generators) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Generators({list(self.names)!r})"


def total_degree(exp) -> int:
    return sum(exp)


def _coerce_coeff(c, domain, trunc):
    if domain == "formal":
        if isinstance(c, FormalScalar):
            return c if c.trunc == trunc else c.truncate(trunc)
        if isinstance(c, (int, Fraction, GaussianRational)):
            return FormalScalar.constant(c, trunc)
        raise TypeError(f"bad formal coefficient {c!r}")
    if domain == "numeric":
        if isinstance(c, NumericScalar):
            return c
        if isinstance(c, (int, float, complex, Fraction)):
            return NumericScalar(complex(c))
        if isinstance(c, GaussianRational):
            return NumericScalar(c.to_complex())
        raise TypeError(f"bad numeric coefficient {c!r}")
    raise ValueError(f"unknown scalar domain {domain!r}")


def accumulate(out, items):
    """Add (key, coefficient) pairs into the term dict out, dropping every
    sum that vanishes; returns out."""
    for key, c in items:
        prev = out.get(key)
        s = c if prev is None else prev + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def merge_terms(x, y):
    """(terms, trunc) of the sum of two term containers of one domain.

    The sum keeps the smaller truncation, and no coefficient is kept above
    it: formal coefficients that came from the operand with the larger
    truncation are cut down to it.
    """
    trunc = min(x.trunc, y.trunc)
    out = accumulate(dict(x.terms), y.terms.items())
    if x.domain == "formal" and x.trunc != y.trunc:
        cut = {}
        for key, c in out.items():
            if c.trunc > trunc:
                c = c.truncate(trunc)
            if c:
                cut[key] = c
        out = cut
    return out, trunc


def monomial_sort_key(exp):
    return (total_degree(exp), exp)


class Polynomial:
    """Element of the symmetric algebra over n generators."""

    __slots__ = ("gens", "domain", "trunc", "terms")

    def __init__(self, gens, terms=None, domain="formal",
                 trunc=DEFAULT_TRUNCATION, _clean=False):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        n = len(gens)
        if terms is None:
            terms = {}
        if _clean:
            cl = terms
        else:
            cl = {}
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != n or any(
                    (not isinstance(e, int)) or e < 0 for e in exp
                ):
                    raise ValueError(f"bad exponent tuple {exp!r} for {n} generators")
                cc = _coerce_coeff(c, domain, trunc)
                if cc:
                    prev = cl.get(exp)
                    if prev is None:
                        cl[exp] = cc
                    else:
                        s = prev + cc
                        if s:
                            cl[exp] = s
                        else:
                            del cl[exp]
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", cl)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        return cls(gens, {}, domain, trunc, _clean=True)

    @classmethod
    def constant(cls, gens, c, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        return cls(gens, {(0,) * len(gens): c}, domain, trunc)

    @classmethod
    def one(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        return cls.constant(gens, 1, domain, trunc)

    @classmethod
    def generator(cls, gens, which, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        k = which if isinstance(which, int) else gens.index(which)
        exp = tuple(1 if j == k else 0 for j in range(len(gens)))
        return cls(gens, {exp: 1}, domain, trunc)

    @classmethod
    def linear(cls, gens, coeffs, domain="formal", trunc=DEFAULT_TRUNCATION):
        """sum_i coeffs[i] * x_i"""
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        n = len(gens)
        if len(coeffs) != n:
            raise ValueError("coefficient vector length mismatch")
        terms = {}
        for k, c in enumerate(coeffs):
            exp = tuple(1 if j == k else 0 for j in range(n))
            terms[exp] = c
        return cls(gens, terms, domain, trunc)

    def _zero_like(self):
        return Polynomial(self.gens, {}, self.domain, self.trunc, _clean=True)

    def _wrap(self, terms):
        return Polynomial(self.gens, terms, self.domain, self.trunc, _clean=True)

    def scalar_one(self):
        if self.domain == "formal":
            return FormalScalar.constant(1, self.trunc)
        return NumericScalar(1.0)

    def coerce_scalar(self, c):
        return _coerce_coeff(c, self.domain, self.trunc)

    # -- predicates ---------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_compatible(self, other):
        if self.gens != other.gens:
            raise IncompatibleError(
                f"generator mismatch: {self.gens.names} vs {other.gens.names}"
            )
        if self.domain != other.domain:
            raise IncompatibleError(
                f"scalar domain mismatch: {self.domain} vs {other.domain}"
            )

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out, trunc = merge_terms(self, other)
        return Polynomial(self.gens, out, self.domain, trunc, _clean=True)

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return Polynomial(
                self.gens,
                kernels.mul_terms(self.terms, other.terms),
                self.domain,
                min(self.trunc, other.trunc),
                _clean=True,
            )
        try:
            c = self.coerce_scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return self._zero_like()
        out = {}
        for e, v in self.terms.items():
            p = v * c
            if p:
                out[e] = p
        return self._wrap(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Polynomial.one(self.gens, self.domain, self.trunc)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.domain == other.domain
            and self.terms == other.terms
        )

    __hash__ = None

    # -- calculus ------------------------------------------------------------
    def partial_derivative(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self.gens.index(which)
        if not 0 <= i < len(self.gens):
            raise IndexError(f"generator index {i} out of range")
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                key = e[:i] + (k - 1,) + e[i + 1 :]
                v = c * k
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v:
                    out[key] = v
        return self._wrap(out)

    def translate(self, shifts) -> "Polynomial":
        """Substitute x_i -> x_i + shifts[i] (shifts are scalars)."""
        n = len(self.gens)
        if len(shifts) != n:
            raise ValueError("shift vector length mismatch")
        sh = [self.coerce_scalar(s) for s in shifts]
        one = self.scalar_one()
        out = self._zero_like()
        for e, c in self.terms.items():
            # expand prod_i (x_i + s_i)^(e_i) one variable at a time
            acc = {(0,) * n: c}
            for i in range(n):
                k = e[i]
                if k == 0:
                    continue
                if not sh[i]:
                    acc = {
                        key[:i] + (key[i] + k,) + key[i + 1 :]: v
                        for key, v in acc.items()
                    }
                    continue
                powers = [one]
                for _ in range(k):
                    powers.append(powers[-1] * sh[i])
                new = {}
                for key, v in acc.items():
                    for j in range(k + 1):
                        w = v * (powers[k - j] * math.comb(k, j))
                        if not w:
                            continue
                        kk = key[:i] + (key[i] + j,) + key[i + 1 :]
                        prev = new.get(kk)
                        w = w if prev is None else prev + w
                        if w:
                            new[kk] = w
                        else:
                            new.pop(kk, None)
                acc = new
            out = out + self._wrap(acc)
        return out

    def evaluate(self, point):
        """Evaluate at a point (scalar per generator); returns a scalar."""
        n = len(self.gens)
        if len(point) != n:
            raise ValueError("point length mismatch")
        pt = [self.coerce_scalar(p) for p in point]
        total = None
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * pt[i] ** k
            total = v if total is None else total + v
        if total is None:
            total = self.coerce_scalar(0)
        return total

    def graded_component(self, k: int) -> "Polynomial":
        return self._wrap({e: c for e, c in self.terms.items() if sum(e) == k})

    def conjugate(self) -> "Polynomial":
        return self._wrap({e: c.conjugate() for e, c in self.terms.items()})

    def hbar_coefficient(self, r: int) -> "Polynomial":
        """Coefficient of h^r as a polynomial with constant coefficients."""
        if self.domain != "formal":
            raise IncompatibleError("hbar_coefficient needs the formal domain")
        if r < 0 or r > self.trunc:
            raise TruncationError(
                f"order {r} outside truncation {self.trunc}"
            )
        out = {}
        for e, c in self.terms.items():
            g = c.coefficient(r)
            if g:
                out[e] = FormalScalar.constant(g, self.trunc)
        return self._wrap(out)

    def map_coefficients(self, fn) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return self._wrap(out)

    # -- views ------------------------------------------------------------------
    def sorted_terms(self):
        """Terms in canonical print order (degree desc, exponents lex desc)."""
        return sorted(
            self.terms.items(), key=lambda kv: monomial_sort_key(kv[0]), reverse=True
        )

    # -- text ---------------------------------------------------------------------
    def _monomial_text(self, exp):
        parts = []
        for name, k in zip(self.gens.names, exp):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def _term_pieces(self, exp, c):
        """(negated, text) for one term, grammar-round-trippable."""
        mono = self._monomial_text(exp)
        if self.domain == "numeric":
            txt = f"({c.val.real!r}{c.val.imag:+}j)"
            return False, f"{txt}*{mono}" if mono else txt
        orders = sorted(c.coeffs)
        if len(orders) > 1:
            txt = f"({c.canonical()})"
            return False, f"{txt}*{mono}" if mono else txt
        r = orders[0]
        g = c.coeffs[r]
        neg, mag = _coeff_factor(g)
        factors = []
        if mag is not None:
            factors.append(mag)
        if r == 1:
            factors.append("h")
        elif r > 1:
            factors.append(f"h^{r}")
        if mono:
            factors.append(mono)
        if not factors:
            factors.append("1")
        return neg, "*".join(factors)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for idx, (exp, c) in enumerate(self.sorted_terms()):
            neg, text = self._term_pieces(exp, c)
            if idx == 0:
                chunks.append(f"-{text}" if neg else text)
            else:
                chunks.append(f" - {text}" if neg else f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"<Polynomial {self} over {list(self.gens.names)}>"

    # -- JSON -------------------------------------------------------------------
    def to_json(self) -> dict:
        terms = []
        for exp, c in self.sorted_terms():
            if self.domain == "formal":
                coeff = c.canonical()
            else:
                coeff = [c.val.real, c.val.imag]
            terms.append({"exp": list(exp), "coeff": coeff})
        d = {
            "generators": list(self.gens.names),
            "scalar_domain": self.domain,
            "terms": terms,
        }
        if self.domain == "formal":
            d["truncation"] = self.trunc
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Polynomial":
        gens = Generators(d["generators"])
        domain = d.get("scalar_domain", "formal")
        trunc = d.get("truncation", DEFAULT_TRUNCATION)
        terms = {}
        for t in d["terms"]:
            exp = tuple(t["exp"])
            raw = t["coeff"]
            if domain == "formal":
                c = scalar_from_text(raw, "formal", trunc)
            elif isinstance(raw, (list, tuple)):
                c = NumericScalar(raw[0], raw[1])
            else:
                c = scalar_from_text(str(raw), "numeric", trunc)
            prev = terms.get(exp)
            terms[exp] = c if prev is None else prev + c
        return cls(gens, terms, domain, trunc)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    return a * b


def poly_from_ast(ast, gens: Generators, domain="formal",
                  trunc=DEFAULT_TRUNCATION) -> Polynomial:
    """Evaluate a parsed expression AST into a polynomial."""
    from .errors import ParseError
    from .scalars import GR_I

    one = Polynomial.one(gens, domain, trunc)

    def ev(node):
        kind = node[0]
        if kind == "num":
            return Polynomial.constant(gens, node[1], domain, trunc)
        if kind == "i":
            if domain == "formal":
                return Polynomial.constant(gens, GR_I, domain, trunc)
            return Polynomial.constant(gens, 1j, domain, trunc)
        if kind == "h":
            if domain != "formal":
                line, col = node[1]
                raise ParseError(
                    "'h' is not available in the numeric domain", line, col
                )
            return one * FormalScalar.hbar(trunc)
        if kind == "gen":
            name = node[1]
            if name not in gens:
                line, col = node[2]
                raise ParseError(f"unknown identifier {name!r}", line, col)
            return Polynomial.generator(gens, name, domain, trunc)
        if kind == "neg":
            return -ev(node[1])
        if kind == "add":
            return ev(node[1]) + ev(node[2])
        if kind == "sub":
            return ev(node[1]) - ev(node[2])
        if kind == "mul":
            return ev(node[1]) * ev(node[2])
        if kind == "pow":
            return ev(node[1]) ** node[2]
        raise ValueError(f"bad AST node {node!r}")

    return ev(ast)


def poly_from_text(text: str, gens, domain="formal",
                   trunc=DEFAULT_TRUNCATION) -> Polynomial:
    from .parse import parse_expression

    if not isinstance(gens, Generators):
        gens = Generators(gens)
    return poly_from_ast(parse_expression(text), gens, domain, trunc)
