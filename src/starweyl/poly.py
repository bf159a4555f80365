"""Sparse polynomials over a fixed generator tuple.

Monomials are exponent tuples (one slot per generator); coefficients live in
one of the scalar domains from scalars.py. Values are immutable after
construction and every operation returns a new canonical polynomial (zero
coefficients pruned). Monomial order for printing is total degree, then
lexicographic on exponent tuples, both descending.
"""

from __future__ import annotations

import math

from . import kernels
from .errors import (
    IncompatibleError,
    ParseError,
    StarWeylError,
    TruncationError,
)
from .parse import eval_ast, h_unavailable, parse_expression, scalar_from_json
from .scalars import (
    DEFAULT_TRUNCATION,
    GR_I,
    FormalScalar,
    TermSum,
    accumulate,
    coerce_coeff,
    coerce_coeffs,
    stored_conjugate,
    stored_encode,
    stored_reduce,
)


# largest predicted term count of a power; a larger power is a
# StarWeylError before any work (parse.MAX_EXPONENT bounds the exponent's
# text, this bounds the expansion)
MAX_POWER_TERMS = 2**16

# largest product of two operands' stored term counts that a product
# (Polynomial.__mul__, star, poisson_bracket) multiplies out; a larger one
# is a StarWeylError before any work (mul_terms and level 0 of the star
# kernel form every pair of stored terms, so this bounds their work, where
# MAX_POWER_TERMS bounds a power's result)
MAX_PRODUCT_PAIRS = 2**24


def check_product_size(a, b):
    """StarWeylError when the term sums a and b have more than
    MAX_PRODUCT_PAIRS pairs of stored terms."""
    pairs = len(a._data) * len(b._data)
    if pairs > MAX_PRODUCT_PAIRS:
        raise StarWeylError(
            f"product of {len(a._data)} by {len(b._data)} stored terms has "
            f"{pairs} term pairs, above the limit {MAX_PRODUCT_PAIRS}"
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


def exponent_tuple(exp, n):
    """exp as a tuple of n nonnegative ints; ValueError otherwise."""
    exp = tuple(exp)
    if len(exp) != n or any((not isinstance(e, int)) or e < 0 for e in exp):
        raise ValueError(f"bad exponent tuple {exp!r} for {n} generators")
    return exp


def monomial_sort_key(exp):
    return (total_degree(exp), exp)


def monomial_text(names, exp):
    """Text of the monomial prod names[i]^exp[i]; "" for the unit."""
    return "*".join(
        nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, exp) if k
    )


class Polynomial(TermSum):
    """Element of the symmetric algebra over n generators."""

    __slots__ = ("gens", "domain")
    _space = ("gens", "domain")

    def __init__(self, gens, terms=None, domain="formal",
                 trunc=DEFAULT_TRUNCATION, _clean=False):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        self._fill(terms, trunc, _clean)

    def _key(self, exp):
        return exponent_tuple(exp, len(self.gens))

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

    # -- predicates ---------------------------------------------------------
    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._data:
            return -1
        return max(sum(e[:-2]) for e in self._data)

    def _check(self, other):
        if self.gens != other.gens:
            raise IncompatibleError(
                f"generator mismatch: {self.gens.names} vs {other.gens.names}"
            )
        if self.domain != other.domain:
            raise IncompatibleError(
                f"scalar domain mismatch: {self.domain} vs {other.domain}"
            )

    # -- ring operations -------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            check_product_size(self, other)
            n = min(self.trunc, other.trunc)
            # on the stored values: h and i in key slots
            a = self._cut(n)
            b = other._cut(n)
            return self._canonical(n, kernels.mul_terms(a._data, b._data),
                                   a._den * b._den)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k > 1:
            self._check_power_size(k)
        out = Polynomial.one(self.gens, self.domain, self.trunc)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _check_power_size(self, k):
        """StarWeylError when self ** k may have more than MAX_POWER_TERMS
        terms: m monomials give at most C(m+k-1, k) products of k of them,
        and degree d in n generators at most C(n+k*d, n) monomials."""
        m = len({e[:-2] for e in self._data})
        n = len(self.gens)
        size = min(math.comb(m + k - 1, k),
                   math.comb(n + k * max(self.degree(), 0), n))
        if size > MAX_POWER_TERMS:
            raise StarWeylError(
                f"power {k} of {m} monomials may have {size} terms, above "
                f"the limit {MAX_POWER_TERMS}"
            )

    # -- calculus ------------------------------------------------------------
    def partial_derivative(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self.gens.index(which)
        if not 0 <= i < len(self.gens):
            raise IndexError(f"generator index {i} out of range")
        # distinct monomials stay distinct, and c * k never vanishes
        out = {
            e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]
            for e, c in self._data.items()
            if e[i]
        }
        return self._like(self.trunc, *stored_reduce(self.domain, self._den,
                                                     out))

    def translate(self, shifts) -> "Polynomial":
        """Substitute x_i -> x_i + shifts[i] (shifts are scalars)."""
        n = len(self.gens)
        if len(shifts) != n:
            raise ValueError("shift vector length mismatch")
        sh, trunc = coerce_coeffs(shifts, self.domain, self.trunc)
        src = self._cut(trunc)
        if not any(sh):
            return src
        # expanded by the kernel on plain numbers; a zero shift leaves x_i
        ds, out = kernels.shift_terms(src._data, [
            stored_encode(self.domain, {(): s}, trunc) if s else None
            for s in sh
        ], trunc)
        return self._canonical(trunc, out, src._den * ds)

    def evaluate(self, point):
        """Evaluate at a point (scalar per generator); returns a scalar.
        The terms are added in sorted key order, so equal polynomials give
        equal numeric values however their terms are stored."""
        n = len(self.gens)
        if len(point) != n:
            raise ValueError("point length mismatch")
        pt, trunc = coerce_coeffs(point, self.domain, self.trunc)
        total = None
        for e, c in sorted(self._cut(trunc).terms.items()):
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * pt[i] ** k
            total = v if total is None else total + v
        if total is None:
            total = coerce_coeff(0, self.domain, trunc)
        return total

    def graded_component(self, k: int) -> "Polynomial":
        terms = {e: c for e, c in self.terms.items() if sum(e) == k}
        return Polynomial(self.gens, terms, self.domain, self.trunc, _clean=True)

    def conjugate(self) -> "Polynomial":
        return self._like(self.trunc, self._den,
                          stored_conjugate(self.domain, self._data))

    def hbar_coefficient(self, r: int) -> "Polynomial":
        """Coefficient of h^r as a polynomial with constant coefficients."""
        if self.domain != "formal":
            raise IncompatibleError("hbar_coefficient needs the formal domain")
        if r < 0 or r > self.trunc:
            raise TruncationError(
                f"order {r} outside truncation {self.trunc}"
            )
        # the h^r slot, moved to h^0
        return self._like(self.trunc, *stored_reduce(self.domain, self._den, {
            k[:-2] + (0, k[-1]): v for k, v in self._data.items() if k[-2] == r
        }))

    def map_coefficients(self, fn) -> "Polynomial":
        """The polynomial of the coefficients fn(c), coerced as the
        constructor coerces them: fn may return any coefficient of the
        domain, and one known to fewer h-orders lowers the truncation."""
        return Polynomial(self.gens, {e: fn(c) for e, c in self.terms.items()},
                          self.domain, self.trunc)

    # -- text ---------------------------------------------------------------------
    _sort_key = staticmethod(monomial_sort_key)

    def _monomial_text(self, exp):
        return monomial_text(self.gens.names, exp)

    def __repr__(self):
        return f"<Polynomial {self} over {list(self.gens.names)}>"

    # -- JSON -------------------------------------------------------------------
    def to_json(self) -> dict:
        d = {
            "generators": list(self.gens.names),
            "scalar_domain": self.domain,
            "terms": [{"exp": list(exp), "coeff": c.to_json()}
                      for exp, c in self.sorted_terms()],
        }
        if self.domain == "formal":
            d["truncation"] = self.trunc
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Polynomial":
        gens = Generators(d["generators"])
        domain = d.get("scalar_domain", "formal")
        trunc = d.get("truncation", DEFAULT_TRUNCATION)
        n = len(gens)
        terms = accumulate({}, (
            (exponent_tuple(t["exp"], n),
             scalar_from_json(t["coeff"], domain, trunc))
            for t in d["terms"]
        ))
        return cls(gens, terms, domain, trunc)


def poly_from_ast(ast, gens: Generators, domain="formal",
                  trunc=DEFAULT_TRUNCATION) -> Polynomial:
    """Evaluate a parsed expression AST into a polynomial."""

    def leaf(node):
        kind = node[0]
        if kind == "num":
            return Polynomial.constant(gens, node[1], domain, trunc)
        if kind == "i":
            return Polynomial.constant(gens, GR_I, domain, trunc)
        if kind == "h":
            if domain != "formal":
                raise h_unavailable(node)
            return Polynomial.constant(gens, FormalScalar.hbar(trunc), domain, trunc)
        name = node[1]
        if name not in gens:
            line, col = node[2]
            raise ParseError(f"unknown identifier {name!r}", line, col)
        return Polynomial.generator(gens, name, domain, trunc)

    return eval_ast(ast, leaf)


def poly_from_text(text: str, gens, domain="formal",
                   trunc=DEFAULT_TRUNCATION) -> Polynomial:
    if not isinstance(gens, Generators):
        gens = Generators(gens)
    return poly_from_ast(parse_expression(text), gens, domain, trunc)
