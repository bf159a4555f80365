"""Sparse polynomials over a fixed generator tuple.

Monomials are exponent tuples (one slot per generator); coefficients live in
one of the scalar domains from scalars.py. Values are immutable after
construction and every operation returns a new canonical polynomial (zero
coefficients pruned). Monomial order for printing is total degree, then
lexicographic on exponent tuples, both descending.
"""

from __future__ import annotations

from . import kernels
from .errors import IncompatibleError, ParseError, TruncationError
from .parse import eval_ast, h_unavailable, parse_expression, scalar_from_json
from .scalars import (
    DEFAULT_TRUNCATION,
    GR_I,
    FormalScalar,
    coerce_coeff,
    coerce_coeffs,
    complex_decode,
    complex_encode,
    int_decode,
    int_encode,
    join_terms,
    term_text,
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


class TermSum:
    """Immutable finite sum of terms, key -> nonzero coefficient.

    The attributes named in _space (with the domain) say where the terms
    live; two sums combine only over the same space. trunc is the h-order
    the formal coefficients are known to: a sum, a scaling or a constructor
    that meets a coefficient of smaller truncation takes that truncation,
    and no coefficient is kept above it. A subclass supplies its __init__
    (which calls _fill), _key, _check or _mismatch, _sort_key and
    _monomial_text, its products and its JSON.
    """

    __slots__ = ("trunc", "terms")

    def _fill(self, terms, trunc, clean):
        """Set trunc and terms; unless clean, validate every key with _key,
        coerce every coefficient and drop the vanishing sums."""
        if terms is None:
            terms = {}
        if not clean:
            coeffs, trunc = coerce_coeffs(terms.values(), self.domain, trunc)
            terms = accumulate({}, zip(map(self._key, terms), coeffs))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", terms)

    def _wrap(self, terms, trunc=None):
        """A sum over the space of self with clean terms (trunc defaults to
        self.trunc)."""
        new = object.__new__(type(self))
        for name in self._space:
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "trunc", self.trunc if trunc is None else trunc)
        object.__setattr__(new, "terms", terms)
        return new

    def _cut(self, trunc):
        """self with every formal coefficient cut to h-order trunc."""
        if trunc >= self.trunc:
            return self
        terms = self.terms
        if self.domain == "formal":
            terms = {k: t for k, c in terms.items() if (t := c.truncate(trunc))}
        return self._wrap(terms, trunc)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if any(getattr(self, n) != getattr(other, n) for n in self._space):
            raise IncompatibleError(self._mismatch)

    def coerce_scalar(self, c):
        return coerce_coeff(c, self.domain, self.trunc)

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = accumulate(dict(self._cut(trunc).terms),
                         other._cut(trunc).terms.items())
        return self._wrap(out, trunc)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """self times the scalar c (TypeError when c is not one)."""
        c = self.coerce_scalar(c)
        if self.domain == "formal":
            # on ints: the terms over one denominator, c over another
            trunc = c.trunc
            da, a = int_encode(self.terms, trunc)
            dc, s = int_encode({(): c}, trunc)
            out = kernels.scale_terms(a, s, trunc)
            return self._wrap(int_decode(out, da * dc, trunc), trunc)
        return self._wrap({k: p for k, v in self.terms.items() if (p := v * c)})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            getattr(self, n) == getattr(other, n) for n in self._space
        ) and self.terms == other.terms

    __hash__ = None

    # -- text ----------------------------------------------------------------
    def sorted_terms(self):
        """Terms in print order, the largest _sort_key first."""
        return sorted(
            self.terms.items(), key=lambda kv: self._sort_key(kv[0]), reverse=True
        )

    def __str__(self):
        return join_terms(
            term_text(c, self._monomial_text(k)) for k, c in self.sorted_terms()
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
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
            n = min(self.trunc, other.trunc)
            if self.domain == "formal":
                # on ints: one denominator per operand, h and i in key slots
                da, a = int_encode(self.terms, n)
                db, b = int_encode(other.terms, n)
                terms = int_decode(kernels.mul_terms(a, b), da * db, n)
            else:
                terms = complex_decode(kernels.mul_terms(
                    complex_encode(self.terms), complex_encode(other.terms)))
            return Polynomial(self.gens, terms, self.domain, n, _clean=True)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

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

    # -- calculus ------------------------------------------------------------
    def partial_derivative(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self.gens.index(which)
        if not 0 <= i < len(self.gens):
            raise IndexError(f"generator index {i} out of range")
        # distinct monomials stay distinct, and c * k never vanishes
        return self._wrap({
            e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]
            for e, c in self.terms.items()
            if e[i]
        })

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
        if self.domain == "formal":
            da, a = int_encode(src.terms, trunc)
            ds, out = kernels.shift_terms(
                a, [int_encode({(): s}, trunc) if s else None for s in sh],
                trunc)
            terms = int_decode(out, da * ds, trunc)
        else:
            # the kernel's keys end in h and i slots, which stay 0 here
            a = {e + (0, 0): v for e, v in complex_encode(src.terms).items()}
            _, out = kernels.shift_terms(
                a, [(1, complex_encode({(0, 0): s})) if s else None
                    for s in sh], trunc)
            terms = complex_decode({k[:-2]: v for k, v in out.items()})
        return self._wrap(terms, trunc)

    def evaluate(self, point):
        """Evaluate at a point (scalar per generator); returns a scalar."""
        n = len(self.gens)
        if len(point) != n:
            raise ValueError("point length mismatch")
        pt, trunc = coerce_coeffs(point, self.domain, self.trunc)
        total = None
        for e, c in self._cut(trunc).terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * pt[i] ** k
            total = v if total is None else total + v
        if total is None:
            total = coerce_coeff(0, self.domain, trunc)
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
        return self._wrap({
            e: FormalScalar.constant(g, self.trunc)
            for e, c in self.terms.items()
            if (g := c.coefficient(r))
        })

    def map_coefficients(self, fn) -> "Polynomial":
        return self._wrap({e: v for e, c in self.terms.items() if (v := fn(c))})

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
