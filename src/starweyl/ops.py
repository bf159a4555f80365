"""Differential-operator representations on configuration space.

A DifferentialOperator is a finite sum c_{a,d} x^a d^d acting on polynomials
in the configuration generators. std_rep sends q^alpha p^beta to
(-i*h)^{|beta|} q^alpha d^beta (one degree of freedom per (q_i, p_i) pair,
extended diagonally); weyl_rep is std_rep after the N ordering operator.
The formal adjoint implements (c(q) d^m)^dagger = (-1)^m d^m o conj(c(q)),
normal-ordered back into coefficient-first form.
"""

from __future__ import annotations

import math

from .errors import IncompatibleError
from .poly import Generators, Polynomial, _coerce_coeff, merge_terms
from .scalars import DEFAULT_TRUNCATION
from .star import minus_i_hbar, n_operator


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _pairs_key(item):
    (a, d), _ = item
    return (sum(d), d, sum(a), a)


class DifferentialOperator:
    """Finite-order operator sum_{a,d} c_{a,d} x^a d^d on polynomials."""

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
            for (a, d), c in terms.items():
                a, d = tuple(a), tuple(d)
                if len(a) != n or len(d) != n:
                    raise ValueError("exponent tuple length mismatch")
                if any(x < 0 for x in a) or any(x < 0 for x in d):
                    raise ValueError("negative exponent")
                cc = _coerce_coeff(c, domain, trunc)
                if cc:
                    prev = cl.get((a, d))
                    s = cc if prev is None else prev + cc
                    if s:
                        cl[(a, d)] = s
                    else:
                        cl.pop((a, d), None)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", cl)

    def __setattr__(self, name, value):
        raise AttributeError("DifferentialOperator is immutable")

    @classmethod
    def zero(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        return cls(gens, {}, domain, trunc, _clean=True)

    @classmethod
    def identity(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        z = (0,) * len(gens)
        return cls(gens, {(z, z): 1}, domain, trunc)

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.gens != other.gens or self.domain != other.domain:
            raise IncompatibleError("operators over different algebras")

    def __add__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        self._check(other)
        out, trunc = merge_terms(self, other)
        return DifferentialOperator(self.gens, out, self.domain, trunc, _clean=True)

    def __neg__(self):
        return DifferentialOperator(
            self.gens,
            {k: -c for k, c in self.terms.items()},
            self.domain,
            self.trunc,
            _clean=True,
        )

    def __sub__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "DifferentialOperator":
        cc = _coerce_coeff(c, self.domain, self.trunc)
        out = {}
        if cc:
            for k, v in self.terms.items():
                p = v * cc
                if p:
                    out[k] = p
        return DifferentialOperator(self.gens, out, self.domain, self.trunc,
                                    _clean=True)

    def apply(self, p: Polynomial) -> Polynomial:
        """Act on a polynomial in the configuration generators."""
        if p.gens != self.gens or p.domain != self.domain:
            raise IncompatibleError("operator and operand over different algebras")
        n = len(self.gens)
        out = {}
        for (a, d), c in self.terms.items():
            for g, pc in p.terms.items():
                if any(g[i] < d[i] for i in range(n)):
                    continue
                fall = 1
                for i in range(n):
                    if d[i]:
                        fall *= _falling(g[i], d[i])
                key = tuple(g[i] - d[i] + a[i] for i in range(n))
                v = pc * c
                if fall != 1:
                    v = v * fall
                if not v:
                    continue
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return Polynomial(self.gens, out, self.domain,
                          min(self.trunc, p.trunc), _clean=True)

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """Operator product self o other (apply other first)."""
        self._check(other)
        n = len(self.gens)
        out = {}
        for (a1, d1), c1 in self.terms.items():
            for (a2, d2), c2 in other.terms.items():
                # commute d^{d1} past x^{a2}: Leibniz over e <= min(d1, a2)
                ranges = [range(min(d1[i], a2[i]) + 1) for i in range(n)]
                for e in _iter_box(ranges):
                    coef = 1
                    for i in range(n):
                        if e[i]:
                            coef *= math.comb(d1[i], e[i]) * _falling(a2[i], e[i])
                    key = (
                        tuple(a1[i] + a2[i] - e[i] for i in range(n)),
                        tuple(d1[i] - e[i] + d2[i] for i in range(n)),
                    )
                    v = c1 * c2
                    if coef != 1:
                        v = v * coef
                    if not v:
                        continue
                    prev = out.get(key)
                    v = v if prev is None else prev + v
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        return DifferentialOperator(
            self.gens, out, self.domain, min(self.trunc, other.trunc), _clean=True
        )

    def formal_adjoint(self) -> "DifferentialOperator":
        """(c x^a d^d)^dagger = (-1)^{|d|} d^d o conj(c) x^a, normal-ordered."""
        n = len(self.gens)
        out = {}
        for (a, d), c in self.terms.items():
            cc = c.conjugate()
            if sum(d) % 2:
                cc = -cc
            ranges = [range(min(d[i], a[i]) + 1) for i in range(n)]
            for e in _iter_box(ranges):
                coef = 1
                for i in range(n):
                    if e[i]:
                        coef *= math.comb(d[i], e[i]) * _falling(a[i], e[i])
                key = (
                    tuple(a[i] - e[i] for i in range(n)),
                    tuple(d[i] - e[i] for i in range(n)),
                )
                v = cc if coef == 1 else cc * coef
                if not v:
                    continue
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return DifferentialOperator(self.gens, out, self.domain, self.trunc,
                                    _clean=True)

    def __eq__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.domain == other.domain
            and self.terms == other.terms
        )

    __hash__ = None

    # -- text / JSON ---------------------------------------------------------
    def _term_text(self, a, d, c):
        from .scalars import _coeff_factor

        mono = []
        for name, k in zip(self.gens.names, a):
            if k == 1:
                mono.append(name)
            elif k > 1:
                mono.append(f"{name}^{k}")
        for name, k in zip(self.gens.names, d):
            if k == 1:
                mono.append(f"D[{name}]")
            elif k > 1:
                mono.append(f"D[{name}]^{k}")
        mono_txt = "*".join(mono)
        if self.domain == "numeric":
            txt = f"({c.val.real!r}{c.val.imag:+}j)"
            return False, f"{txt}*{mono_txt}" if mono_txt else txt
        orders = sorted(c.coeffs)
        if len(orders) > 1:
            txt = f"({c.canonical()})"
            return False, f"{txt}*{mono_txt}" if mono_txt else txt
        r = orders[0]
        neg, mag = _coeff_factor(c.coeffs[r])
        factors = []
        if mag is not None:
            factors.append(mag)
        if r == 1:
            factors.append("h")
        elif r > 1:
            factors.append(f"h^{r}")
        if mono_txt:
            factors.append(mono_txt)
        if not factors:
            factors.append("1")
        return neg, "*".join(factors)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=_pairs_key, reverse=True)
        chunks = []
        for idx, ((a, d), c) in enumerate(items):
            neg, text = self._term_text(a, d, c)
            if idx == 0:
                chunks.append(f"-{text}" if neg else text)
            else:
                chunks.append(f" - {text}" if neg else f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"<DifferentialOperator {self} over {list(self.gens.names)}>"

    def to_json(self) -> dict:
        terms = []
        for (a, d), c in sorted(self.terms.items(), key=_pairs_key, reverse=True):
            coeff = c.canonical() if self.domain == "formal" else [
                c.val.real, c.val.imag
            ]
            terms.append({"coef_exp": list(a), "deriv_exp": list(d), "coeff": coeff})
        d = {
            "generators": list(self.gens.names),
            "scalar_domain": self.domain,
            "terms": terms,
        }
        if self.domain == "formal":
            d["truncation"] = self.trunc
        return d


def _iter_box(ranges):
    import itertools

    return itertools.product(*ranges)


def _split_phase(gens: Generators):
    m = len(gens)
    if m % 2:
        raise IncompatibleError(
            "phase-space preset needs an even number of generators"
        )
    n = m // 2
    return n, Generators(gens.names[:n])


def std_rep(f: Polynomial) -> DifferentialOperator:
    """Standard-ordered representation: q^a p^b -> (-i*h)^{|b|} q^a d^b."""
    n, qgens = _split_phase(f.gens)
    z = minus_i_hbar(f.domain, f.trunc)
    out = {}
    for exp, c in f.terms.items():
        a, b = exp[:n], exp[n:]
        v = c * z ** sum(b)
        if not v:
            continue
        prev = out.get((a, b))
        v = v if prev is None else prev + v
        if v:
            out[(a, b)] = v
        else:
            out.pop((a, b), None)
    return DifferentialOperator(qgens, out, f.domain, f.trunc, _clean=True)


def weyl_rep(f: Polynomial) -> DifferentialOperator:
    """Weyl (symmetric) representation: std_rep after the N operator."""
    return std_rep(n_operator(f.gens, f.domain, f.trunc).apply(f))


def formal_adjoint(op: DifferentialOperator) -> DifferentialOperator:
    return op.formal_adjoint()
