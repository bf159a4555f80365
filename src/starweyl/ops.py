"""Differential-operator representations on configuration space.

A DifferentialOperator is a finite sum c_{a,d} x^a d^d acting on polynomials
in the configuration generators. std_rep sends q^alpha p^beta to
(-i*h)^{|beta|} q^alpha d^beta (one degree of freedom per (q_i, p_i) pair,
extended diagonally); weyl_rep is std_rep after the N ordering operator.
The formal adjoint implements (c(q) d^m)^dagger = (-1)^m d^m o conj(c(q)),
normal-ordered back into coefficient-first form.
"""

from __future__ import annotations

import itertools
import math

from .errors import IncompatibleError
from .poly import (
    Generators,
    Polynomial,
    exponent_tuple,
    monomial_text,
)
from .scalars import DEFAULT_TRUNCATION, TermSum, accumulate, stored_canonical
from .star import n_operator


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


class DifferentialOperator(TermSum):
    """Finite-order operator sum_{a,d} c_{a,d} x^a d^d on polynomials."""

    __slots__ = ("gens", "domain")
    _space = ("gens", "domain")
    _mismatch = "operators over different algebras"

    def __init__(self, gens, terms=None, domain="formal",
                 trunc=DEFAULT_TRUNCATION, _clean=False):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        self._fill(terms, trunc, _clean)

    def _key(self, key):
        n = len(self.gens)
        a, d = key
        return exponent_tuple(a, n), exponent_tuple(d, n)

    @classmethod
    def zero(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        return cls(gens, {}, domain, trunc, _clean=True)

    @classmethod
    def identity(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        z = (0,) * len(gens)
        return cls(gens, {(z, z): 1}, domain, trunc)

    def apply(self, p: Polynomial) -> Polynomial:
        """Act on a polynomial in the configuration generators."""
        if p.gens != self.gens or p.domain != self.domain:
            raise IncompatibleError("operator and operand over different algebras")
        n = len(self.gens)

        def products():
            # the stored keys end in the h and i slots, which add
            for (a, d, r, q), c in self._data.items():
                for g, pc in p._data.items():
                    if any(g[i] < d[i] for i in range(n)):
                        continue
                    fall = 1
                    for i in range(n):
                        if d[i]:
                            fall *= _falling(g[i], d[i])
                    v = pc * c
                    if fall != 1:
                        v = v * fall
                    yield tuple(g[i] - d[i] + a[i] for i in range(n)) + (
                        g[n] + r, g[n + 1] + q), v

        return p._canonical(min(self.trunc, p.trunc),
                            accumulate({}, products()), self._den * p._den)

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """Operator product self o other (apply other first)."""
        self._check(other)
        n = len(self.gens)

        def products():
            for (a1, d1, r1, q1), c1 in self._data.items():
                for (a2, d2, r2, q2), c2 in other._data.items():
                    # commute d^{d1} past x^{a2}: Leibniz over e <= min(d1, a2)
                    ranges = [range(min(d1[i], a2[i]) + 1) for i in range(n)]
                    for e in itertools.product(*ranges):
                        coef = 1
                        for i in range(n):
                            if e[i]:
                                coef *= math.comb(d1[i], e[i]) * _falling(a2[i], e[i])
                        key = (
                            tuple(a1[i] + a2[i] - e[i] for i in range(n)),
                            tuple(d1[i] - e[i] + d2[i] for i in range(n)),
                            r1 + r2,
                            q1 + q2,
                        )
                        v = c1 * c2
                        if coef != 1:
                            v = v * coef
                        yield key, v

        trunc = min(self.trunc, other.trunc)
        return self._canonical(trunc, accumulate({}, products()),
                               self._den * other._den)

    def formal_adjoint(self) -> "DifferentialOperator":
        """(c x^a d^d)^dagger = (-1)^{|d|} d^d o conj(c) x^a, normal-ordered."""
        n = len(self.gens)

        def terms():
            for (a, d, r, q), c in self._data.items():
                # conjugate: -c on the i^1 slot (ints are their own)
                cc = -c if q else c.conjugate()
                if sum(d) % 2:
                    cc = -cc
                ranges = [range(min(d[i], a[i]) + 1) for i in range(n)]
                for e in itertools.product(*ranges):
                    coef = 1
                    for i in range(n):
                        if e[i]:
                            coef *= math.comb(d[i], e[i]) * _falling(a[i], e[i])
                    key = (
                        tuple(a[i] - e[i] for i in range(n)),
                        tuple(d[i] - e[i] for i in range(n)),
                        r,
                        q,
                    )
                    yield key, cc if coef == 1 else cc * coef

        return self._canonical(self.trunc, accumulate({}, terms()), self._den)

    # -- text / JSON ---------------------------------------------------------
    @staticmethod
    def _sort_key(key):
        a, d = key
        return (sum(d), d, sum(a), a)

    def _monomial_text(self, key):
        a, d = key
        names = self.gens.names
        return "*".join(filter(None, (
            monomial_text(names, a),
            monomial_text([f"D[{nm}]" for nm in names], d),
        )))

    def __repr__(self):
        return f"<DifferentialOperator {self} over {list(self.gens.names)}>"

    def to_json(self) -> dict:
        d = {
            "generators": list(self.gens.names),
            "scalar_domain": self.domain,
            "terms": [
                {"coef_exp": list(a), "deriv_exp": list(d), "coeff": c.to_json()}
                for (a, d), c in self.sorted_terms()
            ],
        }
        if self.domain == "formal":
            d["truncation"] = self.trunc
        return d


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
    space = (qgens, f.domain)
    # (exp[:n], exp[n:]) is exp cut in two, so no two terms share a key;
    # (-i*h)^k = h^k i^(3k): k more in the h slot and 3k in the i slot
    out = {
        (e[:n], e[n:-2], e[-2] + k, e[-1] + 3 * k): v
        for e, v in f._data.items()
        for k in [sum(e[n:-2])]
    }
    return DifferentialOperator._build(
        space, f.trunc, *stored_canonical(f.domain, out, f._den, f.trunc))


def weyl_rep(f: Polynomial) -> DifferentialOperator:
    """Weyl (symmetric) representation: std_rep after the N operator."""
    return std_rep(n_operator(f.gens, f.domain, f.trunc).apply(f))


def formal_adjoint(op: DifferentialOperator) -> DifferentialOperator:
    return op.formal_adjoint()
