"""Differential-operator representations on configuration space.

A DifferentialOperator is a finite sum c_{a,d} x^a d^d acting on polynomials
in the configuration generators. std_rep sends q^alpha p^beta to
(-i*h)^{|beta|} q^alpha d^beta (one degree of freedom per (q_i, p_i) pair,
extended diagonally); weyl_rep is std_rep after the N operator. compose
and formal_adjoint run on symbols, x^a d^d read as the monomial x^a xi^d
(docs/conventions.md section 7); apply is a direct loop.
"""

from __future__ import annotations

from .errors import IncompatibleError
from .poly import (
    Generators,
    Polynomial,
    check_product_size,
    exponent_tuple,
    monomial_text,
)
from .scalars import (DEFAULT_TRUNCATION, TermSum, accumulate, stored_canonical,
                      stored_conjugate, stored_sum)
from .star import BilinearForm, _exp_levels, n_operator, star


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
        check_product_size(self, p)
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

    def _symbol(self, data):
        """The symbol of the stored values data on self's keys: x^a d^d as
        the monomial x^a xi^d on 2n generators, xi_i in slot n + i."""
        gens = Generators(f"_{k}" for k in range(2 * len(self.gens)))
        return Polynomial._build((gens, self.domain), self.trunc, self._den, {
            a + d + (r, q): v for (a, d, r, q), v in data.items()})

    def _from_symbol(self, sym):
        n = len(self.gens)
        return self._like(sym.trunc, sym._den, {
            (e[:n], e[n:-2], e[-2], e[-1]): v for e, v in sym._data.items()})

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """Operator product self o other (apply other first): the
        standard-ordered star product of the symbols at z = 1."""
        self._check(other)
        a = self._symbol(self._data)
        form = BilinearForm.standard(a.gens, self.domain,
                                     min(self.trunc, other.trunc))
        return self._from_symbol(star(form, 1, a, other._symbol(other._data)))

    def formal_adjoint(self) -> "DifferentialOperator":
        """(c x^a d^d)^dagger = (-1)^{|d|} d^d o conj(c) x^a: exp(sum_i
        d_{x_i} d_{xi_i}) of the symbol conj(c) (-1)^{|d|} x^a xi^d, the
        ordering operator's level loop on the entries (i, n + i, 2) over 1."""
        n = len(self.gens)
        sym = self._symbol({
            k: 0 - v if sum(k[1]) % 2 else v
            for k, v in stored_conjugate(self.domain, self._data).items()})
        levels = _exp_levels(sym, 1, [(i, n + i, 2, (0, 0)) for i in range(n)],
                             self.trunc)
        return self._from_symbol(sym._like(self.trunc,
                                           *stored_sum(self.domain, levels)))

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
        return {
            "generators": list(self.gens.names),
            "scalar_domain": self.domain,
            "terms": [
                {"coef_exp": list(a), "deriv_exp": list(d), "coeff": c.to_json()}
                for (a, d), c in self.sorted_terms()
            ],
            "truncation": self.trunc,
        }


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
