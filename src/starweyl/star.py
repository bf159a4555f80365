"""Star products for constant bilinear forms on flat space.

The product is mu o exp(z * P_Lambda) applied to a (x) b, where
P_Lambda = sum_ij Lambda_ij d_i (x) d_j contracts one derivative on each
tensor factor. The series terminates at r = min(deg a, deg b). Sign and
orientation conventions (Lambda_std, z = -i*h, bracket normalisation) are
spelled out with derivations in docs/conventions.md; tests pin them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from . import kernels
from .errors import IncompatibleError
from .parse import scalar_from_json
from .poly import (
    Generators,
    Polynomial,
    check_product_size,
    exponent_tuple,
    monomial_text,
)
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    NumericScalar,
    TermSum,
    accumulate,
    coerce_coeff,
    int_canonical,
    int_encode,
    num_canonical,
    stored_canonical,
    stored_reduce,
    stored_sum,
)


class BilinearForm(TermSum):
    """Constant bilinear form on the span of the generators.

    The term under the key (i, j) is Lambda(e_i, e_j), a scalar in the given
    domain; matrix, entry and nonzero_entries are decoded views of them.
    """

    __slots__ = ("gens", "domain")
    _space = ("gens", "domain")
    _mismatch = "bilinear forms over different algebras"

    def __init__(self, gens, matrix, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        n = len(gens)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"matrix must be {n}x{n}")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        self._fill({(i, j): c for i, row in enumerate(matrix)
                    for j, c in enumerate(row)}, trunc, False)

    def _key(self, key):
        # the constructor writes every key from the matrix's shape
        return key

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        n = len(gens)
        return cls(gens, [[0] * n for _ in range(n)], domain, trunc)

    @classmethod
    def standard(cls, gens, domain="formal", trunc=DEFAULT_TRUNCATION):
        """Lambda_std on phase-space generators (q_1..q_n, p_1..p_n):
        Lambda(e_{p_i}, e_{q_i}) = 1, everything else 0."""
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        m = len(gens)
        if m % 2:
            raise IncompatibleError(
                "phase-space preset needs an even number of generators"
            )
        n = m // 2
        rows = [[0] * m for _ in range(m)]
        for k in range(n):
            rows[n + k][k] = 1  # (p_k row, q_k column)
        return cls(gens, rows, domain, trunc)

    # -- access -------------------------------------------------------------
    @property
    def matrix(self):
        """Lambda as new dense rows; a zero cell is the domain's zero at the
        form's truncation."""
        n = len(self.gens)
        terms = self.terms
        zero = self.coerce_scalar(0)
        return tuple(tuple(terms.get((i, j), zero) for j in range(n))
                     for i in range(n))

    def entry(self, i, j):
        return self.matrix[i][j]

    def nonzero_entries(self):
        """[(i, j, Lambda_ij)] of the nonzero entries, row-major."""
        return [(i, j, c) for (i, j), c in sorted(self.terms.items())]

    def value(self, v, w):
        """Lambda(v, w) for coefficient vectors v, w."""
        n = len(self.gens)
        if len(v) != n or len(w) != n:
            raise ValueError("vector length mismatch")
        vv = [coerce_coeff(x, self.domain, self.trunc) for x in v]
        ww = [coerce_coeff(x, self.domain, self.trunc) for x in w]
        total = coerce_coeff(0, self.domain, self.trunc)
        for i, j, lam in self.nonzero_entries():
            total = total + vv[i] * lam * ww[j]
        return total

    # -- algebra ---------------------------------------------------------------
    def transpose(self):
        return self._like(self.trunc, self._den, {
            (k[1], k[0]) + k[2:]: v for k, v in self._data.items()})

    def symmetric_part(self):
        return (self + self.transpose()).scale(Fraction(1, 2))

    def antisymmetric_part(self):
        return (self - self.transpose()).scale(Fraction(1, 2))

    def is_symmetric(self):
        return self == self.transpose()

    def is_antisymmetric(self):
        return self == -self.transpose()

    # -- text and JSON -------------------------------------------------------------
    @staticmethod
    def _sort_key(key):
        # the largest sort key prints first: row-major
        i, j = key
        return (-i, -j)

    def _monomial_text(self, key):
        """Text "p (x) q" of the key (p, q)."""
        names = self.gens.names
        return " (x) ".join(names[k] for k in key)

    def to_json(self) -> dict:
        return {
            "generators": list(self.gens.names),
            "matrix": [[c.to_json() for c in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, d, gens=None, domain="formal", trunc=DEFAULT_TRUNCATION):
        if gens is None:
            gens = Generators(d["generators"])
        rows = [[scalar_from_json(c, domain, trunc) for c in row]
                for row in d["matrix"]]
        return cls(gens, rows, domain, trunc)

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(c) for c in row) for row in self.matrix
        )
        return f"<BilinearForm [{rows}] over {list(self.gens.names)}>"


class TensorSquare(TermSum):
    """Element of Sym(V) (x) Sym(V), sparse over exponent-tuple pairs."""

    __slots__ = ("gens", "domain")
    _space = ("gens", "domain")
    _mismatch = "tensor squares over different algebras"

    def __init__(self, gens, terms, domain="formal", trunc=DEFAULT_TRUNCATION,
                 _clean=False):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        self._fill(terms, trunc, _clean)

    def _key(self, key):
        n = len(self.gens)
        ea, eb = key
        return exponent_tuple(ea, n), exponent_tuple(eb, n)

    @classmethod
    def of(cls, a: Polynomial, b: Polynomial) -> "TensorSquare":
        a._check(b)
        n = min(a.trunc, b.trunc)
        a = a._cut(n)
        b = b._cut(n)
        tb = b._data.items()
        out = accumulate({}, (
            ((ea[:-2], eb[:-2], ea[-2] + eb[-2], ea[-1] + eb[-1]), ca * cb)
            for ea, ca in a._data.items() for eb, cb in tb))
        return cls._build((a.gens, a.domain), n, *stored_canonical(
            a.domain, out, a._den * b._den, n))

    @staticmethod
    def _sort_key(key):
        ea, eb = key
        return (sum(ea) + sum(eb), ea, eb)

    def _monomial_text(self, key):
        """Text "a (x) b" of the key (a, b); a unit factor prints as 1."""
        names = self.gens.names
        return " (x) ".join(monomial_text(names, e) or "1" for e in key)

    def mu(self) -> Polynomial:
        """Multiplication map a (x) b -> a*b."""
        out = accumulate({}, (
            (tuple(map(add, ea, eb)) + (r, q), c)
            for (ea, eb, r, q), c in self._data.items()))
        return Polynomial._build((self.gens, self.domain), self.trunc,
                                 *stored_reduce(self.domain, self._den, out))


def _plain_entries(form):
    """Kernel entries of the form's own coefficients, without slot shifts."""
    return [(i, j, lam, None) for i, j, lam in form.nonzero_entries()]


def _complex_entries(form):
    """Kernel entries of a numeric form: its stored complex values, in
    sorted key order."""
    return [(i, j, v, None) for (i, j, _, _), v in sorted(form._data.items())]


def p_lambda(form: BilinearForm, t: TensorSquare) -> TensorSquare:
    """One application of P_Lambda = sum_ij Lambda_ij d_i (x) d_j."""
    if form.gens != t.gens or form.domain != t.domain:
        raise IncompatibleError("form and tensor square over different algebras")
    out = kernels.p_lambda_terms(_plain_entries(form), t.terms)
    return TensorSquare(t.gens, out, t.domain, min(t.trunc, form.trunc),
                        _clean=True)


def _fold(form, z, trunc):
    """(den, entries): kernel entries of z * Lambda in the integer encoding.

    z * Lambda is the form's stored ints cut at trunc times z's, in its
    canonical form: i^2 = -1 is applied, and parts above h-order trunc,
    which cannot reach the result, are dropped. Each part (i, j, r, q),
    in sorted key order, becomes one entry (i, j, n, left) with value
    n/den; left lowers slot i by one and raises the h and i slots by r and
    q (None when both are 0).
    """
    lam = form._cut(trunc)
    dz, zints = int_encode({(): z}, trunc)
    den, ints = int_canonical(kernels.scale_terms(lam._data, zints, trunc),
                              lam._den * dz, trunc)
    n = len(form.gens)
    entries = []
    for (i, j, r, q), v in sorted(ints.items()):
        left = None
        if r or q:
            left = tuple(-1 if k == i else 0 for k in range(n)) + (r, q)
        entries.append((i, j, v, left))
    return den, entries


def _star_formal(form, z, a, b, rmax, trunc):
    """Stored form (den, ints) of the formal star product, on integer
    coefficients."""
    n = len(a.gens)
    dz, entries = _fold(form, z, trunc)
    a = a._cut(trunc)
    b = b._cut(trunc)
    ea = a._data
    eb = b._data
    if not ea or not eb:
        return 1, {}
    room = trunc - min(key[n] for key in ea) - min(key[n] for key in eb)
    if room < 0:
        return 1, {}
    if not entries:
        rmax = 0
    else:
        # every level raises the h-order by at least step
        step = min(0 if left is None else left[n] for _, _, _, left in entries)
        if step:
            rmax = min(rmax, room // step)
    # level r carries z^r/r!: its weight rmax!/r! * dz^(rmax-r) brings
    # every level over the one denominator rmax! * dz^rmax
    weights = [
        math.factorial(rmax) // math.factorial(r) * dz ** (rmax - r)
        for r in range(rmax + 1)
    ]
    out = kernels.star_terms(entries, weights, ea, eb, rmax)
    return int_canonical(out, a._den * b._den * weights[0], trunc)


def _inverse_factorial(k, domain):
    """1/k! as a factor for the domain's scalars: an exact Fraction when
    formal; when numeric, 1.0/k! up to k = 170, which for k = 23, 26, ...
    is not the float nearest to 1/k! but is what earlier versions printed,
    and beyond that, where k! has no float, the correctly rounded 1/k!
    (subnormal, then 0.0)."""
    if domain == "formal":
        return Fraction(1, math.factorial(k))
    if k <= 170:
        return 1.0 / math.factorial(k)
    return 1 / math.factorial(k)


def _z_factors(z, trunc, rmax):
    """[z^r / r! for r in 0..rmax] as complex floats."""
    zz = complex(coerce_coeff(z, "numeric", trunc))
    facts = [1 + 0j]
    zp = facts[0]
    for r in range(1, rmax + 1):
        zp = zp * zz
        facts.append(zp * _inverse_factorial(r, "numeric"))
    while facts and not facts[-1]:
        facts.pop()
    return facts


def star(form: BilinearForm, z, a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b deformed by exp(z P_Lambda); exact, terminating series."""
    a._check(b)
    if form.gens != a.gens or form.domain != a.domain:
        raise IncompatibleError("form and operands over different algebras")
    check_product_size(a, b)
    # the coefficients are exact only up to the smallest truncation in play,
    # z's among them
    trunc = min(a.trunc, b.trunc, form.trunc)
    if a.domain == "formal":
        z = coerce_coeff(z, "formal", trunc)
        trunc = z.trunc
    if not a or not b:
        return Polynomial.zero(a.gens, a.domain, trunc)
    rmax = min(a.degree(), b.degree())
    if a.domain == "formal":
        return a._like(trunc, *_star_formal(form, z, a, b, rmax, trunc))
    zfacts = _z_factors(z, trunc, rmax)
    # the two zero slots of a numeric key would push a packed 2-generator
    # key past one 30-bit int digit, so the kernel runs without them
    out = kernels.star_terms(_complex_entries(form), zfacts, *(
        {k[:-2]: v for k, v in x._data.items()} for x in (a, b)),
        len(zfacts) - 1)
    return a._like(trunc, *num_canonical({k + (0, 0): v
                                          for k, v in out.items()}))


def star_term_count(form: BilinearForm, a: Polynomial, b: Polynomial) -> int:
    """Number of nonzero levels P_Lambda^r(a (x) b), r = 0, 1, ...

    Instruments the termination invariant: the count is at most
    min(deg a, deg b) + 1, with equality for generic data.
    """
    t = TensorSquare.of(a, b)
    count = 0
    while t:
        count += 1
        t = p_lambda(form, t)
    return count


def minus_i_hbar(domain="formal", trunc=DEFAULT_TRUNCATION):
    """The preset deformation parameter z = -i*h (numeric: -i at hbar = 1)."""
    if domain == "formal":
        return FormalScalar.minus_i_hbar(trunc)
    return NumericScalar(0.0, -1.0)


def standard_form(gens, domain="formal", trunc=DEFAULT_TRUNCATION) -> BilinearForm:
    return BilinearForm.standard(gens, domain, trunc)


def weyl_form(gens, domain="formal", trunc=DEFAULT_TRUNCATION) -> BilinearForm:
    return BilinearForm.standard(gens, domain, trunc).antisymmetric_part()


def star_standard(f: Polynomial, g: Polynomial) -> Polynomial:
    """Standard-ordered product: f *_std g = sum_r (z^r/r!) d_p^r f d_q^r g
    with z = -i*h on phase-space generators (q_1..q_n, p_1..p_n)."""
    form = standard_form(f.gens, f.domain, f.trunc)
    return star(form, minus_i_hbar(f.domain, min(f.trunc, g.trunc)), f, g)


def star_weyl(f: Polynomial, g: Polynomial) -> Polynomial:
    """Weyl-ordered product: star with the antisymmetric part of Lambda_std,
    equal to the N-conjugated standard product."""
    form = weyl_form(f.gens, f.domain, f.trunc)
    return star(form, minus_i_hbar(f.domain, min(f.trunc, g.trunc)), f, g)


def poisson_bracket(form: BilinearForm, a: Polynomial, b: Polynomial) -> Polynomial:
    """{a, b}_Lambda = mu(P_Lambda(a (x) b) - P_Lambda(b (x) a)).

    On linear elements {v, w} = Lambda(v, w) - Lambda(w, v); only the
    antisymmetric part of Lambda contributes.
    """
    a._check(b)
    if form.gens != a.gens or form.domain != a.domain:
        raise IncompatibleError("form and operands over different algebras")
    check_product_size(a, b)
    trunc = min(a.trunc, b.trunc, form.trunc)
    if a.domain == "formal":
        dl, entries = _fold(form, FormalScalar.constant(1, trunc), trunc)
        a = a._cut(trunc)
        b = b._cut(trunc)
        return a._like(trunc, *int_canonical(
            kernels.bracket_terms(entries, a._data, b._data),
            dl * a._den * b._den, trunc))
    return a._like(trunc, *num_canonical(kernels.bracket_terms(
        _complex_entries(form), a._data, b._data)))


def poisson_standard(f: Polynomial, g: Polynomial) -> Polynomial:
    """Canonical bracket on phase space: {q_i, p_i} = +1.

    This is poisson_bracket with the transpose of Lambda_std, the bracket the
    z = -i*h presets quantise (see docs/conventions.md).
    """
    form = standard_form(f.gens, f.domain, f.trunc).transpose()
    return poisson_bracket(form, f, g)


def jacobi_defect(bracket, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
    """{{f,g},h} + {{g,h},f} + {{h,f},g} for any bracket callable."""
    return (
        bracket(bracket(f, g), h)
        + bracket(bracket(g, h), f)
        + bracket(bracket(h, f), g)
    )


class OrderingOperator:
    """T = exp(z * Delta_S) with Delta_S = (1/2) sum_ij S_ij d_i d_j.

    S must be symmetric; the exponential series terminates because Delta_S
    lowers total degree by 2. The Neumaier-style operator relating the
    standard and Weyl orderings is n_operator().
    """

    __slots__ = ("sym_form", "z")

    def __init__(self, sym_form: BilinearForm, z):
        if not sym_form.is_symmetric():
            raise IncompatibleError("ordering operator needs a symmetric form")
        zz = coerce_coeff(z, sym_form.domain, sym_form.trunc)
        object.__setattr__(self, "sym_form", sym_form)
        object.__setattr__(self, "z", zz)

    def __setattr__(self, name, value):
        raise AttributeError("OrderingOperator is immutable")

    def _delta(self, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(f.gens, f.domain, f.trunc)
        for i, j, s in self.sym_form.nonzero_entries():
            d = f.partial_derivative(i).partial_derivative(j)
            if d:
                out = out + d * (s * Fraction(1, 2))
        return out

    def apply(self, f: Polynomial) -> Polynomial:
        if f.gens != self.sym_form.gens or f.domain != self.sym_form.domain:
            raise IncompatibleError("operator and operand over different algebras")
        if f.domain == "formal":
            return self._apply_formal(f)
        out = f
        term = f
        k = 0
        zk = f.coerce_scalar(1)
        while True:
            term = self._delta(term)
            if not term:
                break
            k += 1
            zk = zk * self.z
            if not zk:
                break
            out = out + term * (zk * _inverse_factorial(k, f.domain))
        return out

    def _apply_formal(self, f):
        """f + sum_k (z Delta_S)^k f / k! on the stored ints: z * S folded
        once, as star folds z * Lambda, and level k the folded entries times
        the second derivatives of level k-1 over its den * dz * 2 * k."""
        trunc = min(f.trunc, self.z.trunc)
        dz, entries = _fold(self.sym_form, self.z, trunc)
        n = len(f.gens)
        # S is symmetric and d_i d_j = d_j d_i: the entry (i, j), i < j,
        # counts for (j, i) too
        entries = [(i, j, v if i == j else 2 * v, left[n:] if left else (0, 0))
                   for i, j, v, left in entries if i <= j]
        level = f._cut(trunc)
        levels = [(level._den, level._data.items())]
        for k in itertools.count(1):
            out = {}
            for i, j, v, (r, q) in entries:
                d = level.partial_derivative(i).partial_derivative(j)
                c = v * (level._den // d._den)
                accumulate(out, ((e[:-2] + (e[-2] + r, e[-1] + q), c * x)
                                 for e, x in d._data.items()))
            level = f._like(trunc, *int_canonical(
                out, level._den * dz * 2 * k, trunc))
            if not level:
                break
            levels.append((level._den, level._data.items()))
        if len(levels) == 1 and not (self.z._cut(trunc) and self._delta(f)):
            # no level, and no zero z * Delta_S f to add: f stays uncut
            return f
        return f._like(trunc, *stored_sum("formal", levels))

    def inverse(self) -> "OrderingOperator":
        return OrderingOperator(self.sym_form, -self.z)

    def __repr__(self):
        return f"<OrderingOperator z={self.z} S={self.sym_form!r}>"


def ordering_operator(sym_form: BilinearForm, z) -> OrderingOperator:
    return OrderingOperator(sym_form, z)


def n_operator(gens, domain="formal", trunc=DEFAULT_TRUNCATION) -> OrderingOperator:
    """exp(z Delta_S) with S = sym(Lambda_std) and z = -i*h; on one degree of
    freedom this is exp((h/2i) d^2/dq dp), sending standard to Weyl ordering."""
    s = standard_form(gens, domain, trunc).symmetric_part()
    return OrderingOperator(s, minus_i_hbar(domain, trunc))


def apply_equivalence(t: OrderingOperator, form: BilinearForm, z,
                      f: Polynomial, g: Polynomial) -> Polynomial:
    """T^{-1}(Tf * Tg) for T = exp(z_T Delta_S).

    When T's parameter matches z, this equals star(form - S, z, f, g): the
    two products are equivalent via the invertible operator T.
    """
    tf = t.apply(f)
    tg = t.apply(g)
    return t.inverse().apply(star(form, z, tf, tg))
