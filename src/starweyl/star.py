"""Star products for constant bilinear forms on flat space.

The product is mu o exp(z * P_Lambda) applied to a (x) b, where
P_Lambda = sum_ij Lambda_ij d_i (x) d_j contracts one derivative on each
tensor factor. The series terminates at r = min(deg a, deg b). Sign and
orientation conventions (Lambda_std, z = -i*h, bracket normalisation) are
spelled out with derivations in docs/conventions.md; tests pin them.
"""

from __future__ import annotations

import contextvars
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
    coerce_coeffs,
    int_canonical,
    num_canonical,
    stored_canonical,
    stored_encode,
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
        check_product_size(a, b)
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


def p_lambda(form: BilinearForm, t: TensorSquare) -> TensorSquare:
    """One application of P_Lambda = sum_ij Lambda_ij d_i (x) d_j, on the
    stored values: a part (i, j, v, left) of the folded form (_fold) takes
    a term to the left exponents lowered at slot i and the right ones at
    slot j, times v and both exponents, its h and i slots moved by the
    part's."""
    if form.gens != t.gens or form.domain != t.domain:
        raise IncompatibleError("form and tensor square over different algebras")
    trunc = min(t.trunc, form.trunc)
    den, entries = _fold(form, 1, trunc)
    n = len(t.gens)
    steps = [(i, j, v, left[n:] if left else (0, 0))
             for i, j, v, left in entries]
    t = t._cut(trunc)
    return t._canonical(trunc, accumulate({}, (
        ((ea[:i] + (ea[i] - 1,) + ea[i + 1:],
          eb[:j] + (eb[j] - 1,) + eb[j + 1:], r + dr, q + dq),
         c * (v * eb[j]) * ea[i])
        for (ea, eb, r, q), c in t._data.items()
        for i, j, v, (dr, dq) in steps if ea[i] and eb[j])), t._den * den)


def _fold(form, z, trunc):
    """(den, entries): kernel entries of z * Lambda in the stored form.

    z * Lambda is the form's stored values cut at trunc times z's, in its
    canonical form: i^2 = -1 is applied, and parts above h-order trunc,
    which cannot reach the result, are dropped. Each part (i, j, r, q),
    in sorted key order, becomes one entry (i, j, v, left) with value
    v/den; left lowers slot i by one and raises the h and i slots by r and
    q (None when both are 0, as they are for every numeric entry).
    """
    lam = form._cut(trunc)
    dz, zs = stored_encode(form.domain,
                           {(): coerce_coeff(z, form.domain, trunc)}, trunc)
    den, values = stored_canonical(
        form.domain, kernels.scale_terms(lam._data, zs, trunc),
        lam._den * dz, trunc)
    n = len(form.gens)
    entries = []
    for (i, j, r, q), v in sorted(values.items()):
        left = None
        if r or q:
            left = tuple(-1 if k == i else 0 for k in range(n)) + (r, q)
        entries.append((i, j, v, left))
    return den, entries


def _star_formal(form, z, a, b, rmax, trunc, top):
    """Stored form (den, ints) of the formal star product on the kernel's
    window (kernels.star_terms): total degree top (None: any), h-order
    trunc."""
    n = len(a.gens)
    dz, entries = _fold(form, z, trunc)
    a = a._cut(trunc)
    b = b._cut(trunc)
    ea = a._data
    eb = b._data
    if not ea or not eb:
        return 1, {}
    # every level raises the h-order by at least step, and the kernel forms
    # no term past trunc, so no level past room // step has a term
    room = trunc - min(key[n] for key in ea) - min(key[n] for key in eb)
    if not entries:
        rmax = 0
    else:
        step = min(0 if left is None else left[n] for _, _, _, left in entries)
        if step:
            rmax = min(rmax, max(room, 0) // step)
    # level r carries z^r/r!: its weight rmax!/r! * dz^(rmax-r) brings
    # every level over the one denominator rmax! * dz^rmax
    weights = [
        math.factorial(rmax) // math.factorial(r) * dz ** (rmax - r)
        for r in range(rmax + 1)
    ]
    out = kernels.star_terms(entries, weights, ea, eb, rmax,
                             (n, math.inf if top is None else top, trunc))
    return int_canonical(out, a._den * b._den * weights[0], trunc)


def _z_factors(z, trunc, rmax):
    """[z^r / r! for r in 0..rmax] as complex floats: z^r times the
    correctly rounded 1/r!, which is finite (a subnormal, then 0.0) where
    r! has no float."""
    zz = complex(coerce_coeff(z, "numeric", trunc))
    facts = [1 + 0j]
    zp = facts[0]
    for r in range(1, rmax + 1):
        zp = zp * zz
        facts.append(zp * (1 / math.factorial(r)))
    while facts and not facts[-1]:
        facts.pop()
    return facts


# The top degree of the product star is forming: None (the whole product)
# except inside _star_window.
_WINDOW = contextvars.ContextVar("star_window", default=None)


def _operands(form, a, b):
    """The truncation of a product of a and b under form, after checking
    that the three share one algebra and that a and b have at most
    MAX_PRODUCT_PAIRS pairs of terms."""
    a._check(b)
    if form.gens != a.gens or form.domain != a.domain:
        raise IncompatibleError("form and operands over different algebras")
    check_product_size(a, b)
    return min(a.trunc, b.trunc, form.trunc)


def star(form: BilinearForm, z, a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b deformed by exp(z P_Lambda); exact, terminating series."""
    top = _WINDOW.get()
    # the coefficients are exact only up to the smallest truncation in play,
    # z's among them
    trunc = _operands(form, a, b)
    if top is not None and a.domain != "formal":
        raise IncompatibleError("a degree window needs the formal domain")
    if a.domain == "formal":
        z = coerce_coeff(z, "formal", trunc)
        trunc = z.trunc
    if not a or not b:
        return Polynomial.zero(a.gens, a.domain, trunc)
    rmax = min(a.degree(), b.degree())
    if a.domain == "formal":
        return a._like(trunc, *_star_formal(form, z, a, b, rmax, trunc, top))
    return a._like(trunc, *_numeric_form(_star_numeric(
        kernels.star_terms, form, z, a, b, rmax, trunc)))


def _star_numeric(kernel, form, z, a, b, rmax, trunc, *args):
    """kernel(entries, zfacts, a, b, rmax, *args) on numeric operands: the
    form's own entries, the complex level weights z^r/r!, and the stored
    values of a and b under keys without their two zero slots, which would
    push a packed 2-generator key past one 30-bit int digit."""
    zfacts = _z_factors(z, trunc, rmax)
    return kernel(_fold(form, 1, trunc)[1], zfacts, *(
        {k[:-2]: v for k, v in x._data.items()} for x in (a, b)),
        len(zfacts) - 1, *args)


def _numeric_form(out):
    """The numeric stored form of terms a kernel returned on keys without
    the zero slots."""
    return num_canonical({k + (0, 0): v for k, v in out.items()})


def _star_slices(form, z, a, b):
    """{m: slice m} for numeric a and b: slice m is the part of
    star(form, z, a, b) that the pairs of a term of a and a term of b of
    larger degree m contribute, so the slices m <= K add up to the product
    of a and b cut to their terms of degree <= K. The product's checks come
    first, on the whole of a and b, then one kernels.star_slices call."""
    trunc = _operands(form, a, b)
    slices = _star_numeric(kernels.star_slices, form, z, a, b,
                           min(a.degree(), b.degree()), trunc, len(a.gens))
    return {m: a._like(trunc, *_numeric_form(t)) for m, t in slices.items()}


def _star_window(form, z, a, b, top):
    """star(form, z, a, b) cut to its terms of total degree <= top.

    A product the kernel forms, a term of d^mu a times one of B_r[mu], has
    the sum of their degrees, so it forms only those inside the window
    (kernels.star_terms).
    Formal domain only: no numeric caller uses a window. The window
    reaches star through _WINDOW, not an argument, so the product still
    runs as a call of star, with all its checks and inside whatever wraps
    star by name (the star.star span of perfbench/spans.py)."""
    token = _WINDOW.set(top)
    try:
        return star(form, z, a, b)
    finally:
        _WINDOW.reset(token)


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
    """{a, b}_Lambda = mu(P_Lambda(a (x) b) - P_Lambda(b (x) a)), level 1
    of the star kernel under Lambda - Lambda^T, in which the symmetric part
    of Lambda cancels exactly. On linear elements {v, w} = Lambda(v, w) -
    Lambda(w, v)."""
    trunc = _operands(form, a, b)
    dl, entries = _fold(form - form.transpose(), 1, trunc)
    a = a._cut(trunc)
    b = b._cut(trunc)
    return a._canonical(trunc, kernels.star_terms(entries, (0, 1), a._data,
                                                  b._data, 1),
                        dl * a._den * b._den)


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


def _delta_entries(form, z, trunc):
    """(den, entries) of z * S for z Delta_S, Delta_S = (1/2) sum_ij S_ij
    d_i d_j: folded as star folds z * Lambda, each entry (i, j, v, (r, q))
    with its h and i raises. S is symmetric and d_i d_j = d_j d_i, so an
    entry (i, j), i < j, counts for (j, i) too: it is taken once, doubled."""
    den, entries = _fold(form, z, trunc)
    n = len(form.gens)
    return den, [(i, j, v if i == j else 2 * v, left[n:] if left else (0, 0))
                 for i, j, v, left in entries if i <= j]


def _exp_levels(f, den, entries, trunc):
    """The stored forms (den, items) of the nonzero levels D^k f / k! of
    exp(D) f, f cut at trunc, D = z Delta_S for (den, entries) those of
    z * S (_delta_entries): level k the second derivatives of level k-1,
    each times an entry's value and moved by its h and i raises, over its
    den * den * 2 * k."""
    level = f._cut(trunc)
    levels = [(level._den, level._data.items())]
    for k in itertools.count(1):
        out = {}
        for i, j, v, (r, q) in entries:
            d = level.partial_derivative(i).partial_derivative(j)
            c = v * (level._den // d._den)
            accumulate(out, ((e[:-2] + (e[-2] + r, e[-1] + q), c * x)
                             for e, x in d._data.items()))
        level = f._canonical(trunc, out, level._den * den * 2 * k)
        if not level:
            return levels
        levels.append((level._den, level._data.items()))


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

    def apply(self, f: Polynomial) -> Polynomial:
        """f + sum_k (z Delta_S)^k f / k! on the stored values: z * S folded
        once, as star folds z * Lambda, and level k the folded entries times
        the second derivatives of level k-1 over its den * dz * 2 * k."""
        if f.gens != self.sym_form.gens or f.domain != self.sym_form.domain:
            raise IncompatibleError("operator and operand over different algebras")
        (z,), trunc = coerce_coeffs([self.z], f.domain, f.trunc)
        levels = _exp_levels(f, *_delta_entries(self.sym_form, z, trunc),
                             trunc)
        if len(levels) > 1:
            return f._like(trunc, *stored_sum(f.domain, levels))
        # no level: f is the result through trunc, and below the first
        # order at which Delta_S f can be nonzero for an S and f that agree
        # with the known ones. An order of S past its truncation meets a
        # term of degree 2 or more at h-order low or above, and an order of
        # f lies past f's truncation, so through known Delta_S f is that of
        # the known orders. The orders of z are not counted, so the label
        # only grows as the inputs become known further.
        low = min((e[-2] for e in f._data if sum(e[:-2]) > 1),
                  default=f.trunc + 1)
        known = min(f.trunc, self.sym_form.trunc + low)
        delta = _exp_levels(f, *_delta_entries(self.sym_form, 1, known), known)
        first = min((e[-2] for _, items in delta[1:2] for e, _ in items),
                    default=known + 1)
        return f._cut(max(trunc, first - 1))

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
