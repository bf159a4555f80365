"""Star products for constant bilinear forms on flat space.

The product is mu o exp(z * P_Lambda) applied to a (x) b, where
P_Lambda = sum_ij Lambda_ij d_i (x) d_j contracts one derivative on each
tensor factor. The series terminates at r = min(deg a, deg b). Sign and
orientation conventions (Lambda_std, z = -i*h, bracket normalisation) are
spelled out with derivations in docs/conventions.md; tests pin them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from . import kernels
from .errors import IncompatibleError, TruncationError
from .poly import Generators, Polynomial, _coerce_coeff, accumulate, merge_terms
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GaussianRational,
    NumericScalar,
)


class BilinearForm:
    """Constant bilinear form on the span of the generators.

    matrix[i][j] is Lambda(e_i, e_j), a scalar in the given domain.
    """

    __slots__ = ("gens", "domain", "trunc", "matrix")

    def __init__(self, gens, matrix, domain="formal", trunc=DEFAULT_TRUNCATION):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        n = len(gens)
        rows = []
        if len(matrix) != n:
            raise ValueError(f"matrix must be {n}x{n}")
        for row in matrix:
            if len(row) != n:
                raise ValueError(f"matrix must be {n}x{n}")
            rows.append(tuple(_coerce_coeff(c, domain, trunc) for c in row))
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "matrix", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

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
    def entry(self, i, j):
        return self.matrix[i][j]

    def nonzero_entries(self):
        out = []
        for i, row in enumerate(self.matrix):
            for j, c in enumerate(row):
                if c:
                    out.append((i, j, c))
        return out

    def value(self, v, w):
        """Lambda(v, w) for coefficient vectors v, w."""
        n = len(self.gens)
        if len(v) != n or len(w) != n:
            raise ValueError("vector length mismatch")
        vv = [_coerce_coeff(x, self.domain, self.trunc) for x in v]
        ww = [_coerce_coeff(x, self.domain, self.trunc) for x in w]
        total = _coerce_coeff(0, self.domain, self.trunc)
        for i, j, lam in self.nonzero_entries():
            total = total + vv[i] * lam * ww[j]
        return total

    # -- algebra ---------------------------------------------------------------
    def _map(self, fn):
        return BilinearForm(
            self.gens,
            [[fn(c, i, j) for j, c in enumerate(row)] for i, row in enumerate(self.matrix)],
            self.domain,
            self.trunc,
        )

    def transpose(self):
        n = len(self.gens)
        return BilinearForm(
            self.gens,
            [[self.matrix[j][i] for j in range(n)] for i in range(n)],
            self.domain,
            self.trunc,
        )

    def __add__(self, other):
        self._check(other)
        return self._map(lambda c, i, j: c + other.matrix[i][j])

    def __sub__(self, other):
        self._check(other)
        return self._map(lambda c, i, j: c - other.matrix[i][j])

    def __neg__(self):
        return self._map(lambda c, i, j: -c)

    def _half(self, c):
        return c * Fraction(1, 2) if self.domain == "formal" else c * 0.5

    def symmetric_part(self):
        return self._map(lambda c, i, j: self._half(c + self.matrix[j][i]))

    def antisymmetric_part(self):
        return self._map(lambda c, i, j: self._half(c - self.matrix[j][i]))

    def is_symmetric(self):
        n = len(self.gens)
        return all(
            self.matrix[i][j] == self.matrix[j][i] for i in range(n) for j in range(n)
        )

    def is_antisymmetric(self):
        n = len(self.gens)
        return all(
            self.matrix[i][j] == -self.matrix[j][i] for i in range(n) for j in range(n)
        )

    def _check(self, other):
        if not isinstance(other, BilinearForm):
            raise TypeError("expected a BilinearForm")
        if self.gens != other.gens or self.domain != other.domain:
            raise IncompatibleError("bilinear forms over different algebras")

    def __eq__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.domain == other.domain
            and self.matrix == other.matrix
        )

    __hash__ = None

    # -- JSON ---------------------------------------------------------------------
    def to_json(self) -> dict:
        if self.domain == "formal":
            mat = [[c.canonical() for c in row] for row in self.matrix]
        else:
            mat = [[[c.val.real, c.val.imag] for c in row] for row in self.matrix]
        return {"generators": list(self.gens.names), "matrix": mat}

    @classmethod
    def from_json(cls, d, gens=None, domain="formal", trunc=DEFAULT_TRUNCATION):
        from .parse import scalar_from_text

        if gens is None:
            gens = Generators(d["generators"])
        elif not isinstance(gens, Generators):
            gens = Generators(gens)
        rows = []
        for row in d["matrix"]:
            cells = []
            for c in row:
                if isinstance(c, str):
                    cells.append(scalar_from_text(c, domain, trunc))
                elif isinstance(c, (list, tuple)):
                    cells.append(NumericScalar(c[0], c[1]))
                else:
                    cells.append(c)
            rows.append(cells)
        return cls(gens, rows, domain, trunc)

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(c) for c in row) for row in self.matrix
        )
        return f"<BilinearForm [{rows}] over {list(self.gens.names)}>"


class TensorSquare:
    """Element of Sym(V) (x) Sym(V), sparse over exponent-tuple pairs."""

    __slots__ = ("gens", "domain", "trunc", "terms")

    def __init__(self, gens, terms, domain="formal", trunc=DEFAULT_TRUNCATION,
                 _clean=False):
        if not isinstance(gens, Generators):
            gens = Generators(gens)
        if _clean:
            cl = terms
        else:
            cl = {}
            for key, c in terms.items():
                ea, eb = tuple(key[0]), tuple(key[1])
                cc = _coerce_coeff(c, domain, trunc)
                if cc:
                    cl[(ea, eb)] = cc
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", cl)

    def __setattr__(self, name, value):
        raise AttributeError("TensorSquare is immutable")

    @classmethod
    def of(cls, a: Polynomial, b: Polynomial) -> "TensorSquare":
        a._check_compatible(b)
        return cls(a.gens, _tensor_terms(a.terms, b.terms), a.domain,
                   min(a.trunc, b.trunc), _clean=True)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, TensorSquare):
            return NotImplemented
        if self.gens != other.gens or self.domain != other.domain:
            raise IncompatibleError("tensor squares over different algebras")
        out, trunc = merge_terms(self, other)
        return TensorSquare(self.gens, out, self.domain, trunc, _clean=True)

    def __neg__(self):
        return TensorSquare(
            self.gens,
            {k: -c for k, c in self.terms.items()},
            self.domain,
            self.trunc,
            _clean=True,
        )

    def __sub__(self, other):
        if not isinstance(other, TensorSquare):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TensorSquare):
            return NotImplemented
        return (
            self.gens == other.gens
            and self.domain == other.domain
            and self.terms == other.terms
        )

    __hash__ = None

    def mu(self) -> Polynomial:
        """Multiplication map a (x) b -> a*b."""
        return Polynomial(self.gens, _mu_terms(self.terms), self.domain,
                          self.trunc, _clean=True)


def _tensor_terms(a, b):
    """Term dict of a (x) b."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            v = ca * cb
            if v:
                out[(ea, eb)] = v
    return out


def _mu_terms(t):
    """Term dict of mu(t) for a tensor-square term dict t."""
    return accumulate({}, ((tuple(map(add, ea, eb)), c) for (ea, eb), c in t.items()))


def _plain_entries(form):
    """Kernel entries of the form's own coefficients, without slot shifts."""
    return [(i, j, lam, None) for i, j, lam in form.nonzero_entries()]


def p_lambda(form: BilinearForm, t: TensorSquare) -> TensorSquare:
    """One application of P_Lambda = sum_ij Lambda_ij d_i (x) d_j."""
    if form.gens != t.gens or form.domain != t.domain:
        raise IncompatibleError("form and tensor square over different algebras")
    out = kernels.p_lambda_terms(_plain_entries(form), t.terms)
    return TensorSquare(t.gens, out, t.domain, t.trunc, _clean=True)


# -- the integer encoding of the formal domain ----------------------------------
#
# A formal coefficient sum_r (x_r + y_r i) h^r is stored as integer terms
# under one denominator per operand: the monomial's exponent tuple gets two
# extra slots, the power of h and the power of i, so x_r h^r becomes the key
# exp + (r, 0) and y_r i h^r the key exp + (r, 1). The kernels add slots
# when they multiply, like any exponent. Z[i] = Z[x]/(x^2 + 1) and
# Z[h]/(h^(T+1)) are quotient rings, so reducing the power of i mod 4 and
# dropping h-orders above T once, when the result is decoded, gives what
# reducing after every step would.


def _parts(c, trunc):
    """(h-order, i-power, rational) parts of a formal scalar up to trunc."""
    out = []
    for r, g in c.coeffs.items():
        if r <= trunc:
            if g.re:
                out.append((r, 0, g.re))
            if g.im:
                out.append((r, 1, g.im))
    return out


def _encode(terms, trunc):
    """(den, {exp + (r, q): n}) with terms = sum n/den h^r i^q x^exp."""
    parts = [(e, _parts(c, trunc)) for e, c in terms.items()]
    den = math.lcm(*(x.denominator for _, ps in parts for _, _, x in ps))
    out = {}
    for e, ps in parts:
        for r, q, x in ps:
            out[e + (r, q)] = x.numerator * (den // x.denominator)
    return den, out


def _fold(form, z, trunc):
    """(den, entries): kernel entries of z * Lambda in the integer encoding.

    Each part of z * Lambda_ij becomes one entry (i, j, n, left) with value
    n/den; left lowers slot i by one and raises the h and i slots by the
    part's orders (None when both are 0). i^2 = -1 is applied here, so the
    i slot rises by 0 or 1. Parts above h-order trunc cannot reach the
    result and are dropped.
    """
    zparts = _parts(z, trunc)
    acc = {}
    for i, j, lam in form.nonzero_entries():
        for r1, q1, x in _parts(lam, trunc):
            for r2, q2, y in zparts:
                r, q, v = r1 + r2, q1 + q2, x * y
                if r > trunc:
                    continue
                if q == 2:
                    q, v = 0, -v
                key = (i, j, r, q)
                acc[key] = acc.get(key, 0) + v
    acc = {key: v for key, v in acc.items() if v}
    den = math.lcm(*(v.denominator for v in acc.values()))
    n = len(form.gens)
    entries = []
    for (i, j, r, q), v in acc.items():
        left = None
        if r or q:
            left = tuple(-1 if k == i else 0 for k in range(n)) + (r, q)
        entries.append((i, j, v.numerator * (den // v.denominator), left))
    return den, entries


def _decode(out, den, n, trunc):
    """Formal term dict of the integer terms out, read over den."""
    parts = {}
    for key, v in out.items():
        r = key[n]
        if r > trunc:
            continue
        q = key[n + 1] & 3
        slot = parts.setdefault(key[:n], {}).setdefault(r, [0, 0])
        slot[q & 1] += -v if q & 2 else v
    terms = {}
    for e, orders in parts.items():
        coeffs = {
            r: GaussianRational(Fraction(re, den), Fraction(im, den))
            for r, (re, im) in orders.items()
            if re or im
        }
        if coeffs:
            terms[e] = FormalScalar(coeffs, trunc, _clean=True)
    return terms


def _encode_operands(form, z, a, b):
    """trunc, (den, entries) of z * Lambda, and (den, terms) of a and of b,
    encoded at trunc, the smallest truncation in play."""
    trunc = min(a.trunc, b.trunc, form.trunc)
    return (
        trunc,
        _fold(form, _coerce_coeff(z, "formal", trunc), trunc),
        _encode(a.terms, trunc),
        _encode(b.terms, trunc),
    )


def _star_formal(form, z, a, b, rmax):
    """Term dict of the formal star product, on integer coefficients."""
    n = len(a.gens)
    trunc, (dz, entries), (da, ea), (db, eb) = _encode_operands(form, z, a, b)
    if not ea or not eb:
        return {}
    room = trunc - min(key[n] for key in ea) - min(key[n] for key in eb)
    if room < 0:
        return {}
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
    return _decode(out, da * db * weights[0], n, trunc)


def _z_factors(z, trunc, rmax):
    """[z^r / r! for r in 0..rmax] in the numeric domain."""
    zz = _coerce_coeff(z, "numeric", trunc)
    facts = [NumericScalar(1.0)]
    zp = facts[0]
    for r in range(1, rmax + 1):
        zp = zp * zz
        facts.append(zp * (1.0 / math.factorial(r)))
    while facts and not facts[-1]:
        facts.pop()
    return facts


def star(form: BilinearForm, z, a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b deformed by exp(z P_Lambda); exact, terminating series."""
    a._check_compatible(b)
    if form.gens != a.gens or form.domain != a.domain:
        raise IncompatibleError("form and operands over different algebras")
    trunc = min(a.trunc, b.trunc)
    if not a.terms or not b.terms:
        return Polynomial.zero(a.gens, a.domain, trunc)
    rmax = min(a.degree(), b.degree())
    if a.domain == "formal":
        out = _star_formal(form, z, a, b, rmax)
    else:
        zfacts = _z_factors(z, min(trunc, form.trunc), rmax)
        out = kernels.star_terms(
            _plain_entries(form), zfacts, a.terms, b.terms, len(zfacts) - 1
        )
    return Polynomial(a.gens, out, a.domain, trunc, _clean=True)


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
    a._check_compatible(b)
    if form.gens != a.gens or form.domain != a.domain:
        raise IncompatibleError("form and operands over different algebras")
    trunc = min(a.trunc, b.trunc)
    if a.domain == "formal":
        t, (dl, entries), (da, ea), (db, eb) = _encode_operands(form, 1, a, b)
        out = _decode(_bracket_terms(entries, ea, eb), dl * da * db, len(a.gens), t)
    else:
        out = _bracket_terms(_plain_entries(form), a.terms, b.terms)
    return Polynomial(a.gens, out, a.domain, trunc, _clean=True)


def _bracket_terms(entries, a, b):
    """Term dict of mu(P(a (x) b) - P(b (x) a))."""
    t = kernels.p_lambda_terms(entries, _tensor_terms(a, b))
    rhs = kernels.p_lambda_terms(entries, _tensor_terms(b, a))
    accumulate(t, ((key, -c) for key, c in rhs.items()))
    return _mu_terms(t)


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


def hbar_coefficient(a: Polynomial, r: int) -> Polynomial:
    """Coefficient of h^r of a formal polynomial (constant coefficients)."""
    return a.hbar_coefficient(r)


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
        zz = _coerce_coeff(z, sym_form.domain, sym_form.trunc)
        object.__setattr__(self, "sym_form", sym_form)
        object.__setattr__(self, "z", zz)

    def __setattr__(self, name, value):
        raise AttributeError("OrderingOperator is immutable")

    def _delta(self, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(f.gens, f.domain, f.trunc)
        half = Fraction(1, 2) if f.domain == "formal" else 0.5
        for i, j, s in self.sym_form.nonzero_entries():
            d = f.partial_derivative(i).partial_derivative(j)
            if d:
                out = out + d * (s * half)
        return out

    def apply(self, f: Polynomial) -> Polynomial:
        if f.gens != self.sym_form.gens or f.domain != self.sym_form.domain:
            raise IncompatibleError("operator and operand over different algebras")
        out = f
        term = f
        k = 0
        zk = f.scalar_one()
        while True:
            term = self._delta(term)
            if not term:
                break
            k += 1
            zk = zk * self.z
            if not zk:
                break
            if f.domain == "formal":
                coeff = zk * GaussianRational(Fraction(1, math.factorial(k)))
            else:
                coeff = zk * (1.0 / math.factorial(k))
            out = out + term * coeff
        return out

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
