"""Scalar domains: exact Gaussian rationals, truncated formal power series in
hbar, and finiteness-checked complex doubles.

Every coefficient in the package is one of these three. The formal series
scalar is the default: arithmetic is exact, hbar ("h" in text form) is a
nilpotent-beyond-truncation bookkeeping parameter, and conjugation fixes h
while flipping i.

Only this module knows how the "formal" and "numeric" domains build
(coerce_coeff), write (to_json, term_text) and store a coefficient: ints
(int_encode/int_canonical/int_decode) or complex values (num_canonical)
under keys with h and i slots, reached through the stored_* functions.
parse.py reads a coefficient back.

TermSum, the immutable term sum that every algebra element derives from,
lives here next to the stored form it owns: a FormalScalar is itself the
term sum over no generators, so its h-series arithmetic is the term sums'.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import kernels
from .errors import IncompatibleError, NonFiniteError, TruncationError

DEFAULT_TRUNCATION = 8


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _ratio(n, d):
    """n/d, d > 0, in lowest terms as (numerator, denominator)."""
    g = math.gcd(n, d)
    return n // g, d // g


def _ratio_text(n, d, explicit_den=False):
    """Canonical "p/q" rendering of n/d; "p" for an integer unless
    explicit_den."""
    n, d = _ratio(n, d)
    return f"{n}/{d}" if explicit_den or d != 1 else str(n)


def _gaussian_text(re, im, den):
    """Canonical text of (re + im*i)/den: "p/q" when real, "a/b+c/d*i"
    otherwise."""
    if not im:
        return _ratio_text(re, den)
    sign = "-" if im < 0 else "+"
    return (f"{_ratio_text(re, den, True)}{sign}"
            f"{_ratio_text(abs(im), den, True)}*i")


class GaussianRational:
    """Exact complex rational a + b*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates -------------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    # -- conversions ------------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    # -- comparison / hashing ----------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text ---------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text: "p/q" when real, "a/b+c/d*i" otherwise."""
        re, im = self.re, self.im
        den = math.lcm(re.denominator, im.denominator)
        return _gaussian_text(re.numerator * (den // re.denominator),
                              im.numerator * (den // im.denominator), den)

    def __str__(self):
        return self.canonical()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _coerce_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


# -- term sums ---------------------------------------------------------------


def accumulate(out, items):
    """Add (key, coefficient) pairs into the term dict out; returns out. A
    key's first coefficient is stored as it is, not added to int 0 (which
    would build a FormalScalar per sum). A sum that vanishes keeps its
    slot: the stored form's reduce step (int_reduce, stored_reduce) drops
    it."""
    for key, c in items:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return out


class TermSum:
    """Immutable finite sum of terms, key -> nonzero coefficient.

    The attributes named in _space (with the domain) say where the terms
    live; two sums combine only over the same space. trunc is the h-order
    the formal coefficients are known to: a sum, a scaling or a constructor
    that meets a coefficient of smaller truncation takes that truncation,
    and no coefficient is kept above it. A subclass supplies its __init__
    (which calls _fill), _key, _check or _mismatch, _sort_key and
    _monomial_text, its products and its JSON; _coerce says which other
    operands +, - and == accept (by default a sum of the same type).

    A sum stores the canonical pair (_den, _data) of the stored form below,
    equal for equal sums: _data maps key + (h-order, i-power) to a nonzero
    int, or in the numeric domain to a complex value over _den 1. The
    operations read and write that pair alike in both domains through the
    stored_* functions; .terms decodes it into coefficient objects on each
    access.
    """

    __slots__ = ("trunc", "_den", "_data")

    def _fill(self, terms, trunc, clean):
        """Store terms (a {key: coefficient} dict); unless clean, validate
        every key with _key, coerce every coefficient and add the ones
        whose keys coincide. The stored form drops a zero coefficient."""
        if terms is None:
            terms = {}
        if not clean:
            coeffs, trunc = coerce_coeffs(terms.values(), self.domain, trunc)
            terms = accumulate({}, zip(map(self._key, terms), coeffs))
        self._store(trunc, *stored_encode(self.domain, terms, trunc))

    def _store(self, trunc, den, data):
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _build(cls, space, trunc, den, data):
        """A sum over the space (the values of _space) storing (den, data),
        which must be in the stored form."""
        new = object.__new__(cls)
        for name, value in zip(cls._space, space):
            object.__setattr__(new, name, value)
        new._store(trunc, den, data)
        return new

    def _like(self, trunc, den, data):
        """A sum over the space of self storing (den, data)."""
        return self._build([getattr(self, n) for n in self._space],
                           trunc, den, data)

    @property
    def terms(self):
        """The terms as a new {key: coefficient} dict."""
        return stored_decode(self.domain, self._data, self._den, self.trunc)

    def _canonical(self, trunc, out, den):
        """A sum over the space of self of the slotted terms out over den."""
        return self._like(trunc, *stored_canonical(self.domain, out, den,
                                                   trunc))

    def _cut(self, trunc):
        """self with every formal coefficient cut to h-order trunc."""
        if trunc >= self.trunc:
            return self
        return self._canonical(trunc, self._data, self._den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self._data)

    def _check(self, other):
        if any(getattr(self, n) != getattr(other, n) for n in self._space):
            raise IncompatibleError(self._mismatch)

    def _coerce(self, other):
        """other as a sum to combine with self, None when it is not one."""
        return other if isinstance(other, type(self)) else None

    def coerce_scalar(self, c):
        return coerce_coeff(c, self.domain, self.trunc)

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        a = self._cut(trunc)
        b = other._cut(trunc)
        return self._like(trunc, *stored_sum(self.domain, [
            (a._den, a._data.items()), (b._den, b._data.items())]))

    __radd__ = __add__

    def __neg__(self):
        # 0 - c, not -c: a zero part of a complex value stays +0.0
        return self._like(self.trunc, self._den,
                          {k: 0 - c for k, c in self._data.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, c):
        """self times the scalar c (TypeError when c is not one)."""
        (c,), trunc = coerce_coeffs([c], self.domain, self.trunc)
        # the terms over one denominator, c over another
        dc, s = stored_encode(self.domain, {(): c}, trunc)
        return self._canonical(trunc, kernels.scale_terms(self._data, s, trunc),
                               self._den * dc)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(
            getattr(self, n) == getattr(other, n) for n in self._space
        ) and self._den == other._den and self._data == other._data

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


class FormalScalar(TermSum):
    """Polynomial in hbar truncated at order N; coefficients Gaussian rational.

    Orders 0..N are retained; products silently drop anything beyond N (that
    is the quotient-ring semantics, not data loss). Operations on operands
    with different truncations take the minimum.

    The term sum over no generators: sum n/den h^r i^q is stored as
    (den, {(r, q): n}) and computed on like every other term sum. An int, a
    Fraction or a GaussianRational operand of +, - and == is the constant.
    """

    __slots__ = ()
    _space = ()
    domain = "formal"

    def __init__(self, coeffs=None, trunc: int = DEFAULT_TRUNCATION, _clean=False):
        """The series sum_r coeffs[r] h^r cut at order trunc; each
        coefficient an int, a Fraction or a GaussianRational. _clean is
        accepted and changes nothing: every coefficient is converted."""
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        parts = {}
        for r, c in (coeffs or {}).items():
            if not isinstance(r, int) or r < 0:
                raise ValueError(f"bad hbar order {r!r}")
            g = _coerce_gaussian(c)
            if g is None:
                raise TypeError(f"bad coefficient {c!r}")
            if r <= trunc:
                parts[(r,)] = g
        self._store(trunc, *int_gaussians(parts))

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, c, trunc: int = DEFAULT_TRUNCATION) -> "FormalScalar":
        return cls({0: c}, trunc)

    @classmethod
    def hbar(cls, trunc: int = DEFAULT_TRUNCATION) -> "FormalScalar":
        return cls({1: 1}, trunc)

    @classmethod
    def minus_i_hbar(cls, trunc: int = DEFAULT_TRUNCATION) -> "FormalScalar":
        """The physics deformation parameter z = -i*h."""
        return cls({1: GaussianRational(0, -1)}, trunc)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return FormalScalar({0: other}, self.trunc)
        return super()._coerce(other)

    # -- the decoded views ----------------------------------------------------
    def _orders(self):
        """{h-order: [re, im]} of the stored ints, in stored order."""
        out = {}
        for (r, q), v in self._data.items():
            out.setdefault(r, [0, 0])[q] = v
        return out

    @property
    def coeffs(self):
        """The coefficients as a new {h-order: GaussianRational} dict, in
        stored order."""
        den = self._den
        return {r: GaussianRational(Fraction(re, den), Fraction(im, den))
                for r, (re, im) in self._orders().items()}

    def coefficient(self, r: int) -> GaussianRational:
        if r > self.trunc:
            raise TruncationError(
                f"order {r} exceeds truncation {self.trunc}"
            )
        return self.coeffs.get(r, GR_ZERO)

    # -- ring operations ------------------------------------------------------
    def __mul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = self._like(self.trunc, 1, {(0, 0): 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self) -> "FormalScalar":
        """Involutive ring morphism: i -> -i, h -> h."""
        return self._like(self.trunc, self._den,
                          stored_conjugate(self.domain, self._data))

    def truncate(self, n: int) -> "FormalScalar":
        return self._canonical(n, self._data, self._den)

    # -- conversions ------------------------------------------------------------
    def eval_at(self, hbar: float = 1.0) -> complex:
        """Evaluate at a real value of hbar (int_value_at)."""
        return int_value_at(self._orders(), self._den, hbar)

    # -- text -----------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text "c0 + c1*h + c2*h^2" with ascending orders."""
        return _series_text(self._orders(), self._den)

    def __str__(self):
        return self.canonical()

    def to_json(self) -> str:
        return self.canonical()

    def __repr__(self):
        return f"FormalScalar({self.coeffs!r}, trunc={self.trunc})"


def _coeff_factor(re, im, den):
    """Render the Gaussian rational (re + im*i)/den as a product factor.

    Returns (negated, text) where text is None for magnitude 1 (the factor
    is dropped entirely) and is already parenthesised when it contains a sum.
    """
    if not im:
        n, d = _ratio(abs(re), den)
        if n == d:
            return re < 0, None
        return re < 0, str(n) if d == 1 else f"({n}/{d})"
    if not re:
        n, d = _ratio(abs(im), den)
        if n == d:
            return im < 0, "i"
        return im < 0, f"{n}*i" if d == 1 else f"({n}/{d})*i"
    return False, f"({_gaussian_text(re, im, den)})"


def _series_text(orders, den):
    """Canonical text of sum_r (re_r + im_r*i)/den h^r, orders mapping r to
    [re_r, im_r]: ascending orders, order 0 in the scalar grammar."""
    parts = []
    for r in sorted(orders):
        re, im = orders[r]
        if r == 0:
            parts.append((False, _gaussian_text(re, im, den)))
            continue
        h = "h" if r == 1 else f"h^{r}"
        neg, mag = _coeff_factor(re, im, den)
        parts.append((neg, h if mag is None else f"{mag}*{h}"))
    return join_terms(parts)


def term_text(c, mono: str):
    """(negated, text) of the term c * mono in the expression grammar.

    c is a FormalScalar or a NumericScalar and mono the text of the
    monomial, "" for the unit; the text parses back to the same term.
    """
    if isinstance(c, NumericScalar):
        txt = f"({c.val.real!r}{c.val.imag:+}j)"
        return False, f"{txt}*{mono}" if mono else txt
    orders = c._orders()
    if len(orders) > 1:
        txt = f"({_series_text(orders, c._den)})"
        return False, f"{txt}*{mono}" if mono else txt
    ((r, (re, im)),) = orders.items()
    neg, mag = _coeff_factor(re, im, c._den)
    factors = [] if mag is None else [mag]
    if r:
        factors.append("h" if r == 1 else f"h^{r}")
    if mono:
        factors.append(mono)
    return neg, "*".join(factors) or "1"

def join_terms(pieces) -> str:
    """Join (negated, text) pieces into "a - b + c"; "0" for no pieces."""
    chunks = []
    for neg, text in pieces:
        if chunks:
            chunks.append(f" - {text}" if neg else f" + {text}")
        else:
            chunks.append(f"-{text}" if neg else text)
    return "".join(chunks) or "0"


class NumericScalar:
    """Complex double that refuses to become inf or nan."""

    __slots__ = ("val",)

    def __init__(self, re=0.0, im=0.0):
        # adding +0.0 writes a -0.0 part as +0.0 (docs/conventions.md
        # section 14), however the value was given
        if isinstance(re, complex):
            v = re + 1j * im
        else:
            v = complex(float(re) + 0.0, float(im) + 0.0)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonFiniteError(f"non-finite numeric scalar {v!r}")
        object.__setattr__(self, "val", v)

    def __setattr__(self, name, value):
        raise AttributeError("NumericScalar is immutable")

    def _coerce(self, other):
        if isinstance(other, NumericScalar):
            return other.val
        if isinstance(other, (int, float, complex, Fraction)):
            return complex(other)
        if isinstance(other, GaussianRational):
            return other.to_complex()
        return None

    def __bool__(self):
        return self.val != 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumericScalar(self.val + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumericScalar(self.val - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumericScalar(o - self.val)

    def __neg__(self):
        return NumericScalar(-self.val)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumericScalar(self.val * o)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return NumericScalar(self.val**k)

    def conjugate(self):
        return NumericScalar(self.val.conjugate())

    def __abs__(self) -> float:
        return abs(self.val)

    def __complex__(self) -> complex:
        return self.val

    def eval_at(self, hbar: float = 1.0) -> complex:
        return self.val

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.val == o

    def __hash__(self):
        return hash(self.val)

    def __str__(self):
        return repr(self.val)

    def to_json(self) -> list:
        return [self.val.real, self.val.imag]

    def __repr__(self):
        return f"NumericScalar({self.val!r})"


# -- coefficients of a domain ---------------------------------------------------


def coerce_coeff(c, domain, trunc):
    """c as a coefficient of the domain, cut to h-order trunc; a formal
    coefficient known to fewer orders keeps its own truncation."""
    if domain == "formal":
        if isinstance(c, FormalScalar):
            return c if c.trunc <= trunc else c.truncate(trunc)
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


def coerce_coeffs(values, domain, trunc):
    """(coefficients, truncation) of values in the domain.

    The truncation is the smallest of trunc and those of the formal values,
    and every coefficient is cut to it: nothing built from a value known to
    h^n claims to know h^(n+1).
    """
    cs = [coerce_coeff(c, domain, trunc) for c in values]
    if domain == "formal":
        low = min((c.trunc for c in cs), default=trunc)
        if low < trunc:
            trunc = low
            cs = [c if c.trunc == low else c.truncate(low) for c in cs]
    return cs, trunc


# -- the integer encoding of the formal domain ----------------------------------
#
# A formal coefficient sum_r (x_r + y_r i) h^r is stored as integer terms
# under one denominator per operand: the monomial's exponent tuple gets two
# extra slots, the power of h and the power of i, so x_r h^r becomes the key
# exp + (r, 0) and y_r i h^r the key exp + (r, 1). The kernels add slots
# when they multiply, like any exponent. Z[i] = Z[x]/(x^2 + 1) and
# Z[h]/(h^(T+1)) are quotient rings, so reducing the power of i mod 4 and
# dropping h-orders above T once, when a kernel's result is brought to the
# canonical form (int_canonical), gives what reducing after every step
# would. A formal term sum stores its terms in that form, and a
# FormalScalar is the one whose exponent tuples are empty.


def int_encode(terms, trunc):
    """(den, {exp + (r, q): n}) with terms = sum n/den h^r i^q x^exp, the
    h-orders above trunc dropped: the stored ints of each coefficient cut
    at trunc, brought over the lcm of their denominators."""
    cut = {e: c._cut(trunc) for e, c in terms.items()}
    den = math.lcm(*(c._den for c in cut.values()))
    return den, {e + key: v * (den // c._den)
                 for e, c in cut.items() for key, v in c._data.items()}


def int_gaussians(parts):
    """The canonical form (den, {key + (q,): n}) of {key: GaussianRational}:
    each nonzero real (q = 0) and imaginary (q = 1) part over the lcm of
    the denominators of the parts in lowest terms, which is reduced."""
    fracs = {key + (q,): x for key, g in parts.items()
             for q, x in ((0, g.re), (1, g.im)) if x}
    den = math.lcm(*(x.denominator for x in fracs.values()))
    return den, {key: x.numerator * (den // x.denominator)
                 for key, x in fracs.items()}


def int_reduce(den, terms):
    """(den, terms) with the zero ints dropped and den and the rest divided
    by their gcd: the one place where a formal sum that vanished leaves
    the stored form. terms is copied only when it holds a zero or the gcd
    is not 1."""
    if not all(terms.values()):
        terms = {key: v for key, v in terms.items() if v}
    g = math.gcd(den, *terms.values())
    if g == 1:
        return den, terms
    return den // g, {key: v // g for key, v in terms.items()}


def int_canonical(out, den, trunc):
    """The canonical form (den, ints) of the integer terms out read over
    den: i-powers folded mod 4 to 0 or 1, h-orders above trunc dropped,
    then int_reduce. int_encode writes this form, and two term sums are
    equal exactly when their forms are."""
    t = {}
    for key, v in out.items():
        if key[-2] > trunc:
            continue
        q = key[-1]
        if q > 1:
            if q & 2:
                v = -v
            key = key[:-1] + (q & 1,)
        t[key] = t.get(key, 0) + v
    return int_reduce(den, t)


def int_groups(ints):
    """{term key: {h-order: [re, im]}} of canonical ints, in their order.
    The last two slots of a key are the h and i powers, so the term keys
    before them may have any length (PBW monomials do)."""
    parts = {}
    for key, v in ints.items():
        parts.setdefault(key[:-2], {}).setdefault(key[-2], [0, 0])[key[-1]] = v
    return parts


def int_value_at(orders, den, hbar):
    """The complex value at hbar of sum_r (re + i*im)/den * h^r for orders
    {r: [re, im]} (as int_groups gives them), the h-orders added in
    ascending order, so equal series give equal values however they are
    stored; int / int rounds as float(Fraction) does."""
    z = 0j
    for r, (re, im) in sorted(orders.items()):
        z += complex(re / den, im / den) * hbar**r
    return z


def int_decode(ints, den, trunc):
    """Formal term dict of the canonical form (den, ints), in its order."""
    parts = {}
    for key, v in ints.items():
        parts.setdefault(key[:-2], {})[key[-2:]] = v
    return {e: FormalScalar._build((), trunc, *int_reduce(den, part))
            for e, part in parts.items()}


# -- the stored form of either domain -------------------------------------------
#
# A term sum stores (den, {key + (h-order, i-power): value}): the ints above,
# or in the numeric domain finite complex values under key + (0, 0) over
# den 1, the formal form at h = 1. TermSum, poly.py and ops.py reach the
# domain only through the stored_* functions. num_canonical reads an h slot at h = 1,
# folds an i slot in exactly, raises NonFiniteError on an inf or nan part
# and writes a -0.0 part as +0.0, as NumericScalar does. IEEE sums and
# products of finite values depend on the sign of a zero only when they are
# zero, and a non-finite value stays non-finite through them, so doing this
# once per operation gives what checking every intermediate would, except
# for an overflow in a term that never reaches the result
# (docs/conventions.md section 14).


def num_canonical(out):
    """The numeric stored form (1, values) of slotted complex terms out."""
    if any(key[-2] or key[-1] for key in out):
        t = {}
        for key, v in out.items():
            k = key[:-2] + (0, 0)
            # v * i^q
            t[k] = t.get(k, 0) + (v, complex(-v.imag, v.real), -v,
                                  complex(v.imag, -v.real))[key[-1] & 3]
        out = t
    # adding 0j writes a -0.0 part as +0.0
    return stored_reduce("numeric", 1,
                         {key: v + 0j for key, v in out.items()})


def stored_encode(domain, terms, trunc):
    """The stored form of a term dict of the domain's coefficients."""
    if domain == "formal":
        return int_encode(terms, trunc)
    return stored_reduce(domain, 1,
                         {k + (0, 0): c.val for k, c in terms.items()})


def stored_canonical(domain, out, den, trunc):
    """The stored form of slotted terms out over den: numeric values are
    divided by den, each part correctly rounded."""
    if domain == "formal":
        return int_canonical(out, den, trunc)
    return num_canonical(out if den == 1 else
                         {k: v / den for k, v in out.items()})


def stored_reduce(domain, den, terms):
    """The stored form of terms over den, their slots folded and cut and,
    when numeric, no part -0.0 (as in sums, cuts and positive int multiples
    of stored values): the zero values dropped, here and in int_reduce
    only, and NonFiniteError on an inf or nan part."""
    if domain == "formal":
        return int_reduce(den, terms)
    if not all(terms.values()):
        terms = {key: v for key, v in terms.items() if v}
    if not all(map(cmath.isfinite, terms.values())):
        bad = next(v for v in terms.values() if not cmath.isfinite(v))
        raise NonFiniteError(f"non-finite numeric scalar {bad!r}")
    return 1, terms


def stored_sum(domain, parts):
    """The stored form of the sum of parts, a nonempty list of (den, items)
    of the domain, each items an iterable of (key, value) with distinct
    keys, such as a stored form's: every part brought over the lcm of the
    denominators and added through accumulate, then reduced once, which
    drops the sums that vanish."""
    den = math.lcm(*(d for d, _ in parts))
    (d, items), *rest = parts
    f = den // d
    out = {k: f * v for k, v in items}
    for d, items in rest:
        f = den // d
        accumulate(out, ((k, f * v) for k, v in items))
    return stored_reduce(domain, den, out)


def stored_conjugate(domain, data):
    """The stored values data conjugated, i -> -i: a formal int on the i^1
    slot negated, as 0 - v, and a numeric value conjugated, adding 0j so
    that no part is -0.0."""
    if domain == "formal":
        return {k: 0 - v if k[-1] else v for k, v in data.items()}
    return {k: v.conjugate() + 0j for k, v in data.items()}


def stored_decode(domain, data, den, trunc):
    """The term dict of a stored form, one coefficient object per key."""
    if domain == "formal":
        return int_decode(data, den, trunc)
    return {k[:-2]: NumericScalar(v) for k, v in data.items()}
