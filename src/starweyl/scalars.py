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
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import NonFiniteError, NotInvertibleError, TruncationError

DEFAULT_TRUNCATION = 8


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def frac_text(fr: Fraction, explicit_den: bool = False) -> str:
    """Canonical "p/q" rendering; explicit_den forces the "/1"."""
    if explicit_den:
        return f"{fr.numerator}/{fr.denominator}"
    return str(fr)


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

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise NotInvertibleError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        if not self.im:
            return frac_text(self.re)
        re = frac_text(self.re, explicit_den=True)
        im = frac_text(abs(self.im), explicit_den=True)
        sign = "-" if self.im < 0 else "+"
        return f"{re}{sign}{im}*i"

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


class FormalScalar:
    """Polynomial in hbar truncated at order N; coefficients Gaussian rational.

    Orders 0..N are retained; products silently drop anything beyond N (that
    is the quotient-ring semantics, not data loss). Operations on operands
    with different truncations take the minimum.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc: int = DEFAULT_TRUNCATION, _clean=False):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        if coeffs is None:
            coeffs = {}
        if _clean:
            cl = coeffs
        else:
            cl = {}
            for r, c in coeffs.items():
                if not isinstance(r, int) or r < 0:
                    raise ValueError(f"bad hbar order {r!r}")
                g = _coerce_gaussian(c)
                if g is None:
                    raise TypeError(f"bad coefficient {c!r}")
                if g and r <= trunc:
                    cl[r] = g
        object.__setattr__(self, "coeffs", cl)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("FormalScalar is immutable")

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

    # -- predicates ----------------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, r: int) -> GaussianRational:
        if r > self.trunc:
            raise TruncationError(
                f"order {r} exceeds truncation {self.trunc}"
            )
        return self.coeffs.get(r, GR_ZERO)

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FormalScalar):
            return other
        g = _coerce_gaussian(other)
        if g is None:
            return None
        return FormalScalar({0: g} if g else {}, self.trunc, _clean=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.trunc, o.trunc)
        out = {r: c for r, c in self.coeffs.items() if r <= n}
        for r, c in o.coeffs.items():
            if r > n:
                continue
            s = out.get(r, GR_ZERO) + c
            if s:
                out[r] = s
            else:
                out.pop(r, None)
        return FormalScalar(out, n, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return FormalScalar(
            {r: -c for r, c in self.coeffs.items()}, self.trunc, _clean=True
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, FormalScalar):
            n = min(self.trunc, other.trunc)
            out = {}
            for r1, c1 in self.coeffs.items():
                if r1 > n:
                    continue
                for r2, c2 in other.coeffs.items():
                    r = r1 + r2
                    if r > n:
                        continue
                    p = c1 * c2
                    s = out.get(r)
                    s = p if s is None else s + p
                    if s:
                        out[r] = s
                    else:
                        out.pop(r, None)
            return FormalScalar(out, n, _clean=True)
        g = _coerce_gaussian(other)
        if g is None:
            return NotImplemented
        if not g:
            return FormalScalar({}, self.trunc, _clean=True)
        return FormalScalar(
            {r: c * g for r, c in self.coeffs.items()}, self.trunc, _clean=True
        )

    __rmul__ = __mul__

    def invert(self) -> "FormalScalar":
        """Multiplicative inverse in the truncated ring (order-0 part must be
        invertible); (a * a.invert()) == 1 up to the truncation."""
        c0 = self.coeffs.get(0)
        if not c0:
            raise NotInvertibleError(
                "formal scalar with vanishing order-0 part is not invertible"
            )
        inv0 = c0.inverse()
        n = self.trunc
        out = {0: inv0}
        # recursively solve sum_{s<=r} a_s * b_{r-s} = 0 for r >= 1
        for r in range(1, n + 1):
            acc = GR_ZERO
            for s, a_s in self.coeffs.items():
                if 1 <= s <= r:
                    b = out.get(r - s)
                    if b is not None:
                        acc = acc + a_s * b
            if acc:
                out[r] = -(inv0 * acc)
        return FormalScalar({r: c for r, c in out.items() if c}, n, _clean=True)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = FormalScalar({0: GR_ONE}, self.trunc, _clean=True)
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
        return FormalScalar(
            {r: c.conjugate() for r, c in self.coeffs.items()},
            self.trunc,
            _clean=True,
        )

    def truncate(self, n: int) -> "FormalScalar":
        return FormalScalar(
            {r: c for r, c in self.coeffs.items() if r <= n}, n, _clean=True
        )

    # -- conversions ------------------------------------------------------------
    def eval_at(self, hbar: float = 1.0) -> complex:
        """Evaluate at a real value of hbar."""
        z = 0j
        for r, c in self.coeffs.items():
            z += c.to_complex() * hbar**r
        return z

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # compares retained coefficients; truncation metadata is bookkeeping
        return self.coeffs == o.coeffs

    __hash__ = None

    # -- text -----------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text "c0 + c1*h + c2*h^2" with ascending orders."""
        parts = []
        for r in sorted(self.coeffs):
            c = self.coeffs[r]
            if r == 0:
                parts.append((False, c.canonical()))
                continue
            h = "h" if r == 1 else f"h^{r}"
            neg, mag = _coeff_factor(c)
            parts.append((neg, h if mag is None else f"{mag}*{h}"))
        return join_terms(parts)

    def __str__(self):
        return self.canonical()

    def to_json(self) -> str:
        return self.canonical()

    def __repr__(self):
        return f"FormalScalar({self.coeffs!r}, trunc={self.trunc})"


def _coeff_factor(c: GaussianRational):
    """Render a Gaussian rational as a product factor.

    Returns (negated, text) where text is None for magnitude 1 (the factor
    is dropped entirely) and is already parenthesised when it contains a sum.
    """
    if not c.im:
        re = c.re
        neg = re < 0
        m = abs(re)
        if m == 1:
            return neg, None
        t = frac_text(m)
        return neg, t if m.denominator == 1 else f"({t})"
    if not c.re:
        im = c.im
        neg = im < 0
        m = abs(im)
        if m == 1:
            return neg, "i"
        t = frac_text(m)
        return neg, f"{t}*i" if m.denominator == 1 else f"({t})*i"
    return False, f"({c.canonical()})"


def term_text(c, mono: str):
    """(negated, text) of the term c * mono in the expression grammar.

    c is a FormalScalar or a NumericScalar and mono the text of the
    monomial, "" for the unit; the text parses back to the same term.
    """
    if isinstance(c, NumericScalar):
        txt = f"({c.val.real!r}{c.val.imag:+}j)"
        return False, f"{txt}*{mono}" if mono else txt
    if len(c.coeffs) > 1:
        txt = f"({c.canonical()})"
        return False, f"{txt}*{mono}" if mono else txt
    ((r, g),) = c.coeffs.items()
    neg, mag = _coeff_factor(g)
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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o == 0:
            raise NotInvertibleError("division by zero")
        return NumericScalar(self.val / o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.val == 0:
            raise NotInvertibleError("division by zero")
        return NumericScalar(o / self.val)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return NumericScalar(self.val**k)

    def invert(self):
        if self.val == 0:
            raise NotInvertibleError("division by zero")
        return NumericScalar(1.0 / self.val)

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
# would. A formal term sum of poly.py stores its terms in that form.


def int_encode(terms, trunc):
    """(den, {exp + (r, q): n}) with terms = sum n/den h^r i^q x^exp, the
    h-orders above trunc dropped."""
    parts = {}
    for e, c in terms.items():
        for r, g in c.coeffs.items():
            if r <= trunc:
                if g.re:
                    parts[e + (r, 0)] = g.re
                if g.im:
                    parts[e + (r, 1)] = g.im
    den = math.lcm(*(x.denominator for x in parts.values()))
    return den, {key: x.numerator * (den // x.denominator)
                 for key, x in parts.items()}


def int_reduce(den, terms):
    """(den, terms) with den and the ints divided by their gcd."""
    g = math.gcd(den, *terms.values())
    if g == 1:
        return den, terms
    return den // g, {key: v // g for key, v in terms.items()}


def int_canonical(out, den, trunc):
    """The canonical form (den, ints) of the integer terms out read over
    den: i-powers folded mod 4 to 0 or 1, h-orders above trunc and zero
    sums dropped, den and the ints divided by their gcd. int_encode writes
    this form, and two term sums are equal exactly when their forms are."""
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
    return int_reduce(den, {key: v for key, v in t.items() if v})


def int_groups(ints):
    """{term key: {h-order: [re, im]}} of canonical ints, in their order.
    The last two slots of a key are the h and i powers, so the term keys
    before them may have any length (PBW monomials do)."""
    parts = {}
    for key, v in ints.items():
        parts.setdefault(key[:-2], {}).setdefault(key[-2], [0, 0])[key[-1]] = v
    return parts


def int_decode(ints, den, trunc):
    """Formal term dict of the canonical form (den, ints)."""
    return {
        e: FormalScalar({
            r: GaussianRational(Fraction(re, den), Fraction(im, den))
            for r, (re, im) in orders.items()
        }, trunc, _clean=True)
        for e, orders in int_groups(ints).items()
    }


# -- the stored form of either domain -------------------------------------------
#
# A term sum stores (den, {key + (h-order, i-power): value}): the ints above,
# or in the numeric domain finite complex values under key + (0, 0) over
# den 1, the formal form at h = 1. poly.py and ops.py reach the domain only
# through the stored_* functions. num_canonical reads an h slot at h = 1,
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
                         {key: v + 0j for key, v in out.items() if v})


def stored_encode(domain, terms, trunc):
    """The stored form of a term dict of the domain's coefficients."""
    if domain == "formal":
        return int_encode(terms, trunc)
    return 1, {k + (0, 0): c.val for k, c in terms.items() if c}


def stored_canonical(domain, out, den, trunc):
    """The stored form of slotted terms out over den (1 when numeric)."""
    if domain == "formal":
        return int_canonical(out, den, trunc)
    return num_canonical(out)


def stored_reduce(domain, den, terms):
    """The stored form of nonzero terms over den, their slots folded and
    cut and, when numeric, no part -0.0 (as in sums, cuts and positive int
    multiples of stored values): NonFiniteError on an inf or nan part."""
    if domain == "formal":
        return int_reduce(den, terms)
    if not all(map(cmath.isfinite, terms.values())):
        bad = next(v for v in terms.values() if not cmath.isfinite(v))
        raise NonFiniteError(f"non-finite numeric scalar {bad!r}")
    return 1, terms


def stored_decode(domain, data, den, trunc):
    """The term dict of a stored form, one coefficient object per key."""
    if domain == "formal":
        return int_decode(data, den, trunc)
    return {k[:-2]: NumericScalar(v) for k, v in data.items()}
