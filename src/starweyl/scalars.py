"""Scalar domains: exact Gaussian rationals, truncated formal power series in
hbar, and finiteness-checked complex doubles.

Every coefficient in the package is one of these three. The formal series
scalar is the default: arithmetic is exact, hbar ("h" in text form) is a
nilpotent-beyond-truncation bookkeeping parameter, and conjugation fixes h
while flipping i.
"""

from __future__ import annotations

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

    def is_rational(self):
        return not self.im

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
    def i_unit(cls, trunc: int = DEFAULT_TRUNCATION) -> "FormalScalar":
        return cls({0: GR_I}, trunc)

    @classmethod
    def minus_i_hbar(cls, trunc: int = DEFAULT_TRUNCATION) -> "FormalScalar":
        """The physics deformation parameter z = -i*h."""
        return cls({1: GaussianRational(0, -1)}, trunc)

    # -- predicates ----------------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0}

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
        if not self.coeffs:
            return "0"
        parts = []
        for r in sorted(self.coeffs):
            c = self.coeffs[r]
            if r == 0:
                parts.append((False, c.canonical()))
                continue
            h = "h" if r == 1 else f"h^{r}"
            neg, mag = _coeff_factor(c)
            parts.append((neg, h if mag is None else f"{mag}*{h}"))
        chunks = []
        for idx, (neg, text) in enumerate(parts):
            if idx == 0:
                chunks.append(f"-{text}" if neg else text)
            else:
                chunks.append(f" - {text}" if neg else f" + {text}")
        return "".join(chunks)

    def __str__(self):
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


class NumericScalar:
    """Complex double that refuses to become inf or nan."""

    __slots__ = ("val",)

    def __init__(self, re=0.0, im=0.0):
        if isinstance(re, complex):
            v = re + 1j * im
        else:
            v = complex(float(re), float(im))
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

    def __repr__(self):
        return f"NumericScalar({self.val!r})"
