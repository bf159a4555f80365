"""FormalScalar against an independent reference.

FormalScalar computes on its stored ints through the term-sum operations
and the kernels. RefSeries below is the earlier {h-order:
GaussianRational} arithmetic, kept here as written so that it shares no
code with them: the same operations on the same operands, with mixed
truncations and int, Fraction and GaussianRational operands on either
side, must give the same values, truncations and text.
"""

import operator
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starweyl import FormalScalar, GaussianRational

GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def _coerce_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def _frac_text(fr, explicit_den=False):
    if explicit_den:
        return f"{fr.numerator}/{fr.denominator}"
    return str(fr)


def _gaussian_text(c):
    if not c.im:
        return _frac_text(c.re)
    re = _frac_text(c.re, explicit_den=True)
    im = _frac_text(abs(c.im), explicit_den=True)
    return f"{re}{'-' if c.im < 0 else '+'}{im}*i"


def _coeff_factor(c):
    if not c.im:
        m = abs(c.re)
        if m == 1:
            return c.re < 0, None
        t = _frac_text(m)
        return c.re < 0, t if m.denominator == 1 else f"({t})"
    if not c.re:
        m = abs(c.im)
        if m == 1:
            return c.im < 0, "i"
        t = _frac_text(m)
        return c.im < 0, f"{t}*i" if m.denominator == 1 else f"({t})*i"
    return False, f"({_gaussian_text(c)})"


def _join_terms(pieces):
    chunks = []
    for neg, text in pieces:
        if chunks:
            chunks.append(f" - {text}" if neg else f" + {text}")
        else:
            chunks.append(f"-{text}" if neg else text)
    return "".join(chunks) or "0"


class RefSeries:
    """sum_r coeffs[r] h^r, orders above trunc dropped, on Gaussian
    rationals."""

    def __init__(self, coeffs, trunc, _clean=False):
        if not _clean:
            coeffs = {r: _coerce_gaussian(c) for r, c in coeffs.items()}
            coeffs = {r: c for r, c in coeffs.items() if c and r <= trunc}
        self.coeffs = coeffs
        self.trunc = trunc

    def _coerce(self, other):
        if isinstance(other, RefSeries):
            return other
        g = _coerce_gaussian(other)
        if g is None:
            return None
        return RefSeries({0: g} if g else {}, self.trunc, _clean=True)

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
        return RefSeries(out, n, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return RefSeries({r: -c for r, c in self.coeffs.items()}, self.trunc,
                         _clean=True)

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
        if isinstance(other, RefSeries):
            n = min(self.trunc, other.trunc)
            out = {}
            for r1, c1 in self.coeffs.items():
                if r1 > n:
                    continue
                for r2, c2 in other.coeffs.items():
                    r = r1 + r2
                    if r > n:
                        continue
                    s = out.get(r, GR_ZERO) + c1 * c2
                    if s:
                        out[r] = s
                    else:
                        out.pop(r, None)
            return RefSeries(out, n, _clean=True)
        g = _coerce_gaussian(other)
        if g is None:
            return NotImplemented
        return RefSeries({r: c * g for r, c in self.coeffs.items() if g},
                         self.trunc, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = RefSeries({0: GR_ONE}, self.trunc, _clean=True)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conjugate(self):
        return RefSeries({r: c.conjugate() for r, c in self.coeffs.items()},
                         self.trunc, _clean=True)

    def truncate(self, n):
        return RefSeries({r: c for r, c in self.coeffs.items() if r <= n}, n,
                         _clean=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def canonical(self):
        parts = []
        for r in sorted(self.coeffs):
            c = self.coeffs[r]
            if r == 0:
                parts.append((False, _gaussian_text(c)))
                continue
            h = "h" if r == 1 else f"h^{r}"
            neg, mag = _coeff_factor(c)
            parts.append((neg, h if mag is None else f"{mag}*{h}"))
        return _join_terms(parts)


def agree(x, ref):
    """x (a FormalScalar) and ref (a RefSeries) hold the same series."""
    assert isinstance(x, FormalScalar)
    assert x.trunc == ref.trunc
    assert x.coeffs == ref.coeffs
    assert str(x) == x.to_json() == x.canonical() == ref.canonical()
    # repr lists the orders in stored order, which can differ from the
    # reference's where a real or imaginary part cancelled
    assert sorted(x.coeffs) == sorted(ref.coeffs)
    ordered = {r: ref.coeffs[r] for r in x.coeffs}
    assert repr(x) == f"FormalScalar({ordered!r}, trunc={ref.trunc})"
    for r in range(x.trunc + 1):
        assert x.coefficient(r) == ref.coeffs.get(r, GR_ZERO)
    # eval_at sums the orders in ascending order
    z = 0j
    for r in sorted(x.coeffs):
        z += ref.coeffs[r].to_complex() * 0.5**r
    assert x.eval_at(0.5) == z


small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
constants = st.one_of(
    st.integers(-3, 3), small,
    st.builds(GaussianRational, small, small),
    st.builds(GaussianRational, st.just(0), small),
)
series = st.tuples(
    st.dictionaries(st.integers(0, 7), constants, max_size=5),
    st.integers(0, 6),
)
OPERATORS = [operator.add, operator.sub, operator.mul, operator.eq]


def both(pair):
    d, trunc = pair
    return FormalScalar(d, trunc), RefSeries(d, trunc)


@given(series)
def test_construction(a):
    x, ref = both(a)
    agree(x, ref)
    agree(-x, -ref)
    agree(x.conjugate(), ref.conjugate())
    assert bool(x) == bool(ref.coeffs)


@given(series, series, st.sampled_from(OPERATORS))
@settings(max_examples=200)
def test_binary_operations(a, b, op):
    (x, rx), (y, ry) = both(a), both(b)
    if op is operator.eq:
        assert (x == y) == (rx == ry)
        assert (x != y) == (not rx == ry)
    else:
        agree(op(x, y), op(rx, ry))


@given(series, constants, st.sampled_from(OPERATORS), st.booleans())
@settings(max_examples=200)
def test_constant_operands_on_either_side(a, c, op, left):
    x, rx = both(a)
    if left:
        got, want = op(c, x), op(c, rx)
    else:
        got, want = op(x, c), op(rx, c)
    if op is operator.eq:
        assert got == want
    else:
        agree(got, want)


@given(series, series, st.sampled_from([0.3, 0.5, 1.0, 2.5]))
@settings(max_examples=200)
@example(({0: 1, 1: -1}, 2), ({2: 1}, 2), 0.3)
def test_eval_at_depends_only_on_the_value(a, b, hbar):
    # a + b and b + a store their h-orders in different orders
    (x, _), (y, _) = both(a), both(b)
    assert x + y == y + x
    assert repr((x + y).eval_at(hbar)) == repr((y + x).eval_at(hbar))


@given(series, st.integers(0, 6), st.integers(0, 9))
def test_power_and_truncate(a, k, n):
    x, rx = both(a)
    agree(x ** k, rx ** k)
    agree(x.truncate(n), rx.truncate(n))
    agree((x ** k).truncate(n).conjugate(), (rx ** k).truncate(n).conjugate())


@given(series, series, series, constants)
@settings(max_examples=100)
def test_chained_expressions(a, b, c, k):
    (x, rx), (y, ry), (z, rz) = both(a), both(b), both(c)
    agree((x * y + z) ** 2 - k * x.conjugate(),
          (rx * ry + rz) ** 2 - k * rx.conjugate())
    agree(k - (x - y) * (z + k), k - (rx - ry) * (rz + k))
    assert ((x + y) * z == x * z + y * z) == ((rx + ry) * rz == rx * rz + ry * rz)
