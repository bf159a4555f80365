"""Scalar ring laws: Gaussian rationals, truncated formal series, floats."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GaussianRational,
    NumericScalar,
    scalar_from_text,
)
from starweyl.parse import scalar_from_json
from starweyl.scalars import coerce_coeff

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)


def small_formals(trunc=6):
    coeff_lists = st.lists(gaussians, min_size=0, max_size=trunc)
    return coeff_lists.map(lambda cs: FormalScalar(dict(enumerate(cs)), trunc=trunc))


# ---------------------------------------------------------------- gaussian


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians)
def test_gaussian_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_gaussian_basics():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i.conjugate() == GaussianRational(0, -1)
    assert GaussianRational(Fraction(3, 4)).re == Fraction(3, 4)
    assert i ** 4 == GaussianRational(1)
    with pytest.raises(TypeError):
        i ** -1  # negative powers are not closed over the Gaussian integers
    assert str(GaussianRational(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*i"


# ---------------------------------------------------------------- formal


@given(small_formals(), small_formals(), small_formals())
@settings(max_examples=60)
def test_formal_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


def test_formal_truncation_is_an_ideal():
    # trunc is the highest retained order, inclusive
    h = FormalScalar.hbar(trunc=4)
    assert h ** 4 != FormalScalar({}, trunc=4)
    assert h ** 5 == FormalScalar({}, trunc=4)
    # products truncate to the smaller window
    a = FormalScalar.hbar(trunc=6)
    b = FormalScalar.hbar(trunc=3)
    assert (a * b).trunc == 3


def test_formal_coefficient_and_eval():
    s = scalar_from_text("1 + 2*h + (1/2)*i*h^2")
    assert s.coefficient(0) == GaussianRational(1)
    assert s.coefficient(1) == GaussianRational(2)
    assert s.coefficient(2) == GaussianRational(0, Fraction(1, 2))
    v = s.eval_at(1.0)
    assert abs(v.real - 3.0) < 1e-15 and abs(v.imag - 0.5) < 1e-15


def test_formal_conjugate_fixes_hbar():
    # h is a real formal parameter: conjugation only touches i
    s = scalar_from_text("i*h")
    assert s.conjugate() == scalar_from_text("-i*h")
    assert FormalScalar.hbar().conjugate() == FormalScalar.hbar()


def test_minus_i_hbar_square():
    z = FormalScalar.minus_i_hbar()
    assert z * z == scalar_from_text("-h^2")


def test_default_truncation_constant():
    assert DEFAULT_TRUNCATION == 8
    assert FormalScalar.hbar().trunc == 8


# ---------------------------------------------------------------- numeric


def test_numeric_scalar_arithmetic():
    a = NumericScalar(1.0, 2.0)
    b = NumericScalar(0.0, -1.0)
    assert (a * b).val == pytest.approx(2.0 - 1.0j)
    assert (a + b).val == pytest.approx(1.0 + 1.0j)
    assert a.conjugate().val == pytest.approx(1.0 - 2.0j)


@pytest.mark.parametrize("re,im", [(-0.0, -1.0), (-0.0, -0.0), (2.5, -0.0),
                                   (-0.0, 0.0)])
def test_numeric_negative_zero_reads_as_positive_zero(re, im):
    want = complex(re + 0.0, im + 0.0)
    for s in (NumericScalar(re, im), NumericScalar(complex(re, im)),
              coerce_coeff(complex(re, im), "numeric", 8),
              scalar_from_json([re, im], "numeric", 8)):
        assert math.copysign(1, s.val.real) == math.copysign(1, want.real)
        assert math.copysign(1, s.val.imag) == math.copysign(1, want.imag)
        assert s.val == want
        assert str(s) == repr(want)


@given(fractions, fractions)
def test_scalar_text_roundtrip(re, im):
    s = GaussianRational(re, im)
    t = scalar_from_text(str(s)) if s else scalar_from_text("0")
    assert t.coefficient(0) == s
