"""Sparse polynomial ring: arithmetic laws, calculus, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    Polynomial,
    TensorSquare,
    poly_from_text,
    total_degree,
)

GENS2 = Generators(("q", "p"))
GENS3 = Generators(("x", "y", "z"))

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
gaussians = st.builds(GaussianRational, fractions, fractions)


def polys(gens=GENS2, max_deg=4, max_terms=5, coeffs=gaussians):
    n = len(gens.names)
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * n))
    term = st.tuples(exps, coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (Polynomial(gens, {e: c}) for e, c in ts),
            Polynomial.zero(gens),
        )
    )


@given(polys(), polys(), polys())
@settings(max_examples=80)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f + Polynomial.zero(GENS2) == f
    assert f * Polynomial.one(GENS2) == f


@given(polys(), polys())
def test_derivative_leibniz(f, g):
    for k in range(2):
        lhs = (f * g).partial_derivative(k)
        rhs = f.partial_derivative(k) * g + f * g.partial_derivative(k)
        assert lhs == rhs


@given(polys())
def test_derivatives_commute(f):
    a = f.partial_derivative(0).partial_derivative(1)
    b = f.partial_derivative(1).partial_derivative(0)
    assert a == b


@given(polys(), polys())
def test_conjugation_is_a_ring_involution(f, g):
    assert (f * g).conjugate() == f.conjugate() * g.conjugate()
    assert (f + g).conjugate() == f.conjugate() + g.conjugate()
    assert f.conjugate().conjugate() == f


@given(polys(max_deg=3), polys(max_deg=3))
def test_degree_subadditive(f, g):
    if f and g:
        # exact over a coefficient field (no h factors in this strategy)
        assert (f * g).degree() == f.degree() + g.degree()
    assert (f + g).degree() <= max(f.degree(), g.degree())


@given(polys())
def test_graded_components_sum_back(f):
    total = Polynomial.zero(GENS2)
    for k in range(f.degree() + 1):
        c = f.graded_component(k)
        assert all(total_degree(e) == k for e in c.terms)
        total = total + c
    assert total == f


@given(polys(), st.tuples(fractions, fractions))
def test_translate_is_additive_in_the_shift(f, a):
    zero = f.translate((0, 0))
    assert zero == f
    once = f.translate(a).translate(a)
    both = f.translate((2 * a[0], 2 * a[1]))
    assert once == both


def test_translate_matches_substitution():
    q = Polynomial.generator(GENS2, 0)
    p = Polynomial.generator(GENS2, 1)
    one = Polynomial.one(GENS2)
    f = q * q * p
    shifted = f.translate((Fraction(1), Fraction(-2)))
    expected = (q + one) * (q + one) * (p - one - one)
    assert shifted == expected


@given(polys())
@settings(max_examples=60)
def test_json_roundtrip(f):
    assert Polynomial.from_json(f.to_json()) == f


@given(polys())
@settings(max_examples=60)
def test_text_roundtrip(f):
    assert poly_from_text(str(f), GENS2) == f


def test_canonical_print_order():
    f = poly_from_text("p + q^2 + 3 + q*p", GENS2)
    # graded order, highest total degree first, then lex on exponents
    assert str(f) == "q^2 + q*p + p + 3"


def test_linear_and_constant_helpers():
    v = Polynomial.linear(GENS3, (1, Fraction(-1, 2), 0))
    assert str(v) == "x - (1/2)*y"
    c = Polynomial.constant(GENS3, GaussianRational(0, 1))
    assert str(c) == "i"
    assert (v + c).degree() == 1


def test_hbar_coefficient_reassembles():
    from starweyl import hbar_coefficient, scalar_from_text

    f = poly_from_text("q^2 + i*h*q*p + (1/2)*h^2", GENS2)
    h = Polynomial.constant(GENS2, scalar_from_text("h"))
    total = Polynomial.zero(GENS2)
    hpow = Polynomial.one(GENS2)
    for r in range(f.trunc + 1):
        total = total + hbar_coefficient(f, r) * hpow
        hpow = hpow * h
    assert total == f


def test_numeric_evaluate():
    f = poly_from_text("q^2*p - p", GENS2, domain="numeric")
    assert f.evaluate((2.0, 3.0)) == pytest.approx(12.0 - 3.0)


def test_mixed_generator_arithmetic_rejected():
    f = Polynomial.one(GENS2)
    g = Polynomial.one(GENS3)
    with pytest.raises(Exception):
        f + g


# ------------------------------------------------------------- powers


@pytest.mark.parametrize("k", range(14))
def test_power_equals_repeated_multiplication(k):
    f = poly_from_text("q + 2*p - i*h", GENS2)
    g = GaussianRational(Fraction(1, 2), 1)
    s = FormalScalar({0: 2, 1: GaussianRational(0, 1)})
    fk, gk, sk = Polynomial.one(GENS2), GaussianRational(1), FormalScalar.constant(1)
    for _ in range(k):
        fk, gk, sk = fk * f, gk * g, sk * s
    assert f**k == fk
    assert g**k == gk
    assert s**k == sk


# ------------------------------------------------------------- truncation


def hpolys(trunc):
    """Polynomials at truncation trunc with coefficients at several h-orders."""
    coeff = st.dictionaries(
        st.integers(min_value=0, max_value=trunc), gaussians, max_size=3
    ).map(lambda d: FormalScalar(d, trunc))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Polynomial(GENS2, d, "formal", trunc)
    )


def mixed_pairs():
    truncs = st.integers(min_value=0, max_value=8)
    return st.tuples(truncs, truncs).flatmap(
        lambda t: st.tuples(hpolys(t[0]), hpolys(t[1]))
    )


def _check_truncation_invariant(f):
    for c in f.terms.values():
        assert c
        assert all(r <= f.trunc for r in c.coeffs)
        assert c.trunc <= f.trunc
    assert Polynomial.from_json(f.to_json()) == f
    f.hbar_coefficient(f.trunc)


@given(mixed_pairs())
@settings(max_examples=80)
def test_sum_keeps_no_coefficient_above_the_truncation(pair):
    f, g = pair
    for s in (f + g, g + f, f - g):
        assert s.trunc == min(f.trunc, g.trunc)
        _check_truncation_invariant(s)
    # the sum agrees with the sum of both operands cut to its truncation
    cut = f.map_coefficients(lambda c: c.truncate(s.trunc))
    assert f + g == cut + g.map_coefficients(lambda c: c.truncate(s.trunc))


def test_sum_drops_orders_above_the_smaller_truncation():
    f = poly_from_text("h^6*q", GENS2, trunc=8)
    g = poly_from_text("p", GENS2, trunc=4)
    s = f + g
    assert str(s) == "p"
    assert Polynomial.from_json(s.to_json()) == s
    assert not s.hbar_coefficient(4)


@given(mixed_pairs())
@settings(max_examples=40)
def test_tensor_and_operator_sums_keep_no_coefficient_above_the_truncation(pair):
    f, g = pair
    n = min(f.trunc, g.trunc)
    one = Polynomial.one(GENS2, trunc=8)
    ops = [
        DifferentialOperator(GENS2, {(e, e): c for e, c in p.terms.items()},
                             "formal", p.trunc)
        for p in (f, g)
    ]
    for s in (TensorSquare.of(f, one) + TensorSquare.of(g, one), ops[0] + ops[1]):
        assert s.trunc == n
        for c in s.terms.values():
            assert c and all(r <= n for r in c.coeffs) and c.trunc <= n
