"""Sparse polynomial ring: arithmetic laws, calculus, serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starweyl import (
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    Polynomial,
    StarWeylError,
    TensorSquare,
    TruncationError,
    UEElement,
    poly_from_text,
    sl2,
    total_degree,
)

GENS2 = Generators(("q", "p"))
GENS3 = Generators(("x", "y", "z"))
GENS4 = Generators(("a", "b", "c", "d"))
SL2 = sl2()

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


shifts = st.one_of(
    st.just(0),
    gaussians,
    st.builds(
        lambda c, d: FormalScalar({0: c, 1: d}, 5), gaussians, gaussians
    ),
)


def _substituted(f, s):
    """sum_e c_e prod_i (x_i + s_i)^(e_i) through Polynomial arithmetic."""
    gens, domain = f.gens, f.domain
    one = Polynomial.one(gens, domain, f.trunc)
    moved = [Polynomial.generator(gens, i, domain, f.trunc) + one * s[i]
             for i in range(len(gens))]
    # the empty sum is the zero of the ring the substitution lands in
    out = Polynomial.zero(gens, domain, min(m.trunc for m in moved))
    for e, c in f.terms.items():
        term = one * c
        for i, k in enumerate(e):
            term = term * moved[i] ** k
        out = out + term
    return out


@given(polys(GENS3, max_deg=3), st.tuples(shifts, shifts, shifts))
@settings(max_examples=60, deadline=None)
def test_translate_is_substitution(f, s):
    got = f.translate(s)
    expected = _substituted(f, s)
    assert got == expected
    assert got.trunc == expected.trunc


def _wide_case(n):
    """(f, shifts) on n generators: exponents up to 6 and coefficients at
    several h-orders at a truncation T; shifts that are 0, imaginary
    Gaussian (powers reach i^3) or h-dependent at a truncation that may be
    below T; one more shift set to 0 when zero_at is drawn."""
    gens = GENS3 if n == 3 else GENS4

    def case(t, terms, shifts, zero_at):
        f = Polynomial(gens, {e: FormalScalar(c, t) for e, c in terms},
                       "formal", t)
        if zero_at is not None:
            shifts[zero_at] = 0
        return f, tuple(shifts)

    coeff = st.dictionaries(st.integers(0, 4), gaussians, min_size=1,
                            max_size=2)
    exps = st.tuples(*[st.integers(0, 6)] * n)
    shift = st.one_of(
        st.just(0),
        st.builds(GaussianRational, fractions,
                  fractions.filter(bool)),
        st.builds(lambda t, d: FormalScalar(d, t), st.integers(0, 4),
                  st.dictionaries(st.integers(0, 3), gaussians, max_size=3)),
    )
    return st.builds(case, st.integers(0, 6),
                     st.lists(st.tuples(exps, coeff), max_size=3),
                     st.lists(shift, min_size=n, max_size=n),
                     st.none() | st.integers(0, n - 1))


@given(st.sampled_from((3, 4)).flatmap(_wide_case))
@settings(max_examples=40, deadline=None)
def test_translate_is_substitution_on_wide_shifts(case):
    f, s = case
    got = f.translate(s)
    expected = _substituted(f, s)
    assert got == expected
    assert got.trunc == expected.trunc
    _check_truncation_invariant(got)


def test_translate_reaches_the_third_power_of_i():
    q = Polynomial.generator(GENS2, 0)
    got = (q**3).translate((GaussianRational(0, 1), 0))
    assert got == poly_from_text("q^3 + 3*i*q^2 - 3*q - i", GENS2)


def test_numeric_translate_is_substitution():
    # small Gaussian integers and halves: every float step below is exact
    f = poly_from_text("(2 - i)*q^3*p^2 + i*q*p^4 - 3*p + (1/2)*q^5",
                       GENS2, "numeric")
    for s in ((0.5 - 1j, 2j), (0, -1 + 1j), (-1.5, 0)):
        got = f.translate(s)
        assert got == _substituted(f, s)
        assert got.domain == "numeric"
    assert f.translate((0, 0)) == f


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
    from starweyl import scalar_from_text

    f = poly_from_text("q^2 + i*h*q*p + (1/2)*h^2", GENS2)
    h = Polynomial.constant(GENS2, scalar_from_text("h"))
    total = Polynomial.zero(GENS2)
    hpow = Polynomial.one(GENS2)
    for r in range(f.trunc + 1):
        total = total + f.hbar_coefficient(r) * hpow
        hpow = hpow * h
    assert total == f


numeric_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    max_size=6,
).map(lambda d: Polynomial(GENS2, d, "numeric"))


@given(numeric_polys, numeric_polys)
@settings(max_examples=200)
@example(Polynomial(GENS2, {(0, 0): 1}, "numeric"),
         Polynomial(GENS2, {(0, 1): 1, (1, 0): 2}, "numeric"))
def test_numeric_evaluate_depends_only_on_the_value(a, b):
    # a + b and b + a store their terms in different orders
    point = (complex(0.3, -1.1), 1.7)
    assert a + b == b + a
    assert repr((a + b).evaluate(point)) == repr((b + a).evaluate(point))


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


def test_power_size_limit(monkeypatch):
    from starweyl import poly

    with pytest.raises(StarWeylError, match="above the limit 65536"):
        poly_from_text("(a+b+c+d+e+f)^100", "abcdef")
    monkeypatch.setattr(poly, "MAX_POWER_TERMS", 10)
    # (q + p)^9 has C(2+9-1, 9) = 10 terms; the h and i parts of a
    # coefficient make no extra monomial
    assert len(poly_from_text("(q + (1 + i*h)*p)^9", GENS2).terms) == 10
    with pytest.raises(StarWeylError, match="may have 11 terms"):
        poly_from_text("q + p", GENS2) ** 10
    # 3 monomials could give C(3+4-1, 4) = 15 products, but degree 8 in
    # one generator leaves room for 9 monomials only
    assert len((poly_from_text("1 + x + x^2", ["x"]) ** 4).terms) == 9
    for k in (0, 1, 50):
        assert Polynomial.zero(GENS2) ** k == (
            Polynomial.one(GENS2) if k == 0 else Polynomial.zero(GENS2))
    numeric = Polynomial(GENS2, {(1, 0): 1.5, (0, 1): 2.0}, "numeric")
    with pytest.raises(StarWeylError):
        numeric ** 10


def test_product_size_limit(monkeypatch):
    from starweyl import poly, poisson_standard, star_standard

    # 4,097 terms each: 4,097^2 pairs pass MAX_PRODUCT_PAIRS = 2**24, and
    # the refusal comes before any of them is multiplied
    for domain in ("formal", "numeric"):
        big = Polynomial(GENS2, {(k, 1): 1 for k in range(4097)}, domain)
        for product in (lambda a, b: a * b, star_standard, poisson_standard):
            with pytest.raises(StarWeylError,
                               match="16785409 term pairs, above the limit"):
                product(big, big)
    monkeypatch.setattr(poly, "MAX_PRODUCT_PAIRS", 6)
    f = poly_from_text("q + p", GENS2)
    assert f * f == poly_from_text("q^2 + 2*q*p + p^2", GENS2)
    # the stored terms count: the h and i parts of a coefficient are terms
    g = poly_from_text("q + (1 + i*h)*p", GENS2)
    assert len(g._data) == 3
    assert g * f == f * g
    for product in (lambda a, b: a * b, star_standard, poisson_standard):
        with pytest.raises(StarWeylError, match="product of 3 by 3 stored"):
            product(g, g)


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


def test_map_coefficients_coerces_what_fn_returns():
    f = poly_from_text("2*q + h*p", GENS2, trunc=4)
    # plain numbers of the domain, and a value that vanishes is dropped
    assert f.map_coefficients(lambda c: 3) == \
        poly_from_text("3*q + 3*p", GENS2, trunc=4)
    assert f.map_coefficients(lambda c: Fraction(1, 2)) == \
        poly_from_text("1/2*q + 1/2*p", GENS2, trunc=4)
    assert f.map_coefficients(lambda c: c.coefficient(1) * GaussianRational(0, 1)) \
        == poly_from_text("i*p", GENS2, trunc=4)
    g = poly_from_text("2*q + p", GENS2, "numeric")
    assert g.map_coefficients(lambda c: complex(c) * 1j) == \
        poly_from_text("2*i*q + i*p", GENS2, "numeric")
    assert g.map_coefficients(lambda c: 0) == Polynomial.zero(GENS2, "numeric")


def test_map_coefficients_takes_the_smallest_truncation():
    f = poly_from_text("q + h^2*p + h*q*p", GENS2, trunc=4)
    cut = f.map_coefficients(lambda c: c.truncate(1))
    assert cut.trunc == 1
    assert cut == poly_from_text("q + h*q*p", GENS2, trunc=1)
    # one coefficient known to fewer orders cuts them all
    low = f.map_coefficients(lambda c: c.truncate(1) if c.coefficient(0) else c)
    assert low.trunc == 1 and low == cut


def test_sum_drops_orders_above_the_smaller_truncation():
    f = poly_from_text("h^6*q", GENS2, trunc=8)
    g = poly_from_text("p", GENS2, trunc=4)
    s = f + g
    assert str(s) == "p"
    assert Polynomial.from_json(s.to_json()) == s
    assert not s.hbar_coefficient(4)


def test_a_coefficient_of_smaller_truncation_lowers_the_truncation():
    # a factor known only to h^2 cannot determine h^3 of any power
    c2 = FormalScalar({0: 1, 1: 1}, 2)
    f = poly_from_text("q", GENS2, trunc=8) * c2
    assert f.trunc == 2
    cube = f**3
    assert cube.trunc == 2
    assert str(cube) == "(1 + 3*h + 3*h^2)*q^3"
    with pytest.raises(TruncationError):
        cube.hbar_coefficient(3)
    assert (c2 * poly_from_text("q", GENS2)) == f
    built = Polynomial(GENS2, {(1, 0): c2, (0, 1): 1}, "formal", 8)
    assert built.trunc == 2
    _check_truncation_invariant(built)
    op = DifferentialOperator.identity(GENS2).scale(c2)
    assert op.trunc == 2 and str(op) == "(1 + h)"


@given(mixed_pairs(), st.integers(min_value=0, max_value=8), gaussians)
@settings(max_examples=60)
def test_scaling_takes_the_smaller_truncation(pair, t, g):
    f, h = pair
    c = FormalScalar({0: 1, 1: g}, t)
    for s in (f * c, c * f):
        assert s.trunc == min(f.trunc, t)
        _check_truncation_invariant(s)
    # every term sum, pair keys and PBW keys too, scales term by term
    sums = (
        f,
        TensorSquare.of(f, h),
        DifferentialOperator(GENS2, {(e, e): v for e, v in h.terms.items()},
                             "formal", h.trunc),
        UEElement(SL2, {(0,) * e[0] + (2,) * e[1]: v
                        for e, v in f.terms.items()}, f.trunc),
    )
    for x in sums:
        for k in (c, g, 0, Fraction(-3, 2), FormalScalar({1: g, 3: 2}, t)):
            got = x.scale(k)
            assert got.trunc == min(x.trunc, getattr(k, "trunc", x.trunc))
            assert got.terms == {key: p for key, v in x.terms.items()
                                 if (p := v * k)}


def test_translation_or_evaluation_at_smaller_truncation_lowers_the_truncation():
    f = poly_from_text("q^3 + h^5*p", GENS2, trunc=8)
    moved = f.translate((FormalScalar({0: 1, 1: 1}, 2), 0))
    assert moved.trunc == 2
    _check_truncation_invariant(moved)
    with pytest.raises(TruncationError):
        moved.hbar_coefficient(3)
    expected = poly_from_text("(q + 1 + h)^3", GENS2, trunc=2)
    assert moved == expected
    assert str(moved) == str(expected)
    # evaluation at such a point is known to h^2 only, whatever f is
    point = (FormalScalar({0: 1, 1: 1}, 2), 1)
    for g in (f, poly_from_text("p", GENS2), Polynomial.zero(GENS2)):
        assert g.evaluate(point).trunc == 2
    assert f.evaluate(point) == FormalScalar({0: 1, 1: 3, 2: 3}, 2)


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
