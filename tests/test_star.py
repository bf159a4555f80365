"""Star products on constant bilinear forms.

Covers the frozen ordering conventions, the defining axioms of a formal
deformation, associativity for random rational forms, and the equivalence
machinery connecting different orderings.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    FormalScalar,
    GaussianRational,
    Generators,
    Polynomial,
    TensorSquare,
    apply_equivalence,
    hbar_coefficient,
    jacobi_defect,
    minus_i_hbar,
    n_operator,
    naive_star,
    ordering_operator,
    p_lambda,
    poisson_bracket,
    poisson_standard,
    poly_from_text,
    scalar_from_text,
    standard_form,
    star,
    star_standard,
    star_term_count,
    star_weyl,
    weyl_form,
)
from starweyl.bruteforce import DensePolynomial

G = Generators(("q", "p"))
Z = minus_i_hbar()
I = GaussianRational(0, 1)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)


def pf(s):
    return poly_from_text(s, G)


def polys(max_deg=3, max_terms=4):
    exps = st.tuples(
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=0, max_value=max_deg),
    )
    return st.lists(st.tuples(exps, gaussians), max_size=max_terms).map(
        lambda ts: sum(
            (Polynomial(G, {e: c}) for e, c in ts), Polynomial.zero(G)
        )
    )


def forms():
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.tuples(entry, entry, entry, entry).map(
        lambda m: BilinearForm(G, ((m[0], m[1]), (m[2], m[3])))
    )


# ------------------------------------------------------------- conventions


def test_frozen_commutation_values():
    q, p = pf("q"), pf("p")
    assert str(star_standard(p, q)) == "q*p - i*h"
    assert str(star_standard(q, p)) == "q*p"
    assert str(star_weyl(q, p)) == "q*p + (1/2)*i*h"
    assert str(star_weyl(p, q)) == "q*p - (1/2)*i*h"
    comm = star_standard(q, p) - star_standard(p, q)
    assert comm == pf("i*h")


def test_poisson_normalization():
    assert str(poisson_standard(pf("q"), pf("p"))) == "1"
    assert str(poisson_standard(pf("p"), pf("q"))) == "-1"
    # Leibniz in each slot
    f, g, h = pf("q^2"), pf("p"), pf("q*p")
    assert poisson_standard(f * g, h) == f * poisson_standard(g, h) + poisson_standard(f, h) * g


def test_jacobi_for_standard_bracket():
    triples = [("q^2*p", "q*p", "p^3"), ("q^3", "p^2", "q*p^2")]
    for a, b, c in triples:
        assert not jacobi_defect(poisson_standard, pf(a), pf(b), pf(c))


def test_n_operator_value_and_direction():
    N = n_operator(G)
    assert str(N.apply(pf("q*p"))) == "q*p - (1/2)*i*h"
    f, g = pf("q^2*p"), pf("q*p^2")
    # N carries Weyl ordering onto standard ordering
    assert N.apply(star_weyl(f, g)) == star_standard(N.apply(f), N.apply(g))


# ------------------------------------------------------------- axioms


@given(polys(), polys())
@settings(max_examples=40)
def test_order_zero_is_the_pointwise_product(f, g):
    assert hbar_coefficient(star_standard(f, g), 0) == f * g


@given(polys(), polys(), forms())
@settings(max_examples=40, deadline=None)
def test_first_order_commutator_is_the_poisson_bracket(f, g, lam):
    s = star(lam, Z, f, g) - star(lam, Z, g, f)
    lhs = hbar_coefficient(s, 1)
    pb = poisson_bracket(lam.transpose(), f, g)
    assert lhs == pb.map_coefficients(lambda c: c * I)


@given(polys())
def test_unit_is_neutral_and_kills_higher_orders(f):
    one = Polynomial.one(G)
    assert star_standard(one, f) == f
    assert star_standard(f, one) == f
    for r in range(1, 9):
        assert hbar_coefficient(star_standard(one, f), r) == Polynomial.zero(G)
        assert hbar_coefficient(star_standard(f, one), r) == Polynomial.zero(G)


@given(polys(max_deg=2), polys(max_deg=2), polys(max_deg=2), forms())
@settings(max_examples=30, deadline=None)
def test_associativity_random_forms(f, g, h, lam):
    left = star(lam, Z, star(lam, Z, f, g), h)
    right = star(lam, Z, f, star(lam, Z, g, h))
    assert left == right


@given(polys(max_deg=2), polys(max_deg=2), gaussians)
@settings(max_examples=30)
def test_bilinearity(f, g, c):
    fc = f.map_coefficients(lambda x: x * c)
    assert star_standard(fc, g) == star_standard(f, g).map_coefficients(lambda x: x * c)
    assert star_standard(g, fc) == star_standard(g, f).map_coefficients(lambda x: x * c)


@given(polys(max_deg=4), polys(max_deg=4), forms())
@settings(max_examples=30, deadline=None)
def test_degree_drop_per_order(f, g, lam):
    # each order contracts one derivative on each side
    s = star(lam, Z, f, g)
    d = f.degree() + g.degree() if f and g else -1
    for r in range(9):
        c = hbar_coefficient(s, r)
        if c:
            assert c.degree() == d - 2 * r


def test_series_terminates_at_min_degree():
    f, g = pf("q^3*p^3"), pf("q^2*p^2")
    n = star_term_count(standard_form(G), f, g)
    assert n <= min(f.degree(), g.degree()) + 1
    wf = weyl_form(G)
    assert star_term_count(wf, f, g) <= min(f.degree(), g.degree()) + 1


# ------------------------------------------------------------- equivalence


@given(polys(max_deg=2), polys(max_deg=2))
@settings(max_examples=25, deadline=None)
def test_equivalence_shifts_the_form(f, g):
    # conjugating by exp(z Delta_S) replaces Lambda with Lambda - S
    s_mat = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1)))
    sform = BilinearForm(G, s_mat)
    t = ordering_operator(sform, Z)
    lam = standard_form(G)
    shifted = BilinearForm(
        G,
        tuple(
            tuple(lam.entry(i, j) - sform.entry(i, j) for j in range(2))
            for i in range(2)
        ),
    )
    assert apply_equivalence(t, lam, Z, f, g) == star(shifted, Z, f, g)


def test_ordering_operator_requires_symmetry():
    with pytest.raises(Exception):
        ordering_operator(standard_form(G), Z)


def test_std_and_weyl_differ_by_symmetric_shift():
    # Lambda_std - Lambda_W is symmetric: the two products are equivalent
    lam, wf = standard_form(G), weyl_form(G)
    diff = BilinearForm(
        G,
        tuple(
            tuple(lam.entry(i, j) - wf.entry(i, j) for j in range(2))
            for i in range(2)
        ),
    )
    assert diff.is_symmetric()
    f, g = pf("q^2*p"), pf("q*p")
    t = ordering_operator(diff, Z)
    assert apply_equivalence(t, lam, Z, f, g) == star_weyl(f, g)


# ------------------------------------------------------------- conjugation


@given(polys(), polys())
@settings(max_examples=40)
def test_weyl_conjugation_antihomomorphism(f, g):
    lhs = star_weyl(f, g).conjugate()
    rhs = star_weyl(g.conjugate(), f.conjugate())
    assert lhs == rhs


def test_standard_conjugation_is_not_an_antihomomorphism():
    # the standard product needs the N-twist; bare conjugation fails on q*p
    f, g = pf("q"), pf("p")
    assert star_standard(f, g).conjugate() != star_standard(g.conjugate(), f.conjugate())


# ------------------------------------------------------------- integer path
#
# star and poisson_bracket compute formal results on integer coefficients;
# these properties hold them to the dense oracle and to the public tensor
# square on inputs that use every part of the encoding: complex and
# h-dependent forms, several z, coefficients at several h-orders, and
# operands and form at different truncations.

ZS = ("-i*h", "i*h^2", "3/2", "h - i*h^2")
truncs = st.integers(min_value=1, max_value=8)


def formal_scalars(trunc, max_order=2):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_order), gaussians, max_size=2
    ).map(lambda d: FormalScalar(d, trunc))


def hpolys(trunc, max_deg=3, max_terms=3):
    exps = st.tuples(
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=0, max_value=max_deg),
    )
    return st.dictionaries(exps, formal_scalars(trunc, 3), max_size=max_terms).map(
        lambda d: Polynomial(G, d, "formal", trunc)
    )


def complex_forms(trunc):
    entry = st.one_of(st.just(0), formal_scalars(trunc, 1))
    return st.tuples(entry, entry, entry, entry).map(
        lambda m: BilinearForm(G, ((m[0], m[1]), (m[2], m[3])), "formal", trunc)
    )


def star_cases():
    return st.tuples(truncs, truncs, truncs).flatmap(
        lambda t: st.tuples(
            complex_forms(t[2]), st.sampled_from(ZS), hpolys(t[0]), hpolys(t[1])
        )
    )


@given(star_cases())
@settings(max_examples=60, deadline=None)
def test_star_equals_the_naive_oracle(case):
    form, ztext, a, b = case
    z = scalar_from_text(ztext, "formal", form.trunc)
    out = star(form, z, a, b)
    assert out.trunc == min(a.trunc, b.trunc)
    # coefficients are exact up to the smallest truncation in play
    t = min(a.trunc, b.trunc, form.trunc)
    lam = [[form.entry(i, j) for j in range(2)] for i in range(2)]
    dense = naive_star(
        lam, z,
        DensePolynomial.from_dict(2, a.terms, "formal", t, box=7),
        DensePolynomial.from_dict(2, b.terms, "formal", t, box=7),
    ).to_dict()
    assert dense == out.terms
    assert {e: c.trunc for e, c in out.terms.items()} == {
        e: c.trunc for e, c in dense.items()
    }


@given(star_cases())
@settings(max_examples=60, deadline=None)
def test_poisson_bracket_equals_the_tensor_square_formula(case):
    form, _, a, b = case
    out = poisson_bracket(form, a, b)
    lhs = p_lambda(form, TensorSquare.of(a, b))
    rhs = p_lambda(form, TensorSquare.of(b, a))
    want = (lhs - rhs).mu()
    assert out == want
    assert out.trunc == want.trunc
    assert {e: c.trunc for e, c in out.terms.items()} == {
        e: c.trunc for e, c in want.terms.items()
    }


def test_numeric_domain_keeps_float_coefficients():
    gn = ("q", "p")
    f = poly_from_text("(q + 2*p)^3 - (3/2)*i*q", gn, "numeric")
    g = poly_from_text("q*p^2 + 1/4", gn, "numeric")
    form = standard_form(Generators(gn), "numeric")
    lhs = p_lambda(form.transpose(), TensorSquare.of(f, g))
    rhs = p_lambda(form.transpose(), TensorSquare.of(g, f))
    assert poisson_bracket(form.transpose(), f, g) == (lhs - rhs).mu()
    # at hbar = 1 the numeric product is the formal one evaluated
    exact = star_standard(poly_from_text("(q + 2*p)^3 - (3/2)*i*q", gn),
                          poly_from_text("q*p^2 + 1/4", gn))
    s = star(form, minus_i_hbar("numeric"), f, g)
    assert set(s.terms) == set(exact.terms)
    for e, c in exact.terms.items():
        assert s.terms[e].val == pytest.approx(c.eval_at(1.0))
