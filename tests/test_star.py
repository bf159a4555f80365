"""Star products on constant bilinear forms.

Covers the frozen ordering conventions, the defining axioms of a formal
deformation, associativity for random rational forms, and the equivalence
machinery connecting different orderings.
"""

import math
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
    TruncationError,
    apply_equivalence,
    jacobi_defect,
    minus_i_hbar,
    n_operator,
    naive_star,
    ordering_operator,
    poisson_bracket,
    poisson_standard,
    poly_from_text,
    scalar_from_text,
    standard_form,
    star,
    star_standard,
    star_weyl,
    weyl_form,
)
from starweyl.bruteforce import DensePolynomial, naive_p_lambda
from starweyl.errors import NonFiniteError

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


# The tensor square of the definition f * g = mu(exp(z P_Lambda)(f (x) g)),
# as dicts {(ea, eb): coefficient}: P_Lambda is the oracle's
# naive_p_lambda, and these build a (x) b and apply mu.


def tensor(a, b):
    return {(ea, eb): ca * cb
            for ea, ca in a.terms.items() for eb, cb in b.terms.items()}


def mu(t):
    """{e: coefficient} of mu(t), zeros dropped."""
    out = {}
    for (ea, eb), c in t.items():
        e = tuple(x + y for x, y in zip(ea, eb))
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def bracket_oracle(form, a, b):
    """{e: coefficient} of mu(P_Lambda(a (x) b) - P_Lambda(b (x) a))."""
    n = len(form.gens)
    lam = [[form.entry(i, j) for j in range(n)] for i in range(n)]
    t = naive_p_lambda(lam, tensor(a, b))
    for key, c in naive_p_lambda(lam, tensor(b, a)).items():
        t[key] = t[key] - c if key in t else -c
    return mu(t)


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
    assert star_standard(f, g).hbar_coefficient(0) == f * g


@given(polys(), polys(), forms())
@settings(max_examples=40, deadline=None)
def test_first_order_commutator_is_the_poisson_bracket(f, g, lam):
    s = star(lam, Z, f, g) - star(lam, Z, g, f)
    lhs = s.hbar_coefficient(1)
    pb = poisson_bracket(lam.transpose(), f, g)
    assert lhs == pb.map_coefficients(lambda c: c * I)


@given(polys())
def test_unit_is_neutral_and_kills_higher_orders(f):
    one = Polynomial.one(G)
    assert star_standard(one, f) == f
    assert star_standard(f, one) == f
    for r in range(1, 9):
        assert star_standard(one, f).hbar_coefficient(r) == Polynomial.zero(G)
        assert star_standard(f, one).hbar_coefficient(r) == Polynomial.zero(G)


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
    # each order contracts one derivative on each side, so on homogeneous
    # parts of degrees a and b the h^r coefficient has degree a + b - 2r
    # (on whole polynomials the top parts' contraction can vanish)
    for a in range(f.degree() + 1):
        for b in range(g.degree() + 1):
            s = star(lam, Z, f.graded_component(a), g.graded_component(b))
            for r in range(9):
                c = s.hbar_coefficient(r)
                if c:
                    assert c.degree() == a + b - 2 * r


def test_result_truncation_counts_the_form():
    # a form truncated at 2 limits the result to h^2 even when the operands
    # and z are carried to h^8
    form = standard_form(G, "formal", 2)
    z = minus_i_hbar("formal", 8)
    a, b = pf("p^3"), pf("q^3")
    s = star(form, z, a, b)
    assert s.trunc == 2
    assert str(s) == "q^3*p^3 - 9*i*h*q^2*p^2 - 18*h^2*q*p"
    assert s.hbar_coefficient(2) == pf("-18*q*p")
    with pytest.raises(TruncationError):
        s.hbar_coefficient(3)
    assert star(form, z, Polynomial.zero(G), b).trunc == 2
    assert poisson_bracket(form, a, b).trunc == 2
    assert poisson_bracket(standard_form(G, "formal", 8), a, b).trunc == 8


def test_p_lambda_of_a_tensor_cut_by_the_form():
    # the form known to h^1 cuts the h^2 part of a, and with it the stored
    # denominator (8 at h^2, 4 after the cut): the P_Lambda step of the
    # bracket, level 1 of the star kernel, reads the cut operand's values
    # over the cut operand's denominator
    g = Generators(("x", "y"))
    form = BilinearForm(g, [[0, GaussianRational(0, Fraction(4, 3))], [0, 0]],
                        "formal", 1)
    c = FormalScalar({0: -3, 1: GaussianRational(8, Fraction(-1, 4)),
                      2: GaussianRational(Fraction(7, 4), Fraction(5, 8))}, 2)
    a = Polynomial(g, {(2, 0): c}, "formal", 2)
    b = Polynomial(g, {(0, 3): 1}, "formal", 2)
    # {a, b} = mu(P_Lambda(a (x) b)), as b has no x: 4/3 i * 2 * 3 = 8i
    # times c, known to h^1
    want = FormalScalar({0: GaussianRational(0, -24), 1: GaussianRational(2, 64)}, 1)
    out = poisson_bracket(form, a, b)
    assert out == Polynomial(g, {(1, 2): want}, "formal", 1)
    assert out.trunc == 1
    lam = [[form.entry(i, j) for j in range(2)] for i in range(2)]
    assert naive_p_lambda(lam, tensor(a, b)) == {((1, 0), (0, 2)): want}


def test_a_parameter_or_form_entry_of_smaller_truncation_lowers_the_result():
    # z, an entry of Lambda or the parameter of an ordering operator known
    # only to h^2 cannot determine the h^3 coefficient of a product
    a, b = pf("p^3"), pf("q^3")
    z2 = FormalScalar({1: GaussianRational(0, -1)}, 2)
    s = star(standard_form(G, "formal", 8), z2, a, b)
    assert s.trunc == 2
    assert str(s) == "q^3*p^3 - 9*i*h*q^2*p^2 - 18*h^2*q*p"
    with pytest.raises(TruncationError):
        s.hbar_coefficient(3)
    form = BilinearForm(G, ((0, 0), (FormalScalar({0: 1, 3: 1}, 2), 0)), "formal", 8)
    assert form.trunc == 2
    assert all(c.trunc == 2 for row in form.matrix for c in row)
    assert star(form, minus_i_hbar("formal", 8), a, b).trunc == 2
    t = ordering_operator(standard_form(G, "formal", 8).symmetric_part(), z2)
    moved = t.apply(pf("q^2*p^2"))
    assert moved.trunc == 2
    assert moved == n_operator(G, "formal", 2).apply(pf("q^2*p^2"))


def test_series_terminates_at_min_degree():
    # with h-free operands and form and z = h, the h^r coefficient of the
    # product is level r of the series, mu(P_Lambda^r(a (x) b)) / r!: zero
    # past min(deg a, deg b), and nonzero at it for the standard form on
    # generic operands
    h = FormalScalar.hbar()
    generic = [(pf("(q + p)^3 + q"), pf("(q - 2*p)^2 + p")),
               (pf("(2*q - p)^4 - q*p"), pf("(q + 3*p)^3 + i*q"))]
    special = [(pf("q^3*p^3"), pf("q^2*p^2")), (pf("p^2"), pf("q^5 + 1"))]
    forms = [standard_form(G), weyl_form(G),
             BilinearForm(G, [[Fraction(1, 2), -2], [3, I]])]
    for form in forms:
        lam = [[form.entry(i, j) for j in range(2)] for i in range(2)]
        for a, b in generic + special:
            s = star(form, h, a, b)
            top = min(a.degree(), b.degree())
            t = tensor(a, b)
            for r in range(s.trunc + 1):
                level = s.hbar_coefficient(r)
                assert level.terms == {e: c * Fraction(1, math.factorial(r))
                                       for e, c in mu(t).items()}, (r, a, b)
                if r > top:
                    assert not level
                t = naive_p_lambda(lam, t)
    for a, b in generic:
        top = min(a.degree(), b.degree())
        assert star(standard_form(G), h, a, b).hbar_coefficient(top)


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
    # coefficients are exact up to the smallest truncation in play
    t = min(a.trunc, b.trunc, form.trunc)
    assert out.trunc == t
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
    assert out.trunc == min(a.trunc, b.trunc, form.trunc)
    want = bracket_oracle(form, a, b)
    assert out.terms == want
    assert {e: c.trunc for e, c in out.terms.items()} == {
        e: c.trunc for e, c in want.items()
    }


def test_numeric_domain_keeps_float_coefficients():
    gn = ("q", "p")
    f = poly_from_text("(q + 2*p)^3 - (3/2)*i*q", gn, "numeric")
    g = poly_from_text("q*p^2 + 1/4", gn, "numeric")
    form = standard_form(Generators(gn), "numeric")
    assert poisson_bracket(form.transpose(), f, g).terms == bracket_oracle(
        form.transpose(), f, g)
    # at hbar = 1 the numeric product is the formal one evaluated
    exact = star_standard(poly_from_text("(q + 2*p)^3 - (3/2)*i*q", gn),
                          poly_from_text("q*p^2 + 1/4", gn))
    s = star(form, minus_i_hbar("numeric"), f, g)
    assert set(s.terms) == set(exact.terms)
    for e, c in exact.terms.items():
        assert s.terms[e].val == pytest.approx(c.eval_at(1.0))


BIG = 1e160  # its square is beyond the float range


def test_numeric_products_refuse_to_overflow():
    f = Polynomial(G, {(1, 0): BIG}, "numeric")
    g = Polynomial(G, {(0, 1): BIG}, "numeric")
    form = standard_form(G, "numeric")
    with pytest.raises(NonFiniteError):
        f * g
    with pytest.raises(NonFiniteError):
        star(form, minus_i_hbar("numeric"), f, g)
    with pytest.raises(NonFiniteError):
        poisson_bracket(form.transpose(), f, g)
    # only the first-order term of p * q overflows here
    big = BilinearForm(G, [[0, 0], [BIG, 0]], "numeric")
    p = Polynomial.generator(G, "p", "numeric")
    q = Polynomial.generator(G, "q", "numeric")
    assert star(big, BIG, q, p) == q * p
    with pytest.raises(NonFiniteError):
        star(big, BIG, p, q)
    # f * f overflows, but the bracket forms no product of f with f
    assert not poisson_bracket(form.transpose(), f, f)
    # an overflowing term of a right factor whose left derivative is 0 does
    # not reach the product: L_pq d_q(1e300*q^2) = inf, d_p q = 0
    wide = BilinearForm(G, [[0, 0], [1e200, 0]], "numeric")
    assert star(wide, 1.0, q, Polynomial(G, {(2, 0): 1e300}, "numeric")) == \
        Polynomial(G, {(3, 0): 1e300}, "numeric")


def _negative_zeros(f):
    return [(e, part) for e, c in f.terms.items() for part in c.to_json()
            if part == 0 and math.copysign(1.0, part) < 0]


def test_numeric_results_carry_no_negative_zero():
    def npf(text):
        return poly_from_text(text, G, "numeric")

    form = standard_form(G, "numeric")
    z = minus_i_hbar("numeric")
    mq, ip = npf("-q"), npf("i*p")
    # the product of the stored complex values (-1) * i has a real part
    # -0.0 ...
    (x,), (y,) = mq._data.values(), ip._data.values()
    assert math.copysign(1.0, (x * y).real) < 0
    # ... which the canonical form writes as +0.0, as every NumericScalar
    # does
    pairs = [(mq, ip), (ip, mq), (npf("(1 + i)*q - i*p"), npf("(1 - i)*p^2 + q")),
             (npf("-i*q^2*p"), npf("-q*p^2 + i"))]
    for a, b in pairs:
        for out in (a * b, star(form, z, a, b), star(form, z, b, a),
                    poisson_bracket(form.transpose(), a, b),
                    a.translate((-1, 1j)), b.translate((0, -1j))):
            assert _negative_zeros(out) == []
    assert (mq * ip).terms[(1, 1)].to_json() == [0.0, -1.0]


def test_numeric_ordering_operator_divides_each_level_by_2k():
    # level k of exp(z Delta_S) is z * S times the second derivatives of
    # level k-1 over 2k, as in the formal domain: no factorial is formed,
    # and the constant term of T(q^23*p^23) with Delta_S = d_q d_p, 23!
    # (itself a float), is that loop's float, three ulps above it
    s = BilinearForm(("q", "p"), [[0, 1], [1, 0]], "numeric")
    f = poly_from_text("q^23*p^23", ("q", "p"), "numeric")
    out = ordering_operator(s, 1).apply(f)
    assert repr(out.terms[(0, 0)]) == "NumericScalar((2.585201673888499e+22+0j))"
    assert out.terms[(0, 0)].val.real - math.factorial(23) == 3 * math.ulp(
        float(math.factorial(23)))


def test_numeric_ordering_operator_runs_past_170_levels():
    # 172 levels, past 170!, the largest factorial a float holds: each
    # level z Delta_S level / k stays finite, where Delta_S^k f would not
    gens = ("q", "p")
    z = Fraction(1, 1024)
    got = ordering_operator(BilinearForm(gens, [[0, 1], [1, 0]], "numeric"),
                            float(z)).apply(
        Polynomial(gens, {(172, 172): 1}, "numeric"))
    want = ordering_operator(BilinearForm(gens, [[0, 1], [1, 0]]), z).apply(
        Polynomial(gens, {(172, 172): 1}))
    assert sorted(got.terms) == sorted(want.terms)
    assert len(got.terms) == 173
    for e, c in want.terms.items():
        exact = float(c.coefficient(0).re)
        assert got.terms[e].val.imag == 0.0
        assert abs(got.terms[e].val.real - exact) <= 1e-13 * exact, e
