"""Seminorm family p_R, exponential growth regimes, exactness windows."""

import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    FormalScalar,
    GaussianRational,
    Generators,
    IncompatibleError,
    Polynomial,
    SeminormSpec,
    StarWeylError,
    TruncationError,
    exponential_convergence_report,
    hbar_exponential,
    heisenberg3,
    inner_automorphism_defect,
    minus_i_hbar,
    poly_from_text,
    seminorm_pR,
    standard_form,
    star,
    star_continuity_report,
    translation_automorphism_defect,
    truncated_exponential,
    weyl_form,
    weyl_relation_defect,
)
from starweyl import kernels, seminorms

G = Generators(("q", "p"))
Z = minus_i_hbar()
SPEC = SeminormSpec((1.0, 1.0), 0.5)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)


def pf(s):
    return poly_from_text(s, G)


def polys(max_deg=4, max_terms=4):
    exps = st.tuples(
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=0, max_value=max_deg),
    )
    return st.lists(st.tuples(exps, gaussians), max_size=max_terms).map(
        lambda ts: sum((Polynomial(G, {e: c}) for e, c in ts), Polynomial.zero(G))
    )


# ---------------------------------------------------------------- axioms


@given(polys(), polys())
@settings(max_examples=50)
def test_triangle_inequality(f, g):
    assert seminorm_pR(SPEC, f + g) <= seminorm_pR(SPEC, f) + seminorm_pR(SPEC, g) + 1e-12


# Float roundings per term of seminorm_pR: the real and the imaginary part
# of the exact coefficient read as floats, the modulus, a power and a product
# for each of the two generator weights, and the product with k!^R.
PER_TERM_ROUNDINGS = 8


@given(polys(), st.integers(min_value=-6, max_value=6))
@settings(max_examples=50)
@example(Polynomial(G, {(0, 0): GaussianRational(1, Fraction(3, 2)),
                        (4, 4): GaussianRational(Fraction(21, 4),
                                                 Fraction(11, 3))}), 3)
def test_homogeneity_integer_scalars(f, k):
    scaled = f.map_coefficients(lambda c: c * k)
    want = abs(k) * seminorm_pR(SPEC, f)
    # Each side sums nonnegative terms. A term is off by at most
    # PER_TERM_ROUNDINGS relative roundings of eps/2 (k!^R is the same float
    # on both sides), and the running sum by one per term, so each side is
    # within (terms + PER_TERM_ROUNDINGS) * eps/2 of its exact value,
    # relatively, to first order; |k| * p_R(f) rounds once more. The
    # tolerance is twice that first-order bound on the difference.
    eps = sys.float_info.epsilon
    tol = 2 * (len(f.terms) + PER_TERM_ROUNDINGS + 1) * eps * want
    assert abs(seminorm_pR(SPEC, scaled) - want) <= tol


def test_zero_and_unit():
    assert seminorm_pR(SPEC, Polynomial.zero(G)) == 0.0
    assert seminorm_pR(SPEC, Polynomial.one(G)) == 1.0


def test_weights_scale_generators():
    spec = SeminormSpec((2.0, 3.0), 0.5)
    assert seminorm_pR(spec, pf("q")) == pytest.approx(2.0)
    assert seminorm_pR(spec, pf("p")) == pytest.approx(3.0)
    # the grade-k slice carries k!^R: here 2!^(1/2) * (2*3)
    assert seminorm_pR(spec, pf("q*p")) == pytest.approx(6.0 * math.sqrt(2.0))


def test_spec_validation():
    with pytest.raises(Exception):
        SeminormSpec((0.0, 1.0), 0.5)  # weights must be positive
    with pytest.raises(Exception):
        SeminormSpec((1.0, 1.0), 0.4)  # R below the continuity threshold
    s = SeminormSpec.from_json(SPEC.to_json())
    assert s.weights == SPEC.weights and s.R == SPEC.R


# ------------------------------------------------------- closed-form sums


@pytest.mark.parametrize("R", [0.5, 1.0, 1.7])
@pytest.mark.parametrize(
    "alpha,v", [(1, (1, 0)), (2, (1, -1)), (Fraction(1, 2), (0, 2))]
)
def test_truncated_exponential_closed_form(R, alpha, v):
    spec = SeminormSpec((1.0, 1.0), R)
    K = 8
    te = truncated_exponential(G, v, alpha, K)
    got = seminorm_pR(spec, te, R=R)
    pv = sum(abs(x) for x in v)
    want = sum(
        math.factorial(k) ** (R - 1) * (abs(alpha) * pv) ** k for k in range(K + 1)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_truncated_exponential_respects_cutoff():
    te = truncated_exponential(G, (1, 1), 1, 5)
    assert te.cutoff == 5
    assert te.base.degree() == 5


def test_truncated_exponential_refuses_oversized_cutoffs():
    # the top term v~^cutoff is bounded like a parsed power: the exponent
    # by parse.MAX_EXPONENT, the term count by poly.MAX_POWER_TERMS
    assert truncated_exponential(G, (1, 1), 1, 100).base.degree() == 100
    with pytest.raises(StarWeylError, match="cutoff 101 exceeds the limit 100"):
        truncated_exponential(G, (1, 1), 1, 101)
    with pytest.raises(StarWeylError, match="cutoff 3000"):
        truncated_exponential(G, (1, 0), 1, 3000, "numeric", 0)
    six = Generators(("a", "b", "c", "d", "e", "f"))
    with pytest.raises(StarWeylError, match="above the limit"):
        truncated_exponential(six, (1,) * 6, 1, 40)
    with pytest.raises(StarWeylError, match="cutoff 101"):
        hbar_exponential(heisenberg3(), (1, 0, 0), 101)


# ------------------------------------------------------- growth regimes


def test_convergence_below_one():
    rep = exponential_convergence_report(SPEC, (1.0, 0.0), 2.0)
    assert rep.verdict == "convergent"
    assert rep.tail < 1e-10
    # k!^(R-1) x^k summed via lgamma to dodge huge-int overflow
    want = sum(
        math.exp(k * math.log(2.0) - 0.5 * math.lgamma(k + 1)) for k in range(200)
    )
    assert rep.limit == pytest.approx(want, rel=1e-12)


def test_geometric_edge_r_equal_one():
    spec = SeminormSpec((1.0, 1.0), 1.0)
    ok = exponential_convergence_report(spec, (0.5, 0.0), 1.0)
    assert ok.verdict == "convergent"
    assert ok.limit == pytest.approx(2.0, abs=1e-10)  # geometric, ratio 1/2
    bad = exponential_convergence_report(spec, (1.0, 0.0), 1.0)
    assert bad.verdict == "divergent"
    worse = exponential_convergence_report(spec, (1.0, 0.0), 1.5)
    assert worse.verdict == "divergent"


def test_divergence_above_one():
    spec = SeminormSpec((1.0, 1.0), 1.7)
    rep = exponential_convergence_report(spec, (1.0, 0.0), 0.1)
    assert rep.verdict == "divergent"
    assert "grows" in rep.reason


def test_zero_argument_trivially_convergent():
    rep = exponential_convergence_report(SPEC, (0.0, 0.0), 5.0)
    assert rep.verdict == "convergent"
    assert rep.limit == pytest.approx(1.0)


def test_csv_lines_shape():
    rep = exponential_convergence_report(SPEC, (1.0, 0.0), 1.0, kmax=5)
    lines = rep.csv_lines()
    assert lines[0] == "K,partial_sum"
    assert len(lines) == 7
    k, s = lines[1].split(",")
    assert k == "0" and float(s) == 1.0


# ------------------------------------------------------- exactness windows


def test_weyl_relation_exact_on_window():
    for form, v, w in [
        (standard_form(G), (1, 2), (2, -1)),
        (weyl_form(G), (1, 1), (0, 2)),
    ]:
        rep = weyl_relation_defect(form, Z, v, w, degree=4, orders=3)
        assert rep.status == "pass"
        assert rep.exact and rep.defect_max == "0"
        assert rep.window == {"degree": 4, "orders": 3}


def test_weyl_relation_needs_enough_cutoff():
    with pytest.raises(TruncationError):
        weyl_relation_defect(standard_form(G), Z, (1, 0), (0, 1), degree=4, orders=3, cutoff=5)


@pytest.mark.parametrize("report, bounds, name", [
    ("weyl", {"degree": -1}, "degree"),
    ("weyl", {"orders": -1}, "orders"),
    ("weyl", {"degree": -1, "orders": -1, "cutoff": 7}, "degree"),
    ("inner", {"orders": -1}, "orders"),
])
def test_negative_windows_are_refused(report, bounds, name):
    # an empty window would pass vacuously; the bound is refused by name
    # before any work, even on an input the report would refuse anyway
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        if report == "weyl":
            weyl_relation_defect(standard_form(G, "numeric"), Z, (1, 0),
                                 (0, 1), **bounds)
        else:
            inner_automorphism_defect(standard_form(G), Z, (1, 0), pf("q"),
                                      **bounds)


def test_weyl_relation_formal_only():
    nform = standard_form(G, domain="numeric")
    with pytest.raises(StarWeylError):
        weyl_relation_defect(nform, complex(0, -1), (1, 0), (0, 1))


@given(polys(max_deg=3), polys(max_deg=3), st.tuples(fractions, fractions))
@settings(max_examples=30, deadline=None)
def test_every_translation_is_an_automorphism(f, g, a):
    # constant-coefficient bidifferential operators commute with translations
    rep = translation_automorphism_defect(standard_form(G), Z, f, g, a)
    assert rep.status == "pass" and rep.defect_max == "0"


@given(polys(max_deg=4), polys(max_deg=4), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_window_defect_matches_the_decoded_coefficients(f, g, degree, orders):
    # defect_max read from the stored ints equals the float of the decoded
    # coefficient with the largest modulus in the window, to the last bit
    f = f + g * pf("h") + pf("(1/3 + 2/7*i)*h^2*q - (1/7)*h*p")
    worst = 0.0
    for r in range(orders + 1):
        for e, c in f.hbar_coefficient(r).terms.items():
            if sum(e) <= degree:
                worst = max(worst, abs(c.eval_at(1.0)))
    assert seminorms._window_defect(f, degree, orders) == (
        worst == 0.0, "0" if worst == 0.0 else repr(worst))


def test_translation_window_is_the_difference_truncation():
    # g (truncation 2) caps the difference below f's truncation 4; either
    # order of the operands reports the window the difference is known to
    f = poly_from_text("q^2 + h*p", G, trunc=4)
    g = poly_from_text("p*q", G, trunc=2)
    for a, b in ((f, g), (g, f)):
        rep = translation_automorphism_defect(standard_form(G), Z, a, b, (1, 2))
        assert rep.exact and rep.defect_max == "0"


def test_window_defect_refuses_orders_beyond_the_truncation():
    with pytest.raises(TruncationError):
        seminorms._window_defect(poly_from_text("h*q", G, trunc=2), 3, 3)


def test_inner_automorphism_window():
    rep = inner_automorphism_defect(weyl_form(G), Z, (1, 0), pf("q*p^2"), orders=3)
    assert rep.status == "pass" and rep.exact


def test_inner_automorphism_needs_antisymmetry():
    with pytest.raises(StarWeylError):
        inner_automorphism_defect(standard_form(G), Z, (1, 0), pf("q"))


def _seminorm_of_terms(spec, a, hbar):
    """p_R(a) computed from the decoded coefficients: each value summed over
    the ascending h-orders, the terms of the sorted monomials added by
    math.fsum."""
    terms = []
    for e, c in sorted(a.terms.items()):
        if isinstance(c, FormalScalar):
            z = 0j
            for r, g in sorted(c.coeffs.items()):
                z += g.to_complex() * hbar**r
        else:
            z = c.val
        mag = abs(z)
        if not mag:
            continue
        for i, k in enumerate(e):
            if k:
                mag *= spec.weights[i] ** k
        terms.append(seminorms._factorial_pow(sum(e), spec.R) * mag)
    return math.fsum(terms)


floats = st.floats(min_value=-8, max_value=8, allow_subnormal=False)
numeric_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.builds(complex, floats, floats), max_size=6,
).map(lambda d: Polynomial(G, d, "numeric"))


@given(st.one_of(polys(max_deg=5, max_terms=6), numeric_polys),
       st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([1.0, 0.5, 3.0]),
       st.sampled_from([(1.0, 1.0), (0.3, 2.5)]))
@settings(max_examples=80, deadline=None)
def test_seminorm_reads_the_stored_form_as_the_terms(f, R, hbar, weights):
    # p_R read from the stored form equals, to the last bit, the value
    # from the decoded coefficients; the formal h-orders make eval_at sum,
    # and parts above 2^53 make int / int differ from float / float
    if f.domain == "formal":
        f = f + f * pf("(1/3 - 2/7*i)*h + 5/11*h^3") + Polynomial(G, {
            (2, 1): FormalScalar({0: Fraction(10**20 + 1, 3**40), 1:
                                  GaussianRational(0, Fraction(3**41, 2**70 + 1))})})
    spec = SeminormSpec(weights, R)
    assert seminorm_pR(spec, f, hbar=hbar) == _seminorm_of_terms(spec, f, hbar)
    for k in range(-1, 8):
        cut = seminorms._degree_cut(f, k)
        assert cut == Polynomial(
            G, {e: c for e, c in f.terms.items() if sum(e) <= k}, f.domain,
            f.trunc)
        assert list(cut.terms) == [e for e in f.terms if sum(e) <= k]


h_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.dictionaries(st.integers(0, 3), gaussians, min_size=1, max_size=3).map(
        lambda d: FormalScalar(d, 4)),
    max_size=5,
).map(lambda d: Polynomial(G, d, "formal", 4))


@given(st.one_of(st.tuples(h_polys, h_polys),
                 st.tuples(numeric_polys, numeric_polys)),
       st.sampled_from([0.3, 1.0, 2.5]))
@settings(max_examples=100, deadline=None)
@example((Polynomial(G, {(0, 0): 2j}, "numeric"),
          Polynomial(G, {(0, 2): 1j, (0, 1): 1j}, "numeric")), 0.3)
@example((pf("-3/2*h^2*p^2 - 1/4*i*h^2*p^2 - q^2*p^2 - (1/2+1/2*i)*h^2*q^2*p^2"
             " + (1/3+i)*h*q + (3-i)*h^2*q"),
          pf("(-1/2+2*i)*q^2 - (1+i)*h*q^2")), 0.3)
def test_seminorm_depends_only_on_the_value(pair, hbar):
    # a + b and b + a store their terms in different orders
    a, b = pair
    spec = SeminormSpec((0.7, 1.3), 0.5)
    assert a + b == b + a
    assert seminorm_pR(spec, a + b, hbar=hbar) == seminorm_pR(
        spec, b + a, hbar=hbar)


# ------------------------------------------------------- continuity


def test_continuity_partial_sums():
    spec = SeminormSpec((1.0, 1.0), 0.5)
    nform = standard_form(G, domain="numeric")
    rep = star_continuity_report(spec, nform, complex(0, -1), (1.0, 0.0), (0.0, 1.0), kmax=40)
    assert rep.monotone
    assert rep.converged
    assert rep.tail < 1e-10
    sums = rep.partial_sums
    assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))


ACCURACY = 1e-14


def exact_pR(spec, p):
    """p_R at R = 1/2 of an h-free formal polynomial to 50 digits, the
    weights the exact rationals of the spec's floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for e, c in p.terms.items():
            g = c.coefficient(0)
            m2 = g.re ** 2 + g.im ** 2
            mag = (Decimal(m2.numerator) / Decimal(m2.denominator)).sqrt()
            for wi, k in zip(spec.weights, e):
                mag *= Decimal(wi) ** k
            total += Decimal(math.factorial(sum(e))).sqrt() * mag
        return total


@pytest.mark.parametrize("v,w,kmax", [
    ((1.0, 0.0), (0.0, 1.0), 12),
    ((0.5, -1.25), (2.0, 0.75), 9),
    ((0.0, 0.0), (1.5, 1.0), 4),
])
def test_continuity_cuts_one_exponential(v, w, kmax):
    # the partial sums agree, to ACCURACY relative, with those of
    # exponentials built afresh at every cutoff K, which add the float
    # terms of the product in another order, and both agree to ACCURACY
    # with the exact p_R of the exact product (the float inputs are dyadic)
    spec = SeminormSpec((1.0, 2.0), 0.5)
    nform = standard_form(G, domain="numeric").antisymmetric_part()
    fform = standard_form(G, "formal", 0).antisymmetric_part()
    z = complex(0, -1)
    rep = star_continuity_report(spec, nform, z, v, w, kmax=kmax)
    assert len(rep.partial_sums) == kmax + 1
    for k, got in enumerate(rep.partial_sums):
        ev, ew = (truncated_exponential(G, x, 1, k, "numeric", 0).base
                  for x in (v, w))
        fresh = seminorm_pR(spec, star(nform, z, ev, ew))
        assert abs(got - fresh) <= ACCURACY * fresh, k
        fv, fw = (truncated_exponential(G, list(map(Fraction, x)), 1, k,
                                        "formal", 0).base for x in (v, w))
        want = exact_pR(spec, star(fform, GaussianRational(0, -1), fv, fw))
        for x in (got, fresh):
            assert abs(Decimal(x) - want) <= Decimal(ACCURACY) * want, k


def test_continuity_honest_failure_when_cut_short():
    spec = SeminormSpec((1.0, 1.0), 0.5)
    nform = standard_form(G, domain="numeric")
    rep = star_continuity_report(spec, nform, complex(0, -1), (1.0, 0.0), (0.0, 1.0), kmax=6)
    assert rep.monotone
    assert not rep.converged  # tail still far above tolerance at K = 6


def test_continuity_checks_the_whole_product_before_any_pair(monkeypatch):
    # E_16 on 4 generators has C(20, 4) = 4,845 terms: the product of the
    # two has 23,474,025 pairs, above MAX_PRODUCT_PAIRS = 2**24, and the
    # report refuses it before the kernel starts its derivative table or
    # its first product
    def no_work(*args):
        raise AssertionError("the kernel started")

    monkeypatch.setattr(kernels, "_series", no_work)
    g4 = Generators(("q1", "q2", "p1", "p2"))
    v = (0.5, -0.25, 0.125, 1.0)
    with pytest.raises(StarWeylError, match="23474025 term pairs"):
        star_continuity_report(SeminormSpec((1.0,) * 4, 0.5),
                               standard_form(g4, "numeric"), complex(0, -1),
                               v, v, kmax=16)


def test_continuity_needs_a_numeric_form():
    with pytest.raises(IncompatibleError, match="numeric form"):
        star_continuity_report(SPEC, standard_form(G), Z, (1, 0), (0, 1),
                               kmax=4)


# -- the P_Lambda level bound ---------------------------------------------------
#
# With weights w > 0, p(a) = sum |c_alpha| w^alpha and ||Lambda||_w =
# max_ij |Lambda_ij| / (w_i w_j), the Leibniz rule and the triangle
# inequality give, for a homogeneous of degree n and b of degree m,
# p(mu P_Lambda^k (a (x) b)) <= ||Lambda||_w^k n!/(n-k)! m!/(m-k)! p(a) p(b):
# the sum over i of w_i d_i takes w^alpha to |alpha| w^alpha. The h^k part
# of star(Lambda, h, a, b) is mu P_Lambda^k (a (x) b) / k!. Checked in exact
# Fractions, p read from the stored ints, a Gaussian coefficient counting
# |re| + |im| (a norm with |xy| <= |x| |y|, as the derivation needs).


def p_weighted(f, weights, order):
    """p of the h^order part of f, exactly, from the stored ints."""
    total = Fraction(0)
    for key, v in f._data.items():
        if key[-2] == order:
            total += abs(v) * math.prod(
                w ** e for w, e in zip(weights, key[:-2]))
    return total / f._den


@st.composite
def level_cases(draw):
    """(Lambda, weights, a, b): a rational form on 1-3 generators, positive
    weights and homogeneous a and b of degrees 0-5 with Gaussian
    coefficients."""
    n = draw(st.integers(1, 3))
    gens = Generators(("x", "y", "z")[:n])
    lam = [[draw(fractions) for _ in range(n)] for _ in range(n)]
    weights = [draw(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                 max_denominator=4)) for _ in range(n)]

    def homogeneous():
        d = draw(st.integers(0, 5))
        monos = [e for e in itertools.product(range(d + 1), repeat=n)
                 if sum(e) == d]
        keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4,
                             unique=True))
        return Polynomial(gens, {e: draw(gaussians.filter(bool))
                                 for e in keys})

    return lam, weights, homogeneous(), homogeneous()


# one generator, a and b monomials: every level meets its bound
SHARP = ([[Fraction(-3, 2)]], [Fraction(2, 3)],
         Polynomial(Generators(("x",)), {(3,): GaussianRational(1, 2)}),
         Polynomial(Generators(("x",)), {(4,): -1}))


def level_sides(lam, weights, a, b):
    """[(k, p of the h^k part of star(Lambda, h, a, b), its bound)] for the
    levels k <= min(deg a, deg b), and the h^k parts above them."""
    form = BilinearForm(a.gens, lam, "formal")
    prod = star(form, FormalScalar.hbar(), a, b)
    norm = max(abs(x) / (weights[i] * weights[j])
               for i, row in enumerate(lam) for j, x in enumerate(row))
    n, m = a.degree(), b.degree()
    pa, pb = p_weighted(a, weights, 0), p_weighted(b, weights, 0)
    levels = [(k, p_weighted(prod, weights, k),
               norm ** k * math.perm(n, k) * math.perm(m, k)
               / math.factorial(k) * pa * pb)
              for k in range(min(n, m) + 1)]
    above = [p_weighted(prod, weights, k)
             for k in range(min(n, m) + 1, prod.trunc + 1)]
    return levels, above


@given(level_cases())
@example(SHARP)
@settings(max_examples=150, deadline=None)
def test_p_lambda_levels_meet_their_bound(case):
    levels, above = level_sides(*case)
    for k, lhs, rhs in levels:
        assert lhs <= rhs, k
    assert not any(above)


def test_the_level_bound_is_sharp():
    levels, above = level_sides(*SHARP)
    assert [k for k, _, _ in levels] == [0, 1, 2, 3]
    for k, lhs, rhs in levels:
        assert lhs == rhs > 0, k
    assert not any(above)
