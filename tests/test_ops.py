"""Operator representations and formal adjoints.

std_rep/weyl_rep send phase-space polynomials in (q1..qn, p1..pn) to formal
differential operators in the configuration variables alone; both are algebra
homomorphisms for their ordering's star product.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    Polynomial,
    StarWeylError,
    TensorSquare,
    formal_adjoint,
    minus_i_hbar,
    ordering_operator,
    poly_from_text,
    standard_form,
    star_standard,
    star_weyl,
    std_rep,
    weyl_rep,
)

G = Generators(("q", "p"))
GQ = Generators(("q",))

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)


def pf(s):
    return poly_from_text(s, G)


def phase_polys(max_deg=3, max_terms=4):
    exps = st.tuples(
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=0, max_value=max_deg),
    )
    return st.lists(st.tuples(exps, gaussians), max_size=max_terms).map(
        lambda ts: sum((Polynomial(G, {e: c}) for e, c in ts), Polynomial.zero(G))
    )


def test_frozen_operator_strings():
    assert str(std_rep(pf("q*p"))) == "-i*h*q*D[q]"
    assert str(weyl_rep(pf("q*p"))) == "-i*h*q*D[q] - (1/2)*i*h"
    assert str(std_rep(pf("p"))) == "-i*h*D[q]"
    assert str(std_rep(pf("q"))) == "q"


def test_operator_application():
    op = std_rep(pf("p^2"))
    x = poly_from_text("q^3", GQ)
    assert str(op.apply(x)) == "-6*h^2*q"


@given(phase_polys(), phase_polys())
@settings(max_examples=40, deadline=None)
def test_std_rep_is_a_homomorphism(f, g):
    assert std_rep(star_standard(f, g)) == std_rep(f).compose(std_rep(g))


@given(phase_polys(), phase_polys())
@settings(max_examples=40, deadline=None)
def test_weyl_rep_is_a_homomorphism(f, g):
    assert weyl_rep(star_weyl(f, g)) == weyl_rep(f).compose(weyl_rep(g))


@given(phase_polys())
@settings(max_examples=40)
def test_adjoint_is_an_involution(f):
    op = std_rep(f)
    assert formal_adjoint(formal_adjoint(op)) == op


@given(phase_polys(max_deg=2), phase_polys(max_deg=2))
@settings(max_examples=30, deadline=None)
def test_adjoint_reverses_composition(f, g):
    a, b = std_rep(f), std_rep(g)
    assert formal_adjoint(a.compose(b)) == formal_adjoint(b).compose(formal_adjoint(a))


@given(phase_polys())
@settings(max_examples=40, deadline=None)
def test_adjoint_of_std_rep_needs_the_squared_twist(f):
    # adjoint(rho_std(f)) = rho_std(N^2 conj(f)); N^2 is the symmetric-shift
    # operator at doubled parameter
    z = minus_i_hbar()
    nsq = ordering_operator(standard_form(G).symmetric_part(), z * 2)
    assert formal_adjoint(std_rep(f)) == std_rep(nsq.apply(f.conjugate()))


def test_conjugation_alone_fails_for_complex_symbols():
    # the twist matters: for f = i*q*p plain conjugation gets the sign wrong
    f = pf("i*q*p")
    assert formal_adjoint(std_rep(f)) != std_rep(f.conjugate())


def test_weyl_rep_of_real_symbol_is_self_adjoint():
    for text in ("q*p", "q^2 + p^2", "q^3*p"):
        op = weyl_rep(pf(text))
        assert formal_adjoint(op) == op


def test_operator_ring_basics():
    ident = DifferentialOperator.identity(GQ)
    x = poly_from_text("q^2", GQ)
    assert ident.apply(x) == x
    zero = DifferentialOperator.zero(GQ)
    assert zero.apply(x) == Polynomial.zero(GQ)
    op = std_rep(pf("q*p"))
    assert (op + zero) == op
    assert op.scale(2).apply(x) == op.apply(x) + op.apply(x)


def test_operator_json_shape():
    # operators are an output-only format; validate against the schema
    import jsonschema

    from starweyl.schemas import OPERATOR_SCHEMA

    op = weyl_rep(pf("q^2*p + i*p^2"))
    data = op.to_json()
    jsonschema.validate(data, OPERATOR_SCHEMA)
    assert data["generators"] == ["q"]
    assert all("coef_exp" in t and "deriv_exp" in t for t in data["terms"])


# -- compose and adjoint against apply -------------------------------------------
#
# compose and formal_adjoint run on symbols through the star kernel and the
# ordering operator's level loop; apply is a direct loop that shares no
# code with them, and polynomial products and partial_derivative build the
# adjoint's reference.

CONFIG = [Generators(("q",)), Generators(("q1", "q2"))]


def hseries(max_trunc=3):
    """Formal scalars with parts at several h-orders, some truncated."""
    return st.builds(FormalScalar,
                     st.dictionaries(st.integers(0, 2), gaussians,
                                     min_size=1, max_size=2),
                     st.integers(0, max_trunc))


def exponents(n, top):
    return st.tuples(*[st.integers(0, top)] * n)


def operators(gens, top=3, max_terms=4):
    n = len(gens)
    return st.builds(
        lambda terms, t: DifferentialOperator(gens, terms, "formal", t),
        st.dictionaries(st.tuples(exponents(n, top), exponents(n, top)),
                        hseries(), min_size=1, max_size=max_terms),
        st.integers(0, 4))


def config_polys(gens, top=4, max_terms=4):
    return st.builds(
        lambda terms, t: Polynomial(gens, terms, "formal", t),
        st.dictionaries(exponents(len(gens), top), hseries(),
                        min_size=1, max_size=max_terms),
        st.integers(0, 4))


def operator_cases(count):
    return st.sampled_from(CONFIG).flatmap(lambda gens: st.tuples(
        *[operators(gens)] * count, config_polys(gens)))


@given(operator_cases(2))
@settings(max_examples=60, deadline=None)
def test_compose_is_apply_after_apply(case):
    a, b, x = case
    assert a.compose(b).apply(x) == a.apply(b.apply(x))


def adjoint_reference(op, x):
    """sum over the terms c x^a d^d of op of (-1)^{|d|} d^d (conj(c) x^a x),
    from polynomial products and partial derivatives alone."""
    gens = x.gens
    total = Polynomial.zero(gens, "formal", min(op.trunc, x.trunc))
    for (a, d), c in op.terms.items():
        term = Polynomial(gens, {a: c.conjugate()}, "formal", op.trunc) * x
        for i, k in enumerate(d):
            for _ in range(k):
                term = term.partial_derivative(i)
        total = total + (-term if sum(d) % 2 else term)
    return total


@given(operator_cases(1))
@settings(max_examples=60, deadline=None)
def test_adjoint_applies_as_the_integration_by_parts_sum(case):
    a, x = case
    assert formal_adjoint(a).apply(x) == adjoint_reference(a, x)


def test_adjoint_reference_on_a_pinned_case():
    # (q D)^dagger = -D o q = -q D - 1, and on q^2: -2q^2 - q^2
    op = DifferentialOperator(CONFIG[0], {((1,), (1,)): 1})
    x = poly_from_text("q^2", CONFIG[0])
    assert str(formal_adjoint(op)) == "-q*D[q] - 1"
    assert adjoint_reference(op, x) == formal_adjoint(op).apply(x)
    assert str(adjoint_reference(op, x)) == "-3*q^2"


def test_operator_products_refuse_past_the_size_limit(monkeypatch):
    import importlib

    from starweyl import kernels, ops, poly

    star_module = importlib.import_module("starweyl.star")

    # apply and TensorSquare.of form every pair of stored terms, and
    # compose gets the limit from star: each is refused before any work
    def no_work(*args):
        raise AssertionError("the product started")

    monkeypatch.setattr(poly, "MAX_PRODUCT_PAIRS", 3)
    monkeypatch.setattr(ops, "accumulate", no_work)
    monkeypatch.setattr(star_module, "accumulate", no_work)
    monkeypatch.setattr(kernels, "star_terms", no_work)
    op = std_rep(pf("q*p + p + 1"))
    x = poly_from_text("q^2 + q", CONFIG[0])
    f = pf("q + p")
    for call in (lambda: op.apply(x), lambda: op.compose(op),
                 lambda: TensorSquare.of(f, pf("q*p + q"))):
        with pytest.raises(StarWeylError, match="above the limit 3"):
            call()
