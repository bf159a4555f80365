"""Truncation labels are honest.

A formal result labelled with truncation L claims its coefficients are
exact through h^L: they depend only on the orders of the inputs that the
inputs themselves know. So extending every input with arbitrary terms
above its own truncation (which a truncated input leaves unknown) and
cutting the new result at L must give the old result back. A label one
order too high fails this: the order above the honest label moves with
the extension.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    LieAlgebra,
    OrderingOperator,
    Polynomial,
    TruncationError,
    UEElement,
    apply_equivalence,
    gutt_star,
    kks_bracket,
    minus_i_hbar,
    n_operator,
    pbw_symmetrize,
    poisson_bracket,
    sl2,
    star,
    star_standard,
    star_weyl,
    standard_form,
    std_rep,
    truncated_exponential,
    weyl_rep,
)

G = Generators(("q", "p"))
GQ = Generators(("q",))
SL2 = sl2()
EXTRA = 2  # orders added above each input's truncation


def gaussian(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def extend_scalar(c, rng):
    """c known to EXTRA more orders: its own orders and arbitrary ones
    above its truncation."""
    coeffs = dict(c.coeffs)
    for r in range(c.trunc + 1, c.trunc + EXTRA + 1):
        if rng.random() < 0.7:
            coeffs[r] = gaussian(rng)
    return FormalScalar(coeffs, c.trunc + EXTRA)


def extend_terms(terms, trunc, rng, keys):
    """The coefficients of terms extended, over their truncation trunc,
    plus new keys whose coefficients are all above it."""
    out = {k: extend_scalar(c, rng) for k, c in terms.items()}
    for k in keys:
        if k not in out and rng.random() < 0.3:
            out[k] = extend_scalar(FormalScalar.constant(0, trunc), rng)
    return out


def monomials(n, top=2):
    return list(itertools.product(range(top + 1), repeat=n))


MONOMIALS = monomials(2)
OPERATOR_KEYS = [(a, d) for a in monomials(1) for d in monomials(1)]
# the envelope operations keep to degree 3 in the three sl2 coordinates
KEYS = {G: MONOMIALS, GQ: monomials(1), SL2.coords: monomials(3, 1)}


def extend(x, rng):
    """An input x known to EXTRA more orders, equal to x through its own
    truncation; an int or an algebra as it is, and a tuple of inputs input
    by input."""
    if isinstance(x, (int, LieAlgebra)):
        return x
    if isinstance(x, tuple):
        return tuple(extend(c, rng) for c in x)
    if isinstance(x, FormalScalar):
        return extend_scalar(x, rng)
    if isinstance(x, Polynomial):
        return Polynomial(x.gens, extend_terms(x.terms, x.trunc, rng,
                                               KEYS[x.gens]),
                          "formal", x.trunc + EXTRA)
    if isinstance(x, DifferentialOperator):
        return DifferentialOperator(x.gens, extend_terms(
            x.terms, x.trunc, rng, OPERATOR_KEYS), "formal", x.trunc + EXTRA)
    if isinstance(x, BilinearForm):
        n = len(x.gens)
        m = [[extend_scalar(c, rng) for c in row] for row in x.matrix]
        if x.is_symmetric():
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        return BilinearForm(x.gens, m, "formal", x.trunc + EXTRA)
    if isinstance(x, OrderingOperator):
        return OrderingOperator(extend(x.sym_form, rng), extend(x.z, rng))
    raise TypeError(type(x))


def rebuild(x, terms, trunc):
    """A sum over the space of x with terms, labelled trunc."""
    if isinstance(x, UEElement):
        return UEElement(x.algebra, terms, trunc)
    return type(x)(x.gens, terms, "formal", trunc)


def honest(op, args, seed):
    """True when op's label on args survives an extension of args (drawn
    from seed): the extended result cut at the label is the result."""
    out = op(*args)
    more = op(*(extend(x, random.Random(f"{seed}:{k}"))
                for k, x in enumerate(args)))
    cut = rebuild(more, more.terms, out.trunc)
    return cut == out and cut.trunc == out.trunc


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)


def scalars(max_trunc=3, min_size=0):
    return st.builds(FormalScalar,
                     st.dictionaries(st.integers(0, 2), gaussians,
                                     min_size=min_size, max_size=2),
                     st.integers(0, max_trunc))


def polys(max_trunc=3, gens=G):
    return st.builds(
        lambda terms, t: Polynomial(gens, terms, "formal", t),
        st.dictionaries(st.sampled_from(KEYS[gens]),
                        scalars(min_size=1), min_size=1, max_size=3),
        st.integers(0, max_trunc))


def operators(max_trunc=3):
    return st.builds(
        lambda terms, t: DifferentialOperator(GQ, terms, "formal", t),
        st.dictionaries(st.sampled_from(OPERATOR_KEYS), scalars(min_size=1),
                        min_size=1, max_size=3),
        st.integers(0, max_trunc))


def forms(symmetric=False):
    def build(m, t):
        if symmetric:
            m = [m[0], m[1], m[1], m[3]]
        return BilinearForm(G, [m[:2], m[2:]], "formal", t)
    return st.builds(build, st.lists(st.one_of(st.just(0), scalars()),
                                     min_size=4, max_size=4),
                     st.integers(0, 4))


zs = st.one_of(st.integers(0, 4).map(lambda t: minus_i_hbar("formal", t)),
               scalars())


def exponential(v, alpha, cutoff):
    """truncated_exponential on G, its label from v and alpha alone."""
    return truncated_exponential(G, v, alpha, cutoff, "formal", 8).base


def with_order(f):
    """(f, r) for an order r that f knows."""
    return st.tuples(st.just(f), st.integers(0, f.trunc))


SL2_POLYS = polys(gens=SL2.coords)

OPS = {
    "star": (star, st.tuples(forms(), zs, polys(), polys())),
    "star_standard": (star_standard, st.tuples(polys(), polys())),
    "star_weyl": (star_weyl, st.tuples(polys(), polys())),
    "poisson_bracket": (poisson_bracket, st.tuples(forms(), polys(), polys())),
    "apply_equivalence": (apply_equivalence, st.tuples(
        st.builds(OrderingOperator, forms(symmetric=True), zs),
        forms(), zs, polys(), polys())),
    "compose": (DifferentialOperator.compose,
                st.tuples(operators(), operators())),
    "formal_adjoint": (DifferentialOperator.formal_adjoint,
                       st.tuples(operators())),
    "std_rep": (std_rep, st.tuples(polys())),
    "weyl_rep": (weyl_rep, st.tuples(polys())),
    "apply": (DifferentialOperator.apply,
              st.tuples(operators(), polys(gens=GQ))),
    "*": (operator.mul, st.tuples(polys(), polys())),
    "+": (operator.add, st.tuples(polys(), polys())),
    "**": (operator.pow, st.tuples(polys(), st.integers(0, 3))),
    "translate": (Polynomial.translate,
                  st.tuples(polys(), st.tuples(zs, scalars()))),
    "partial_derivative": (Polynomial.partial_derivative,
                           st.tuples(polys(), st.integers(0, 1))),
    "conjugate": (Polynomial.conjugate, st.tuples(polys())),
    "hbar_coefficient": (Polynomial.hbar_coefficient,
                         polys().flatmap(with_order)),
    "OrderingOperator.apply": (OrderingOperator.apply, st.tuples(
        st.builds(OrderingOperator, forms(symmetric=True), zs), polys())),
    "truncated_exponential": (exponential, st.tuples(
        st.tuples(zs, scalars()), zs, st.integers(0, 4))),
    "gutt_star": (gutt_star, st.tuples(st.just(SL2), SL2_POLYS, SL2_POLYS)),
    "kks_bracket": (kks_bracket,
                    st.tuples(st.just(SL2), SL2_POLYS, SL2_POLYS)),
    "pbw_symmetrize": (pbw_symmetrize, st.tuples(st.just(SL2), SL2_POLYS)),
}


@given(st.sampled_from(sorted(OPS)).flatmap(
    lambda name: st.tuples(st.just(name), OPS[name][1])),
    st.integers(0, 2**32))
@settings(max_examples=920, deadline=None)
def test_truncation_labels_are_honest(case, seed):
    name, args = case
    assert honest(OPS[name][0], args, seed), name


def relabelled(op):
    """op with its result's label one order too high: each coefficient
    claims the order above its truncation is zero."""
    def mislabelled(*args):
        return raised(op(*args))
    return mislabelled


def raised(x):
    """x labelled one order higher, claiming that order is zero."""
    return rebuild(x, {k: FormalScalar(c.coeffs, x.trunc + 1)
                       for k, c in x.terms.items()}, x.trunc + 1)


def test_a_label_one_order_too_high_fails():
    # p * q = p*q - i*h under the standard form, known to h^1: the h^2 part
    # of an extended p reaches the product's order 2
    form = standard_form(G, "formal", 1)
    z = minus_i_hbar("formal", 1)
    p = Polynomial(G, {(0, 1): 1}, "formal", 1)
    q = Polynomial(G, {(1, 0): 1}, "formal", 1)
    args = (form, z, p, q)
    assert all(honest(star, args, seed) for seed in range(20))
    assert sum(not honest(relabelled(star), args, seed)
               for seed in range(20)) >= 15


# inputs known to h^1, one case per operator operation of the property
# above, whose extension reaches the order above the result's label
OPERATOR_CASES = {
    "compose": (DifferentialOperator.compose, (
        DifferentialOperator(GQ, {((1,), (0,)): 1}, "formal", 1),
        DifferentialOperator(GQ, {((0,), (1,)): 1}, "formal", 1))),
    "formal_adjoint": (DifferentialOperator.formal_adjoint, (
        DifferentialOperator(GQ, {((1,), (1,)): 1}, "formal", 1),)),
    "std_rep": (std_rep, (Polynomial(G, {(1, 0): 1, (0, 1): 1}, "formal", 1),)),
    "weyl_rep": (weyl_rep, (Polynomial(G, {(1, 1): 1, (1, 0): 1}, "formal", 1),)),
    "apply": (DifferentialOperator.apply, (
        DifferentialOperator(GQ, {((0,), (1,)): 1}, "formal", 1),
        Polynomial(GQ, {(2,): 1}, "formal", 1))),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CASES))
def test_an_operator_label_one_order_too_high_fails(name):
    op, args = OPERATOR_CASES[name]
    assert all(honest(op, args, seed) for seed in range(20))
    assert sum(not honest(relabelled(op), args, seed)
               for seed in range(20)) >= 15


def known_to_h1(terms, gens=G):
    """The polynomial of {exponent: number}, each coefficient known to
    h^1."""
    return Polynomial(gens, {e: FormalScalar.constant(c, 1)
                             for e, c in terms.items()}, "formal", 1)


Q, P = known_to_h1({(1, 0): 1}), known_to_h1({(0, 1): 1})
X, Y = (known_to_h1({e: 1}, SL2.coords) for e in ((1, 0, 0), (0, 1, 0)))
ONE = FormalScalar.constant(1, 1)

# inputs known to h^1, one case per operation the property above probes
# beyond the star and operator layers, whose extension reaches the order
# above the result's label
PROBE_CASES = {
    "*": (operator.mul, (Q, P)),
    "+": (operator.add, (Q, P)),
    "**": (operator.pow, (Q + P, 2)),
    "translate": (Polynomial.translate, (Q * Q, (ONE, ONE))),
    "partial_derivative": (Polynomial.partial_derivative, (Q * Q, 0)),
    "conjugate": (Polynomial.conjugate, (Q.scale(GaussianRational(0, 1)),)),
    "OrderingOperator.apply": (OrderingOperator.apply,
                               (n_operator(G, "formal", 1), Q * P)),
    "truncated_exponential": (exponential, ((ONE, ONE), ONE, 2)),
    "gutt_star": (gutt_star, (SL2, X, Y)),
    "kks_bracket": (kks_bracket, (SL2, X, Y)),
    "pbw_symmetrize": (pbw_symmetrize, (SL2, X * Y)),
}


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_a_probe_label_one_order_too_high_fails(name):
    op, args = PROBE_CASES[name]
    assert all(honest(op, args, seed) for seed in range(20))
    assert sum(not honest(relabelled(op), args, seed)
               for seed in range(20)) >= 15


def test_hbar_coefficient_reads_no_order_above_the_truncation():
    # the h^r part of a polynomial is h-free, so no label of it is too
    # high; the order bound is what may be one too high
    f = Q + P
    assert all(honest(Polynomial.hbar_coefficient, (f, r), seed)
               for r in (0, 1) for seed in range(20))
    with pytest.raises(TruncationError):
        f.hbar_coefficient(2)

    def bound_too_high(f, r):
        return raised(f).hbar_coefficient(r)
    # order 2 read as 0, where the extensions of f carry their h^2 parts
    assert sum(not honest(bound_too_high, (f, 2), seed)
               for seed in range(20)) >= 15
