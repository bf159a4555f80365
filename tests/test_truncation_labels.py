"""Truncation labels are honest.

A formal result labelled with truncation L claims its coefficients are
exact through h^L: they depend only on the orders of the inputs that the
inputs themselves know. So extending every input with arbitrary terms
above its own truncation (which a truncated input leaves unknown) and
cutting the new result at L must give the old result back. A label one
order too high fails this: the order above the honest label moves with
the extension.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    FormalScalar,
    GaussianRational,
    Generators,
    OrderingOperator,
    Polynomial,
    TensorSquare,
    apply_equivalence,
    minus_i_hbar,
    p_lambda,
    poisson_bracket,
    star,
    star_standard,
    star_weyl,
    standard_form,
)

G = Generators(("q", "p"))
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


MONOMIALS = [(i, j) for i in range(3) for j in range(3)]


def extend(x, rng):
    """An input x known to EXTRA more orders, equal to x through its own
    truncation."""
    if isinstance(x, FormalScalar):
        return extend_scalar(x, rng)
    if isinstance(x, Polynomial):
        return Polynomial(x.gens, extend_terms(x.terms, x.trunc, rng,
                                               MONOMIALS),
                          "formal", x.trunc + EXTRA)
    if isinstance(x, TensorSquare):
        return TensorSquare(x.gens, extend_terms(
            x.terms, x.trunc, rng, [(ea, eb) for ea in MONOMIALS[:4]
                                    for eb in MONOMIALS[:4]]),
            "formal", x.trunc + EXTRA)
    if isinstance(x, BilinearForm):
        n = len(x.gens)
        m = [[extend_scalar(c, rng) for c in row] for row in x.matrix]
        if x.is_symmetric():
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        return BilinearForm(x.gens, m, "formal", x.trunc + EXTRA)
    if isinstance(x, OrderingOperator):
        return OrderingOperator(extend(x.sym_form, rng), extend(x.z, rng))
    raise TypeError(type(x))


def honest(op, args, seed):
    """True when op's label on args survives an extension of args (drawn
    from seed): the extended result cut at the label is the result."""
    out = op(*args)
    more = op(*(extend(x, random.Random(f"{seed}:{k}"))
                for k, x in enumerate(args)))
    cut = type(more)(more.gens, more.terms, "formal", out.trunc)
    return cut == out and cut.trunc == out.trunc


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)


def scalars(max_trunc=3, min_size=0):
    return st.builds(FormalScalar,
                     st.dictionaries(st.integers(0, 2), gaussians,
                                     min_size=min_size, max_size=2),
                     st.integers(0, max_trunc))


def polys(max_trunc=3):
    return st.builds(
        lambda terms, t: Polynomial(G, terms, "formal", t),
        st.dictionaries(st.sampled_from(MONOMIALS), scalars(min_size=1),
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

OPS = {
    "star": (star, st.tuples(forms(), zs, polys(), polys())),
    "star_standard": (star_standard, st.tuples(polys(), polys())),
    "star_weyl": (star_weyl, st.tuples(polys(), polys())),
    "poisson_bracket": (poisson_bracket, st.tuples(forms(), polys(), polys())),
    "p_lambda": (p_lambda, st.tuples(forms(), st.builds(
        TensorSquare.of, polys(), polys()))),
    "apply_equivalence": (apply_equivalence, st.tuples(
        st.builds(OrderingOperator, forms(symmetric=True), zs),
        forms(), zs, polys(), polys())),
}


@given(st.sampled_from(sorted(OPS)).flatmap(
    lambda name: st.tuples(st.just(name), OPS[name][1])),
    st.integers(0, 2**32))
@settings(max_examples=240, deadline=None)
def test_truncation_labels_are_honest(case, seed):
    name, args = case
    assert honest(OPS[name][0], args, seed), name


def relabelled(op):
    """op with its result's label one order too high: each coefficient
    claims the order above its truncation is zero."""
    def mislabelled(*args):
        out = op(*args)
        return type(out)(out.gens, {
            k: FormalScalar(c.coeffs, out.trunc + 1)
            for k, c in out.terms.items()}, "formal", out.trunc + 1)
    return mislabelled


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
