"""The formal exponential series against the scalar loops they replaced.

truncated_exponential, OrderingOperator.apply and bch_exponential run their
formal levels on the stored (den, ints) pairs. The loops below are the
earlier versions, kept as written: one FormalScalar (or GaussianRational)
product per order, each level added to the result as it came. Both must
give equal sums (==), the same text and the same truncation, for mixed
truncations, Gaussian and h-dependent scalars, and the zero cases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    FormalScalar,
    GaussianRational,
    LieAlgebra,
    LieSeries,
    Polynomial,
    StarWeylError,
    bch,
    bch_exponential,
    heisenberg3,
    minus_i_hbar,
    ordering_operator,
    sl2,
    truncated_exponential,
)

GENS = {1: ("x",), 2: ("q", "p"), 3: ("x", "y", "z")}


def axb():
    return LieAlgebra(("A", "B"), {(0, 1): (0, 1)}, coords=("a", "b"))


def reference_exponential(gens, v, alpha, cutoff, trunc):
    """sum_k alpha^k (v~)^k / k!, one scalar product per order."""
    lin = Polynomial.linear(gens, v, "formal", trunc)
    alpha = lin.coerce_scalar(alpha)
    out = Polynomial.one(gens, "formal", trunc)
    power = Polynomial.one(gens, "formal", trunc)
    scale = lin.coerce_scalar(1)
    for k in range(1, cutoff + 1):
        power = power * lin
        if not power:
            break
        scale = scale * (alpha * Fraction(1, k))
        term = power * scale
        if not term:
            break
        out = out + term
    return out


def reference_delta(op, f):
    out = Polynomial.zero(f.gens, f.domain, f.trunc)
    for i, j, s in op.sym_form.nonzero_entries():
        d = f.partial_derivative(i).partial_derivative(j)
        if d:
            out = out + d * (s * Fraction(1, 2))
    return out


def reference_apply(op, f):
    """f + sum_k z^k Delta_S^k f / k!, one scalar product per order. When
    no order is added, f keeps its truncation only if Delta_S f is 0 for
    every S that agrees with op's as far as it is known (S known as far as
    f, or f of degree at most 1); else it is cut to that of z."""
    out = f
    term = f
    k = 0
    zk = f.coerce_scalar(1)
    while True:
        term = reference_delta(op, term)
        if not term:
            break
        k += 1
        zk = zk * op.z
        if not zk:
            break
        out = out + term * (zk * Fraction(1, math.factorial(k)))
    if out is f and (reference_delta(op, f) or (
            op.sym_form.trunc < f.trunc and f.degree() > 1)):
        out = f + Polynomial.zero(f.gens, f.domain, op.z.trunc)
    return out


def reference_bch_exponential(z, trunc):
    gens = z.algebra.coords
    n = trunc
    zp = Polynomial.zero(gens, "formal", n)
    for w in sorted(z.terms):
        r = 2 * w - 1
        if r <= n:
            lin = Polynomial.linear(gens, z.terms[w], "formal", n)
            zp = zp + lin * FormalScalar({r: GaussianRational(0, 1) ** (w - 1)}, n)
    out = Polynomial.one(gens, "formal", n)
    power = Polynomial.one(gens, "formal", n)
    fact = 1
    for j in range(1, n + 1):
        power = power * zp
        if not power:
            break
        fact *= j
        out = out + power * GaussianRational(Fraction(1, fact))
    return out


def same(x, ref):
    assert x == ref
    assert str(x) == str(ref)
    assert x.trunc == ref.trunc


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
gaussians = st.builds(GaussianRational, fractions, fractions)


def formal_scalars(max_trunc=6):
    return st.builds(
        FormalScalar,
        st.dictionaries(st.integers(0, 3), gaussians, max_size=3),
        st.integers(0, max_trunc),
    )


scalars = st.one_of(st.just(0), st.integers(-2, 2), fractions, gaussians,
                    formal_scalars())


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(GENS[n]), st.lists(scalars, min_size=n, max_size=n))),
    scalars, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
@example((("q", "p"), [0, 0]), Fraction(1, 2), 4, 3)
@example((("q", "p"), [1, Fraction(-2, 3)]), 0, 4, 3)
@example((("q", "p"), [FormalScalar({1: 1}, 2), 1]), GaussianRational(1, 1), 0, 5)
@example((("q", "p"), [FormalScalar({0: 1}, 2), 1]), FormalScalar({1: 1}, 6), 6, 6)
def test_truncated_exponential_equals_the_scalar_loop(gv, alpha, cutoff, trunc):
    gens, v = gv
    got = truncated_exponential(gens, v, alpha, cutoff, "formal", trunc)
    assert got.cutoff == cutoff
    same(got.base, reference_exponential(gens, v, alpha, cutoff, trunc))


def symmetric_forms(n):
    entry = st.one_of(st.just(0), fractions, gaussians, formal_scalars(8))
    cells = st.lists(entry, min_size=n * (n + 1) // 2,
                     max_size=n * (n + 1) // 2)

    def build(args):
        cs, trunc = args
        m = [[0] * n for _ in range(n)]
        it = iter(cs)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        return BilinearForm(GENS[n], m, "formal", trunc)

    return st.tuples(cells, st.integers(0, 8)).map(build)


def polys(n):
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return st.tuples(st.dictionaries(exps, scalars, max_size=5),
                     st.integers(0, 8)).map(
        lambda a: Polynomial(GENS[n], a[0], "formal", a[1]))


zs = st.one_of(st.integers(0, 8).map(lambda t: minus_i_hbar("formal", t)),
               fractions,
               st.just(0), formal_scalars(8))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(symmetric_forms(n),
                                                     polys(n))),
       zs, st.booleans())
@settings(max_examples=150, deadline=None)
# Delta_S f is zero at the h-order of S, below that of f: f is cut to that
# order, as an order of S past it could make Delta_S f nonzero
@example((BilinearForm(GENS[2], [[0, 0], [0, 1]], "formal", 0),
          Polynomial(GENS[2], {(0, 2): FormalScalar({1: GaussianRational(0, 1)},
                                                    1)}, "formal", 1)),
         Fraction(1), False)
def test_ordering_operator_equals_the_scalar_loop(case, z, inverse):
    form, f = case
    op = ordering_operator(form, z)
    if inverse:
        op = op.inverse()
    same(op.apply(f), reference_apply(op, f))


@pytest.mark.parametrize("z", [minus_i_hbar(), Fraction(-3, 4)])
def test_ordering_operator_on_a_dense_operand(z):
    form = BilinearForm(GENS[3], [[1, Fraction(1, 2), 0],
                                  [Fraction(1, 2), 0, -2],
                                  [0, -2, Fraction(1, 3)]])
    f = truncated_exponential(GENS[3], [1, Fraction(-1, 2), 2],
                              GaussianRational(0, 1), 7).base
    op = ordering_operator(form, z)
    same(op.apply(f), reference_apply(op, f))
    same(op.inverse().apply(op.apply(f)), f)


def test_ordering_operator_leaves_a_harmonic_operand_uncut():
    # Delta_S f = 0 with S known as far as f: no level is added, and f
    # keeps its truncation 6, not that of z, 2
    form = BilinearForm(GENS[2], [[0, 1], [1, 0]], "formal", 6)
    f = Polynomial(GENS[2], {(3, 0): 1, (0, 2): FormalScalar({1: 1}, 6)},
                   "formal", 6)
    for op in (ordering_operator(form, minus_i_hbar("formal", 2)),
               ordering_operator(form, 0)):
        got = op.apply(f)
        same(got, reference_apply(op, f))
        assert got.trunc == 6
    # S known to h^2 only: an order 3 of S could add z*S_qq*d_q^2 q^3 at
    # h-order 4, so f is cut to 2; so it is when z is a zero known to h^2
    # and Delta_S f is not 0
    short = BilinearForm(GENS[2], [[0, 1], [1, 0]], "formal", 2)
    zero2 = FormalScalar({}, 2)
    for op, g in ((ordering_operator(short, minus_i_hbar("formal", 6)), f),
                  (ordering_operator(form, zero2), f + Polynomial(
                      GENS[2], {(1, 1): 1}, "formal", 6))):
        got = op.apply(g)
        same(got, reference_apply(op, g))
        assert got.trunc == 2
        assert got == g + Polynomial.zero(GENS[2], "formal", 2)
    # z and Delta_S f nonzero, their product zero at h-order 2: f is cut
    z = FormalScalar({2: 1}, 2)
    form = BilinearForm(GENS[2], [[0, FormalScalar({1: 1})],
                                  [FormalScalar({1: 1}), 0]])
    f = Polynomial(GENS[2], {(1, 1): 1, (0, 2): FormalScalar({1: 1}, 6)},
                   "formal", 6)
    op = ordering_operator(form, z)
    got = op.apply(f)
    same(got, reference_apply(op, f))
    assert got.trunc == 2


@pytest.mark.parametrize("make, x, y", [
    (heisenberg3, (1, 0, 0), (0, 1, 0)),
    (heisenberg3, (1, Fraction(1, 2), -1), (0, 2, Fraction(1, 3))),
    (sl2, (1, 0, 0), (0, 1, 0)),
    (sl2, (Fraction(1, 2), -1, 1), (1, 1, Fraction(-2, 3))),
    (axb, (1, 0), (0, 1)),
    (axb, (Fraction(3, 2), -1), (1, Fraction(1, 4))),
], ids=["h3", "h3-dense", "sl2", "sl2-dense", "axb", "axb-dense"])
@pytest.mark.parametrize("order", [4, 6, 8])
def test_bch_exponential_equals_the_scalar_loop(make, x, y, order):
    z = bch(make(), x, y, order)
    for trunc in (order, order - 1):
        same(bch_exponential(z, trunc), reference_bch_exponential(z, trunc))


def test_bch_exponential_keeps_the_cutoff_limit():
    z = LieSeries(heisenberg3(), 101, {1: (1, 0, 0)})
    with pytest.raises(StarWeylError, match="cutoff 101 exceeds the limit"):
        bch_exponential(z)
