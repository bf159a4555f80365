"""The sparse kernels on the integer coefficients of the formal star path,
and the packed P_Lambda kernels, which run the star product as a
bidifferential operator (derivatives of the left factor against one
merged right factor per multi-index), against the naive star product and
the tensor-square loops on tuple keys."""

import itertools
import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    FormalScalar,
    GaussianRational,
    Generators,
    Polynomial,
    kernels,
    naive_star,
    scalar_from_text,
    star,
)
from starweyl.bruteforce import DensePolynomial
from starweyl.scalars import accumulate
from starweyl.scalars import NumericScalar


def test_backend_is_declared():
    assert kernels.BACKEND == "pure"


def test_p_lambda_raise_lands_on_the_right_factor():
    # one generator plus the h and i slots; d (x) d with weight 3, and the
    # same with the product also raised to h*i: the raise sits on slots
    # that no entry differentiates, and the step puts it on the right
    # factor, whose P_Lambda steps carry it
    t = {((2, 0, 0), (1, 0, 0)): 5}
    plain = kernels.p_lambda_terms([(0, 0, 3, None)], t)
    assert plain == {((1, 0, 0), (0, 0, 0)): 30}
    shifted = kernels.p_lambda_terms([(0, 0, 3, (-1, 1, 1))], t)
    assert shifted == {((1, 0, 0), (0, 1, 1)): 30}


@pytest.mark.parametrize("left", [
    (-1, 1, 0),   # raises slot 1, which the second entry differentiates
    (0, 0, 1),    # no -1 at slot i
    (-2, 0, 1),   # lowers slot i twice
    (-1, 0, -1),  # lowers a free slot
], ids=["differentiated", "no-drop", "double-drop", "negative"])
def test_kernels_refuse_other_raises_before_any_work(left, monkeypatch):
    # the kernels move an entry's raises from the left factor to the
    # right one, exact only on slots that no entry differentiates; any
    # other left is a ValueError before a single step or product
    entries = [(0, 0, 1, left), (1, 1, 1, None)]
    a = {(2, 1, 0): 1}
    t = {((2, 1, 0), (1, 1, 0)): 1}

    def no_work(*args):
        raise AssertionError("the kernel started")

    monkeypatch.setattr(kernels, "_series", no_work)
    for call in (lambda: kernels.star_terms(entries, [1, 1], a, a, 1),
                 lambda: kernels.star_slices(entries, [1, 1], a, a, 1, 2),
                 lambda: kernels.bracket_terms(entries, a, a),
                 lambda: kernels.p_lambda_terms(entries, t)):
        with pytest.raises(ValueError, match="no entry differentiates"):
            call()


def test_star_terms_weights_levels_and_cancels():
    # x * x with z folded into one entry: level weights 2 and 1
    a = {(1, 0, 0): 1}
    entries = [(0, 0, 1, (-1, 1, 0))]
    out = kernels.star_terms(entries, [2, 1], a, a, 1)
    assert out == {(2, 0, 0): 2, (0, 1, 0): 1}
    # opposite entries cancel level 1 exactly and the key is dropped
    entries = [(0, 0, 1, None), (0, 0, -1, None)]
    assert kernels.star_terms(entries, [1, 1], a, a, 1) == {(2, 0, 0): 1}


# star_terms packs every key into one int, with one field width per call
# taken from the largest slot value the call can reach. The cases below put
# exponents on and next to the width boundaries 2^k - 1 and 2^k, let the i
# slot climb above 1 before int_canonical folds it, and mix truncations.
# The operand of low degree keeps the naive oracle's r levels cheap.

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gaussians = st.builds(GaussianRational, fractions, fractions)
truncs = st.integers(min_value=1, max_value=6)
ZS = ("-i*h", "i*h", "i*h^2", "h - i*h^2", "2*i", "3/2")
EDGES = sorted({0, 1, 2, 3, 300} | {2**k + d for k in range(2, 9) for d in (-1, 0)})


def formal_scalars(trunc, max_order=2):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_order), gaussians,
        min_size=1, max_size=2,
    ).map(lambda d: FormalScalar(d, trunc))


def polys(gens, exponents, trunc, max_terms=3):
    exps = st.tuples(*[exponents] * len(gens))
    return st.dictionaries(exps, formal_scalars(trunc), max_size=max_terms).map(
        lambda d: Polynomial(gens, d, "formal", trunc))


def forms(gens, trunc):
    n = len(gens)
    entry = st.one_of(st.just(0), formal_scalars(trunc, 1))
    return st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda m: BilinearForm(gens, [m[k * n:(k + 1) * n] for k in range(n)],
                               "formal", trunc))


def star_cases(gens, high, low):
    """(form, z, a, b) at three truncations; one operand's exponents are
    drawn from high and the other's from low, on either side."""
    return st.tuples(truncs, truncs, truncs, st.booleans()).flatmap(
        lambda t: st.tuples(
            forms(gens, t[2]), st.sampled_from(ZS),
            polys(gens, high if t[3] else low, t[0]),
            polys(gens, low if t[3] else high, t[1]),
        ))


def check_against_the_oracle(case):
    form, ztext, a, b = case
    z = scalar_from_text(ztext, "formal", form.trunc)
    out = star(form, z, a, b)
    t = min(a.trunc, b.trunc, form.trunc)
    assert out.trunc == t
    n = len(form.gens)
    # the box holds every exponent of the operands and of the product
    box = 1 + sum(max((max(e) for e in p.terms), default=0) for p in (a, b))
    lam = [[form.entry(i, j) for j in range(n)] for i in range(n)]
    dense = naive_star(
        lam, z,
        DensePolynomial.from_dict(n, a.terms, "formal", t, box=box),
        DensePolynomial.from_dict(n, b.terms, "formal", t, box=box),
    ).to_dict()
    assert out.terms == dense


G1 = Generators(("x",))
G2 = Generators(("q", "p"))


@given(st.one_of(
    star_cases(G1, st.sampled_from(EDGES), st.integers(0, 3)),
    star_cases(G2, st.sampled_from([e for e in EDGES if e <= 64]),
               st.integers(0, 1)),
))
@settings(max_examples=60, deadline=None)
def test_star_matches_the_oracle_on_sparse_high_exponents(case):
    check_against_the_oracle(case)


@given(star_cases(G2, st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=40, deadline=None)
def test_star_matches_the_oracle_as_the_i_slot_climbs(case):
    check_against_the_oracle(case)


def tuple_p_lambda(entries, t):
    """One P_Lambda step of a tensor square on tuple keys: each entry
    lowers slot i on the left and slot j on the right, and its raises
    (left without its -1 at i) land on the right factor."""
    out = {}
    for (ea, eb), c in t.items():
        for i, j, lam, left in entries:
            ai, bj = ea[i], eb[j]
            if ai and bj:
                kb = eb[:j] + (bj - 1,) + eb[j + 1:]
                if left is not None:
                    kb = tuple(v + w + (k == i) for k, (v, w)
                               in enumerate(zip(kb, left)))
                key = (ea[:i] + (ai - 1,) + ea[i + 1:], kb)
                accumulate(out, [(key, c * (lam * (ai * bj)))])
    return out


def tuple_star(entries, zfacts, a, b):
    """sum_r zfacts[r] * mu(P^r(a (x) b)) level by level on tuple keys:
    the tensor square, the reference the factored kernel must equal."""
    t = {(ea, eb): ca * cb for ea, ca in a.items() for eb, cb in b.items()}
    out = {}
    for zf in zfacts:
        if zf:
            accumulate(out, ((tuple(map(add, ea, eb)), c * zf)
                             for (ea, eb), c in t.items()))
        t = tuple_p_lambda(entries, t)
    return out


@st.composite
def kernel_cases(draw):
    """(entries, zfacts, a, b, rmax) on integer coefficients: keys of 1-4
    differentiated slots and two free ones, on the width boundaries, and
    entries whose raises of the free slots (up to 60 a step) can outgrow
    the operands' slots."""
    n = draw(st.integers(1, 4))
    keys = st.tuples(*[st.sampled_from(EDGES[:12])] * (n + 2))
    ints = st.integers(-9, 9).filter(bool)
    a, b = (draw(st.dictionaries(keys, ints, max_size=4)) for _ in range(2))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        left = draw(st.one_of(st.none(), st.tuples(
            st.integers(0, 60), st.integers(0, 60))))
        if left is not None:
            left = tuple(-1 if k == i else 0 for k in range(n)) + left
        entries.append((i, j, draw(ints), left))
    rmax = draw(st.integers(0, 4))
    zfacts = draw(st.lists(st.integers(-3, 3), min_size=rmax + 1,
                           max_size=rmax + 1))
    return entries, zfacts, a, b, rmax


def check_against_the_tuple_loops(entries, zfacts, a, b, rmax):
    """The packed kernels equal the tensor-square loops on tuple keys, key
    for key and value for value."""
    assert kernels.star_terms(entries, zfacts, a, b, rmax) == \
        tuple_star(entries, zfacts[:rmax + 1], a, b)
    t = {(ea, eb): ca * cb for ea, ca in a.items() for eb, cb in b.items()}
    assert kernels.p_lambda_terms(entries, t) == tuple_p_lambda(entries, t)
    rhs = tuple_p_lambda(entries, {(eb, ea): cb * ca for eb, cb in b.items()
                                   for ea, ca in a.items()})
    diff = accumulate(tuple_p_lambda(entries, t),
                      ((key, -c) for key, c in rhs.items()))
    mu = accumulate({}, ((tuple(map(add, ea, eb)), c)
                         for (ea, eb), c in diff.items()))
    assert kernels.bracket_terms(entries, a, b) == mu


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_packed_kernels_match_the_tuple_loops(case):
    check_against_the_tuple_loops(*case)


@st.composite
def dense_full_cases(draw):
    """Dense operands (every monomial up to their degree, most of them
    nonzero) on 2-4 generators plus the h and i slots, against a full
    form: an entry for every (i, j), some of them in two parts with
    different h raises, as star folds an h-dependent z * Lambda."""
    n = draw(st.integers(2, 4))
    ints = st.integers(-6, 6)

    def dense(degree):
        return {e + (draw(st.integers(0, 2)), draw(st.integers(0, 1))): c
                for e in itertools.product(range(degree + 1), repeat=n)
                if sum(e) <= degree and (c := draw(ints))}

    a, b = dense(draw(st.integers(1, 5 - n // 2))), dense(draw(st.integers(1, 4)))
    entries = []
    for i in range(n):
        for j in range(n):
            for r in range(draw(st.integers(1, 2))):
                left = tuple(-1 if k == i else 0 for k in range(n))
                entries.append((i, j, draw(ints.filter(bool)),
                                left + (r + draw(st.integers(0, 1)),
                                        draw(st.integers(0, 1)))))
    rmax = draw(st.integers(0, 6))
    zfacts = draw(st.lists(st.integers(-4, 4), min_size=rmax + 1,
                           max_size=rmax + 1))
    return entries, zfacts, a, b, rmax


@given(dense_full_cases())
@settings(max_examples=25, deadline=None)
def test_packed_kernels_match_the_tuple_loops_on_dense_full_forms(case):
    # many multi-indices per level and many paths into each: the merged
    # right factors must still add up to the tensor square
    check_against_the_tuple_loops(*case)


floats = st.floats(min_value=-8, max_value=8, allow_subnormal=False)
complexes = st.builds(complex, floats, floats)


TINY = Fraction(1e-300)


def exact(x):
    """The Gaussian rational a complex double stands for."""
    x = complex(x)
    return GaussianRational(Fraction(x.real), Fraction(x.imag))


def magnitude(x):
    """|re| + |im| of a complex double, exactly: at least its modulus."""
    x = complex(x)
    return abs(Fraction(x.real)) + abs(Fraction(x.imag))


@given(
    st.lists(st.one_of(st.just(0j), complexes), min_size=4, max_size=4),
    complexes,
    *[st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                      complexes, max_size=5)] * 2,
)
@settings(max_examples=60, deadline=None)
def test_numeric_star_is_near_exact_arithmetic(m, z, da, db):
    # the numeric product adds its float terms in the factored kernel's
    # order; each coefficient is within 1e-14 of exact arithmetic on the
    # float inputs, relative to the sum of the magnitudes of the terms it
    # is made of (the tensor-square series on magnitudes), which bounds
    # the rounding of any order of summation, plus 1e-300 for products
    # that underflow (an entry of 5.6e-232 squared is 0.0 in floats)
    form = BilinearForm(G2, [m[:2], m[2:]], "numeric")
    a = Polynomial(G2, da, "numeric")
    b = Polynomial(G2, db, "numeric")
    out = star(form, z, a, b)
    if not a or not b:
        assert not out
        return
    # z^r / r! as star weighs level r, trailing zeros dropped
    zp = 1 + 0j
    zfacts = [zp]
    for r in range(1, min(a.degree(), b.degree()) + 1):
        zp = zp * NumericScalar(z).val
        zfacts.append(zp * (1.0 / math.factorial(r)))
    while zfacts and not zfacts[-1]:
        zfacts.pop()
    lams = form.nonzero_entries()
    want = tuple_star([(i, j, exact(lam.val), None) for i, j, lam in lams],
                      list(map(exact, zfacts)),
                      {e: exact(c.val) for e, c in a.terms.items()},
                      {e: exact(c.val) for e, c in b.terms.items()})
    bound = tuple_star([(i, j, magnitude(lam.val), None) for i, j, lam in lams],
                       list(map(magnitude, zfacts)),
                       {e: magnitude(c.val) for e, c in a.terms.items()},
                       {e: magnitude(c.val) for e, c in b.terms.items()})
    got = {e: exact(c.val) for e, c in out.terms.items()}
    assert set(got) <= set(bound)
    for e, scale in bound.items():
        d = got.get(e, GaussianRational(0)) - want.get(e, GaussianRational(0))
        assert abs(d.re) + abs(d.im) <= Fraction(1e-14) * scale + TINY, e
