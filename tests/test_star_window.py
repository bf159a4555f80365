"""The star product on a degree window, and the defect reports that use it.

star.star computes the terms of total degree <= top alone when asked
through star._star_window: a product of a term of d^mu a and one of the
merged right factor B_r[mu] has the sum of their degrees, so
kernels.star_terms forms only the products inside the window. The windowed product must
equal the full product cut to the window; the Weyl-relation and
inner-automorphism reports must equal the reports built from the full
product (their earlier bodies, kept below); and the scalar prefactor
exp(z L(v, w)), now computed on the stored ints, must equal the scalar loop
it replaced.
"""

import importlib
import math
import re
from collections import Counter
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
    StarWeylError,
    TruncationError,
    inner_automorphism_defect,
    minus_i_hbar,
    poly_from_text,
    standard_form,
    star,
    truncated_exponential,
    weyl_form,
    weyl_relation_defect,
)
from starweyl import kernels, poly, seminorms
from starweyl.seminorms import DefectReport, _degree_cut, _window_defect
from starweyl.star import _star_window

GENS = {1: ("x",), 2: ("q", "p"), 3: ("x", "y", "z"),
        4: ("q1", "q2", "p1", "p2")}
G2 = Generators(GENS[2])

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
gaussians = st.builds(GaussianRational, fractions, fractions)


def formal_scalars(max_trunc=6, orders=3):
    return st.builds(
        FormalScalar,
        st.dictionaries(st.integers(0, orders), gaussians, max_size=3),
        st.integers(0, max_trunc),
    )


scalars = st.one_of(st.just(0), st.integers(-2, 2), fractions, gaussians,
                    formal_scalars())


def same(x, ref):
    assert x == ref
    assert str(x) == str(ref)
    assert x.trunc == ref.trunc


# -- the windowed product -------------------------------------------------------


def forms(n):
    """Forms on n generators with any entries, so neither symmetric nor
    antisymmetric in general, h-dependent entries among them."""
    return st.tuples(st.lists(scalars, min_size=n * n, max_size=n * n),
                     st.integers(0, 8)).map(
        lambda a: BilinearForm(GENS[n], [a[0][i * n:(i + 1) * n]
                                         for i in range(n)], "formal", a[1]))


def polys(n, max_deg=4):
    exps = st.tuples(*[st.integers(0, max_deg)] * n)
    return st.tuples(st.dictionaries(exps, scalars, max_size=5),
                     st.integers(0, 8)).map(
        lambda a: Polynomial(GENS[n], a[0], "formal", a[1]))


# z = -i h, a rational z (no h raise, so no room cuts the levels) and an
# h-dependent z
zs = st.one_of(st.integers(0, 8).map(lambda t: minus_i_hbar("formal", t)),
               fractions, formal_scalars(8))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(forms(n), polys(n),
                                                     polys(n))),
       zs, st.integers(0, 18))
@settings(max_examples=300, deadline=None)
@example((BilinearForm(GENS[2], [[0, 0], [1, 0]]),
          Polynomial(GENS[2], {(0, 1): 1}), Polynomial(GENS[2], {(1, 0): 1})),
         minus_i_hbar(), 0)
@example((BilinearForm(GENS[2], [[0, 2], [1, 0]]),
          Polynomial(GENS[2], {(0, 3): 1, (1, 1): 2}),
          Polynomial(GENS[2], {(2, 1): 1, (0, 0): 3})),
         Fraction(1, 2), 2)
def test_windowed_star_is_the_full_star_on_the_window(case, z, top):
    form, a, b = case
    full = star(form, z, a, b)
    got = _star_window(form, z, a, b, top)
    assert got == _degree_cut(full, top)
    assert got.trunc == full.trunc


def test_windowed_star_keeps_the_checks_of_star(monkeypatch):
    form = standard_form(G2)
    q = poly_from_text("q", G2)
    with pytest.raises(IncompatibleError):
        _star_window(standard_form(Generators(("x", "y"))), minus_i_hbar(),
                     q, q, 2)
    with pytest.raises(IncompatibleError):
        _star_window(form, minus_i_hbar(), q, poly_from_text("x", ("x",)), 2)
    monkeypatch.setattr(poly, "MAX_PRODUCT_PAIRS", 3)
    qp = poly_from_text("q + p", G2)
    with pytest.raises(StarWeylError, match="term pairs"):
        _star_window(form, minus_i_hbar(), qp, qp, 0)
    monkeypatch.undo()
    nq = poly_from_text("q", G2, domain="numeric")
    with pytest.raises(IncompatibleError, match="formal domain"):
        _star_window(standard_form(G2, "numeric"), 1j, nq, nq, 0)


def test_windowed_star_runs_as_a_call_of_star(monkeypatch):
    # what wraps star by name (the star.star span) sees the windowed
    # product, and no window outlives its call, not even a refused one
    star_module = importlib.import_module("starweyl.star")
    form, z = standard_form(G2), minus_i_hbar()
    qp = poly_from_text("q + p", G2)
    calls = []
    monkeypatch.setattr(star_module, "star",
                        lambda *args: calls.append(args) or star(*args))
    got = _star_window(form, z, qp, qp, 0)
    assert calls == [(form, z, qp, qp)]
    full = star(form, z, qp, qp)
    assert got == _degree_cut(full, 0) != full
    with pytest.raises(IncompatibleError):
        _star_window(form, z, qp, poly_from_text("x", ("x",)), 0)
    assert star_module._WINDOW.get() is None
    assert star(form, z, qp, qp).degree() == 2


class Watch:
    """An output dict of the star kernel that records the key of every
    product added into it (each product reads its key once with get)."""

    def __init__(self, out, lay, formed):
        self.out = out
        self.lay = lay
        self.formed = formed

    def get(self, key, default=None):
        self.formed.append(self.lay.slots(key))
        return self.out.get(key, default)

    def __setitem__(self, key, value):
        self.out[key] = value


def products_formed(call):
    """(result, keys of the products formed) of a star kernel call."""
    formed = []
    series = kernels._series

    def watched(lay, a, b, zfacts, rmax, route):
        def watch(r, gd, gb):
            out = route(r, gd, gb)
            return None if out is None else Watch(out, lay, formed)
        return series(lay, a, b, zfacts, rmax, watch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_series", watched)
        return call(), formed


@st.composite
def kernel_cases(draw):
    """Entries that lower the first n slots by exactly 2 per step (the left
    raises only the h and i slots, as star's folded entries do)."""
    n = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, 4)] * n, st.integers(0, 3),
                     st.integers(0, 1))
    ints = st.integers(-9, 9).filter(bool)
    a, b = (draw(st.dictionaries(keys, ints, min_size=1, max_size=6))
            for _ in range(2))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        left = None
        if draw(st.booleans()):
            left = tuple(-1 if k == i else 0 for k in range(n)) + (
                draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        entries.append((i, j, draw(ints), left))
    rmax = draw(st.integers(0, 4))
    zfacts = draw(st.lists(st.integers(-3, 3), min_size=rmax + 1,
                           max_size=rmax + 1))
    top = draw(st.one_of(st.just(math.inf), st.integers(0, 14)))
    trunc = draw(st.one_of(st.just(math.inf), st.integers(0, 8)))
    return n, entries, zfacts, a, b, rmax, top, trunc


def degree(key, n):
    return sum(key[:n])


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_window_forms_only_the_pairs_that_reach_it(case):
    # the window (degree <= top, h-order <= trunc) forms exactly the
    # products of a term of d^mu a and one of B_r[mu] that the full
    # product forms inside it, and none outside
    n, entries, zfacts, a, b, rmax, top, trunc = case

    def inside(key):
        return degree(key, n) <= top and key[n] <= trunc

    full, every = products_formed(
        lambda: kernels.star_terms(entries, zfacts, a, b, rmax))
    got, formed = products_formed(
        lambda: kernels.star_terms(entries, zfacts, a, b, rmax,
                                   (n, top, trunc)))
    assert got == {k: v for k, v in full.items() if inside(k)}
    assert all(map(inside, formed))
    assert Counter(formed) == Counter(filter(inside, every))


# -- the reports against the full product ---------------------------------------


def reference_weyl_relation(form, z, v, w, degree=6, orders=4, cutoff=None):
    """The earlier body: the full star product and the prefactor summed one
    scalar product per order."""
    gens = form.gens
    k = degree + 2 * orders if cutoff is None else cutoff
    nt = orders
    ev = truncated_exponential(gens, v, 1, k, "formal", nt).base
    ew = truncated_exponential(gens, w, 1, k, "formal", nt).base
    zz = ev.coerce_scalar(z)
    lhs = star(form, zz, ev, ew)
    arg = zz * form.value(v, w)
    if arg.coefficient(0):
        raise StarWeylError("scalar exponential does not terminate")
    pref = term = ev.coerce_scalar(1)
    for j in range(1, nt + 1):
        term = term * (arg * Fraction(1, j))
        if not term:
            break
        pref = pref + term
    vsum = [ev.coerce_scalar(a) + ev.coerce_scalar(b) for a, b in zip(v, w)]
    evw = truncated_exponential(gens, vsum, 1, k, "formal", nt).base
    exact, worst = _window_defect(lhs - evw * pref, degree, orders)
    return DefectReport("weyl_relation", {"degree": degree, "orders": orders},
                        worst, exact, detail={"cutoff": k})


def reference_inner_automorphism(form, z, w, f, orders=4):
    """The earlier body: both star products in full."""
    gens = form.gens
    n = len(gens)
    d = max(f.degree(), 0)
    k = d + 2 * orders
    nt = f.trunc
    if nt < orders:
        raise TruncationError("scalar truncation below the order window")
    ew = truncated_exponential(gens, w, 1, k, "formal", nt).base
    wneg = [ew.coerce_scalar(x) * (-1) for x in w]
    ewneg = truncated_exponential(gens, wneg, 1, k, "formal", nt).base
    zz = f.coerce_scalar(z)
    lhs = star(form, zz, star(form, zz, ew, f), ewneg)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rhs = f.translate([zz * 2 * form.value(w, basis[i])
                       for i in range(n)])
    exact, worst = _window_defect(lhs - rhs, d, orders)
    return DefectReport("inner_automorphism", {"degree": d, "orders": orders},
                        worst, exact, detail={"cutoff": k})


# the exact-domain inputs of the benchmark's flat diagnostics: forms at
# truncation 4, vectors of fixed magnitudes with one sign per coordinate
MAGNITUDES = (Fraction(3, 2), Fraction(5, 4), Fraction(7, 8))
SIGNS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def flat_vec(signs, k):
    return [signs[0] * MAGNITUDES[k % 3], signs[1] * MAGNITUDES[(k + 1) % 3]]


@pytest.mark.parametrize("signs", SIGNS)
def test_weyl_relation_on_the_flat_inputs(signs):
    z = minus_i_hbar("formal", 4)
    for form in (standard_form(G2, "formal", 4), weyl_form(G2, "formal", 4)):
        v, w = flat_vec(signs, 0), flat_vec(signs, 1)
        got = weyl_relation_defect(form, z, v, w, degree=0, orders=4)
        want = reference_weyl_relation(form, z, v, w, degree=0, orders=4)
        assert got.to_json() == want.to_json()
        assert got.exact


@pytest.mark.parametrize("signs", SIGNS)
def test_inner_automorphism_on_the_flat_inputs(signs):
    z = minus_i_hbar("formal", 4)
    form = weyl_form(G2, "formal", 4)
    f = truncated_exponential(G2, flat_vec(signs, 1), 1, 1, "formal", 4).base
    got = inner_automorphism_defect(form, z, flat_vec(signs, 0), f, orders=3)
    assert got.to_json() == reference_inner_automorphism(
        form, z, flat_vec(signs, 0), f, orders=3).to_json()
    assert got.exact


@pytest.mark.parametrize("form, v, w", [
    (standard_form(G2), (1, 2), (2, -1)),
    (weyl_form(G2), (1, 1), (0, 2)),
    (BilinearForm(G2, [[1, Fraction(1, 2)], [-2, 0]]), (1, 0), (0, 1)),
    (BilinearForm(G2, [[0, FormalScalar({1: 1})], [1, 0]]), (1, -1), (2, 1)),
], ids=["standard", "weyl", "rational", "h-dependent"])
@pytest.mark.parametrize("window", [
    # the defaults (6, 4), which verify runs with their cutoff 14 spelled out
    {"degree": 6, "orders": 4, "cutoff": 14},
    # a smaller window and a cutoff above its bound
    {"degree": 3, "orders": 2, "cutoff": 9},
], ids=["defaults", "cutoff-above"])
def test_weyl_relation_on_the_library_and_verify_inputs(form, v, w, window):
    z = minus_i_hbar()
    assert weyl_relation_defect(form, z, v, w, **window).to_json() == \
        reference_weyl_relation(form, z, v, w, **window).to_json()


def known_to(c, t):
    """The constant c as a FormalScalar known to h-order t."""
    return FormalScalar.constant(c, t)


@pytest.mark.parametrize("form", [
    standard_form(G2, "formal", 4),
    weyl_form(G2, "formal", 4),
    BilinearForm(G2, [[0, FormalScalar({1: 1})], [1, 0]]),
], ids=["standard", "weyl", "h-dependent"])
@pytest.mark.parametrize("v, w", [
    ((known_to(1, 2), 0), (0, known_to(Fraction(1, 2), 3))),
    ((known_to(2, 1), 1), (1, known_to(3, 2))),
    # a zero v or w whose entries are known to fewer orders, and v + w = 0
    ((known_to(0, 1), known_to(0, 2)), (1, -1)),
    ((1, 2), (known_to(0, 1), known_to(0, 1))),
    ((known_to(1, 2), known_to(1, 2)), (known_to(-1, 3), known_to(-1, 3))),
], ids=["sparse", "dense", "v-zero", "w-zero", "v+w-zero"])
@pytest.mark.parametrize("degree, orders",
                         [(0, 0), (0, 1), (0, 2), (0, 4), (1, 1), (2, 2)])
def test_weyl_relation_with_entries_of_smaller_truncation(form, v, w, degree,
                                                          orders):
    # E((v+w)~) is built only to the degree window, and its truncation is
    # still the one the full cutoff gives it: the report, or the error a
    # window outside the truncation raises, is the full computation's
    z = minus_i_hbar()
    try:
        want = reference_weyl_relation(form, z, v, w, degree, orders)
    except StarWeylError as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            weyl_relation_defect(form, z, v, w, degree, orders)
        return
    got = weyl_relation_defect(form, z, v, w, degree, orders)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("w, f", [
    ((1, 0), "q*p^2"),
    ((2, -1), "1/2*q^3 - h*p + 3"),
    ((-2, 1), "(1/2 + i)*q*p - 2/3*p^3 + h^2*q"),
    ((1, 2), "0"),
    # the top degree only above the order window: the window keeps degree 4
    ((1, -1), "h^6*q^4 + q*p"),
])
@pytest.mark.parametrize("orders", [4, 2])
def test_inner_automorphism_on_the_library_and_verify_inputs(w, f, orders):
    # orders 4 is both the default and the window verify checks; the report
    # computes to h-order orders, the reference to f's truncation 8
    z = minus_i_hbar()
    form = weyl_form(G2)
    f = poly_from_text(f, G2)
    assert inner_automorphism_defect(form, z, w, f, orders=orders).to_json() \
        == reference_inner_automorphism(form, z, w, f, orders=orders).to_json()


@pytest.mark.parametrize("form_trunc, f_trunc, z", [
    (2, 8, minus_i_hbar()),
    (8, 8, minus_i_hbar("formal", 3)),
    (8, 3, minus_i_hbar()),
    (8, 5, FormalScalar({1: GaussianRational(0, -1)}, 4)),
])
def test_inner_automorphism_truncations_as_the_full_product(form_trunc,
                                                            f_trunc, z):
    # a form, z or f known to fewer orders than the window raises the same
    # TruncationError as the full computation, and otherwise reports alike
    form = weyl_form(G2, "formal", form_trunc)
    f = poly_from_text("q*p^2 - h*q", G2, trunc=f_trunc)
    try:
        want = reference_inner_automorphism(form, z, (1, 2), f).to_json()
    except TruncationError as err:
        with pytest.raises(TruncationError, match=str(err)):
            inner_automorphism_defect(form, z, (1, 2), f)
        return
    assert inner_automorphism_defect(form, z, (1, 2), f).to_json() == want


# -- the prefactor on stored ints ----------------------------------------------


def reference_prefactor(one, arg, n):
    """exp(arg) to order n, one scalar product per order, known as far as
    arg is once a power of it is taken, also where arg vanishes there."""
    pref = term = one
    for j in range(1, n + 1):
        term = term * (arg * Fraction(1, j))
        if not term:
            break
        pref = pref + term
    return pref + FormalScalar({}, arg.trunc) if n else pref


@given(st.dictionaries(st.integers(1, 4), gaussians, max_size=3),
       st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
@example({}, 4, 4)
@example({1: GaussianRational(0, -1)}, 4, 2)
def test_prefactor_equals_the_scalar_loop(coeffs, trunc, n):
    # the arguments of weyl_relation_defect: no h-order-0 part, a
    # truncation at most that of one
    arg = FormalScalar(coeffs, trunc)
    one = FormalScalar.constant(1, max(trunc, n))
    got = seminorms._series_sum(one, arg.trunc,
                                seminorms._slices(one, arg, n))
    same(got, reference_prefactor(one, arg, n))
