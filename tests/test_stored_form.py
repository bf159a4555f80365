"""The stored form of term sums.

Polynomial, BilinearForm, DifferentialOperator and UEElement keep one
canonical (den, ints) pair in the integer codec of scalars.py, and .terms,
text and JSON decode it. These properties pin the form on constructors and
operations, with mixed truncations and h-dependent Gaussian coefficients.
DifferentialOperator is the sum keyed by pairs of exponent tuples.
A numeric sum stores finite nonzero complex values, with no -0.0 part,
under key + (0, 0) over den 1; the last properties pin that form.

The kernels keep a sum that vanishes, and the reduce step of the stored
form drops it. Random operands almost never make a kernel sum vanish, so
the results below include ones built to cancel inside a kernel: (a + b) *
(a - b), {a, a}, a translation undone, the KKS bracket {f, f} and a star
product of a with itself under an antisymmetric form, whose odd levels
cancel.
"""

import math
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
    Polynomial,
    UEElement,
    formal_adjoint,
    gutt_star,
    kks_bracket,
    pbw_symmetrize,
    pbw_symmetrize_inverse,
    poisson_bracket,
    poisson_standard,
    sl2,
    star,
    standard_form,
    star_standard,
    std_rep,
    weyl_rep,
)
from starweyl.scalars import coerce_coeff
from starweyl.seminorms import _degree_cut
from starweyl.star import _fold

GENS = Generators(("q", "p"))
QGENS = Generators(("q",))
SL2 = sl2()

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
gaussians = st.builds(GaussianRational, fractions, fractions)
truncs = st.integers(min_value=0, max_value=5)


def coeffs(cap=5):
    """h-dependent Gaussian coefficients, each of its own truncation."""
    return st.tuples(
        st.dictionaries(st.integers(0, cap), gaussians, max_size=3),
        st.integers(0, cap),
    ).map(lambda p: FormalScalar(p[0], p[1]))


exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
qexps = st.tuples(st.integers(0, 2))


def polys(gens=GENS, keys=exps):
    return st.tuples(st.dictionaries(keys, coeffs(), max_size=4), truncs).map(
        lambda p: Polynomial(gens, p[0], "formal", p[1]))


def operators():
    return st.tuples(
        st.dictionaries(st.tuples(qexps, qexps), coeffs(), max_size=4), truncs
    ).map(lambda p: DifferentialOperator(QGENS, p[0], "formal", p[1]))


pbw_keys = st.lists(st.integers(0, 2), max_size=3).map(lambda m: tuple(sorted(m)))


def envelope():
    return st.tuples(st.dictionaries(pbw_keys, coeffs(), max_size=3),
                     truncs).map(lambda p: UEElement(SL2, p[0], p[1]))


KINDS = {"Polynomial": polys(), "DifferentialOperator": operators(),
         "UEElement": envelope()}
# a key outside what the strategies above draw
SPARE_KEY = {"Polynomial": (4, 4), "DifferentialOperator": ((3,), (3,)),
             "UEElement": (0, 0, 1, 2)}


def assert_canonical(x):
    den, data = x._den, x._data
    assert isinstance(den, int) and den > 0
    assert math.gcd(den, *data.values()) == 1
    for key, v in data.items():
        assert isinstance(v, int) and v
        assert key[-1] in (0, 1)
        assert 0 <= key[-2] <= x.trunc


def build(like, terms, trunc):
    """A sum over the space of like with terms, through the constructor."""
    if isinstance(like, UEElement):
        return UEElement(like.algebra, terms, trunc)
    return type(like)(like.gens, terms, like.domain, trunc)


def rebuilt(x):
    """x built again through the constructor from its decoded terms."""
    return build(x, x.terms, x.trunc)


# opposite entries: level 1 of a star product of a with itself cancels
ANTISYMMETRIC = BilinearForm(GENS, [[0, FormalScalar({0: 1, 1: 2})],
                                    [FormalScalar({0: -1, 1: -2}), 0]])


def results(kind, a, b):
    """Values of the operations that kind supports, from a and b."""
    c = FormalScalar({0: 2, 1: GaussianRational(0, 1)}, 3)
    out = [a + b, a - b, -a, a.scale(c), a.scale(Fraction(1, 3)),
           a._cut(a.trunc - 1) if a.trunc else a]
    if kind == "Polynomial":
        s = (FormalScalar({0: 1, 1: 1}, 4), Fraction(1, 2))
        out += [a * b, a.partial_derivative(0), a.hbar_coefficient(a.trunc),
                a.translate(s), star_standard(a, b), poisson_standard(a, b),
                std_rep(a), formal_adjoint(std_rep(a)),
                (a + b) * (a - b), poisson_standard(a, a),
                a.translate(s).translate([-x for x in s]),
                star(ANTISYMMETRIC, FormalScalar.minus_i_hbar(), a, a)]
    if kind == "DifferentialOperator":
        out += [a.compose(b), a.formal_adjoint(),
                a.apply(Polynomial(QGENS, {(2,): FormalScalar({0: 1, 1: 3})}))]
    if kind == "UEElement":
        fa = pbw_symmetrize_inverse(SL2, a)
        fb = pbw_symmetrize_inverse(SL2, b)
        out += [a * b, fa, pbw_symmetrize(SL2, fa), gutt_star(SL2, fa, fb),
                kks_bracket(SL2, fa, fa)]
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constructors_and_operations_store_the_canonical_form(kind, data):
    a = data.draw(KINDS[kind])
    b = data.draw(KINDS[kind])
    for x in [a, b] + results(kind, a, b):
        assert_canonical(x)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_two_routes_to_one_value_store_one_form(kind, data):
    a, b, c = (data.draw(KINDS[kind]) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a + b) - b == a._cut(min(a.trunc, b.trunc))
    half = Fraction(1, 2)
    assert a.scale(half) + a.scale(half) == a
    if kind == "Polynomial":
        assert (a + b) * c == a * c + b * c
    if kind == "DifferentialOperator":
        assert (a + b).compose(c) == a.compose(c) + b.compose(c)
    if kind == "UEElement":
        assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_smallest_coefficient_truncation_wins(kind, data):
    x = data.draw(KINDS[kind])
    low = data.draw(st.integers(0, 5))
    c = FormalScalar({0: 1, 1: 1}, low)
    # x's coefficients times one known to h^low, and a constant known to
    # h^5 under a key x cannot have, built at truncation 5
    terms = {k: v * c for k, v in x.terms.items()}
    terms[SPARE_KEY[kind]] = FormalScalar.constant(1, 5)
    z = build(x, terms, 5)
    assert z.trunc == (min(x.trunc, low) if x else 5)
    assert_canonical(z)
    for v in z.terms.values():
        assert v.trunc == z.trunc and max(v.coeffs) <= z.trunc


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stored_sums_are_immutable(kind, data):
    x = data.draw(KINDS[kind])
    before = rebuilt(x)
    terms = x.terms
    terms.clear()
    assert x == before
    for name in ("terms", "trunc", "_den", "_data"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_decoded_views_round_trip(kind, data):
    x = data.draw(KINDS[kind])
    y = rebuilt(x)
    assert y == x
    assert (y._den, y._data) == (x._den, x._data)
    assert str(y) == str(x)
    for c in x.terms.values():
        assert c.trunc == x.trunc
    if hasattr(x, "to_json"):
        assert x.to_json() == y.to_json()
    if hasattr(x, "from_json"):
        assert type(x).from_json(x.to_json()) == x


def test_terms_is_a_decoded_view_of_one_denominator():
    f = Polynomial(GENS, {(1, 0): Fraction(1, 2), (0, 1): FormalScalar(
        {0: GaussianRational(0, Fraction(1, 3)), 2: 1})})
    assert f._den == 6
    assert f._data == {(1, 0, 0, 0): 3, (0, 1, 0, 1): 2, (0, 1, 2, 0): 6}
    assert f.terms == {(1, 0): FormalScalar.constant(Fraction(1, 2)),
                       (0, 1): FormalScalar({0: GaussianRational(0, Fraction(1, 3)),
                                             2: 1})}
    assert f.terms is not f.terms
    zero = f - f
    assert (zero._den, zero._data) == (1, {})


# -- the numeric stored form ------------------------------------------------------

# parts of either sign, zeros among them, and -0.0
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(min_value=-8, max_value=8, allow_subnormal=False))
complexes = st.builds(complex, parts, parts)


def numeric_sums(cls, gens, keys):
    return st.tuples(st.dictionaries(keys, complexes, max_size=4), truncs).map(
        lambda p: cls(gens, p[0], "numeric", p[1]))


NUMERIC_KINDS = {
    "Polynomial": numeric_sums(Polynomial, GENS, exps),
    "DifferentialOperator": numeric_sums(DifferentialOperator, QGENS,
                                         st.tuples(qexps, qexps)),
}
NUMERIC_FORM = BilinearForm(GENS, [[0.5, complex(1, -0.25)], [-1, 1j]],
                            "numeric")
NUMERIC_ANTISYMMETRIC = BilinearForm(GENS, [[0, complex(1, -0.25)],
                                            [complex(-1, 0.25), 0]], "numeric")


def assert_numeric_canonical(x):
    assert x._den == 1
    for key, v in x._data.items():
        assert key[-2:] == (0, 0)
        assert isinstance(v, complex) and v
        assert math.isfinite(v.real) and math.isfinite(v.imag)
        assert math.copysign(1.0, v.real) > 0 or v.real
        assert math.copysign(1.0, v.imag) > 0 or v.imag


def numeric_results(kind, a, b):
    """Values of the operations that kind supports, from a and b."""
    out = [a + b, a - b, -a, a.scale(complex(-0.5, 2)), a.scale(-1),
           a.scale(1j), a._cut(a.trunc - 1) if a.trunc else a]
    if kind == "Polynomial":
        out += [a * b, a * -1, a ** 2, a.partial_derivative(0),
                a.partial_derivative(1), a.translate((complex(0.5, -1), -2)),
                star_standard(a, b), star(NUMERIC_FORM, -1j, a, b),
                poisson_standard(a, b), poisson_bracket(NUMERIC_FORM, b, a),
                std_rep(a), weyl_rep(b), formal_adjoint(std_rep(a)),
                _degree_cut(a, 2), (a + b) * (a - b), poisson_standard(a, a),
                a.translate((0.5, -2)).translate((-0.5, 2)),
                star(NUMERIC_ANTISYMMETRIC, -1j, a, a)]
    if kind == "DifferentialOperator":
        out += [a.compose(b), a.formal_adjoint(),
                a.apply(Polynomial(QGENS, {(2,): -1j, (0,): 0.5}, "numeric"))]
    return out


@pytest.mark.parametrize("kind", sorted(NUMERIC_KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_numeric_sums_store_the_canonical_form(kind, data):
    a = data.draw(NUMERIC_KINDS[kind])
    b = data.draw(NUMERIC_KINDS[kind])
    for x in [a, b] + numeric_results(kind, a, b):
        assert_numeric_canonical(x)
        y = rebuilt(x)
        assert list(y._data.items()) == list(x._data.items())
        if hasattr(x, "from_json"):
            assert type(x).from_json(x.to_json()) == x


@pytest.mark.parametrize("kind", sorted(NUMERIC_KINDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numeric_stored_sums_are_immutable(kind, data):
    x = data.draw(NUMERIC_KINDS[kind])
    before = rebuilt(x)
    x.terms.clear()
    assert x == before
    for name in ("terms", "trunc", "_den", "_data"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_numeric_constructors_write_negative_zero_as_zero():
    f = Polynomial(GENS, {(1, 0): complex(-0.0, -1.0), (0, 1): -0.0,
                          (0, 0): complex(2.5, -0.0)}, "numeric")
    assert (f._den, list(f._data)) == (1, [(1, 0, 0, 0), (0, 0, 0, 0)])
    assert [repr(v) for v in f._data.values()] == ["-1j", "(2.5+0j)"]
    assert repr((-f)._data[(0, 0, 0, 0)]) == "(-2.5+0j)"
    # conjugation flips -1j to 1j with a real part +0.0
    assert repr(formal_adjoint(std_rep(f))._data) == \
        "{((1,), (0,), 0, 0): 1j, ((0,), (0,), 0, 0): (2.5+0j)}"


# -- the bilinear form -----------------------------------------------------------
#
# A BilinearForm stores the entries Lambda(e_i, e_j) under the keys (i, j),
# in either domain; matrix and entry decode them. Numeric entries that are
# multiples of 1/4 keep the halves of the symmetric and antisymmetric parts
# exact.

quarters = st.integers(-8, 8).map(lambda k: k / 4)
FORM_CELLS = {
    "formal": coeffs(),
    "numeric": complexes,
    "dyadic": st.builds(complex, quarters, quarters),
}


def matrices(cells):
    return st.lists(cells, min_size=4, max_size=4).map(
        lambda c: ((c[0], c[1]), (c[2], c[3])))


def form_of(kind, matrix, trunc):
    return BilinearForm(GENS, matrix,
                        "formal" if kind == "formal" else "numeric", trunc)


def forms(kind):
    return st.tuples(matrices(FORM_CELLS[kind]), truncs).map(
        lambda p: form_of(kind, *p))


@pytest.mark.parametrize("kind", sorted(FORM_CELLS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bilinear_forms_store_the_canonical_form(kind, data):
    x = data.draw(forms(kind))
    y = data.draw(forms(kind))
    check = assert_canonical if kind == "formal" else assert_numeric_canonical
    for f in (x, y, x + y, x - y, -x, x.scale(Fraction(1, 3)), x.transpose(),
              x.symmetric_part(), x.antisymmetric_part()):
        check(f)
        assert all(len(key) == 4 for key in f._data)


@pytest.mark.parametrize("kind", sorted(FORM_CELLS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bilinear_form_matrix_and_entries_are_the_input(kind, data):
    m = data.draw(matrices(FORM_CELLS[kind]))
    trunc = data.draw(truncs)
    x = form_of(kind, m, trunc)
    if kind == "formal":
        # the smallest truncation of the entries and the form's wins
        assert x.trunc == min([trunc] + [c.trunc for row in m for c in row])
    want = [[coerce_coeff(c, x.domain, x.trunc) for c in row] for row in m]
    assert [list(row) for row in x.matrix] == want
    for i in range(2):
        for j in range(2):
            assert x.entry(i, j) == want[i][j]
            assert getattr(x.entry(i, j), "trunc", x.trunc) == x.trunc
    assert x.nonzero_entries() == [(i, j, c) for i, row in enumerate(want)
                                   for j, c in enumerate(row) if c]


@settings(max_examples=30, deadline=None)
@given(x=forms("formal"), low=st.integers(0, 5))
def test_bilinear_form_takes_the_smallest_truncation(x, low):
    c = FormalScalar({0: 1, 1: 1}, low)
    # every cell of x, zero ones too, carries x's truncation
    z = BilinearForm(GENS, [[v * c for v in row] for row in x.matrix],
                     "formal", 5)
    assert z.trunc == min(x.trunc, low)
    assert_canonical(z)
    for v in z.terms.values():
        assert v.trunc == z.trunc and max(v.coeffs) <= z.trunc


@pytest.mark.parametrize("kind", sorted(FORM_CELLS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bilinear_forms_are_immutable(kind, data):
    x = data.draw(forms(kind))
    before = form_of(kind, x.matrix, x.trunc)
    x.terms.clear()
    assert x == before
    for name in ("terms", "trunc", "_den", "_data", "matrix", "gens"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


@pytest.mark.parametrize("kind", sorted(FORM_CELLS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bilinear_form_json_round_trip(kind, data):
    x = data.draw(forms(kind))
    y = BilinearForm.from_json(x.to_json())
    assert y == x
    assert (y._den, y._data, y.trunc) == (x._den, x._data, x.trunc)
    assert y.to_json() == x.to_json()
    assert str(y) == str(x)


@pytest.mark.parametrize("trunc", range(9))
def test_bilinear_form_json_keeps_the_truncation_and_domain(trunc):
    # a form reads back at its own truncation, not the default 8, and a
    # numeric one in the numeric domain, its entries [re, im] pairs
    c = FormalScalar({0: Fraction(1, 3), 1: GaussianRational(0, 2), 5: -1})
    formal = BilinearForm(GENS, [[c, 0], [-1, Fraction(5, 2)]], "formal", trunc)
    numeric = BilinearForm(GENS, [[0.5, complex(1, -0.25)], [-1, 1j]],
                           "numeric", trunc)
    for x in (formal, numeric, standard_form(GENS, "formal", trunc),
              standard_form(GENS, "numeric", trunc)):
        y = BilinearForm.from_json(x.to_json())
        assert (y.trunc, y.domain) == (x.trunc, x.domain)
        assert (y._den, y._data) == (x._den, x._data)


@pytest.mark.parametrize("kind", ["formal", "dyadic"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bilinear_form_parts_and_transpose(kind, data):
    x = data.draw(forms(kind))
    sym = x.symmetric_part()
    anti = x.antisymmetric_part()
    assert sym + anti == x
    assert sym.is_symmetric() and anti.is_antisymmetric()
    assert x.transpose().transpose() == x
    n = len(GENS)
    assert [list(r) for r in x.transpose().matrix] == \
        [[x.entry(j, i) for j in range(n)] for i in range(n)]


def old_fold(form, z, trunc):
    """The fold of z * Lambda on Fraction parts that star ran before the
    form stored its terms, with the entries in sorted key order (it listed
    them in the order their parts first arose)."""
    def parts(c):
        return [(r, q, x) for r, g in c.coeffs.items() if r <= trunc
                for q, x in ((0, g.re), (1, g.im)) if x]

    zparts = parts(z)
    acc = {}
    for i, j, lam in form.nonzero_entries():
        for r1, q1, x in parts(lam):
            for r2, q2, y in zparts:
                r, q, v = r1 + r2, q1 + q2, x * y
                if r > trunc:
                    continue
                if q == 2:
                    q, v = 0, -v
                key = (i, j, r, q)
                acc[key] = acc.get(key, 0) + v
    acc = {key: v for key, v in acc.items() if v}
    den = math.lcm(*(v.denominator for v in acc.values()))
    n = len(form.gens)
    entries = []
    for (i, j, r, q), v in sorted(acc.items()):
        left = None
        if r or q:
            left = tuple(-1 if k == i else 0 for k in range(n)) + (r, q)
        entries.append((i, j, v.numerator * (den // v.denominator), left))
    return den, entries


@settings(max_examples=60, deadline=None)
@given(x=forms("formal"), z=coeffs(), trunc=truncs)
def test_fold_matches_the_fraction_fold(x, z, trunc):
    assert _fold(x, z, trunc) == old_fold(x, z, trunc)


@settings(max_examples=30, deadline=None)
@given(x=forms("numeric"), trunc=truncs)
def test_numeric_fold_is_the_stored_values(x, trunc):
    # z = 1 leaves the stored complex values as they are, bit for bit, in
    # sorted key order: the entries of a numeric star product and bracket
    den, entries = _fold(x, 1, trunc)
    assert den == 1
    assert repr(entries) == repr([(i, j, v, None) for (i, j, _, _), v
                                  in sorted(x._data.items())])


def test_fold_of_the_weyl_form():
    form = standard_form(GENS).antisymmetric_part()
    # z = -i*h: Lambda_01 = -1/2 becomes (i/2)*h, one h and one i raised
    assert _fold(form, FormalScalar.minus_i_hbar(), 8) == (
        2, [(0, 1, 1, (-1, 0, 1, 1)), (1, 0, -1, (0, -1, 1, 1))])
    assert _fold(form, FormalScalar.constant(3), 8) == (
        2, [(0, 1, -3, None), (1, 0, 3, None)])
