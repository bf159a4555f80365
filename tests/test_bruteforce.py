"""Cross-checks between the reference oracle and the optimized kernel.

bruteforce shares only the scalar layer and the errors with the code under
test (tests/test_structure.py checks its imports): dense storage,
derivatives, the star sum, the P_Lambda step, the UE straightening, the log
series and Dynkin's BCH formula are all independent implementations.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starweyl import (
    BilinearForm,
    BoxOverflowError,
    DensePolynomial,
    FormalScalar,
    GaussianRational,
    Generators,
    LieAlgebra,
    LieSeries,
    Polynomial,
    bch,
    gutt_star,
    heisenberg3,
    minus_i_hbar,
    naive_bch_dynkin,
    naive_bch_via_ue,
    naive_star,
    pbw_symmetrize,
    pbw_symmetrize_inverse,
    sl2,
    star,
)
from starweyl.bruteforce import naive_gutt

G = Generators(("q", "p"))
Z = minus_i_hbar()

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)
term_dicts = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    gaussians,
    max_size=4,
)


# ------------------------------------------------------------- dense ring


@given(term_dicts, term_dicts)
@settings(max_examples=40)
def test_dense_mirrors_sparse_arithmetic(da, db):
    a = DensePolynomial.from_dict(2, da, box=10)
    b = DensePolynomial.from_dict(2, db, box=10)
    fa = Polynomial(G, dict(da))
    fb = Polynomial(G, dict(db))
    assert a.add(b).to_dict() == (fa + fb).terms
    assert a.multiply(b).to_dict() == (fa * fb).terms
    for k in range(2):
        assert a.derivative(k).to_dict() == fa.partial_derivative(k).terms


def test_box_bound_is_enforced():
    d = DensePolynomial(2, box=6)
    with pytest.raises(BoxOverflowError):
        d.set_coeff((6, 0), 1)
    a = DensePolynomial.from_dict(2, {(5, 0): 1}, box=6)
    with pytest.raises(BoxOverflowError):
        a.multiply(a)  # exponent 10 does not fit the box


def test_total_degree_and_copy_independence():
    d = DensePolynomial.from_dict(2, {(2, 1): 1, (0, 0): 5}, box=6)
    assert d.total_degree() == 3
    c = d.copy()
    c.set_coeff((0, 0), 0)
    assert d.get_coeff((0, 0))


# ------------------------------------------------------------- star oracle


def _lam_matrix(form):
    n = len(form.gens.names)
    return [
        [Fraction(form.entry(i, j).coefficient(0).re) for j in range(n)]
        for i in range(n)
    ]


@given(term_dicts, term_dicts)
@settings(max_examples=25, deadline=None)
def test_naive_star_agrees_with_kernel_standard(da, db):
    form = BilinearForm(G, ((0, 0), (1, 0)))
    a = DensePolynomial.from_dict(2, da, box=12)
    b = DensePolynomial.from_dict(2, db, box=12)
    got = naive_star(_lam_matrix(form), Z, a, b)
    want = star(form, Z, Polynomial(G, dict(da)), Polynomial(G, dict(db)))
    assert got.to_dict() == want.terms


@given(
    term_dicts,
    term_dicts,
    st.tuples(fractions, fractions, fractions, fractions),
)
@settings(max_examples=25, deadline=None)
def test_naive_star_agrees_on_random_forms(da, db, m):
    form = BilinearForm(G, ((m[0], m[1]), (m[2], m[3])))
    a = DensePolynomial.from_dict(2, da, box=12)
    b = DensePolynomial.from_dict(2, db, box=12)
    got = naive_star(_lam_matrix(form), Z, a, b)
    want = star(form, Z, Polynomial(G, dict(da)), Polynomial(G, dict(db)))
    assert got.to_dict() == want.terms


# ------------------------------------------------------------- formal products
#
# A formal polynomial product is the star product with the zero form.


def formal_coeffs(max_order=2):
    """FormalScalars with Gaussian coefficients at h-orders 0..max_order."""
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_order), gaussians,
        min_size=1, max_size=2,
    ).map(lambda d: FormalScalar(d, 8))


def formal_polys(gens, max_deg=3, max_terms=3):
    """(polynomial, truncation): Gaussian, h-dependent coefficients on
    exponents of total degree at most max_deg, at a truncation of 1-6."""
    n = len(gens)
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_deg)] * n).filter(
        lambda e: sum(e) <= max_deg)
    return st.builds(
        lambda terms, t: Polynomial(gens, terms, trunc=t),
        st.dictionaries(exps, formal_coeffs(), max_size=max_terms),
        st.integers(min_value=1, max_value=6),
    )


def _orders_within(f):
    return all(max(c.coeffs) <= f.trunc for c in f.terms.values())


@given(formal_polys(G, max_deg=4, max_terms=4), formal_polys(G, max_deg=4, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_formal_product_is_the_zero_form_star(f, g):
    zero = [[0, 0], [0, 0]]
    a = DensePolynomial.from_dict(2, f.terms, trunc=f.trunc, box=10)
    b = DensePolynomial.from_dict(2, g.terms, trunc=g.trunc, box=10)
    got = f * g
    assert got.terms == naive_star(zero, Z, a, b).to_dict()
    assert got.trunc == min(f.trunc, g.trunc)
    assert _orders_within(got)
    empty = Polynomial.zero(G, trunc=3)
    assert f * empty == empty * f == Polynomial.zero(G, trunc=min(3, f.trunc))


# ------------------------------------------------------------- gutt oracle

# [A, B] = (2/3 + i) B: a complex structure constant with a denominator
COMPLEX_AXB = LieAlgebra.from_json({
    "dim": 2, "basis": ["A", "B"],
    "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "2/3+i"]}],
})
GUTT_ALGEBRAS = {
    "h3": heisenberg3(),
    "sl2": sl2(),
    "axb": LieAlgebra(("A", "B"), {(0, 1): (0, 1)}, coords=("a", "b")),
    "complex-axb": COMPLEX_AXB,
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gutt_matches_naive_oracle(data):
    name = data.draw(st.sampled_from(sorted(GUTT_ALGEBRAS)))
    algebra = GUTT_ALGEBRAS[name]
    f = data.draw(formal_polys(algebra.coords))
    g = data.draw(formal_polys(algebra.coords))
    got = gutt_star(algebra, f, g)
    n = min(f.trunc, g.trunc)
    assert got.trunc == n
    assert got.terms == naive_gutt(_constants(algebra), algebra.dim,
                                   f.terms, g.terms, n)
    assert _orders_within(got)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pbw_round_trip(data):
    name = data.draw(st.sampled_from(sorted(GUTT_ALGEBRAS)))
    algebra = GUTT_ALGEBRAS[name]
    f = data.draw(formal_polys(algebra.coords))
    u = pbw_symmetrize(algebra, f)
    assert u.trunc == f.trunc
    back = pbw_symmetrize_inverse(algebra, u)
    assert back == f and back.trunc == f.trunc


# ------------------------------------------------------------- bch oracle


def _constants(algebra):
    # rebuild plain nested lists so the oracle never touches LieAlgebra
    d = algebra.dim
    out = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            vec = algebra.bracket_vec(
                tuple(1 if k == i else 0 for k in range(d)),
                tuple(1 if k == j else 0 for k in range(d)),
            )
            for k, c in enumerate(vec):
                out[i][j][k] = c
    return out


@pytest.mark.parametrize("algebra", [heisenberg3(), sl2()], ids=["h3", "sl2"])
def test_ue_log_matches_bch(algebra):
    order = 4
    naive = naive_bch_via_ue(_constants(algebra), algebra.dim, order)
    direct = bch(algebra, algebra.basis_vector(0), algebra.basis_vector(1), order)
    for w in range(1, order + 1):
        assert tuple(naive[w]) == direct.component(w)


BCH_ALGEBRAS = {
    "h3": heisenberg3(),
    "sl2": sl2(),
    "axb": LieAlgebra(("A", "B"), {(0, 1): (0, 1)}, coords=("a", "b")),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bch_matches_dynkin_oracle(data):
    name = data.draw(st.sampled_from(sorted(BCH_ALGEBRAS)))
    algebra = BCH_ALGEBRAS[name]
    vectors = st.tuples(*[gaussians] * algebra.dim)
    x, y = data.draw(vectors), data.draw(vectors)
    order = data.draw(st.integers(min_value=0, max_value=6))
    naive = naive_bch_dynkin(_constants(algebra), x, y, order)
    direct = bch(algebra, x, y, order)
    assert sorted(naive) == list(range(1, order + 1))
    assert direct == LieSeries(algebra, order, naive)


@pytest.mark.parametrize("name,x,y", [
    ("sl2", (2, 0, 0), (0, -3, 0)),
    ("sl2", (0, 0, Fraction(1, 2)), (3, 2, 0)),
    ("axb", (3, 0), (0, -2)),
], ids=["sl2-HE", "sl2-F-HE", "axb"])
def test_bch_matches_dynkin_oracle_at_order_8(name, x, y):
    algebra = BCH_ALGEBRAS[name]
    naive = naive_bch_dynkin(_constants(algebra), x, y, 8)
    assert bch(algebra, x, y, 8) == LieSeries(algebra, 8, naive)


def _solve(cols, vecs):
    """The coordinates of each of vecs in the basis cols of Gaussian
    rational vectors, by Gauss-Jordan elimination; None when cols is not a
    basis."""
    d = len(cols)
    rows = [[GaussianRational(0) + col[i] for col in cols]
            + [GaussianRational(0) + v[i] for v in vecs] for i in range(d)]
    for j in range(d):
        piv = next((r for r in range(j, d) if rows[r][j]), None)
        if piv is None:
            return None
        rows[j], rows[piv] = rows[piv], rows[j]
        g = rows[j][j]
        inv = g.conjugate() * (1 / (g.re ** 2 + g.im ** 2))
        rows[j] = [inv * a for a in rows[j]]
        for r in range(d):
            if r != j and rows[r][j]:
                f = rows[r][j]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[j])]
    return [tuple(rows[i][d + n] for i in range(d)) for n in range(len(vecs))]


def _bch_via_ue(algebra, x, y, order):
    """naive_bch_via_ue of x and y, which it reads as the first two vectors
    of a basis, in the basis e_k; None when x and y are dependent."""
    d = algebra.dim
    units = [algebra.basis_vector(k) for k in range(d)]
    for rest in itertools.combinations(units, d - 2):
        cols = [x, y, *rest]
        if _solve(cols, []) is not None:
            break
    else:
        return None
    c2 = [[_solve(cols, [algebra.bracket_vec(u, v)])[0] for v in cols]
          for u in cols]
    naive = naive_bch_via_ue(c2, d, order)
    return {w: tuple(sum((g * col[k] for g, col in zip(vec, cols)),
                         GaussianRational(0)) for k in range(d))
            for w, vec in naive.items()}


dense_gaussians = gaussians.filter(bool)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_bch_matches_both_oracles_on_dense_vectors(data):
    # every entry of x and y nonzero. The envelope logarithm reads x and y
    # as basis vectors, so it runs on the structure constants of a basis
    # starting with x and y; on a dense 3-dimensional basis it takes about
    # 1 s at order 4 and 18 s at order 6, so it stops at order 4 there
    name = data.draw(st.sampled_from(sorted(BCH_ALGEBRAS)))
    algebra = BCH_ALGEBRAS[name]
    vectors = st.tuples(*[dense_gaussians] * algebra.dim)
    x, y = data.draw(vectors), data.draw(vectors)
    order = data.draw(st.integers(min_value=1, max_value=6))
    dynkin = naive_bch_dynkin(_constants(algebra), x, y, order)
    assert bch(algebra, x, y, order) == LieSeries(algebra, order, dynkin)
    order = order if algebra.dim == 2 else min(order, 4)
    via_ue = _bch_via_ue(algebra, x, y, order)
    assume(via_ue is not None)
    assert bch(algebra, x, y, order) == LieSeries(algebra, order, via_ue)


def test_ue_log_h3_truncates_immediately():
    naive = naive_bch_via_ue(_constants(heisenberg3()), 3, 4)
    z = GaussianRational(0)
    assert naive[2][2] == GaussianRational(Fraction(1, 2))
    assert all(c == z for c in naive[3])
    assert all(c == z for c in naive[4])


def test_ue_log_input_validation():
    with pytest.raises(ValueError):
        naive_bch_via_ue(_constants(heisenberg3()), 3, 0)
    with pytest.raises(ValueError):
        naive_bch_via_ue([[[Fraction(0)]]], 1, 2)
