"""Linear Poisson structures: enveloping algebra, PBW, Gutt product, BCH."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import (
    FormalScalar,
    GaussianRational,
    LieAlgebra,
    LieSeries,
    Polynomial,
    StarWeylError,
    TruncationError,
    UEElement,
    bch,
    bch_exponential,
    check_bch_property,
    gutt_star,
    hbar_exponential,
    heisenberg3,
    kks_bracket,
    pbw_symmetrize,
    pbw_symmetrize_inverse,
    poly_from_text,
    scalar_from_text,
    sl2,
    ue_normal_order,
)
from starweyl import lie
from starweyl.bruteforce import _straighten
from starweyl.lie import MAX_BCH_ORDER, bernoulli_numbers
from starweyl.scalars import accumulate

H3 = heisenberg3()
SL2 = sl2()
AXB = LieAlgebra(("A", "B"), {(0, 1): (0, 1)}, coords=("a", "b"))

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)


def coord_polys(algebra, max_deg=3, max_terms=3):
    n = algebra.dim
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * n))
    return st.lists(st.tuples(exps, gaussians), max_size=max_terms).map(
        lambda ts: sum(
            (Polynomial(algebra.coords, {e: c}, trunc=6) for e, c in ts),
            Polynomial.zero(algebra.coords, trunc=6),
        )
    )


# ------------------------------------------------------------ construction


def test_structure_validation():
    with pytest.raises(ValueError):
        # redundant key conflicting with antisymmetry
        LieAlgebra(("A", "B"), {(0, 1): (1, 0), (1, 0): (1, 0)})
    with pytest.raises(ValueError):
        # [A,B]=A, [A,C]=B breaks Jacobi on (A,B,C)
        LieAlgebra(("A", "B", "C"), {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
    with pytest.raises(ValueError):
        LieAlgebra(("A",), {(0, 0): (1,)})  # [A,A] must vanish


def test_builtin_algebras():
    assert H3.basis == ("X", "Y", "Z")
    assert H3.coords.names == ("x", "y", "z")
    # sl2 cannot lowercase its basis: "h" is the formal parameter
    assert SL2.basis == ("H", "E", "F")
    assert SL2.coords.names == ("x", "y", "z")
    z_vec = H3.bracket_vec((1, 0, 0), (0, 1, 0))
    assert z_vec == (GaussianRational(0),) * 2 + (GaussianRational(1),)
    assert SL2.bracket_vec((1, 0, 0), (0, 1, 0))[1] == GaussianRational(2)
    assert SL2.bracket_vec((0, 1, 0), (0, 0, 1))[0] == GaussianRational(1)


def test_reserved_coordinate_names_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(("H", "K"), {})  # defaulted coords would contain "h"
    with pytest.raises(ValueError):
        LieAlgebra(("A", "B"), {}, coords=("a", "i"))


def test_bracket_vec_is_antisymmetric():
    u, v = (1, 2, 0), (0, 1, 1)
    forward = SL2.bracket_vec(u, v)
    backward = SL2.bracket_vec(v, u)
    assert all(a == -b for a, b in zip(forward, backward))


def test_algebra_json_roundtrip():
    for alg in (H3, SL2):
        again = LieAlgebra.from_json(alg.to_json())
        assert again.basis == alg.basis
        assert again.coords == alg.coords
        f = poly_from_text("x*y", alg.coords)
        g = poly_from_text("y + z", alg.coords)
        assert gutt_star(again, f, g) == gutt_star(alg, f, g)


def test_algebra_json_structure_constants():
    def load(coeffs):
        return LieAlgebra.from_json({
            "dim": 2, "basis": ["A", "B"], "coords": ["a", "b"],
            "brackets": [{"i": 0, "j": 1, "coeffs": coeffs}],
        })

    assert load(["0", "1/2 + i"]) == load([0, "i + 1/2"])
    # h would be dropped at truncation 0, however high its order; a text
    # that mentions h is refused even where the h-orders cancel
    for coeffs in (["h", "1+h"], ["0", "1 + h^100"], ["0", "h - 2*h"],
                   ["0", "1 + h^100*h"], ["0", "(h^2)^60"], ["0", "h - h"]):
        with pytest.raises(StarWeylError):
            load(coeffs)
    for coeffs in ([0.5, 1], [True, 1], ["0", None]):
        with pytest.raises(StarWeylError):
            load(coeffs)


# ------------------------------------------------------------ normal order


def test_normal_order_base_case():
    # one descent: Y.X = X.Y - i h [X,Y]
    u = ue_normal_order(H3, (1, 0), trunc=6)
    assert str(u) == "X*Y - i*h*Z"


@pytest.mark.parametrize("algebra", [H3, SL2, AXB], ids=["h3", "sl2", "axb"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_order_matches_the_bruteforce_straightening(algebra, data):
    word = tuple(data.draw(st.lists(st.integers(0, algebra.dim - 1), max_size=6)))
    trunc = data.draw(st.sampled_from([0, 2, 8]))
    naive = _straighten(word, algebra._c, algebra.dim, {})
    expected = UEElement(algebra, {
        m: FormalScalar(orders, trunc) for m, orders in naive.items()
    }, trunc)
    u = ue_normal_order(algebra, word, trunc)
    assert u == expected
    assert u.trunc == trunc
    assert str(u) == str(expected)


def test_normal_order_weight_grading():
    # every monomial in the normal form has word length + h-order equal to
    # the weight of the input word
    u = ue_normal_order(SL2, (2, 1, 0, 1), trunc=8)
    weight = 4
    for mono, coeff in u.terms.items():
        for r, c in coeff.coeffs.items():
            if c:
                assert len(mono) + r == weight


def test_envelope_coefficient_of_smaller_truncation_lowers_the_truncation():
    c2 = FormalScalar({0: 1, 1: 1}, 2)
    u = ue_normal_order(SL2, (2, 1), trunc=8) * c2
    assert u.trunc == 2
    assert str(u) == "(1 + h)*E*F + (-i*h - i*h^2)*H"
    cube = u * u * u
    assert cube.trunc == 2
    for c in cube.terms.values():
        assert c.trunc <= 2 and max(c.coeffs) <= 2
    with pytest.raises(TruncationError):
        pbw_symmetrize_inverse(SL2, cube).hbar_coefficient(3)
    built = UEElement(SL2, {(1, 2): c2, (0,): 1}, 8)
    assert built.trunc == 2
    assert (c2 * UEElement.generator(SL2, "E")).trunc == 2


# ------------------------------------------------------------ pbw


@given(coord_polys(H3))
@settings(max_examples=30, deadline=None)
def test_pbw_inverse_h3(f):
    assert pbw_symmetrize_inverse(H3, pbw_symmetrize(H3, f)) == f


@given(coord_polys(SL2))
@settings(max_examples=30, deadline=None)
def test_pbw_inverse_sl2(f):
    assert pbw_symmetrize_inverse(SL2, pbw_symmetrize(SL2, f)) == f


@st.composite
def ue_sums(draw, algebra):
    """Sums of normal-ordered words times h-dependent coefficients, each
    summand at its own truncation."""
    total = None
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        trunc = draw(st.integers(min_value=0, max_value=8))
        word = draw(st.lists(st.integers(0, algebra.dim - 1), max_size=4))
        orders = draw(st.dictionaries(st.integers(0, 3), gaussians, max_size=3))
        u = ue_normal_order(algebra, word, trunc) * FormalScalar(orders, trunc)
        total = u if total is None else total + u
    if total is None:
        total = UEElement.zero(algebra, draw(st.integers(0, 8)))
    return total


@pytest.mark.parametrize("algebra", [H3, SL2, AXB], ids=["h3", "sl2", "axb"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pbw_symmetrize_undoes_the_inverse(algebra, data):
    u = data.draw(ue_sums(algebra))
    f = pbw_symmetrize_inverse(algebra, u)
    assert f.trunc == u.trunc
    back = pbw_symmetrize(algebra, f)
    assert back == u
    assert back.trunc == u.trunc


def test_pbw_symmetrize_linear_is_identity():
    v = poly_from_text("x - 2*z", H3.coords, trunc=6)
    u = pbw_symmetrize(H3, v)
    assert set(u.terms) == {(0,), (2,)}


# ------------------------------------------------------------ gutt product


@given(coord_polys(H3, max_deg=2), coord_polys(H3, max_deg=2), coord_polys(H3, max_deg=2))
@settings(max_examples=15, deadline=None)
def test_gutt_associativity_h3(f, g, h):
    assert gutt_star(H3, gutt_star(H3, f, g), h) == gutt_star(H3, f, gutt_star(H3, g, h))


@given(coord_polys(SL2, max_deg=2), coord_polys(SL2, max_deg=2), coord_polys(SL2, max_deg=2))
@settings(max_examples=10, deadline=None)
def test_gutt_associativity_sl2(f, g, h):
    assert gutt_star(SL2, gutt_star(SL2, f, g), h) == gutt_star(SL2, f, gutt_star(SL2, g, h))


def test_gutt_frozen_value():
    f = poly_from_text("x", H3.coords)
    g = poly_from_text("y", H3.coords)
    assert str(gutt_star(H3, f, g)) == "x*y + (1/2)*i*h*z"


@given(coord_polys(SL2, max_deg=3), coord_polys(SL2, max_deg=3))
@settings(max_examples=25, deadline=None)
def test_gutt_first_order_is_kks(f, g):
    s = gutt_star(SL2, f, g) - gutt_star(SL2, g, f)
    i = GaussianRational(0, 1)
    expected = kks_bracket(SL2, f, g).map_coefficients(lambda c: c * i)
    assert s.hbar_coefficient(1) == expected


def test_kks_on_coordinates_returns_structure_constants():
    # x, y, z dual to H, E, F
    x, y, z = (poly_from_text(s, SL2.coords) for s in ("x", "y", "z"))
    assert str(kks_bracket(SL2, x, y)) == "2*y"
    assert str(kks_bracket(SL2, x, z)) == "-2*z"
    assert str(kks_bracket(SL2, y, z)) == "x"


def _kks_by_terms(algebra, f, h):
    """kks_bracket as a loop over the decoded terms of each product
    d_k f * d_l h, raising one exponent slot per structure constant."""
    d = algebra.dim
    dh = [h.partial_derivative(ell) for ell in range(d)]
    out = {}
    for k in range(d):
        dfk = f.partial_derivative(k)
        for ell in range(d):
            prod = (dfk * dh[ell]).terms
            for i, ci in enumerate(algebra._c[k][ell]):
                if ci:
                    accumulate(out, (
                        (e[:i] + (e[i] + 1,) + e[i + 1:], c * ci)
                        for e, c in prod.items()
                    ))
    return Polynomial(algebra.coords, out, "formal", min(f.trunc, h.trunc),
                      _clean=True)


@st.composite
def h_polys(draw, algebra):
    """Sums of monomials with h-dependent Gaussian coefficients, each
    summand at its own truncation, on both sides of the default one."""
    truncs = st.integers(draw(st.integers(0, 12)), 12)
    total = Polynomial.zero(algebra.coords, trunc=draw(truncs))
    exps = st.tuples(*([st.integers(0, 3)] * algebra.dim))
    for _ in range(draw(st.integers(0, 4))):
        trunc = draw(truncs)
        orders = draw(st.dictionaries(st.integers(0, 3), gaussians, max_size=3))
        total = total + Polynomial(algebra.coords, {
            draw(exps): FormalScalar(orders, trunc)}, trunc=trunc)
    return total


@pytest.mark.parametrize("algebra", [H3, SL2, AXB], ids=["h3", "sl2", "axb"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kks_matches_the_decoded_loop(algebra, data):
    f = data.draw(h_polys(algebra))
    g = data.draw(h_polys(algebra))
    got = kks_bracket(algebra, f, g)
    want = _kks_by_terms(algebra, f, g)
    assert got == want
    assert got.trunc == want.trunc == min(f.trunc, g.trunc)
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()


def test_gutt_unit():
    one = Polynomial.one(H3.coords)
    f = poly_from_text("x^2*y*z", H3.coords)
    assert gutt_star(H3, one, f) == f
    assert gutt_star(H3, f, one) == f


# ------------------------------------------------------------ cache bound

CACHE_SLOTS = ("_cache_leftmul", "_cache_sym", "_cache_monomul",
               "_cache_guttmono")


class _WatchedCache(dict):
    """A dict that remembers the most entries it ever held."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


def _envelope_work(algebra):
    f = poly_from_text("(x + 2*y - z + 1)^3", algebra.coords)
    g = poly_from_text("(x - y + 3*z)^2 + h*y", algebra.coords, trunc=5)
    u = UEElement.generator(algebra, 2) * UEElement.generator(algebra, 0)
    return [
        gutt_star(algebra, f, g),
        gutt_star(algebra, g, f),
        pbw_symmetrize_inverse(algebra, pbw_symmetrize(algebra, f * g)),
        pbw_symmetrize(algebra, g) * u,
        ue_normal_order(algebra, (2, 1, 0, 2), trunc=4),
    ]


@pytest.mark.parametrize("make", [heisenberg3, sl2], ids=["h3", "sl2"])
def test_bounded_caches_keep_the_results(make, monkeypatch):
    want = _envelope_work(make())
    monkeypatch.setattr(lie, "MAX_CACHE_ENTRIES", 8)
    algebra = make()
    for slot in CACHE_SLOTS:
        object.__setattr__(algebra, slot, _WatchedCache())
    got = _envelope_work(algebra)
    assert [str(x) for x in got] == [str(x) for x in want]
    assert got == want
    assert [getattr(algebra, slot).largest for slot in CACHE_SLOTS] == [8] * 4


# The weight of a cache entry: the word length of the product it holds,
# and the size of a key of the entry, for each slot. An entry's terms carry
# their h-orders, and every rewrite xi_j xi_a = xi_a xi_j + i*h [xi_j, xi_a]
# keeps word length + h-order, so each term's size plus its h-order is the
# entry's weight.
CACHE_WEIGHTS = {
    "_cache_leftmul": (lambda key: len(key[1]) + 1, len),
    "_cache_sym": (sum, len),
    "_cache_monomul": (lambda key: len(key[0]) + len(key[1]), len),
    "_cache_guttmono": (lambda key: sum(key[0]) + sum(key[1]), sum),
}


@pytest.mark.parametrize("make", [
    heisenberg3, sl2,
    lambda: LieAlgebra(("A", "B"), {(0, 1): (0, 1)}, coords=("a", "b")),
], ids=["h3", "sl2", "axb"])
def test_cache_entries_are_weight_homogeneous(make):
    algebra = make()
    names = algebra.coords.names
    lin = " + ".join(f"{k + 1}*{nm}" for k, nm in enumerate(names))
    f = poly_from_text(f"({lin} - 1)^3", names)
    g = poly_from_text(f"({names[-1]} - {names[0]})^2 + h*{names[0]}", names,
                       trunc=5)
    gutt_star(algebra, f, g)
    gutt_star(algebra, g, f)
    pbw_symmetrize_inverse(algebra, pbw_symmetrize(algebra, f * g))
    ue_normal_order(algebra, tuple(reversed(range(algebra.dim))) * 2, trunc=4)
    for slot, (weight, size) in CACHE_WEIGHTS.items():
        cache = getattr(algebra, slot)
        assert cache
        for key, (den, terms) in cache.items():
            assert den > 0 and terms
            for term in terms:
                assert size(term[:-2]) + term[-2] == weight(key)
                assert term[-1] in (0, 1)


# ------------------------------------------------------------ bch


def test_bch_h3_is_exact_at_order_two():
    z = bch(H3, (1, 0, 0), (0, 1, 0), 6)
    assert str(z) == "h*X + h*Y + (1/2)*h^2*Z"


def test_bch_sl2_low_orders():
    z = bch(SL2, (1, 0, 0), (0, 1, 0), 5)
    half = Fraction(1, 2)
    assert z.component(1) == (GaussianRational(1), GaussianRational(1), GaussianRational(0))
    # [H,E] = 2E so the order-2 term (1/2)[X,Y] is exactly E
    assert z.component(2) == (GaussianRational(0), GaussianRational(1), GaussianRational(0))
    assert z.component(3)[1] == GaussianRational(Fraction(1, 3))
    assert z.component(4) == (GaussianRational(0),) * 3
    assert z.component(5)[1] == GaussianRational(Fraction(-1, 45))


def test_bch_antisymmetry_under_swap():
    # Z(Y, X) at odd orders negates, even orders are preserved, when the
    # arguments are swapped and both negated: Z(-Y,-X) = -Z(X,Y)
    x, y = (1, 2, 0), (0, 1, 1)
    fwd = bch(SL2, x, y, 5)
    bwd = bch(SL2, tuple(-a for a in y), tuple(-a for a in x), 5)
    for w in range(1, 6):
        assert tuple(-a for a in fwd.component(w)) == bwd.component(w)


def test_bch_order_cap():
    assert bch(H3, (1, 0, 0), (0, 1, 0), MAX_BCH_ORDER).order == MAX_BCH_ORDER
    # refused before any work, however large the order
    for order in (MAX_BCH_ORDER + 1, 10**9):
        with pytest.raises(TruncationError):
            bch(H3, (1, 0, 0), (0, 1, 0), order)


def test_bch_orders_zero_and_one():
    # the recursion starts from Z_1 = x + y, which order 0 must not return
    for alg, x, y in ((H3, (1, 2, 0), (0, 1, 3)), (SL2, (1, 2, -1), (0, 1, 3)),
                      (AXB, (2, 0), (1, -1))):
        assert bch(alg, x, y, 0) == LieSeries(alg, 0)
        assert str(bch(alg, x, y, 0)) == "0"
        s = tuple(a + b for a, b in zip(x, y))
        assert bch(alg, x, y, 1) == LieSeries(alg, 1, {1: s})
    assert bch(H3, (1, 0, 0), (-1, 0, 0), 1).terms == {}


def assert_stored_form(s):
    """s stores the canonical pair: den > 0, gcd 1, no zero int, keys
    (basis index, weight, i-power) with the i-power 0 or 1."""
    den, data = s._den, s._data
    assert den > 0 and math.gcd(den, *data.values()) == 1
    assert all(data.values())
    for k, w, q in data:
        assert 0 <= k < s.algebra.dim and 0 <= w <= s.order and q in (0, 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lie_series_stored_form(data):
    algebra = data.draw(st.sampled_from([H3, SL2, AXB]))
    order = data.draw(st.integers(min_value=0, max_value=6))
    vectors = st.tuples(*[st.one_of(gaussians, fractions, st.integers(-3, 3))]
                        * algebra.dim)
    terms = data.draw(st.dictionaries(st.integers(0, order), vectors,
                                      max_size=4))
    for s in (LieSeries(algebra, order, terms),
              bch(algebra, data.draw(vectors), data.draw(vectors), order)):
        assert_stored_form(s)
        again = LieSeries(algebra, order, s.terms)
        assert again == s and str(again) == str(s)
        # the decoded view: the nonzero components in ascending weight
        assert list(s.terms) == sorted(s.terms)
        assert all(any(vec) for vec in s.terms.values())
        for w in range(order + 1):
            assert s.component(w) == s.terms.get(w, (GaussianRational(0),)
                                                 * algebra.dim)
    want = {w: tuple(GaussianRational(0) + c for c in vec)
            for w, vec in terms.items() if any(vec)}
    assert LieSeries(algebra, order, terms).terms == want


def test_lie_series_is_immutable():
    s = bch(SL2, (1, 2, -1), (0, 1, 3), 4)
    copy = LieSeries(SL2, 4, s.terms)
    for name in ("terms", "order", "algebra", "_den", "_data"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
    s.terms.clear()
    s.terms[1] = (GaussianRational(5),) * 3
    assert s == copy and s.component(1) == copy.component(1)


def test_lie_series_equality_reads_the_stored_pair():
    s = LieSeries(SL2, 3, {1: (1, Fraction(1, 2), 0), 2: (0, 0, 2)})
    assert s == LieSeries(SL2, 3, {2: (0, 0, 2), 1: (1, Fraction(1, 2), 0),
                                   3: (0, 0, 0)})
    assert s != LieSeries(SL2, 4, s.terms)
    assert s != LieSeries(SL2, 3, {1: (1, Fraction(1, 2), 0)})
    assert s != LieSeries(SL2, 3, {1: (1, GaussianRational(Fraction(1, 2), 1),
                                       0), 2: (0, 0, 2)})
    assert s != LieSeries(AXB, 3, {})


# B_0..B_24 with B_1 = +1/2, written out so the checks below do not rest on
# the package's own Bernoulli numbers
BERNOULLI_PLUS = [
    Fraction(1), Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
    Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0,
    Fraction(-691, 2730), 0, Fraction(7, 6), 0, Fraction(-3617, 510), 0,
    Fraction(43867, 798), 0, Fraction(-174611, 330), 0,
    Fraction(854513, 138), 0, Fraction(-236364091, 2730),
]


def test_bernoulli_numbers_akiyama_tanigawa():
    assert bernoulli_numbers(24) == BERNOULLI_PLUS
    assert bernoulli_numbers(0) == [1]
    assert all(isinstance(b, Fraction) for b in bernoulli_numbers(24))


@pytest.mark.parametrize("alg,x,y,lam", [
    (SL2, (1, 0, 0), (0, 1, 0), 2),   # [H, E] = 2E
    (AXB, (1, 0), (0, 1), 1),         # [A, B] = B
], ids=["sl2", "axb"])
def test_bch_closed_form_through_order_24(alg, x, y, lam):
    # where [x, y] = lam*y, BCH(hx, hy) = hx + sum_w lam^w B_w/w! h^(w+1) y
    order = 24
    want = {1: tuple(a + b for a, b in zip(x, y))}
    for w in range(1, order):
        want[w + 1] = tuple(
            Fraction(lam**w) * BERNOULLI_PLUS[w] / math.factorial(w) * b
            for b in y
        )
    assert bch(alg, x, y, order) == LieSeries(alg, order, want)


def test_bch_h3_stops_at_order_two_at_order_24():
    z = bch(H3, (1, 2, 0), (-3, 1, 5), 24)
    assert sorted(z.terms) == [1, 2]
    assert z.component(2) == tuple(GaussianRational(Fraction(v, 2))
                                   for v in (0, 0, 7))


def test_bch_property_reports():
    r = check_bch_property(H3, (1, 0, 0), (0, 1, 0), 6)
    assert r.ok and r.max_agreed_order == 6
    assert r.to_json()["status"] == "pass"
    r2 = check_bch_property(SL2, (0, 1, 0), (0, 0, 1), 5)
    assert r2.ok
    with pytest.raises(TruncationError):
        check_bch_property(H3, (1, 0, 0), (0, 1, 0), 4, cutoff=2)


@pytest.mark.parametrize("alg,x,y", [
    (H3, (1, 0, 0), (0, 1, 0)),
    (SL2, (1, 0, 0), (0, 1, 0)),
], ids=["h3", "sl2"])
def test_bch_property_at_order_ten(alg, x, y):
    r = check_bch_property(alg, x, y, 10)
    assert r.ok and r.max_agreed_order == 10


def test_exponential_helpers_agree():
    # exp(h X)*exp(h Y) recomputed two ways: componentwise BCH embedding
    # versus the product of truncated exponentials under the Gutt product
    order = 4
    lhs = gutt_star(
        H3,
        hbar_exponential(H3, (1, 0, 0), cutoff=order, trunc=order),
        hbar_exponential(H3, (0, 1, 0), cutoff=order, trunc=order),
    )
    rhs = bch_exponential(bch(H3, (1, 0, 0), (0, 1, 0), order), trunc=order)
    for r in range(order + 1):
        assert lhs.hbar_coefficient(r) == rhs.hbar_coefficient(r)
