"""Linear Poisson structures: Lie algebras, the rescaled universal envelope,
PBW symmetrization, the Gutt star product and BCH machinery.

The envelope carries the relations xi_i xi_j - xi_j xi_i = i*h*[xi_i, xi_j],
so the PBW symmetrizer sigma (plain 1/k! normalisation) is degree-preserving
and invertible order by order. The envelope engine (the _*_raw methods and
their caches) runs on integers in the stored form of a term sum (see
scalars.TermSum): each entry is one denominator and a dict from a monomial
plus its h-order and i-power to ints. The envelope operations read their
operands' stored form and write the result's, so h and the Gaussian
rationals only materialise when a result's .terms, text or JSON is read.
bch, bracket_vec and LieSeries store a vector the same way, keyed (basis
index, weight, i-power), and bracket it on the integer structure constants.
See docs/conventions.md for the weight grading and the exp/BCH bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import kernels
from .errors import IncompatibleError, ParseError, StarWeylError, TruncationError
from .parse import RESERVED_NAMES, eval_ast, parse_expression, scalar_from_json
from .poly import Generators, Polynomial, monomial_text
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Immutable,
    TermSum,
    accumulate,
    int_canonical,
    int_gaussians,
    int_groups,
    int_reduce,
    join_terms,
    stored_sum,
    term_text,
)
from .seminorms import truncated_exponential


def _gr(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def _refuse_h(node):
    """An eval_ast leaf that raises at an h, which truncation 0 would drop
    from a structure constant; every other leaf reads as 0."""
    if node[0] == "h":
        raise ParseError("a structure constant must not depend on h", *node[1])
    return 0


class LieAlgebra(Immutable):
    """Finite-dimensional Lie algebra given by structure constants.

    brackets[(i, j)] is the coefficient vector of [xi_i, xi_j]; antisymmetry
    and the Jacobi identity are verified at construction. coords names the
    polynomial coordinates on the dual (default: lowercased basis names).
    """

    __slots__ = ("dim", "basis", "coords", "_c", "_ic_den", "_ic",
                 "_cache_leftmul", "_cache_sym", "_cache_monomul",
                 "_cache_guttmono", "_keys")

    def __init__(self, basis, brackets, coords=None):
        basis = tuple(basis)
        dim = len(basis)
        if dim == 0:
            raise ValueError("need at least one basis element")
        if len(set(basis)) != dim:
            raise ValueError("basis names must be distinct")
        # dense c[i][j] -> tuple of GaussianRational over k
        zero_vec = tuple(GR_ZERO for _ in range(dim))
        c = [[None] * dim for _ in range(dim)]
        for (i, j), vec in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            vec = tuple(_gr(v) for v in vec)
            if len(vec) != dim:
                raise ValueError("bracket coefficient vector length mismatch")
            if c[i][j] is not None and c[i][j] != vec:
                raise ValueError(f"conflicting bracket for ({i},{j})")
            c[i][j] = vec
            neg = tuple(-v for v in vec)
            if c[j][i] is not None and c[j][i] != neg:
                raise ValueError(
                    f"brackets for ({i},{j}) and ({j},{i}) are not antisymmetric"
                )
            c[j][i] = neg
        c = [[zero_vec if vec is None else vec for vec in row] for row in c]
        for i in range(dim):
            if any(c[i][i]):
                raise ValueError(f"[x_{i}, x_{i}] must vanish")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_c", tuple(tuple(row) for row in c))
        if coords is None:
            coords = tuple(nm.lower() for nm in basis)
        coords = tuple(coords)
        if len(set(coords)) != dim:
            raise ValueError("coordinate names must be distinct")
        for nm in coords:
            if nm in RESERVED_NAMES:
                # the expression grammar owns these identifiers; a coordinate
                # with either name could never be parsed or printed faithfully
                raise ValueError(
                    f"coordinate name {nm!r} is reserved by the expression "
                    "grammar; pass coords= explicitly"
                )
        object.__setattr__(self, "coords", Generators(coords))
        # i * c[j][a] in the raw form: (k, i-power, n) parts with value
        # n / _ic_den, since i * (x + y i) = -y + x i
        den = math.lcm(*(x.denominator for row in c for vec in row
                         for g in vec for x in (g.re, g.im)))
        object.__setattr__(self, "_ic_den", den)
        object.__setattr__(self, "_ic", tuple(
            tuple(tuple(
                (k, q, int(x * den))
                for k, g in enumerate(vec)
                for q, x in ((0, -g.im), (1, g.re))
                if x
            ) for vec in row) for row in c
        ))
        self._check_jacobi()
        for slot in ("_cache_leftmul", "_cache_sym", "_cache_monomul",
                     "_cache_guttmono", "_keys"):
            object.__setattr__(self, slot, {})

    def _check_jacobi(self):
        e = [(1, {(i, 0, 0): 1}) for i in range(self.dim)]
        br = self._bracket_ints
        for i, j, k in itertools.combinations(range(self.dim), 3):
            if _vec_sum([br(br(e[a], e[b]), e[c]) for a, b, c in
                         ((i, j, k), (j, k, i), (k, i, j))])[1]:
                raise ValueError("structure constants violate the Jacobi "
                                 f"identity at triple ({i},{j},{k})")

    # -- linear algebra ------------------------------------------------------
    def _bracket_ints(self, u, v):
        """[u, v] of stored vectors (den, {(k, 0, i-power): int}): the
        structure constant c_ab^k is i^3 times the i*c_ab^k of _ic."""
        (du, tu), (dv, tv) = u, v
        if not (tu and tv):
            return 1, {}
        out = {}
        for (a, _, qa), x in tu.items():
            row = self._ic[a]
            for (b, _, qb), y in tv.items():
                for k, q, n in row[b]:
                    p = qa + qb + q + 3
                    key = (k, 0, p & 1)
                    out[key] = out.get(key, 0) + (-x if p & 2 else x) * y * n
        return int_reduce(du * dv * self._ic_den, out)

    def bracket_vec(self, u, v):
        """[u, v] for coefficient vectors; returns a GaussianRational tuple."""
        return LieSeries._stored(self, 0, *self._bracket_ints(
            _vec_ints(self, {0: u}), _vec_ints(self, {0: v}))).component(0)

    def basis_vector(self, which):
        k = which if isinstance(which, int) else self.basis.index(which)
        return tuple(GR_ONE if i == k else GR_ZERO for i in range(self.dim))

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.coords == other.coords
            and self._c == other._c
        )

    __hash__ = None

    def __repr__(self):
        return f"<LieAlgebra dim={self.dim} basis={list(self.basis)}>"

    # -- JSON ------------------------------------------------------------------
    def to_json(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                vec = self._c[i][j]
                if any(vec):
                    brackets.append(
                        {"i": i, "j": j, "coeffs": [v.canonical() for v in vec]}
                    )
        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "coords": list(self.coords.names),
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, d: dict) -> "LieAlgebra":
        """The algebra of a to_json() dict. A structure constant is a string
        or an integer, and its text must not mention h."""
        dim = d["dim"]
        basis = d["basis"]
        if len(basis) != dim:
            raise ValueError("dim does not match basis length")
        brackets = {}
        for b in d.get("brackets", []):
            vec = []
            for s in b["coeffs"]:
                if isinstance(s, str):
                    eval_ast(parse_expression(s), _refuse_h)
                vec.append(scalar_from_json(s, "formal", 0).coefficient(0))
            key = (b["i"], b["j"])
            if key in brackets or (key[1], key[0]) in brackets:
                raise ValueError(f"duplicate bracket entry for {key}")
            brackets[key] = tuple(vec)
        return cls(basis, brackets, coords=d.get("coords"))

    # -- internal raw envelope arithmetic -----------------------------------------
    # A raw entry is (den, terms) in the stored form of a term sum: terms
    # maps a key, a PBW monomial (sorted index tuple) or an exponent tuple
    # followed by the h-order and the power of i (0 or 1), to an int, and
    # the value is terms / den with den reduced against the terms. Each
    # commutator i*h adds 1 to the h slot and 1 to the i slot.

    def _leftmul_raw(self, j, mono):
        """xi_j * xi_mono as a raw entry."""
        key = (j, mono)
        hit = self._cache_leftmul.get(key)
        if hit is not None:
            return hit
        if not mono or j <= mono[0]:
            out = (1, {(j,) + mono + (0, 0): 1})
        else:
            a = mono[0]
            rest = mono[1:]
            # xi_j xi_a = xi_a xi_j + i*h [xi_j, xi_a]
            d1, t1 = self._leftmul_raw(j, rest)
            parts = [
                (d1 * d2, _times(g1, m1[-2], m1[-1], t2))
                for m1, g1 in t1.items()
                for d2, t2 in [self._leftmul_raw(a, m1[:-2])]
            ]
            parts += [
                (self._ic_den * d3, _times(x, 1, q, t3))
                for k, q, x in self._ic[j][a]
                for d3, t3 in [self._leftmul_raw(k, rest)]
            ]
            out = stored_sum("formal", parts)
        return _store(self._cache_leftmul, self._keys, key, out)

    def _mono_mul_raw(self, m1, m2):
        """xi_m1 * xi_m2 as a raw entry."""
        key = (m1, m2)
        hit = self._cache_monomul.get(key)
        if hit is not None:
            return hit
        out = (1, {m2 + (0, 0): 1})
        for j in reversed(m1):
            d, t = out
            out = stored_sum("formal", [
                (d * dl, _times(g, m[-2], m[-1], tl))
                for m, g in t.items()
                for dl, tl in [self._leftmul_raw(j, m[:-2])]
            ])
        return _store(self._cache_monomul, self._keys, key, out)

    def _sym_raw(self, alpha):
        """sigma(x^alpha) as a raw entry.

        Recursion sigma(x^a) = (1/k) sum_j a_j xi_j sigma(x^(a - e_j)).
        """
        hit = self._cache_sym.get(alpha)
        if hit is not None:
            return hit
        k = sum(alpha)
        if k == 0:
            out = (1, {(0, 0): 1})
        else:
            parts = []
            for j in range(self.dim):
                aj = alpha[j]
                if not aj:
                    continue
                ds, ts = self._sym_raw(alpha[:j] + (aj - 1,) + alpha[j + 1 :])
                parts += [
                    (k * ds * dl, _times(aj * g, m[-2], m[-1], tl))
                    for m, g in ts.items()
                    for dl, tl in [self._leftmul_raw(j, m[:-2])]
                ]
            out = stored_sum("formal", parts)
        return _store(self._cache_sym, self._keys, alpha, out)

    def _sym_inverse_raw(self, terms):
        """Invert sigma on raw terms (PBW monomial + (h-order, i-power) ->
        int); returns the raw entry (den, {exponent + (h-order, i-power):
        int}).

        sigma is unit upper triangular against word length, so elimination
        from the longest monomial down terminates. Every other monomial of
        sigma(x^alpha) is shorter than the one eliminated, so the keys of
        one length are all in the worklist when that length is reached,
        each key leaves the worklist once and each alpha + (h-order,
        i-power) is written once. A step whose sigma(x^alpha) has a
        denominator the popped value does not cancel scales the worklist
        and the result by the missing factor; one gcd at the end reduces
        the denominator.
        """
        d = self.dim
        work = dict(terms)
        out = {}
        den = 1
        for size in range(max(map(len, work), default=0), 1, -1):
            for key in sorted([w for w in work if len(w) == size],
                              reverse=True):
                g = work.pop(key)
                m = key[:-2]
                alpha = [0] * d
                for idx in m:
                    alpha[idx] += 1
                out[tuple(alpha) + key[-2:]] = g
                ds, sym = self._sym_raw(tuple(alpha))
                # unit-triangular: the leading coefficient is exactly 1 and
                # already left the worklist with the pop above
                if sym.get(m + (0, 0)) != ds or m + (0, 1) in sym:
                    raise StarWeylError("PBW leading coefficient is not 1")
                t = math.gcd(g, ds)
                f = ds // t
                if f != 1:
                    den *= f
                    work = {mm: f * v for mm, v in work.items()}
                    out = {mm: f * v for mm, v in out.items()}
                accumulate(work, (
                    (mm, -v) for mm, v in _times(g // t, key[-2], key[-1], sym)
                    if mm[:-2] != m
                ))
        return int_reduce(den, out)

    def _gutt_mono_raw(self, alpha, beta):
        """x^alpha *_G x^beta as a raw entry over exponent tuples."""
        key = (alpha, beta)
        hit = self._cache_guttmono.get(key)
        if hit is not None:
            return hit
        da, sa = self._sym_raw(alpha)
        db, sb = self._sym_raw(beta)
        du, u = stored_sum("formal", [
            (da * db * dm, _times(g1 * g2, m1[-2] + m2[-2], m1[-1] + m2[-1],
                                  tm))
            for m1, g1 in sa.items()
            for m2, g2 in sb.items()
            for dm, tm in [self._mono_mul_raw(m1[:-2], m2[:-2])]
        ])
        di, out = self._sym_inverse_raw(u)
        return _store(self._cache_guttmono, self._keys, key,
                      int_reduce(du * di, out))


# The most entries each of the four per-algebra caches, and the table of
# their term keys, holds. A full cache or table is cleared before its next
# store, so results never depend on it; one round of the gutt-bch benchmark
# needs at most 1,837 entries in one cache.
MAX_CACHE_ENTRIES = 2**15


def _store(cache, keys, key, value):
    """cache[key] = value, each term key of the raw entry value taken from
    the intern table keys, so equal keys of all entries share one tuple."""
    for table in (cache, keys):
        if len(table) >= MAX_CACHE_ENTRIES:
            table.clear()
    den, terms = value
    value = cache[key] = (den, {keys.setdefault(m, m): g
                                for m, g in terms.items()})
    return value


def _times(c, r, q, terms):
    """Pairs (key, c * h^r * i^q * value) of raw terms, with the i-power in
    the key's last slot reduced to 0 or 1 (q <= 2)."""
    neg = -c
    for key, g in terms.items():
        p = key[-1] + q
        yield key[:-2] + (key[-2] + r, p & 1), (neg if p & 2 else c) * g


def heisenberg3() -> LieAlgebra:
    """Basis (X, Y, Z) with [X, Y] = Z, Z central."""
    return LieAlgebra(("X", "Y", "Z"), {(0, 1): (0, 0, 1)})


def sl2() -> LieAlgebra:
    """Basis (H, E, F) with [H,E] = 2E, [H,F] = -2F, [E,F] = H.

    Dual coordinates are (x, y, z) with x dual to H, y to E, z to F;
    the lowercase default would shadow the formal parameter h.
    """
    return LieAlgebra(
        ("H", "E", "F"),
        {
            (0, 1): (0, 2, 0),
            (0, 2): (0, 0, -2),
            (1, 2): (1, 0, 0),
        },
        coords=("x", "y", "z"),
    )


class UEElement(TermSum):
    """Element of the rescaled universal envelope in PBW normal form.

    terms maps sorted index tuples to FormalScalar coefficients.
    """

    __slots__ = ("algebra",)
    _space = ("algebra",)
    _mismatch = "envelope elements over different algebras"
    domain = "formal"  # the coefficients are FormalScalars

    def __init__(self, algebra, terms=None, trunc=DEFAULT_TRUNCATION, _clean=False):
        object.__setattr__(self, "algebra", algebra)
        self._fill(terms, trunc, _clean)

    def _key(self, m):
        m = tuple(m)
        if any(not (0 <= idx < self.algebra.dim) for idx in m):
            raise ValueError(f"monomial index out of range in {m!r}")
        if tuple(sorted(m)) != m:
            raise ValueError(f"monomial {m!r} is not in PBW order")
        return m

    @classmethod
    def zero(cls, algebra, trunc=DEFAULT_TRUNCATION):
        return cls(algebra, {}, trunc, _clean=True)

    @classmethod
    def generator(cls, algebra, which, trunc=DEFAULT_TRUNCATION):
        k = which if isinstance(which, int) else algebra.basis.index(which)
        return cls(algebra, {(k,): 1}, trunc)

    def __mul__(self, other):
        if not isinstance(other, UEElement):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        self._check(other)
        n = min(self.trunc, other.trunc)
        return self._like(n, *_envelope_product(
            (self._den, self._data), (other._den, other._data),
            self.algebra._mono_mul_raw, n))

    __rmul__ = __mul__

    @staticmethod
    def _sort_key(m):
        return (len(m), m)

    def _monomial_text(self, m):
        basis = self.algebra.basis
        return monomial_text(basis, [m.count(k) for k in range(len(basis))])

    def __repr__(self):
        return f"<UEElement {self}>"


# The stored form of 1, the empty monomial at h-order 0.
_ONE = (1, {(0, 0): 1})


def _lowest_orders(ints):
    """{term key: its lowest h-order} of stored ints."""
    low = {}
    for key in ints:
        x = key[:-2]
        r = key[-2]
        if x not in low or r < low[x]:
            low[x] = r
    return low


def _envelope_product(a, b, raw, trunc):
    """Stored form (den, ints) of sum_{x, y} a[x] * b[y] * raw(x, y), cut at
    h-order trunc, for operands a and b in the stored form.

    raw(x, y) is a raw entry. Each pair of monomials whose lowest h-orders
    fit under trunc fetches its raw entry, the entries are brought to one
    denominator, and kernels.lift_terms adds each pair's h-orders to the
    entry's.
    """
    da, ta = a
    db, tb = b
    low_b = _lowest_orders(tb)
    found = {
        (x, y): raw(x, y)
        for x, ra in _lowest_orders(ta).items()
        for y, rb in low_b.items()
        if ra + rb <= trunc
    }
    den = math.lcm(*(d for d, _ in found.values()))
    raws = {xy: (den // d, t) for xy, (d, t) in found.items()}
    return int_canonical(kernels.lift_terms(ta, tb, raws, trunc),
                         da * db * den, trunc)


def ue_normal_order(algebra: LieAlgebra, word,
                    trunc=DEFAULT_TRUNCATION) -> UEElement:
    """Straighten an arbitrary word of generator indices into PBW form."""
    word = tuple(
        w if isinstance(w, int) else algebra.basis.index(w) for w in word
    )
    if any(not (0 <= idx < algebra.dim) for idx in word):
        raise ValueError("word index out of range")
    # the word times the empty monomial, straightened by the cached left
    # multiplication
    return UEElement._build((algebra,), trunc, *_envelope_product(
        (1, {word + (0, 0): 1}), _ONE, algebra._mono_mul_raw, trunc))


def _check_coords(algebra: LieAlgebra, f: Polynomial):
    if f.gens != algebra.coords:
        raise IncompatibleError(
            f"polynomial over {f.gens.names}, expected coordinates "
            f"{algebra.coords.names}"
        )
    if f.domain != "formal":
        raise IncompatibleError("envelope operations need the formal domain")


def pbw_symmetrize(algebra: LieAlgebra, f: Polynomial) -> UEElement:
    """sigma(f): symmetric algebra -> envelope, 1/k! symmetrization."""
    _check_coords(algebra, f)
    return UEElement._build((algebra,), f.trunc, *_envelope_product(
        (f._den, f._data), _ONE, lambda alpha, _: algebra._sym_raw(alpha),
        f.trunc))


def pbw_symmetrize_inverse(algebra: LieAlgebra, u: UEElement) -> Polynomial:
    """sigma^{-1}: envelope -> symmetric algebra, inverse of pbw_symmetrize."""
    if u.algebra != algebra:
        raise IncompatibleError("envelope element over a different algebra")
    n = u.trunc
    d, t = algebra._sym_inverse_raw(u._data)
    return Polynomial._build((algebra.coords, "formal"), n,
                             *int_canonical(t, u._den * d, n))


def gutt_star(algebra: LieAlgebra, f: Polynomial, h: Polynomial) -> Polynomial:
    """Gutt product sigma^{-1}(sigma(f) sigma(h)) on polynomials over the dual."""
    _check_coords(algebra, f)
    _check_coords(algebra, h)
    n = min(f.trunc, h.trunc)
    return f._like(n, *_envelope_product(
        (f._den, f._data), (h._den, h._data), algebra._gutt_mono_raw, n))


def kks_bracket(algebra: LieAlgebra, f: Polynomial, h: Polynomial) -> Polynomial:
    """Linear Poisson bracket {f,h}(x) = x_i c^i_{kl} df/dx_k dh/dx_l."""
    _check_coords(algebra, f)
    _check_coords(algebra, h)
    d = algebra.dim
    n = min(f.trunc, h.trunc)
    dh = [h.partial_derivative(ell) for ell in range(d)]
    out = Polynomial.zero(algebra.coords, "formal", n)
    for k in range(d):
        dfk = f.partial_derivative(k)
        if not dfk:
            continue
        for ell in range(d):
            row = algebra._c[k][ell]
            if dh[ell] and any(row):
                lin = Polynomial.linear(algebra.coords, row, "formal", n)
                out = out + lin * dfk * dh[ell]
    return out


def _vec_ints(algebra, vecs):
    """The stored form (den, {(k, w, i-power): int}) of {w: coefficient
    vector}, each entry an int, a Fraction or a GaussianRational."""
    vecs = {w: tuple(map(_gr, vec)) for w, vec in vecs.items()}
    if any(len(vec) != algebra.dim for vec in vecs.values()):
        raise ValueError("vector length mismatch")
    return int_gaussians({(k, w): g for w, vec in vecs.items()
                          for k, g in enumerate(vec)})


def _vec_sum(parts, f=1):
    """The stored form of the sum of the stored vectors parts over f."""
    parts = [(f * d, t.items()) for d, t in parts if t]
    return stored_sum("formal", parts) if parts else (1, {})


class LieSeries(Immutable):
    """Formal series sum_w h^w Z_w with Z_w in the algebra, stored as the
    canonical pair (den, {(k, w, i-power): int}) of the coefficients of e_k
    in the Z_w; terms and component(w) decode it."""

    __slots__ = ("algebra", "order", "_den", "_data")

    def __init__(self, algebra, order, terms=None, _clean=False):
        for w in () if _clean else terms or ():
            if not isinstance(w, int) or w < 0 or w > order:
                raise ValueError(f"bad series order {w!r}")
        super().__init__(algebra, order, *_vec_ints(algebra, terms or {}))

    @classmethod
    def _stored(cls, algebra, order, den, data):
        """The series storing the canonical pair (den, data)."""
        new = object.__new__(cls)
        Immutable.__init__(new, algebra, order, den, data)
        return new

    @property
    def terms(self):
        """{w: Z_w as a tuple of GaussianRational} for the nonzero Z_w, in
        ascending w, as a new dict."""
        den, out = self._den, {}
        for (k,), orders in int_groups(self._data).items():
            for w, (re, im) in orders.items():
                out.setdefault(w, [GR_ZERO] * self.algebra.dim)[k] = \
                    GaussianRational(Fraction(re, den), Fraction(im, den))
        return {w: tuple(out[w]) for w in sorted(out)}

    def component(self, w: int):
        if w > self.order:
            raise TruncationError(f"order {w} beyond series order {self.order}")
        return self.terms.get(w, tuple(GR_ZERO for _ in range(self.algebra.dim)))

    def __eq__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        return ((self.algebra, self.order, self._den, self._data)
                == (other.algebra, other.order, other._den, other._data))

    __hash__ = None

    def __str__(self):
        return join_terms(
            term_text(FormalScalar({w: g}, w), self.algebra.basis[k])
            for w, vec in self.terms.items() for k, g in enumerate(vec) if g)

    def __repr__(self):
        return f"<LieSeries {self}>"


# The largest order bch accepts, about order^3/6 brackets of stored vectors:
# on the dense sl2 vectors H + 2E - F and E + 3F, order 24 takes about 0.03 s
# and order 30 about 0.06 s (2 cores, Python 3.11).
MAX_BCH_ORDER = 24


def bernoulli_numbers(n: int):
    """[B_0, ..., B_n] as exact Fractions, by the Akiyama-Tanigawa
    algorithm (Kaneko, J. Integer Sequences 3 (2000) 00.2.9); B_1 = +1/2."""
    row, out = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


@functools.cache
def _bch_weights():
    """The weights B_2p/(2p)! of bch for 2 <= 2p < MAX_BCH_ORDER, as
    (numerator, denominator), computed once."""
    bern = bernoulli_numbers(MAX_BCH_ORDER)
    return tuple((bern[2 * p] / math.factorial(2 * p)).as_integer_ratio()
                 for p in range(1, MAX_BCH_ORDER // 2))


def bch(algebra: LieAlgebra, x, y, order: int) -> LieSeries:
    """BCH(h*x, h*y) through h^order: the components Z_1..Z_order in the
    algebra, by the Goldberg-Varadarajan recursion (Varadarajan, Lie Groups,
    Lie Algebras, and Their Representations, 2.15; Casas and Murua, J. Math.
    Phys. 50, 033513, 2009):

        Z_1 = x + y,
        (n+1) Z_{n+1} = (1/2)[x - y, Z_n]
                        + sum_{p >= 1, 2p <= n} B_2p/(2p)! W[2p][n],

    where W[j][m] sums the nested brackets [Z_k1, [..., [Z_kj, x + y]...]]
    over k1 + ... + kj = m, so W[0][0] = x + y and
    W[j][m] = sum_k [Z_k, W[j-1][m-k]]. About order^3/6 brackets of stored
    vectors, each empty when an argument is zero. Orders above
    MAX_BCH_ORDER raise TruncationError before any work.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_BCH_ORDER:
        raise TruncationError(
            f"bch order {order} is above the limit {MAX_BCH_ORDER}"
        )
    xv, (dy, ty) = _vec_ints(algebra, {0: x}), _vec_ints(algebra, {0: y})
    bracket = algebra._bracket_ints
    zero = (1, {})
    s = _vec_sum([xv, (dy, ty)])
    half_diff = _vec_sum([xv, (dy, {k: -v for k, v in ty.items()})], 2)
    # z[k] = Z_k and w[j][m] = W[j][m] for m < order; W[j][m] = 0 for j > m
    z = [zero, s]
    w = [[s] + [zero] * (order - 1)]
    for n in range(1, order):
        w.append([zero] * order)
        for j in range(1, n + 1):
            w[j][n] = _vec_sum([bracket(z[k], w[j - 1][n - k])
                                for k in range(1, n - j + 2)])
        z.append(_vec_sum([bracket(half_diff, z[n])] + [
            (d * b, {key: a * v for key, v in t.items()})
            for (a, b), (d, t) in zip(_bch_weights(),
                                      [row[n] for row in w[2::2]])
        ], n + 1))
    return LieSeries._stored(algebra, order, *_vec_sum([
        (d, {(k, m, q): v for (k, _, q), v in t.items()})
        for m, (d, t) in enumerate(z[1:order + 1], 1)]))


def hbar_exponential(algebra: LieAlgebra, vec, cutoff: int,
                     trunc=None) -> Polynomial:
    """exp(h * v~) truncated at Sym-degree cutoff, v~ the linear coordinate
    function of vec."""
    n = cutoff if trunc is None else trunc
    return truncated_exponential(algebra.coords, vec, FormalScalar.hbar(n),
                                 cutoff, "formal", n).base


def bch_exponential(z: LieSeries, trunc=None) -> Polynomial:
    """Symmetric-algebra exponential of a BCH series in the rescaled picture.

    The order-w component embeds at h-order 2w-1 with a factor i^(w-1): each
    envelope commutator carries i*h, so sigma(result) equals the genuine
    envelope product exp(h xi^) exp(h eta^) when z = bch(xi, eta, ...).
    The coordinates are read off z's stored ints; the exponential is
    truncated_exponential's, cut at degree trunc, with its cutoff limits.
    """
    n = z.order if trunc is None else trunc
    if any(w == 0 for _, w, _ in z._data):
        raise StarWeylError("series exponential needs vanishing order-0 part")
    vec = [FormalScalar._build((), n, *int_canonical({
        (2 * w - 1, q + w - 1): v for (k, w, q), v in z._data.items() if k == i
    }, z._den, n)) for i in range(z.algebra.dim)]
    return truncated_exponential(z.algebra.coords, vec, 1, n, "formal", n).base


class BchReport(Immutable):
    """Outcome of check_bch_property."""

    __slots__ = ("order", "cutoff", "max_agreed_order", "ok")

    def __init__(self, order, cutoff, max_agreed_order):
        super().__init__(order, cutoff, max_agreed_order,
                         max_agreed_order >= order)

    def to_json(self):
        return {
            "check": "bch_property",
            "order": self.order,
            "cutoff": self.cutoff,
            "max_agreed_order": self.max_agreed_order,
            "status": "pass" if self.ok else "fail",
        }

    def __repr__(self):
        return f"<BchReport order={self.order} agreed={self.max_agreed_order}>"


def check_bch_property(algebra: LieAlgebra, xi, eta, order: int,
                       cutoff=None) -> BchReport:
    """Verify exp(h xi) *_G exp(h eta) = exp(BCH(h xi, h eta)) through h^order.

    Exponentials are truncated at Sym-degree cutoff (default: order). The
    weight grading makes every graded component of h-order <= order exact
    once cutoff >= order, so the report must come back with
    max_agreed_order >= order; anything less is a real defect.
    """
    k = order if cutoff is None else cutoff
    if k < order:
        raise TruncationError(
            f"truncation too small: exponential cutoff {k} must be >= order "
            f"{order}"
        )
    lhs = gutt_star(
        algebra,
        hbar_exponential(algebra, xi, k, trunc=order),
        hbar_exponential(algebra, eta, k, trunc=order),
    )
    z = bch(algebra, xi, eta, order)
    rhs = bch_exponential(z, trunc=order)
    agreed = -1
    for r in range(order + 1):
        if lhs.hbar_coefficient(r) == rhs.hbar_coefficient(r):
            agreed = r
        else:
            break
    return BchReport(order, k, agreed)
