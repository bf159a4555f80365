"""Reference implementations, kept deliberately naive.

Everything here recomputes results straight from the defining formulas with
flat arrays and literal index loops, sharing only the scalar types and the
errors with the rest of the package. Slow on purpose; used to cross-check
the optimized kernels (the star product, and one P_Lambda step on a (x) b),
the Gutt product (recomputed from symmetrized words in the envelope) and
the BCH recursion, which two oracles recompute: the logarithm of a product
of exponentials in the envelope, and Dynkin's formula. Do not "improve"
this module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import BoxOverflowError, StarWeylError
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GR_I,
    GR_ONE,
    GaussianRational,
    NumericScalar,
)


def _coerce(c, domain, trunc):
    if domain == "formal":
        if isinstance(c, FormalScalar):
            return c if c.trunc == trunc else c.truncate(trunc)
        return FormalScalar.constant(c, trunc)
    if isinstance(c, NumericScalar):
        return c
    return NumericScalar(complex(c))


class DensePolynomial:
    """Polynomial on a flat coefficient array indexed by exponent tuples.

    Every exponent must stay below the box bound; operations that would
    leave the box raise BoxOverflowError instead of silently wrapping.
    """

    __slots__ = ("nvars", "box", "domain", "trunc", "data")

    def __init__(self, nvars: int, box: int = 8, domain: str = "formal",
                 trunc: int = DEFAULT_TRUNCATION):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if box < 1:
            raise ValueError("box must be >= 1")
        if domain not in ("formal", "numeric"):
            raise ValueError(f"unknown domain {domain!r}")
        self.nvars = nvars
        self.box = box
        self.domain = domain
        self.trunc = trunc
        self.data = [None] * (box ** nvars)

    def _index(self, e):
        if len(e) != self.nvars:
            raise ValueError("exponent length mismatch")
        idx = 0
        for k in e:
            if k < 0:
                raise ValueError("negative exponent")
            if k >= self.box:
                raise BoxOverflowError(
                    f"exponent {k} exceeds the dense box bound {self.box}"
                )
            idx = idx * self.box + k
        return idx

    @classmethod
    def from_dict(cls, nvars, terms, domain="formal",
                  trunc=DEFAULT_TRUNCATION, box=8):
        out = cls(nvars, box, domain, trunc)
        for e, c in terms.items():
            out.set_coeff(e, c)
        return out

    def set_coeff(self, e, c):
        c = _coerce(c, self.domain, self.trunc)
        self.data[self._index(e)] = c if c else None

    def get_coeff(self, e):
        c = self.data[self._index(e)]
        if c is None:
            return _coerce(0, self.domain, self.trunc)
        return c

    def iter_terms(self):
        # product() runs the last slot fastest, the row-major order of _index
        cells = itertools.product(range(self.box), repeat=self.nvars)
        for e, c in zip(cells, self.data):
            if c is not None:
                yield e, c

    def to_dict(self):
        return {e: c for e, c in self.iter_terms()}

    def total_degree(self) -> int:
        deg = -1
        for e, _ in self.iter_terms():
            s = sum(e)
            if s > deg:
                deg = s
        return deg

    def copy(self) -> "DensePolynomial":
        out = DensePolynomial(self.nvars, self.box, self.domain, self.trunc)
        out.data = list(self.data)
        return out

    def add(self, other: "DensePolynomial") -> "DensePolynomial":
        if (self.nvars, self.box, self.domain) != (
            other.nvars, other.box, other.domain
        ):
            raise ValueError("mismatched dense polynomials")
        out = DensePolynomial(
            self.nvars, self.box, self.domain, min(self.trunc, other.trunc)
        )
        for i in range(len(self.data)):
            a, b = self.data[i], other.data[i]
            if a is None and b is None:
                continue
            if a is None:
                s = b
            elif b is None:
                s = a
            else:
                s = a + b
            out.data[i] = s if s else None
        return out

    def scale(self, c) -> "DensePolynomial":
        c = _coerce(c, self.domain, self.trunc)
        out = DensePolynomial(self.nvars, self.box, self.domain, self.trunc)
        if not c:
            return out
        for i, a in enumerate(self.data):
            if a is not None:
                v = a * c
                out.data[i] = v if v else None
        return out

    def multiply(self, other: "DensePolynomial") -> "DensePolynomial":
        if (self.nvars, self.box, self.domain) != (
            other.nvars, other.box, other.domain
        ):
            raise ValueError("mismatched dense polynomials")
        out = DensePolynomial(
            self.nvars, self.box, self.domain, min(self.trunc, other.trunc)
        )
        for e1, c1 in self.iter_terms():
            for e2, c2 in other.iter_terms():
                e = tuple(a + b for a, b in zip(e1, e2))
                idx = out._index(e)  # raises BoxOverflowError when too big
                v = c1 * c2
                prev = out.data[idx]
                v = v if prev is None else prev + v
                out.data[idx] = v if v else None
        return out

    def derivative(self, i: int) -> "DensePolynomial":
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        out = DensePolynomial(self.nvars, self.box, self.domain, self.trunc)
        for e, c in self.iter_terms():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1 :]
                v = c * k
                out.data[out._index(e2)] = v if v else None
        return out

    def __eq__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.domain == other.domain
            and self.to_dict() == other.to_dict()
        )

    __hash__ = None

    def __repr__(self):
        return f"<DensePolynomial nvars={self.nvars} terms={len(self.to_dict())}>"


def naive_star(lam, z, a: DensePolynomial, b: DensePolynomial) -> DensePolynomial:
    """Bidifferential star product evaluated straight from the definition.

    lam is an n x n matrix of scalars. Term r applies every length-r sequence
    of first-slot and second-slot derivatives:

        sum_r z^r/r! sum_{I,J} lam[I1][J1] ... lam[Ir][Jr]
                     (d_I a) (d_J b)
    """
    n = a.nvars
    if b.nvars != n:
        raise ValueError("mismatched dense polynomials")
    if len(lam) != n or any(len(row) != n for row in lam):
        raise ValueError("lambda matrix has the wrong shape")
    trunc = min(a.trunc, b.trunc)
    lam = [[_coerce(x, a.domain, trunc) for x in row] for row in lam]
    z = _coerce(z, a.domain, trunc)
    out = DensePolynomial(n, a.box, a.domain, trunc)
    rmax = min(a.total_degree(), b.total_degree())
    if rmax < 0:
        return out
    zpow = _coerce(1, a.domain, trunc)
    for r in range(rmax + 1):
        if r:
            zpow = zpow * z
        factor = zpow * Fraction(1, math.factorial(r))
        if not factor:
            continue
        for seq_i in itertools.product(range(n), repeat=r):
            da = a
            for i in seq_i:
                da = da.derivative(i)
            if da.total_degree() < 0:
                continue
            for seq_j in itertools.product(range(n), repeat=r):
                coeff = factor
                dead = False
                for i, j in zip(seq_i, seq_j):
                    coeff = coeff * lam[i][j]
                    if not coeff:
                        dead = True
                        break
                if dead:
                    continue
                db = b
                for j in seq_j:
                    db = db.derivative(j)
                if db.total_degree() < 0:
                    continue
                out = out.add(da.multiply(db).scale(coeff))
    return out


def naive_p_lambda(lam, t):
    """One application of P_Lambda = sum_ij Lambda_ij d_i (x) d_j to an
    element of the tensor square, evaluated straight from the definition.

    t maps (ea, eb), the exponent tuples of the tensor factors of a term
    x^ea (x) x^eb, to its coefficient; lam is the n x n matrix of scalars
    that naive_star takes. The term (ea, eb) goes to lam[i][j] * ea[i] *
    eb[j] times x^(ea - e_i) (x) x^(eb - e_j), for every i and j. Returns
    a new dict of the same shape without zero coefficients.
    """
    n = len(lam)
    if any(len(row) != n for row in lam):
        raise ValueError("lambda matrix has the wrong shape")
    out = {}
    for (ea, eb), c in t.items():
        if len(ea) != n or len(eb) != n:
            raise ValueError("exponent length mismatch")
        for i in range(n):
            if ea[i] == 0:
                continue
            da = ea[:i] + (ea[i] - 1,) + ea[i + 1 :]
            for j in range(n):
                if eb[j] == 0:
                    continue
                db = eb[:j] + (eb[j] - 1,) + eb[j + 1 :]
                v = c * lam[i][j] * (ea[i] * eb[j])
                prev = out.get((da, db))
                out[(da, db)] = v if prev is None else prev + v
    return {key: v for key, v in out.items() if v}


# -- naive BCH through the enveloping algebra ---------------------------------

def _straighten(word, c, dim, memo):
    """PBW normal form of a word; dict[sorted word -> {h_order: coeff}].

    Rewrites the first descent with x_a x_b = x_b x_a + i*h [x_a, x_b] until
    sorted. Independent of the production straightening code on purpose.
    """
    hit = memo.get(word)
    if hit is not None:
        return hit
    pos = -1
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            pos = t
            break
    if pos < 0:
        out = {word: {0: GR_ONE}}
        memo[word] = out
        return out
    a, b = word[pos], word[pos + 1]
    out = {}
    swapped = word[:pos] + (b, a) + word[pos + 2 :]
    for m, orders in _straighten(swapped, c, dim, memo).items():
        dst = out.setdefault(m, {})
        for r, g in orders.items():
            s = dst.get(r, None)
            s = g if s is None else s + g
            if s:
                dst[r] = s
            else:
                dst.pop(r, None)
    for k in range(dim):
        ck = c[a][b][k]
        if not ck:
            continue
        f = GR_I * ck
        shorter = word[:pos] + (k,) + word[pos + 2 :]
        for m, orders in _straighten(shorter, c, dim, memo).items():
            dst = out.setdefault(m, {})
            for r, g in orders.items():
                s = dst.get(r + 1, None)
                v = f * g
                s = v if s is None else s + v
                if s:
                    dst[r + 1] = s
                else:
                    dst.pop(r + 1, None)
    out = {m: orders for m, orders in out.items() if orders}
    memo[word] = out
    return out


def _wmul(u, v, c, dim, memo, wmax):
    """Product of two PBW dicts, truncated at weight wmax.

    Elements are dict[word -> {h_order: GaussianRational}]; the weight of a
    term is len(word) + h_order and every rewrite preserves it.
    """
    out = {}
    for m1, o1 in u.items():
        for m2, o2 in v.items():
            straightened = _straighten(m1 + m2, c, dim, memo)
            for r1, g1 in o1.items():
                for r2, g2 in o2.items():
                    base = r1 + r2
                    g12 = g1 * g2
                    for m, orders in straightened.items():
                        for r3, g3 in orders.items():
                            r = base + r3
                            if len(m) + r > wmax:
                                continue
                            g = g12 * g3
                            dst = out.setdefault(m, {})
                            s = dst.get(r)
                            s = g if s is None else s + g
                            if s:
                                dst[r] = s
                            else:
                                dst.pop(r, None)
    return {m: orders for m, orders in out.items() if orders}


def naive_bch_via_ue(c, dim: int, order: int):
    """BCH coefficients recovered from log(exp(h x0^) exp(h x1^)).

    c[i][j][k] are the structure constants (any two distinguished elements
    work; this uses basis elements 0 and 1). In the rescaled envelope the
    degree-w BCH component appears at h-order 2w-1 with an i^(w-1) factor,
    so dividing it back out returns the classical coefficients. Returns
    dict[w -> tuple of GaussianRational].
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if dim < 2:
        raise ValueError("need at least two basis elements")
    c = [
        [[_gr_const(x) for x in col] for col in row]
        for row in c
    ]
    wmax = 2 * order
    memo = {}

    def exp_word(idx):
        # sum_{k <= order} h^k (x_idx)^k / k!  -- weight of term k is 2k
        out = {(): {0: GR_ONE}}
        for k in range(1, order + 1):
            g = GaussianRational(Fraction(1, math.factorial(k)))
            out[(idx,) * k] = {k: g}
        return out

    prod = _wmul(exp_word(0), exp_word(1), c, dim, memo, wmax)
    # T = prod - 1
    t = {m: dict(orders) for m, orders in prod.items()}
    if () in t:
        o = t[()]
        if 0 in o:
            del o[0]
        if not o:
            del t[()]
    # log(1 + T) = sum_m (-1)^(m+1) T^m / m, T has minimal weight 2
    log = {}
    power = None
    for m in range(1, order + 1):
        power = t if power is None else _wmul(power, t, c, dim, memo, wmax)
        if not power:
            break
        sign = Fraction(1 if m % 2 == 1 else -1, m)
        for mono, orders in power.items():
            dst = log.setdefault(mono, {})
            for r, g in orders.items():
                s = dst.get(r)
                v = g * sign
                s = v if s is None else s + v
                if s:
                    dst[r] = s
                else:
                    dst.pop(r, None)
    log = {m: orders for m, orders in log.items() if orders}
    # the log of a product of group-likes is a Lie element: only length-1
    # words may survive
    for m, orders in log.items():
        if len(m) != 1 and any(orders.values()):
            raise StarWeylError(
                f"naive BCH log has a non-primitive remainder at {m!r}"
            )
    out = {w: [GaussianRational(0)] * dim for w in range(1, order + 1)}
    for m, orders in log.items():
        k = m[0]
        for r, g in orders.items():
            if r % 2 == 0:
                raise StarWeylError(
                    "naive BCH log has an even h-order primitive term"
                )
            w = (r + 1) // 2
            if w > order:
                continue
            # strip the rescaling factor i^(w-1): i^-1 = -i
            out[w][k] = out[w][k] + g * GR_I.conjugate() ** (w - 1)
    return {w: tuple(vec) for w, vec in out.items()}


# -- naive Gutt product through the enveloping algebra ---------------------------
#
# Envelope elements are dense dicts word -> {h_order: GaussianRational}.


def _add_series(out, word, r, g, trunc):
    """out[word][r] += g, dropping orders above trunc and zero entries."""
    if r > trunc:
        return
    dst = out.setdefault(word, {})
    s = dst.get(r, GaussianRational(0)) + g
    if s:
        dst[r] = s
    else:
        dst.pop(r, None)
        if not dst:
            del out[word]


def _series(c):
    """{h_order: GaussianRational} of a coefficient."""
    if isinstance(c, FormalScalar):
        return dict(c.coeffs)
    return {0: _gr_const(c)}


def _naive_sym(alpha, c, dim, memo, trunc):
    """sigma(x^alpha): the average over every ordering of the word of
    alpha, each straightened."""
    word = tuple(k for k in range(dim) for _ in range(alpha[k]))
    orderings = list(itertools.permutations(word))
    weight = GaussianRational(Fraction(1, len(orderings)))
    out = {}
    for o in orderings:
        for m, orders in _straighten(o, c, dim, memo).items():
            for r, g in orders.items():
                _add_series(out, m, r, g * weight, trunc)
    return out


def naive_gutt(c, dim: int, f, g, trunc: int):
    """Gutt product sigma^-1(sigma(f) sigma(g)) from the definitions.

    c[i][j][k] are the structure constants; f and g map exponent tuples to
    coefficients (FormalScalar or exact constants). sigma(x^alpha) is the
    average of the straightened orderings of its word, the envelope product
    concatenates words, and sigma^-1 eliminates the longest word first.
    Returns dict[exponent tuple -> FormalScalar] cut at h-order trunc.
    """
    memo = {}

    def sigma(poly):
        out = {}
        for alpha, coeff in poly.items():
            for r1, g1 in _series(coeff).items():
                for m, orders in _naive_sym(alpha, c, dim, memo, trunc).items():
                    for r2, g2 in orders.items():
                        _add_series(out, m, r1 + r2, g1 * g2, trunc)
        return out

    u = sigma(f)
    v = sigma(g)
    prod = {}
    for m1, o1 in u.items():
        for m2, o2 in v.items():
            for m, o3 in _straighten(m1 + m2, c, dim, memo).items():
                for r1, g1 in o1.items():
                    for r2, g2 in o2.items():
                        for r3, g3 in o3.items():
                            _add_series(prod, m, r1 + r2 + r3, g1 * g2 * g3,
                                        trunc)
    out = {}
    while prod:
        m = max(prod, key=lambda w: (len(w), w))
        series = dict(prod[m])
        alpha = tuple(m.count(k) for k in range(dim))
        for r, g in series.items():
            _add_series(out, alpha, r, g, trunc)
        for mm, orders in _naive_sym(alpha, c, dim, memo, trunc).items():
            for r1, g1 in series.items():
                for r2, g2 in orders.items():
                    _add_series(prod, mm, r1 + r2, -(g1 * g2), trunc)
    return {
        alpha: FormalScalar(orders, trunc) for alpha, orders in out.items()
    }


# -- naive BCH by Dynkin's formula ----------------------------------------------

def _dynkin_blocks(weight):
    """Yield block sequences [(p1,q1),...] with all p+q >= 1 summing to weight."""
    if weight == 0:
        yield []
        return
    for b in range(1, weight + 1):
        for rest in _dynkin_blocks(weight - b):
            for p in range(b + 1):
                yield [(p, b - p)] + rest


def _naive_bracket(c, u, v):
    """[u, v] with [e_i, e_j] = sum_k c[i][j][k] e_k, by literal loops."""
    dim = len(u)
    out = [GaussianRational(0)] * dim
    for i in range(dim):
        for j in range(dim):
            uv = u[i] * v[j]
            if not uv:
                continue
            for k in range(dim):
                out[k] = out[k] + uv * c[i][j][k]
    return tuple(out)


def naive_bch_dynkin(c, x, y, order: int):
    """BCH(h*x, h*y) component by component from Dynkin's formula.

    c[i][j][k] are the structure constants. Every block sequence
    (p1,q1)...(pn,qn) of weight w contributes the right-nested bracket of
    the word x^p1 y^q1 ... x^pn y^qn with coefficient
    (-1)^(n-1) / (n w prod p! q!). The coefficients are summed per word
    first, and each word's bracket is built on its suffix's, so the about
    3.5-4x more sequences per order cost Fraction sums, not brackets.
    Returns dict[w -> tuple of GaussianRational] for w = 1..order.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    c = [
        [[_gr_const(v) for v in col] for col in row]
        for row in c
    ]
    letters = (tuple(_gr_const(v) for v in x), tuple(_gr_const(v) for v in y))
    memo = {}

    def nested(word):
        # [l1,[l2,[...[l_{m-1}, l_m]...]]] for the letters of word
        if word not in memo:
            first = letters[word[0]]
            memo[word] = first if len(word) == 1 else _naive_bracket(
                c, first, nested(word[1:]))
        return memo[word]

    out = {}
    for w in range(1, order + 1):
        coeffs = {}
        for blocks in _dynkin_blocks(w):
            n = len(blocks)
            denom = n * w
            word = ()
            for p, q in blocks:
                denom *= math.factorial(p) * math.factorial(q)
                word += (0,) * p + (1,) * q
            coeffs[word] = coeffs.get(word, 0) + Fraction(
                -1 if n % 2 == 0 else 1, denom)
        total = [GaussianRational(0)] * len(letters[0])
        for word, f in coeffs.items():
            if f:
                total = [t + a * f for t, a in zip(total, nested(word))]
        out[w] = tuple(total)
    return out


def _gr_const(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)
