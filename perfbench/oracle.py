"""Reference results computed apart from starweyl, with `fractions` only.

Inputs are real: polynomials are dicts {exponent tuple: Fraction}, bilinear
and symmetric forms are lists of (i, j, Fraction). Every formula used here
produces, at h-order r, a real number times (-i)^r (z = -i*h carries the only
imaginary unit), so formal results are kept as {exponent: {r: Fraction}} with
that phase implied, and turned into exact (re, im) pairs only to compare with
the program's output.
"""

import math
from fractions import Fraction

# (-i)^r for r mod 4, as (re, im)
_PHASE = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _acc(out, key, r, v):
    if not v:
        return
    slot = out.setdefault(key, {})
    s = slot.get(r, 0) + v
    if s:
        slot[r] = s
    else:
        del slot[r]
        if not slot:
            del out[key]


def to_gaussian(phased):
    """{key: {r: real}} with implied (-i)^r -> {key: {r: (re, im)}}."""
    out = {}
    for key, orders in phased.items():
        out[key] = {
            r: (Fraction(c * _PHASE[r % 4][0]), Fraction(c * _PHASE[r % 4][1]))
            for r, c in orders.items()
        }
    return out


def program_terms(terms):
    """Program term dict {key: FormalScalar} -> {key: {r: (re, im)}}."""
    return {
        key: {r: (g.re, g.im) for r, g in c.coeffs.items()}
        for key, c in terms.items()
    }


# -- real polynomial arithmetic ----------------------------------------------

def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def deriv(a, i):
    out = {}
    for e, c in a.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return out


def linear_power(coeffs, const, d):
    """(sum_i coeffs[i] x_i + const)^d by repeated multiplication."""
    n = len(coeffs)
    lin = {}
    for i, c in enumerate(coeffs):
        if c:
            lin[tuple(1 if j == i else 0 for j in range(n))] = Fraction(c)
    if const:
        lin[(0,) * n] = Fraction(const)
    out = {(0,) * n: Fraction(1)}
    for _ in range(d):
        out = poly_mul(out, lin)
    return out


# -- flat star products, ordering operators, representations -----------------

def star(lam, a, b, trunc):
    """sum_r (z^r / r!) mu(P_lam^r (a (x) b)), z = -i*h, orders <= trunc."""
    t = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            t[(ea, eb)] = ca * cb
    out = {}
    r = 0
    fact = 1
    while t and r <= trunc:
        for (ea, eb), c in t.items():
            _acc(out, tuple(x + y for x, y in zip(ea, eb)), r, Fraction(c, fact))
        r += 1
        fact *= r
        nxt = {}
        for (ea, eb), c in t.items():
            for i, j, lv in lam:
                if ea[i] and eb[j]:
                    key = (ea[:i] + (ea[i] - 1,) + ea[i + 1:],
                           eb[:j] + (eb[j] - 1,) + eb[j + 1:])
                    s = nxt.get(key, 0) + c * lv * ea[i] * eb[j]
                    if s:
                        nxt[key] = s
                    else:
                        nxt.pop(key, None)
        t = nxt
    return out


def bracket(lam, a, b):
    """sum_ij lam_ij (d_i a d_j b - d_i b d_j a)."""
    out = {}
    for i, j, lv in lam:
        out = poly_add(out, poly_mul(deriv(a, i), deriv(b, j)), lv)
        out = poly_add(out, poly_mul(deriv(b, i), deriv(a, j)), -lv)
    return out


def ordering_apply(sym, f, trunc):
    """exp(z Delta_S) f with Delta_S = (1/2) sum_ij S_ij d_i d_j, z = -i*h.

    f may itself be phased ({exp: {r: c}}); the result is phased."""
    out = {}
    for e, orders in f.items():
        for r, c in orders.items():
            _acc(out, e, r, c)
    term = f
    k = 0
    fact = 1
    while True:
        nxt = {}
        for e, orders in term.items():
            for i, j, s in sym:
                if e[i] and (e[j] - (1 if i == j else 0)) > 0:
                    e1 = e[:i] + (e[i] - 1,) + e[i + 1:]
                    e2 = e1[:j] + (e1[j] - 1,) + e1[j + 1:]
                    m = e[i] * e1[j]
                    for r, c in orders.items():
                        _acc(nxt, e2, r, c * s * m / 2)
        term = nxt
        k += 1
        fact *= k
        if not term or k > trunc:
            break
        for e, orders in term.items():
            for r, c in orders.items():
                if r + k <= trunc:
                    _acc(out, e, r + k, Fraction(c, fact))
    return out


def phased(f):
    """Real polynomial -> phased with everything at order 0."""
    return {e: {0: Fraction(c)} for e, c in f.items()}


def std_rep(f, n, trunc):
    """q^a p^b -> (-i*h)^{|b|} q^a d^b on phase space (q_1..q_n, p_1..p_n);
    f phased. Keys are (a, d) pairs as in DifferentialOperator.terms."""
    out = {}
    for e, orders in f.items():
        a, b = e[:n], e[n:]
        for r, c in orders.items():
            if r + sum(b) <= trunc:
                _acc(out, (a, b), r + sum(b), c)
    return out


def std_form(n):
    """Lambda_std on (q_1..q_n, p_1..p_n): entry (p_k, q_k) = 1."""
    return [(n + k, k, Fraction(1)) for k in range(n)]


def antisym(lam):
    out = {}
    for i, j, v in lam:
        out[(i, j)] = out.get((i, j), 0) + v / 2
        out[(j, i)] = out.get((j, i), 0) - v / 2
    return [(i, j, v) for (i, j), v in sorted(out.items()) if v]


def sym(lam):
    out = {}
    for i, j, v in lam:
        out[(i, j)] = out.get((i, j), 0) + v / 2
        out[(j, i)] = out.get((j, i), 0) + v / 2
    return [(i, j, v) for (i, j), v in sorted(out.items()) if v]


def std_monomial_product(m, n, c1, c2, trunc):
    """(c1 p^m) *_std (c2 q^n) on (q, p) in closed form:
    sum_k k! C(m,k) C(n,k) (-i*h)^k q^(n-k) p^(m-k), k <= trunc."""
    out = {}
    for k in range(min(m, n, trunc) + 1):
        c = c1 * c2 * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
        _acc(out, (n - k, m - k), k, Fraction(c))
    return out


# -- Lie algebras -------------------------------------------------------------

def structure_constants(algebra_json):
    """c[i][j][k] as Fractions from LieAlgebra.to_json()."""
    d = algebra_json["dim"]
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for b in algebra_json["brackets"]:
        i, j = b["i"], b["j"]
        for k, s in enumerate(b["coeffs"]):
            v = Fraction(s)
            c[i][j][k] = v
            c[j][i][k] = -v
    return c


def lie_bracket(c, u, v):
    d = len(c)
    return [
        sum(u[i] * v[j] * c[i][j][k] for i in range(d) for j in range(d))
        for k in range(d)
    ]


def kks(c, f, g):
    """{f, g}(x) = sum x_i c^i_{kl} d_k f d_l g on the dual."""
    d = len(c)
    out = {}
    for k in range(d):
        fk = deriv(f, k)
        if not fk:
            continue
        for ell in range(d):
            gl = deriv(g, ell)
            if not gl:
                continue
            prod = poly_mul(fk, gl)
            for i in range(d):
                if c[k][ell][i]:
                    xi = {tuple(1 if t == i else 0 for t in range(d)): 1}
                    out = poly_add(out, poly_mul(xi, prod), c[k][ell][i])
    return out


def h3_gutt(f, g, trunc):
    """Gutt product on the dual of h3 ([X, Y] = Z, coordinates x, y, z):
    the Moyal product in (x, y) with i*h replaced by i*h*z, i.e.
    sum_r ((i h z / 2)^r / r!) mu((d_x (x) d_y - d_y (x) d_x)^r (f (x) g)).

    Returned phased like `star` (real coefficient times (-i)^r at order r),
    the factor z^r and the sign of i^r = (-1)^r (-i)^r folded in."""
    lam = [(0, 1, Fraction(1, 2)), (1, 0, Fraction(-1, 2))]
    # star() computes sum_r (-i h)^r / r! P^r; (i h z)^r = (-1)^r z^r (-i h)^r
    base = star(lam, f, g, trunc)
    out = {}
    for e, orders in base.items():
        for r, c in orders.items():
            _acc(out, (e[0], e[1], e[2] + r), r, c * (-1) ** r)
    return out


def h3_bch(x, y, order):
    """BCH(h x, h y) on h3 in closed form: h(x + y) + (1/2) h^2 [x, y]."""
    out = {}
    if order >= 1:
        out[1] = tuple(Fraction(a + b) for a, b in zip(x, y))
    if order >= 2:
        out[2] = (Fraction(0), Fraction(0),
                  Fraction(x[0] * y[1] - x[1] * y[0], 2))
    return {w: v for w, v in out.items() if any(v)}


def _solve(m, b):
    """Solve m x = b over Fractions by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(row) + [bi] for row, bi in zip(m, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def basis_change(c, x, y):
    """Structure constants in a basis whose first two vectors are x and y.

    Returns (c2, cols): c2 for naive_bch_via_ue, cols the new basis vectors
    (old coordinates) used to map results back. x and y must be
    independent."""
    d = len(c)
    cols = [list(map(Fraction, x)), list(map(Fraction, y))]
    for k in range(d):
        if len(cols) == d:
            break
        e = [Fraction(int(t == k)) for t in range(d)]
        trial = cols + [e]
        if rank(trial) == len(trial):
            cols.append(e)
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]  # columns = basis
    c2 = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            c2[i][j] = _solve(mat, lie_bracket(c, cols[i], cols[j]))
    return c2, cols


def rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    ncol = len(rows[0])
    for col in range(ncol):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def from_basis(cols, vec):
    """Coordinates vec in the basis `cols` -> old coordinates."""
    d = len(cols)
    return tuple(sum(vec[j] * cols[j][i] for j in range(d)) for i in range(d))


# -- seminorms and exponentials ----------------------------------------------

def exp_terms(v, alpha, cutoff):
    """sum_{k <= cutoff} alpha^k (v . x)^k / k! by the multinomial formula."""
    n = len(v)
    out = {}

    def rec(prefix, left):
        if len(prefix) == n - 1:
            e = tuple(prefix) + (left,)
            c = Fraction(1)
            for vi, ei in zip(v, e):
                c *= Fraction(vi) ** ei / math.factorial(ei)
            c *= Fraction(alpha) ** sum(e)
            if c:
                out[e] = c
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    for k in range(cutoff + 1):
        rec([], k)
    return out


def exp_pR(x, R, cutoff):
    """Closed form p_R of the degree-`cutoff` exponential:
    partial sums of sum_k k!^(R-1) x^k, k = 0..cutoff."""
    sums = []
    acc = 0.0
    for k in range(cutoff + 1):
        acc += float(math.factorial(k)) ** (R - 1.0) * x ** k
        sums.append(acc)
    return sums


def pR(weights, R, terms_at_h1):
    """p_R of {exp: complex value} = sum |c| k!^R prod w_i^e_i, k = |e|."""
    total = 0.0
    for e, c in terms_at_h1.items():
        mag = abs(c)
        for w, k in zip(weights, e):
            mag *= w ** k
        total += float(math.factorial(sum(e))) ** R * mag
    return total


def at_h1(ph):
    """Phased {exp: {r: c}} evaluated at h = 1 -> {exp: complex}."""
    out = {}
    for e, orders in ph.items():
        re = sum(c * _PHASE[r % 4][0] for r, c in orders.items())
        im = sum(c * _PHASE[r % 4][1] for r, c in orders.items())
        out[e] = complex(float(re), float(im))
    return out


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)
