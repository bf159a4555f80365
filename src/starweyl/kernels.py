"""The sparse kernels behind polynomial, star and envelope products.

The functions work on plain dicts keyed by exponent tuples, with
coefficients that support +, *, unary bool (zero test) and
multiplication by int. They run on a codec of scalars.py:

- formal domain, plain ints in the integer codec (keys end in the powers
  of h and i, one denominator per operand), the form a formal term sum
  stores, with each result brought to canonical form once by
  scalars.int_canonical: the formal products of poly.py (mul_terms),
  translations (shift_terms) and scalings (scale_terms), the star product
  and Poisson bracket of star.py (star_terms, p_lambda_terms), and the
  envelope products of lie.py (lift_terms);
- numeric domain, plain complex floats in the complex codec, encoded
  before the kernel and decoded after it: polynomial products (mul_terms),
  translations (shift_terms), the star product and Poisson bracket
  (star_terms, p_lambda_terms).

Only the public p_lambda on a TensorSquare passes coefficient objects.
"""

from math import comb
from operator import add

# One implementation; the name is kept because benchmark results record it.
BACKEND = "pure"


def mul_terms(a, b):
    """Sparse product of two term dicts over the same generators."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            v = ca * cb
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out

def p_lambda_terms(entries, t):
    """One application of P_Lambda to a tensor-square term dict.

    entries: nonzero (i, j, lam_ij, left) of the bilinear form.
    t: dict[(exp_left, exp_right) -> coeff].
    Contracts one derivative on each side: coefficient picks up
    lam_ij * alpha_i * beta_j and both exponents drop by one unit. left is
    None or a tuple added to the left exponent in place of its drop at i:
    the -1 at i plus shifts of further slots (the integer star encoding
    keeps the powers of h and i in two extra slots).
    """
    out = {}
    for (ea, eb), c in t.items():
        for i, j, lam, left in entries:
            ai = ea[i]
            bj = eb[j]
            if ai and bj:
                if left is None:
                    ka = ea[:i] + (ai - 1,) + ea[i + 1 :]
                else:
                    ka = tuple(map(add, ea, left))
                key = (ka, eb[:j] + (bj - 1,) + eb[j + 1 :])
                v = c * (lam * (ai * bj))
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out

def star_terms(entries, zfacts, a, b, rmax):
    """Accumulated star product sum_r zfacts[r] * mu(P_Lambda^r(a (x) b)).

    zfacts[r] is the weight of level r (z^r / r! with z outside the
    entries, or an integer weight when z is folded into them); rmax bounds
    the number of P_Lambda applications.
    """
    t = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            t[(ea, eb)] = ca * cb
    out = {}
    r = 0
    while t:
        zf = zfacts[r]
        if zf:
            for (ea, eb), c in t.items():
                key = tuple(map(add, ea, eb))
                v = c * zf
                prev = out.get(key)
                v = v if prev is None else prev + v
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        r += 1
        if r > rmax:
            break
        t = p_lambda_terms(entries, t)
    return out


def lift_terms(a, b, raws, size, trunc):
    """Integer terms of sum a[ea] * b[eb] * scale * raw over the pairs of
    terms of a and b whose h-orders sum to at most trunc.

    a and b are encoded term dicts (keys x + (h-order, i-power));
    (scale, w, raw) = raws[xa, xb] is the raw product of the pair's
    monomials: raw maps y + (i-power,) to ints, has weight w, and its term
    y carries the implied h^(w - size(y)). Orders above trunc are skipped;
    the i-power is left unreduced for int_canonical.
    """
    out = {}
    for ea, ca in a.items():
        xa = ea[:-2]
        ra = ea[-2]
        qa = ea[-1]
        for eb, cb in b.items():
            r0 = ra + eb[-2]
            if r0 > trunc:
                continue
            scale, w, raw = raws[xa, eb[:-2]]
            c = ca * cb * scale
            q0 = qa + eb[-1]
            rw = r0 + w
            for key, g in raw.items():
                y = key[:-1]
                r = rw - size(y)
                if r > trunc:
                    continue
                k = y + (r, q0 + key[-1])
                v = c * g
                prev = out.get(k)
                v = v if prev is None else prev + v
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def scale_terms(a, s, trunc):
    """Integer terms of a times the scalar s.

    a is an encoded term dict (keys x + (h-order, i-power)) and s the
    encoded scalar {(h-order, i-power): n}. Orders above trunc are dropped;
    the i-power is left unreduced for int_canonical.
    """
    out = {}
    for ea, ca in a.items():
        x = ea[:-2]
        ra = ea[-2]
        qa = ea[-1]
        for (r, q), cs in s.items():
            h = ra + r
            if h > trunc:
                continue
            key = x + (h, qa + q)
            v = ca * cs
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _binomial_rows(d, s, k_max, trunc):
    """rows[k][j] = C(k, j) * d^(k_max - k + j) * (d s)^(k - j) as encoded
    scalars, for k <= k_max: the coefficient of x^j in (x + s)^k brought
    over d^k_max."""
    powers = [{(0, 0): 1}]
    for _ in range(k_max):
        powers.append(scale_terms(powers[-1], s, trunc))
    return [
        [{rq: v * d ** (k_max - k + j) * comb(k, j)
          for rq, v in powers[k - j].items()}
         for j in range(k + 1)]
        for k in range(k_max + 1)
    ]


def shift_terms(a, shifts, trunc):
    """(den, out): a with x_i replaced by x_i + s_i, out over den.

    a is an encoded term dict (keys x + (h-order, i-power)). shifts[i] is
    None to leave x_i alone, else (d, s) with s_i = s / d for an encoded
    scalar s ({(h-order, i-power): n}). Each term is expanded one variable
    at a time, and every term of variable i is brought over d^K, K the
    largest exponent of x_i in a; den is the product of those powers.
    Orders above trunc are dropped; the i-power is left unreduced for
    int_canonical.
    """
    den = 1
    tables = []
    for i, sh in enumerate(shifts):
        k_max = max((ea[i] for ea in a), default=0)
        if sh is None or not k_max:
            continue
        d, s = sh
        den *= d ** k_max
        tables.append((i, _binomial_rows(d, s, k_max, trunc)))
    out = {}
    for ea, ca in a.items():
        acc = {ea: ca}
        for i, rows in tables:
            row = rows[ea[i]]
            nxt = {}
            for e, c in acc.items():
                head = e[:i]
                mid = e[i + 1 : -2]
                he = e[-2]
                qe = e[-1]
                for j, fac in enumerate(row):
                    for (r, q), f in fac.items():
                        h = he + r
                        if h > trunc:
                            continue
                        key = head + (j,) + mid + (h, qe + q)
                        v = c * f
                        prev = nxt.get(key)
                        v = v if prev is None else prev + v
                        if v:
                            nxt[key] = v
                        else:
                            nxt.pop(key, None)
            acc = nxt
        for key, v in acc.items():
            prev = out.get(key)
            v = v if prev is None else prev + v
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return den, out
