"""The sparse kernels behind polynomial and star products.

All three functions work on plain dicts keyed by exponent tuples, with
coefficient objects that support +, *, unary bool (zero test) and
multiplication by int. Polynomial products pass FormalScalar or
NumericScalar coefficients; the formal star product and Poisson bracket
pass plain ints (star.py encodes the operands and decodes the result).
"""

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
