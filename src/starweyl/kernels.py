"""The sparse kernels behind polynomial, star and envelope products.

The functions take and return plain dicts keyed by exponent tuples, with
coefficients that support +, *, unary bool (zero test) and
multiplication by int; the P_Lambda kernels (star_terms, p_lambda_terms,
bracket_terms) run on packed keys inside (_Layout). They run on
the values a term sum stores (scalars.py), keys ending in the powers of h
and i, with each result brought to the stored form once by
scalars.stored_canonical:

- formal domain, plain ints, one denominator per operand: the products of
  poly.py (mul_terms), translations (shift_terms) and scalings
  (scale_terms), the star product and Poisson bracket of star.py
  (star_terms, bracket_terms), and the envelope products of lie.py
  (lift_terms);
- numeric domain, plain complex floats with both slots 0: the same
  kernels of poly.py, and the star product (on keys stripped of the zero
  slots) and Poisson bracket with complex form entries and weights.

Only the public p_lambda passes coefficient objects.
"""

from math import comb, inf
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


class _Layout:
    """Packed monomials for one call of the P_Lambda kernels (Monagan and
    Pearce, "Sparse polynomial multiplication and division in Maple 14",
    2009).

    A key of n slots packs into the int sum_k key[k] << k*width, and a
    tensor-square key (ka, kb) into ka << shift | kb with shift = n*width.
    The width fits the largest slot value the call can reach: slots start
    at top or below, each of at most rmax P_Lambda steps raises a left slot
    by at most inc, and mu adds two keys, so no field exceeds
    2*top + rmax*inc; one bit more is spare. Packed keys then add field by
    field without a carry, and mu is (key >> shift) + (key & low).

    A kernel entry (i, j, lam, left) becomes the step (shift + i*width,
    j*width, lam, delta): the step reads slot i of the left factor and
    slot j of the right one with a shift and a mask, and its new key is
    key + delta, which lowers both by one and adds left's raises of the
    other slots.
    """

    __slots__ = ("width", "mask", "shift", "low", "steps")

    def __init__(self, entries, keys, rmax):
        """The layout of a call that starts from keys (a list of tuples of
        one length) and applies the entries at most rmax times."""
        top = max(map(max, keys))
        inc = max([max(e[3]) for e in entries if e[3]] + [0])
        self.width = w = (2 * top + rmax * inc).bit_length() + 1
        self.mask = (1 << w) - 1
        self.shift = s = len(keys[0]) * w
        self.low = (1 << s) - 1
        self.steps = [
            (s + i * w, j * w, lam,
             (self.key(left) << s if left else -(1 << (s + i * w)))
             - (1 << (j * w)))
            for i, j, lam, left in entries
        ]

    def key(self, e):
        """The packed key of the tuple e (whose slots may be negative: the
        int is sum_k e[k] << k*width)."""
        w = self.width
        p = 0
        for v in reversed(e):
            p = (p << w) + v
        return p

    def slots(self, p):
        """The tuple of the packed key p."""
        m = self.mask
        return tuple([p >> o & m for o in range(0, self.shift, self.width)])

    def pack(self, terms):
        return {self.key(e): c for e, c in terms.items()}

    def unpack(self, terms):
        m = self.mask
        offsets = range(0, self.shift, self.width)
        return {tuple([p >> o & m for o in offsets]): c for p, c in terms.items()}

    def pack_tensor(self, t):
        s = self.shift
        return {self.key(ea) << s | self.key(eb): c for (ea, eb), c in t.items()}

    def unpack_tensor(self, t):
        s = self.shift
        low = self.low
        return {(self.slots(p >> s), self.slots(p & low)): c
                for p, c in t.items()}


def _step(lay, t):
    """P_Lambda on the tensor t packed in the layout lay."""
    mask = lay.mask
    steps = lay.steps
    out = {}
    for key, c in t.items():
        for si, sj, lam, delta in steps:
            ai = key >> si & mask
            if ai:
                bj = key >> sj & mask
                if bj:
                    k = key + delta
                    v = c * (lam * (ai * bj))
                    prev = out.get(k)
                    v = v if prev is None else prev + v
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
    return out


def _mu(lay, t):
    """mu of the tensor t packed in the layout lay."""
    s = lay.shift
    low = lay.low
    out = {}
    for key, c in t.items():
        k = (key >> s) + (key & low)
        prev = out.get(k)
        v = c if prev is None else prev + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def p_lambda_terms(entries, t):
    """One application of P_Lambda to a tensor-square term dict.

    Contracts one derivative on each side: the coefficient picks up
    lam_ij * alpha_i * beta_j and both exponents drop by one unit. entries
    are the nonzero (i, j, lam_ij, left) of the bilinear form; left is None
    or a tuple added to the left exponent in place of its drop at i: the -1
    at i plus raises (>= 0) of further slots (the integer star encoding
    keeps the powers of h and i in two extra slots). t maps
    (exp_left, exp_right) to coefficients.

    The step runs on packed keys (_Layout): a tuple-keyed t is packed,
    stepped and written back. star_terms and bracket_terms, which step a
    packed tensor, pass their _Layout as entries and the packed t, and get
    the packed result.
    """
    if isinstance(entries, _Layout):
        return _step(entries, t)
    if not t:
        return {}
    lay = _Layout(entries, [e for pair in t for e in pair], 1)
    return lay.unpack_tensor(_step(lay, lay.pack_tensor(t)))


def star_terms(entries, zfacts, a, b, rmax, window=None):
    """Accumulated star product sum_r zfacts[r] * mu(P_Lambda^r(a (x) b)).

    zfacts[r] is the weight of level r (z^r / r! with z outside the
    entries, or an integer weight when z is folded into them); rmax bounds
    the number of P_Lambda applications. The levels run on packed keys
    (_Layout), each through p_lambda_terms.

    window = (n, top) keeps only the output terms whose first n slots sum
    to at most top. It is exact when every entry lowers those slots by
    exactly 2 in all (left raises only later slots, as star's folded
    entries do): a pair of degree d = deg a + deg b then has degree d - 2r
    at level r, so a pair with d > top + 2*rmax is never formed, and level
    r runs mu only on the pairs with d - 2r <= top. The tensor is kept in
    one bucket per d for that. No window is the window (0, inf): one
    bucket, formed and summed in the order of a and b.
    """
    if not a or not b:
        return {}
    lay = _Layout(entries, [*a, *b], rmax)
    s = lay.shift
    low = lay.low
    n, top = window or (0, inf)
    gbs = _by_degree(lay, b, n).items()
    buckets = {}
    for d, ga in _by_degree(lay, a, n).items():
        for e, gb in gbs:
            if d + e > top + 2 * rmax:
                continue
            t = buckets.setdefault(d + e, {})
            for ka, ca in ga:
                ka <<= s
                for kb, cb in gb:
                    t[ka | kb] = ca * cb
    out = {}
    r = 0
    while buckets:
        zf = zfacts[r]
        if zf:
            for d, t in buckets.items():
                if d - 2 * r > top:
                    continue
                for key, c in t.items():
                    k = (key >> s) + (key & low)
                    v = c * zf
                    prev = out.get(k)
                    v = v if prev is None else prev + v
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        r += 1
        if r > rmax:
            break
        buckets = {d: nxt for d, t in buckets.items()
                   if (nxt := p_lambda_terms(lay, t))}
    return lay.unpack(out)


def _by_degree(lay, terms, n):
    """{degree: [(packed key, coefficient)]} of a term dict, the degree of
    a key the sum of its first n slots."""
    out = {}
    for e, c in terms.items():
        out.setdefault(sum(e[:n]), []).append((lay.key(e), c))
    return out


def bracket_terms(entries, a, b):
    """mu(P_Lambda(a (x) b) - P_Lambda(b (x) a)) for term dicts a and b,
    on packed keys; zero products of a term of a and one of b are left
    out of the tensors."""
    if not a or not b:
        return {}
    lay = _Layout(entries, [*a, *b], 1)
    s = lay.shift
    pa = lay.pack(a)
    pb = lay.pack(b)
    t = p_lambda_terms(lay, {ka << s | kb: v for ka, ca in pa.items()
                             for kb, cb in pb.items() if (v := ca * cb)})
    rhs = p_lambda_terms(lay, {kb << s | ka: v for kb, cb in pb.items()
                               for ka, ca in pa.items() if (v := cb * ca)})
    for k, c in rhs.items():
        c = -c
        prev = t.get(k)
        v = c if prev is None else prev + c
        if v:
            t[k] = v
        else:
            t.pop(k, None)
    return lay.unpack(_mu(lay, t))


def lift_terms(a, b, raws, trunc):
    """Integer terms of sum a[ea] * b[eb] * scale * raw over the pairs of
    terms of a and b whose h-orders sum to at most trunc.

    a, b and each raw are encoded term dicts (keys x + (h-order, i-power));
    (scale, raw) = raws[xa, xb] is the raw product of the pair's monomials,
    whose h- and i-powers add to the pair's. Orders above trunc are
    skipped; the i-power is left unreduced for int_canonical.
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
            scale, raw = raws[xa, eb[:-2]]
            c = ca * cb * scale
            q0 = qa + eb[-1]
            for key, g in raw.items():
                r = r0 + key[-2]
                if r > trunc:
                    continue
                k = key[:-2] + (r, q0 + key[-1])
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
