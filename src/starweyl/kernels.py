"""The sparse kernels behind polynomial, star and envelope products.

The functions take and return plain dicts keyed by exponent tuples, with
coefficients that support +, *, unary bool (zero test) and
multiplication by int; the P_Lambda kernels (star_terms, star_slices,
p_lambda_terms, bracket_terms) run on packed keys inside (_Layout). They
run on the values a term sum stores (scalars.py), keys ending in the
powers of h and i, with each result brought to the stored form once by
scalars.stored_canonical:

- formal domain, plain ints, one denominator per operand: the products of
  poly.py (mul_terms), translations (shift_terms) and scalings
  (scale_terms), the star product and Poisson bracket of star.py
  (star_terms, bracket_terms), and the envelope products of lie.py
  (lift_terms);
- numeric domain, plain complex floats with both slots 0: the same
  kernels of poly.py, and the star product (on keys stripped of the zero
  slots) and Poisson bracket with complex form entries and weights, and
  the slices of a star product that the continuity report of seminorms.py
  adds up (star_slices).

star_terms, star_slices and bracket_terms run the star product as the
series of bidifferential operators it is (_series), with no tensor
square; a window keeps the products of buckets of degree and h-order
inside it, the slices file a product by the larger degree of its pair.
shift_terms is a Taylor shift, one variable at a time. Only the public
p_lambda passes coefficient objects.
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


def _raises(entries):
    """[left with its -1 at slot i added back, a list, or None] for each
    entry (i, j, lam, left): its raises. A ValueError unless every raise is
    >= 0 and sits on a slot that no entry differentiates."""
    used = {k for e in entries for k in e[:2]}
    ups = []
    for i, j, _, left in entries:
        if left:
            up = list(left)
            up[i] += 1
            if min(up) < 0 or any(map(up.__getitem__, used)):
                raise ValueError(f"entry ({i}, {j}) moves the slots by {left}: "
                                 f"it may lower slot {i} by one and raise "
                                 "slots that no entry differentiates")
            left = up
        ups.append(left)
    return ups


class _Layout:
    """Packed monomials for one call of the P_Lambda kernels (Monagan and
    Pearce, "Sparse polynomial multiplication and division in Maple 14",
    2009).

    A key of n slots packs into the int sum_k key[k] << k*width. The width
    fits the largest slot value the call can reach: slots start at top or
    below, at most rmax steps raise a slot by at most inc each, and a
    product adds two keys, so no field exceeds 2*top + rmax*inc; one bit
    more is spare. Packed keys then add field by field without a carry.

    A term of a right factor B_r[mu] (_series) is the int mu << cshift |
    g << shift | key, mu in fields of rmax.bit_length() bits, its bucket g
    deg * dw + h * hw: deg the sum of the key's first n slots, h its slot
    n (a formal h-order), dw 1 << width and hw 1 if the call reads them,
    else 0. An entry (i, j, lam, left) becomes the step (j*width, lam,
    delta): term + delta lowers slot j by one, adds the entry's raises
    (_raises; exact on the right factor, as no entry differentiates their
    slots), moves g to deg - 1 and h plus the raise, and mu to mu + e_i.
    room is the largest h-order a right term may reach.
    """

    __slots__ = ("width", "mask", "shift", "cshift", "n", "dw", "hw", "room",
                 "steps", "lefts")

    def __init__(self, entries, a, b, rmax, n=0, degrees=False, trunc=inf):
        """The layout of a call on the keys of a and b, at most rmax
        steps."""
        ups = _raises(entries)
        inc = max([max(up) for up in ups if up] + [0])
        top = max(max(map(max, a)), max(map(max, b)))
        self.width = w = (2 * top + rmax * inc).bit_length() + 1
        self.mask = (1 << w) - 1
        s = self.shift = len(next(iter(a))) * w
        mw = rmax.bit_length() or 1
        self.n = n
        dw = self.dw = 1 << w if degrees else 0
        hw = self.hw = 1 if trunc < inf else 0
        c = self.cshift = s + (2 * w + n.bit_length() + 1 if dw or hw else 0)
        self.room = trunc - min([e[n] for e in a]) if hw else inf
        lefts = {}
        self.steps = steps = []
        for (i, j, lam, _), up in zip(entries, ups):
            lefts[i] = (1 << i * mw, i * w, 1 << i * w)
            delta = (1 << i * mw + c) - (dw << s) - (1 << j * w)
            if up:
                delta += self.key(up) + ((up[n] if hw else 0) << s)
            steps.append((j * w, lam, delta))
        self.lefts = list(lefts.values())

    def key(self, e):
        """The packed key of the tuple e."""
        w = self.width
        p = 0
        for v in reversed(e):
            p = (p << w) + v
        return p

    def slots(self, p):
        """The tuple of the packed key p."""
        m = self.mask
        return tuple([p >> o & m for o in range(0, self.shift, self.width)])

    def unpack(self, terms):
        m = self.mask
        offsets = range(0, self.shift, self.width)
        return {tuple([p >> o & m for o in offsets]): c
                for p, c in terms.items() if c}


def p_lambda_terms(lay, level):
    """One P_Lambda step of the right factors B_r -> B_{r+1}, packed in
    the layout lay: B_{r+1}[mu + e_i] = sum_j lam_ij d_j B_r[mu] over every
    mu and entry that reach it, no term past the h-order lay.room.

    Given tuple entries and a tensor square (exp_left, exp_right) ->
    coefficient, it is P_Lambda of the tensor: the same step with one left
    monomial per class, then lowered at slot i and times its exponent
    there; an entry's raises land on the right factor.
    """
    if not isinstance(lay, _Layout):
        entries, t = lay, level
        if not t:
            return {}
        lay = _Layout(entries, [ea for ea, _ in t], [eb for _, eb in t], 1)
        rights = {}
        for (ea, eb), c in t.items():
            rights.setdefault(ea, {})[lay.key(eb)] = c
        out = {}
        for ea, right in rights.items():
            for k, c in p_lambda_terms(lay, right).items():
                i = (k >> lay.shift).bit_length() - 1  # mu = e_i
                if ea[i]:
                    key = (ea[:i] + (ea[i] - 1,) + ea[i + 1:],
                           lay.slots(k & (1 << lay.shift) - 1))
                    c = c * ea[i]
                    out[key] = out[key] + c if key in out else c
        return {key: c for key, c in out.items() if c}
    mask, room, steps = lay.mask, lay.room, lay.steps
    sh = lay.n * lay.width
    out = {}
    for key, c in level.items():
        for sj, lam, delta in steps:
            bj = key >> sj & mask
            if bj:
                k = key + delta
                if k >> sh & mask > room:
                    continue
                v = c * (lam * bj)
                prev = out.get(k)
                v = v if prev is None else prev + v
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def _series(lay, a, b, zfacts, rmax, route):
    """sum_r zfacts[r] * mu(P_Lambda^r(a (x) b)) as a bidifferential
    operator, into the packed term dicts route names: level r is the sum
    over |mu| = r of (d^mu a) * B_r[mu], d^mu a from a table of one level's
    classes (one list of (packed key, coefficient) per bucket, a class's
    first derivatives giving the next level's), B_0[0] = b and each level
    p_lambda_terms of the last, the right factor merged over every path to
    mu. Products of bucket gd of d^mu a and bucket gb of B_r[mu] go into
    route(r, gd, gb), or are not formed where that is None; a class whose
    d^mu a is 0 is dropped."""
    mask, s, dw, n, hw = lay.mask, lay.shift, lay.dw, lay.n, lay.hw
    low = (1 << s) - 1
    gs = lay.cshift - s
    gmask = (1 << gs) - 1

    def bucket(e):
        return sum(e[:n]) * dw + (e[n] if hw else 0)

    table = {0: {}}
    for e, c in a.items():
        table[0].setdefault(bucket(e), []).append((lay.key(e), c))
    level = {bucket(e) << s | lay.key(e): c for e, c in b.items()}
    r = 0
    while True:
        zf = zfacts[r]
        nxt = {} if r < rmax else None
        targets, dead = {}, []
        for kb, cb in level.items():
            cls = kb >> s
            tg = targets.get(cls)
            if tg is None:
                # a class met for the first time: its routes, and the
                # derivatives of its d^mu a for the next level
                mu = cls >> gs
                d = table.get(mu) or {}
                tg = targets[cls] = [] if d else False
                for g, t in d.items():
                    if (out := route(r, g, cls & gmask)) is not None:
                        tg.append((out, t))
                for dmu, si, e in lay.lefts if d and nxt is not None else ():
                    if mu + dmu not in nxt:
                        nxt[mu + dmu] = dm = {}
                        for g, t in d.items():
                            dt = []
                            for k, x in t:
                                if ai := k >> si & mask:
                                    dt.append((k - e, x * ai))
                            if dt:
                                dm[g - dw] = dt
            if tg and zf:
                cb = cb * zf
                kb &= low
                for out, t in tg:
                    get = out.get
                    for k, x in t:
                        k += kb
                        out[k] = get(k, 0) + x * cb
            elif tg is False:
                dead.append(kb)
        if nxt is None:
            return
        for kb in dead:
            del level[kb]
        level = p_lambda_terms(lay, level)
        if not level:
            return
        table = nxt
        r += 1


def star_terms(entries, zfacts, a, b, rmax, window=None):
    """Accumulated star product sum_r zfacts[r] * mu(P_Lambda^r(a (x) b)),
    computed as a bidifferential operator (_series) on packed keys.

    zfacts[r] weighs level r (z^r / r!, or an integer weight when z is
    folded into the entries); rmax bounds the P_Lambda steps. window = (n,
    top, trunc) keeps the output terms whose first n slots sum to at most
    top and whose slot n (the h-order) is at most trunc, either bound
    possibly inf; exact when every entry lowers those n slots by 2 in all
    and raises only later ones, as star's folded entries do. A product of
    buckets of degrees d and e and orders h and k has degree d + e and
    order h + k, so only the products inside the window are formed.
    """
    if not a or not b:
        return {}
    n, top, trunc = window or (0, inf, inf)
    lay = _Layout(entries, a, b, rmax, n, top < inf, trunc)
    w, mask = lay.width, lay.mask
    out = {}
    _series(lay, a, b, zfacts, rmax,
            lambda r, gd, gb: out if ((s := gd + gb) >> w <= top
                                      and s & mask <= trunc) else None)
    return lay.unpack(out)


def star_slices(entries, zfacts, a, b, rmax, n):
    """{m: the part of star_terms(entries, zfacts, a, b, rmax) from the
    pairs of terms whose larger degree is m}, the degree of a key the sum
    of its first n slots. Summed over m <= K, the slices give the product
    of a and b cut to their terms of degree <= K, for every K at once. A
    product at level r of terms of degrees d and e comes from terms of a
    and b of degrees d + r and e + r: it goes into slice r + max(d, e)."""
    if not a or not b:
        return {}
    lay = _Layout(entries, a, b, rmax, n, True)
    outs = {}
    _series(lay, a, b, zfacts, rmax, lambda r, gd, gb: outs.setdefault(
        r + (max(gd, gb) >> lay.width), {}))
    return {m: lay.unpack(out) for m, out in outs.items()}


def bracket_terms(entries, a, b):
    """mu(P_Lambda(a (x) b) - P_Lambda(b (x) a)) for term dicts a and b.

    mu(P_Lambda(b (x) a)) is sum_ij lam_ji d_i a d_j b, so this is level 1
    of a * b under the entries lam_ij - lam_ji (parts with equal raises
    combined), on packed keys: the symmetric part of the form cancels in
    the entries, exactly, in both domains.
    """
    if not a or not b:
        return {}
    parts = {}
    for (i, j, lam, _), up in zip(entries, _raises(entries)):
        up = tuple(up) if up and any(up) else None
        parts[i, j, up] = parts.get((i, j, up), 0) + lam
        parts[j, i, up] = parts.get((j, i, up), 0) - lam
    lay = _Layout([(i, j, v, up and tuple(x - (k == i)
                                          for k, x in enumerate(up)))
                   for (i, j, up), v in parts.items() if v], a, b, 1)
    out = {}
    _series(lay, a, b, (0, 1), 1, lambda r, gd, gb: out)
    return lay.unpack(out)


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
    scalar s ({(h-order, i-power): n}). The whole dict is shifted one
    variable at a time and merged after each, the Taylor shift order of J.
    von zur Gathen and J. Gerhard ("Fast algorithms for Taylor shifts and
    certain difference equations", ISSAC 1997): shifting x_i leaves every
    other exponent alone, so each variable expands the merged terms of the
    ones before. Every term of variable i is brought over d^K, K the
    largest exponent of x_i in a; den is the product of those powers.
    Orders above trunc are dropped; the i-power is left unreduced for
    int_canonical.
    """
    den = 1
    out = a
    for i, sh in enumerate(shifts):
        k_max = max((ea[i] for ea in a), default=0)
        if sh is None or not k_max:
            continue
        d, s = sh
        den *= d ** k_max
        rows = _binomial_rows(d, s, k_max, trunc)
        nxt = {}
        for e, c in out.items():
            head = e[:i]
            mid = e[i + 1 : -2]
            he = e[-2]
            qe = e[-1]
            for j, fac in enumerate(rows[e[i]]):
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
        out = nxt
    return den, out
