"""gutt-bch: linear Poisson structures.

Gutt products, PBW round trips, KKS brackets, BCH at orders 4-8 and the
BCH property on heisenberg3(), sl2() and ax+b ([A, B] = B, loaded through
LieAlgebra.from_json). Each algebra is built once per run, so its caches
fill during the first round the way they do in a library session; later
rounds run warm. The time goes to the envelope recursion, the per-algebra
caches and the Dynkin BCH in `lie`; the flat star kernel is never used.
Operands are powers of linear forms with nonzero coefficients, so which
cache entries a round needs depends on the shapes below, not on the seed.
"""

import random

import oracle
from harness import Op, require, rand_q, rand_vec, affine_text
from starweyl import (
    LieAlgebra,
    bch,
    check_bch_property,
    gutt_star,
    heisenberg3,
    kks_bracket,
    naive_bch_via_ue,
    pbw_symmetrize,
    pbw_symmetrize_inverse,
    poly_from_text,
    sl2,
)

OWNED_SPANS = (
    "lie.gutt_star", "lie.pbw", "lie.kks_bracket", "lie.check_bch_property",
    "lie.bch",
)

AXB_JSON = {
    "dim": 2,
    "basis": ["A", "B"],
    "coords": ["a", "b"],
    "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1"]}],
}
TRUNC = 8
# The algebras' caches fill in one untimed round that counts as set-up, as
# they would once in a library session; every timed round runs warm, so the
# timed figures do not hang on how many rounds a run holds. The cold cost
# is what the cli workload pays on every call (and lie.gutt_cold_ms).
WARM_UP = True

# One round of 30 operations. Warm, eleven take under 10 ms, fourteen
# 13-35 ms, four 60-140 ms and BCH order 8 about 0.7 s, so the median falls
# inside the 13-35 ms group and the 90th percentile in the middle of the
# 60-140 ms one, not on the jump between two groups of different cost.
GUTT = [("h3", 2, 5), ("h3", 4, 4), ("h3", 5, 3), ("h3", 4, 5), ("h3", 5, 4),
        ("sl2", 2, 4), ("sl2", 3, 3), ("sl2", 3, 4), ("sl2", 4, 3), ("sl2", 4, 4),
        ("sl2", 5, 2), ("axb", 3, 5), ("axb", 5, 5)]
PBW = [("h3", 5), ("sl2", 5), ("sl2", 3), ("axb", 4)]
KKS = [("h3", 3, 5), ("sl2", 4, 4), ("axb", 5, 5)]
BCH = [("sl2", 4), ("axb", 5), ("sl2", 5), ("sl2", 6), ("h3", 7), ("h3", 8)]
BCH_PROPERTY = [("h3", 4), ("h3", 5), ("sl2", 5), ("axb", 6)]


def algebras():
    return {"h3": heisenberg3(), "sl2": sl2(),
            "axb": LieAlgebra.from_json(AXB_JSON)}


class _Operand:
    __slots__ = ("poly", "coeffs", "degree")

    def __init__(self, rng, alg, degree, start=0):
        names = alg.coords.names
        self.coeffs = rand_vec(rng, len(names), start)
        self.degree = degree
        text = f"({affine_text(names, self.coeffs)})^{degree}"
        self.poly = poly_from_text(text, alg.coords, "formal", TRUNC)

    @property
    def ref(self):
        return oracle.linear_power(self.coeffs, 0, self.degree)


def _order(terms, r):
    """h^r part of program terms {exp: {r: (re, im)}}."""
    return {e: orders[r] for e, orders in terms.items() if r in orders}


def _gutt_check(alg, a, b, assoc_with=None):
    def check(out):
        got = oracle.program_terms(out.terms)
        if alg.basis == ("X", "Y", "Z"):
            want = oracle.to_gaussian(oracle.h3_gutt(a.ref, b.ref, TRUNC))
            require(got == want, "differs from the h3 Moyal closed form")
        else:
            c = oracle.structure_constants(alg.to_json())
            prod = oracle.poly_mul(a.ref, b.ref)
            require(_order(got, 0) == {e: (v, 0) for e, v in prod.items()},
                    "order-0 term is not the pointwise product")
            # f *_G g - g *_G f = i h {f, g} + O(h^2): the h^1 part of the
            # product is (i/2) {f, g}
            half = {e: (0, v / 2) for e, v in oracle.kks(c, a.ref, b.ref).items()}
            require(_order(got, 1) == half,
                    "order-h term is not (i/2) times the KKS bracket")
            ue = pbw_symmetrize(alg, a.poly) * pbw_symmetrize(alg, b.poly)
            require(pbw_symmetrize_inverse(alg, ue) == out,
                    "differs from sigma^-1(sigma(f) sigma(g))")
        if assoc_with is not None:
            k = assoc_with.poly
            require(gutt_star(alg, out, k)
                    == gutt_star(alg, a.poly, gutt_star(alg, b.poly, k)),
                    "Gutt product is not associative")
    return check


def _bch_check(alg, x, y, order):
    def check(out):
        if alg.basis == ("X", "Y", "Z"):
            want = oracle.h3_bch(x, y, order)
        else:
            c = oracle.structure_constants(alg.to_json())
            c2, cols = oracle.basis_change(c, x, y)
            naive = naive_bch_via_ue(c2, len(c2), order)
            want = {}
            for w, vec in naive.items():
                comps = [g.re for g in vec]
                require(all(g.im == 0 for g in vec), "complex BCH coefficient")
                v = oracle.from_basis(cols, comps)
                if any(v):
                    want[w] = v
        got = {w: tuple(g.re for g in v) for w, v in out.terms.items()}
        require(all(g.im == 0 for v in out.terms.values() for g in v),
                "complex BCH coefficient")
        require(got == want, "BCH series differs from the reference")
    return check


def _scaled_pair(rng, dim):
    x = [0] * dim
    y = [0] * dim
    x[0] = rand_q(rng, 0)
    y[1] = rand_q(rng, 1)
    return x, y


def build(seed, algs=None):
    rng = random.Random(f"gutt-bch:{seed}")
    algs = algebras() if algs is None else algs
    ops = []
    for k, (name, d1, d2) in enumerate(GUTT):
        alg = algs[name]
        a, b = _Operand(rng, alg, d1), _Operand(rng, alg, d2, start=1)
        assoc = _Operand(rng, alg, 1, start=2) if (name, d1, d2) == ("sl2", 3, 3) else None
        ops.append(Op("gutt_star",
                      lambda alg=alg, a=a.poly, b=b.poly: gutt_star(alg, a, b),
                      _gutt_check(alg, a, b, assoc)))

    for name, d in PBW:
        alg = algs[name]
        f = _Operand(rng, alg, d)

        def check(out, f=f.poly):
            require(out == f, "PBW round trip does not return the input")
        ops.append(Op("pbw_roundtrip",
                      lambda alg=alg, f=f.poly:
                      pbw_symmetrize_inverse(alg, pbw_symmetrize(alg, f)),
                      check))

    for name, d1, d2 in KKS:
        alg = algs[name]
        a, b = _Operand(rng, alg, d1), _Operand(rng, alg, d2, start=1)

        def check(out, alg=alg, a=a, b=b):
            c = oracle.structure_constants(alg.to_json())
            want = oracle.to_gaussian(oracle.phased(oracle.kks(c, a.ref, b.ref)))
            require(oracle.program_terms(out.terms) == want,
                    "differs from the reference KKS bracket")
        ops.append(Op("kks_bracket",
                      lambda alg=alg, a=a.poly, b=b.poly: kks_bracket(alg, a, b),
                      check))

    # x and y are rational multiples of the first two basis vectors: the
    # Dynkin expansion costs 3-6x more on dense vectors, which would put
    # order 8 at seconds per call.
    for name, order in BCH:
        alg = algs[name]
        x, y = _scaled_pair(rng, alg.dim)
        ops.append(Op(f"bch_o{order}",
                      lambda alg=alg, x=x, y=y, o=order: bch(alg, x, y, o),
                      _bch_check(alg, x, y, order)))

    for name, order in BCH_PROPERTY:
        alg = algs[name]
        x, y = _scaled_pair(rng, alg.dim)
        want = {"check": "bch_property", "order": order, "cutoff": order,
                "max_agreed_order": order, "status": "pass"}

        def check(out, want=want):
            require(out == want, f"BCH property report {out} != {want}")
        ops.append(Op("check_bch_property",
                      lambda alg=alg, x=x, y=y, o=order:
                      check_bch_property(alg, x, y, o).to_json(),
                      check))
    return ops

