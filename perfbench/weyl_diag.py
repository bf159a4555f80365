"""Diagnostics half of the `flat` workload: the convergence layer.

Exact defect reports (Weyl relation, inner and translation automorphisms) on
truncated exponentials at h-truncation 4, where truncation prunes most of
the star series, next to p_R seminorms, exponential convergence reports and
star continuity reports in the numeric domain (complex floats). It uses the
same star kernel as the products half in two other ways: large operands at low
truncation, and float coefficients.

Vectors are dyadic rationals, so the numeric inputs are exact floats and the
references below are exact until their last float step. In the exact domain
their magnitudes are fixed and the seed picks one sign per coordinate for
each operation, a reflection, so every seed costs the same (see _signs).
"""

import random
from fractions import Fraction

import oracle
from harness import Op, require
from starweyl import (
    Generators,
    SeminormSpec,
    exponential_convergence_report,
    inner_automorphism_defect,
    seminorm_pR,
    star_continuity_report,
    translation_automorphism_defect,
    truncated_exponential,
    weyl_relation_defect,
)
from starweyl.star import minus_i_hbar, standard_form, weyl_form

OWNED_SPANS = (
    "seminorms.weyl_relation", "seminorms.inner_automorphism",
    "seminorms.translation", "seminorms.truncated_exponential",
    "seminorms.seminorm_pR", "seminorms.continuity",
    "seminorms.convergence_report", "star.star", "kernels.star_terms",
)

G2 = Generators(("q", "p"))
G4 = Generators(("q1", "q2", "p1", "p2"))
TRUNC = 4

# Exponential cutoffs follow from the windows: degree + 2*orders for the
# Weyl relation (45 terms on two generators), deg f + 2*orders for the
# inner automorphism. The mix is set so that, over the whole `flat` round
# (the products first), the 90th percentile falls inside the five Weyl
# relation reports and the median inside the 8-11 ms truncated
# exponentials, not on the jump between two groups of different cost: with
# three reports and ten exponentials the median sat on the jump from 10 ms
# to 16 ms operations and spread by 0.1 of its value between runs.
WEYLREL = [(0, 4)] * 5                       # (degree, orders)
INNER = [(1, 3), (1, 3)]                     # (deg f, orders)
TRANSLATION = [6, 6]                         # exponential cutoff of f and g
# (generators, cutoff): 66-330 terms, 4-17 ms
TRUNCEXP = [(2, 10), (2, 12), (2, 14), (2, 18), (2, 20), (2, 22), (2, 22),
            (2, 22), (4, 4), (4, 5), (4, 5), (4, 6), (4, 6), (4, 6), (4, 7)]
SEMINORM = [(10, 0.5), (11, 1.0), (12, 1.5), (13, 0.5), (10, 1.0),
            (11, 1.5)]                       # (cutoff, R)
CONVERGENCE = [0.5, 0.75, 1.0, 1.5, 0.5, 0.75]   # R
CONTINUITY = [8, 10]                         # kmax


def _dyadic(rng):
    return Fraction(rng.choice([k for k in range(-7, 8) if k]),
                    rng.choice([2, 4, 8]))


_MAGNITUDES = (Fraction(3, 2), Fraction(5, 4), Fraction(7, 8))


def _signs(rng):
    """The signs of the two coordinates, shared by every exact-domain vector
    of one operation. A sign per coordinate reflects the whole operation
    (q -> -q or p -> -p), which keeps the size of every coefficient and so
    the cost; signs drawn per vector made the cost of one defect report
    differ by 1.6x from seed to seed."""
    return rng.choice((-1, 1)), rng.choice((-1, 1))


def _vec(signs, k=0):
    """The k-th exact-domain vector of an operation. Magnitudes are fixed by
    k and no two of the first three are parallel (a parallel pair commutes,
    and its products cost a fraction of the others).
    """
    return [signs[0] * _MAGNITUDES[k % 3], signs[1] * _MAGNITUDES[(k + 1) % 3]]


def _dyadic_vec(rng):
    return [_dyadic(rng), _dyadic(rng)]


def _weights(rng):
    return (float(abs(_dyadic(rng))), float(abs(_dyadic(rng))))


def _report_check(want):
    def check(out):
        require(out == want, f"report {out} != {want}")
    return check


def build(seed):
    rng = random.Random(f"weyl-diagnostics:{seed}")
    form = standard_form(G2, "formal", TRUNC)
    wform = weyl_form(G2, "formal", TRUNC)
    z = minus_i_hbar("formal", TRUNC)
    ops = []

    for degree, orders in WEYLREL:
        signs = _signs(rng)
        v, w = _vec(signs, 0), _vec(signs, 1)
        want = {"check": "weyl_relation",
                "window": {"degree": degree, "orders": orders},
                "defect_max": "0", "status": "pass",
                "detail": {"cutoff": degree + 2 * orders}}
        ops.append(Op("weyl_relation",
                      lambda v=v, w=w, d=degree, o=orders:
                      weyl_relation_defect(form, z, v, w, degree=d,
                                           orders=o).to_json(),
                      _report_check(want)))

    for deg, orders in INNER:
        signs = _signs(rng)
        w = _vec(signs, 0)
        f = truncated_exponential(G2, _vec(signs, 1), 1, deg, "formal", TRUNC).base
        want = {"check": "inner_automorphism",
                "window": {"degree": deg, "orders": orders},
                "defect_max": "0", "status": "pass",
                "detail": {"cutoff": deg + 2 * orders}}
        ops.append(Op("inner_automorphism",
                      lambda w=w, f=f, o=orders:
                      inner_automorphism_defect(wform, z, w, f,
                                                orders=o).to_json(),
                      _report_check(want)))

    for cutoff in TRANSLATION:
        signs = _signs(rng)
        f = truncated_exponential(G2, _vec(signs, 0), 1, cutoff, "formal", TRUNC).base
        g = truncated_exponential(G2, _vec(signs, 1), 1, cutoff, "formal", TRUNC).base
        shifts = _vec(signs, 2)
        want = {"check": "translation_automorphism",
                "window": {"degree": 2 * cutoff}, "defect_max": "0",
                "status": "pass"}
        ops.append(Op("translation",
                      lambda f=f, g=g, s=shifts:
                      translation_automorphism_defect(form, z, f, g, s).to_json(),
                      _report_check(want)))

    for ngens, cutoff in TRUNCEXP:
        gens = G2 if ngens == 2 else G4
        v = (_vec(_signs(rng)) if ngens == 2
             else _vec(_signs(rng), 0) + _vec(_signs(rng), 2))
        alpha = rng.choice((-1, 1)) * Fraction(3, 4)

        def check(out, v=v, alpha=alpha, cutoff=cutoff):
            require(out.cutoff == cutoff, "wrong cutoff")
            want = {e: {0: (c, Fraction(0))}
                    for e, c in oracle.exp_terms(v, alpha, cutoff).items()}
            require(oracle.program_terms(out.base.terms) == want,
                    "differs from the multinomial expansion")
        ops.append(Op("truncated_exponential",
                      lambda g=gens, v=v, a=alpha, k=cutoff:
                      truncated_exponential(g, v, a, k, "formal", TRUNC),
                      check))

    for cutoff, r in SEMINORM:
        v, alpha, weights = _dyadic_vec(rng), _dyadic(rng), _weights(rng)
        spec = SeminormSpec(weights, r)
        e = truncated_exponential(G2, [float(c) for c in v], float(alpha),
                                  cutoff, "numeric", 0)
        x = abs(float(alpha)) * sum(abs(float(c)) * wt for c, wt in zip(v, weights))

        def check(out, x=x, r=r, cutoff=cutoff):
            want = oracle.exp_pR(x, r, cutoff)[-1]
            require(oracle.rel_close(out, want),
                    f"p_R {out!r} != closed form {want!r}")
        ops.append(Op("seminorm_pR",
                      lambda spec=spec, e=e: seminorm_pR(spec, e), check))

    for r in CONVERGENCE:
        v, alpha, weights = _dyadic_vec(rng), _dyadic(rng) / 4, _weights(rng)
        spec = SeminormSpec(weights, 0.5)
        fv = [float(c) for c in v]
        x = abs(float(alpha)) * sum(abs(c) * wt for c, wt in zip(fv, weights))
        ops.append(Op("convergence_report",
                      lambda spec=spec, fv=fv, a=alpha, r=r:
                      exponential_convergence_report(spec, fv, a, R=r,
                                                     kmax=40).to_json(),
                      _convergence_check(x, r, 40)))

    nform = standard_form(G2, "numeric", 0)
    nz = minus_i_hbar("numeric", 0)
    for kmax in CONTINUITY:
        v, w, weights = _dyadic_vec(rng), _dyadic_vec(rng), _weights(rng)
        spec = SeminormSpec(weights, 0.5)
        fv, fw = [float(c) for c in v], [float(c) for c in w]
        ops.append(Op("continuity",
                      lambda spec=spec, fv=fv, fw=fw, k=kmax:
                      star_continuity_report(spec, nform, nz, fv, fw,
                                             kmax=k).to_json(),
                      _continuity_check(v, w, weights, kmax)))
    return ops


def _convergence_check(x, r, kmax):
    def check(out):
        sums = oracle.exp_pR(x, r, kmax)
        require(out["check"] == "exponential_convergence", "wrong check name")
        require(out["R"] == r and out["kmax"] == kmax, "wrong R or kmax")
        require(oracle.rel_close(out["x"], x), f"x {out['x']!r} != {x!r}")
        require(len(out["partial_sums"]) == kmax + 1, "wrong number of sums")
        for got, want in zip(out["partial_sums"], sums):
            require(oracle.rel_close(got, want),
                    f"partial sum {got!r} != closed form {want!r}")
        convergent = r < 1.0 or (r == 1.0 and x < 1.0)
        require(out["verdict"] == ("convergent" if convergent else "divergent"),
                f"verdict {out['verdict']} for R={r}, x={x}")
        if r == 1.0 and x < 1.0:
            require(oracle.rel_close(out["limit"], 1.0 / (1.0 - x)),
                    "limit is not 1/(1-x)")
        elif r < 1.0:
            require(out["limit"] == out["partial_sums"][-1],
                    "limit is not the last partial sum")
        else:
            require(out["limit"] is None and out["tail"] is None,
                    "divergent series with a limit")
    return check


def _continuity_check(v, w, weights, kmax):
    """Partial seminorms of exact star products evaluated at h = 1."""
    lam = oracle.std_form(1)

    def check(out):
        require(out["kmax"] == kmax and out["R"] == 0.5, "wrong kmax or R")
        sums = out["partial_sums"]
        require(len(sums) == kmax + 1, "wrong number of partial sums")
        for k in range(kmax + 1):
            prod = oracle.star(lam, oracle.exp_terms(v, 1, k),
                               oracle.exp_terms(w, 1, k), 2 * k)
            want = oracle.pR(weights, 0.5, oracle.at_h1(prod))
            require(oracle.rel_close(sums[k], want),
                    f"K={k}: numeric {sums[k]!r} != exact {want!r}")
        tail = abs(sums[-1] - sums[-2])
        require(out["tail"] == tail, "tail is not the last increment")
        require(out["monotone"] == all(b >= a - 1e-15 for a, b in zip(sums, sums[1:])),
                "monotone flag disagrees with the sums")
        require(out["converged"] == (tail < 1e-10), "converged flag disagrees")
    return check

