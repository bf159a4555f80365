"""Products half of the `flat` workload: exact products on flat Poisson
structures.

Standard, Weyl and random rational forms on 1-4 generators, operand degrees
2-12. Nearly all of the time goes to Fraction arithmetic under
GaussianRational/FormalScalar inside the star kernel; `lie` is never
touched. Operands are powers of affine forms with nonzero coefficients, so
the term structure (and the cost) of every operation depends on the shapes
below and not on the seed; the seed picks the rational coefficients.
"""

import random

import oracle
from harness import Op, require, rand_q, rand_vec, affine_text
from starweyl import (
    BilinearForm,
    Generators,
    apply_equivalence,
    formal_adjoint,
    n_operator,
    naive_star,
    ordering_operator,
    poisson_bracket,
    poly_from_text,
    star,
    star_standard,
    star_weyl,
    std_rep,
    weyl_rep,
)
from starweyl.bruteforce import DensePolynomial
from starweyl.scalars import GR_I
from starweyl.star import minus_i_hbar, standard_form

# Spans the traced run must see on this workload (see trace.py).
OWNED_SPANS = (
    "kernels.star_terms", "kernels.p_lambda_terms", "poly.add",
    "poly.derivative", "parse.poly_from_text", "star.star",
    "star.ordering_apply", "star.poisson_bracket", "ops.rep", "ops.compose",
    "ops.adjoint",
)

G2 = ("q", "p")
G4 = ("q1", "q2", "p1", "p2")
GR = ("u", "v", "w", "x")
TRUNC = 8

# (group, operand degrees) per operation of one round. The mix is set so
# that the median and the 90th percentile of one round fall inside groups
# of similar cost, not on a boundary between two.
MONO = [(2, 12), (12, 2), (5, 9), (9, 5), (7, 7), (3, 4)]
STD2 = [(2, 12), (4, 8), (6, 5), (3, 10)]
WEYL2 = [(2, 12), (4, 8), (6, 5), (3, 10)]
STD4 = [(2, 4), (3, 3)]
RANDFORM = [(1, 12, 12), (2, 6, 5), (3, 4, 3), (4, 3, 2)]
POISSON = [("std2", 8, 8), ("rand3", 3, 3), ("std4", 3, 3)]
ORDER = [("n2", 12), ("n4", 6), ("sym3", 6)]
EQUIV = [(4, 4), (5, 3)]
REP = [("std", G2, 8), ("weyl", G2, 8), ("weyl", G4, 4)]
COMPOSE = [("std", 4, 4), ("weyl", 3, 3)]
ADJOINT = [("std", G2, 6), ("weyl", G4, 4)]


class _Operand:
    """A polynomial given both to starweyl (parsed from text) and to the
    reference code (as exact rationals)."""

    __slots__ = ("poly", "coeffs", "const", "degree")

    def __init__(self, rng, names, degree, start=0):
        # the second operand of a pair starts one position later, so its
        # linear part is never proportional to the first one's
        self.coeffs = rand_vec(rng, len(names), start)
        self.const = rand_q(rng, start + len(names))
        self.degree = degree
        text = f"({affine_text(names, self.coeffs, self.const)})^{degree}"
        self.poly = poly_from_text(text, names, "formal", TRUNC)

    @property
    def ref(self):
        return oracle.linear_power(self.coeffs, self.const, self.degree)


def _expect(reference):
    """Check against reference(), a phased result from oracle; it is
    computed when the check runs, so it does not count as set-up."""
    def check(out):
        require(oracle.program_terms(out.terms) == oracle.to_gaussian(reference()),
                "differs from the reference computation")
    return check


def _rand_lam(rng, n, symmetric=False):
    m = [[rand_q(rng, i + j) for j in range(n)] for i in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    lam = [(i, j, m[i][j]) for i in range(n) for j in range(n)]
    return m, lam


def _naive_check(lam_matrix, a, b, names, trunc, base_check):
    """base_check, plus agreement with bruteforce.naive_star."""
    n = len(names)

    def check(out):
        base_check(out)
        z = minus_i_hbar("formal", trunc)
        dense = naive_star(
            lam_matrix, z,
            DensePolynomial.from_dict(n, a.terms, "formal", trunc, box=13),
            DensePolynomial.from_dict(n, b.terms, "formal", trunc, box=13),
        )
        require(dense.to_dict() == dict(out.terms),
                "differs from bruteforce.naive_star")
    return check


def build(seed):
    rng = random.Random(f"flat-star:{seed}")
    ops = []
    g2 = Generators(G2)
    std2_ref = oracle.std_form(1)
    std4_ref = oracle.std_form(2)

    # p^m * q^n against the standard-order closed form
    for m, n in MONO:
        c1, c2 = rand_vec(rng, 2)
        a = poly_from_text(f"({c1})*p^{m}", g2, "formal", 12)
        b = poly_from_text(f"({c2})*q^{n}", g2, "formal", 12)
        check = _expect(lambda m=m, n=n, c1=c1, c2=c2:
                        oracle.std_monomial_product(m, n, c1, c2, 12))
        if (m, n) == (3, 4):
            check = _naive_check([[0, 0], [1, 0]], a, b, G2, 12, check)
        ops.append(Op("star_std_monomial",
                      lambda a=a, b=b: star_standard(a, b), check))

    for d1, d2 in STD2:
        a, b = _Operand(rng, G2, d1), _Operand(rng, G2, d2, start=1)
        ops.append(Op("star_std", lambda a=a.poly, b=b.poly: star_standard(a, b),
                      _expect(lambda a=a, b=b:
                              oracle.star(std2_ref, a.ref, b.ref, TRUNC))))

    weyl2_ref = oracle.antisym(std2_ref)
    n2 = n_operator(G2)
    for k, (d1, d2) in enumerate(WEYL2):
        a, b = _Operand(rng, G2, d1), _Operand(rng, G2, d2, start=1)
        base = _expect(lambda a=a, b=b:
                       oracle.star(weyl2_ref, a.ref, b.ref, TRUNC))
        if k == 0:
            # N(f *_W g) = Nf *_std Ng, on the first one
            def check(out, a=a.poly, b=b.poly, base=base):
                base(out)
                require(n2.apply(out) == star_standard(n2.apply(a), n2.apply(b)),
                        "N(f *_W g) != Nf *_std Ng")
        else:
            check = base
        ops.append(Op("star_weyl", lambda a=a.poly, b=b.poly: star_weyl(a, b),
                      check))

    for d1, d2 in STD4:
        a, b = _Operand(rng, G4, d1), _Operand(rng, G4, d2, start=1)
        ops.append(Op("star_std4", lambda a=a.poly, b=b.poly: star_standard(a, b),
                      _expect(lambda a=a, b=b:
                              oracle.star(std4_ref, a.ref, b.ref, TRUNC))))

    for n, d1, d2 in RANDFORM:
        names = GR[:n]
        m, lam = _rand_lam(rng, n)
        form = BilinearForm(names, m, "formal", TRUNC)
        z = minus_i_hbar("formal", TRUNC)
        a, b = _Operand(rng, names, d1), _Operand(rng, names, d2, start=1)
        check = _expect(lambda lam=lam, a=a, b=b:
                        oracle.star(lam, a.ref, b.ref, TRUNC))
        if n == 2:
            c = _Operand(rng, names, 1, start=2)

            def check(out, a=a.poly, b=b.poly, c=c.poly, form=form, z=z,
                      base=check):
                base(out)
                require(star(form, z, out, c) == star(form, z, a, star(form, z, b, c)),
                        "star product is not associative")
        ops.append(Op("star_randform",
                      lambda f=form, z=z, a=a.poly, b=b.poly: star(f, z, a, b),
                      check))

    for kind, d1, d2 in POISSON:
        if kind == "std2":
            names, lam_ref = G2, std2_ref
            form = standard_form(Generators(G2), "formal", TRUNC)
        elif kind == "std4":
            names, lam_ref = G4, std4_ref
            form = standard_form(Generators(G4), "formal", TRUNC)
        else:
            names = GR[:3]
            m, lam_ref = _rand_lam(rng, 3)
            form = BilinearForm(names, m, "formal", TRUNC)
        a, b = _Operand(rng, names, d1), _Operand(rng, names, d2, start=1)
        ft = form.transpose()
        z = minus_i_hbar("formal", TRUNC)

        def check(out, a=a, b=b, form=form, z=z, lam_ref=lam_ref):
            lam_t = [(j, i, v) for i, j, v in lam_ref]
            want = oracle.phased(oracle.bracket(lam_t, a.ref, b.ref))
            require(oracle.program_terms(out.terms) == oracle.to_gaussian(want),
                    "differs from the reference bracket")
            a, b = a.poly, b.poly
            comm = star(form, z, a, b) - star(form, z, b, a)
            require(comm.hbar_coefficient(1) == out * GR_I,
                    "commutator at order h is not i times the bracket")
        ops.append(Op("poisson",
                      lambda f=ft, a=a.poly, b=b.poly: poisson_bracket(f, a, b),
                      check))

    for kind, d in ORDER:
        if kind == "n2":
            names, sym_ref, t = G2, oracle.sym(std2_ref), n2
        elif kind == "n4":
            names, sym_ref, t = G4, oracle.sym(std4_ref), n_operator(G4)
        else:
            names = GR[:3]
            m, sym_ref = _rand_lam(rng, 3, symmetric=True)
            t = ordering_operator(BilinearForm(names, m, "formal", TRUNC),
                                  minus_i_hbar("formal", TRUNC))
        f = _Operand(rng, names, d)
        ops.append(Op("ordering_apply", lambda t=t, f=f.poly: t.apply(f),
                      _expect(lambda s=sym_ref, f=f: oracle.ordering_apply(
                          s, oracle.phased(f.ref), TRUNC))))

    # T^-1(Tf * Tg) = f *' g with Lambda' = Lambda - S
    for d1, d2 in EQUIV:
        m, sym_ref = _rand_lam(rng, 2, symmetric=True)
        z = minus_i_hbar("formal", TRUNC)
        t = ordering_operator(BilinearForm(G2, m, "formal", TRUNC), z)
        form = standard_form(g2, "formal", TRUNC)
        a, b = _Operand(rng, G2, d1), _Operand(rng, G2, d2, start=1)
        lam = std2_ref + [(i, j, -v) for i, j, v in sym_ref]
        ops.append(Op("equivalence",
                      lambda t=t, f=form, z=z, a=a.poly, b=b.poly:
                      apply_equivalence(t, f, z, a, b),
                      _expect(lambda lam=lam, a=a, b=b:
                              oracle.star(lam, a.ref, b.ref, TRUNC))))

    for kind, names, d in REP:
        f = _Operand(rng, names, d)
        n = len(names) // 2

        def reference(f=f, n=n, kind=kind):
            ref = oracle.phased(f.ref)
            if kind == "weyl":
                ref = oracle.ordering_apply(oracle.sym(oracle.std_form(n)), ref,
                                            TRUNC)
            return oracle.std_rep(ref, n, TRUNC)
        fn = std_rep if kind == "std" else weyl_rep
        ops.append(Op("rep", lambda fn=fn, f=f.poly: fn(f), _expect(reference)))

    # rep(f * g) = rep(f) o rep(g)
    for kind, d1, d2 in COMPOSE:
        a, b = _Operand(rng, G2, d1), _Operand(rng, G2, d2, start=1)
        fn = std_rep if kind == "std" else weyl_rep
        ra, rb = fn(a.poly), fn(b.poly)

        def reference(a=a, b=b, kind=kind):
            if kind == "std":
                prod = oracle.star(std2_ref, a.ref, b.ref, TRUNC)
            else:
                prod = oracle.ordering_apply(
                    oracle.sym(std2_ref),
                    oracle.star(weyl2_ref, a.ref, b.ref, TRUNC), TRUNC)
            return oracle.std_rep(prod, 1, TRUNC)
        ops.append(Op("compose", lambda ra=ra, rb=rb: ra.compose(rb),
                      _expect(reference)))

    # the adjoint is an involution, and Weyl reps of real symbols are
    # self-adjoint
    for kind, names, d in ADJOINT:
        f = _Operand(rng, names, d)
        op = std_rep(f.poly) if kind == "std" else weyl_rep(f.poly)

        def check(out, op=op, kind=kind):
            if kind == "weyl":
                require(out == op, "Weyl rep of a real symbol is not self-adjoint")
            else:
                require(formal_adjoint(out) == op, "adjoint is not an involution")
        ops.append(Op("adjoint", lambda op=op: formal_adjoint(op), check))
    return ops

