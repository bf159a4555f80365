"""Named verification checks behind `starweyl verify` and the acceptance tests.

Each criterion draws its own deterministic RNG from the caller's seed, so a
given (suite, seed) pair always produces the same verdicts and the command
line output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .bruteforce import DensePolynomial, naive_bch_via_ue, naive_star
from .lie import bch, check_bch_property, gutt_star, heisenberg3, kks_bracket, sl2
from .ops import formal_adjoint, std_rep, weyl_rep
from .poly import Generators, Polynomial, poly_from_text
from .scalars import GR_I, FormalScalar, GaussianRational
from .seminorms import (
    SeminormSpec,
    exponential_convergence_report,
    inner_automorphism_defect,
    seminorm_pR,
    star_continuity_report,
    translation_automorphism_defect,
    truncated_exponential,
    weyl_relation_defect,
)
from .star import (
    BilinearForm,
    apply_equivalence,
    minus_i_hbar,
    ordering_operator,
    poisson_bracket,
    standard_form,
    star,
    star_standard,
    star_weyl,
    weyl_form,
)


class VerifyResult:
    __slots__ = ("number", "name", "ok", "detail", "elapsed")

    def __init__(self, number, name, ok, detail, elapsed):
        self.number = number
        self.name = name
        self.ok = ok
        self.detail = detail
        self.elapsed = elapsed

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def line(self) -> str:
        return f"[{self.status.upper()}] {self.number:2d} {self.name}: {self.detail}"

    def to_json(self) -> dict:
        # no timing here: command output must be identical across reruns
        return {
            "number": self.number,
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
        }


# -- random data -------------------------------------------------------------

def _rand_fraction(rng, num=3, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _rand_gaussian(rng):
    return GaussianRational(_rand_fraction(rng), _rand_fraction(rng))


def _rand_exponent(rng, n, deg):
    # uniform over a simplex-ish box; rejection keeps it simple
    while True:
        e = tuple(rng.randint(0, deg) for _ in range(n))
        if sum(e) <= deg:
            return e


def _rand_poly(rng, gens, deg, trunc, nterms=3, complex_coeffs=False):
    n = len(gens.names)
    terms = {}
    for _ in range(nterms):
        c = _rand_gaussian(rng) if complex_coeffs else _rand_fraction(rng)
        terms[_rand_exponent(rng, n, deg)] = c
    return Polynomial(gens, terms, "formal", trunc)


def _rand_form(rng, gens, trunc):
    n = len(gens.names)
    m = [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    return m, BilinearForm(gens, m, "formal", trunc)


_GEN_POOLS = {
    1: ("x1",),
    2: ("x1", "x2"),
    3: ("x1", "x2", "x3"),
    4: ("x1", "x2", "x3", "x4"),
}


# -- criteria ----------------------------------------------------------------

def check_associativity(seed: int):
    """(a*b)*c == a*(b*c) for 200 random triples, deg <= 4, up to 4 variables."""
    rng = random.Random(seed)
    trunc = 8
    for trial in range(200):
        n = rng.randint(1, 4)
        gens = Generators(_GEN_POOLS[n])
        _, form = _rand_form(rng, gens, trunc)
        z = minus_i_hbar("formal", trunc)
        a = _rand_poly(rng, gens, 4, trunc)
        b = _rand_poly(rng, gens, 4, trunc)
        c = _rand_poly(rng, gens, 4, trunc)
        lhs = star(form, z, star(form, z, a, b), c)
        rhs = star(form, z, a, star(form, z, b, c))
        if lhs != rhs:
            return False, f"associativity failed at trial {trial}"
    return True, "200 random triples, degree <= 4, 1..4 generators"


def check_product_axioms(seed: int):
    """Order-0 term, first-order bracket, and unit axioms, all exact."""
    rng = random.Random(seed)
    trunc = 8
    one_fail = None
    for trial in range(100):
        n = rng.randint(1, 3)
        gens = Generators(_GEN_POOLS[n])
        _, form = _rand_form(rng, gens, trunc)
        z = minus_i_hbar("formal", trunc)
        f = _rand_poly(rng, gens, 3, trunc)
        g = _rand_poly(rng, gens, 3, trunc)
        fg = star(form, z, f, g)
        gf = star(form, z, g, f)
        if fg.hbar_coefficient(0) != f * g:
            return False, f"order-0 term is not the pointwise product (trial {trial})"
        # C1(f,g) - C1(g,f) = i {f,g} with the transpose-normalized bracket
        lhs = fg.hbar_coefficient(1) - gf.hbar_coefficient(1)
        rhs = poisson_bracket(form.transpose(), f, g) * GR_I
        if lhs != rhs:
            return False, f"first-order bracket axiom failed (trial {trial})"
        one = Polynomial.one(gens, "formal", trunc)
        if star(form, z, one, f) != f or star(form, z, f, one) != f:
            return False, f"unit axiom failed (trial {trial})"
        of = star(form, z, one, f)
        fo = star(form, z, f, one)
        for r in range(1, 9):
            if of.hbar_coefficient(r) or fo.hbar_coefficient(r):
                return False, f"C_{r}(1, f) != 0 (trial {trial})"
    return True, "100 random pairs: order-0, bracket, unit, C_r(1,f)=0 for r<=8"


def check_oracle_agreement(seed: int):
    """Kernel star equals the literal-formula oracle on all small monomial pairs."""
    rng = random.Random(seed)
    n = 3
    gens = Generators(_GEN_POOLS[n])
    trunc = 8
    z = minus_i_hbar("formal", trunc)
    monos = [
        e
        for d in range(6)
        for e in itertools.product(range(6), repeat=n)
        if sum(e) == d
    ]
    pairs = [
        (a, b) for a in monos for b in monos if sum(a) + sum(b) <= 5
    ]
    total = 0
    for fi in range(5):
        m, form = _rand_form(rng, gens, trunc)
        for ea, eb in pairs:
            a = Polynomial(gens, {ea: 1}, "formal", trunc)
            b = Polynomial(gens, {eb: 1}, "formal", trunc)
            fast = star(form, z, a, b)
            slow = naive_star(
                m,
                z,
                DensePolynomial.from_dict(n, {ea: 1}, "formal", trunc),
                DensePolynomial.from_dict(n, {eb: 1}, "formal", trunc),
            )
            if slow.to_dict() != dict(fast.terms):
                return False, f"oracle mismatch at {ea} * {eb}, form {fi}"
            total += 1
    return True, f"{total} monomial pairs (pair degree <= 5) x 5 random forms"


def check_ordering_conventions(seed: int):
    """Pinned product values, conjugation, and the operator homomorphism,
    each composition also checked against the direct loop of apply."""
    rng = random.Random(seed)
    trunc = 8
    gens = Generators(("q", "p"))
    q = poly_from_text("q", gens, "formal", trunc)
    p = poly_from_text("p", gens, "formal", trunc)
    if str(star_standard(p, q)) != "q*p - i*h":
        return False, f"p *_std q = {star_standard(p, q)}"
    if str(star_weyl(q, p)) != "q*p + (1/2)*i*h":
        return False, f"q *_W p = {star_weyl(q, p)}"
    for trial in range(100):
        f = _rand_poly(rng, gens, 3, trunc, complex_coeffs=True)
        g = _rand_poly(rng, gens, 3, trunc, complex_coeffs=True)
        if star_weyl(f, g).conjugate() != star_weyl(g.conjugate(), f.conjugate()):
            return False, f"conjugation anti-homomorphism failed (trial {trial})"
    xrng = random.Random(f"{seed}:apply")  # rng draws the same pairs without it
    for trial in range(25):
        f = _rand_poly(rng, gens, 4, trunc, complex_coeffs=True)
        g = _rand_poly(rng, gens, 4, trunc, complex_coeffs=True)
        x = _rand_poly(xrng, Generators(("q",)), 5, trunc, complex_coeffs=True)
        for name, rep, product in (("standard", std_rep, star_standard),
                                   ("Weyl", weyl_rep, star_weyl)):
            a, b = rep(f), rep(g)
            if rep(product(f, g)) != a.compose(b):
                return False, f"{name} representation homomorphism failed (trial {trial})"
            if a.compose(b).apply(x) != a.apply(b.apply(x)):
                return False, f"{name} composition is not apply after apply (trial {trial})"
    return True, "pinned values, 100 conjugation pairs, 25 homomorphism pairs each"


def check_adjoint_identity(seed: int):
    """adjoint(rep(f)) == rep(N^2 conj(f)) on all monomials q^n p^m, n+m <= 5."""
    trunc = 8
    gens = Generators(("q", "p"))
    z = minus_i_hbar("formal", trunc)
    nsq = ordering_operator(
        standard_form(gens, "formal", trunc).symmetric_part(), z * 2
    )
    count = 0
    for a in range(6):
        for b in range(6):
            if a + b > 5:
                continue
            f = Polynomial(gens, {(a, b): 1}, "formal", trunc)
            if formal_adjoint(std_rep(f)) != std_rep(nsq.apply(f.conjugate())):
                return False, f"adjoint identity failed at q^{a} p^{b}"
            count += 1
    # complex witness: dropping the conjugation must break the identity
    w = Polynomial(gens, {(1, 0): GR_I}, "formal", trunc)
    good = formal_adjoint(std_rep(w)) == std_rep(nsq.apply(w.conjugate()))
    bad = formal_adjoint(std_rep(w)) == std_rep(nsq.apply(w))
    if not good or bad:
        return False, "conjugation is not doing its job in the adjoint identity"
    return True, f"{count} monomials with n+m <= 5, plus the complex witness"


def check_equivalence_law(seed: int):
    """T^-1(Tf * Tg) with T = exp(z Delta_S) equals the (Lambda - S) product."""
    rng = random.Random(seed)
    trunc = 8
    for trial in range(50):
        n = rng.randint(1, 3)
        gens = Generators(_GEN_POOLS[n])
        _, form = _rand_form(rng, gens, trunc)
        z = minus_i_hbar("formal", trunc)
        sm = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sm[i][j] = _rand_fraction(rng)
                sm[j][i] = sm[i][j]
        sform = BilinearForm(gens, sm, "formal", trunc)
        t = ordering_operator(sform, z)
        f = _rand_poly(rng, gens, 3, trunc)
        g = _rand_poly(rng, gens, 3, trunc)
        lhs = apply_equivalence(t, form, z, f, g)
        rhs = star(form - sform, z, f, g)
        if lhs != rhs:
            return False, f"equivalence law failed at trial {trial}"
    return True, "50 random symmetric operators, degree <= 3 operands"


def check_gutt_product(seed: int):
    """Associativity, the KKS bracket law, and both BCH cross-checks."""
    rng = random.Random(seed)
    trunc = 6
    algebras = (("h3", heisenberg3()), ("sl2", sl2()))
    for label, g in algebras:
        for trial in range(20):
            a = _rand_poly(rng, g.coords, 3, trunc)
            b = _rand_poly(rng, g.coords, 3, trunc)
            c = _rand_poly(rng, g.coords, 3, trunc)
            if gutt_star(g, gutt_star(g, a, b), c) != gutt_star(
                g, a, gutt_star(g, b, c)
            ):
                return False, f"gutt associativity failed on {label}, trial {trial}"
        ih = FormalScalar({1: GR_I}, trunc)
        for trial in range(30):
            f = _rand_poly(rng, g.coords, 3, trunc)
            h = _rand_poly(rng, g.coords, 3, trunc)
            comm = gutt_star(g, f, h) - gutt_star(g, h, f)
            if comm.hbar_coefficient(1) != kks_bracket(g, f, h).map_coefficients(
                lambda c: c * GR_I
            ).hbar_coefficient(0):
                return False, f"first-order KKS bracket failed on {label}"
        for i in range(g.dim):
            for j in range(g.dim):
                xi = Polynomial.generator(g.coords, i, "formal", trunc)
                xj = Polynomial.generator(g.coords, j, "formal", trunc)
                comm = gutt_star(g, xi, xj) - gutt_star(g, xj, xi)
                if comm != kks_bracket(g, xi, xj) * ih:
                    return False, f"coordinate bracket failed on {label} ({i},{j})"
    rep = check_bch_property(
        heisenberg3(), heisenberg3().basis_vector("X"),
        heisenberg3().basis_vector("Y"), 6
    )
    if not rep.ok:
        return False, f"BCH property on h3: agreed only to order {rep.max_agreed_order}"
    g = sl2()
    rep = check_bch_property(g, g.basis_vector("E"), g.basis_vector("F"), 5)
    if not rep.ok:
        return False, f"BCH property on sl2: agreed only to order {rep.max_agreed_order}"
    for label, g in algebras:
        c = [
            [[g._c[i][j][k] for k in range(g.dim)] for j in range(g.dim)]
            for i in range(g.dim)
        ]
        naive = naive_bch_via_ue(c, g.dim, 5)
        direct = bch(g, g.basis_vector(0), g.basis_vector(1), 5)
        for w in range(1, 6):
            if tuple(naive[w]) != direct.component(w):
                return False, f"BCH oracle disagrees on {label} at order {w}"
    return True, (
        "h3+sl2: 20 assoc triples, 30+9 bracket pairs, BCH property "
        "(orders 6/5), BCH recursion vs envelope log at order 5"
    )


def check_seminorm_family(seed: int):
    """Seminorm axioms, the exponential closed form, and the three regimes."""
    rng = random.Random(seed)
    gens = Generators(("q", "p"))
    spec = SeminormSpec((1.0, 1.0), 0.5)
    tol = 1e-12
    for trial in range(50):
        f = _rand_poly(rng, gens, 4, 4, complex_coeffs=True)
        g = _rand_poly(rng, gens, 4, 4, complex_coeffs=True)
        pf, pg = seminorm_pR(spec, f), seminorm_pR(spec, g)
        if pf < 0 or seminorm_pR(spec, Polynomial.zero(gens, "formal", 4)) != 0.0:
            return False, "positivity failed"
        # exact rational scaling keeps the closed form exact
        mu = _rand_gaussian(rng)
        if abs(seminorm_pR(spec, f * mu) - abs(mu.to_complex()) * pf) > tol * (1 + pf):
            return False, "homogeneity failed"
        if seminorm_pR(spec, f + g) > pf + pg + tol * (1 + pf + pg):
            return False, "triangle inequality failed"
    for R in (0.5, 1.0, 1.7):
        srp = SeminormSpec((1.0, 1.0), R)
        for trial in range(10):
            v = (_rand_fraction(rng), _rand_fraction(rng))
            alpha = _rand_fraction(rng)
            te = truncated_exponential(gens, v, alpha, 10, "formal", 4)
            got = seminorm_pR(srp, te)
            x = abs(complex(alpha)) * srp.linear_norm(v)
            want = sum(
                math.exp((R - 1.0) * math.lgamma(k + 1) + k * math.log(x))
                if x > 0 else (1.0 if k == 0 else 0.0)
                for k in range(11)
            )
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                return False, f"closed form off at R={R}: {got} vs {want}"
    r_half = exponential_convergence_report(spec, (1, 0), 1.0, R=0.5)
    if not (r_half.convergent and r_half.tail < 1e-10):
        return False, "R=1/2 series did not certify convergence"
    for x in (1.0, 1.5):
        r_one = exponential_convergence_report(spec, (1, 0), x, R=1.0)
        if r_one.convergent:
            return False, f"R=1, x={x} should diverge"
    r_geo = exponential_convergence_report(spec, (1, 0), 0.5, R=1.0)
    if not r_geo.convergent or abs(r_geo.partial_sums[-1] - 2.0) > 1e-10:
        return False, "R=1, x=1/2 partial sums are not approaching 2"
    return True, (
        "axioms at 1e-12, closed form at 1e-12 relative, regimes R=1/2, R=1, "
        "R>1"
    )


def check_exponential_identities(seed: int):
    """Weyl relation, translation covariance, inner automorphisms: all exact."""
    rng = random.Random(seed)
    trunc = 8
    gens = Generators(("q", "p"))
    z = minus_i_hbar("formal", trunc)
    sform = standard_form(gens, "formal", trunc)
    wform = weyl_form(gens, "formal", trunc)
    for form, v, w in (
        (sform, (1, 2), (2, -1)),
        (wform, (1, 1), (0, 2)),
    ):
        rep = weyl_relation_defect(form, z, v, w, degree=6, orders=4, cutoff=14)
        if not rep.exact:
            return False, f"Weyl relation defect {rep.defect_max} at v={v}, w={w}"
    for trial in range(100):
        n = rng.randint(1, 3)
        g2 = Generators(_GEN_POOLS[n])
        _, form = _rand_form(rng, g2, trunc)
        f = _rand_poly(rng, g2, 3, trunc)
        g = _rand_poly(rng, g2, 3, trunc)
        shifts = [_rand_fraction(rng) for _ in range(n)]
        rep = translation_automorphism_defect(form, minus_i_hbar("formal", trunc),
                                              f, g, shifts)
        if not rep.exact:
            return False, f"translation defect {rep.defect_max} at trial {trial}"
    for trial in range(5):
        wv = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = _rand_poly(rng, gens, 3, trunc)
        rep = inner_automorphism_defect(wform, z, wv, f, orders=4)
        if not rep.exact:
            return False, f"inner automorphism defect {rep.defect_max} (trial {trial})"
    return True, (
        "Weyl relation (degree 6, orders 4, cutoff 14), 100 translations, "
        "5 inner automorphisms"
    )


def check_star_continuity(seed: int):
    """Numeric partial seminorms of exponential star products settle down."""
    gens = Generators(("q", "p"))
    spec = SeminormSpec((1.0, 1.0), 0.5)
    form = BilinearForm.standard(gens, "numeric")
    rep = star_continuity_report(spec, form, -1j, (1, 0), (0, 1), kmax=40,
                                 tol=1e-10)
    if not rep.monotone:
        return False, "partial seminorms are not monotone"
    if not rep.converged:
        return False, f"tail {rep.tail} above 1e-10 at K=40"
    return True, "monotone partial sums, tail below 1e-10 by K=40"


def check_serialization_roundtrip(seed: int):
    """JSON and canonical-text round trips on 100 random elements."""
    rng = random.Random(seed)
    from .lie import LieAlgebra

    for trial in range(100):
        n = rng.randint(1, 3)
        gens = Generators(_GEN_POOLS[n])
        f = _rand_poly(rng, gens, 4, 6, complex_coeffs=True)
        if Polynomial.from_json(f.to_json()) != f:
            return False, f"polynomial JSON round trip failed (trial {trial})"
        if poly_from_text(str(f), gens, "formal", 6) != f:
            return False, f"canonical text round trip failed (trial {trial})"
        _, form = _rand_form(rng, gens, 6)
        if BilinearForm.from_json(form.to_json()) != form:
            return False, f"form JSON round trip failed (trial {trial})"
    for g in (heisenberg3(), sl2()):
        if LieAlgebra.from_json(g.to_json()) != g:
            return False, "Lie algebra JSON round trip failed"
    # numeric domain survives via [re, im] coefficient pairs
    gens = Generators(("q", "p"))
    f = Polynomial(gens, {(1, 0): 0.5 + 0.25j, (0, 2): -1.0j}, "numeric")
    if Polynomial.from_json(f.to_json()) != f:
        return False, "numeric polynomial JSON round trip failed"
    return True, "100 random formal elements, forms, algebras, numeric sample"


class Criterion:
    __slots__ = ("number", "name", "group", "fn", "budget")

    def __init__(self, number, name, group, fn, budget=None):
        self.number = number
        self.name = name
        self.group = group
        self.fn = fn
        self.budget = budget


CRITERIA = (
    Criterion(1, "star_associativity", "star", check_associativity, 60.0),
    Criterion(2, "product_axioms", "star", check_product_axioms),
    Criterion(3, "oracle_agreement", "oracle", check_oracle_agreement, 120.0),
    Criterion(4, "ordering_conventions", "ordering", check_ordering_conventions),
    Criterion(5, "adjoint_identity", "ordering", check_adjoint_identity),
    Criterion(6, "equivalence_law", "equivalence", check_equivalence_law),
    Criterion(7, "gutt_product", "gutt", check_gutt_product),
    Criterion(8, "seminorm_family", "seminorm", check_seminorm_family),
    Criterion(9, "exponential_identities", "weylrel",
              check_exponential_identities, 60.0),
    Criterion(10, "star_continuity", "continuity", check_star_continuity),
    Criterion(11, "serialization_roundtrip", "roundtrip",
              check_serialization_roundtrip),
)

SUITES = ("all",) + tuple(dict.fromkeys(c.group for c in CRITERIA))


def _matches(c: Criterion, suite: str) -> bool:
    # a criterion is selectable by its group, its full name, or any word of
    # the name, so e.g. "associativity" picks star_associativity
    return (
        suite == c.group or suite == c.name or suite in c.name.split("_")
    )


def run_suite(suite: str = "all", seed: int = 0):
    if suite != "all" and not any(_matches(c, suite) for c in CRITERIA):
        raise ValueError(
            f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}, "
            "a check name, or a word from one"
        )
    results = []
    for c in CRITERIA:
        if suite != "all" and not _matches(c, suite):
            continue
        t0 = time.perf_counter()
        ok, detail = c.fn(seed)
        elapsed = time.perf_counter() - t0
        results.append(VerifyResult(c.number, c.name, ok, detail, elapsed))
    return results
