"""Seminorms p_R on the polynomial algebra, truncated exponentials, and exact
defect checks for the flat exponential identities.

p_R(a) = sum_k k!^R sum_{|alpha|=k} |c_alpha| w^alpha for a weight vector
w > 0. R = 1/2 is the smallest member of the family; growing R shrinks the
completion. Convergence of exp-type series is decided by the term ratio
(k+1)^(R-1) x, which is why R < 1 always converges, R = 1 is geometric, and
R > 1 diverges for any nonzero argument.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernels
from .errors import (
    IncompatibleError,
    NonFiniteError,
    StarWeylError,
    TruncationError,
)
from .parse import MAX_EXPONENT
from .poly import Generators, Polynomial
from .scalars import (
    DEFAULT_TRUNCATION,
    int_canonical,
    int_groups,
    stored_reduce,
    stored_sum,
)
from .star import BilinearForm, _star_window, star


class SeminormSpec:
    """Weight vector and exponent R for the p_R seminorm family."""

    __slots__ = ("weights", "R")

    def __init__(self, weights, R):
        ws = tuple(float(w) for w in weights)
        if not ws:
            raise ValueError("need at least one weight")
        if any(not (w > 0 and math.isfinite(w)) for w in ws):
            raise ValueError("weights must be positive and finite")
        R = float(R)
        if not (R >= 0.5 and math.isfinite(R)):
            raise ValueError("R must be >= 1/2")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "R", R)

    def __setattr__(self, name, value):
        raise AttributeError("SeminormSpec is immutable")

    def linear_norm(self, v) -> float:
        """Weighted 1-norm sum |v_i| w_i of a coefficient vector."""
        if len(v) != len(self.weights):
            raise ValueError("vector length mismatch")
        return sum(abs(complex(x)) * w for x, w in zip(v, self.weights))

    def __eq__(self, other):
        if not isinstance(other, SeminormSpec):
            return NotImplemented
        return self.weights == other.weights and self.R == other.R

    __hash__ = None

    def __repr__(self):
        return f"<SeminormSpec weights={self.weights} R={self.R}>"

    def to_json(self) -> dict:
        return {"weights": list(self.weights), "R": self.R}

    @classmethod
    def from_json(cls, d: dict) -> "SeminormSpec":
        return cls(d["weights"], d["R"])


class TruncatedElement:
    """A polynomial together with the cutoff it was truncated at."""

    __slots__ = ("base", "cutoff")

    def __init__(self, base: Polynomial, cutoff: int):
        if not isinstance(base, Polynomial):
            raise TypeError("base must be a Polynomial")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, TruncatedElement):
            return NotImplemented
        return self.cutoff == other.cutoff and self.base == other.base

    __hash__ = None

    def __str__(self):
        return str(self.base)

    def __repr__(self):
        return f"<TruncatedElement cutoff={self.cutoff} {self.base!s}>"


def _factorial_pow(k: int, r: float) -> float:
    # k!^r via lgamma; overflow surfaces as inf which is fine for diagnostics
    if k <= 1:
        return 1.0
    try:
        return math.exp(r * math.lgamma(k + 1))
    except OverflowError:
        return math.inf


def _values_at(p: Polynomial, hbar):
    """(monomial, value at hbar) pairs of p's stored form (a numeric key
    keeps its zero slots), equal (==) to eval_at(hbar) over p.terms and in
    its order; int / int rounds as float(Fraction) does."""
    if p.domain != "formal":
        # the zero slots add nothing to a degree or a weight
        return p._data.items()
    out = []
    for e, orders in int_groups(p._data).items():
        z = 0j
        for r, (re, im) in orders.items():
            z += complex(re / p._den, im / p._den) * hbar**r
        out.append((e, z))
    return out


def seminorm_pR(spec: SeminormSpec, a, hbar: float = 1.0, R=None) -> float:
    """p_R(a): formal coefficients are evaluated at the given hbar first."""
    if isinstance(a, TruncatedElement):
        a = a.base
    if not isinstance(a, Polynomial):
        raise TypeError("seminorm_pR expects a Polynomial or TruncatedElement")
    if len(a.gens) != len(spec.weights):
        raise IncompatibleError(
            f"{len(spec.weights)} weights for {len(a.gens)} generators"
        )
    r = spec.R if R is None else float(R)
    if not (r >= 0.5 and math.isfinite(r)):
        raise ValueError("R must be >= 1/2")
    w = spec.weights
    total = 0.0
    for e, z in _values_at(a, hbar):
        mag = abs(z)
        if not mag:
            continue
        for i, k in enumerate(e):
            if k:
                mag *= w[i] ** k
        total += _factorial_pow(sum(e), r) * mag
    return total


def truncated_exponential(gens: Generators, v, alpha, cutoff: int,
                          domain: str = "formal",
                          trunc: int = DEFAULT_TRUNCATION) -> TruncatedElement:
    """sum_{k<=cutoff} alpha^k (v~)^k / k! with v~ the linear function of v.

    The top term is the power v~^cutoff, so a cutoff above the parser's
    exponent limit, or one whose power may pass poly.MAX_POWER_TERMS, is a
    StarWeylError before any work."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if cutoff > MAX_EXPONENT:
        raise StarWeylError(
            f"exponential cutoff {cutoff} exceeds the limit {MAX_EXPONENT}"
        )
    lin = Polynomial.linear(gens, v, domain, trunc)
    if cutoff > 1:
        lin._check_power_size(cutoff)
    alpha = lin.coerce_scalar(alpha)
    out = Polynomial.one(gens, domain, trunc)
    if domain == "formal":
        step = lin.scale(alpha)
        cut, slices = step.trunc, _formal_slices(out, step, cutoff)
    else:
        # the float order of every numeric exponential: the power (v~)^k
        # times the scalar alpha^k / k!
        cut, slices = trunc, []
        power, scale = out, lin.coerce_scalar(1)
        for k in range(1, cutoff + 1):
            power = power * lin
            if not power:
                break
            scale = scale * (alpha * Fraction(1, k))
            term = power * scale
            if not term:
                break
            slices.append((term._den, term._data.items()))
    return TruncatedElement(_series_sum(out, cut, slices), cutoff)


def _series_sum(one, cut, slices):
    """one plus the stored pairs slices of an exponential series, known to
    h-order cut, in one stored_sum; one itself when there is no slice."""
    if not slices:
        return one
    return one._like(cut, *stored_sum(
        one.domain, [(one._den, one._data.items())] + slices))


def _formal_slices(one, step, cutoff):
    """The stored pairs of step^k / k! for k = 1..cutoff up to the first
    that vanishes, step = alpha * v~ (or a FormalScalar): slice k is slice
    k-1 (slice 0 is one) times step over k, on the stored ints."""
    slices = []
    den, ints = one._den, one._data
    for k in range(1, cutoff + 1):
        den, ints = int_canonical(kernels.mul_terms(ints, step._data),
                                  den * step._den * k, step.trunc)
        if not ints:
            break
        slices.append((den, ints.items()))
    return slices


def _csv_lines(report):
    """The header K,partial_sum, then one line per partial sum of a report."""
    return ["K,partial_sum"] + [
        f"{k},{s!r}" for k, s in enumerate(report.partial_sums)
    ]


class ConvergenceReport:
    """Term-by-term behaviour of sum_k k!^(R-1) x^k."""

    __slots__ = ("R", "x", "kmax", "terms", "partial_sums", "verdict",
                 "reason", "limit", "tail")

    def __init__(self, R, x, kmax, terms, partial_sums, verdict, reason,
                 limit, tail):
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "kmax", kmax)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "partial_sums", partial_sums)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name, value):
        raise AttributeError("ConvergenceReport is immutable")

    @property
    def convergent(self) -> bool:
        return self.verdict == "convergent"

    csv_lines = _csv_lines

    def to_json(self) -> dict:
        return {
            "check": "exponential_convergence",
            "R": self.R,
            "x": self.x,
            "kmax": self.kmax,
            "verdict": self.verdict,
            "reason": self.reason,
            "limit": self.limit,
            "tail": self.tail,
            "partial_sums": list(self.partial_sums),
        }

    def __repr__(self):
        return f"<ConvergenceReport R={self.R} x={self.x} {self.verdict}>"


def exponential_convergence_report(spec: SeminormSpec, v, alpha,
                                   R=None, kmax: int = 40) -> ConvergenceReport:
    """Study p_R applied to the truncated exponentials of alpha * v~.

    Since p_R((v~)^k) = k!^R (sum |v_i| w_i)^k exactly, the partial seminorms
    are the partial sums of sum_k k!^(R-1) x^k with x = |alpha| sum |v_i| w_i.
    """
    r = spec.R if R is None else float(R)
    if not (r >= 0.5 and math.isfinite(r)):
        raise ValueError("R must be >= 1/2")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    try:
        x = abs(complex(alpha)) * spec.linear_norm(v)
    except OverflowError:
        raise NonFiniteError("alpha * v is outside the float range") from None
    terms = []
    sums = []
    acc = 0.0
    for k in range(kmax + 1):
        if x == 0.0:
            t = 1.0 if k == 0 else 0.0
        else:
            try:
                t = math.exp((r - 1.0) * math.lgamma(k + 1) + k * math.log(x))
            except OverflowError:
                t = math.inf
        terms.append(t)
        acc += t
        sums.append(acc)
    if x == 0.0:
        verdict, reason, limit = "convergent", "finitely many terms", 1.0
        tail = 0.0
    elif r < 1.0:
        # ratio (k+1)^(r-1) x -> 0
        verdict, reason = "convergent", "term ratio tends to zero"
        limit = sums[-1]
        ratio = (kmax + 1) ** (r - 1.0) * x
        tail = terms[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    elif r == 1.0:
        if x < 1.0:
            verdict, reason = "convergent", "geometric with ratio < 1"
            limit = 1.0 / (1.0 - x)
            tail = terms[-1] * x / (1.0 - x)
        else:
            verdict, reason = "divergent", "terms do not vanish"
            limit, tail = None, None
    else:
        verdict, reason = "divergent", "term ratio grows without bound"
        limit, tail = None, None
    return ConvergenceReport(r, x, kmax, terms, sums, verdict, reason, limit,
                             tail)


class DefectReport:
    """Maximal deviation of an exact identity over a graded window."""

    __slots__ = ("check", "window", "defect_max", "exact", "detail")

    def __init__(self, check, window, defect_max, exact, detail=None):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "window", dict(window))
        object.__setattr__(self, "defect_max", defect_max)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name, value):
        raise AttributeError("DefectReport is immutable")

    @property
    def ok(self) -> bool:
        return self.exact

    @property
    def status(self) -> str:
        return "pass" if self.exact else "fail"

    def to_json(self) -> dict:
        d = {
            "check": self.check,
            "window": dict(self.window),
            "defect_max": self.defect_max,
            "status": self.status,
        }
        if self.detail:
            d["detail"] = self.detail
        return d

    def __repr__(self):
        return f"<DefectReport {self.check} {self.status}>"


def _window_defect(diff: Polynomial, degree: int, orders: int):
    """(exact, defect_max string) over components deg <= degree, order <= orders."""
    if orders > diff.trunc:
        raise TruncationError(
            f"order {diff.trunc + 1} outside truncation {diff.trunc}"
        )
    worst = 0.0
    exact = True
    den = diff._den
    # the stored ints of each monomial and h-order in the window; int / int
    # rounds as float(Fraction), so dividing by den gives what the reduced
    # h^r slice would
    for e, by_order in int_groups(diff._data).items():
        if sum(e) <= degree:
            for r, (re, im) in by_order.items():
                if r <= orders:
                    exact = False
                    worst = max(worst, abs(complex(re / den, im / den)))
    return exact, ("0" if exact else repr(worst))


def _check_window(**bounds):
    """ValueError naming the first negative bound of a report's window."""
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def weyl_relation_defect(form: BilinearForm, z, v, w, degree: int = 6,
                         orders: int = 4, cutoff=None,
                         trunc=None) -> DefectReport:
    """Check E(v~) * E(w~) = exp(z L(v,w)) E((v+w)~) on a graded window.

    E is the degree-cutoff exponential. The identity is exact on components
    of degree <= degree and h-order <= orders once
    cutoff >= degree + 2*orders, which is the default. The product is
    computed on that degree window only.
    """
    _check_window(degree=degree, orders=orders)
    if form.domain != "formal":
        raise IncompatibleError("weyl_relation_defect needs the formal domain")
    gens = form.gens
    n = len(gens)
    if len(v) != n or len(w) != n:
        raise ValueError("vector length mismatch")
    k = degree + 2 * orders if cutoff is None else cutoff
    if k < degree + 2 * orders:
        raise TruncationError(
            f"truncation too small: cutoff {k} must be >= degree + 2*orders "
            f"= {degree + 2 * orders}"
        )
    nt = orders if trunc is None else trunc
    if nt < orders:
        raise TruncationError("scalar truncation below the order window")
    ev = truncated_exponential(gens, v, 1, k, "formal", nt).base
    ew = truncated_exponential(gens, w, 1, k, "formal", nt).base
    zz = ev.coerce_scalar(z)
    lhs = _star_window(form, zz, ev, ew, degree)
    # scalar prefactor exp(z L(v,w)): needs arg to start at h-order >= 1 so
    # the series terminates under truncation
    arg = zz * form.value(v, w)
    if arg.coefficient(0):
        raise StarWeylError(
            "scalar exponential does not terminate: z*L(v,w) has an h-order-0 "
            "part"
        )
    one = ev.coerce_scalar(1)
    pref = _series_sum(one, arg.trunc, _formal_slices(one, arg, nt))
    vsum = [ev.coerce_scalar(a) + ev.coerce_scalar(b) for a, b in zip(v, w)]
    evw = truncated_exponential(gens, vsum, 1, k, "formal", nt).base
    rhs = _degree_cut(evw, degree) * pref
    exact, worst = _window_defect(lhs - rhs, degree, orders)
    return DefectReport(
        "weyl_relation",
        {"degree": degree, "orders": orders},
        worst,
        exact,
        detail={"cutoff": k},
    )


def translation_automorphism_defect(form: BilinearForm, z, f: Polynomial,
                                    g: Polynomial, shifts) -> DefectReport:
    """tau_a(f * g) - tau_a(f) * tau_a(g); exactly zero for constant forms."""
    zz = f.coerce_scalar(z)
    lhs = star(form, zz, f, g).translate(shifts)
    rhs = star(form, zz, f.translate(shifts), g.translate(shifts))
    diff = lhs - rhs
    degree = max(f.degree() + g.degree(), 0)
    if f.domain == "formal":
        exact, worst = _window_defect(diff, degree, diff.trunc)
    else:
        worst = max(map(abs, diff._data.values()), default=0.0)
        exact, worst = worst == 0.0, ("0" if worst == 0.0 else repr(worst))
    return DefectReport(
        "translation_automorphism",
        {"degree": degree},
        worst,
        exact,
    )


def inner_automorphism_defect(form: BilinearForm, z, w, f: Polynomial,
                              orders: int = 4, cutoff=None) -> DefectReport:
    """E(w~) * f * E(-w~) versus translating f by a_i = 2 z L(w, e_i).

    Needs an antisymmetric form (then E is the star exponential of w~ on the
    nose). Exact on h-orders <= orders once cutoff >= deg f + 2*orders.
    Everything is computed to h-order orders, and the outer product on the
    degree window only.
    """
    _check_window(orders=orders)
    if form.domain != "formal":
        raise IncompatibleError("inner_automorphism_defect needs the formal domain")
    if not form.is_antisymmetric():
        raise StarWeylError("inner automorphism check needs an antisymmetric form")
    gens = form.gens
    n = len(gens)
    if len(w) != n:
        raise ValueError("vector length mismatch")
    d = max(f.degree(), 0)
    k = d + 2 * orders if cutoff is None else cutoff
    if k < d + 2 * orders:
        raise TruncationError(
            f"truncation too small: cutoff {k} must be >= deg(f) + 2*orders "
            f"= {d + 2 * orders}"
        )
    if f.trunc < orders:
        raise TruncationError("scalar truncation below the order window")
    # the window reads h-orders <= orders: nothing is computed above them
    f = f._cut(orders)
    ew = truncated_exponential(gens, w, 1, k, "formal", orders).base
    wneg = [ew.coerce_scalar(x) * (-1) for x in w]
    ewneg = truncated_exponential(gens, wneg, 1, k, "formal", orders).base
    zz = f.coerce_scalar(z)
    lhs = _star_window(form, zz, star(form, zz, ew, f), ewneg, d)
    two_z = zz * 2
    shifts = []
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        shifts.append(two_z * form.value(w, basis[i]))
    rhs = f.translate(shifts)
    exact, worst = _window_defect(lhs - rhs, d, orders)
    return DefectReport(
        "inner_automorphism",
        {"degree": d, "orders": orders},
        worst,
        exact,
        detail={"cutoff": k},
    )


class ContinuityReport:
    """Partial seminorms p_R(E_K(v~) * E_K(w~)) as the cutoff K grows."""

    __slots__ = ("R", "kmax", "partial_sums", "monotone", "tail", "converged")

    def __init__(self, R, kmax, partial_sums, monotone, tail, converged):
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "kmax", kmax)
        object.__setattr__(self, "partial_sums", partial_sums)
        object.__setattr__(self, "monotone", monotone)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "converged", converged)

    def __setattr__(self, name, value):
        raise AttributeError("ContinuityReport is immutable")

    csv_lines = _csv_lines

    def to_json(self) -> dict:
        return {
            "check": "star_continuity",
            "R": self.R,
            "kmax": self.kmax,
            "monotone": self.monotone,
            "tail": self.tail,
            "converged": self.converged,
            "partial_sums": list(self.partial_sums),
        }

    def __repr__(self):
        return (
            f"<ContinuityReport R={self.R} monotone={self.monotone} "
            f"converged={self.converged}>"
        )


def _degree_cut(p: Polynomial, k: int) -> Polynomial:
    """The terms of p of total degree <= k."""
    return p._like(p.trunc, *stored_reduce(p.domain, p._den, {
        e: v for e, v in p._data.items() if sum(e[:-2]) <= k}))


def star_continuity_report(spec: SeminormSpec, form: BilinearForm, z, v, w,
                           kmax: int = 40, tol: float = 1e-10,
                           hbar: float = 1.0) -> ContinuityReport:
    """Numeric-domain diagnostic: p_R of truncated exponential star products.

    Convergence of the partial seminorms as K grows is the quantitative
    content of star-product continuity for p_R at R = 1/2 on suitable pairs.
    """
    if form.domain != "numeric":
        raise IncompatibleError("star_continuity_report needs a numeric form")
    gens = form.gens
    # E_K is the part of E_kmax of degree <= K: its degree-j part does not
    # depend on the cutoff
    ev = truncated_exponential(gens, v, 1, max(kmax, 0), "numeric", 0).base
    ew = truncated_exponential(gens, w, 1, max(kmax, 0), "numeric", 0).base
    zz = ev.coerce_scalar(z)
    sums = []
    for k in range(kmax + 1):
        prod = star(form, zz, _degree_cut(ev, k), _degree_cut(ew, k))
        sums.append(seminorm_pR(spec, prod, hbar=hbar))
    monotone = all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
    tail = abs(sums[-1] - sums[-2]) if len(sums) >= 2 else math.inf
    return ContinuityReport(spec.R, kmax, sums, monotone, tail, tail < tol)
