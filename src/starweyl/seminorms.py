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

from .errors import (
    IncompatibleError,
    NonFiniteError,
    StarWeylError,
    TruncationError,
)
from .poly import Generators, Polynomial
from .scalars import DEFAULT_TRUNCATION, FormalScalar, GaussianRational
from .star import BilinearForm, star


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


def _coeff_abs(c, hbar: float) -> float:
    if isinstance(c, FormalScalar):
        return abs(c.eval_at(hbar))
    return abs(c)


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
    for e, c in a.terms.items():
        mag = _coeff_abs(c, hbar)
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
    """sum_{k<=cutoff} alpha^k (v~)^k / k! with v~ the linear function of v."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    lin = Polynomial.linear(gens, v, domain, trunc)
    alpha = lin.coerce_scalar(alpha)
    out = Polynomial.one(gens, domain, trunc)
    power = Polynomial.one(gens, domain, trunc)
    scale = lin.scalar_one()
    for k in range(1, cutoff + 1):
        power = power * lin
        if not power:
            break
        scale = scale * (alpha * Fraction(1, k))
        term = power * scale
        if not term:
            break
        out = out + term
    return TruncatedElement(out, cutoff)


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

    def csv_lines(self):
        lines = ["K,partial_sum"]
        for k, s in enumerate(self.partial_sums):
            lines.append(f"{k},{s!r}")
        return lines

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
    worst = 0.0
    exact = True
    for r in range(orders + 1):
        slice_r = diff.hbar_coefficient(r)
        for e, c in slice_r.terms.items():
            if sum(e) > degree:
                continue
            exact = False
            worst = max(worst, _coeff_abs(c, 1.0))
    return exact, ("0" if exact else repr(worst))


def weyl_relation_defect(form: BilinearForm, z, v, w, degree: int = 6,
                         orders: int = 4, cutoff=None,
                         trunc=None) -> DefectReport:
    """Check E(v~) * E(w~) = exp(z L(v,w)) E((v+w)~) on a graded window.

    E is the degree-cutoff exponential. The identity is exact on components
    of degree <= degree and h-order <= orders once
    cutoff >= degree + 2*orders, which is the default.
    """
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
    lhs = star(form, zz, ev, ew)
    # scalar prefactor exp(z L(v,w)): needs arg to start at h-order >= 1 so
    # the series terminates under truncation
    arg = zz * form.value(v, w)
    if arg.coefficient(0):
        raise StarWeylError(
            "scalar exponential does not terminate: z*L(v,w) has an h-order-0 "
            "part"
        )
    pref = ev.scalar_one()
    term = ev.scalar_one()
    for j in range(1, nt + 1):
        term = term * (arg * Fraction(1, j))
        if not term:
            break
        pref = pref + term
    vsum = [ev.coerce_scalar(a) + ev.coerce_scalar(b) for a, b in zip(v, w)]
    evw = truncated_exponential(gens, vsum, 1, k, "formal", nt).base
    rhs = evw * pref
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
        exact, worst = _window_defect(diff, degree, f.trunc)
    else:
        exact, worst = _numeric_defect(diff)
    return DefectReport(
        "translation_automorphism",
        {"degree": degree},
        worst,
        exact,
    )


def _numeric_defect(diff: Polynomial):
    worst = 0.0
    for c in diff.terms.values():
        worst = max(worst, abs(c))
    return (worst == 0.0), ("0" if worst == 0.0 else repr(worst))


def inner_automorphism_defect(form: BilinearForm, z, w, f: Polynomial,
                              orders: int = 4, cutoff=None) -> DefectReport:
    """E(w~) * f * E(-w~) versus translating f by a_i = 2 z L(w, e_i).

    Needs an antisymmetric form (then E is the star exponential of w~ on the
    nose). Exact on h-orders <= orders once cutoff >= deg f + 2*orders.
    """
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
    nt = f.trunc
    if nt < orders:
        raise TruncationError("scalar truncation below the order window")
    ew = truncated_exponential(gens, w, 1, k, "formal", nt).base
    wneg = [ew.coerce_scalar(x) * (-1) for x in w]
    ewneg = truncated_exponential(gens, wneg, 1, k, "formal", nt).base
    zz = f.coerce_scalar(z)
    lhs = star(form, zz, star(form, zz, ew, f), ewneg)
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

    def csv_lines(self):
        lines = ["K,partial_sum"]
        for k, s in enumerate(self.partial_sums):
            lines.append(f"{k},{s!r}")
        return lines

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
    sums = []
    for k in range(kmax + 1):
        ev = truncated_exponential(gens, v, 1, k, "numeric", 0).base
        ew = truncated_exponential(gens, w, 1, k, "numeric", 0).base
        prod = star(form, ev.coerce_scalar(z), ev, ew)
        sums.append(seminorm_pR(spec, prod, hbar=hbar))
    monotone = all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
    tail = abs(sums[-1] - sums[-2]) if len(sums) >= 2 else math.inf
    return ContinuityReport(spec.R, kmax, sums, monotone, tail, tail < tol)
