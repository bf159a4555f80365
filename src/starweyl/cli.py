"""Command line frontend.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 computation error, 2 usage or configuration error, 3 verification failure.
Given the same arguments and the same config, output is byte for byte
reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import StarWeylError
from .lie import LieAlgebra, bch, gutt_star, heisenberg3, sl2
from .ops import formal_adjoint, std_rep, weyl_rep
from .poly import Polynomial, poly_from_text
from .seminorms import (
    exponential_convergence_report,
    seminorm_pR,
    weyl_relation_defect,
)
from .session import ConfigError, Session, _form_from_matrix
from .star import (
    BilinearForm,
    apply_equivalence,
    ordering_operator,
    poisson_bracket,
    star,
)
from .verify import SUITES, run_suite


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _int_at_least(lo):
    """argparse type: an integer >= lo."""
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v
    return parse


def _finite_float(text):
    """argparse type: a finite float."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _seminorm_exponent(text):
    """argparse type: R >= 1/2, which the p_R seminorms need."""
    v = _finite_float(text)
    if v < 0.5:
        raise argparse.ArgumentTypeError(f"must be >= 1/2, got {text}")
    return v


def _common_flags(parser, suppress):
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--config", metavar="FILE",
        help="session configuration (JSON)", **kw
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit structured JSON instead of plain text",
        **({"default": argparse.SUPPRESS} if suppress else {}),
    )
    parser.add_argument(
        "--truncation", type=_int_at_least(0), metavar="N",
        help="override the session truncation order", **kw
    )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="seed for randomized verification (default 0)",
        **({"default": argparse.SUPPRESS} if suppress else {"default": 0}),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starweyl",
        description="Formal star products on flat and linear Poisson structures.",
    )
    _common_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)

    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("star", parents=[common],
                       help="star product of two expressions")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("commutator", parents=[common],
                       help="star commutator a*b - b*a")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("poisson", parents=[common],
                       help="Poisson bracket (normalized so {q,p} = 1 by default)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("gutt", parents=[common],
                       help="Gutt star product on the dual of a Lie algebra")
    p.add_argument("--algebra", default="h3", metavar="NAME|FILE",
                   help="h3, sl2, or a JSON file (default h3)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("bch", parents=[common],
                       help="Baker-Campbell-Hausdorff series in a Lie algebra")
    p.add_argument("--algebra", default="h3", metavar="NAME|FILE")
    p.add_argument("--order", type=_int_at_least(0), required=True, metavar="N")
    p.add_argument("x", help="linear expression in the basis names")
    p.add_argument("y", help="linear expression in the basis names")

    p = sub.add_parser("equiv", parents=[common],
                       help="equivalence-transformed product T^-1(Tf * Tg)")
    p.add_argument("--sym", required=True, metavar="FILE",
                   help="symmetric form S (JSON with a 'matrix' key)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("rep", parents=[common],
                       help="operator representation of an expression")
    p.add_argument("--ordering", choices=("std", "weyl"), default="std")
    p.add_argument("f")

    p = sub.add_parser("adjoint", parents=[common],
                       help="formal adjoint of the operator representation")
    p.add_argument("--ordering", choices=("std", "weyl"), default="std")
    p.add_argument("f")

    p = sub.add_parser("seminorm", parents=[common],
                       help="p_R seminorm of an expression")
    p.add_argument("--R", type=_seminorm_exponent, default=None,
                   help="override the session exponent R")
    p.add_argument("--hbar", type=_finite_float, default=1.0,
                   help="evaluation point for formal coefficients (default 1)")
    p.add_argument("f")

    p = sub.add_parser("expcheck", parents=[common],
                       help="convergence behaviour of an exponential series")
    p.add_argument("--v", required=True, metavar="C1,C2,...",
                   help="coefficient vector of the linear exponent")
    p.add_argument("--alpha", required=True, metavar="A",
                   help="scalar prefactor (rational or float)")
    p.add_argument("--R", type=_seminorm_exponent, default=None)
    p.add_argument("--kmax", type=_int_at_least(1), default=40)
    p.add_argument("--csv", action="store_true",
                   help="emit K,partial_sum lines")

    p = sub.add_parser("weylrel", parents=[common],
                       help="exactness of the exponential Weyl relation")
    p.add_argument("--v", required=True, metavar="C1,C2,...")
    p.add_argument("--w", required=True, metavar="C1,C2,...")
    p.add_argument("--degree", type=_int_at_least(0), default=6)
    p.add_argument("--orders", type=_int_at_least(0), default=4)
    p.add_argument("--cutoff", type=_int_at_least(0), default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all",
                   help="one of: " + ", ".join(SUITES))

    return ap


# -- helpers -----------------------------------------------------------------

def _load_session(args) -> Session:
    trunc = getattr(args, "truncation", None)
    path = getattr(args, "config", None)
    if path is None:
        return Session.default(truncation=trunc)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    try:
        return Session.from_config(cfg, truncation=trunc)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None


def _load_algebra(name: str) -> LieAlgebra:
    if name == "h3":
        return heisenberg3()
    if name == "sl2":
        return sl2()
    if name.endswith(".json") or os.path.exists(name):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read algebra {name!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"algebra file {name!r} is not valid JSON: {exc}"
            ) from None
        try:
            return LieAlgebra.from_json(d)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad algebra file {name!r}: {exc}") from None
    raise UsageError(
        f"unknown algebra {name!r}: use h3, sl2, or a JSON file path"
    )


def _parse_vector(text: str, n: int, what: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise UsageError(
            f"{what} needs {n} comma-separated entries, got {len(parts)}"
        )
    return [_parse_scalar_arg(s, f"{what} entry") for s in parts]


def _parse_scalar_arg(text: str, what: str):
    """An exact rational. Every finite decimal is one, so what Fraction
    rejects (nan, inf, junk) is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {what} {text!r}") from None


def _emit(args, payload: dict, text: str):
    if getattr(args, "as_json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _poly_payload(p: Polynomial) -> dict:
    return {"result": p.to_json(), "text": str(p)}


def _linear_vector(algebra: LieAlgebra, text: str, trunc: int):
    from .poly import Generators

    gens = Generators(algebra.basis)
    p = poly_from_text(text, gens, "formal", trunc)
    if p.degree() > 1:
        raise StarWeylError(
            f"expected a linear expression in {algebra.basis}, got degree "
            f"{p.degree()}"
        )
    vec = []
    for k in range(algebra.dim):
        e = tuple(1 if t == k else 0 for t in range(algebra.dim))
        c = p.terms.get(e)
        if c is None:
            vec.append(0)
        else:
            if any(r != 0 for r in c.coeffs):
                raise StarWeylError("basis coefficients must be h-free")
            vec.append(c.coefficient(0))
    const = p.terms.get((0,) * algebra.dim)
    if const:
        raise StarWeylError("linear expression must have no constant term")
    return vec


# -- command handlers ---------------------------------------------------------

def _cmd_star(args, ses):
    a, b = ses.parse_poly(args.a), ses.parse_poly(args.b)
    out = star(ses.form, ses.z, a, b)
    _emit(args, _poly_payload(out), str(out))
    return 0


def _cmd_commutator(args, ses):
    a, b = ses.parse_poly(args.a), ses.parse_poly(args.b)
    out = star(ses.form, ses.z, a, b) - star(ses.form, ses.z, b, a)
    _emit(args, _poly_payload(out), str(out))
    return 0


def _cmd_poisson(args, ses):
    a, b = ses.parse_poly(args.a), ses.parse_poly(args.b)
    out = poisson_bracket(ses.form.transpose(), a, b)
    _emit(args, _poly_payload(out), str(out))
    return 0


def _cmd_gutt(args, ses):
    algebra = _load_algebra(args.algebra)
    a = poly_from_text(args.a, algebra.coords, "formal", ses.trunc)
    b = poly_from_text(args.b, algebra.coords, "formal", ses.trunc)
    out = gutt_star(algebra, a, b)
    _emit(args, _poly_payload(out), str(out))
    return 0


def _cmd_bch(args, ses):
    algebra = _load_algebra(args.algebra)
    x = _linear_vector(algebra, args.x, ses.trunc)
    y = _linear_vector(algebra, args.y, ses.trunc)
    series = bch(algebra, x, y, args.order)
    payload = {
        "algebra": list(algebra.basis),
        "order": args.order,
        "components": [
            {
                "order": w,
                "coeffs": [c.canonical() for c in series.component(w)],
            }
            for w in range(1, args.order + 1)
        ],
        "text": str(series),
    }
    _emit(args, payload, str(series))
    return 0


def _cmd_equiv(args, ses):
    try:
        with open(args.sym, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.sym!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.sym!r} is not valid JSON: {exc}") from None
    if isinstance(d, dict) and "matrix" in d:
        sform = _form_from_matrix(d["matrix"], ses.gens, ses.domain, ses.trunc)
    else:
        raise UsageError(f"{args.sym!r} must contain a 'matrix' key")
    t = ordering_operator(sform, ses.z)
    a, b = ses.parse_poly(args.a), ses.parse_poly(args.b)
    out = apply_equivalence(t, ses.form, ses.z, a, b)
    _emit(args, _poly_payload(out), str(out))
    return 0


def _rep_of(args, ses):
    f = ses.parse_poly(args.f)
    return std_rep(f) if args.ordering == "std" else weyl_rep(f)


def _cmd_rep(args, ses):
    op = _rep_of(args, ses)
    _emit(args, {"result": op.to_json(), "text": str(op)}, str(op))
    return 0


def _cmd_adjoint(args, ses):
    op = formal_adjoint(_rep_of(args, ses))
    _emit(args, {"result": op.to_json(), "text": str(op)}, str(op))
    return 0


def _cmd_seminorm(args, ses):
    f = ses.parse_poly(args.f)
    value = seminorm_pR(ses.seminorm, f, hbar=args.hbar, R=args.R)
    r_used = ses.seminorm.R if args.R is None else args.R
    payload = {
        "value": value,
        "R": r_used,
        "weights": list(ses.seminorm.weights),
        "hbar": args.hbar,
    }
    _emit(args, payload, repr(value))
    return 0


def _cmd_expcheck(args, ses):
    n = len(ses.gens.names)
    v = _parse_vector(args.v, n, "--v")
    alpha = _parse_scalar_arg(args.alpha, "--alpha value")
    rep = exponential_convergence_report(
        ses.seminorm, v, alpha, R=args.R, kmax=args.kmax
    )
    if getattr(args, "as_json", False):
        print(json.dumps(rep.to_json(), indent=2))
    elif args.csv:
        for line in rep.csv_lines():
            print(line)
    else:
        print(f"verdict: {rep.verdict} ({rep.reason})")
        print(f"x = {rep.x!r}")
        if rep.limit is not None:
            print(f"limit = {rep.limit!r}")
        if rep.tail is not None:
            print(f"tail <= {rep.tail!r}")
        print(f"partial sum at K={rep.kmax}: {rep.partial_sums[-1]!r}")
    return 0


def _cmd_weylrel(args, ses):
    n = len(ses.gens.names)
    v = _parse_vector(args.v, n, "--v")
    w = _parse_vector(args.w, n, "--w")
    rep = weyl_relation_defect(
        ses.form, ses.z, v, w,
        degree=args.degree, orders=args.orders, cutoff=args.cutoff,
    )
    payload = {
        "check": "weyl_relation",
        "window": {"degree": args.degree, "orders": args.orders},
        "defect_max": rep.defect_max,
        "status": rep.status,
    }
    text = (
        f"weyl_relation: {rep.status} (defect_max {rep.defect_max}, "
        f"degree <= {args.degree}, orders <= {args.orders})"
    )
    _emit(args, payload, text)
    return 0 if rep.exact else 3


def _cmd_verify(args, ses):
    seed = getattr(args, "seed", 0)
    try:
        results = run_suite(args.suite, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ok = all(r.ok for r in results)
    if getattr(args, "as_json", False):
        payload = {
            "suite": args.suite,
            "seed": seed,
            "status": "pass" if ok else "fail",
            "results": [r.to_json() for r in results],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
    total = sum(r.elapsed for r in results)
    print(f"# suite {args.suite}: {len(results)} checks in {total:.1f}s",
          file=sys.stderr)
    return 0 if ok else 3


_HANDLERS = {
    "star": _cmd_star,
    "commutator": _cmd_commutator,
    "poisson": _cmd_poisson,
    "gutt": _cmd_gutt,
    "bch": _cmd_bch,
    "equiv": _cmd_equiv,
    "rep": _cmd_rep,
    "adjoint": _cmd_adjoint,
    "seminorm": _cmd_seminorm,
    "expcheck": _cmd_expcheck,
    "weylrel": _cmd_weylrel,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        ses = _load_session(args)
        return _HANDLERS[args.command](args, ses)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StarWeylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
