"""Working context shared by the command line tools.

A session bundles generators, scalar domain, truncation order, the bilinear
form, the formal parameter z, and a seminorm specification. Generator names
must avoid the grammar's reserved identifiers (see parse.RESERVED_NAMES) so
expressions can always spell the formal parameter and the imaginary unit.
"""

from __future__ import annotations

from .errors import StarWeylError
from .parse import (
    RESERVED_NAMES,
    is_json_number,
    scalar_from_json,
    scalar_from_text,
)
from .poly import Generators, Polynomial, poly_from_text
from .scalars import DEFAULT_TRUNCATION
from .seminorms import SeminormSpec
from .star import BilinearForm, minus_i_hbar


class ConfigError(StarWeylError):
    """Invalid session configuration."""


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


class Session:
    __slots__ = ("gens", "domain", "trunc", "form", "z", "seminorm")

    def __init__(self, gens, domain, trunc, form, z, seminorm):
        for nm in gens.names:
            if nm in RESERVED_NAMES:
                raise ConfigError(
                    f"generator name {nm!r} is reserved for the formal "
                    "parameter and the imaginary unit"
                )
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "seminorm", seminorm)

    def __setattr__(self, name, value):
        raise AttributeError("Session is immutable")

    @classmethod
    def default(cls, truncation=None) -> "Session":
        trunc = DEFAULT_TRUNCATION if truncation is None else truncation
        gens = Generators(("q", "p"))
        form = BilinearForm.standard(gens, "formal", trunc)
        return cls(
            gens,
            "formal",
            trunc,
            form,
            minus_i_hbar("formal", trunc),
            SeminormSpec((1.0, 1.0), 0.5),
        )

    @classmethod
    def from_config(cls, cfg: dict, truncation=None) -> "Session":
        _require(isinstance(cfg, dict), "config must be a JSON object")
        known = {"generators", "domain", "truncation", "lambda", "z", "seminorm"}
        extra = set(cfg) - known
        _require(not extra, f"unknown config keys: {sorted(extra)}")

        names = cfg.get("generators", ["q", "p"])
        _require(
            isinstance(names, list) and names
            and all(isinstance(s, str) for s in names),
            "generators must be a non-empty list of strings",
        )
        try:
            gens = Generators(tuple(names))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for nm in gens.names:
            # checked again by __init__, but it must surface as a config
            # problem before any derived default can fail first
            if nm in RESERVED_NAMES:
                raise ConfigError(
                    f"generator name {nm!r} is reserved for the formal "
                    "parameter and the imaginary unit"
                )

        domain = cfg.get("domain", "formal")
        _require(domain in ("formal", "numeric"),
                 "domain must be 'formal' or 'numeric'")

        trunc = cfg.get("truncation", DEFAULT_TRUNCATION)
        _require(isinstance(trunc, int) and trunc >= 0,
                 "truncation must be a non-negative integer")
        if truncation is not None:
            trunc = truncation

        lam = cfg.get("lambda")
        if lam is None:
            if len(gens.names) % 2:
                raise ConfigError(
                    "the default lambda is the phase-space preset, which "
                    "needs an even number of generators; give lambda "
                    "explicitly"
                )
            form = BilinearForm.standard(gens, domain, trunc)
        else:
            _require(isinstance(lam, dict) and "matrix" in lam,
                     "lambda must be an object with a 'matrix' key")
            form = _form_from_matrix(lam["matrix"], gens, domain, trunc)

        zraw = cfg.get("z")
        if zraw is None:
            z = minus_i_hbar(domain, trunc)
        else:
            z = _config_scalar("z", zraw, domain, trunc)

        sem = cfg.get("seminorm")
        if sem is None:
            spec = SeminormSpec(tuple(1.0 for _ in gens.names), 0.5)
        else:
            _require(
                isinstance(sem, dict)
                and set(sem) <= {"weights", "R"}
                and "weights" in sem and "R" in sem,
                "seminorm must be an object with 'weights' and 'R'",
            )
            ws = sem["weights"]
            _require(
                isinstance(ws, list) and len(ws) == len(gens.names)
                and all(map(is_json_number, ws)),
                "seminorm weights must be a number per generator",
            )
            _require(is_json_number(sem["R"]), "seminorm R must be a number")
            try:
                spec = SeminormSpec(tuple(ws), sem["R"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

        return cls(gens, domain, trunc, form, z, spec)

    # -- parsing helpers ----------------------------------------------------
    def parse_poly(self, text: str) -> Polynomial:
        return poly_from_text(text, self.gens, self.domain, self.trunc)

    def parse_scalar(self, text: str):
        return scalar_from_text(text, self.domain, self.trunc)

    def to_json(self) -> dict:
        return {
            "generators": list(self.gens.names),
            "domain": self.domain,
            "truncation": self.trunc,
            "lambda": self.form.to_json(),
            "z": self.z.to_json(),
            "seminorm": self.seminorm.to_json(),
        }


def _config_scalar(what, raw, domain, trunc):
    """The scalar of a config entry, a StarWeylError reported as a bad
    entry."""
    try:
        return scalar_from_json(raw, domain, trunc)
    except StarWeylError as exc:
        raise ConfigError(f"bad {what} entry: {exc}") from None


def _form_from_matrix(matrix, gens, domain, trunc,
                      what="lambda matrix") -> BilinearForm:
    """The form of a JSON matrix, a malformed one a ConfigError that names
    it as what."""
    n = len(gens.names)
    _require(
        isinstance(matrix, list) and len(matrix) == n
        and all(isinstance(row, list) and len(row) == n for row in matrix),
        f"{what} must be {n}x{n}",
    )
    rows = [[_config_scalar(what, x, domain, trunc) for x in row]
            for row in matrix]
    return BilinearForm(gens, rows, domain, trunc)
