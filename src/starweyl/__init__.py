"""starweyl: exact computer algebra for star products on flat and linear
Poisson structures, ordering operators, operator representations, and
seminorm diagnostics for the locally convex Weyl algebra.

Conventions (orientation of the standard form, z = -i*h presets, bracket
signs) are derived and pinned in docs/conventions.md.
"""

import importlib as _importlib

from .errors import (
    BoxOverflowError,
    IncompatibleError,
    NonFiniteError,
    ParseError,
    StarWeylError,
    TruncationError,
)
from .scalars import (
    DEFAULT_TRUNCATION,
    FormalScalar,
    GaussianRational,
    NumericScalar,
)
from .poly import Generators, Polynomial, poly_from_text, total_degree
from .parse import parse_expression, scalar_from_text
from .star import (
    BilinearForm,
    OrderingOperator,
    apply_equivalence,
    jacobi_defect,
    minus_i_hbar,
    n_operator,
    ordering_operator,
    poisson_bracket,
    poisson_standard,
    standard_form,
    star,
    star_standard,
    star_weyl,
    weyl_form,
)
from .ops import DifferentialOperator, formal_adjoint, std_rep, weyl_rep
from .lie import (
    BchReport,
    LieAlgebra,
    LieSeries,
    UEElement,
    bch,
    bch_exponential,
    check_bch_property,
    gutt_star,
    hbar_exponential,
    heisenberg3,
    kks_bracket,
    pbw_symmetrize,
    pbw_symmetrize_inverse,
    sl2,
    ue_normal_order,
)
from .seminorms import (
    ContinuityReport,
    ConvergenceReport,
    DefectReport,
    SeminormSpec,
    TruncatedElement,
    exponential_convergence_report,
    inner_automorphism_defect,
    seminorm_pR,
    star_continuity_report,
    translation_automorphism_defect,
    truncated_exponential,
    weyl_relation_defect,
)
from .session import RESERVED_NAMES, ConfigError, Session

__version__ = "0.1.0"

# Only the `verify` command and the tests use the criteria and the naive
# oracles, so their modules load on first use of one of these names
# (PEP 562), not with the package.
_LAZY = {
    "bruteforce": "bruteforce",
    "DensePolynomial": "bruteforce",
    "naive_bch_dynkin": "bruteforce",
    "naive_bch_via_ue": "bruteforce",
    "naive_star": "bruteforce",
    "verify": "verify",
    "CRITERIA": "verify",
    "SUITES": "verify",
    "VerifyResult": "verify",
    "run_suite": "verify",
}

__all__ = [n for n in globals() if not n.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
