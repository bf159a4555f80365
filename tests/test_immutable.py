"""Every value class of the package is immutable after construction.

The guard lives in one base class, scalars.Immutable: assigning to any
attribute raises AttributeError naming the class, and a wrong number of
positional arguments is a TypeError.
"""

import pytest

from starweyl import (
    BilinearForm,
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    LieSeries,
    NumericScalar,
    OrderingOperator,
    Polynomial,
    SeminormSpec,
    Session,
    UEElement,
    heisenberg3,
)
from starweyl.lie import BchReport, LieAlgebra
from starweyl.seminorms import (
    ContinuityReport,
    ConvergenceReport,
    DefectReport,
    TruncatedElement,
)
from starweyl.verify import Criterion, VerifyResult

G = Generators(("q", "p"))
X = Generators(("x",))
H3 = heisenberg3()
SPEC = SeminormSpec((1.0, 1.0), 0.5)
SESSION = Session.default()
ONE = Polynomial(G, {(0, 0): 1})


def _noop(seed):
    return True, ""


# each class with a full positional argument list for its constructor
ROWS = [
    (GaussianRational, (1, 2)),
    (NumericScalar, (1.0, 2.0)),
    (FormalScalar, ({0: 1, 1: 2}, 4, False)),
    (Polynomial, (G, {(1, 0): 1}, "formal", 4, False)),
    (DifferentialOperator, (X, {((1,), (1,)): 1}, "formal", 4, False)),
    (BilinearForm, (G, [[0, 1], [0, 0]], "formal", 4)),
    (UEElement, (H3, {(0, 1): 1}, 4, False)),
    (Generators, (("q", "p"),)),
    (LieAlgebra, (("X", "Y"), {(0, 1): (0, 1)}, ("x", "y"))),
    (LieSeries, (H3, 2, {1: (1, 0, 0)}, False)),
    (BchReport, (4, 4, 4)),
    (SeminormSpec, ((1.0, 2.0), 0.5)),
    (TruncatedElement, (ONE, 3)),
    (ConvergenceReport, (0.5, 1.0, 2, [1.0, 1.0, 0.5], [1.0, 2.0, 2.5],
                         "convergent", "term ratio tends to zero", 2.5, 0.1)),
    (DefectReport, ("weyl_relation", {"degree": 2}, "0", True, None)),
    (ContinuityReport, (0.5, 2, [1.0, 2.0, 2.5], True, 0.5, False)),
    (Session, (SESSION.gens, SESSION.domain, SESSION.trunc, SESSION.form,
               SESSION.z, SESSION.seminorm)),
    (OrderingOperator, (BilinearForm(G, [[1, 0], [0, 0]]), -1)),
    (VerifyResult, (1, "star_associativity", True, "ok", 0.1)),
    (Criterion, (1, "star_associativity", "star", _noop, 60.0)),
]


@pytest.mark.parametrize("cls, args", ROWS, ids=[c.__name__ for c, _ in ROWS])
def test_value_classes_are_immutable(cls, args):
    value = cls(*args)
    slot = next(s for c in cls.__mro__ for s in c.__dict__.get("__slots__", ()))
    for name in (slot, "not_a_slot"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError) as info:
            setattr(value, name, before)
        assert str(info.value) == f"{cls.__name__} is immutable"
    with pytest.raises(TypeError):
        cls(*args, None)


def test_the_base_stores_its_arguments_in_slot_order():
    rep = ConvergenceReport(0.5, 0.0, 1, [1.0, 0.0], [1.0, 1.0],
                            "convergent", "finitely many terms", 1.0, 0.0)
    assert (rep.R, rep.x, rep.kmax, rep.verdict, rep.limit, rep.tail) == (
        0.5, 0.0, 1, "convergent", 1.0, 0.0)
    assert rep.convergent
    with pytest.raises(TypeError, match="ConvergenceReport takes 9 values"):
        ConvergenceReport(0.5, 0.0, 1)
    # a constructor that derives a value first ends in the base's
    assert BchReport(4, 4, 4).ok and not BchReport(4, 4, 3).ok
