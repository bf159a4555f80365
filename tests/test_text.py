"""Frozen text of every term printer: Polynomial (formal and numeric),
DifferentialOperator (formal and numeric), TensorSquare, BilinearForm,
UEElement and LieSeries; and frozen JSON of the coefficient writers.

Each row pins one branch of the shared term printer: a negative leading
term, a coefficient with several h-orders in parentheses, h and h^r, a
constant 1, Gaussian and numeric coefficients, and the zero element.
"""

import json
from fractions import Fraction

import pytest

from starweyl import (
    DifferentialOperator,
    FormalScalar,
    GaussianRational,
    Generators,
    LieSeries,
    Polynomial,
    Session,
    TensorSquare,
    UEElement,
    bch,
    poly_from_text,
    sl2,
    standard_form,
    std_rep,
    ue_normal_order,
    weyl_form,
)

G = ("q", "p")
X = Generators(("x", "y"))
SL2 = sl2()
GR = GaussianRational


def pf(text, domain="formal"):
    return poly_from_text(text, G, domain)


def fs(coeffs):
    return FormalScalar(coeffs)


CASES = [
    (Polynomial.zero(G), "0"),
    (pf("-q^2*p + 3*q - 1"), "-q^2*p + 3*q - 1"),
    (
        pf("(1 + 2*h)*q - h*p + h^3 - 2/3*h^2*q*p"),
        "-(2/3)*h^2*q*p + (1 + 2*h)*q - h*p + h^3",
    ),
    (pf("1"), "1"),
    (pf("1 + h"), "(1 + h)"),
    (
        pf("(1 + i)*q^2 - i*p + 3*i*h*q - (1/2)*i"),
        "(1/1+1/1*i)*q^2 + 3*i*h*q - i*p - (1/2)*i",
    ),
    (pf("2*q - 1 + 1/2*i*p", "numeric"), "(2.0+0.0j)*q + (0.0+0.5j)*p + (-1.0+0.0j)"),
    (pf("1", "numeric"), "(1.0+0.0j)"),
    (DifferentialOperator.zero(X), "0"),
    (
        DifferentialOperator(X, {
            ((1, 0), (0, 2)): -1,
            ((0, 0), (1, 0)): fs({0: 1, 2: GR(0, -3)}),
            ((0, 0), (0, 0)): 1,
            ((2, 1), (0, 0)): fs({1: Fraction(1, 2)}),
            ((0, 1), (1, 1)): fs({3: GR(1, 1)}),
        }),
        "(1/1+1/1*i)*h^3*y*D[x]*D[y] - x*D[y]^2 + (1 - 3*i*h^2)*D[x]"
        " + (1/2)*h*x^2*y + 1",
    ),
    (DifferentialOperator.identity(X), "1"),
    (
        DifferentialOperator(X, {
            ((1, 0), (0, 1)): 2.5,
            ((0, 0), (0, 0)): -1j,
            ((0, 0), (1, 0)): complex(1, -2),
        }, domain="numeric"),
        "(1.0-2.0j)*D[x] + (2.5+0.0j)*x*D[y] + (0.0-1.0j)",
    ),
    (std_rep(pf("q^2*p - 3*p^2 + q")), "3*h^2*D[q]^2 - i*h*q^2*D[q] + q"),
    (UEElement.zero(SL2), "0"),
    (
        ue_normal_order(SL2, (2, 1, 1, 0)),
        "H*E^2*F - 2*i*h*E^2*F - 2*i*h*H^2*E - 6*h^2*H*E + 4*i*h^3*E",
    ),
    (
        UEElement(SL2, {
            (0, 1): fs({0: -1, 1: 2}),
            (2,): fs({1: GR(0, 1)}),
            (): 1,
            (1, 1, 2): fs({2: Fraction(-3, 4)}),
            (0,): fs({3: GR(2, -1)}),
        }),
        "-(3/4)*h^2*E^2*F + (-1 + 2*h)*H*E + i*h*F + (2/1-1/1*i)*h^3*H + 1",
    ),
    (UEElement(SL2, {(): 1}), "1"),
    (LieSeries(SL2, 3, {}), "0"),
    (bch(SL2, (1, 0, 0), (0, 1, 0), 3), "h*H + h*E + h^2*E + (1/3)*h^3*E"),
    (
        LieSeries(SL2, 3, {
            0: (-1, 0, 2),
            1: (Fraction(1, 2), GR(0, 1), GR(0, -2)),
            2: (0, GR(1, 1), Fraction(-3, 5)),
            3: (0, 0, 1),
        }),
        "-H + 2*F + (1/2)*h*H + i*h*E - 2*i*h*F + (1/1+1/1*i)*h^2*E"
        " - (3/5)*h^2*F + h^3*F",
    ),
    (
        TensorSquare.of(pf("q^2 - h"), pf("2*p + i")),
        "2*q^2 (x) p + i*q^2 (x) 1 - 2*h*1 (x) p - i*h*1 (x) 1",
    ),
    (standard_form(G), "p (x) q"),
    (weyl_form(G), "-(1/2)*q (x) p + (1/2)*p (x) q"),
]


@pytest.mark.parametrize("value,text", CASES)
def test_frozen_text(value, text):
    assert str(value) == text


# Frozen JSON of the coefficient writers, compared as text so that a float
# -0.0 and 0.0 differ. The numeric polynomial read back from JSON writes the
# -0.0 parts of its pairs as +0.0 (docs/conventions.md section 14).
NUMERIC_PAIRS = {
    "generators": ["q", "p"],
    "scalar_domain": "numeric",
    "terms": [{"exp": [1, 0], "coeff": [-0.0, -1.0]},
              {"exp": [0, 0], "coeff": [0.5, -0.0]}],
}
JSON_CASES = [
    (
        pf("(1 + 2*h)*q - h*p + (1/2)*i*q*p - 3"),
        '{"generators": ["q", "p"], "scalar_domain": "formal", "terms": ['
        '{"exp": [1, 1], "coeff": "0/1+1/2*i"}, {"exp": [1, 0], "coeff": "1 + 2*h"}, '
        '{"exp": [0, 1], "coeff": "-h"}, {"exp": [0, 0], "coeff": "-3"}], '
        '"truncation": 8}',
    ),
    (
        pf("2*q - 1 + 1/2*i*p - i*q*p", "numeric"),
        '{"generators": ["q", "p"], "scalar_domain": "numeric", "terms": ['
        '{"exp": [1, 1], "coeff": [0.0, -1.0]}, {"exp": [1, 0], "coeff": [2.0, 0.0]}, '
        '{"exp": [0, 1], "coeff": [0.0, 0.5]}, {"exp": [0, 0], "coeff": [-1.0, 0.0]}]}',
    ),
    (
        Polynomial.from_json(NUMERIC_PAIRS),
        '{"generators": ["q", "p"], "scalar_domain": "numeric", "terms": ['
        '{"exp": [1, 0], "coeff": [0.0, -1.0]}, {"exp": [0, 0], "coeff": [0.5, 0.0]}]}',
    ),
    (
        std_rep(pf("q*p^2 + i*q - h")),
        '{"generators": ["q"], "scalar_domain": "formal", "terms": ['
        '{"coef_exp": [1], "deriv_exp": [2], "coeff": "-h^2"}, '
        '{"coef_exp": [1], "deriv_exp": [0], "coeff": "0/1+1/1*i"}, '
        '{"coef_exp": [0], "deriv_exp": [0], "coeff": "-h"}], "truncation": 8}',
    ),
    (
        std_rep(pf("q*p^2 - 1/4*q + i", "numeric")),
        '{"generators": ["q"], "scalar_domain": "numeric", "terms": ['
        '{"coef_exp": [1], "deriv_exp": [2], "coeff": [-1.0, 0.0]}, '
        '{"coef_exp": [1], "deriv_exp": [0], "coeff": [-0.25, 0.0]}, '
        '{"coef_exp": [0], "deriv_exp": [0], "coeff": [0.0, 1.0]}]}',
    ),
    (
        weyl_form(G),
        '{"generators": ["q", "p"], "matrix": [["0", "-1/2"], ["1/2", "0"]]}',
    ),
    (
        weyl_form(G, "numeric"),
        '{"generators": ["q", "p"], "matrix": '
        '[[[0.0, 0.0], [-0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}',
    ),
    (
        Session.default(),
        '{"generators": ["q", "p"], "domain": "formal", "truncation": 8, '
        '"lambda": {"generators": ["q", "p"], "matrix": [["0", "0"], ["1", "0"]]}, '
        '"z": "-i*h", "seminorm": {"weights": [1.0, 1.0], "R": 0.5}}',
    ),
    (
        Session.from_config({"generators": ["q", "p"], "domain": "numeric",
                             "z": "-i"}),
        '{"generators": ["q", "p"], "domain": "numeric", "truncation": 8, '
        '"lambda": {"generators": ["q", "p"], "matrix": '
        '[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}, '
        '"z": [0.0, -1.0], "seminorm": {"weights": [1.0, 1.0], "R": 0.5}}',
    ),
]


@pytest.mark.parametrize("value,text", JSON_CASES)
def test_frozen_json(value, text):
    assert json.dumps(value.to_json()) == text
