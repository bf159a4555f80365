"""Expression parser: grammar corners and failure modes.

The printer emits canonical text and the parser must read it back; the
roundtrip property itself lives in test_poly.py. Here we pin the grammar.
"""

import pytest

from starweyl import (
    Generators,
    ParseError,
    StarWeylError,
    poly_from_text,
    scalar_from_text,
)
from starweyl.parse import scalar_from_json

G = Generators(("q", "p"))


def parse(s):
    return poly_from_text(s, G)


def test_precedence_and_grouping():
    assert parse("q + p*q") == parse("q + (p*q)")
    assert parse("(q + p)*q") != parse("q + p*q")
    assert parse("-q^2") == parse("-(q^2)")
    assert parse("2*q + 3*q") == parse("5*q")


def test_rational_literals():
    assert parse("1/2 * q") == parse("(1/2)*q")
    assert parse("3/6*q") == parse("(1/2)*q")


def test_imaginary_unit_and_hbar():
    assert parse("i^2") == parse("-1")
    assert parse("i*i*q") == parse("-q")
    assert str(parse("h*q - h*q")) == "0"


def test_double_negation_and_subtraction():
    assert parse("q - - p") == parse("q + p")
    assert parse("-(q - p)") == parse("p - q")


def test_binomial_expansion():
    assert str(parse("(q+p)^3")) == "q^3 + 3*q^2*p + 3*q*p^2 + p^3"


def test_zeroth_power_is_one():
    assert parse("q*p^0") == parse("q")
    assert parse("(q+p)^0") == parse("1")


@pytest.mark.parametrize(
    "src",
    [
        "q^2^3",  # chained powers need parentheses; exponents are literals
        "2q",  # implicit multiplication is not a thing
        "q / 2",  # division only inside rational literals
        "q +",
        "(q",
        "q^(1+1)",
        "q^-2",
        "w",  # unknown identifier
        "q..p",
        "",
        "3.5*q",  # no floats in the exact grammar
    ],
)
def test_rejected_inputs(src):
    with pytest.raises(ParseError):
        parse(src)


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("q + w")
    assert "column 5" in str(exc.value)


@pytest.mark.parametrize("src,col", [
    ("p^2/3", 4),
    ("q / 2", 3),
    ("(q/2)*p", 3),
    ("1/3/2", 4),
    ("q + p/3*q", 6),
    ("/q", 1),
])
def test_division_by_a_number_names_the_slash(src, col):
    # only a rational literal such as 1/3 may hold a '/'
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == (
        f"'/' is only allowed inside rational literals (line 1, column {col})")


def test_exponent_limit():
    from starweyl.parse import MAX_EXPONENT

    assert parse(f"q^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    for src, col in ((f"q^{MAX_EXPONENT + 1}", 3), ("p + (q+1)^99999999", 11)):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "exceeds the limit" in str(exc.value)
        assert f"column {col})" in str(exc.value)
    with pytest.raises(ParseError):
        scalar_from_text("h^99999999")


def test_scalar_parser_rejects_generators():
    with pytest.raises(ParseError):
        scalar_from_text("q + 1")
    s = scalar_from_text("1 - (1/3)*i*h^2")
    assert float(s.coefficient(2).im) == pytest.approx(-1 / 3)


def test_whitespace_insensitive():
    assert parse(" q\t+  p ") == parse("q+p")


@pytest.mark.parametrize(
    "raw,domain,text",
    [
        ("1/2 - i*h", "formal", "1/2 - i*h"),
        (-3, "formal", "-3"),
        ("1/4", "numeric", "(0.25+0j)"),
        (-3, "numeric", "(-3+0j)"),
        (0.5, "numeric", "(0.5+0j)"),
        ([0.25, -1], "numeric", "(0.25-1j)"),
        # a -0.0 part reads as +0.0 (docs/conventions.md section 14)
        ([-0.0, -1.0], "numeric", "-1j"),
    ],
)
def test_scalar_from_json_accepts(raw, domain, text):
    assert str(scalar_from_json(raw, domain, 8)) == text


@pytest.mark.parametrize(
    "raw,domain",
    [
        (0.5, "formal"),
        (True, "formal"),
        (True, "numeric"),
        ([0, -1], "formal"),
        ([True, 1], "numeric"),
        (["1", "0"], "numeric"),
        ([1, 2, 3], "numeric"),
        (None, "numeric"),
        ({"re": 1}, "formal"),
        ("1 +", "formal"),
        ("h", "numeric"),
        (float("nan"), "numeric"),
        (10**400, "numeric"),
        ([1, -10**400], "numeric"),
    ],
)
def test_scalar_from_json_rejects(raw, domain):
    with pytest.raises(StarWeylError):
        scalar_from_json(raw, domain, 8)
