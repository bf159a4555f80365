"""Session configuration: defaults, validation, JSON round-trip."""

import pytest

from starweyl import ConfigError, RESERVED_NAMES, Session


def test_default_session():
    ses = Session.default()
    assert ses.gens.names == ("q", "p")
    assert ses.domain == "formal"
    assert ses.trunc == 8
    assert str(ses.parse_poly("q*p")) == "q*p"
    assert ses.z.canonical() == "-i*h"
    # the default form is the standard ordering: p derivative on the left slot
    assert str(ses.form.matrix[1][0]) == "1"


def test_truncation_override():
    assert Session.default(truncation=4).trunc == 4
    assert Session.from_config({"truncation": 6}, truncation=3).trunc == 3


def test_config_roundtrip():
    cfg = {
        "generators": ["a", "b", "c"],
        "lambda": {"matrix": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
        "z": "-i*h",
        "truncation": 6,
        "seminorm": {"weights": [1.0, 2.0, 0.5], "R": 1.0},
    }
    ses = Session.from_config(cfg)
    again = Session.from_config({
        k: v for k, v in ses.to_json().items()
    })
    assert again.gens == ses.gens
    assert again.trunc == ses.trunc
    assert again.form.matrix == ses.form.matrix
    assert again.z == ses.z
    assert again.seminorm.weights == ses.seminorm.weights


def test_reserved_names():
    assert RESERVED_NAMES == ("h", "i")
    for nm in RESERVED_NAMES:
        with pytest.raises(ConfigError):
            Session.from_config({"generators": [nm, "p"]})


@pytest.mark.parametrize(
    "cfg",
    [
        {"unknown_key": 1},
        {"generators": []},
        {"generators": ["q", "q"]},
        {"generators": "qp"},
        {"domain": "symbolic"},
        {"truncation": -1},
        {"truncation": "8"},
        {"lambda": [[0, 1], [0, 0]]},  # must be an object with 'matrix'
        {"lambda": {"matrix": [["0", "1"]]}},  # not square
        {"lambda": {"matrix": [["0", "q"], ["0", "0"]]}},  # entry not a scalar
        {"z": "q + 1"},
        {"seminorm": {"weights": [1.0]}},  # missing R
        {"seminorm": {"weights": [1.0], "R": 0.5}},  # wrong arity
        {"seminorm": {"weights": [1.0, -1.0], "R": 0.5}},
        {"seminorm": {"weights": [1.0, 1.0], "R": 0.1}},
    ],
)
def test_rejected_configs(cfg):
    with pytest.raises(ConfigError):
        Session.from_config(cfg)


def test_explicit_null_z_means_default():
    ses = Session.from_config({"z": None})
    assert ses.z.canonical() == "-i*h"


def test_numeric_domain_session():
    ses = Session.from_config({
        "domain": "numeric",
        "lambda": {"matrix": [[0, 1], [0, 0]]},
        "z": [0, -1],
    })
    f = ses.parse_poly("q^2 + 3*p")
    assert f.evaluate((1.0, 2.0)) == pytest.approx(7.0)


def test_parse_scalar_respects_session():
    ses = Session.from_config({"truncation": 3})
    s = ses.parse_scalar("1 + h^5")
    assert s == ses.parse_scalar("1")  # order 5 falls outside the window


def test_numeric_session_json_roundtrip():
    cfg = {
        "generators": ["q", "p"],
        "domain": "numeric",
        "lambda": {"matrix": [[0, 0], [[1.0, 0.5], 0]]},
        "z": [0.0, -1.0],
    }
    ses = Session.from_config(cfg)
    d = ses.to_json()
    assert d["z"] == [0.0, -1.0]
    again = Session.from_config(d)
    assert again.domain == "numeric"
    assert again.z == ses.z
    assert again.form.matrix == ses.form.matrix
    assert again.to_json() == d
