"""End-to-end command line checks through real subprocesses.

Covers the documented exit-code contract (0 ok, 1 computation error, 2 usage
error, 3 verification failure), JSON payload schemas, and byte-identical
reruns of every deterministic command.
"""

import json
import subprocess
import sys

import jsonschema
import pytest

from starweyl.schemas import (
    BCH_PAYLOAD_SCHEMA,
    CONVERGENCE_REPORT_SCHEMA,
    OPERATOR_PAYLOAD_SCHEMA,
    POLY_PAYLOAD_SCHEMA,
    SEMINORM_PAYLOAD_SCHEMA,
    WEYLREL_REPORT_SCHEMA,
)


def run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "starweyl.cli", *args],
        capture_output=True,
        text=True,
        timeout=kw.pop("timeout", 120),
        **kw,
    )


def out(*args):
    r = run(*args)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def payload(*args, schema=None):
    r = run(*args, "--json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    if schema is not None:
        jsonschema.validate(data, schema)
    return data


# ---------------------------------------------------------------- products


def test_star_frozen_conventions():
    assert out("star", "p", "q") == "q*p - i*h"
    assert out("star", "q", "p") == "q*p"
    assert out("commutator", "q", "p") == "i*h"
    assert out("poisson", "q", "p") == "1"


def test_star_json_payload():
    data = payload("star", "p", "q", schema=POLY_PAYLOAD_SCHEMA)
    assert data["text"] == "q*p - i*h"
    assert data["result"]["generators"] == ["q", "p"]


def test_gutt_default_heisenberg():
    assert out("gutt", "x", "y") == "x*y + (1/2)*i*h*z"
    assert out("gutt", "y", "x") == "x*y - (1/2)*i*h*z"


def test_gutt_sl2_coordinates():
    # sl2 dual coordinates are x,y,z (h would collide with the parameter)
    assert out("gutt", "--algebra", "sl2", "y", "z") != ""
    r = run("gutt", "--algebra", "sl2", "e", "f")
    assert r.returncode == 1
    assert "unknown identifier" in r.stderr


def test_bch_closed_form_and_payload():
    assert out("bch", "--order", "4", "X", "Y") == "h*X + h*Y + (1/2)*h^2*Z"
    data = payload("bch", "--order", "4", "X", "Y", schema=BCH_PAYLOAD_SCHEMA)
    assert data["components"][1]["coeffs"] == ["0", "0", "1/2"]
    data = payload("bch", "--algebra", "sl2", "--order", "3", "H", "E + 2*F",
                   schema=BCH_PAYLOAD_SCHEMA)
    assert data["components"][1]["coeffs"] == ["0", "1", "-2"]


def test_equiv_symmetric_shift(tmp_path):
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"matrix": [["0", "1"], ["1", "0"]]}))
    r = run("equiv", "--sym", str(sym), "q^2", "p^2")
    assert r.returncode == 0


# ---------------------------------------------------------------- operators


def test_rep_and_adjoint():
    assert out("rep", "q*p") == "-i*h*q*D[q]"
    assert out("rep", "--ordering", "weyl", "q*p") == "-i*h*q*D[q] - (1/2)*i*h"
    assert out("adjoint", "q*p") == "-i*h*q*D[q] - i*h"
    data = payload("rep", "q*p", schema=OPERATOR_PAYLOAD_SCHEMA)
    assert data["result"]["generators"] == ["q"]


# ---------------------------------------------------------------- analysis


def test_seminorm_value():
    assert float(out("seminorm", "q^2 + i*p")) == pytest.approx(1 + 2 ** 0.5)
    data = payload("seminorm", "q^2 + i*p", "--R", "1.0",
                   schema=SEMINORM_PAYLOAD_SCHEMA)
    assert data["R"] == 1.0


def test_expcheck_json_and_csv():
    data = payload("expcheck", "--v", "1,0", "--alpha", "1",
                   schema=CONVERGENCE_REPORT_SCHEMA)
    assert data["verdict"] == "convergent"
    r = run("expcheck", "--v", "1,0", "--alpha", "1", "--csv")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "K,partial_sum"
    assert len(lines) == 42  # header + K = 0..40


def test_expcheck_divergent_still_exits_zero():
    # a divergent series is a finding, not a failure
    data = payload("expcheck", "--v", "1,0", "--alpha", "2", "--R", "1.0",
                   schema=CONVERGENCE_REPORT_SCHEMA)
    assert data["verdict"] == "divergent"


def test_weylrel_window_report():
    data = payload("weylrel", "--v", "1,0", "--w", "0,1",
                   schema=WEYLREL_REPORT_SCHEMA)
    assert data == {
        "check": "weyl_relation",
        "window": {"degree": 6, "orders": 4},
        "defect_max": "0",
        "status": "pass",
    }


def test_weylrel_undersized_cutoff_is_a_computation_error():
    r = run("weylrel", "--v", "1,0", "--w", "0,1", "--cutoff", "3")
    assert r.returncode == 1
    assert "truncation too small" in r.stderr


# ---------------------------------------------------------------- verify


def test_verify_fast_suite():
    r = run("verify", "ordering")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines)
    assert "# suite ordering" in r.stderr  # timing goes to stderr only


def test_verify_unknown_suite_is_usage():
    r = run("verify", "nonsense")
    assert r.returncode == 2


def test_verify_accepts_check_name_words():
    # suites are addressable by group, full check name, or any word of it
    r = run("verify", "associativity", "--seed", "7")
    assert r.returncode == 0
    assert "star_associativity" in r.stdout
    assert "# suite" in r.stderr


# ---------------------------------------------------------------- sessions


def test_config_file(tmp_path):
    cfg = tmp_path / "conf.json"
    # lambda row index differentiates the left factor: entry (1,0) makes
    # star(b, a) pick up z * db(b) * da(a)
    cfg.write_text(json.dumps({
        "generators": ["a", "b", "c"],
        "lambda": {"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
    }))
    r = run("--config", str(cfg), "star", "b", "a")
    assert r.returncode == 0
    assert r.stdout.strip() == "a*b - i*h"
    # flags are accepted in subcommand position too
    r2 = run("star", "--config", str(cfg), "b", "a")
    assert r2.stdout == r.stdout


def test_config_errors_are_usage_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run("--config", str(missing), "star", "q", "p").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["h"]}))
    r = run("--config", str(bad), "star", "q", "p")
    assert r.returncode == 2
    assert "reserved" in r.stderr
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run("--config", str(notjson), "star", "q", "p").returncode == 2


def test_custom_algebra_file(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "dim": 2,
        "basis": ["A", "B"],
        "coords": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1"]}],
    }))
    assert out("gutt", "--algebra", str(alg), "a", "b") == "a*b + (1/2)*i*h*b"


# ---------------------------------------------------------------- errors


def test_parse_error_is_computation_error():
    r = run("star", "q +", "p")
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


def test_unknown_command_is_usage_error():
    assert run("frobnicate", "q").returncode == 2


def test_wrong_vector_length_is_usage_error():
    r = run("weylrel", "--v", "1,0,0", "--w", "0,1")
    assert r.returncode == 2


# Bad argument vectors and the exit code each must give. main runs in
# process, so an exception that escapes it (a traceback) fails the test.
BAD_ARGUMENTS = [
    (["bch", "--order", "-1", "X", "Y"], 2),
    (["bch", "--order", "two", "X", "Y"], 2),
    (["seminorm", "--R", "0.1", "q"], 2),
    (["seminorm", "--R", "inf", "q"], 2),
    (["seminorm", "--hbar", "nan", "q"], 2),
    (["expcheck", "--v", "1,1", "--alpha", "1", "--kmax", "0"], 2),
    (["expcheck", "--v", "1,1", "--alpha", "1", "--R", "0"], 2),
    (["expcheck", "--v", "1,1", "--alpha", "nan"], 2),
    (["expcheck", "--v", "inf,1", "--alpha", "1"], 2),
    (["expcheck", "--v", "1,1", "--alpha", "1e400"], 1),
    (["--truncation", "-3", "star", "p", "q"], 2),
    (["star", "--truncation", "-1", "p", "q"], 2),
    (["weylrel", "--v", "1,0", "--w", "0,1", "--degree", "-1"], 2),
    (["weylrel", "--v", "1,0", "--w", "0,1", "--orders", "-1"], 2),
    (["weylrel", "--v", "1,0", "--w", "0,1", "--cutoff", "-1"], 2),
    (["weylrel", "--v", "nan,0", "--w", "0,1"], 2),
    (["weylrel", "--v", "1,0,0", "--w", "0,1"], 2),
    (["verify", "no-such-suite"], 2),
    (["frobnicate", "q"], 2),
    (["star", "p"], 2),
    (["star", "q +", "p"], 1),
    (["bch", "--order", "9", "X", "Y"], 1),
]


@pytest.mark.parametrize("argv,code", BAD_ARGUMENTS)
def test_bad_arguments_exit_without_a_traceback(argv, code, capsys):
    from starweyl.cli import main

    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the vector itself
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_nonlinear_bch_argument_is_computation_error():
    r = run("bch", "--order", "3", "X^2", "Y")
    assert r.returncode == 1


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "args",
    [
        ("star", "p", "q", "--json"),
        ("gutt", "x*y", "y*z", "--json"),
        ("bch", "--algebra", "sl2", "--order", "5", "H + E", "F", "--json"),
        ("verify", "ordering"),
        ("expcheck", "--v", "1,2", "--alpha", "1", "--json"),
        ("weylrel", "--v", "1,0", "--w", "0,1", "--json"),
    ],
)
def test_byte_identical_reruns(args):
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
