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

from starweyl.lie import MAX_BCH_ORDER
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
    # not UTF-8, and an integer beyond the interpreter's digit limit
    for name, data in (("latin1.json", b'{"z": "\xff"}'),
                       ("digits.json", b'{"z": 1' + b"0" * 5000 + b"}")):
        path = tmp_path / name
        path.write_bytes(data)
        r = run("--config", str(path), "star", "q", "p")
        assert r.returncode == 2 and "Traceback" not in r.stderr


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
ALGEBRA = {"dim": 2, "basis": ["A", "B"], "coords": ["a", "b"]}
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
    (["star", "q^99999999", "p"], 1),
    (["bch", "--order", str(MAX_BCH_ORDER + 1), "X", "Y"], 1),
    # a dict stands for a JSON file with that content
    (["--config", {"z": 0.5}, "star", "q", "p"], 2),
    (["--config", {"lambda": {"matrix": [[0, 0.5], [1, 0]]}}, "star", "q", "p"], 2),
    (["--config", {"z": True}, "star", "q", "p"], 2),
    (["--config", {"z": [0, -1]}, "star", "q", "p"], 2),
    (["--config", {"domain": "numeric", "z": [True, 1]}, "star", "q", "p"], 2),
    (["--config", {"domain": "numeric", "z": 10**400}, "star", "q", "p"], 2),
    (["--config", {"seminorm": {"weights": [True, 1], "R": 1.0}}, "seminorm", "q"], 2),
    (["--config", {"seminorm": {"weights": [1, 1], "R": [1]}}, "seminorm", "q"], 2),
    (["bch", "--algebra", {**ALGEBRA, "brackets": [
        {"i": 0, "j": 1, "coeffs": ["h", "1+h"]}]}, "--order", "2", "A", "B"], 2),
    (["bch", "--algebra", {**ALGEBRA, "brackets": [
        {"i": 0, "j": 1, "coeffs": [0.5, 1]}]}, "--order", "2", "A", "B"], 2),
    (["gutt", "--algebra", {**ALGEBRA, "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", "1 +"]}]}, "a", "b"], 2),
    (["bch", "--algebra", {**ALGEBRA, "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", "1 + h^100*h"]}]}, "--order", "2",
      "A", "B"], 2),
    # refused before any work
    (["bch", "--order", "1000000000", "X", "Y"], 1),
    (["equiv", "--sym", {"matrix": [[0.5, 0], [0, 1]]}, "q", "p"], 2),
    (["equiv", "--sym", {"matrix": [[0, 1], [0, 0]]}, "q", "p"], 2),
    # a numeric result beyond the float range is a computation error
    (["--config", {"domain": "numeric"}, "star", "10^80*10^80*q",
      "10^80*10^80*p"], 1),
    (["--config", {"domain": "numeric"}, "poisson", "10^80*10^80*q",
      "10^80*10^80*p"], 1),
    # a power past poly.MAX_POWER_TERMS is refused before it expands
    (["star", "(q^50+p^50+q*p+1)^100", "p"], 1),
    (["--config", {"generators": ["a", "b", "c", "d", "e", "f"]}, "star",
      "(a+b+c+d+e+f)^100", "a"], 1),
    # a product past poly.MAX_PRODUCT_PAIRS is refused before it multiplies:
    # 4,495 terms each
    (["--config", {"generators": ["a", "b", "c", "d"]}, "star",
      "(a+b+c+d)^28", "(a+b+c+d)^28"], 1),
    # an exponential cutoff past parse.MAX_EXPONENT is refused before it
    # expands (cutoff 100008 and 3000)
    (["weylrel", "--v", "1,0", "--w", "0,1", "--degree", "100000"], 1),
    (["weylrel", "--v", "1,0", "--w", "0,1", "--degree", "2", "--cutoff",
      "3000"], 1),
]


@pytest.mark.parametrize("argv,code", BAD_ARGUMENTS)
def test_bad_arguments_exit_without_a_traceback(argv, code, capsys, tmp_path):
    from starweyl.cli import main

    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{k}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:k] + [str(path)] + argv[k + 1:]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the vector itself
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("a,b,code,stdout", [
    # levels r >= 171 weigh 1/r!, which has no float for r! itself
    ("q^90*q^90", "p^90*p^90", 0, "(1.0+0.0j)*q^180*p^180"),
    ("p^90*p^90", "q^90*q^90", 1, ""),
])
def test_numeric_star_of_high_degree_exits_without_a_traceback(
        a, b, code, stdout, tmp_path):
    cfg = tmp_path / "numeric.json"
    cfg.write_text(json.dumps({"domain": "numeric"}))
    r = run("--config", str(cfg), "star", a, b)
    assert r.returncode == code
    assert r.stdout.strip() == stdout
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["expcheck", "--v", "-1/2,1/3", "--alpha", "1"],
        ["expcheck", "--v", "1/2,-1/3", "--alpha", "-3/2", "--json"],
        ["weylrel", "--v", "-1,0", "--w", "-1/2,1", "--degree", "2",
         "--orders", "2"],
    ],
)
def test_vector_values_may_start_with_minus(argv, capsys):
    from starweyl.cli import main

    # the same call with every option value attached by '='
    attached = []
    for arg in argv:
        if attached and attached[-1] in ("--v", "--w", "--alpha"):
            attached[-1] += "=" + arg
        else:
            attached.append(arg)
    rc = main(argv)
    spaced = capsys.readouterr()
    assert rc == 0, spaced.err
    assert main(attached) == 0
    assert capsys.readouterr().out == spaced.out != ""


# Each vector and the same call with the expressions after '--'.
@pytest.mark.parametrize("argv,dashed,stdout", [
    (["star", "-q", "p"], ["star", "--", "-q", "p"], "-q*p"),
    (["star", "q", "-p^2", "--json"], ["star", "--json", "--", "q", "-p^2"],
     None),
    (["commutator", "-q", "-p"], ["commutator", "--", "-q", "-p"], "i*h"),
    (["rep", "--ordering", "std", "-i*q*p"],
     ["rep", "--ordering", "std", "--", "-i*q*p"], "(-1.0+0.0j)*q*D[q]"),
    # argparse reads "-h..." as the help flag with an attached value
    (["star", "-h*q", "p"], ["star", "--", "-h*q", "p"], "-h*q*p"),
])
def test_expressions_may_start_with_minus(argv, dashed, stdout, capsys,
                                          tmp_path):
    from starweyl.cli import main

    if argv[0] == "rep":
        cfg = tmp_path / "numeric.json"
        cfg.write_text(json.dumps({"domain": "numeric"}))
        argv = ["--config", str(cfg)] + argv
        dashed = ["--config", str(cfg)] + dashed
    assert main(argv) == 0
    out = capsys.readouterr().out
    if stdout is not None:
        assert out == stdout + "\n"
    assert main(dashed) == 0
    assert capsys.readouterr().out == out


# The space that lets argparse read an expression starting with '-' as a
# positional is not counted in a parse-error column: each column is the
# one of the expression as typed, as after '--'.
@pytest.mark.parametrize("expr,message", [
    ("-q+", "expected a value, found 'end of input' (line 1, column 4)"),
    ("-help", "unknown identifier 'help' (line 1, column 2)"),
    ("-h*q+", "expected a value, found 'end of input' (line 1, column 6)"),
])
def test_parse_error_columns_count_the_typed_expression(expr, message,
                                                        capsys):
    from starweyl.cli import main

    assert main(["star", expr, "p"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert main(["star", "--", expr, "p"]) == 1
    assert capsys.readouterr().err == err


def test_help_and_unknown_options_stay_options(capsys):
    from starweyl.cli import main

    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["star", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: starweyl star")
    with pytest.raises(SystemExit) as exc:
        main(["star", "--unknown", "q", "p"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --unknown" in capsys.readouterr().err


@pytest.mark.parametrize("matrix,reason", [
    ([[0.5, 0], [0, 1]], "bad matrix entry"),
    ([[0, 1], [0, 0]], "needs a symmetric form"),
])
def test_bad_symmetric_form_file_is_usage_error(matrix, reason, capsys,
                                                tmp_path):
    from starweyl.cli import main

    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"matrix": matrix}))
    assert main(["equiv", "--sym", str(path), "q", "p"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad symmetric form {str(path)!r}")
    assert reason in err


# starweyl bch on dense sl2 vectors at order 10: the text and the
# coefficients of each order, recorded before bch ran on stored ints
FROZEN_BCH = {
    ("H + 2*E - F", "E + 3*F"): (
        "h*H + 3*h*E + 2*h*F + (7/2)*h^2*H + h^2*E - 3*h^2*F"
        " + (1/6)*h^3*H - (5/6)*h^3*E - (11/3)*h^3*F - (35/12)*h^4*H"
        " - (5/6)*h^4*E + (5/2)*h^4*F + (2/45)*h^5*H + (64/45)*h^5*E"
        " + (178/45)*h^5*F + (679/180)*h^6*H + (97/90)*h^6*E"
        " - (97/30)*h^6*F - (629/3780)*h^7*H - (2701/1260)*h^7*E"
        " - (9953/1890)*h^7*F - (5549/1080)*h^8*H - (5549/3780)*h^8*E"
        " + (5549/1260)*h^8*F + (2011/6300)*h^9*H + (2221/700)*h^9*E"
        " + (4589/630)*h^9*F + (9769/1350)*h^10*H + (9769/4725)*h^10*E"
        " - (9769/1575)*h^10*F",
        [
            ["1", "3", "2"],
            ["7/2", "1", "-3"],
            ["1/6", "-5/6", "-11/3"],
            ["-35/12", "-5/6", "5/2"],
            ["2/45", "64/45", "178/45"],
            ["679/180", "97/90", "-97/30"],
            ["-629/3780", "-2701/1260", "-9953/1890"],
            ["-5549/1080", "-5549/3780", "5549/1260"],
            ["2011/6300", "2221/700", "4589/630"],
            ["9769/1350", "9769/4725", "-9769/1575"],
        ],
    ),
    ("(1/2)*H + i*E", "E - (2/3)*i*F"): (
        "(1/2)*h*H + (1/1+1/1*i)*h*E - (2/3)*i*h*F + (1/3)*h^2*H"
        " + (1/2)*h^2*E + (1/3)*i*h^2*F + (-1/18-1/9*i)*h^3*H"
        " + (7/36-1/9*i)*h^3*E + (1/54)*i*h^3*F - (1/27)*h^4*H"
        " - (1/18)*h^4*E - (1/27)*i*h^4*F + (43/3240+11/810*i)*h^5*H"
        " + (-137/6480+47/1620*i)*h^5*E + (2/1215-13/3240*i)*h^5*F"
        " + (1/180+1/1215*i)*h^6*H + (1/120+1/810*i)*h^6*E"
        " + (-1/1215+1/180*i)*h^6*F + (-247/136080-383/204120*i)*h^7*H"
        " + (367/163296-31/7560*i)*h^7*E"
        " + (-8/25515+1229/1224720*i)*h^7*F"
        " + (-629/612360-23/102060*i)*h^8*H"
        " + (-629/408240-23/68040*i)*h^8*E"
        " + (23/102060-629/612360*i)*h^8*F"
        " + (377/1399680+17/45360*i)*h^9*H"
        " + (-45841/97977600+229/388800*i)*h^9*E"
        " + (11/328050-27599/146966400*i)*h^9*F"
        " + (1981/10497600+337/9185400*i)*h^10*H"
        " + (1981/6998400+337/6123600*i)*h^10*E"
        " + (-337/9185400+1981/10497600*i)*h^10*F",
        [
            ["1/2", "1/1+1/1*i", "0/1-2/3*i"],
            ["1/3", "1/2", "0/1+1/3*i"],
            ["-1/18-1/9*i", "7/36-1/9*i", "0/1+1/54*i"],
            ["-1/27", "-1/18", "0/1-1/27*i"],
            ["43/3240+11/810*i", "-137/6480+47/1620*i", "2/1215-13/3240*i"],
            ["1/180+1/1215*i", "1/120+1/810*i", "-1/1215+1/180*i"],
            [
                "-247/136080-383/204120*i",
                "367/163296-31/7560*i",
                "-8/25515+1229/1224720*i",
            ],
            [
                "-629/612360-23/102060*i",
                "-629/408240-23/68040*i",
                "23/102060-629/612360*i",
            ],
            [
                "377/1399680+17/45360*i",
                "-45841/97977600+229/388800*i",
                "11/328050-27599/146966400*i",
            ],
            [
                "1981/10497600+337/9185400*i",
                "1981/6998400+337/6123600*i",
                "-337/9185400+1981/10497600*i",
            ],
        ],
    ),
}


@pytest.mark.parametrize("x, y", list(FROZEN_BCH),
                         ids=["rational", "gaussian"])
def test_bch_text_and_json_are_frozen(x, y):
    text, coeffs = FROZEN_BCH[(x, y)]
    args = ("bch", "--algebra", "sl2", "--order", "10", x, y)
    assert run(*args).stdout == text + "\n"
    want = {
        "algebra": ["H", "E", "F"],
        "order": 10,
        "components": [{"order": w, "coeffs": c}
                       for w, c in enumerate(coeffs, 1)],
        "text": text,
    }
    assert run(*args, "--json").stdout == json.dumps(want, indent=2) + "\n"


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
