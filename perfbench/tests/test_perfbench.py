"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs one round (its smallest whole run) with all output
checks, and each check must reject a deliberately corrupted output: one
coefficient with its sign flipped, a dropped h-order term, and CLI stdout
that differs by one byte.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
from starweyl import (DifferentialOperator, FormalScalar, LieSeries, Polynomial,
                      TruncatedElement)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SEED = 7


def one_round(workload, tmp_path):
    mod, extra, ops = run.build_ops(workload, SEED, str(tmp_path))
    res = harness.run_rounds(ops, 0)
    assert res.rounds == 1 and res.attempted == len(ops)
    return ops, res


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    return {w: one_round(w, tmp_path_factory.mktemp(w)) for w in run.WORKLOADS}


def test_in_process_workloads_fail_nothing(rounds):
    for w in ("flat", "gutt-bch"):
        _, res = rounds[w]
        assert res.failed == 0, res.errors


def test_cli_fails_exactly_the_malformed_vectors(rounds):
    import cli_mix

    ops, res = rounds["cli"]
    assert res.failed == len(cli_mix.MALFORMED)
    assert len(ops) == 36
    for err, argv in zip(res.errors, cli_mix.MALFORMED):
        assert str(list(argv)) in err


# -- corrupted outputs ---------------------------------------------------------

def _rebuild(obj, terms):
    if isinstance(obj, Polynomial):
        return Polynomial(obj.gens, terms, obj.domain, obj.trunc, _clean=True)
    return DifferentialOperator(obj.gens, terms, obj.domain, obj.trunc, _clean=True)


def flip_sign(out):
    """The same output with one coefficient negated."""
    if isinstance(out, TruncatedElement):
        return TruncatedElement(flip_sign(out.base), out.cutoff)
    if isinstance(out, (Polynomial, DifferentialOperator)):
        terms = dict(out.terms)
        key = max(terms)
        c = terms[key]
        r = max(c.coeffs)
        coeffs = dict(c.coeffs)
        coeffs[r] = -coeffs[r]
        terms[key] = FormalScalar(coeffs, c.trunc, _clean=True)
        return _rebuild(out, terms)
    if isinstance(out, LieSeries):
        terms = dict(out.terms)
        w = max(terms)
        terms[w] = tuple(-g for g in terms[w])
        return LieSeries(out.algebra, out.order, terms, _clean=True)
    if isinstance(out, float):
        return -out
    if isinstance(out, dict):
        out = json.loads(json.dumps(out))
        if "partial_sums" in out:
            out["partial_sums"][-1] = -out["partial_sums"][-1]
        else:
            out["status"] = "fail" if out["status"] == "pass" else "pass"
        return out
    raise TypeError(type(out))


def drop_order(out):
    """The same output with one h-order term (or one term) dropped."""
    if isinstance(out, TruncatedElement):
        return TruncatedElement(drop_order(out.base), out.cutoff)
    if isinstance(out, (Polynomial, DifferentialOperator)):
        terms = dict(out.terms)
        higher = [k for k, c in terms.items() if max(c.coeffs) > 0]
        if not higher:
            del terms[max(terms)]
            return _rebuild(out, terms)
        key = max(higher)
        c = terms[key]
        coeffs = {r: g for r, g in c.coeffs.items() if r != max(c.coeffs)}
        terms[key] = FormalScalar(coeffs, c.trunc, _clean=True)
        return _rebuild(out, terms)
    if isinstance(out, LieSeries):
        terms = dict(out.terms)
        del terms[max(terms)]
        return LieSeries(out.algebra, out.order, terms, _clean=True)
    if isinstance(out, float):
        return out * (1 - 1e-9)
    if isinstance(out, dict):
        out = json.loads(json.dumps(out))
        if "partial_sums" in out:
            out["partial_sums"] = out["partial_sums"][:-1]
        elif "max_agreed_order" in out:
            out["max_agreed_order"] -= 1
        else:
            out["window"] = {k: v + 1 for k, v in out["window"].items()}
        return out
    raise TypeError(type(out))


@pytest.mark.parametrize("workload", ["flat", "gutt-bch"])
@pytest.mark.parametrize("corrupt", [flip_sign, drop_order])
def test_checks_reject_corrupted_outputs(rounds, workload, corrupt):
    ops, res = rounds[workload]
    for op, out in zip(ops, res.outputs):
        with pytest.raises(harness.CheckFailed):
            op.check(corrupt(out))


def test_cli_checks_reject_one_byte_of_difference(rounds):
    ops, res = rounds["cli"]
    for op, out in zip(ops, res.outputs):
        if out is None:   # a failed operation has no output to check
            continue
        rc, stdout = out
        if stdout:
            i = len(stdout) // 2
            bad = stdout[:i] + bytes([stdout[i] ^ 1]) + stdout[i + 1:]
        else:
            bad = b"\n"
        with pytest.raises(harness.CheckFailed):
            op.check((rc, bad))


def test_later_rounds_must_repeat_round_one():
    calls = []

    def flaky():
        calls.append(1)
        return len(calls)
    op = harness.Op("flaky", flaky, lambda out: None)
    with pytest.raises(harness.CheckFailed, match="differs from round 1"):
        harness.run_rounds([op], 1e-9, min_ops=2)


def test_timed_rounds_must_repeat_the_warm_up_round():
    calls = []

    def flaky():
        calls.append(1)
        return len(calls)
    op = harness.Op("flaky", flaky, lambda out: None)
    warm = harness.run_rounds([op], 0)
    with pytest.raises(harness.CheckFailed, match="differs from round 1"):
        harness.run_rounds([op], 0, after=warm)


def test_every_operation_is_scaled_by_the_reference_around_it():
    # a host that runs twice as slow from the third reference timing on
    refs = iter([1.0] * 2 + [2.0] * 100)
    ref = harness.Reference(lambda: next(refs), 1.0, 0.0)
    op = harness.Op("nap", lambda: None, lambda out: None)
    res = harness.run_rounds([op, op, op], 0, reference=ref)
    assert len(res.scaled) == len(res.times) == 3
    assert res.scaled[0] == pytest.approx(res.times[0])
    assert res.scaled[1] == pytest.approx(res.times[1] / 1.5)
    assert res.scaled[2] == pytest.approx(res.times[2] / 2)


# -- the command ---------------------------------------------------------------

def bench(*args, cwd=ROOT, timeout=170):
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                        *args], cwd=cwd, capture_output=True, text=True,
                       timeout=timeout)
    return p


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_command():
    cfg = load_config()
    assert [w["name"] for w in cfg["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in cfg["per_layer"]] == run.per_layer_names()
    assert {m["name"] for m in cfg["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_line_names_every_metric(trace):
    cfg = load_config()
    p = bench("--workload", "gutt-bch", "--seed", str(SEED),
              "--seconds", "0", "--trace", trace)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    want = cfg["end_to_end"] if trace == "0" else cfg["per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}


def test_traced_run_fails_loudly_when_a_span_is_not_wired():
    # Drop the star.star wrapper: flat owns that span, so the traced run
    # must stop instead of reporting zero.
    code = ("import sys, spans, run; "
            "spans.TARGETS = tuple(t for t in spans.TARGETS if t[0] != 'star.star'); "
            "sys.argv = ['run.py', '--workload', 'flat', '--seed', '1', "
            "'--seconds', '0', '--trace', '1']; run.main()")
    p = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                       text=True, timeout=170,
                       env=dict(os.environ, PYTHONPATH=BENCH))
    assert p.returncode == 3
    assert "star.star" in p.stderr


def test_by_value_imports_are_traced():
    # seminorms imports star by value; its calls must still be seen
    code = ("import spans; t = spans.Tracer(); spans.install(t); "
            "from starweyl.seminorms import weyl_relation_defect; "
            "from starweyl.star import standard_form, minus_i_hbar; "
            "weyl_relation_defect(standard_form(('q','p')), minus_i_hbar(), "
            "[1, 0], [0, 1], degree=1, orders=1); "
            "print(t.totals(1)['star.star']['calls'])")
    p = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                       text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                           [BENCH, os.path.join(ROOT, "src")])))
    assert p.returncode == 0, p.stderr
    assert float(p.stdout.split()[-1]) >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    p = bench("--workload", "flat", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=str(tmp_path))
    assert p.returncode != 0
    assert "correct" not in p.stdout
