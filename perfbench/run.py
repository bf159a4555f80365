"""starweyl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; starweyl is imported from ./src
(pure Python, nothing to build). One process, one operation at a time; the
cli workload runs one subprocess at a time. The last line of stdout is a
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run. Each run also writes its figures, with the git revision, Python
version, core count, kernel backend and seed, to perfbench/results/.
See perfbench/README.md.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

# workload -> the modules whose operations make up one round
WORKLOADS = {
    "flat": ("flat_star", "weyl_diag"),
    "gutt-bch": ("gutt_bch",),
    "cli": ("cli_mix",),
}
SETUP_SAMPLES = 3        # in-process: this process and two fresh ones
CLI_SETUP_SAMPLES = 9    # cli: fresh interpreters that only import starweyl

# The reference Gutt product and BCH inputs of the per-layer probes.
GUTT_REF = ("(x+y+z)^5", "(x-2*y+z)^5")
BCH_REF = ((1, 0, 0), (0, 1, 0))           # H and E on sl2
CONFIG_REF = {
    "generators": ["a", "b", "c"], "domain": "formal", "truncation": 6,
    "lambda": {"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
    "z": None, "seminorm": {"weights": [1, 1, 2], "R": 1.0},
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "starweyl", "__init__.py")):
        fail(f"no starweyl source under {SRC}; run from a source checkout")
    sys.path.insert(1, SRC)


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def wall(cmd):
    t0 = time.perf_counter()
    p = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=170)
    dt = time.perf_counter() - t0
    if p.returncode != 0:
        fail(f"{cmd} exited {p.returncode}: {p.stderr.decode()[-500:]}", 1)
    return dt, p.stdout


# -- set-up ---------------------------------------------------------------------

def build_ops(workload, seed, work, trace=False):
    """Import starweyl and the workload modules and build the inputs.

    Returns (modules, extra, ops): extra is the algebras for gutt-bch and
    the subprocess runner for cli."""
    mods = [importlib.import_module(name) for name in WORKLOADS[workload]]
    if workload == "cli":
        script = os.path.join(BENCH, "clitrace.py") if trace else None
        runner = mods[0].Runner(SRC, work, script)
        return mods, runner, mods[0].build(seed, runner, work)
    if workload == "gutt-bch":
        algs = mods[0].algebras()
        return mods, algs, mods[0].build(seed, algs)
    return mods, None, [op for mod in mods for op in mod.build(seed)]


def warms_up(mods):
    """Whether the workload's set-up ends with one untimed round."""
    return any(getattr(mod, "WARM_UP", False) for mod in mods)


def setup_probe(workload, seed):
    """Child mode: time import + build (+ the warm-up round) in this fresh
    interpreter."""
    import harness

    ref = harness.PRODUCT
    before = ref.measure()
    t0 = time.perf_counter()
    use_checkout_source()
    mods, _, ops = build_ops(workload, seed, None)
    if warms_up(mods):
        for op in ops:
            op.run()
    dt = time.perf_counter() - t0
    print(ref.scaled(dt, before, ref.measure()))


def setup_seconds(workload, seed, first, ref):
    """Median of several set-ups, each scaled to the nominal host speed of
    `ref`; `first` is this process's own, already scaled."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import starweyl"]
        samples = []
        for _ in range(CLI_SETUP_SAMPLES):
            before = ref.measure()
            dt = wall(cmd)[0]
            samples.append(ref.scaled(dt, before, ref.measure()))
        return statistics.median(samples)
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        _, out = wall([sys.executable, os.path.abspath(__file__), "--setup-probe",
                       "--workload", workload, "--seed", str(seed)])
        samples.append(float(out.decode().split()[-1]))
    return statistics.median(samples)


# -- end-to-end metrics ------------------------------------------------------------

def end_to_end(workload, res, setup_s):
    import harness

    ms = [t * 1e3 for t in res.scaled]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res.ops_per_s(), "ops/s"),
        "op_p50_ms": (harness.percentile(ms, 50), "ms"),
        "op_p90_ms": (harness.percentile(ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# -- per-layer metrics -----------------------------------------------------------

SPAN_METRICS = (
    ("kernels.star_terms", ("self_ms", "calls", "in_pairs", "out_terms")),
    ("kernels.mul_terms", ("self_ms", "in_pairs")),
    ("kernels.p_lambda_terms", ("self_ms",)),
    ("poly.add", ("self_ms", "calls")),
    ("poly.derivative", ("self_ms",)),
    ("parse.poly_from_text", ("self_ms",)),
    ("star.star", ("self_ms",)),
    ("star.ordering_apply", ("self_ms",)),
    ("star.poisson_bracket", ("self_ms",)),
    ("ops.rep", ("self_ms",)),
    ("ops.compose", ("self_ms",)),
    ("ops.adjoint", ("self_ms",)),
    ("lie.gutt_star", ("self_ms", "calls")),
    ("lie.pbw", ("self_ms",)),
    ("lie.kks_bracket", ("self_ms",)),
    ("lie.check_bch_property", ("self_ms",)),
    ("seminorms.weyl_relation", ("self_ms",)),
    ("seminorms.inner_automorphism", ("self_ms",)),
    ("seminorms.translation", ("self_ms",)),
    ("seminorms.truncated_exponential", ("self_ms",)),
    ("seminorms.seminorm_pR", ("self_ms",)),
    ("seminorms.continuity", ("self_ms",)),
    ("seminorms.convergence_report", ("self_ms",)),
)
BCH_ORDERS = (4, 5, 6, 7, 8)


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    import cli_mix

    names = [(f"{span}.{field}", "ms" if field == "self_ms" else "count")
             for span, fields in SPAN_METRICS for field in fields]
    names += [("scalars.gr_mul_ns", "ns"), ("scalars.gr_add_ns", "ns"),
              ("scalars.fs_mul_ns", "ns"), ("scalars.max_den_bits", "bits")]
    names += [(f"lie.bch.o{k}_ms", "ms") for k in BCH_ORDERS]
    names += [("lie.gutt_cold_ms", "ms"), ("lie.gutt_warm_ms", "ms"),
              ("lie.cache_entries", "count"), ("session.build_ms", "ms"),
              ("cli.interp_ms", "ms"), ("cli.import_ms", "ms")]
    names += [(f"cli.{g}.p50_ms", "ms") for g in cli_mix.COMMANDS + (cli_mix.USAGE,)]
    return names


def _coefficients(outputs):
    """FormalScalar and GaussianRational coefficients of round-1 outputs."""
    from starweyl import (DifferentialOperator, FormalScalar, LieSeries,
                          Polynomial, TruncatedElement)

    fss, grs = [], []
    for out in outputs:
        if isinstance(out, TruncatedElement):
            out = out.base
        if isinstance(out, (Polynomial, DifferentialOperator)):
            for c in out.terms.values():
                if isinstance(c, FormalScalar):
                    fss.append(c)
                    grs.extend(c.coeffs.values())
        elif isinstance(out, LieSeries):
            for vec in out.terms.values():
                grs.extend(g for g in vec if g)
    return fss, grs


def _ns_per_op(fn, pairs, repeats=5, inner=20):
    clock = time.perf_counter_ns
    per = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(inner):
            for a, b in pairs:
                fn(a, b)
        per.append((clock() - t0) / (inner * len(pairs)))
    return statistics.median(per)


def scalar_metrics(outputs):
    import operator

    fss, grs = _coefficients(outputs)
    bits = max((max(g.re.denominator.bit_length(), g.im.denominator.bit_length())
                for g in grs), default=0)
    grs, fss = grs[:256], fss[:256]
    gpairs = list(zip(grs, grs[1:] + grs[:1]))
    fpairs = list(zip(fss, fss[1:] + fss[:1]))
    return {
        "scalars.gr_mul_ns": _ns_per_op(operator.mul, gpairs),
        "scalars.gr_add_ns": _ns_per_op(operator.add, gpairs),
        "scalars.fs_mul_ns": _ns_per_op(operator.mul, fpairs, inner=5),
        "scalars.max_den_bits": bits,
    }


def probe_metrics():
    """Reference timings taken the same way on every workload."""
    from starweyl import Session, bch, gutt_star, poly_from_text, sl2

    out = {}
    alg = sl2()
    for k in BCH_ORDERS:
        t0 = time.perf_counter()
        bch(alg, BCH_REF[0], BCH_REF[1], k)
        out[f"lie.bch.o{k}_ms"] = (time.perf_counter() - t0) * 1e3
    alg = sl2()
    f, g = (poly_from_text(t, alg.coords) for t in GUTT_REF)
    t0 = time.perf_counter()
    gutt_star(alg, f, g)
    out["lie.gutt_cold_ms"] = (time.perf_counter() - t0) * 1e3
    warm = []
    for _ in range(3):
        t0 = time.perf_counter()
        gutt_star(alg, f, g)
        warm.append((time.perf_counter() - t0) * 1e3)
    out["lie.gutt_warm_ms"] = statistics.median(warm)
    builds = []
    for _ in range(20):
        t0 = time.perf_counter()
        Session.default()
        Session.from_config(CONFIG_REF)
        builds.append((time.perf_counter() - t0) * 1e3)
    out["session.build_ms"] = statistics.median(builds)
    interp = statistics.median(
        wall([sys.executable, "-c", "pass"])[0] for _ in range(5)) * 1e3
    imp = statistics.median(
        wall([sys.executable, "-c", "import starweyl"])[0] for _ in range(5)) * 1e3
    out["cli.interp_ms"] = interp
    out["cli.import_ms"] = imp - interp
    return out


# -- the run -------------------------------------------------------------------------

def run(args):
    import harness
    import spans

    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, f"work-{args.workload}")
    os.makedirs(work, exist_ok=True)

    tracer = None
    ref = harness.PRODUCT
    before = ref.measure()
    t0 = time.perf_counter()
    importlib.import_module("starweyl")
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    mods, extra, ops = build_ops(args.workload, args.seed, work, args.trace)
    first_setup = ref.scaled(time.perf_counter() - t0, before, ref.measure())
    # the workload's own reference task, if it has one, from here on
    ref = next((mod.REFERENCE for mod in mods if hasattr(mod, "REFERENCE")), ref)

    if tracer is not None:
        for op in ops:
            op.check = _untraced(tracer, op.check)

    min_ops = max(getattr(mod, "MIN_OPS", 0) for mod in mods)
    correct = True
    try:
        warm = None
        if warms_up(mods):
            # round 1, checked, fills the caches as set-up
            warm = harness.run_rounds(ops, 0, reference=ref)
            first_setup += sum(warm.scaled)
        if tracer is not None:
            tracer.phase = "rounds"
        res = harness.run_rounds(ops, args.seconds, min_ops, after=warm,
                                 reference=ref)
    except harness.CheckFailed as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        correct = False
        res = None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "backend": importlib.import_module("starweyl.kernels").BACKEND,
        "correct": correct,
    }
    if not correct:
        _finish(record, {}, 0, 0, 1)

    groups = {}
    for g, t in zip(res.groups, res.scaled):
        groups.setdefault(g, []).append(t * 1e3)
    record["wall_s"] = {   # where the run's wall time went, unscaled
        "warm_up": sum(warm.times) if warm else 0.0,
        "checks": res.check_s + (warm.check_s if warm else 0.0),
        "timed": sum(res.times)}
    record.update(attempted=res.attempted, failed=res.failed, rounds=res.rounds,
                  ops_per_s=res.ops_per_s(), failures=res.errors,
                  group_p50_ms={g: statistics.median(ts) for g, ts in groups.items()},
                  op_ms=[[t * 1e3 for t in res.times[i::len(ops)]]
                         for i in range(len(ops))],
                  op_scaled_ms=[[t * 1e3 for t in res.scaled[i::len(ops)]]
                                for i in range(len(ops))],
                  op_groups=[op.group for op in ops])
    if not args.trace:
        metrics = end_to_end(args.workload, res,
                             setup_seconds(args.workload, args.seed, first_setup,
                                           ref))
        _finish(record, metrics, res.attempted, res.failed, 0)

    # traced run: per-layer figures
    tracer.enabled = False
    values = {}
    if args.workload == "cli":
        for path in extra.trace_files:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            tracer.merge(data["stats"])
            values["lie.cache_entries"] = values.get("lie.cache_entries", 0) \
                + data["cache_entries"] / res.rounds
        outputs = mods[0].json_polynomials(res.outputs)
    else:
        outputs = res.outputs
        values["lie.cache_entries"] = (
            spans.cache_entries(extra.values()) if extra else 0)
    totals = tracer.totals(res.rounds)
    for span, fields in SPAN_METRICS:
        for field in fields:
            values[f"{span}.{field}"] = totals[span].get(field, 0)
    owned = dict.fromkeys(s for mod in mods for s in mod.OWNED_SPANS)
    missing = [s for s in owned if totals[s]["calls"] == 0]
    if missing:
        fail(f"traced run of {args.workload}: no calls recorded for "
             f"{', '.join(missing)}; a wrapper is not in place", 3)
    values.update(scalar_metrics(outputs))
    values.update(probe_metrics())
    import cli_mix
    for g in cli_mix.COMMANDS + (cli_mix.USAGE,):
        ts = groups.get(g) if args.workload == "cli" else None
        values[f"cli.{g}.p50_ms"] = statistics.median(ts) if ts else 0.0
    tracer.dump(os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.json"))
    metrics = {name: (values.get(name, 0), unit) for name, unit in per_layer_names()}
    _finish(record, metrics, res.attempted, res.failed, 0)


def _untraced(tracer, check):
    def run_check(out):
        tracer.enabled = False
        try:
            check(out)
        finally:
            tracer.enabled = True
    return run_check


def _finish(record, metrics, attempted, failed, code):
    out = {"correct": record["correct"], "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["metrics"] = out["metrics"]
    record.setdefault("wall_s", {})["run"] = time.perf_counter() - START
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(out))
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    use_checkout_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    run(args)


if __name__ == "__main__":
    main()
