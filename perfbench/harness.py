"""Closed-loop runner shared by the workloads.

A workload is a fixed list of operations built from the seed (one round).
The runner repeats whole rounds, one operation at a time, until the timed
operations add up to the requested seconds. Round 1 outputs are checked by
each operation's own check, which works from computations made apart from
starweyl or from properties the method must have; later rounds must give
outputs equal to round 1.
"""

import time
from fractions import Fraction


# -- host speed ---------------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host whose speed drifts by up
# to 3x for tens of seconds or minutes at a time, and the drift shows as CPU
# time, not as waiting, so no statistic over one run's raw times removes it.
# Every timing is therefore taken next to a fixed reference task that does
# not use starweyl, and scaled by (the reference's nominal time) / (its time
# now): a figure reads as on a host that runs the reference in its nominal
# time. A change to starweyl moves the scaled figures as it moves the raw
# ones; the host's drift moves both sides of the ratio and cancels.


class Reference:
    """A reference task: `measure()` returns its wall time now, `nominal`
    is that time on an idle host, and a run measures it again after every
    `every` seconds of timed work."""

    def __init__(self, measure, nominal, every):
        self.measure = measure
        self.nominal = nominal
        self.every = every

    def scaled(self, seconds, before, after):
        """`seconds` of work timed between two reference timings `before`
        and `after`, scaled to the nominal host speed."""
        return seconds * self.nominal * 2 / (before + after)


_REF_A = {(i, j): Fraction(2 * i + 1, j + 2) for i in range(6) for j in range(6)}
_REF_B = {(i, j): Fraction(j - 3, 2 * i + 3) for i in range(6) for j in range(6)}


def _reference_product():
    out = {}
    for (i1, j1), x in _REF_A.items():
        for (i2, j2), y in _REF_B.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + x * y
    return out


def product_seconds(samples=5):
    """Mean wall time of the reference product, taken now, after one
    untimed product that warms the caches an operation may have cooled."""
    _reference_product()
    t0 = time.perf_counter()
    for _ in range(samples):
        _reference_product()
    return (time.perf_counter() - t0) / samples


# In-process work: a product of two 36-term polynomials with Fraction
# coefficients held in dicts, the kind of work the starweyl kernels do;
# 3.6 ms on an idle 2-core test host.
PRODUCT = Reference(product_seconds, 0.0036, 0.3)


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


class OpFailed(Exception):
    """An operation failed (raised, or exited with the wrong status)."""


class Op:
    """One operation: `run()` returns the output, `check(out)` raises
    CheckFailed when the output is wrong. `group` names the kind of
    operation for per-kind figures."""

    __slots__ = ("group", "run", "check")

    def __init__(self, group, run, check):
        self.group = group
        self.run = run
        self.check = check


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class RunResult:
    __slots__ = ("times", "scaled", "groups", "attempted", "failed", "rounds",
                 "outputs", "errors", "check_s")

    def __init__(self):
        self.times = []       # seconds per attempted operation, in order
        self.scaled = []      # the same, scaled to the reference host speed
        self.groups = []      # group of each timed operation
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.outputs = []     # round-1 outputs, index-aligned with the ops
        self.errors = []      # first line of each failure, round 1 only
        self.check_s = 0.0    # wall time spent checking round 1

    def ops_per_s(self):
        """Completed operations per second of timed work, at the reference
        host speed."""
        return (self.attempted - self.failed) / sum(self.scaled)


def run_rounds(ops, seconds, min_ops=0, after=None, reference=PRODUCT):
    """Run whole rounds of `ops` until the timed work reaches `seconds`
    and at least `min_ops` operations were attempted.

    `after` is the result of an earlier (warm-up) round of the same ops:
    its checked outputs stand for round 1, and every round here must
    repeat them.

    A timing of `reference` is taken before the first operation and after
    every `reference.every` seconds of timed work; each operation is scaled
    by the two reference timings around it.

    Raises CheckFailed on the first wrong output.
    """
    res = RunResult()
    if after is not None:
        res.outputs, res.errors = after.outputs, after.errors
    busy = 0.0
    clock = time.perf_counter
    ref = reference.measure()
    pending, since = [], 0.0     # operations timed since the last reference

    def calibrate():
        nonlocal ref, pending, since
        now = reference.measure()
        res.scaled.extend(reference.scaled(res.times[i], ref, now)
                          for i in pending)
        ref, pending, since = now, [], 0.0

    while True:
        first = res.rounds == 0 and after is None
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out = op.run()
                err = None
            except OpFailed as exc:
                out, err = None, exc
            dt = clock() - t0
            busy += dt
            since += dt
            pending.append(len(res.times))
            res.times.append(dt)
            if since >= reference.every:
                calibrate()
            res.groups.append(op.group)
            res.attempted += 1
            if err is not None:
                res.failed += 1
                if first:
                    res.errors.append(f"{op.group}: {err}")
                    res.outputs.append(None)
                continue
            if first:
                t0 = clock()
                try:
                    op.check(out)
                except CheckFailed as exc:
                    raise CheckFailed(f"{op.group} (op {i}): {exc}") from None
                res.check_s += clock() - t0
                res.outputs.append(out)
            elif out != res.outputs[i]:
                raise CheckFailed(
                    f"{op.group} (op {i}): round {res.rounds + 1} output "
                    "differs from round 1"
                )
        res.rounds += 1
        if busy >= seconds and res.attempted >= min_ops:
            calibrate()
            return res


# -- seeded inputs -------------------------------------------------------------

# A coefficient is +-7/2, +-11/3 or +-13/5 by its position in a vector; the
# seed picks the signs. Every seed then gives numbers of the same size: with
# freely drawn rationals the cost of the exact arithmetic, and so of every
# operation, changes with the seed by more than the run-to-run noise.
MAGNITUDES = (Fraction(7, 2), Fraction(11, 3), Fraction(13, 5))


def rand_q(rng, k=0):
    """A random coefficient for position k of a vector."""
    return rng.choice((-1, 1)) * MAGNITUDES[k % 3]


def rand_vec(rng, n, start=0):
    return [rand_q(rng, start + k) for k in range(n)]


def q_text(c):
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def affine_text(names, coeffs, const=0):
    """Text of sum coeffs[i]*names[i] + const, parseable by starweyl."""
    parts = [f"({q_text(c)})*{nm}" for nm, c in zip(names, coeffs) if c]
    if const:
        parts.append(f"({q_text(const)})")
    return " + ".join(parts)
