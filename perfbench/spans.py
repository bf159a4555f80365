"""Spans around calls into starweyl's public functions.

Wrappers live here, not in the program. starweyl modules bind functions at
import (`seminorms` and `verify` import `star` by value, the CLI imports
most of the library by value), so `install` replaces every binding of each
traced function in every loaded `starweyl` module, not only the defining
one, and methods are patched on their class. Modules imported after
`install` (the workloads) pick up the wrappers through `from starweyl
import ...`.

A span is (id, name, start_ns, end_ns, parent_id). Self time is a span's
duration minus the time its child spans cover; it is accumulated while the
run goes, and the spans themselves are kept (up to a cap) and written out at
the end.
"""

import functools
import importlib
import json
import sys
import time

# (metric name, module, attribute, counter). attribute "Class.method" patches
# a method. Several targets may share one metric name.
TARGETS = (
    ("kernels.star_terms", "starweyl.kernels", "star_terms", "star_terms"),
    ("kernels.mul_terms", "starweyl.kernels", "mul_terms", "mul_terms"),
    ("kernels.p_lambda_terms", "starweyl.kernels", "p_lambda_terms", None),
    ("poly.add", "starweyl.poly", "Polynomial.__add__", None),
    ("poly.derivative", "starweyl.poly", "Polynomial.partial_derivative", None),
    ("parse.poly_from_text", "starweyl.poly", "poly_from_text", None),
    ("star.star", "starweyl.star", "star", None),
    ("star.ordering_apply", "starweyl.star", "OrderingOperator.apply", None),
    ("star.poisson_bracket", "starweyl.star", "poisson_bracket", None),
    ("ops.rep", "starweyl.ops", "std_rep", None),
    ("ops.rep", "starweyl.ops", "weyl_rep", None),
    ("ops.compose", "starweyl.ops", "DifferentialOperator.compose", None),
    ("ops.adjoint", "starweyl.ops", "DifferentialOperator.formal_adjoint", None),
    ("lie.gutt_star", "starweyl.lie", "gutt_star", None),
    ("lie.pbw", "starweyl.lie", "pbw_symmetrize", None),
    ("lie.pbw", "starweyl.lie", "pbw_symmetrize_inverse", None),
    ("lie.kks_bracket", "starweyl.lie", "kks_bracket", None),
    ("lie.check_bch_property", "starweyl.lie", "check_bch_property", None),
    ("lie.bch", "starweyl.lie", "bch", None),
    ("seminorms.weyl_relation", "starweyl.seminorms", "weyl_relation_defect", None),
    ("seminorms.inner_automorphism", "starweyl.seminorms",
     "inner_automorphism_defect", None),
    ("seminorms.translation", "starweyl.seminorms",
     "translation_automorphism_defect", None),
    ("seminorms.truncated_exponential", "starweyl.seminorms",
     "truncated_exponential", None),
    ("seminorms.seminorm_pR", "starweyl.seminorms", "seminorm_pR", None),
    ("seminorms.continuity", "starweyl.seminorms", "star_continuity_report", None),
    ("seminorms.convergence_report", "starweyl.seminorms",
     "exponential_convergence_report", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _pairs(a, b):
    return len(a) * len(b)


# counters: extra per-call counts, from the arguments and the result
COUNTERS = {
    # star_terms(entries, zfacts, a, b, rmax)
    "star_terms": lambda args, out: {"in_pairs": _pairs(args[2], args[3]),
                                     "out_terms": len(out)},
    "mul_terms": lambda args, out: {"in_pairs": _pairs(args[0], args[1])},
}

KEEP_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.enabled = True
        self.phase = "setup"
        self.stats = {}       # (phase, name) -> [calls, self_ns, {counter: n}]
        self.spans = []
        self.dropped = 0
        self._stack = []      # [span id, child ns]
        self._next_id = 0

    def wrap(self, name, fn, counter=None):
        count = COUNTERS.get(counter)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = self.stats.setdefault((self.phase, name), [0, 0, {}])
                st[0] += 1
                st[1] += dur - frame[1]
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((sid, name, t0, t1, parent))
                else:
                    self.dropped += 1
            if count is not None:
                for k, v in count(args, out).items():
                    st[2][k] = st[2].get(k, 0) + v
            return out
        return traced

    def totals(self, rounds):
        """{name: {"calls", "self_ms", counters...}}: set-up once plus the
        mean over rounds of the rounds phase."""
        out = {name: {"calls": 0, "self_ms": 0.0} for name in SPAN_NAMES}
        for (phase, name), (calls, self_ns, counts) in self.stats.items():
            div = rounds if phase == "rounds" else 1
            row = out[name]
            row["calls"] += calls / div
            row["self_ms"] += self_ns / 1e6 / div
            for k, v in counts.items():
                row[k] = row.get(k, 0) + v / div
        return out

    def stats_rows(self):
        return [[phase, name, calls, self_ns, counts]
                for (phase, name), (calls, self_ns, counts) in self.stats.items()]

    def merge(self, rows):
        """Add stats_rows() from another process."""
        for phase, name, calls, self_ns, counts in rows:
            st = self.stats.setdefault((phase, name), [0, 0, {}])
            st[0] += calls
            st[1] += self_ns
            for k, v in counts.items():
                st[2][k] = st[2].get(k, 0) + v

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def install(tracer):
    """Wrap every target, in every loaded starweyl module that binds it
    (this includes starweyl.kernels.pure, whose star_terms looks
    p_lambda_terms up in its own globals)."""
    importlib.import_module("starweyl.cli")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "starweyl" or n.startswith("starweyl."))]
    for name, modname, attr, counter in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), counter))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, counter)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


CACHE_SLOTS = ("_cache_leftmul", "_cache_sym", "_cache_monomul",
               "_cache_guttmono")


def cache_entries(algebras):
    """Total size of the four per-algebra caches of `algebras`."""
    return sum(len(getattr(alg, slot)) for alg in algebras for slot in CACHE_SLOTS)
