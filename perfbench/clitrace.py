"""Run one starweyl CLI command with spans recorded.

    python3 clitrace.py OUT.json ARGV...

behaves like `python -m starweyl.cli ARGV...` (same stdout, stderr and exit
status) and writes the span statistics of the call, and the size of the
Lie caches of the algebras it loaded, to OUT.json. The traced cli workload
runs every command through it.
"""

import json
import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.phase = "rounds"
    spans.install(tracer)
    from starweyl import cli

    algebras = []
    load = cli._load_algebra

    def load_and_keep(name):
        alg = load(name)
        algebras.append(alg)
        return alg

    cli._load_algebra = load_and_keep
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": tracer.stats_rows(),
                       "cache_entries": spans.cache_entries(algebras)}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
