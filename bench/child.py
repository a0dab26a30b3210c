"""Child process of the benchmark: one set-up or one CLI invocation.

    python3 child.py setup --outdir DIR --n-stocks N --m-days M --n-years Y --seed S
    python3 child.py cli [--spans FILE] -- <manifold-index arguments>

``setup`` generates a synthetic market and writes ``quotes.csv`` and
``benchmark.csv``; it prints one JSON line with the generation and write
times and the numeric environment.  ``cli`` calls ``manifold_index.cli.main``
and exits with its return code; with ``--spans`` it traces the run and
writes the spans to FILE.  The package is found through PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(args) -> int:
    from manifold_index import synth

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = synth.SynthConfig(
        n_stocks=args.n_stocks, m_days=args.m_days, n_years=args.n_years, seed=args.seed
    )
    t0 = time.perf_counter()
    market = synth.generate_market(config)
    t1 = time.perf_counter()
    synth.write_quotes_csv(outdir / "quotes.csv", market)
    synth.write_benchmark_csv(outdir / "benchmark.csv", market.benchmark)
    t2 = time.perf_counter()
    print(json.dumps({"generate_s": t1 - t0, "write_s": t2 - t1, "env": environment()}))
    return 0


def run_cli(args) -> int:
    if args.spans is None:
        from manifold_index import cli

        return cli.main(args.argv)

    from tracing import IMPORT_SPAN, Tracer

    t0 = time.perf_counter()
    from manifold_index import cli

    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.add(IMPORT_SPAN, t0, t1)
    absent = tracer.install()
    try:
        return cli.main(args.argv)
    finally:
        Path(args.spans).write_text(json.dumps({"spans": tracer.spans, "absent": absent}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--outdir", required=True)
    p_setup.add_argument("--n-stocks", type=int, required=True)
    p_setup.add_argument("--m-days", type=int, required=True)
    p_setup.add_argument("--n-years", type=int, required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
