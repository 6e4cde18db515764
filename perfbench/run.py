"""Run one benchmark workload against the program in ``src/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload link_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics and writes its spans
to ``.perfbench_traces/<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A traced run whose child spans cover less than this share of the traced
# wall time leaves too much unexplained to attribute; it fails its checks.
MIN_COVERAGE = 0.9

# workload -> (module, function)
WORKLOADS = {
    "link_cold": ("link", "run_link_cold"),
    "link_parallel": ("link", "run_link_parallel"),
    "train_adapt": ("train", "run_train_adapt"),
    "serve_mixed": ("serve", "run_serve_mixed"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the measured operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program to measure: {SRC / 'repro'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # One BLAS thread per process, set before numpy loads.  On a 2-CPU
    # machine, link_parallel's two workers with a BLAS thread per CPU each
    # took 6.2-7.7 s per linkage instead of 4.3-4.7 s: the run measured the
    # scheduler, not the program.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]
    from common import peak_rss_mb

    module, function = WORKLOADS[args.workload]
    run = getattr(importlib.import_module(module), function)
    cache = ROOT / ".perfbench_work" / "cache"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache.mkdir(exist_ok=True)
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), work, cache)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome["checks"]
    if args.trace:
        coverage = outcome["layers"]["trace.coverage_ratio"]
        checks.require(MIN_COVERAGE <= coverage <= 1.0,
                       f"trace.coverage_ratio {coverage:.3f} is outside [{MIN_COVERAGE}, 1]")
        declared = spec["per_layer"]
        values = {entry["name"]: float(outcome["layers"].get(entry["name"], 0.0))
                  for entry in declared}
        unknown = set(outcome["layers"]) - set(values)
        traces = ROOT / ".perfbench_traces"
        traces.mkdir(exist_ok=True)
        outcome["tracer"].write(traces / f"{args.workload}-{args.seed}.jsonl")
    else:
        # Every workload reports every end-to-end metric.
        declared = spec["end_to_end"]
        produced = dict(outcome["metrics"], peak_rss_mb=peak_rss_mb())
        missing = [entry["name"] for entry in declared if entry["name"] not in produced]
        if missing:
            raise KeyError(f"{args.workload} did not measure {missing}")
        values = {entry["name"]: float(produced[entry["name"]]) for entry in declared}
        unknown = set(produced) - set(values)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    units = {entry["name"]: entry["unit"] for entry in declared}

    for note in outcome.get("notes", ()):
        print(f"# {args.workload}: {note}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome.get("failed", 0)),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
