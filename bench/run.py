"""Run one workload of the trunca benchmark and print its metrics.

    python3 bench/run.py --workload qpsum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; trunca is imported from its ``src``.  Set-up
(importing trunca and generating the seeded inputs) is done several times
and its median reported.  Then whole rounds of the workload's fixed case
list run until ``--seconds`` have passed.  Only the program calls are
timed; each case's output is checked afterwards.  ``--trace 1`` runs one
round with every layer wrapped and prints per-layer metrics instead.
``--smoke`` runs one reduced round, for the benchmark's own test.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Details go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CaseFailed  # noqa: E402


def import_trunca():
    """A fresh import of trunca: earlier copies are dropped from sys.modules."""
    for name in [n for n in sys.modules if n == "trunca" or n.startswith("trunca.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        cli=importlib.import_module("trunca.cli"),
        rootdata=importlib.import_module("trunca.rootdata"),
        quasipoly=importlib.import_module("trunca.quasipoly"),
        charfield=importlib.import_module("trunca.charfield"),
    )


def setup(workload, seed, smoke):
    make_inputs = WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_trunca()
        inputs = make_inputs(seed, 0, smoke)
        times.append(time.perf_counter() - start)
    return statistics.median(times), lib, inputs


def run_case(case, tracer, case_id):
    """Time the call alone; then check its output.  Returns (seconds,
    status, message) with status "ok", "failed" or "wrong"."""
    start = time.perf_counter()
    try:
        out = case.call() if tracer is None else tracer.run_case(case_id, case.call)
    except CaseFailed as exc:
        return time.perf_counter() - start, "failed", str(exc)
    except Exception:  # any program error fails this case; the run goes on
        elapsed = time.perf_counter() - start
        return elapsed, "failed", traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    try:
        message = case.check(out)
    except Exception:  # output the check cannot read is wrong output
        message = traceback.format_exc(limit=3)
    return elapsed, ("wrong" if message else "ok"), message


def measure(args, lib, inputs, tracer, one_round):
    """Whole rounds until ``args.seconds`` have passed (or just one)."""
    make_inputs, make_round = WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    records = []
    start = time.perf_counter()
    for round_no in itertools.count():
        if round_no:
            inputs = make_inputs(args.seed, round_no, args.smoke)
        for case in make_round(lib, inputs):
            elapsed, status, message = run_case(case, tracer, len(records))
            records.append((case.kind, case.label, elapsed, status, message))
            if message:
                print(f"{status}: {case.label}: {message}", file=sys.stderr)
        if one_round or time.perf_counter() - start >= args.seconds:
            return records


def end_to_end(records, setup_s):
    latencies = [r[2] * 1000 for r in records]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = (
        ("cases_per_s", "1/s", len(records) / (sum(latencies) / 1000)),
        ("case_p50_ms", "ms", cuts[49]),
        ("case_p95_ms", "ms", cuts[94]),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", rss_kb / 1024),
    )
    return {name: {"value": value, "unit": unit} for name, unit, value in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced round (the benchmark's own test)")
    args = parser.parse_args(argv)

    if not (SRC / "trunca" / "__init__.py").is_file():
        print(f"bench: no trunca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, lib, inputs = setup(args.workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    records = measure(args, lib, inputs, tracer,
                      one_round=bool(args.trace or args.smoke))
    failed = sum(r[3] == "failed" for r in records)
    wrong = sum(r[3] == "wrong" for r in records)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = end_to_end(records, setup_s)
    else:
        metrics = tracer.metrics()
        case_ms = 1000 * sum(r[2] for r in records)
        tracer.dump(RESULTS / f"trace-{stem}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "cases": len(records), "case_total_ms": case_ms})
        if tracer.absent:
            print(f"bench: absent from the program: {', '.join(tracer.absent)}",
                  file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds,
                  cases=[{"kind": k, "label": lbl, "ms": 1000 * s, "status": st}
                         for k, lbl, s, st, _ in records])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
