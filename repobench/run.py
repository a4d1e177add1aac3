"""Benchmark entry point: ``python3 repobench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Prints informational ``# ...`` lines (environment fingerprint, service
configuration, tails, the traced latency budget) and, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics
with ``--trace 1``). A run whose outputs fail the correctness gate prints
``correct: false`` with no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repobench.common import (  # noqa: E402
    ROOT, CheckoutError, GateFailure, check_checkout, cpu_ticks, fingerprint,
    info, make_workdir, pin_blas_threads, remove_workdir, result_line,
    steal_pct,
)

pin_blas_threads()

WORKLOADS = ("plan", "serve-spread", "serve-grown")


def declared_metrics(trace):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    info("run", workload=args.workload, seed=args.seed, seconds=args.seconds,
         trace=args.trace)
    ticks = cpu_ticks()
    info("env", **fingerprint())
    from repobench.serve_wl import service_defaults

    info("service-config", **service_defaults())
    work = make_workdir(args.workload)
    try:
        if args.workload == "plan":
            from repobench import plan_wl

            attempted, failed, metrics = plan_wl.run(
                args.seed, args.seconds, args.trace, work)
        else:
            from repobench import serve_wl

            attempted, failed, metrics = serve_wl.run(
                args.workload, args.seed, args.seconds, args.trace, work)
    except GateFailure as exc:
        print(f"# correctness gate failed: {exc}", file=sys.stderr)
        result_line(False, 1, 1, {})
        return 1
    finally:
        remove_workdir(work)
    info("env-after", host_probe_ms=round(fingerprint()["host_probe_ms"], 2),
         steal_pct=steal_pct(ticks, cpu_ticks()))

    if args.trace:
        # A layer the workload never calls did no work: it reads 0.
        metrics = {name: metrics.get(name, (0.0, unit)) for name, unit in declared.items()}
    unknown = set(metrics) ^ set(declared)
    wrong_units = [name for name, (_, unit) in metrics.items()
                   if declared.get(name) not in (None, unit)]
    if unknown or wrong_units:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(unknown)} "
                           f"{wrong_units}")
    result_line(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, then fail without a result line
        traceback.print_exc()
        sys.exit(3)
