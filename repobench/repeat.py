"""Run one workload over several seeds and print each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), next to its bound in ``BENCHMARK.json``.

    python3 repobench/repeat.py --workload serve-spread --runs 10 [--first-seed 100]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        probes = [line.split("host_probe_ms=")[1].split()[0]
                  for line in lines if "host_probe_ms=" in line]
        steal = [line.split("steal_pct=")[1].split()[0]
                 for line in lines if "steal_pct=" in line]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"host_probe_ms={'/'.join(probes)} steal_pct={''.join(steal)} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, series in values.items():
        median = statistics.median(series)
        spread = "n/a"
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        print(f"{name:<28} median={median:<12.5g} spread={spread:<8} "
              f"bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
