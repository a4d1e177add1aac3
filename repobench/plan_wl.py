"""``plan``: the paper's decomposition cost, through the library.

Each measurement runs in a fresh Python process (:func:`child_main`), so
``setup_s`` covers interpreter start, imports and building the inputs.
The parent launches one measuring process between set-up-only ones
(:data:`SETUP_REPEATS` in all) and reports the median set-up.

The measuring process plans a fixed set cold with ``mechanism="auto"``
:data:`COLD_PASSES` times, each pass on a fresh disk plan cache and each
cold plan followed by one slice of library releases (keyed executes and
replays through the in-process engine; no service, no ledger), so that
both the fits and the releases are sampled over the whole run. It then
plans the set once more from the first pass's cache.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

#: ``(family, m, n, s)``: WRelated cells where LRM wins, WRange cells
#: where LRM is fitted and loses to LM. The WRange 64x256 fit runs the
#: solver to its iteration cap: about 30 s of the set's 35-40 s on a 2-CPU
#: Xeon. A long set spreads the measurement over the host's slow and fast
#: spells, which a single short fit does not.
PLAN_SET = (
    ("wrelated", 64, 256, 8),
    ("wrelated", 64, 512, 8),
    ("wrange", 32, 128, None),
    ("wrange", 64, 256, None),
)
WORKLOAD_SEED = 20120901
EPSILON_HINT = 0.1
#: Library releases: a power of two, so spent-budget sums are exact.
EPSILON = 0.125
BUDGET = 1e6
#: Cold passes over the set per measuring process. The fits repeat the
#: same solver iterations every time, so a slower pass only measured a
#: slower moment of the shared host: ``plan_s`` sums, per cell, the fastest
#: of the passes (the estimator ``timeit`` uses for fixed work).
COLD_PASSES = 2
#: The release slices together last RELEASE_SHARE of ``--seconds`` (the
#: cold passes are fixed work on top). Once every plan of the set exists,
#: one slice follows each cold plan. A slice runs one release block every
#: RELEASE_EVERY seconds: BLOCK_FRESH keyed executes with BLOCK_REPLAYS
#: replays of earlier keys mixed in, shared evenly by the plans. Blocks
#: spread over the run sample the shared host's speed at many moments.
RELEASE_SHARE = 0.5
RELEASE_EVERY = 0.2
BLOCK_FRESH = 100
BLOCK_REPLAYS = 20
SETUP_REPEATS = 5
CHILD_TIMEOUT = 170.0


def _inputs(seed):
    """``(label, workload, data)`` per cell. The matrices are fixed, so the
    cold pass repeats the same solver iterations on every run; the data
    follow the seed."""
    import numpy as np

    from repro.workloads.generators import wrange, wrelated

    rng = np.random.default_rng([seed, 0])
    inputs = []
    for index, (family, m, n, s) in enumerate(PLAN_SET):
        if family == "wrelated":
            workload = wrelated(m, n, s=s, seed=WORKLOAD_SEED + index)
        else:
            workload = wrange(m, n, seed=WORKLOAD_SEED + index)
        data = rng.integers(0, 1000, size=n).astype(np.float64)
        inputs.append((f"{family}-{m}x{n}", workload, data))
    return inputs


def error_ratio(plans):
    """Geometric mean over ``plans`` of the chosen mechanism's predicted
    error divided by LM's, from each plan's candidate table."""
    from repobench import stats

    ratios = []
    for plan in plans:
        errors = {c.label: c.expected_error for c in plan.candidates if c.ok}
        chosen = next(c for c in plan.candidates if c.chosen)
        ratios.append(chosen.expected_error / errors["LM"])
    return stats.geomean(ratios)


class _Releaser:
    """Keyed library releases of one plan through the engine that planned
    it; checks every output."""

    def __init__(self, engine, plan, label):
        self.engine = engine
        self.plan = plan
        self.label = label
        self.originals = []  # (key, values) of every fresh release
        self.fresh = []      # latencies, seconds
        self.replay = []

    def run(self, rng, count, replays):
        """``count`` fresh keyed executes with ``replays`` replays of
        earlier keys mixed in."""
        from repobench import gate

        fresh, replay = self.fresh, self.replay
        replay_at = set(rng.choice(range(1, count), size=replays,
                                   replace=False).tolist())
        for index in range(count):
            if index in replay_at:
                key, values = self.originals[int(rng.integers(len(self.originals)))]
                begin = time.perf_counter()
                release = self.engine.execute(self.plan, EPSILON, request_key=key)
                replay.append(time.perf_counter() - begin)
                gate.check_replay_values({"values": release.answers.tolist()}, values)
            key = f"{self.label}-{len(self.originals)}"
            begin = time.perf_counter()
            release = self.engine.execute(self.plan, EPSILON, request_key=key)
            fresh.append(time.perf_counter() - begin)
            values = release.answers.tolist()
            gate.check_fresh({"values": values}, self.plan.shape[0])
            self.originals.append((key, values))

    def check_spent(self):
        from repobench import gate

        gate.check_spent(self.label, self.engine.spent_budget,
                         len(self.originals), EPSILON)


def _release_slice(releasers, rng, seconds):
    """``seconds / RELEASE_EVERY`` blocks on a fixed cadence (a late block
    runs at once). A block's BLOCK_FRESH executes and BLOCK_REPLAYS replays
    are shared evenly by the plans."""
    started = time.monotonic()
    for index in range(max(1, round(seconds / RELEASE_EVERY))):
        delay = started + index * RELEASE_EVERY - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        for releaser in releasers:
            releaser.run(rng, BLOCK_FRESH // len(releasers),
                         BLOCK_REPLAYS // len(releasers))


def _measure(seed, inputs, cache_dir, seconds, passes):
    """``passes`` cold passes over the set, each on a fresh disk plan cache,
    with one release slice after every cold plan from the last of the first
    pass on; then the cached pass."""
    import numpy as np

    from repro.engine.query_engine import PrivateQueryEngine

    from repobench import gate, stats

    rng = np.random.default_rng([seed, 1])
    slice_s = seconds * RELEASE_SHARE / ((passes - 1) * len(inputs) + 1)
    cell_seconds, plans, releasers = [], [], []
    for index in range(passes):
        pass_seconds, pass_plans = [], []
        for label, workload, data in inputs:
            engine = PrivateQueryEngine(data, BUDGET,
                                        plan_cache=cache_dir / f"cold-{index}")
            begin = time.perf_counter()
            plan = engine.plan(workload, mechanism="auto", epsilon_hint=EPSILON_HINT)
            pass_seconds.append(time.perf_counter() - begin)
            pass_plans.append(plan)
            if index == 0:
                # Releases go through the engines of the first pass.
                releasers.append(_Releaser(engine, plan, label))
            if len(releasers) == len(inputs):
                _release_slice(releasers, rng, slice_s)
        cell_seconds.append(pass_seconds)
        if index == 0:
            plans = pass_plans
        else:
            gate.check_cold_errors(
                [plan.predicted_error(EPSILON_HINT) for plan in plans],
                [plan.predicted_error(EPSILON_HINT) for plan in pass_plans],
            )
    for releaser in releasers:
        releaser.check_spent()
    # Each plan's median: the plans' latencies differ, and a median pooled
    # over them would fall between their clusters.
    fresh_p50 = [stats.median(r.fresh) for r in releasers]
    replay_p50 = [stats.median(r.replay) for r in releasers]
    executes = sum(len(r.fresh) + len(r.replay) for r in releasers)
    cached, cached_ms = [], []
    for label, workload, data in inputs:
        engine = PrivateQueryEngine(data, BUDGET, plan_cache=cache_dir / "cold-0")
        begin = time.perf_counter()
        cached.append(engine.plan(workload, mechanism="auto",
                                  epsilon_hint=EPSILON_HINT))
        cached_ms.append((time.perf_counter() - begin) * 1e3)
    gate.check_cached_errors(
        [plan.predicted_error(EPSILON_HINT) for plan in plans],
        [plan.predicted_error(EPSILON_HINT) for plan in cached],
    )
    return {
        "plan_s": sum(min(cell) for cell in zip(*cell_seconds)),
        "cell_s": cell_seconds,
        "fresh_p50_ms": [value * 1e3 for value in fresh_p50],
        "replay_p50_ms": [value * 1e3 for value in replay_p50],
        "fresh": [latency for r in releasers for latency in r.fresh],
        "replays": sum(len(r.replay) for r in releasers),
        # One serial caller's rate at each plan's median latencies; raw
        # sums let the host's pauses (CPU steal) dominate.
        "rate": executes / sum(
            len(r.fresh) * f + len(r.replay) * p
            for r, f, p in zip(releasers, fresh_p50, replay_p50)),
        "cached_ms": cached_ms,
        "error_ratio": error_ratio(plans),
        "chosen": [plan.mechanism_label for plan in plans],
        "candidates": [
            {c.label: c.fit_seconds or 0.0 for c in plan.candidates} for plan in plans
        ],
    }


def child_main(argv):
    """One measuring process: ``--launched T --seed S --seconds N
    --work DIR [--passes P] [--setup-only] [--trace]``; prints one JSON
    line.

    Runs :func:`_measure` once, with spans recorded under ``--trace``."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--passes", type=int, default=COLD_PASSES)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from pathlib import Path

    import repro.engine.query_engine  # noqa: F401  (imports are set-up)
    from repobench import tracing

    inputs = _inputs(args.seed)
    out = {"setup_s": time.monotonic() - args.launched}
    if args.setup_only:
        print(json.dumps(out), flush=True)
        return 0
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_plan_patches(recorder)
    out["result"] = _measure(args.seed, inputs, Path(args.work) / "cache",
                             args.seconds, args.passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        out["spans"] = recorder.spans
    print(json.dumps(out), flush=True)
    return 0


def _launch(seed, seconds, work, *flags):
    """Run one child process; returns its JSON line."""
    from repobench.common import ROOT, GateFailure, child_env

    launched = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repobench.plan_wl import child_main; "
         "sys.exit(child_main(sys.argv[1:]))",
         "--launched", repr(launched), "--seed", str(seed),
         "--seconds", str(seconds), "--work", str(work),
         *flags],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if completed.returncode != 0:
        message = completed.stderr.decode(errors="replace")[-3000:]
        if "GateFailure" in message:
            raise GateFailure(message)
        raise RuntimeError(f"plan child failed:\n{message}")
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def run(seed, seconds, trace, work):
    """Returns ``(attempted, failed, metrics)``."""
    from repobench import stats
    from repobench.common import info

    if trace:
        return _run_traced(seed, seconds, work)
    # Set-up-only processes before and after the measuring one, so the
    # set-up median spans the run.
    setups = [_launch(seed, seconds, work, "--setup-only")["setup_s"]
              for _ in range(SETUP_REPEATS // 2)]
    out = _launch(seed, seconds, work)
    setups += [out["setup_s"]] + [
        _launch(seed, seconds, work, "--setup-only")["setup_s"]
        for _ in range(SETUP_REPEATS - 1 - SETUP_REPEATS // 2)
    ]
    result = out["result"]
    fresh = result["fresh"]
    info("setup", processes_s=[round(value, 3) for value in setups])
    info("plan", chosen=result["chosen"], plan_s=round(result["plan_s"], 3),
         cell_s=[[round(value, 3) for value in cells] for cells in result["cell_s"]],
         cached_ms=[round(value, 3) for value in result["cached_ms"]])
    info("library-releases", fresh=len(fresh), replays=result["replays"],
         plan_p50_ms=[round(value, 4) for value in result["fresh_p50_ms"]],
         tail=stats.tail_text(fresh))
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "plan_s": (result["plan_s"], "s"),
        "error_ratio": (result["error_ratio"], "ratio"),
        "release_p50_ms": (statistics.mean(result["fresh_p50_ms"]), "ms"),
        "replay_p50_ms": (statistics.mean(result["replay_p50_ms"]), "ms"),
        "releases_per_s": (result["rate"], "1/s"),
    }
    return _attempted(result), 0, metrics


def _attempted(result):
    """Cold plans, cached plans and library executes."""
    plans = len(result["chosen"]) * (len(result["cell_s"]) + 1)
    return plans + len(result["fresh"]) + result["replays"]


def _run_traced(seed, seconds, work):
    from repobench import stats
    from repobench.common import info

    # One cold pass, so the spans and the candidate table add up to plan_s.
    out = _launch(seed, seconds, work, "--trace", "--passes", "1")
    spans = out["spans"]
    traced = out["result"]

    def named(name):
        return [span for span in spans if span[0] == name]

    def total(name):
        return sum(end - start for _, start, end, _ in named(name))

    def median_ms(name):
        values = [end - start for _, start, end, _ in named(name)]
        return stats.median(values) * 1e3 if values else 0.0

    fits = named("core.lrm_fit")
    by_label = {}
    for table in traced["candidates"]:
        for label, seconds in table.items():
            by_label[label] = by_label.get(label, 0.0) + seconds
    answers = named("engine.answer")
    rows = sum(span[3]["k"] for span in answers)
    info("plan", chosen=traced["chosen"], traced_plan_s=round(traced["plan_s"], 3),
         lrm_fits=len(fits))
    metrics = {
        "core.lrm_fit_s": (total("core.lrm_fit"), "s"),
        "core.alm_iters": (sum(span[3].get("iters", 0) for span in fits), "count"),
        "core.alm_gflop": (sum(span[3].get("flops", 0.0) for span in fits) / 1e9, "GFLOP"),
        "linalg.svd_calls": (len(named("linalg.svd")), "count"),
        "linalg.svd_s": (total("linalg.svd"), "s"),
        "mechanisms.fit_s.LRM": (by_label.get("LRM", 0.0), "s"),
        "mechanisms.fit_s.HM": (by_label.get("HM", 0.0), "s"),
        "mechanisms.fit_s.rest": (
            sum(v for k, v in by_label.items() if k not in ("LRM", "HM")), "s"),
        "engine.rank_s": (total("engine.rank"), "s"),
        "engine.plan_rest_s": (traced["plan_s"] - sum(by_label.values()), "s"),
        "engine.cache_hit_ms": (stats.median(traced["cached_ms"]), "ms"),
        "engine.answer_us": (total("engine.answer") / rows * 1e6 if rows else 0.0, "us"),
        "io.save_plan_ms": (median_ms("io.save_plan"), "ms"),
        "io.load_plan_ms": (median_ms("io.load_plan"), "ms"),
    }
    return _attempted(traced), 0, metrics
