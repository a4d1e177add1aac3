"""``serve-spread`` and ``serve-grown``: ``repro serve`` under load.

An untraced run boots the service :data:`BOOTS` times on fresh ledgers,
each boot after cold plans of the served workload and serving one segment
of the load (``setup_s`` is the median boot, ``plan_s`` the fastest cold
plan: the plan is fixed work). A traced
run boots the untraced CLI once and the traced service once on identical
load, and reports the layers.
"""

from __future__ import annotations

import asyncio
import inspect
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repobench import gate, loadgen, stats, tracing
from repobench.plan_wl import error_ratio
from repobench.common import (
    ROOT, GateFailure, child_env, info, peak_rss_mb, stop_group,
)

#: Every release spends a power of two, so spent-budget sums are exact.
EPSILON = 0.125
#: Per-tenant budget: never the limit in a run.
BUDGET = 1e6
PLAN_NAME = "dash"
#: The served workload is fixed (only data and traffic follow the seed),
#: so its cold plan repeats the same solver iterations on every run.
SERVED_SHAPE = (64, 256, 8)
SERVED_SEED = 20120901
#: Boots per untraced run. Each boot serves one segment of the load and
#: is preceded by :data:`PLANS_PER_BOOT` cold plans of the served
#: workload; setup_s is the median boot and plan_s the fastest cold plan.
#: Segments spread the measurement over the run, so a few seconds of a
#: slow host weigh less. A single cold plan takes about 1.2 s and varies
#: by up to 50% within a run.
BOOTS = 3
PLANS_PER_BOOT = 3
#: The served releases' mean squared error must lie within this share of
#: the plan's predicted error (a run serves hundreds of releases).
ACCURACY_TOLERANCE = 0.3
BOOT_TIMEOUT = 90.0

SPREAD_TENANTS = tuple(f"t{index:02d}" for index in range(32))
SPREAD_RATE = 40.0          # executes per second offered
SPREAD_DASHBOARD = 8        # executes per dashboard: 1..8
SPREAD_REPLAY = 0.25
SPREAD_REPLAY_AGE = 1.0     # seconds
#: The open loop is invalid when its generator ran later than this
#: (tail percentile / maximum, seconds).
LATENESS_TAIL_BOUND = 0.025
LATENESS_MAX_BOUND = 0.25

GROWN_TENANTS = ("g0", "g1")
GROWN_RELEASES = 1000
GROWN_BATCH = 100
GROWN_REPLAY = 0.30


def service_defaults():
    """The ``ServiceConfig`` defaults, read from its signature."""
    from repro.serving.server import ServiceConfig

    return {
        name: parameter.default
        for name, parameter in inspect.signature(ServiceConfig).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def _served_workload():
    from repro.workloads.generators import wrelated

    m, n, s = SERVED_SHAPE
    return wrelated(m, n, s=s, seed=SERVED_SEED)


class Prepared:
    """The served plan, data and (for serve-grown) grown ledgers."""

    def __init__(self, work, rng, grown):
        from repro.io.serialization import save_plan

        self.work = work
        n = SERVED_SHAPE[1]
        self.data = rng.integers(0, 1000, size=n).astype(np.float64)
        self.plan_seconds = []
        plan = self.cold_plan()
        self.plan = plan
        self.rows = plan.shape[0]
        self.truth = plan.workload.matrix @ self.data
        self.predicted_error = plan.predicted_error(EPSILON)
        self.plans_dir = work / "plans"
        self.plans_dir.mkdir()
        save_plan(plan, self.plans_dir / f"{PLAN_NAME}.plan.npz")
        self.data_path = work / "data.npy"
        np.save(self.data_path, self.data)
        self.template = work / "ledger-template"
        self.template.mkdir()
        self.grown = {}
        self.grown_errors = []
        if grown:
            self._grow()

    def cold_plan(self):
        """Plan the served workload on a fresh disk plan cache; records
        the wall time."""
        from repro.engine.query_engine import PrivateQueryEngine

        engine = PrivateQueryEngine(
            self.data, BUDGET,
            plan_cache=self.work / f"plan-cache-{len(self.plan_seconds)}",
        )
        workload = _served_workload()
        started = time.perf_counter()
        plan = engine.plan(workload, mechanism="auto")
        self.plan_seconds.append(time.perf_counter() - started)
        return plan

    def _grow(self):
        from repro.engine.query_engine import PrivateQueryEngine

        for tenant in GROWN_TENANTS:
            engine = PrivateQueryEngine(
                self.data, BUDGET, ledger_path=self.template / f"{tenant}.journal"
            )
            stored = {}
            for start in range(0, GROWN_RELEASES, GROWN_BATCH):
                keys = [f"{tenant}-grown-{index}"
                        for index in range(start, start + GROWN_BATCH)]
                releases = engine.execute_many(
                    [(self.plan, EPSILON, {}, key) for key in keys]
                )
                for key, release in zip(keys, releases):
                    stored[key] = release.answers.tolist()
                    self.grown_errors.append(
                        float(np.sum((release.answers - self.truth) ** 2)))
            engine.accountant.close()
            self.grown[tenant] = stored

    def fresh_ledgers(self, name):
        """A ledger root holding a copy of the template journals."""
        root = self.work / name
        shutil.copytree(self.template, root)
        return root


def _default_sigint():
    # A process started in the background may inherit an ignored SIGINT,
    # and Python then never turns SIGINT into the KeyboardInterrupt that
    # makes ``repro serve`` drain and stop.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Service:
    """One ``repro serve`` process group (CLI or traced)."""

    def __init__(self, prepared, ledger_root, defaults, tenants, trace_dir=None):
        argv = [
            "serve", "--plans", str(prepared.plans_dir),
            "--ledger-root", str(ledger_root), "--data", str(prepared.data_path),
            "--budget", repr(BUDGET), "--host", str(defaults["host"]),
            "--port", "0", "--workers", str(defaults["workers"]),
            "--max-batch", str(defaults["max_batch"]),
            "--max-wait", repr(defaults["max_wait"]),
            "--max-queue", str(defaults["max_queue"]),
            "--request-timeout", repr(defaults["request_timeout"]),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
            env = child_env()
        else:
            command = [
                sys.executable, "-c",
                "import sys; from repobench.tracing import service_main; "
                "sys.exit(service_main(sys.argv[1:]))",
                *argv,
            ]
            env = child_env(**{tracing.TRACE_DIR_ENV: str(trace_dir)})
        self.ledger_root = Path(ledger_root)
        self.stderr_path = self.ledger_root.with_suffix(".stderr")
        launched = time.monotonic()
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=ROOT, start_new_session=True, preexec_fn=_default_sigint,
            )
        try:
            self.host, self.port = self._await_ready(launched + BOOT_TIMEOUT)
            warm_started = time.monotonic()
            asyncio.run(loadgen.warm(self.host, self.port, tenants,
                                     defaults["workers"]))
            ready = time.monotonic()
        except BaseException:
            self.stop()
            raise
        self.setup_s = ready - launched
        self.warm_s = ready - warm_started

    def _await_ready(self, deadline):
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(
                    "service did not come up: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            readable, _, _ = select.select([stdout], [], [], remaining)
            if readable:
                line = stdout.readline().decode(errors="replace")
                match = re.search(r" on (\S+):(\d+) ", line)
                if match:
                    return match.group(1), int(match.group(2))

    def control(self, payloads):
        return asyncio.run(loadgen.control(self.host, self.port, payloads))

    def peak_rss_mb(self, health):
        """Front-end plus workers (from the ``health`` op's slots)."""
        pids = [self.process.pid] + [
            slot["pid"] for slot in health["slots"] if slot.get("pid")
        ]
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self):
        stop_group(self.process)
        self.process.stdout.close()


# ---------------------------------------------------------------------- #
# Running one load and checking it
# ---------------------------------------------------------------------- #
class LoadResult:
    def __init__(self, requests, elapsed, lateness=None):
        self.requests = requests
        self.elapsed = elapsed
        self.lateness = lateness
        self.fresh = [r for r in requests if r.kind == "fresh"]
        self.replays = [r for r in requests if r.kind == "replay"]
        self.failed = [r for r in requests if not r.ok]

    @classmethod
    def merged(cls, loads):
        lateness = None
        if loads[0].lateness is not None:
            lateness = [late for load in loads for late in load.lateness]
        return cls([r for load in loads for r in load.requests],
                   sum(load.elapsed for load in loads), lateness)

    def p50_ms(self, requests):
        return stats.median([r.latency for r in requests]) * 1e3


def run_load(workload, service, prepared, seed, segment, seconds):
    rng = np.random.default_rng([seed, 1, segment])
    if workload == "serve-spread":
        schedule = loadgen.spread_schedule(
            rng, seconds, SPREAD_TENANTS, SPREAD_RATE, SPREAD_DASHBOARD,
            SPREAD_REPLAY, SPREAD_REPLAY_AGE,
        )
        requests, lateness = asyncio.run(loadgen.open_loop(
            service.host, service.port, schedule, PLAN_NAME, EPSILON,
            connections=min(2, os.cpu_count() or 1),
        ))
        ok = [r for r in requests if r.ok]
        first_due = min(r.due for r in requests)
        last = max((r.received for r in ok), default=time.monotonic())
        return LoadResult(requests, last - first_due, lateness)
    callers = [(tenant, sorted(prepared.grown[tenant])) for tenant in GROWN_TENANTS]
    requests, elapsed = asyncio.run(loadgen.closed_loop(
        service.host, service.port, callers, GROWN_REPLAY, PLAN_NAME, EPSILON,
        seconds, rng,
    ))
    return LoadResult(requests, elapsed)


def check(load, service, prepared, tenants):
    """The correctness gate; returns ``(replay_byte_mismatches,
    squared_errors)`` of a load that passed."""
    mismatches = 0
    squared_errors = []
    charged = {tenant: set(prepared.grown.get(tenant, ())) for tenant in tenants}
    for request in load.requests:
        if not request.ok:
            continue
        release = request.reply["release"]
        charged[request.tenant].add(request.key)
        if request.kind == "fresh":
            gate.check_fresh(release, prepared.rows)
            values = np.asarray(release["values"])
            squared_errors.append(float(np.sum((values - prepared.truth) ** 2)))
        elif request.original is not None:
            if request.original.ok:
                gate.check_replay(release, request.original.reply["release"])
                if gate.release_bytes(request.raw) != gate.release_bytes(request.original.raw):
                    mismatches += 1
        else:
            gate.check_replay_values(release, prepared.grown[request.tenant][request.key])
    replies = service.control([{"op": "budget", "tenant": t} for t in tenants])
    for tenant, reply in zip(tenants, replies):
        if not reply.get("ok"):
            raise GateFailure(f"budget op for {tenant} failed: {reply}")
        gate.check_spent(tenant, reply["budget"]["spent_epsilon"],
                         len(charged[tenant]), EPSILON)
    if load.lateness is not None:
        late_tail = stats.tail(load.lateness)
        late_max = max(load.lateness)
        if late_max > LATENESS_MAX_BOUND or (
                late_tail is not None and late_tail[1] > LATENESS_TAIL_BOUND):
            raise GateFailure(
                f"open-loop generator fell behind (max {late_max * 1e3:.1f} ms); "
                "the run is invalid"
            )
    return mismatches, squared_errors


def report_load(load, healths, mismatches):
    fresh = [r.latency for r in load.fresh]
    replays = [r.latency for r in load.replays]
    kinds = {}
    for request in load.failed:
        kinds[request.error] = kinds.get(request.error, 0) + 1
    info("load", attempted=len(load.requests), fresh=len(fresh),
         replays=len(replays), failed=len(load.failed),
         failed_share=f"{len(load.failed) / max(1, len(load.requests)):.4f}",
         failures=kinds or "none", elapsed_s=f"{load.elapsed:.3f}")
    if load.lateness is not None:
        info("generator", lateness_max_ms=f"{max(load.lateness) * 1e3:.3f}",
             lateness_tail=stats.tail_text(load.lateness))
    info("tails", fresh=stats.tail_text(fresh),
         replay=stats.tail_text(replays) if replays else "n/a")
    def total(get):
        return sum(get(health) for health in healths)

    info("service", dedup_hits=total(lambda h: h["dedup_hits"]),
         batches=total(lambda h: h["coalescer"]["batches_flushed"]),
         coalesced=total(lambda h: h["coalescer"]["requests_coalesced"]),
         shed=total(lambda h: sum(h["shed"].values())),
         replay_byte_mismatch=mismatches)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def run(workload, seed, seconds, trace, work):
    """Returns ``(attempted, failed, metrics)``; raises GateFailure."""
    defaults = service_defaults()
    rng = np.random.default_rng([seed, 0])
    grown = workload == "serve-grown"
    prepared = Prepared(work, rng, grown)
    tenants = GROWN_TENANTS if grown else SPREAD_TENANTS
    info("prepared", plan=prepared.plan.mechanism_label, rows=prepared.rows,
         grown_records=GROWN_RELEASES if grown else 0)
    if trace:
        return _run_traced(workload, seed, seconds, work, prepared, defaults, tenants)

    setups, loads, healths, rss, mismatches, squared_errors = [], [], [], [], 0, []
    for boot in range(BOOTS):
        # Preparation made the first boot's first cold plan.
        for _ in range(PLANS_PER_BOOT - (boot == 0)):
            prepared.cold_plan()
        service = Service(prepared, prepared.fresh_ledgers(f"ledgers-{boot}"),
                          defaults, tenants)
        setups.append(service.setup_s)
        try:
            load = run_load(workload, service, prepared, seed, boot, seconds / BOOTS)
            health = service.control([{"op": "health"}])[0]["health"]
            rss.append(service.peak_rss_mb(health))
            found, errors = check(load, service, prepared, tenants)
            healths.append(health)
        finally:
            service.stop()
        loads.append(load)
        mismatches += found
        squared_errors += errors
    load = LoadResult.merged(loads)
    info("setup", boots_s=[round(value, 3) for value in setups],
         plan_s=[round(value, 3) for value in prepared.plan_seconds])
    info("segments", release_p50_ms=[round(one.p50_ms(one.fresh), 3) for one in loads],
         replay_p50_ms=[round(one.p50_ms(one.replays), 3) if one.replays else None
                        for one in loads])
    report_load(load, healths, mismatches)
    if not load.fresh or not load.replays:
        raise GateFailure("the load produced no fresh requests or no replays")
    fresh_p50 = load.p50_ms(load.fresh)
    replay_p50 = load.p50_ms(load.replays)
    if not (np.isfinite(fresh_p50) and np.isfinite(replay_p50)):
        raise GateFailure("more than half of the requests failed")
    # serve-grown serves few fresh releases; the ones that grew its ledgers
    # (same plan, same engine) join them.
    squared_errors += prepared.grown_errors
    error = float(np.mean(squared_errors))
    info("accuracy", empirical_over_predicted=f"{error / prepared.predicted_error:.4f}",
         releases=len(squared_errors))
    gate.check_accuracy(error, prepared.predicted_error, ACCURACY_TOLERANCE)
    ok = len(load.requests) - len(load.failed)
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (stats.median(rss), "MB"),
        "plan_s": (min(prepared.plan_seconds), "s"),
        "error_ratio": (error_ratio([prepared.plan]), "ratio"),
        "release_p50_ms": (fresh_p50, "ms"),
        "replay_p50_ms": (replay_p50, "ms"),
        "releases_per_s": (ok / load.elapsed, "1/s"),
    }
    return len(load.requests), len(load.failed), metrics


def _run_traced(workload, seed, seconds, work, prepared, defaults, tenants):
    service = Service(prepared, prepared.fresh_ledgers("ledgers-untraced"),
                      defaults, tenants)
    try:
        plain = run_load(workload, service, prepared, seed, 0, seconds)
        check(plain, service, prepared, tenants)
    finally:
        service.stop()
    trace_dir = work / "trace"
    trace_dir.mkdir()
    service = Service(prepared, prepared.fresh_ledgers("ledgers-traced"),
                      defaults, tenants, trace_dir=trace_dir)
    try:
        load = run_load(workload, service, prepared, seed, 0, seconds)
        health = service.control([{"op": "health"}])[0]["health"]
        mismatches, _ = check(load, service, prepared, tenants)
    finally:
        service.stop()
    report_load(load, [health], mismatches)
    journal_mb = float(np.mean([
        path.stat().st_size / 1e6
        for path in service.ledger_root.glob(f"*{defaults['ledger_suffix']}")
    ]))
    metrics = layer_metrics(
        tracing.load_spans(trace_dir), load, service.warm_s, mismatches,
        journal_mb,
    )
    plain_p50 = plain.p50_ms(plain.fresh)
    metrics["trace.overhead_pct"] = (
        (load.p50_ms(load.fresh) - plain_p50) / plain_p50 * 100.0, "%")
    return len(load.requests), len(load.failed), metrics


def _by_name(spans, name):
    return [span for span in spans if span[0] == name]


def _median_ms(spans):
    if not spans:
        return 0.0
    return stats.median([span[2] - span[1] for span in spans]) * 1e3


def layer_metrics(files, load, warm_s, mismatches, journal_mb):
    """Per-layer metrics of a traced serve run, and the printed
    ``release_p50_ms`` budget."""
    frontend = [span for stem, spans in files.items()
                if stem.startswith("frontend") for span in spans]
    workers = {stem: spans for stem, spans in files.items()
               if stem.startswith("worker")}
    worker_spans = [span for spans in workers.values() for span in spans]

    # A replay reuses its original's key; the original's spans start first.
    def first_by_key(spans, keys_of):
        found = {}
        for span in sorted(spans, key=lambda span: span[1]):
            for key in keys_of(span):
                found.setdefault(key, span)
        return found

    execute_by_key = first_by_key(_by_name(frontend, "frontend.execute"),
                                  lambda span: [span[3]["key"]])
    submits = [span for span in _by_name(frontend, "pool.submit")
               if span[3].get("op") == "execute"]
    submit_by_key = first_by_key(submits, lambda span: span[3]["keys"])
    worker_by_key = {}
    children = {}
    for spans in workers.values():
        ledger = [s for s in spans
                  if s[0] in ("ledger.transact_enter", "ledger.scan_new", "ledger.append")]
        executes = _by_name(spans, "worker.execute")
        for span in executes:
            children[id(span)] = [s for s in ledger if s[1] >= span[1] and s[2] <= span[2]]
        for key, span in first_by_key(executes, lambda span: span[3]["keys"]).items():
            if key not in worker_by_key or span[1] < worker_by_key[key][1]:
                worker_by_key[key] = span

    rows = []
    samples = {stage: [] for stage in ("frontend", "coalesce", "pipe", "worker")}
    for request in load.fresh:
        if not request.ok:
            continue
        fe = execute_by_key.get(request.key)
        sub = submit_by_key.get(request.key)
        wk = worker_by_key.get(request.key)
        if fe is None or sub is None or wk is None:
            continue
        inside = children[id(wk)]
        latency, stages = tracing.request_stages(
            (request.due, request.sent, request.received),
            (fe[1], fe[2]), (sub[1], sub[2]), (wk[1], wk[2]),
            [(s[1], s[2]) for s in inside if s[0] != "ledger.append"],
            [(s[1], s[2]) for s in inside if s[0] == "ledger.append"],
        )
        rows.append((latency, stages))
        samples["frontend"].append(stages["client<->front-end"])
        samples["coalesce"].append(stages["coalesce wait"])
        samples["pipe"].append(stages["pipe"])
        samples["worker"].append(wk[2] - wk[1])
    if not rows:
        raise GateFailure("no traced request could be joined across processes")
    budget = tracing.latency_budget(rows)
    print(f"# release_p50_ms budget: {budget['n']} requests around the median "
          f"({len(rows)} of {len(load.fresh)} fresh joined), mean latency "
          f"{budget['latency'] * 1e3:.3f} ms", flush=True)
    for stage, seconds in budget["stages"].items():
        print(f"#   {stage:<20} {seconds * 1e3:9.3f} ms "
              f"{seconds / budget['latency'] * 100:6.1f}%", flush=True)
    print(f"#   {'unexplained':<20} {budget['unexplained'] * 1e3:9.3f} ms "
          f"{budget['unexplained'] / budget['latency'] * 100:6.1f}%", flush=True)

    def med_ms(values):
        return stats.median(values) * 1e3 if values else 0.0

    answers = _by_name(worker_spans, "engine.answer")
    answer_rows = sum(span[3]["k"] for span in answers)
    scans = _by_name(worker_spans, "ledger.scan_new")
    opens = _by_name(worker_spans, "ledger.open")
    info("trace", ledger_opens=len(opens), worker_files=len(workers),
         dispatches=len(submits))
    return {
        "serving.stage_s": (_total_s(_by_name(frontend, "serving.stage")), "s"),
        "serving.pool_boot_s": (_total_s(_by_name(frontend, "serving.pool_boot")), "s"),
        "serving.ledger_warm_s": (warm_s, "s"),
        "serving.frontend_ms": (med_ms(samples["frontend"]), "ms"),
        "serving.coalesce_wait_ms": (med_ms(samples["coalesce"]), "ms"),
        "serving.batch_size": (
            sum(len(span[3]["keys"]) for span in submits) / max(1, len(submits)),
            "count"),
        "serving.pipe_ms": (med_ms(samples["pipe"]), "ms"),
        "serving.worker_ms": (med_ms(samples["worker"]), "ms"),
        "serving.replay_byte_mismatch": (mismatches, "count"),
        "engine.execute_many_ms": (
            _median_ms(_by_name(worker_spans, "engine.execute_many")), "ms"),
        "engine.answer_us": (
            _total_s(answers) / answer_rows * 1e6 if answer_rows else 0.0, "us"),
        "io.load_plan_ms": (_median_ms(_by_name(worker_spans, "io.load_plan")), "ms"),
        "ledger.open_ms": (_median_ms(opens), "ms"),
        "ledger.spend_keyed_ms": (
            _median_ms(_by_name(worker_spans, "ledger.spend_keyed")), "ms"),
        "ledger.transact_enter_ms": (
            _median_ms(_by_name(worker_spans, "ledger.transact_enter")), "ms"),
        "ledger.scan_new_ms": (_median_ms(scans), "ms"),
        "ledger.scan_new_records": (
            sum(span[3]["records"] for span in scans) / max(1, len(scans)), "count"),
        "ledger.append_ms": (_median_ms(_by_name(worker_spans, "ledger.append")), "ms"),
        "ledger.journal_mb": (journal_mb, "MB"),
        "ledger.dedup_hits": (
            sum(span[3]["deduplicated"] for span in _by_name(worker_spans, "worker.execute")),
            "count"),
        "budget.unexplained_ms": (budget["unexplained"] * 1e3, "ms"),
    }


def _total_s(spans):
    return sum(span[2] - span[1] for span in spans)
