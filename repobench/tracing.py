"""Spans recorded by the benchmark around calls into ``repro``'s public
functions, and the arithmetic that turns them into layer times.

A span is ``(name, start, end, attrs)`` with ``start``/``end`` from
``time.monotonic()``. On Linux that is ``CLOCK_MONOTONIC``, one clock for
every process on the host, so spans from the client, the front-end and
the worker processes can be joined on one time axis. Spans stay in
memory and each process writes its own file when it ends.

Nothing here edits the program: :func:`install_worker_patches` and
:func:`install_frontend_patches` wrap public functions and methods of the
imported ``repro`` modules in the current process. The traced service
(:func:`service_main`) installs them and then runs the ordinary
``repro serve`` CLI; its workers start through :func:`traced_worker_main`,
which wraps the real :func:`repro.serving.worker.worker_main`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path

#: Environment variable naming the directory traced processes write
#: their span files to (spawned workers inherit it).
TRACE_DIR_ENV = "REPOBENCH_TRACE_DIR"


class Recorder:
    """In-memory span list of one process."""

    def __init__(self):
        self.spans = []

    def record(self, name, start, end, **attrs):
        # list.append is atomic under the GIL: executor threads and the
        # event loop may record concurrently.
        self.spans.append((name, start, end, attrs))

    def wrap(self, owner, attr, name, attrs_of=None):
        """Replace ``owner.attr`` with a wrapper recording one span per
        call. ``attrs_of(args, kwargs, result)`` adds span attributes."""
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapped(*args, **kwargs):
                start = time.monotonic()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    extra = attrs_of(args, kwargs, result) if attrs_of else {}
                    recorder.record(name, start, time.monotonic(), **extra)
        else:
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                start = time.monotonic()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    extra = attrs_of(args, kwargs, result) if attrs_of else {}
                    recorder.record(name, start, time.monotonic(), **extra)

        setattr(owner, attr, wrapped)

    def dump(self, path):
        Path(path).write_text(json.dumps(
            [[name, start, end, attrs] for name, start, end, attrs in self.spans]
        ))


def load_spans(directory):
    """``{file stem: [(name, start, end, attrs), ...]}`` for every span
    file in ``directory``."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        out[path.stem] = [tuple(span) for span in json.loads(path.read_text())]
    return out


# ---------------------------------------------------------------------- #
# Interval arithmetic
# ---------------------------------------------------------------------- #
def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)``
    intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def covered(span, children):
    """Length of ``span``'s interval that ``children`` intervals cover
    (children are clipped to the span; overlaps count once)."""
    start, end = span
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    ]
    return union_length(clipped)


def self_time(span, children):
    """A span's duration minus the part of it its child spans cover."""
    return (span[1] - span[0]) - covered(span, children)


# ---------------------------------------------------------------------- #
# The release_p50_ms latency budget
# ---------------------------------------------------------------------- #
#: Stages of one served release, in the order the request meets them.
BUDGET_STAGES = (
    "generator late",
    "client<->front-end",
    "coalesce wait",
    "pipe",
    "engine",
    "ledger lock+scan",
    "ledger append",
)


def request_stages(client, frontend, submit, worker, lock_scan, append):
    """Split one request's latency into :data:`BUDGET_STAGES` (seconds).

    ``client`` is ``(due, sent, received)``; ``frontend``, ``submit`` and
    ``worker`` are the ``(start, end)`` of the request's
    ``PlanService.execute``, ``WorkerPool.submit`` and worker-side command
    spans; ``lock_scan`` and ``append`` are the ledger spans inside the
    worker span. Returns ``(latency, {stage: seconds})``; the latency the
    stages leave uncovered is the budget's unexplained remainder.
    """
    due, sent, received = client
    ledger = list(lock_scan) + list(append)
    stages = {
        "generator late": sent - due,
        "client<->front-end": (frontend[0] - sent) + (received - frontend[1]),
        "coalesce wait": submit[0] - frontend[0],
        "pipe": (submit[1] - submit[0]) - (worker[1] - worker[0]),
        "engine": self_time(worker, ledger),
        "ledger lock+scan": covered(worker, lock_scan),
        "ledger append": covered(worker, append),
    }
    return received - due, stages


def latency_budget(rows, band=0.1):
    """Average stage split of the requests around the median latency.

    ``rows`` are ``(latency, {stage: seconds})`` pairs. The band holds the
    requests whose latency rank lies within ``band`` of the median rank
    (at least one). Returns ``{"n", "latency", "stages", "unexplained"}``
    with means over the band; ``unexplained`` is the mean latency minus
    the sum of the mean stages.
    """
    if not rows:
        raise ValueError("latency budget of no requests")
    ordered = sorted(rows, key=lambda row: row[0])
    count = len(ordered)
    middle = (count - 1) // 2
    half = int(band * count)
    chosen = ordered[max(0, middle - half): middle + half + 1]
    mean_latency = sum(row[0] for row in chosen) / len(chosen)
    stages = {
        stage: sum(row[1].get(stage, 0.0) for row in chosen) / len(chosen)
        for stage in BUDGET_STAGES
    }
    return {
        "n": len(chosen),
        "latency": mean_latency,
        "stages": stages,
        "unexplained": mean_latency - sum(stages.values()),
    }


# ---------------------------------------------------------------------- #
# Patches
# ---------------------------------------------------------------------- #
def _rows(result):
    return {"records": len(result[0]) if result else 0}


class _TimedEnter:
    """Context manager proxy timing only ``__enter__`` (lock wait plus
    whatever the store checks before handing out the transaction)."""

    def __init__(self, manager, recorder, name):
        self._manager = manager
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        start = time.monotonic()
        value = self._manager.__enter__()
        self._recorder.record(self._name, start, time.monotonic())
        return value

    def __exit__(self, *exc):
        return self._manager.__exit__(*exc)


def _wrap_transact(recorder, store_class):
    original = store_class.transact

    @functools.wraps(original)
    def transact(self):
        return _TimedEnter(original(self), recorder, "ledger.transact_enter")

    store_class.transact = transact


def install_worker_patches(recorder):
    """Spans for the engine, ledger and plan-rebuild calls a worker makes."""
    from repro.engine.compiled import CompiledPlan
    from repro.engine.query_engine import PrivateQueryEngine
    import repro.io.serialization as serialization
    from repro.privacy.ledger import DurableAccountant, JournalStore, SQLiteStore

    recorder.wrap(PrivateQueryEngine, "execute", "engine.execute")
    recorder.wrap(
        PrivateQueryEngine, "execute_many", "engine.execute_many",
        lambda args, kwargs, result: {"k": len(args[1])},
    )
    recorder.wrap(CompiledPlan, "answer", "engine.answer",
                  lambda args, kwargs, result: {"k": 1})
    recorder.wrap(
        CompiledPlan, "answer_many", "engine.answer",
        lambda args, kwargs, result: {"k": len(args[2])},
    )
    recorder.wrap(DurableAccountant, "__init__", "ledger.open")
    recorder.wrap(DurableAccountant, "spend_keyed", "ledger.spend_keyed")
    for store_class in (JournalStore, SQLiteStore):
        _wrap_transact(recorder, store_class)
        recorder.wrap(store_class, "scan_new", "ledger.scan_new",
                      lambda args, kwargs, result: _rows(result))
        recorder.wrap(store_class, "append", "ledger.append")
    recorder.wrap(serialization, "plan_from_payload", "io.load_plan")


def install_plan_patches(recorder):
    """Spans for the planning layers: LRM fits, dense SVDs, ranking and
    plan archive I/O."""
    import numpy as np

    import repro.engine.plan as plan_module
    import repro.io.serialization as serialization
    from repro.core.lrm import LowRankMechanism
    from repro.engine.compiled import CompiledPlan

    def fit_attrs(args, kwargs, result):
        if result is None:  # the fit raised
            return {}
        decomposition = result.decomposition
        return {
            "iters": len(decomposition.history),
            "flops": float(decomposition.perf.get("total", {}).get("flops", 0.0)),
        }

    recorder.wrap(LowRankMechanism, "fit", "core.lrm_fit", fit_attrs)
    # Every dense SVD of the solver and of repro.linalg goes through
    # numpy.linalg.svd (the call the solver's own SVD-counting test
    # patches), so that is where the linalg layer is counted.
    recorder.wrap(np.linalg, "svd", "linalg.svd")
    recorder.wrap(plan_module, "rank_mechanisms", "engine.rank")
    recorder.wrap(serialization, "save_plan", "io.save_plan")
    recorder.wrap(serialization, "load_plan", "io.load_plan")
    recorder.wrap(CompiledPlan, "answer", "engine.answer",
                  lambda args, kwargs, result: {"k": 1})


class _TracedConnection:
    """Worker-side pipe end that records one ``worker.execute`` span from
    the moment an execute command is received to the moment its reply is
    sent."""

    def __init__(self, connection, recorder):
        self._connection = connection
        self._recorder = recorder
        self._current = None

    def recv(self):
        command = self._connection.recv()
        if isinstance(command, tuple) and command and command[0] == "execute":
            self._current = (
                time.monotonic(), command[1],
                [request[2] if len(request) > 2 else None for request in command[3]],
            )
        return command

    def send(self, message):
        if self._current is not None:
            start, tenant, keys = self._current
            self._current = None
            deduplicated = 0
            if message[0] == "ok":
                deduplicated = sum(
                    1 for payload in message[1] if payload.get("deduplicated")
                )
            self._recorder.record(
                "worker.execute", start, time.monotonic(), tenant=tenant,
                keys=keys, ok=message[0] == "ok", deduplicated=deduplicated,
            )
        self._connection.send(message)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def traced_worker_main(connection, config, worker_index):
    """Worker entry point of the traced service: the real ``worker_main``
    behind a span-recording pipe, with worker-side patches installed.
    Runs in a freshly spawned process, whose ``repro.serving.worker`` is
    unpatched."""
    from repro.serving.worker import worker_main

    recorder = Recorder()
    install_worker_patches(recorder)
    try:
        worker_main(_TracedConnection(connection, recorder), config, worker_index)
    finally:
        recorder.dump(Path(os.environ[TRACE_DIR_ENV]) / f"worker-{os.getpid()}.json")


def install_frontend_patches(recorder):
    """Spans for the front-end: execute, pool dispatch, staging and pool
    boot; workers start through :func:`traced_worker_main`."""
    import repro.serving.server as server
    from repro.serving import worker

    def execute_attrs(args, kwargs, result):
        key = kwargs.get("key", args[6] if len(args) > 6 else None)
        return {"key": key}

    def submit_attrs(args, kwargs, result):
        command = args[1]
        if command[0] != "execute":
            return {"op": command[0]}
        return {
            "op": "execute",
            "keys": [request[2] if len(request) > 2 else None
                     for request in command[3]],
        }

    recorder.wrap(server.PlanService, "execute", "frontend.execute", execute_attrs)
    recorder.wrap(worker.WorkerPool, "submit", "pool.submit", submit_attrs)
    recorder.wrap(worker.WorkerPool, "__init__", "serving.pool_boot")
    recorder.wrap(server, "stage_plans", "serving.stage")
    worker.worker_main = traced_worker_main


def service_main(argv):
    """``repro serve`` with front-end and worker spans recorded; span
    files land in ``$REPOBENCH_TRACE_DIR``."""
    from repro import cli

    recorder = Recorder()
    install_frontend_patches(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(Path(os.environ[TRACE_DIR_ENV]) / f"frontend-{os.getpid()}.json")
