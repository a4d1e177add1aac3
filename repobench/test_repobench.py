"""Tests of the benchmark's own machinery (not of the program): order
statistics, span arithmetic, the open-loop generator, the latency budget
and the correctness gate."""

import asyncio
import json
import math
import time

import numpy as np
import pytest

from repobench import gate, loadgen, serve_wl, stats, tracing
from repobench.common import GateFailure


# -- order statistics ---------------------------------------------------- #
def test_nearest_rank_percentile():
    samples = list(range(1, 11))  # 1..10
    assert stats.percentile(samples, 50) == 5
    assert stats.percentile(samples, 90) == 9
    assert stats.percentile(samples, 91) == 10
    assert stats.percentile(samples, 100) == 10
    assert stats.percentile([7.0], 1) == 7.0
    assert stats.median([3, 1, 2, math.inf]) == 2  # failures sort last


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(99))) is None  # p90 of 99 has 9 beyond
    p, value, beyond = stats.tail(list(range(1, 101)))
    assert (p, value, beyond) == (90.0, 90, 10)
    p, value, beyond = stats.tail(list(range(1, 1001)))
    assert (p, value, beyond) == (99.0, 990, 10)
    seconds = [index / 1000 for index in range(1, 101)]
    assert stats.tail_text(seconds) == "p90=90ms(n=100,beyond=10)"
    assert stats.tail_text(seconds[:99]) == "n/a(n=99)"


def test_geomean():
    assert stats.geomean([0.25, 1.0, 4.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


# -- spans --------------------------------------------------------------- #
def test_self_time_counts_overlapping_children_once():
    span = (0.0, 10.0)
    children = [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0), (20.0, 21.0)]
    # covered: [1, 5] and [9, 10] -> 5; the child past the span is clipped
    assert tracing.covered(span, children) == pytest.approx(5.0)
    assert tracing.self_time(span, children) == pytest.approx(5.0)
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.self_time((0.0, 2.0), []) == pytest.approx(2.0)


def test_recorder_wraps_sync_and_async_calls(tmp_path):
    class Target:
        def work(self, value):
            return value * 2

        async def later(self, value):
            return value + 1

    recorder = tracing.Recorder()
    recorder.wrap(Target, "work", "t.work", lambda args, kwargs, result: {"r": result})
    recorder.wrap(Target, "later", "t.later")
    assert Target().work(3) == 6
    assert asyncio.run(Target().later(1)) == 2
    names = [span[0] for span in recorder.spans]
    assert names == ["t.work", "t.later"]
    assert recorder.spans[0][3] == {"r": 6}
    recorder.dump(tmp_path / "x.json")
    assert tracing.load_spans(tmp_path)["x"][0][0] == "t.work"


# -- latency budget ------------------------------------------------------ #
def test_request_stages_account_for_the_latency():
    latency, stages = tracing.request_stages(
        client=(0.0, 1.0, 20.0),          # due, sent, received
        frontend=(2.0, 19.0),
        submit=(5.0, 18.0),
        worker=(6.0, 17.0),
        lock_scan=[(7.0, 9.0), (8.0, 10.0)],
        append=[(12.0, 13.0)],
    )
    assert latency == 20.0
    assert stages == pytest.approx({
        "generator late": 1.0,
        "client<->front-end": 2.0,   # 1->2 and 19->20
        "coalesce wait": 3.0,
        "pipe": 2.0,                 # 13 in submit - 11 in the worker
        "engine": 7.0,               # 11 - 3 lock/scan - 1 append
        "ledger lock+scan": 3.0,
        "ledger append": 1.0,
    })
    # What no stage covers (front-end after the worker reply: 18 -> 19).
    assert latency - sum(stages.values()) == pytest.approx(1.0)


def test_latency_budget_averages_the_band_around_the_median():
    rows = [(float(latency), {"engine": latency / 2.0}) for latency in range(1, 11)]
    budget = tracing.latency_budget(rows, band=0.1)
    # median rank 5 (latency 5), one rank either side: latencies 4, 5, 6
    assert budget["n"] == 3
    assert budget["latency"] == pytest.approx(5.0)
    assert budget["stages"]["engine"] == pytest.approx(2.5)
    assert budget["unexplained"] == pytest.approx(2.5)
    with pytest.raises(ValueError):
        tracing.latency_budget([])


# -- the open-loop generator --------------------------------------------- #
def test_stratified_gaps_share_one_spread_across_seeds():
    first = loadgen.stratified_gaps(200, 10.0, np.random.default_rng(1))
    second = loadgen.stratified_gaps(200, 10.0, np.random.default_rng(2))
    assert not np.array_equal(first, second)
    assert np.allclose(np.sort(first), np.sort(second))
    assert first.mean() == pytest.approx(0.1, rel=0.02)


def test_spread_schedule_replays_earlier_keys_of_the_same_tenant():
    schedule = loadgen.spread_schedule(
        np.random.default_rng(3), 20, ("a", "b"), 40.0, 8, 0.1, 1.0)
    requests = [r for _, _, batch in schedule for r in batch]
    replays = [r for r in requests if r.kind == "replay"]
    assert 0.08 <= len(replays) / len(requests) <= 0.1
    due = {id(r): offset for offset, _, batch in schedule for r in batch}
    for replay in replays:
        assert replay.original.tenant == replay.tenant
        assert replay.original.key == replay.key
        assert due[id(replay)] - due[id(replay.original)] >= 1.0
    sizes = sorted(len(batch) for _, _, batch in schedule)
    assert sizes[0] == 1 and sizes[-1] == 8


async def _fake_service(stall_after, stall):
    """A JSON-lines server answering every execute at once; it blocks the
    (shared) event loop for ``stall`` seconds after ``stall_after``
    requests, as a stalled generator would be."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            seen += 1
            if seen == stall_after:
                time.sleep(stall)
            reply = {"ok": True, "release": {"values": [1.0]}, "id": request["id"]}
            writer.write(json.dumps(reply).encode() + b"\n")
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_times_requests_from_their_due_time():
    async def scenario():
        server = await _fake_service(stall_after=3, stall=0.15)
        port = server.sockets[0].getsockname()[1]
        schedule = [
            (0.02 * index, "a", [loadgen.Request("a", f"k{index}", "fresh")])
            for index in range(10)
        ]
        requests, lateness = await loadgen.open_loop(
            "127.0.0.1", port, schedule, "p", 0.125, connections=2)
        server.close()
        await server.wait_closed()
        return requests, lateness

    requests, lateness = asyncio.run(scenario())
    assert len(lateness) == 10 and all(r.ok for r in requests)
    # The stall delays the sends due during it: the generator reports it...
    assert max(lateness) >= 0.1
    # ...and each request's latency still counts from its due time.
    for request, late in zip(requests, lateness):
        assert request.sent - request.due == pytest.approx(late, abs=1e-6)
        assert request.latency >= late


# -- the correctness gate ------------------------------------------------ #
def test_gate_checks_single_outputs():
    gate.check_fresh({"values": [1.0, 2.0]}, 2)
    with pytest.raises(GateFailure):
        gate.check_fresh({"values": [1.0]}, 2)
    with pytest.raises(GateFailure):
        gate.check_fresh({"values": [1.0, math.nan]}, 2)
    with pytest.raises(GateFailure):
        gate.check_spent("t", 0.25, 3, 0.125)
    gate.check_spent("t", 0.375, 3, 0.125)
    gate.check_accuracy(1.2, 1.0, 0.3)
    with pytest.raises(GateFailure):
        gate.check_accuracy(1.5, 1.0, 0.3)   # under-noised or mis-scaled
    with pytest.raises(GateFailure):
        gate.check_accuracy(math.nan, 1.0, 0.3)
    gate.check_cold_errors([0.5, 2.0], [0.5, 2.0])
    with pytest.raises(GateFailure):
        gate.check_cold_errors([0.5, 2.0], [0.5, 2.0000001])   # nondeterministic plan
    with pytest.raises(GateFailure):
        gate.check_cached_errors([0.5, 2.0], [0.5, 2.5])
    line = b'{"ok": true, "release": {"values": [1.0], "cost": {"a": 1}}, "id": 7}\n'
    assert gate.release_bytes(line) == b'{"values": [1.0], "cost": {"a": 1}}'


class _FakeService:
    def __init__(self, spent):
        self._spent = spent

    def control(self, payloads):
        return [{"ok": True, "budget": {"spent_epsilon": self._spent[p["tenant"]]}}
                for p in payloads]


class _FakePrepared:
    rows = 2
    truth = np.zeros(2)
    grown = {}


def _reply_request(tenant, key, kind, values, original=None):
    request = loadgen.Request(tenant, key, kind, original)
    release = {"values": values, "cost": {"a": 1}}
    request.reply = {"ok": True, "release": release, "id": 1}
    request.raw = (b'{"ok": true, "release": ' + json.dumps(release).encode()
                   + b', "id": 1}\n')
    return request


def _load(replay_values):
    fresh = _reply_request("t", "k", "fresh", [1.0, 2.0])
    other = _reply_request("t", "k2", "fresh", [3.0, 4.0])
    replay = _reply_request("t", "k", "replay", replay_values, fresh)
    return serve_wl.LoadResult([fresh, other, replay], 1.0)


def test_gate_passes_an_honest_load_and_counts_byte_mismatches():
    mismatches, errors = serve_wl.check(
        _load([1.0, 2.0]), _FakeService({"t": 0.25}), _FakePrepared(), ["t"])
    assert mismatches == 0 and len(errors) == 2
    # JSON-equal but reordered keys: counted, not hidden, not a failure.
    load = _load([1.0, 2.0])
    load.replays[0].raw = (b'{"ok": true, "release": {"cost": {"a": 1}, '
                           b'"values": [1.0, 2.0]}, "id": 1}\n')
    mismatches, _ = serve_wl.check(load, _FakeService({"t": 0.25}), _FakePrepared(), ["t"])
    assert mismatches == 1


def test_gate_trips_on_a_doctored_replay():
    with pytest.raises(GateFailure):
        serve_wl.check(_load([1.0, 2.5]), _FakeService({"t": 0.25}),
                       _FakePrepared(), ["t"])


def test_gate_trips_when_spent_epsilon_is_not_keys_times_epsilon():
    with pytest.raises(GateFailure):
        serve_wl.check(_load([1.0, 2.0]), _FakeService({"t": 0.375}),
                       _FakePrepared(), ["t"])


def test_gate_trips_on_a_doctored_grown_replay():
    prepared = _FakePrepared()
    prepared.grown = {"g": {"g-1": [5.0, 6.0]}}
    replay = _reply_request("g", "g-1", "replay", [5.0, 6.5])
    with pytest.raises(GateFailure):
        serve_wl.check(serve_wl.LoadResult([replay], 1.0), _FakeService({"g": 0.125}),
                       prepared, ["g"])
