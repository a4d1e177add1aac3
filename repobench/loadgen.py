"""The load: one client process, one asyncio thread, raw JSON-lines
connections (no client-side retries, so every refusal is counted).

``serve-spread`` is an open loop: dashboards arrive on a stratified
Poisson schedule fixed by the seed, and each request is timed from its due
time. ``serve-grown`` is a closed loop: each caller sends its next request
when the previous reply arrived.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

import numpy as np

#: How long the load waits for outstanding replies once sending stopped;
#: a request still unanswered then fails as ``Timeout``.
DRAIN_TIMEOUT = 60.0


class Request:
    """One execute: what was sent, when, and what came back."""

    __slots__ = ("tenant", "key", "kind", "original", "due", "sent",
                 "received", "reply", "raw", "future")

    def __init__(self, tenant, key, kind, original=None):
        self.tenant = tenant
        self.key = key
        self.kind = kind            # "fresh" or "replay"
        self.original = original    # the replayed request, for spread replays
        self.due = self.sent = self.received = None
        self.reply = None
        self.raw = None
        self.future = None

    @property
    def ok(self):
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def error(self):
        if self.reply is None:
            return "Timeout"
        return None if self.ok else self.reply.get("error", "unknown")

    @property
    def latency(self):
        """Seconds from due to reply; ``inf`` for a failed request."""
        return self.received - self.due if self.ok else math.inf


class Client:
    """One connection; replies correlate to requests by ``id``."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending = {}
        self._next_id = 0
        self.unmatched = 0
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host, port):
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer)

    async def _read_loop(self):
        while True:
            line = await self._reader.readline()
            received = time.monotonic()
            if not line:
                break
            reply = json.loads(line)
            request = self._pending.pop(reply.get("id"), None)
            if request is None:
                self.unmatched += 1
                continue
            request.received = received
            request.reply = reply
            request.raw = line
            request.future.set_result(None)

    def _frame(self, payload, request):
        self._next_id += 1
        request.future = asyncio.get_running_loop().create_future()
        self._pending[self._next_id] = request
        return json.dumps({**payload, "id": self._next_id}).encode() + b"\n"

    async def send(self, pairs):
        """Write ``(payload, request)`` pairs in one buffer; stamps
        ``sent`` on every request."""
        data = b"".join(self._frame(payload, request) for payload, request in pairs)
        self._writer.write(data)
        sent = time.monotonic()
        for _, request in pairs:
            request.sent = sent
        await self._writer.drain()

    async def call(self, payload):
        """One request-reply round trip (``budget``, ``health`` ...)."""
        request = Request(None, None, "op")
        await self.send([(payload, request)])
        await request.future
        return request.reply

    async def close(self):
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError):
            pass


def execute_payload(request, plan, epsilon):
    return {"op": "execute", "tenant": request.tenant, "plan": plan,
            "epsilon": epsilon, "key": request.key}


async def settle(requests, timeout=DRAIN_TIMEOUT):
    """Wait for every request's reply (those still missing stay failed)."""
    futures = [request.future for request in requests if request.future is not None]
    if futures:
        await asyncio.wait(futures, timeout=timeout)


# ---------------------------------------------------------------------- #
# serve-spread: open loop
# ---------------------------------------------------------------------- #
def stratified_gaps(count, rate, rng):
    """Poisson inter-arrival gaps at the midpoints of ``count`` equal
    probability strata, in seeded order: every seed draws the same set of
    short and long gaps."""
    quantiles = (np.arange(count) + 0.5) / count
    return rng.permutation(-np.log1p(-quantiles) / rate)


def spread_schedule(rng, seconds, tenants, request_rate, max_dashboard,
                    replay_share, replay_age):
    """``[(offset_s, tenant, [Request, ...]), ...]`` for an open loop.

    Dashboards hold 1..``max_dashboard`` executes for one tenant (every
    size equally often). ``replay_share`` of all requests replay a key the
    same tenant was due to send at least ``replay_age`` seconds earlier
    (fewer while early tenants have no such key).
    """
    mean_size = (1 + max_dashboard) / 2.0
    count = max(max_dashboard, round(seconds * request_rate / mean_size))
    sizes = rng.permutation(np.resize(np.arange(1, max_dashboard + 1), count))
    offsets = np.cumsum(stratified_gaps(count, request_rate / mean_size, rng))
    owners = rng.integers(0, len(tenants), size=count)
    history = {tenant: [] for tenant in tenants}   # (offset, Request)
    schedule = []
    slot = replays = 0
    for offset, size, owner in zip(offsets, sizes, owners):
        tenant = tenants[owner]
        requests = []
        for _ in range(int(size)):
            eligible = [request for due, request in history[tenant]
                        if due <= offset - replay_age]
            # Replay whenever the running share falls behind replay_share
            # and the tenant has an old enough key.
            if eligible and replays + 1 <= replay_share * (slot + 1):
                original = eligible[int(rng.integers(len(eligible)))]
                requests.append(Request(tenant, original.key, "replay", original))
                replays += 1
            else:
                request = Request(tenant, f"{tenant}-{slot}", "fresh")
                requests.append(request)
                history[tenant].append((float(offset), request))
            slot += 1
        schedule.append((float(offset), tenant, requests))
    return schedule


async def open_loop(host, port, schedule, plan, epsilon, connections):
    """Send ``schedule`` on time over ``connections`` connections; returns
    ``(requests, lateness_s)``."""
    clients = [await Client.connect(host, port) for _ in range(connections)]
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    lateness = []
    requests = []
    try:
        for index, (offset, _, batch) in enumerate(schedule):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            for request in batch:
                request.due = due
            await clients[index % connections].send(
                [(execute_payload(request, plan, epsilon), request) for request in batch]
            )
            lateness.append(batch[0].sent - due)
            requests.extend(batch)
        await settle(requests)
    finally:
        for client in clients:
            await client.close()
    return requests, lateness


# ---------------------------------------------------------------------- #
# serve-grown: closed loop
# ---------------------------------------------------------------------- #
async def _caller(client, tenant, rng, grown_keys, replay_share, plan,
                  epsilon, stop_at, out):
    pattern = []
    index = 0
    while time.monotonic() < stop_at:
        if not pattern:
            # Exactly replay_share of every ten requests replay a grown key.
            pattern = list(rng.permutation(
                [True] * round(10 * replay_share)
                + [False] * (10 - round(10 * replay_share))
            ))
        if pattern.pop():
            key = grown_keys[int(rng.integers(len(grown_keys)))]
            request = Request(tenant, key, "replay")
        else:
            request = Request(tenant, f"{tenant}-fresh-{index}", "fresh")
        index += 1
        await client.send([(execute_payload(request, plan, epsilon), request)])
        request.due = request.sent
        out.append(request)
        await asyncio.wait([request.future], timeout=DRAIN_TIMEOUT)


async def closed_loop(host, port, callers, replay_share, plan, epsilon,
                      seconds, rng):
    """One connection per ``(tenant, grown_keys)`` caller, each sending
    its next request when the previous reply arrived, for ``seconds``.
    Returns ``(requests, elapsed_s)``."""
    clients = [await Client.connect(host, port) for _ in callers]
    out = []
    started = time.monotonic()
    try:
        await asyncio.gather(*[
            _caller(client, tenant, np.random.default_rng(rng.integers(2**63)),
                    grown_keys, replay_share, plan, epsilon,
                    started + seconds, out)
            for client, (tenant, grown_keys) in zip(clients, callers)
        ])
        elapsed = time.monotonic() - started
    finally:
        for client in clients:
            await client.close()
    return out, elapsed


# ---------------------------------------------------------------------- #
# Control ops
# ---------------------------------------------------------------------- #
async def warm(host, port, tenants, workers):
    """Open every tenant ledger in every worker: ``workers`` back-to-back
    ``budget`` ops per tenant. The pool hands requests to its free workers
    in FIFO order and puts a worker back at the tail, so consecutive
    requests visit every worker."""
    client = await Client.connect(host, port)
    try:
        for tenant in tenants:
            for _ in range(workers):
                reply = await client.call({"op": "budget", "tenant": tenant})
                if not reply.get("ok"):
                    raise RuntimeError(f"warm-up budget op failed: {reply}")
    finally:
        await client.close()


async def control(host, port, payloads):
    """Send control ops one after another; returns their replies."""
    client = await Client.connect(host, port)
    try:
        return [await client.call(payload) for payload in payloads]
    finally:
        await client.close()
