"""The correctness gate: checks on the program's outputs. Any failure
raises :class:`~repobench.common.GateFailure`, and the run then prints no
metric values."""

from __future__ import annotations

import math

from repobench.common import GateFailure


def check_fresh(release, rows):
    """A fresh release carries the plan's row count of finite values."""
    values = release.get("values") if isinstance(release, dict) else None
    if not isinstance(values, list) or len(values) != rows:
        raise GateFailure(
            f"fresh release has {None if values is None else len(values)} "
            f"values; the plan has {rows} rows"
        )
    if not all(isinstance(value, (int, float)) and math.isfinite(value)
               for value in values):
        raise GateFailure("fresh release carries a non-finite value")


def check_replay(replay, original):
    """A replayed key returns a release JSON-equal to its original."""
    if replay != original:
        raise GateFailure(f"replay differs from its original reply: {replay!r} != {original!r}")


def check_replay_values(replay, stored_values):
    """A replay of a key released while the ledger was grown returns the
    values stored then."""
    if not isinstance(replay, dict) or replay.get("values") != stored_values:
        raise GateFailure("replay of a grown key differs from the stored release")


def check_spent(tenant, spent_epsilon, unique_keys, epsilon):
    """A tenant's spent epsilon is its unique charged keys times epsilon
    (epsilon is a power of two, so the sum is exact)."""
    expected = unique_keys * epsilon
    if spent_epsilon != expected:
        raise GateFailure(
            f"tenant {tenant}: spent epsilon {spent_epsilon!r} != "
            f"{unique_keys} unique keys x {epsilon} = {expected!r}"
        )


def check_accuracy(mean_squared_error, predicted, tolerance):
    """Served releases are as accurate as their plan predicts: their mean
    squared error against the true answers lies within ``tolerance`` (a
    share) of the plan's predicted error."""
    ratio = mean_squared_error / predicted
    if not abs(ratio - 1.0) <= tolerance:
        raise GateFailure(
            f"served releases' mean squared error is {ratio:.3f} x the plan's "
            f"prediction (allowed: 1 +- {tolerance})"
        )


def check_cold_errors(first, again):
    """Planning is deterministic: a later cold pass over the same set
    predicts exactly the first pass's errors."""
    if first != again:
        raise GateFailure(f"cold passes predict {first} and then {again}")


def check_cached_errors(cold, cached):
    """The cached plan pass predicts exactly the cold pass's errors."""
    if cold != cached:
        raise GateFailure(f"cached plans predict {cached}, cold plans {cold}")


def release_bytes(line):
    """The raw bytes of the ``release`` object in one reply line (the
    server writes ``{"ok": true, "release": {...}, "id": n}``)."""
    head = b'"release": '
    start = line.find(head)
    end = line.rfind(b', "id": ')
    if start < 0 or end < start:
        return line.strip()
    return line[start + len(head):end]
