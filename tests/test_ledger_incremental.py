"""Incremental ledger sync + checkpoint compaction (PR 7 satellite).

The load-bearing claims:

* a warm handle's sync is **O(new records)** — the store-level
  ``scan_new`` resumes from a verified tail cursor instead of re-reading
  the stream — yet the mirrored state stays **bit-identical** to a cold
  full replay after every operation (spends, batches, rollbacks, resets,
  cross-handle interleavings);
* the cursor is a hint, never an assumption: compaction or truncation by
  another process fails its verification and forces a full rescan;
* checkpoint **compaction** (``compact_every``) bounds the stream to the
  live transactions without perturbing the replayed state, and a
  checkpoint failure never fails the spend that triggered it;
* after an ambiguous write failure the handle marks itself dirty and the
  next sync re-verifies the stream end to end, so a durable-but-
  rolled-back-in-memory commit is recovered, not silently skipped;
* a whole spend transaction — lock, torn-tail check and sync — decodes
  a number of records that does not depend on the journal's length
  (counted, like the solver's SVD calls, not timed).
"""

import numpy as np
import pytest

from repro.exceptions import LedgerError, PrivacyBudgetError
from repro.privacy import ledger as ledger_module
from repro.privacy.accountant import make_accountant
from repro.privacy.ledger import inspect_ledger, open_ledger, open_store
from repro.testing.faults import FailPoint, InjectedFault

BACKENDS = ("journal", "sqlite")

MODELS = {
    "pure": dict(total=4.0, total_delta=0.0, costs=[(0.1, 0.0), (0.25, 0.0), (0.05, 0.0)]),
    "basic": dict(total=4.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 2e-7), (0.05, 0.0)]),
    "rdp": dict(total=4.0, total_delta=1e-5, costs=[(0.1, 1e-7), (0.25, 1e-7), (0.05, 1e-7)]),
}


def ledger_path(tmp_path, backend):
    return tmp_path / ("budget.db" if backend == "sqlite" else "budget.journal")


def fresh_accountant(model="basic"):
    spec = MODELS[model]
    return make_accountant(spec["total"], spec["total_delta"], model=model)


def states_equal(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) and all(
            states_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    return left == right


def cold_replay_state(path, model="basic"):
    """The state a restarted process rebuilds by full replay."""
    acct = open_ledger(path, fresh_accountant(model))
    try:
        return acct._ledger_state()
    finally:
        acct.close()


def assert_matches_cold_replay(acct, path, model="basic"):
    assert states_equal(acct._ledger_state(), cold_replay_state(path, model))


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FailPoint.clear()
    yield
    FailPoint.clear()


# ---------------------------------------------------------------------- #
# Store-level scan_new
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestScanNew:
    def test_resumes_after_full_scan(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        reader = open_store(path, backend=backend)
        records, _, resumed = reader.scan_new()
        assert not resumed  # cold: no cursor yet
        assert [r["op"] for r in records] == ["meta", "intent", "commit"]
        records, _, resumed = reader.scan_new()
        assert resumed and records == []
        writer.spend(0.2)
        records, _, resumed = reader.scan_new()
        assert resumed
        assert [r["op"] for r in records] == ["intent", "commit"]
        writer.close()
        reader.close()

    def test_prefix_preserving_compaction_resumes(self, tmp_path, backend):
        """A checkpoint that only drops records *after* the cursor leaves
        the prefix byte-identical (same payloads, same seq, same crc), so
        resuming from the verified cursor is still exact."""
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        for _ in range(4):
            writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()  # establish the cursor at the tail
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.1)
        compactor.close()
        records, _, resumed = reader.scan_new()
        assert resumed  # prefix unchanged: the cursor verified
        assert [r["op"] for r in records] == ["intent", "commit"]
        writer.close()
        reader.close()

    def test_rewrite_under_cursor_forces_full_rescan(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        snap = writer.snapshot()
        for _ in range(3):
            writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()  # cursor at the last pre-rollback commit
        # The rollback excises the record under the cursor, and the next
        # checkpoint physically rewrites the stream without it: the
        # cursor's verification must fail and force a full rescan.
        writer.restore(snap)
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.05)
        compactor.close()
        records, _, resumed = reader.scan_new()
        assert not resumed  # cursor failed verification -> full stream
        assert records[0]["op"] == "meta"
        assert sum(1 for r in records if r["op"] == "commit") == 2
        writer.close()
        reader.close()

    def test_replaced_file_forces_full_rescan(self, tmp_path, backend):
        if backend == "sqlite":
            pytest.skip(
                "deleting a sqlite db under an open connection keeps the "
                "old inode visible — operator error, not a sync path"
            )
        path = ledger_path(tmp_path, backend)
        writer = open_ledger(path, fresh_accountant())
        writer.spend(0.1)
        reader = open_store(path, backend=backend)
        reader.scan_new()
        writer.close()
        path.unlink()  # losing the file outright must cold-start
        fresh = open_ledger(path, fresh_accountant())
        fresh.spend(0.3)
        fresh.close()
        records, _, resumed = reader.scan_new()
        assert not resumed
        assert [r["op"] for r in records] == ["meta", "intent", "commit"]
        reader.close()


# ---------------------------------------------------------------------- #
# Warm-handle sync == cold full replay, bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", sorted(MODELS))
class TestBitIdentity:
    def test_spend_stream(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        for eps, delta in MODELS[model]["costs"]:
            acct.spend(eps, delta)
        acct.spend_many(MODELS[model]["costs"])
        assert_matches_cold_replay(acct, path, model)
        acct.close()

    def test_rollback_and_reset(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(model))
        acct.spend(*MODELS[model]["costs"][0])
        snap = acct.snapshot()
        acct.spend_many(MODELS[model]["costs"])
        acct.restore(snap)
        assert_matches_cold_replay(acct, path, model)
        acct.spend(*MODELS[model]["costs"][1])
        assert_matches_cold_replay(acct, path, model)
        acct.reset()
        assert_matches_cold_replay(acct, path, model)
        acct.close()

    def test_two_warm_handles_interleaved(self, tmp_path, backend, model):
        path = ledger_path(tmp_path, backend)
        a = open_ledger(path, fresh_accountant(model))
        b = open_ledger(path, fresh_accountant(model))
        costs = MODELS[model]["costs"]
        for i, (eps, delta) in enumerate(costs * 2):
            (a if i % 2 == 0 else b).spend(eps, delta)
        a.sync()
        b.sync()
        assert states_equal(a._ledger_state(), b._ledger_state())
        assert_matches_cold_replay(a, path, model)
        a.close()
        b.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncrementalNotReplay:
    def test_warm_sync_consumes_only_new_records(self, tmp_path, backend):
        """The whole point: a warm handle's sync must resume, not replay."""
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        other = open_ledger(path, fresh_accountant())
        for _ in range(10):
            other.spend(0.05)
        seen = []
        original = acct._store.scan_new

        def spying_scan_new():
            result = original()
            seen.append((len(result[0]), result[2]))
            return result

        acct._store.scan_new = spying_scan_new
        acct.spend(0.1)
        acct._store.scan_new = original
        # One sync, resumed, exactly the 20 interim records — not the 23
        # a full replay would re-read.
        assert seen == [(20, True)]
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()

    def test_exact_exhaustion_through_warm_handle(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        other = open_ledger(path, fresh_accountant())
        total = MODELS["basic"]["total"]
        for _ in range(7):
            other.spend(total / 8)
        acct.spend(total / 8)  # the warm handle lands the exact last nickel
        assert acct.remaining_epsilon == 0.0
        with pytest.raises(PrivacyBudgetError):
            other.spend(total / 8)
        assert_matches_cold_replay(acct, path)
        acct.close()
        other.close()


# ---------------------------------------------------------------------- #
# Checkpoint compaction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointCompaction:
    def test_bounds_stream_and_preserves_state(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant(), compact_every=6)
        snap = None
        for i in range(12):
            if i == 4:
                snap = acct.snapshot()
            acct.spend(0.05)
            if i == 7:
                acct.restore(snap)  # journals a rollback record
        # 12 spends; the snapshot predates spend 4, so the restore rolls
        # back spends 4-7 -> 8 live transactions. The stream holds at most
        # meta + intent/commit per live txn + the records appended since
        # the last checkpoint fired.
        info = inspect_ledger(path)
        assert info["committed"] == 8
        assert info["records"] <= 1 + 2 * 8 + 2
        assert info["rolled_back"] == 0  # compaction dropped the history
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_disabled_by_default(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        acct = open_ledger(path, fresh_accountant())
        for _ in range(10):
            acct.spend(0.05)
        assert inspect_ledger(path)["records"] == 1 + 2 * 10
        acct.close()

    def test_invalid_compact_every_raises(self, tmp_path, backend):
        path = ledger_path(tmp_path, backend)
        with pytest.raises(LedgerError, match="compact_every"):
            open_ledger(path, fresh_accountant(), compact_every=0)

    def test_checkpoint_survives_other_handles(self, tmp_path, backend):
        """A compaction must not lose spends other processes committed."""
        path = ledger_path(tmp_path, backend)
        compacting = open_ledger(path, fresh_accountant(), compact_every=4)
        plain = open_ledger(path, fresh_accountant())
        for _ in range(6):
            plain.spend(0.1)
            compacting.spend(0.05)
        compacting.sync()
        plain.sync()
        assert states_equal(compacting._ledger_state(), plain._ledger_state())
        assert_matches_cold_replay(compacting, path)
        assert inspect_ledger(path)["committed"] == 12
        compacting.close()
        plain.close()

class TestCheckpointFailure:
    def test_journal_checkpoint_failure_never_fails_the_spend(self, tmp_path):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant(), compact_every=4)
        for _ in range(2):
            acct.spend(0.05)
        FailPoint.error_at("journal.compact.before_replace")
        acct.spend(0.05)  # trips the threshold; checkpoint fails quietly
        FailPoint.clear()
        assert acct.spent_epsilon == pytest.approx(0.15)
        assert inspect_ledger(path)["committed"] == 3
        assert_matches_cold_replay(acct, path)
        acct.spend(0.05)  # next spend retries the checkpoint and succeeds
        assert inspect_ledger(path)["records"] == 1 + 2 * 4
        assert_matches_cold_replay(acct, path)
        acct.close()


# ---------------------------------------------------------------------- #
# Dirty-handle recovery (ambiguous write failures)
# ---------------------------------------------------------------------- #
class TestDirtyResync:
    def test_durable_commit_rolled_back_in_memory_is_recovered(self, tmp_path):
        """If the failure lands *after* both records hit the disk, the
        spend is durable even though the handle rolled it back in memory.
        The dirty flag must force the next sync to rediscover it —
        otherwise the handle undercounts and can overspend."""
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.25)
        FailPoint.error_at("ledger.commit.after_append")
        with pytest.raises(InjectedFault):
            acct.spend(0.5)
        FailPoint.clear()
        # In-memory: rolled back (the spend never returned).
        assert acct._inner.spent_epsilon == pytest.approx(0.25)
        # On disk: durable. The next sync must pick it up.
        acct.sync()
        assert acct.spent_epsilon == pytest.approx(0.75)
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_failed_append_leaves_handle_consistent(self, tmp_path):
        """Failure *before* anything is written: nothing durable, and the
        handle must keep serving with correct state."""
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.25)
        FailPoint.error_at("ledger.intent.before_append")
        with pytest.raises(InjectedFault):
            acct.spend(0.5)
        FailPoint.clear()
        acct.spend(0.1)
        assert acct.spent_epsilon == pytest.approx(0.35)
        assert_matches_cold_replay(acct, path)
        acct.close()


# ---------------------------------------------------------------------- #
# A transaction costs O(new records), counted
# ---------------------------------------------------------------------- #
def grow_ledger(path, backend, pairs):
    """Give the ledger at ``path`` ``1 + 2 * pairs`` records (its meta
    header plus ``pairs`` committed spends) in one compaction, instead of
    ``pairs`` fsynced spends."""
    open_ledger(path, fresh_accountant()).close()
    store = open_store(path, backend=backend)
    records, _ = store.scan()
    payloads = [{key: value for key, value in records[0].items()
                 if key not in ("seq", "crc")}]
    for index in range(pairs):
        payloads.append(
            {"op": "intent", "txn": f"grown-{index}", "costs": [[1e-6, 0.0]]}
        )
        payloads.append({"op": "commit", "txn": f"grown-{index}"})
    with store.transact():
        store.compact(payloads)
    store.close()


def decodes_per_transaction(path, monkeypatch):
    """Records decoded by one warm ``spend`` and one warm ``spend_keyed``,
    each after another handle appended one spend (two new records)."""
    acct = open_ledger(path, fresh_accountant())
    other = open_ledger(path, fresh_accountant())
    decoded = []
    real_decode = ledger_module._decode_record

    def counting_decode(text, expected_seq):
        decoded.append(expected_seq)
        return real_decode(text, expected_seq)

    monkeypatch.setattr(ledger_module, "_decode_record", counting_decode)

    def produce(positions, realized):
        return [{"values": [1.0]} for _ in positions]

    counts = []
    for transaction in (
        lambda: acct.spend(0.01),
        lambda: acct.spend_keyed([((0.01, 0.0), "key-1")], produce),
    ):
        other.spend(0.01)
        del decoded[:]
        transaction()
        counts.append(len(decoded))
    monkeypatch.undo()
    assert_matches_cold_replay(acct, path)
    acct.close()
    other.close()
    return counts


@pytest.mark.parametrize("backend", BACKENDS)
class TestTransactionDecodeCount:
    def test_decodes_do_not_depend_on_journal_length(
        self, tmp_path, backend, monkeypatch
    ):
        short = ledger_path(tmp_path / "short", backend)
        long = ledger_path(tmp_path / "long", backend)
        grow_ledger(short, backend, pairs=5)  # 11 records
        grow_ledger(long, backend, pairs=5_000)  # 10,001 records
        short_counts = decodes_per_transaction(short, monkeypatch)
        long_counts = decodes_per_transaction(long, monkeypatch)
        assert long_counts == short_counts
        # Only the two records the other handle appended, decoded once by
        # the sync; the torn-tail check counts lines without decoding.
        assert long_counts == [2, 2]


class TestJournalTailCursor:
    def test_compaction_by_another_store_forces_a_rescan(self, tmp_path):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.1)
        snap = acct.snapshot()
        for _ in range(3):
            acct.spend(0.1)
        acct.restore(snap)  # rolls back the last three spends
        acct.spend(0.2)  # the cursor now sits past the rolled-back records
        # Another process's checkpoint drops the rolled-back records, so
        # every later record moves: the cursor can no longer verify.
        compactor = open_ledger(path, fresh_accountant(), compact_every=1)
        compactor.spend(0.05)
        compactor.close()
        syncs = []
        original = acct._store.scan_new

        def spying_scan_new():
            result = original()
            syncs.append(result[2])
            return result

        acct._store.scan_new = spying_scan_new
        acct.spend(0.1)
        acct._store.scan_new = original
        assert syncs == [False]  # a full rescan, not a resumed one
        assert acct.spent_epsilon == pytest.approx(0.45)
        assert_matches_cold_replay(acct, path)
        acct.spend(0.1)  # and the cursor is trusted again afterwards
        assert_matches_cold_replay(acct, path)
        acct.close()

    def test_torn_tail_after_the_cursor_is_truncated(self, tmp_path):
        path = ledger_path(tmp_path, "journal")
        acct = open_ledger(path, fresh_accountant())
        acct.spend(0.1)
        with open(path, "ab") as fh:
            fh.write(b'{"seq":4,"op":"intent","truncated')  # no newline
        acct.spend(0.2)  # the locked check truncates it before appending
        assert inspect_ledger(path)["torn_tail_bytes"] == 0
        assert b"truncated" not in path.read_bytes()
        assert_matches_cold_replay(acct, path)
        acct.close()
