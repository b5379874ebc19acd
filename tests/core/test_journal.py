"""Sweep journal: durable appends, torn-tail healing, signal guard."""

import json
import signal
from dataclasses import asdict

import pytest

from repro.core import JournalEntry, SweepJournal, sweep_id
from repro.core.journal import deferred_signals


def entry(key, status="done", **kw):
    return JournalEntry(key=key, label=f"label-{key}", status=status, **kw)


def parsed_lines(path):
    """The journal's lines that parse as JSON objects, in file order."""
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def keys_of(path):
    return [record["key"] for record in parsed_lines(path)]


class TestSweepId:
    def test_order_independent(self):
        assert sweep_id(["a", "b", "c"]) == sweep_id(["c", "a", "b"])

    def test_content_sensitive(self):
        assert sweep_id(["a", "b"]) != sweep_id(["a", "b2"])
        assert sweep_id(["a"]) != sweep_id(["a", "a"])


class TestSweepJournal:
    def test_append_load_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1", attempts=2, result_path="/tmp/x"))
        journal.append(entry("k2", status="failed", error="ValueError: boom"))
        first, second = parsed_lines(journal.path)
        assert first == {"v": 1, **asdict(entry("k1", attempts=2, result_path="/tmp/x"))}
        assert second["status"] == "failed"
        assert second["error"] == "ValueError: boom"
        assert journal.appended == 2

    def test_torn_trailing_line_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.append(entry("k2"))
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-15])  # tear the final line
        assert keys_of(journal.path) == ["k1"]

    def test_append_heals_torn_tail(self, tmp_path):
        # A torn write leaves no trailing newline; the next append must
        # not merge its entry into the fragment (losing both lines).
        path = tmp_path / "j.jsonl"
        first = SweepJournal(path)
        first.append(entry("k1"))
        data = path.read_bytes()
        path.write_bytes(data + b'{"v":1,"key":"torn')  # no newline
        second = SweepJournal(path)
        second.append(entry("k2"))
        assert keys_of(path) == ["k1", "k2"]

    def test_rotate_discards(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.rotate()
        assert not journal.path.exists()
        assert journal.appended == 0
        journal.rotate()  # idempotent on a missing file

    def test_for_sweep_keyed_by_grid(self, tmp_path):
        a = SweepJournal.for_sweep(tmp_path, ["k1", "k2"])
        same = SweepJournal.for_sweep(tmp_path, ["k2", "k1"])
        other = SweepJournal.for_sweep(tmp_path, ["k1", "k3"])
        assert a.path == same.path
        assert a.path != other.path
        assert a.path.parent == tmp_path

    def test_lines_are_json_with_version(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        record = json.loads(journal.path.read_text().strip())
        assert record["v"] == 1
        assert record["key"] == "k1"
        assert record["status"] == "done"


class TestDeferredSignals:
    def test_sigint_held_until_exit(self):
        reached_end = False
        with pytest.raises(KeyboardInterrupt):
            with deferred_signals():
                signal.raise_signal(signal.SIGINT)
                reached_end = True  # the critical section completes
        assert reached_end

    def test_no_signal_no_effect(self):
        with deferred_signals():
            pass  # nothing raised, handlers restored

    def test_custom_handler_redelivered(self):
        hits = []
        previous = signal.signal(signal.SIGUSR1, lambda s, f: hits.append(s))
        try:
            with deferred_signals(signals=(signal.SIGUSR1,)):
                signal.raise_signal(signal.SIGUSR1)
                assert hits == []  # held inside the section
            assert hits == [signal.SIGUSR1]  # delivered on exit
        finally:
            signal.signal(signal.SIGUSR1, previous)


class TestDeferredSignalsDurability:
    """The guard exists for one pair: store-write + journal-append."""

    @pytest.fixture(scope="class")
    def outcome(self, synthetic_graph):
        from repro.exec_models.registry import make_model
        from repro.simulate import commodity_cluster

        return make_model("static_block").run(synthetic_graph, commodity_cluster(4))

    def test_sigterm_held_across_store_and_journal(self, outcome, tmp_path):
        from repro.core import ResultCache

        hits = []
        previous = signal.signal(signal.SIGTERM, lambda s, f: hits.append(s))
        try:
            cache = ResultCache(tmp_path / "cache")
            journal = SweepJournal(tmp_path / "j.jsonl")
            with deferred_signals():
                cache.put("deadbeef" * 8, outcome)
                signal.raise_signal(signal.SIGTERM)  # lands mid-pair
                journal.append(entry("deadbeef" * 8))
                assert hits == []  # held through the critical section
            assert hits == [signal.SIGTERM]  # re-delivered on exit
        finally:
            signal.signal(signal.SIGTERM, previous)
        # Both halves of the pair are durable despite the signal.
        assert cache.get("deadbeef" * 8).makespan == outcome.makespan
        assert keys_of(journal.path) == ["deadbeef" * 8]

    def test_sigint_reraised_after_durable_append(self, outcome, tmp_path):
        from repro.core import ResultCache

        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal(tmp_path / "j.jsonl")
        with pytest.raises(KeyboardInterrupt):
            with deferred_signals():
                cache.put("cafef00d" * 8, outcome)
                signal.raise_signal(signal.SIGINT)
                journal.append(entry("cafef00d" * 8))
        assert cache.get("cafef00d" * 8).makespan == outcome.makespan
        assert keys_of(journal.path) == ["cafef00d" * 8]

    def test_torn_tail_from_killed_appender_heals(self, tmp_path):
        # A writer killed mid-append leaves a newline-less fragment; the
        # next writer must append past it, not into it.
        path = tmp_path / "j.jsonl"
        first = SweepJournal(path)
        first.append(entry("k1"))
        full_line = json.dumps(
            {"v": 1, "key": "k2", "label": "l", "status": "done"}
        )
        with open(path, "a") as fh:
            fh.write(full_line[: len(full_line) // 2])  # killed mid-write
        assert keys_of(path) == ["k1"]  # the fragment is no record
        SweepJournal(path).append(entry("k3"))
        assert keys_of(path) == ["k1", "k3"]  # fragment sealed off
        assert len(path.read_text().splitlines()) == 3
