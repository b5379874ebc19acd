"""Checkpoint journal: durability, corruption tolerance, resume."""

import json
import signal

import pytest

from repro.core import JournalEntry, SweepJournal, sweep_id
from repro.core.journal import deferred_signals


def entry(key, status="done", **kw):
    return JournalEntry(key=key, label=f"label-{key}", status=status, **kw)


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
        loaded = journal.load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].attempts == 2
        assert loaded["k1"].result_path == "/tmp/x"
        assert loaded["k2"].status == "failed"
        assert loaded["k2"].error == "ValueError: boom"

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.jsonl").load() == {}

    def test_later_lines_win(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k", status="failed", error="first try"))
        journal.append(entry("k", status="done"))
        assert journal.load()["k"].status == "done"

    def test_torn_trailing_line_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.append(entry("k2"))
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-15])  # tear the final line
        assert set(journal.load()) == {"k1"}

    def test_garbage_lines_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        with open(journal.path, "a") as fh:
            fh.write("#### not json ####\n")
            fh.write('"a json string, not an object"\n')
            fh.write('{"v": 99, "key": "alien", "status": "done"}\n')
            fh.write('{"v": 1, "key": "k3", "status": "exploded"}\n')
        journal.append(entry("k2"))
        assert set(journal.load()) == {"k1", "k2"}

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
        assert set(second.load()) == {"k1", "k2"}

    def test_rotate_discards(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.rotate()
        assert journal.load() == {}
        assert len(journal) == 0
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


class TestJournalCompaction:
    def test_noop_below_min_bytes(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.append(entry("k1", status="failed"))
        before = journal.path.read_bytes()
        assert journal.compact() == 0  # default threshold: leave it alone
        assert journal.path.read_bytes() == before

    def test_superseded_and_garbage_lines_dropped(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1", status="failed", error="first try"))
        journal.append(entry("k1", status="done"))
        journal.append(entry("k2"))
        with open(journal.path, "a") as fh:
            fh.write("#### not json ####\n")
            fh.write('{"v":1,"key":"torn')  # no newline: torn tail
        reclaimed = journal.compact(min_bytes=0)
        assert reclaimed > 0
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # one line per surviving key, nothing else
        loaded = journal.load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].status == "done"  # the later line won

    def test_relevant_keys_filter_other_grids(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("mine"))
        journal.append(entry("other-grid"))
        journal.compact(["mine"], min_bytes=0)
        assert set(journal.load()) == {"mine"}

    def test_compacted_file_ends_with_newline(self, tmp_path):
        # append()'s torn-tail healing keys off the trailing newline; a
        # compacted journal must keep that contract.
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.compact(min_bytes=0)
        assert journal.path.read_bytes().endswith(b"\n")
        journal.append(entry("k2"))
        assert set(journal.load()) == {"k1", "k2"}

    def test_missing_file_is_noop(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.jsonl").compact(min_bytes=0) == 0

    def test_append_after_compaction_with_torn_tail(self, tmp_path):
        # compact() then a crash-torn append then resume: the heal path
        # must survive the rewrite.
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.append(entry("k1"))
        journal.append(entry("k2"))
        journal.compact(min_bytes=0)
        with open(journal.path, "a") as fh:
            fh.write('{"v":1,"key":"half')  # killed mid-write
        resumed = SweepJournal(journal.path)
        assert set(resumed.load()) == {"k1", "k2"}
        resumed.append(entry("k3"))
        assert set(resumed.load()) == {"k1", "k2", "k3"}


class TestResumeCompaction:
    """Resume-time compaction (SweepRunner) preserves bit-for-bit rows."""

    def _spec(self, tmp_path):
        from repro.core.jobspec import JobSpec, SourceSpec

        return JobSpec(
            source=SourceSpec(size=2),
            models=("static_block", "work_stealing"),
            ranks=(8, 16),
            executor="serial",
            cache_dir=str(tmp_path / "cache"),
        )

    def test_resume_after_compaction_identical(self, tmp_path):
        from repro import api

        spec = self._spec(tmp_path)
        calls = []

        def bomb(info):
            calls.append(info)
            if len(calls) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            api.run_job(spec, progress=bomb, resume=True)
        journals = list((tmp_path / "cache" / "journal").glob("sweep-*.jsonl"))
        assert journals, "interrupted sweep left no journal"
        # Force the resume path to actually compact (bypass min_bytes).
        SweepJournal(journals[0]).compact(min_bytes=0)
        events = []
        resumed = api.run_job(spec, resume=True, progress=events.append)
        reference = api.run_job(spec.with_overrides(cache=False), cache=None)
        assert resumed.rows() == reference.rows()
        # The resumed run reused settled cells from the compacted
        # journal/cache instead of recomputing them.
        assert events and events[-1].cached >= 1


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
        assert set(journal.load()) == {"deadbeef" * 8}

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
        assert set(journal.load()) == {"cafef00d" * 8}

    def test_torn_tail_from_killed_appender_heals(self, tmp_path):
        # A writer killed mid-append leaves a newline-less fragment; a
        # resumed sweep must both skip it on load and append past it.
        path = tmp_path / "j.jsonl"
        first = SweepJournal(path)
        first.append(entry("k1"))
        full_line = json.dumps(
            {"v": 1, "key": "k2", "label": "l", "status": "done"}
        )
        with open(path, "a") as fh:
            fh.write(full_line[: len(full_line) // 2])  # killed mid-write
        resumed = SweepJournal(path)
        assert set(resumed.load()) == {"k1"}  # fragment skipped
        resumed.append(entry("k3"))
        assert set(resumed.load()) == {"k1", "k3"}  # fragment sealed off
