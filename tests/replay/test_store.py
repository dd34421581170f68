"""The replay record store: round trip, probe, corruption."""

from __future__ import annotations

import json

import pytest

from repro.replay import ReplayResultStore, replay_record
from repro.replay.engine import ReplayResult

KEY = "ab" + "0" * 62


def _result(policy="no-prefetch"):
    r = ReplayResult(policy={"name": policy})
    r.events = 10
    r.switches = 4
    r.total_seconds = 0.25
    for latency in (0.01, 0.02, 0.05, 0.17):
        r.latency.observe(latency)
    return r


def _put(store, key, result):
    return store.put_many({key: replay_record(result)})


class TestReplayResultStore:
    def test_round_trip(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        result = _result()
        _put(store, KEY, result)
        again = store.get_result(KEY)
        assert again is not None
        assert replay_record(again) == replay_record(result)

    def test_bytes_are_deterministic(self, tmp_path):
        a = ReplayResultStore(tmp_path / "a")
        b = ReplayResultStore(tmp_path / "b")
        pa = _put(a, KEY, _result())
        pb = _put(b, KEY, _result())
        assert pa.read_bytes() == pb.read_bytes()

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert store.get_record(KEY) is None
        assert store.misses == 1 and store.hits == 0

    def test_probe(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        assert not store.probe(KEY)
        _put(store, KEY, _result())
        assert store.probe(KEY)
        assert store.hits == 1 and store.misses == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            "not json at all",
            json.dumps({"format": "wrong", "version": 1,
                        "records": {KEY: {}}}),
            json.dumps({"format": "repro-replay-segment", "version": 99,
                        "records": {KEY: {}}}),
            json.dumps({"format": "repro-replay-segment", "version": 1,
                        "records": None}),
            json.dumps({"format": "repro-replay-segment", "version": 1,
                        "records": {KEY: None}}),
        ],
    )
    def test_corrupt_entries_count_as_misses(self, tmp_path, corrupt):
        store = ReplayResultStore(tmp_path / "replay")
        store.segment_dir().mkdir()
        (store.segment_dir() / "corrupt.json").write_text(
            corrupt, encoding="utf-8")
        assert store.get_record(KEY) is None
        assert store.hits == 0 and store.misses == 1
        assert not store.probe(KEY)

    def test_keys_enumerates_stored_records(self, tmp_path):
        store = ReplayResultStore(tmp_path / "replay")
        other = "cd" + "1" * 62
        _put(store, KEY, _result())
        _put(store, other, _result("prefetch-oracle"))
        assert sorted(store.keys()) == sorted([KEY, other])
