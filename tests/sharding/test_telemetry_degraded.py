"""``ShardedKVStore.telemetry()`` keeps answering while a shard is down.

Under every degraded mode the rollup covers the shards that answer, and
``shard_status`` says why the others are missing — the fleet must not go
blind exactly during an incident.
"""

from __future__ import annotations

import pytest

from repro.core.config import fast_test_config
from repro.sharding import BatchReport, ShardedKVStore, ShardSupervisor


def _store(degraded):
    return ShardedKVStore.create_volatile(
        2,
        segment_size=64,
        n_segments_per_shard=64,
        config=fast_test_config(),
        degraded=degraded,
    )


@pytest.mark.parametrize("degraded", ["fail_fast", "partial", "block"])
def test_telemetry_reports_survivors_and_status(degraded):
    with _store(degraded) as store:
        items = [(b"key-%04d" % i, b"v-%04d" % i) for i in range(24)]
        store.put_many(items)
        healthy = store.telemetry()
        store.backend.inject_crash(1)
        if degraded == "partial":
            assert isinstance(store.get_many([k for k, _ in items]), BatchReport)
        rollup = store.telemetry()
    assert rollup["shard_status"] == {0: "ok", 1: "crashed"}
    assert rollup["n_shards"] == 2
    assert [t["shard_id"] for t in rollup["shards"]] == [0]
    survivor = healthy["shards"][0]
    assert rollup["n_keys"] == survivor["n_keys"] < healthy["n_keys"]
    assert rollup["device"]["writes"] == survivor["device"]["writes"]


def test_breaker_open_shard_is_reported_not_called():
    with _store("partial") as store:
        supervisor = ShardSupervisor(
            store, restart_budget=1, backoff_base_s=0.0, auto_start=False
        )
        store.backend.inject_crash(1)
        store.backend.inject_reopen_failures(1, 10)
        for _ in range(4):
            supervisor.run_once()
        assert supervisor.breaker_open(1)
        rollup = store.telemetry()
    assert rollup["shard_status"] == {0: "ok", 1: "breaker_open"}
    assert rollup["supervisor"]["breaker_trips"] == 1
