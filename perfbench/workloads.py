"""The benchmark's workloads: what each one runs on and its seeded inputs.

Every workload drives the public :class:`repro.sharding.ShardedKVStore`
API from one closed-loop client (the next call is sent only after the
previous one returned) and runs the shipped ``E2NVMConfig()`` defaults.
The seed changes only the generated inputs (load records, key choices,
operation mix, values); store geometry and the store's own seeds are fixed
here, so two seeds run the same system on different traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import E2NVMConfig
from repro.nvm.device import WearOutConfig
from repro.sharding import ShardedKVStore
from repro.workloads.ycsb import (
    WORKLOADS,
    PrototypeValueGenerator,
    YCSBWorkload,
)
from repro.workloads.zipfian import ZipfianGenerator

#: Bytes per device segment and per value: full-segment values, so padding
#: is a no-op and every PUT costs placement + claim + differential write.
SEGMENT_SIZE = 64
VALUE_SIZE = 64
#: Records loaded before the timed window; every run-phase op touches one.
N_RECORDS = 1000
#: Device segments, split evenly over a workload's shards: the live
#: records plus free segments for every cluster to place into (out-of-place
#: updates recycle the old segment).
N_SEGMENTS = 2048
#: Durable shards: undo-log segments and catalog key capacity (max key
#: length; YCSB keys are 16 bytes).
LOG_SEGMENTS = 4
KEY_CAPACITY = 16
#: Ops per client step of the batched workloads: the step's updates go out
#: as one ``put_many`` and its reads as one ``get_many``.
STEP_OPS = 16
#: Values in the hot set of ``hotset_overwrite`` and their Zipf skew.
HOT_VALUES = 64
HOT_THETA = 0.99
#: Seed of the dataset (record prototypes, hot set), fixed across runs.
DATASET_SEED = 2023


@dataclass(frozen=True)
class Workload:
    name: str
    #: YCSB core mix ("A": 50% update / 50% read, "B": 5% / 95%), scrambled
    #: Zipfian key choice.
    mix: str
    #: 16-op steps through put_many/get_many, or one scalar call per op.
    batched: bool
    backend: str
    n_shards: int
    durable: bool
    #: Device with a wear-out model (verify-after-write on).  The endurance
    #: is the model's default 1e8 cycles, so nothing retires in a run.
    mortal: bool
    #: Values drawn Zipf(HOT_THETA) from a HOT_VALUES-value hot set instead
    #: of fresh prototype+noise values that never repeat.
    hot_set: bool
    #: Ops generated per measured second: a ceiling above the rate the
    #: workload reaches (2-3x on a 2-core x86 box).  A system fast enough
    #: to use them all ends its window early; the run records that.
    max_ops_per_s: int
    #: The count metrics (flips, energy, media writes, wear) are taken over
    #: exactly this many run-phase ops, so they repeat exactly per seed
    #: whatever the machine's speed; the window normally passes it early.
    count_ops: int


WORKLOADS_BY_NAME = {
    w.name: w
    for w in (
        # The shipped configuration: a durable undo-logged shard on mortal
        # media with verify-after-write.  Fresh values always miss the memo
        # cache, so the write path does the work.
        Workload(
            name="ycsb_a_durable_mortal",
            mix="A",
            batched=True,
            backend="inprocess",
            n_shards=1,
            durable=True,
            mortal=True,
            hot_set=False,
            max_ops_per_s=4000,
            count_ops=8192,
        ),
        # The read path across the shard RPC: 2 worker-process shards,
        # scalar get/put, 95% reads.  Not gated in BENCHMARK.json: its
        # timings follow the host's CPU steal (see README.md).  Run it by
        # name for the RPC breakdown.
        Workload(
            name="ycsb_b_sharded_rpc",
            mix="B",
            batched=False,
            backend="process",
            n_shards=2,
            durable=False,
            mortal=False,
            hot_set=False,
            max_ops_per_s=24000,
            count_ops=65536,
        ),
        # A 64-value hot set that fits the memo cache: the fast placement
        # tier and the vectorised write_many path, with no undo log and no
        # RPC.
        Workload(
            name="hotset_overwrite",
            mix="A",
            batched=True,
            backend="inprocess",
            n_shards=1,
            durable=False,
            mortal=False,
            hot_set=True,
            max_ops_per_s=60000,
            count_ops=65536,
        ),
    )
}


class _RecordValues(PrototypeValueGenerator):
    """Prototype+noise record values.  The prototypes are the dataset's
    fixed record schema (seed ``DATASET_SEED``); the run's seed draws the
    noise, so every value is fresh but seeds differ in traffic, not in what
    the records look like."""

    def __init__(self, seed: int) -> None:
        super().__init__(VALUE_SIZE, seed=DATASET_SEED)
        self._rng = np.random.default_rng(seed)


class _HotSetValues:
    """Value source for the hot-set workload: Zipf-skewed picks, drawn by
    the run's seed, from a hot set of records fixed with the dataset."""

    def __init__(self, seed: int) -> None:
        gen = _RecordValues(DATASET_SEED)
        self._values = [gen.value() for _ in range(HOT_VALUES)]
        self._zipf = ZipfianGenerator(HOT_VALUES, theta=HOT_THETA, seed=seed)

    def value(self) -> bytes:
        return self._values[self._zipf.next()]


@dataclass
class Inputs:
    #: Load-phase (key, value) records, in load order.
    load: list[tuple[bytes, bytes]]
    #: Client steps: (updates as (key, value) pairs, read keys).  Scalar
    #: workloads have one op per step.
    steps: list[tuple[list[tuple[bytes, bytes]], list[bytes]]]


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The seeded load records and run-phase steps of one run."""
    n_ops = max(
        workload.count_ops, int(workload.max_ops_per_s * seconds)
    )
    values = (_HotSetValues if workload.hot_set else _RecordValues)(seed + 1)
    ycsb = YCSBWorkload(
        WORKLOADS[workload.mix],
        record_count=N_RECORDS,
        operation_count=n_ops,
        value_size=VALUE_SIZE,
        value_generator=values,
        seed=seed,
    )
    load = list(ycsb.load_phase())
    per_step = STEP_OPS if workload.batched else 1
    steps = []
    puts: list[tuple[bytes, bytes]] = []
    gets: list[bytes] = []
    for op in ycsb.operations():
        if op[0] == "read":
            gets.append(op[1])
        else:
            puts.append((op[1], op[2]))
        if len(puts) + len(gets) == per_step:
            steps.append((puts, gets))
            puts, gets = [], []
    return Inputs(load=load, steps=steps)


def _wearout(workload: Workload) -> WearOutConfig | None:
    return WearOutConfig() if workload.mortal else None


def create_store(workload: Workload, root) -> ShardedKVStore:
    """A fresh store for ``workload`` (durable ones live under ``root``)."""
    common = dict(
        segment_size=SEGMENT_SIZE,
        n_segments_per_shard=N_SEGMENTS // workload.n_shards,
        config=E2NVMConfig(),
        backend=workload.backend,
    )
    if workload.durable:
        return ShardedKVStore.create(
            root,
            workload.n_shards,
            log_segments=LOG_SEGMENTS,
            key_capacity=KEY_CAPACITY,
            wearout=_wearout(workload),
            **common,
        )
    if workload.mortal:
        raise ValueError("volatile stores are built on immortal media")
    return ShardedKVStore.create_volatile(workload.n_shards, **common)


def reopen_store(workload: Workload, root) -> ShardedKVStore:
    """Recover a closed durable store from its directory."""
    return ShardedKVStore.open(
        root, config=E2NVMConfig(), wearout=_wearout(workload)
    )


def load(store: ShardedKVStore, records: list[tuple[bytes, bytes]]) -> None:
    """The load phase: every record in ``STEP_OPS``-sized batches."""
    for i in range(0, len(records), STEP_OPS):
        store.put_many(records[i : i + STEP_OPS])
