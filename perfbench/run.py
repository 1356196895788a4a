"""Repository benchmark: seeded KV workloads through the sharded facade.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb_a_durable_mortal --seed 1 \\
        --seconds 30 --trace 0

One closed-loop client drives one workload (see ``workloads.py``) through
the public ``ShardedKVStore`` API for ``--seconds`` and checks every result
against the last acknowledged value.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs a separate traced pass and prints per-layer
self time and counts (see ``tracing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The line before it is a
``perfbench-record`` JSON line with the seed, the environment and sample
counts, which ``compare.py`` reads.  README.md has the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    from repro.sharding.shard import Shard
    from repro.tools.fsck import fsck_sharded
except ImportError as exc:  # run outside a checkout of the repository
    print(f"perfbench: cannot import the system under test: {exc}",
          file=sys.stderr)
    sys.exit(2)

import tracing
import workloads

#: Trials per measured run, each on a freshly set-up store; ``setup_s`` is
#: the median of their set-up times.
TRIALS = 3
#: Host-speed probe: iterations of a fixed interpreter-bound loop, timed
#: right before every store call (about 6 us on a 2.1 GHz Xeon).  A shared
#: host's speed drops by up to 2x for spells of 50 ms to tens of seconds
#: (other tenants' load); the probe tells those spells apart.
PROBE_LOOPS = 200
#: A call ran at full host speed when the probes right before and right
#: after it both took at most ``FULL_SPEED_FACTOR`` times the reference
#: probe time: the run's ``PROBE_REF_PERCENTILE``-th percentile probe at
#: the same place in a step (before the put, or before the get).
FULL_SPEED_FACTOR = 1.2
PROBE_REF_PERCENTILE = 1
#: Calls per block of the blocked p99 (see ``_p99_us``).
TAIL_BLOCK = 1000
#: Columns of ``Client.log``, one row per client step: ops, the put and
#: get call times, the step time, and the probe times before the put and
#: before the get.  A call's columns are 0 when the step made no such call;
#: a call's time is also 0 when it failed.
OPS, PUT_NS, GET_NS, STEP_NS, PUT_PROBE, GET_PROBE = range(6)
N_COLUMNS = 6
#: A traced run measures one trial's window on one store: the first half
#: untraced (the tracing overhead baseline), the second half traced.
TRACE_SPLIT = 0.5
#: Layer self times must add up to within this share of window time.
LAYER_SUM_TOLERANCE = 0.10
#: Scratch space for durable stores, inside the checkout.
SCRATCH_DIR = ROOT / ".perfbench_tmp"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "put_p50_us": "us",
    "put_p99_us": "us",
    "get_p50_us": "us",
    "get_p99_us": "us",
    "bit_flips_per_user_byte": "flips/B",
    "write_energy_pj_per_user_byte": "pJ/B",
    "media_writes_per_put": "writes/put",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _op_bench_wear(shard) -> tuple[int, int, int]:
    """Benchmark-only shard op: (max, sum, count) of per-segment write
    counts over value segments (a durable pool's log and catalog prefix
    excluded)."""
    start = shard.pool.object_start_segment if shard.pool is not None else 0
    counts = shard.device.segment_write_count[start:]
    return int(counts.max()), int(counts.sum()), int(counts.size)


# Installed before any store is built so forked shard workers inherit it.
Shard._op_bench_wear = _op_bench_wear


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # What the process backend picks (see ProcessBackend).
        "start_method": "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "default",
    }


def _cpu_jiffies() -> tuple[int, int]:
    """(stolen, total) CPU time of the machine so far, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of one process (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb(store) -> float:
    """Peak RSS of this client plus its shard worker processes."""
    total = _rss_mb()
    if store.backend_name == "process":
        for shard_id in range(store.n_shards):
            total += _rss_mb(store.backend.worker_pid(shard_id))
    return total


def _probe_ns(loops=range(PROBE_LOOPS)) -> int:
    """Time of the host-speed probe loop, in ns."""
    start = perf_counter_ns()
    total = 0
    for i in loops:
        total += i & 7
    return perf_counter_ns() - start


class Client:
    """The closed-loop client and its output oracle: every GET must
    return the last acknowledged value of its key."""

    def __init__(self, store, workload, inputs, snapshot=None) -> None:
        self.store = store
        self.batched = workload.batched
        self.steps = inputs.steps
        self.pos = 0
        #: Last acknowledged value per key; ``None`` after a failed PUT
        #: (either the old or the new value may then be stored).
        self.model: dict[bytes, bytes | None] = dict(inputs.load)
        #: Flat rows of ``N_COLUMNS`` (see ``OPS``), one per recorded step.
        #: The step time covers both calls and the oracle, not the probes.
        self.log = array("q")
        #: Time spent in probes, recorded or not.
        self.probe_ns_total = 0
        self.attempted = 0
        self.failed = 0
        self.puts = 0
        self.put_bytes = 0
        self.exhausted = False
        #: After exactly ``count_ops`` ops: ``snapshot()`` and the PUT
        #: count and bytes so far (the base of the count metrics).
        self.count_ops = workload.count_ops
        self.snapshot = snapshot
        self.at_count: tuple | None = None

    def run(self, deadline: float, max_ops: int | None = None,
            record: bool = True) -> None:
        """Send steps until ``deadline``, ``max_ops`` total ops, or the
        inputs run out; steps are logged when ``record``."""
        store, model, log = self.store, self.model, self.log
        n_steps = len(self.steps)
        while perf_counter() < deadline and (
            max_ops is None or self.attempted < max_ops
        ):
            if self.pos == n_steps:
                self.exhausted = True
                return
            puts, gets = self.steps[self.pos]
            self.pos += 1
            put_ns = get_ns = put_probe = get_probe = 0
            step_start = perf_counter_ns()
            if puts:
                put_probe = _probe_ns()
                start = perf_counter_ns()
                try:
                    if self.batched:
                        store.put_many(puts)
                    else:
                        store.put(*puts[0])
                except Exception:  # noqa: BLE001 - counted, not fatal
                    self.failed += len(puts)
                    for key, _ in puts:
                        model[key] = None
                else:
                    put_ns = perf_counter_ns() - start
                    for key, value in puts:
                        model[key] = value
                self.puts += len(puts)
                self.put_bytes += sum(len(value) for _, value in puts)
            if gets:
                get_probe = _probe_ns()
                start = perf_counter_ns()
                try:
                    if self.batched:
                        got = store.get_many(gets)
                    else:
                        got = [store.get(gets[0])]
                except Exception:  # noqa: BLE001 - counted, not fatal
                    self.failed += len(gets)
                else:
                    get_ns = perf_counter_ns() - start
                    for key, value in zip(gets, got):
                        expected = model[key]
                        if expected is not None and value != expected:
                            self.failed += 1
            probes = put_probe + get_probe
            self.probe_ns_total += probes
            if record:
                log.extend((len(puts) + len(gets), put_ns, get_ns,
                            perf_counter_ns() - step_start - probes,
                            put_probe, get_probe))
            self.attempted += len(puts) + len(gets)
            if self.attempted == self.count_ops and self.snapshot:
                self.at_count = (self.snapshot(), self.puts, self.put_bytes)

    def read_back(self, store) -> int:
        """Read every key once (outside any window); returns mismatches."""
        keys = list(self.model)
        bad = 0
        for i in range(0, len(keys), workloads.STEP_OPS):
            chunk = keys[i : i + workloads.STEP_OPS]
            for key, value in zip(chunk, store.get_many(chunk)):
                expected = self.model[key]
                if expected is not None and value != expected:
                    bad += 1
        return bad


def counters(store) -> dict:
    """Device and placement counters summed over shards, plus value-segment
    wear."""
    telemetry = store.telemetry()
    wear = [
        store.backend.call(s, "bench_wear", ()) for s in range(store.n_shards)
    ]
    return {
        "device": telemetry["device"],
        "placement": telemetry["placement"],
        "wear_max": max(w[0] for w in wear),
        "wear_mean": sum(w[1] for w in wear) / sum(w[2] for w in wear),
    }


def setup(workload, inputs, root: Path):
    """Create the store (trains every shard's model) and load it."""
    start = perf_counter()
    store = workloads.create_store(workload, root)
    try:
        workloads.load(store, inputs.load)
    except BaseException:
        store.close()
        raise
    return store, perf_counter() - start


def _p99_us(samples_ns: np.ndarray) -> float:
    """p99 latency: the median of the p99s of consecutive blocks of at
    least ``TAIL_BLOCK`` calls, so every block's p99 has ten or more
    samples beyond it."""
    n_blocks = max(1, len(samples_ns) // TAIL_BLOCK)
    blocks = np.array_split(samples_ns, n_blocks)
    return float(np.median([np.percentile(b, 99) for b in blocks])) / 1e3


def full_speed(logs: list[np.ndarray]) -> np.ndarray:
    """Which calls of ``logs`` (one log per window, in order) ran at full
    host speed.  Returns a boolean array shaped like the stacked logs:
    column ``PUT_NS`` marks puts, ``GET_NS`` gets and ``STEP_NS`` steps
    whose calls all did.  The probe after a step's last call is the next
    step's first, so a window's last step never counts."""
    stacked = np.concatenate(logs)
    fast_probe = {}
    for col in (PUT_PROBE, GET_PROBE):
        taken = stacked[:, col] > 0
        ref = np.percentile(stacked[taken, col], PROBE_REF_PERCENTILE)
        fast_probe[col] = taken & (stacked[:, col] <= ref * FULL_SPEED_FACTOR)
    has_put = stacked[:, PUT_PROBE] > 0
    has_get = stacked[:, GET_PROBE] > 0
    first = np.where(has_put, fast_probe[PUT_PROBE], fast_probe[GET_PROBE])
    after = np.append(first[1:], False)
    ends = np.cumsum([len(log) for log in logs]) - 1
    after[ends] = False
    fast = np.zeros(stacked.shape, dtype=bool)
    fast[:, GET_NS] = fast_probe[GET_PROBE] & after
    fast[:, PUT_NS] = fast_probe[PUT_PROBE] & np.where(
        has_get, fast_probe[GET_PROBE], after)
    fast[:, STEP_NS] = (after & (fast_probe[PUT_PROBE] | ~has_put)
                        & (fast_probe[GET_PROBE] | ~has_get))
    return fast


def ops_per_s(steps: np.ndarray) -> float:
    """Client ops per second of step time over ``steps`` (rows of a log)."""
    return steps[:, OPS].sum() / steps[:, STEP_NS].sum() * 1e9


def speed_metrics(log: np.ndarray, fast: np.ndarray) -> dict[str, float]:
    """Throughput and call latencies over the calls and steps of ``log``
    that ``fast`` (see ``full_speed``) marks."""
    put_ns = log[fast[:, PUT_NS] & (log[:, PUT_NS] > 0), PUT_NS]
    get_ns = log[fast[:, GET_NS] & (log[:, GET_NS] > 0), GET_NS]
    return {
        "ops_per_s": ops_per_s(log[fast[:, STEP_NS]]),
        "put_p50_us": float(np.median(put_ns)) / 1e3,
        "put_p99_us": _p99_us(put_ns),
        "get_p50_us": float(np.median(get_ns)) / 1e3,
        "get_p99_us": _p99_us(get_ns),
    }


def verify_after(store, workload, client, root: Path) -> list[str]:
    """Post-window checks: read back every key; a durable store is closed,
    fsck'd and reopened, and every key read back again.  Closes ``store``."""
    problems = []
    try:
        bad = client.read_back(store)
        if bad:
            problems.append(f"{bad} keys read back wrong")
    finally:
        store.close()
    if workload.durable:
        report = fsck_sharded(root)
        if not report.ok:
            problems.append(f"fsck_sharded: {report.errors[:3]}")
        reopened = workloads.reopen_store(workload, root)
        try:
            bad = client.read_back(reopened)
            if bad:
                problems.append(f"{bad} keys read back wrong after reopen")
        finally:
            reopened.close()
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_window(client, seconds: float) -> np.ndarray:
    """Run ``client`` for ``seconds``; returns the window's step log."""
    first = len(client.log)
    client.run(perf_counter() + seconds)
    return np.array(client.log[first:], dtype=np.int64).reshape(-1, N_COLUMNS)


def measure(workload, inputs, seconds: float, scratch: Path):
    """The end-to-end run: ``TRIALS`` trials, each a fresh set-up followed
    by a ``seconds / TRIALS`` window that replays the same inputs.

    The timings pool the trials' steps that ran at full host speed (see
    ``full_speed``); the count metrics come from the first trial's
    counted prefix."""
    setup_times, logs, clients = [], [], []
    problems: list[str] = []
    rss = 0.0
    for trial in range(TRIALS):
        root = scratch / f"store-{trial}"
        store, elapsed = setup(workload, inputs, root)
        setup_times.append(elapsed)
        first = trial == 0
        try:
            client = Client(
                store, workload, inputs,
                snapshot=(lambda s=store: counters(s)) if first else None,
            )
            if first:
                before = counters(store)
            logs.append(timed_window(client, seconds / TRIALS))
            if first and client.at_count is None:
                # A slow machine: finish the counted prefix after the window.
                client.run(float("inf"), max_ops=workload.count_ops,
                           record=False)
            rss = max(rss, peak_rss_mb(store))
        except BaseException:
            store.close()
            raise
        problems += verify_after(store, workload, client, root)
        clients.append(client)

    fast = full_speed(logs)
    steps = np.concatenate(logs)
    after, counted_puts, counted_bytes = clients[0].at_count
    dev_before, dev_after = before["device"], after["device"]
    metrics = {
        **speed_metrics(steps, fast),
        "bit_flips_per_user_byte": _ratio(
            dev_after["bits_flipped"] - dev_before["bits_flipped"],
            counted_bytes,
        ),
        "write_energy_pj_per_user_byte": _ratio(
            dev_after["write_energy_pj"] - dev_before["write_energy_pj"],
            counted_bytes,
        ),
        "media_writes_per_put": _ratio(
            dev_after["writes"] - dev_before["writes"], counted_puts
        ),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    extra = {
        # Exact per seed but spread ~25% across seeds on ycsb_b (an extreme
        # value over few writes), so it is recorded, not a bounded metric.
        "wear_max_over_mean": _ratio(after["wear_max"], after["wear_mean"]),
        "step_time_s": steps[:, STEP_NS].sum() / 1e9,
        "counted_ops": workload.count_ops,
        "counted_puts": counted_puts,
        "steps": len(steps),
        "full_speed_steps": int(fast[:, STEP_NS].sum()),
        "put_samples": int((fast[:, PUT_NS] & (steps[:, PUT_NS] > 0)).sum()),
        "get_samples": int((fast[:, GET_NS] & (steps[:, GET_NS] > 0)).sum()),
        # The same figures over every call, host slow spells included.
        "all_calls": speed_metrics(steps, np.ones(steps.shape, dtype=bool)),
        "setup_times_s": setup_times,
        "inputs_exhausted": any(c.exhausted for c in clients),
    }
    return clients, metrics, extra, problems


def trace(workload, inputs, seconds: float, scratch: Path):
    """The per-layer run: one set-up, then ``seconds`` split into an
    untraced half (the overhead baseline) and a traced half."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    root = scratch / "store-0"
    store, _ = setup(workload, inputs, root)
    in_workers = workload.backend == "process"
    try:
        client = Client(store, workload, inputs)
        untraced_s = seconds * TRACE_SPLIT
        untraced_log = timed_window(client, untraced_s)

        before = counters(store)
        if in_workers:
            for shard_id in range(store.n_shards):
                store.backend.call(shard_id, "bench_trace", ("start",))
        ops_before, puts_before = client.attempted, client.puts
        probe_before = client.probe_ns_total
        tracer.start()
        start = perf_counter_ns()
        traced_log = timed_window(client, seconds - untraced_s)
        # The probes run outside every layer: not part of the window.
        window_ns = (perf_counter_ns() - start
                     - (client.probe_ns_total - probe_before))
        parent = tracer.stop()
        worker_totals = [
            store.backend.call(shard_id, "bench_trace", ("stop",))
            for shard_id in range(store.n_shards)
        ] if in_workers else []
        after = counters(store)
    except BaseException:
        store.close()
        raise
    problems = verify_after(store, workload, client, root)

    totals = tracing.merge(parent, worker_totals)
    ops = client.attempted - ops_before
    puts = client.puts - puts_before
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYER_NAMES:
        metrics[f"{layer}.self_us_per_op"] = (
            totals["self_ns"][layer] / 1e3 / ops, "us/op")
        metrics[f"{layer}.calls_per_op"] = (
            totals["calls"][layer] / ops, "calls/op")
    metrics["perfbench.client.self_us_per_op"] = (
        (window_ns - totals["root_ns"]) / 1e3 / ops, "us/op")

    fn_calls, fn_rows = totals["fn_calls"], totals["fn_rows"]

    def rows_per_call(*names: str) -> float:
        return _ratio(sum(fn_rows[n] for n in names),
                      sum(fn_calls[n] for n in names))

    placed = {
        key: after["placement"][key] - before["placement"][key]
        for key in ("cache_hits", "cache_misses", "student_served",
                    "teacher_served")
    }
    metrics.update({
        "fastpath.cache_hit_ratio": (_ratio(
            placed["cache_hits"],
            placed["cache_hits"] + placed["cache_misses"]), "ratio"),
        "fastpath.student_served_per_put": (
            _ratio(placed["student_served"], puts), "rows/put"),
        "fastpath.teacher_served_per_put": (
            _ratio(placed["teacher_served"], puts), "rows/put"),
        "pipeline.rows_per_call": (rows_per_call(
            "EncoderPipeline.predict_cluster",
            "EncoderPipeline.predict_batch"), "rows/call"),
        "controller.rows_per_call": (rows_per_call(
            "MemoryController.write", "MemoryController.write_many"),
            "rows/call"),
        "transaction.records_per_put": (
            _ratio(fn_calls["Transaction.write"], puts), "records/put"),
        "device.programs_per_put": (_ratio(
            fn_rows["NVMDevice.program"] + fn_rows["NVMDevice.program_many"],
            puts), "rows/put"),
    })
    layer_sum = sum(totals["self_ns"].values()) / window_ns
    fast = full_speed([untraced_log, traced_log])[:, STEP_NS]
    untraced = ops_per_s(untraced_log[fast[:len(untraced_log)]])
    traced = ops_per_s(traced_log[fast[len(untraced_log):]])
    metrics.update({
        "trace.layer_sum_frac": (layer_sum, "ratio"),
        "trace.ops_per_s_untraced": (untraced, "1/s"),
        "trace.ops_per_s_traced": (traced, "1/s"),
        "trace.overhead_frac": (1 - traced / untraced, "ratio"),
    })
    if abs(layer_sum - 1) > LAYER_SUM_TOLERANCE:
        problems.append(
            f"layer self times sum to {layer_sum:.3f} of window time")
    extra = {
        "window_s": window_ns / 1e9,
        "traced_ops": ops,
        "in_shard_layers": "worker processes" if in_workers else "in-process",
        "inputs_exhausted": client.exhausted,
    }
    return [client], metrics, extra, problems


def _print_table(metrics: dict[str, tuple[float, str]]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name.ljust(width)}  {value:14.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS_BY_NAME[args.workload]

    env = environment()
    steal_before = _cpu_jiffies()
    # Each store runs for one trial's share of the window, traced or not.
    store_seconds = args.seconds / TRIALS
    inputs = workloads.make_inputs(workload, args.seed, store_seconds)
    # The inputs live for the whole run: keep the collector from walking
    # them again and again inside the window.
    gc.collect()
    gc.freeze()
    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_DIR))
    try:
        if args.trace:
            clients, metrics, extra, problems = trace(
                workload, inputs, store_seconds, scratch)
        else:
            clients, raw, extra, problems = measure(
                workload, inputs, args.seconds, scratch)
            metrics = {
                name: (value, END_TO_END_UNITS[name])
                for name, value in raw.items()
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    env["loadavg_after"] = list(os.getloadavg())
    # CPU time the hypervisor gave to other guests during the run: a
    # noisy-neighbour signal for reading the timings.
    steal_after = _cpu_jiffies()
    env["cpu_steal_frac"] = _ratio(steal_after[0] - steal_before[0],
                                   steal_after[1] - steal_before[1])

    failed = sum(client.failed for client in clients)
    attempted = max(sum(client.attempted for client in clients), 1)
    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): "
          f"{attempted} ops, {failed} failed "
          f"(failed_op_frac {failed / attempted:.6g})")
    _print_table(metrics)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("perfbench-record " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "failed_op_frac": failed / attempted,
        "problems": problems,
        **extra,
    }))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
