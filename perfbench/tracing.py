"""Outside-in per-layer tracing, installed from the benchmark.

Each layer is one module of ``repro``.  :func:`install` wraps the public
methods of that module's classes with a span timer; nothing under ``src/``
changes.  A span's *self time* is its duration minus the time of the spans
it directly caused, so the self times of all layers add up to the time the
client spent inside the store.

Wrappers are installed before the store is built: objects that capture
bound methods at construction then hold the wrapped ones, and the process
backend's forked shard workers inherit them.  While a :class:`Tracer` is
off a wrapper costs one attribute check.  A traced worker is driven
through a benchmark-only shard op, ``bench_trace``, that starts its tracer
and ships back its totals.  The worker's in-shard time is subtracted from
the parent's ``sharding.backends`` self time, leaving the RPC cost
(pickling, the pipe and the worker's receive loop).
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter_ns
from types import FunctionType

#: (layer name, module, classes whose public methods form the layer), in
#: the order a PUT crosses them.
LAYERS = (
    ("sharding.store", "repro.sharding.store", ("ShardedKVStore",)),
    (
        "sharding.backends",
        "repro.sharding.backends",
        ("InProcessBackend", "ProcessBackend"),
    ),
    ("sharding.shard", "repro.sharding.shard", ("Shard",)),
    ("core.kvstore", "repro.core.kvstore", ("KVStore",)),
    ("core.e2nvm", "repro.core.e2nvm", ("E2NVM",)),
    (
        "core.fastpath",
        "repro.core.fastpath",
        ("FastPlacementLayer", "PlacementCache"),
    ),
    ("core.pipeline", "repro.core.pipeline", ("EncoderPipeline",)),
    ("core.padding", "repro.core.padding", ("Padder",)),
    ("core.address_pool", "repro.core.address_pool", ("DynamicAddressPool",)),
    ("pmem.pool", "repro.pmem.pool", ("PersistentPool",)),
    ("pmem.transaction", "repro.pmem.transaction", ("Transaction",)),
    ("pmem.catalog", "repro.pmem.catalog", ("PersistentCatalog",)),
    ("nvm.controller", "repro.nvm.controller", ("MemoryController",)),
    ("baselines.dcw", "repro.baselines.dcw", ("DCW",)),
    ("nvm.ecc", "repro.nvm.ecc", ("ErrorCorrectingPointers",)),
    ("nvm.health", "repro.nvm.health", ("HealthManager",)),
    ("nvm.device", "repro.nvm.device", ("NVMDevice",)),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

#: Dunder methods that do a layer's work (a transaction commits in
#: ``__exit__``); every other wrapped method is public.
_WORK_DUNDERS = ("__enter__", "__exit__")


def _rows_arg(args, kwargs) -> int:
    """Rows of a batched call: the length of its first argument."""
    return len(args[1]) if len(args) > 1 else len(next(iter(kwargs.values())))


#: Functions whose rows are counted (rows per call, per PUT).  Scalar
#: twins count one row per call.
ROW_COUNTED = {
    "MemoryController.write": None,
    "MemoryController.write_many": _rows_arg,
    "NVMDevice.program": None,
    "NVMDevice.program_many": _rows_arg,
    "EncoderPipeline.predict_cluster": None,
    "EncoderPipeline.predict_batch": _rows_arg,
}
#: Functions whose calls are counted individually.
CALL_COUNTED = ("Transaction.write",)


class Tracer:
    """Per-layer self time and call counts of the thread that started it."""

    def __init__(self) -> None:
        self.on = False
        self._thread: int | None = None
        # Child time of each open span, innermost last.
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.fn_rows: dict[str, int] = defaultdict(int)
        #: Total duration of outermost spans: time spent inside the store.
        self.root_ns = 0

    def start(self) -> None:
        self.reset()
        self._thread = threading.get_ident()
        self.on = True

    def stop(self) -> dict:
        self.on = False
        return self.totals()

    def totals(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "fn_calls": dict(self.fn_calls),
            "fn_rows": dict(self.fn_rows),
            "root_ns": self.root_ns,
        }

    def wrap(self, layer: str, qualname: str, fn):
        tracer = self
        counted = qualname in ROW_COUNTED or qualname in CALL_COUNTED
        rows = ROW_COUNTED.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                tracer.self_ns[layer] += duration - stack.pop()
                tracer.calls[layer] += 1
                if counted:
                    tracer.fn_calls[qualname] += 1
                    tracer.fn_rows[qualname] += (
                        1 if rows is None else rows(args, kwargs)
                    )
                if stack:
                    stack[-1] += duration
                else:
                    tracer.root_ns += duration

        return traced


def merge(parent: dict, workers: list[dict]) -> dict:
    """Fold worker totals into the parent's: in-shard layers add up, and
    in-shard time leaves the parent's ``sharding.backends`` self time."""
    out = {
        key: defaultdict(int, parent[key])
        for key in ("self_ns", "calls", "fn_calls", "fn_rows")
    }
    for worker in workers:
        for key in out:
            for name, value in worker[key].items():
                out[key][name] += value
        out["self_ns"]["sharding.backends"] -= worker["root_ns"]
    out["root_ns"] = parent["root_ns"]
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer's public methods for ``tracer`` and add the
    ``bench_trace`` shard op.  Process-wide; call before building stores."""
    for layer, module_name, class_names in LAYERS:
        module = importlib.import_module(module_name)
        for class_name in class_names:
            cls = getattr(module, class_name)
            for name, attr in list(vars(cls).items()):
                public = not name.startswith("_") or name in _WORK_DUNDERS
                if public and isinstance(attr, FunctionType):
                    qualname = f"{class_name}.{name}"
                    setattr(cls, name, tracer.wrap(layer, qualname, attr))

    from repro.sharding.shard import Shard

    def _op_bench_trace(shard, command: str):
        # Runs in a worker process, on the worker's copy of the tracer.
        # In-process shards share the parent's tracer and need no call.
        if command == "start":
            tracer.start()
            return None
        return tracer.stop()

    Shard._op_bench_trace = _op_bench_trace
