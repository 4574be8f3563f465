"""Spans recorded around calls into the program's layers, from outside.

:func:`install` replaces public functions and methods of the program (the
ones each layer calls through) with timing wrappers.  A span records its
name, start, end, parent span and request id; parents follow
``contextvars`` (so they hold across threads started with a copied context
and across ``await``), and spans stay in memory until :meth:`SpanLog.dump`
writes them as JSON Lines at exit.  :func:`self_times` turns a span file into
self times per layer.

A wrapper whose target is missing is skipped and named in
``SpanLog.missing``, so a refactor of the program drops a layer from the
traced run instead of breaking the benchmark.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import time
import types
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar[Any] = contextvars.ContextVar("perfbench_request", default=None)


class SpanLog:
    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        #: submitted masks awaiting their launch: id(mask) -> (request, submit time)
        self.pending: dict[int, tuple[Any, float]] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, sid: int, name: str, start: float, end: float, parent: int | None,
            request: Any, attrs: dict | None = None) -> None:
        self.rows.append((sid, name, start, end, parent, request, attrs))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for sid, name, start, end, parent, request, attrs in self.rows:
                fh.write(json.dumps([sid, name, start, end, parent, request, attrs]) + "\n")


def set_request(request: Any) -> None:
    """Tag every span started from this context with ``request``."""
    _REQUEST.set(request)


def _wrap_sync(log: SpanLog, name: str, fn: Callable, attrs_of: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = log.next_id()
        parent = _SPAN.get()
        token = _SPAN.set(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _SPAN.reset(token)
        attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
        log.add(sid, name, start, end, parent, _REQUEST.get(), attrs)
        return result

    return wrapper


def _wrap_async(log: SpanLog, name: str, fn: Callable, before: Callable | None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = log.next_id()
        parent = _SPAN.get()
        token = _SPAN.set(sid)
        start = time.perf_counter()
        if before is not None:
            before(args, kwargs, start)
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _SPAN.reset(token)
            log.add(sid, name, start, end, parent, _REQUEST.get(), None)

    return wrapper


def wrap(log: SpanLog, owner: Any, attr: str, name: str,
         attrs_of: Callable | None = None, before: Callable | None = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper named ``name``."""
    fn = getattr(owner, attr)
    if asyncio.iscoroutinefunction(fn):
        setattr(owner, attr, _wrap_async(log, name, fn, before))
    else:
        setattr(owner, attr, _wrap_sync(log, name, fn, attrs_of))


def _kernel_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    """Per-launch counts of ``batched_root_stats(source, lanes, root, batch)``."""
    params = dict(zip(("source", "removed_lanes", "root", "batch"), args), **kwargs)
    source, root, batch = params["source"], params["root"], params["batch"]
    cols = source.predecessor_columns
    return {
        "primary": not isinstance(root, np.ndarray),
        "lanes": int(batch),
        "levels": int(result.levels),
        "dead": bin(int(result.root_dead)).count("1"),
        "bytes": computed_bytes(int(source.size), len(cols), cols[0].itemsize, int(result.levels)),
    }


def computed_bytes(size: int, gathers: int, index_bytes: int, levels: int) -> int:
    """Bytes one launch moves, computed from array sizes (not measured).

    Each of ``levels + 1`` sweep steps gathers ``gathers`` index columns and
    the 8-byte frontier into an 8-byte output, ORs the gathers together,
    masks with ``avail``, OR-reduces, and (on the ``levels`` steps that gain
    nodes) XORs into ``avail``; set-up and the transposed popcount add about
    200 bytes per node.
    """
    step = gathers * (index_bytes + 16) + (gathers - 1) * 24 + 24 + 8
    return size * ((levels + 1) * step + levels * 24 + 200)


#: (module, attribute path, span name) of every plain wrapper
TARGETS = (
    ("repro.engine.executor", "sample_code_batch", "network.faults.sample"),
    ("repro.engine.executor", "pack_fault_lanes", "graphs.msbfs.pack"),
    ("repro.engine.executor", "pack_mask_lanes", "graphs.msbfs.pack"),
    ("repro.engine.executor", "batched_root_stats", "graphs.msbfs.kernel"),
    ("repro.engine.executor", "KernelExecutor._batched_fallbacks", "engine.executor.fallback"),
    ("repro.engine.executor", "KernelExecutor.measure_mask_with_root",
     "engine.executor.fallback"),
    ("repro.engine.sweep", "ParallelSweepEngine.run", "engine.sweep.run"),
    ("repro.topology.debruijn", "DeBruijnTopology.encode", "server.gateway.normalise"),
    ("repro.topology.debruijn", "DeBruijnTopology.fault_unit_reps", "server.gateway.normalise"),
    ("repro.topology.debruijn", "DeBruijnTopology.fault_unit_mask", "topology.mask"),
    ("repro.topology.debruijn", "DeBruijnTopology.decode", "server.gateway.reply"),
    ("repro.engine.service", "MeasureResponse.as_dict", "server.gateway.reply"),
    ("repro.engine.service", "EmbeddingResponse.as_dict", "engine.service.serialise"),
    ("repro.engine.service", "find_fault_free_cycle", "core.ffc.compute"),
    ("repro.words.codec", "WordCodec.decode_many", "words.decode"),
    ("repro.server.batcher", "MicroBatcher.submit", "server.batcher.submit"),
)


def _owner(module: str, path: str) -> tuple[Any, str] | None:
    """The object holding the last attribute of ``path``, and that name."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return None if owner is None or getattr(owner, attr, None) is None else (owner, attr)


def install(log: SpanLog) -> None:
    """Wrap every layer boundary the benchmark traces (library and gateway)."""
    def remember(args: tuple, kwargs: dict, start: float) -> None:
        mask = args[1] if len(args) > 1 else kwargs.get("mask")
        log.pending[id(mask)] = (_REQUEST.get(), start)

    hooks = {"graphs.msbfs.kernel": {"attrs_of": _kernel_attrs},
             "server.batcher.submit": {"before": remember}}
    for module, path, name in TARGETS:
        found = _owner(module, path)
        if found is None:
            log.missing.append(f"{module}.{path}")
        else:
            wrap(log, *found, name, **hooks.get(name, {}))
    found = _owner("repro.engine.executor", "KernelExecutor.measure_masks_batch")
    if found is None:
        log.missing.append("repro.engine.executor.KernelExecutor.measure_masks_batch")
    else:
        _wrap_batch(log, *found)
    found = _owner("repro.server.gateway", "BatchingGateway._route")
    if found is None:
        log.missing.append("repro.server.gateway.BatchingGateway._route")
    else:
        _wrap_route(log, *found)
    # JSON encoding of every gateway reply: a module shim, not the global json
    gateway = importlib.import_module("repro.server.gateway")
    gateway.json = types.SimpleNamespace(dumps=json.dumps, loads=json.loads,
                                         JSONDecodeError=json.JSONDecodeError)
    wrap(log, gateway.json, "dumps", "server.gateway.reply")


def _wrap_batch(log: SpanLog, kernel_executor: type, attr: str) -> None:
    """``measure_masks_batch``: one launch for several requests' masks.

    It runs on the batcher's thread for a batch, not for one request, so it
    starts a fresh context; each lane's queue wait (submit to this launch) is
    recorded as a ``server.batcher.queue`` span of that lane's request.
    """
    fn = getattr(kernel_executor, attr)

    def run(self: Any, masks: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        requests = []
        for mask in masks:
            request, submitted = log.pending.pop(id(mask), (None, start))
            requests.append(request)
            log.add(log.next_id(), "server.batcher.queue", submitted, start, None, request)
        sid = log.next_id()
        _SPAN.set(sid)
        _REQUEST.set(None)
        try:
            return fn(self, masks, *args, **kwargs)
        finally:
            log.add(sid, "engine.executor.batch", start, time.perf_counter(), None, None,
                    {"requests": requests})

    @functools.wraps(fn)
    def wrapper(self: Any, masks: Any, *args: Any, **kwargs: Any) -> Any:
        return contextvars.Context().run(run, self, masks, *args, **kwargs)

    setattr(kernel_executor, attr, wrapper)


def _wrap_route(log: SpanLog, gateway_cls: type, attr: str) -> None:
    """One ``server.gateway.request`` span per HTTP request, with a fresh id.

    The request id stays set on the connection's task after the route
    returns, so the reply's JSON encoding is attributed to it too.
    """
    fn = getattr(gateway_cls, attr)
    counter = itertools.count(1)

    @functools.wraps(fn)
    async def wrapper(self: Any, method: str, target: str, *args: Any, **kwargs: Any) -> Any:
        request = f"{method} {target.partition('?')[0]}#{next(counter)}"
        _REQUEST.set(request)
        sid = log.next_id()
        token = _SPAN.set(sid)
        start = time.perf_counter()
        try:
            return await fn(self, method, target, *args, **kwargs)
        finally:
            _SPAN.reset(token)
            log.add(sid, "server.gateway.request", start, time.perf_counter(), None, request)

    setattr(gateway_cls, attr, wrapper)


def propagate_context_to_executors() -> None:
    """Run ``loop.run_in_executor`` work in a copy of the caller's context.

    asyncio does not carry ``contextvars`` into executor threads; copying
    them lets spans of ``/embed`` and ``/churn`` work on worker threads name
    their request and parent span.
    """
    base = asyncio.base_events.BaseEventLoop
    original = base.run_in_executor

    def run_in_executor(self: Any, executor: Any, func: Callable, *args: Any) -> Any:
        return original(self, executor, contextvars.copy_context().run, func, *args)

    base.run_in_executor = run_in_executor


# -- summaries -------------------------------------------------------------------
def load(path: Path) -> tuple[list[dict], list[str]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = []
        for line in fh:
            sid, name, start, end, parent, request, attrs = json.loads(line)
            spans.append({"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "request": request, "attrs": attrs or {}})
    return spans, header.get("missing", [])


def self_times(spans: list[dict], since: float = float("-inf")) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's.

    Only spans starting at or after ``since`` count (warm-up excluded).
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["start"] < since:
            continue
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[span["name"]] += max(0.0, own)
    return dict(totals)
