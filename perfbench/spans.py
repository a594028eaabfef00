"""Span recorder for the benchmark's traced run, and the arithmetic on spans.

A traced run wraps the public entry points of each layer (see
:func:`layer_wraps`).  Every wrapped call records one span: name, start,
end, parent span, the round it belongs to, the process it ran in and, for a
few calls, counts taken from the result.  Spans stay in memory; processes
other than the benchmark (the tcp server, process shards) write theirs to a
file when they exit, and the benchmark merges them in by *adoption*: a
remote top-level span becomes a child of the innermost local RPC span
(``net.rpc``, ``cluster.*``) whose interval contains it.  Every process reads
one clock, ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so intervals
from different processes compare directly.

Self time is a span's duration minus the part of its interval that its
children cover; children from parallel shards may overlap, so the covered
part is the length of the union of the children's intervals.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_right
from collections import defaultdict

clock = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, ROUND, ORIGIN, ATTRS = range(7)

#: Local spans that wait on another process; remote spans are adopted only
#: into these.
ADOPTER_PREFIXES = ("net.rpc", "cluster.")


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.round_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every span (a forked child starts from its own empty store)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, fold_under: str | None = None, attrs=None):
        """*fn* recording a span named *name* per call.

        With *fold_under*, a call made inside a span whose name starts with
        that prefix records nothing: its time stays with the enclosing span
        (the persist codec inside a wire encode is wire time).  *attrs*
        maps the call's result to counts stored on the span.
        """
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            spans = recorder.spans
            if fold_under is not None and stack and spans[stack[-1]][NAME].startswith(fold_under):
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.round_id, "", None]
            with recorder._lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn, amount):
        """*fn* adding ``amount(args, result)`` to ``counts[key]`` per call."""
        recorder = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder.enabled:
                recorder.counts[key] += amount(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def dump(self, path, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans, **extra}, handle)


def _patch(undo: list, owner, name: str, make) -> None:
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, name, new)
    undo.append((owner, name, raw))


def _bytes_sent(args, result) -> int:
    return len(args[1])


def _bytes_read(args, result) -> int:
    return len(result)


def _backfill_attrs(result) -> dict:
    return {"searches_run": result.searches_run, "frames_elided": result.frames_elided}


def _batch_attrs(result) -> dict:
    return {"acf_hits": result.stats.acf_cache_hits, "acf_misses": result.stats.acf_cache_misses}


def layer_wraps():
    """``(owner, attribute, span name, options)`` for every traced entry point.

    Functions bound by ``from``-import are wrapped in the namespace that
    calls them (``repro.core.streaming``); the net and persist layers look
    up ``wire.*``/``codec.*`` as module attributes, so those are wrapped on
    their modules.
    """
    from repro import client
    from repro.cluster import sharded
    from repro.core import streaming
    from repro.engine import batch_engine
    from repro.net import remote, server, wire
    from repro.persist import codec
    from repro.pyramid import rollup
    from repro.quality import stream as quality
    from repro.service import hub
    from repro.stream import panes

    wraps = [
        (client, "connect", "client.connect", {}),
        (client, "restore", "client.restore", {}),
    ]
    for method in ("smooth_many", "stream", "ingest", "tick", "snapshot", "close_stream",
                   "subscribe", "pushes", "checkpoint", "close"):
        wraps.append((client.Client, method, f"client.{method}", {}))
    wraps += [
        (hub.StreamHub, "ingest", "service.ingest", {}),
        (hub.StreamHub, "tick", "service.tick", {}),
        (hub.StreamHub, "snapshot", "service.view", {}),
        (hub.StreamHub, "create_stream", "service.create", {}),
        (hub.StreamHub, "backfill", "service.backfill", {}),
        (streaming.StreamingASAP, "push_many", "core.push_many", {}),
        (streaming.StreamingASAP, "refresh_if_due", "core.refresh", {}),
        (streaming.StreamingASAP, "backfill", "core.backfill", {"attrs": _backfill_attrs}),
        (streaming, "asap_search", "core.search", {}),
        (streaming, "run_strategy", "core.search", {}),
        (streaming, "analyze_acf", "core.acf", {}),
        (streaming.RollingWindowState, "correlations", "core.acf", {}),
        (streaming, "sma_probe_moments", "spectral.probe_moments", {}),
        (panes.PaneBuffer, "extend", "stream.panes", {}),
        (quality.ReorderBuffer, "push_many", "quality.reorder", {}),
        (quality.StreamNormalizer, "process", "quality.normalize", {}),
        (rollup.Pyramid, "extend", "pyramid.extend", {}),
        (rollup.Pyramid, "build_from", "pyramid.build", {}),
        (streaming.StreamingASAP, "pyramid_view", "pyramid.view", {}),
        (remote.RemoteBackend, "_call", "net.rpc", {}),
        (remote.RemoteBackend, "call_many", "net.rpc", {}),
        (server.AsapServer, "_process", "net.server.process", {}),
        (sharded.ShardedHub, "ingest", "cluster.ingest", {}),
        (sharded.ShardedHub, "tick", "cluster.tick", {}),
        (sharded.ShardedHub, "snapshot", "cluster.view", {}),
        (sharded.ShardedHub, "create_stream", "cluster.create", {}),
        (sharded.ShardedHub, "state_dict", "cluster.state", {}),
        (codec, "dumps", "persist.dumps", {"fold_under": "net."}),
        (codec, "loads", "persist.loads", {"fold_under": "net."}),
        (batch_engine.BatchEngine, "smooth_many", "engine.smooth_many", {"attrs": _batch_attrs}),
    ]
    for fn in ("encode_message", "frame_state", "frames_state", "snapshot_state",
               "backfill_state", "hub_stats_state", "arrays_state", "error_state"):
        wraps.append((wire, fn, "net.encode", {}))
    for fn in ("decode_payload", "frame_from_state", "frames_from_state", "snapshot_from_state",
               "backfill_from_state", "hub_stats_from_state"):
        wraps.append((wire, fn, "net.decode", {}))
    return wraps


def install(recorder: Recorder) -> list:
    """Wrap every layer entry point; returns the undo list for :func:`uninstall`."""
    from repro.net import remote

    undo: list = []
    for owner, attr, name, options in layer_wraps():
        _patch(undo, owner, attr, lambda fn, n=name, o=options: recorder.wrap(n, fn, **o))
    _patch(undo, remote.RemoteBackend, "_sendall",
           lambda fn: recorder.counter("net.bytes_out", fn, _bytes_sent))
    _patch(undo, remote.RemoteBackend, "_read_exact",
           lambda fn: recorder.counter("net.bytes_in", fn, _bytes_read))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, raw in reversed(undo):
        setattr(owner, name, raw)
    undo.clear()


# -- arithmetic ------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    return children


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    children = children_of(spans)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        inner = [
            (max(start, spans[k][START]), min(end, spans[k][END]))
            for k in kids
            if spans[k][END] > start and spans[k][START] < end
        ]
        result.append((end - start) - covered(inner))
    return result


def adopt(local: list, remote: list, origin: str) -> list:
    """Merge one remote process's spans into *local* (in place; returns it).

    A remote top-level span becomes the child of the local adopter span
    (:data:`ADOPTER_PREFIXES`) that contains its interval and takes that
    span's round; remote spans no adopter contains (the process's work
    outside the traced window) are dropped with their descendants.  Local
    adopters never overlap each other, because the benchmark drives them
    from one thread.
    """
    adopters = sorted(
        (span[START], span[END], index)
        for index, span in enumerate(local)
        if span[ORIGIN] == "" and span[NAME].startswith(ADOPTER_PREFIXES)
    )
    starts = [a[0] for a in adopters]
    mapping: dict[int, int] = {}
    for old, span in enumerate(remote):
        parent = span[PARENT]
        if parent >= 0:
            if parent not in mapping:
                continue
            new_parent = mapping[parent]
        else:
            slot = bisect_right(starts, span[START]) - 1
            if slot < 0 or adopters[slot][1] < span[END]:
                continue
            new_parent = adopters[slot][2]
        mapping[old] = len(local)
        local.append([span[NAME], span[START], span[END], new_parent,
                      local[new_parent][ROUND], origin, span[ATTRS]])
    return local


def load_remote(local: list, directory) -> None:
    """Adopt the spans of every process file (``server-*``/``shard-*``) in *directory*."""
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                adopt(local, json.load(handle)["spans"], entry[: -len(".json")])


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer sums over merged spans (see the README's metric table)."""
    own = self_times(spans)
    children = children_of(spans)
    out: dict[str, float] = defaultdict(float)
    shard_busy: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        layer = "client" if name.startswith("client.") else name
        out[f"{layer}.self_s"] += own[index]
        out[f"{layer}.calls"] += 1
        attrs = span[ATTRS]
        if attrs:
            for key, value in attrs.items():
                out[f"{name}.{key}"] += value
        remote_root = span[ORIGIN] != "" and spans[span[PARENT]][ORIGIN] == ""
        if remote_root and span[ORIGIN].startswith("server"):
            out["net.server.busy_s"] += duration
        if remote_root and span[ORIGIN].startswith("shard") and span[ROUND] >= 0:
            # Rounds run on one tier only; set-up tiers' shards would skew this.
            shard_busy[span[ORIGIN]] += duration
        if span[ORIGIN] == "" and name.startswith("cluster."):
            per_shard: dict[str, float] = defaultdict(float)
            for k in children[index]:
                if spans[k][ORIGIN]:
                    per_shard[spans[k][ORIGIN]] += spans[k][END] - spans[k][START]
            if per_shard:
                out["cluster.wait_s"] += max(0.0, duration - max(per_shard.values()))
        if name == "net.rpc":
            out["net.wait_s"] += own[index]
    busy = [value for value in shard_busy.values() if value > 0]
    out["cluster.shard_busy_skew"] = max(busy) / min(busy) if len(busy) > 1 else 0.0
    return out


def top_level_time(spans: list, round_ids) -> float:
    """Summed duration of local top-level spans in the given rounds."""
    wanted = set(round_ids)
    return sum(
        span[END] - span[START]
        for span in spans
        if span[PARENT] < 0 and span[ORIGIN] == "" and span[ROUND] in wanted
    )
