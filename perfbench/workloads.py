"""The benchmark's workloads: the shared live traffic on three serving tiers.

Every live workload is a closed loop: one single-threaded agent sends each
scrape batch and waits for the reply, because the serving API is synchronous
request/reply.  A round ingests one batch per stream, calls ``tick()``,
collects the pushed views (or, on the in-process tiers, the frame-observer
callback that the network tier's push is built on), then polls two
resolution views on rotating streams.

Nothing is timed before :func:`gate_live` has compared the tier's outputs
with references.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
import repro.client
from repro.cluster import shard as shard_module
from repro.service import StreamHub

import hostclock
import spans
import traffic
from spans import clock

HERE = Path(__file__).resolve().parent
#: Rounds of live traffic compared bit for bit with the reference before
#: timing, and further rounds streamed on after a checkpoint/restore.
GATE_ROUNDS = 6
RESTORE_ROUNDS = 2
#: Longest wait for one round's pushes before they count as dropped.
PUSH_WAIT_S = 10.0
#: Where a forked process shard writes its spans and peak RSS on exit; the
#: child reads the value current when it was forked.
SHARD_OUT = {"dir": None}


class Failures:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_frame(a, b) -> bool:
    return (
        a.window == b.window
        and a.refresh_index == b.refresh_index
        and a.points_ingested == b.points_ingested
        and same_array(a.series.values, b.series.values)
        and same_array(a.series.timestamps, b.series.timestamps)
    )


def same_view(a, b) -> bool:
    return (
        a.resolution == b.resolution
        and a.window == b.window
        and a.base_end == b.base_end
        and same_array(a.series.values, b.series.values)
        and same_array(a.series.timestamps, b.series.timestamps)
    )


def sane_series(series) -> bool:
    values = np.asarray(series.values)
    return values.size > 0 and values.size == np.asarray(series.timestamps).size and bool(
        np.isfinite(values).all()
    )


def install_shard_hook(recorder: spans.Recorder) -> None:
    """Make every process shard report its spans and peak RSS when it exits.

    Shards are forked (the default start method on Linux), so the child
    inherits the patched worker entry point and the recorder's state.
    """
    original = getattr(shard_module._worker_main, "__wrapped__", shard_module._worker_main)

    def worker_main(connection, hub_kwargs, hub_state):
        out_dir = SHARD_OUT["dir"]
        recorder.reset()
        try:
            original(connection, hub_kwargs, hub_state)
        finally:
            recorder.enabled = False
            if out_dir is not None:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                recorder.dump(Path(out_dir) / f"shard-{os.getpid()}.json", maxrss_kb=maxrss)

    worker_main.__wrapped__ = original
    shard_module._worker_main = worker_main


def own_rss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- a connected tier --------------------------------------------------------------


class Tier:
    """One serving tier, connected, with the workload's streams open."""

    def __init__(self, kind: str, out_dir: Path, traced: bool = False) -> None:
        self.kind = kind
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.traced = traced
        self.server = None
        self.subscriber = None
        self.client = None
        self.sids: list[str] = []
        self.in_tick = False
        self.observed: list[tuple[float, list]] = []
        self.server_rss_kb = 0.0
        self.closed = False

    def connect(self) -> "Tier":
        if self.kind == "tcp":
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "server.py"), "--out", str(self.out_dir),
                 "--trace", str(int(self.traced))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            url = json.loads(self.server.stdout.readline())["url"]
            self.client = repro.client.connect(url)
            self.subscriber = repro.client.connect(url)
            return self
        SHARD_OUT["dir"] = str(self.out_dir)
        if self.kind == "sharded":
            self.client = repro.client.connect("sharded", shards=2, shard_backend="process")
        else:
            self.client = repro.client.connect("hub")
        self.client.hub.add_frame_observer(self._observe)
        return self

    def _observe(self, frames: dict) -> None:
        if self.in_tick:
            self.observed.append((clock(), list(frames)))

    def open_streams(self, specs, histories) -> float:
        """Create every stream with its warm history; returns provisioning seconds."""
        provisioning = 0.0
        self.sids = []
        for index, (spec, (ts, vs)) in enumerate(zip(specs, histories)):
            started = clock()
            handle = self.client.stream(spec=spec, stream_id=f"s{index:02d}", history=(ts, vs))
            provisioning += clock() - started
            self.sids.append(handle.stream_id)
        if self.subscriber is not None:
            for sid in self.sids:
                self.subscriber.subscribe(sid, resolution=traffic.PUSH_RESOLUTION)
        return provisioning

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.client is not None:
            self.client.close()
        if self.subscriber is not None:
            self.subscriber.close()
        if self.server is not None:
            out, _ = self.server.communicate(timeout=60)
            self.server_rss_kb = float(json.loads(out.strip().splitlines()[-1])["maxrss_kb"])
            self.server = None

    def shard_rss_kb(self) -> float:
        total = 0.0
        for entry in self.out_dir.glob("shard-*.json"):
            total += float(json.loads(entry.read_text()).get("maxrss_kb", 0.0))
        return total


# -- the closed loop ---------------------------------------------------------------


@dataclass
class RoundLog:
    walls: list = field(default_factory=list)
    frame_ms: list = field(default_factory=list)
    view_ms: list = field(default_factory=list)
    push_ms: list = field(default_factory=list)
    points: int = 0
    pushes_dropped: int = 0


class Verifier:
    """Cheap checks on every frame, view and push of the timed phase."""

    def __init__(self, sids, failures: Failures) -> None:
        self.failures = failures
        self.last_index = {sid: None for sid in sids}
        self.last_seq = {sid: None for sid in sids}

    def frame(self, sid, frame) -> None:
        last = self.last_index[sid]
        ok = (last is None or frame.refresh_index == last + 1) and frame.window >= 1
        self.last_index[sid] = frame.refresh_index
        self.failures.check(ok and sane_series(frame.series), f"bad frame on {sid}")

    def view(self, sid, width, snap) -> None:
        ok = snap.stream_id == sid and snap.resolution == width and snap.window >= 1
        self.failures.check(ok and sane_series(snap.series), f"bad view on {sid}@{width}")

    def push(self, event) -> None:
        last = self.last_seq.get(event.stream_id)
        ok = (
            event.view is not None
            and event.push_dropped == 0
            and (last is None or event.seq == last + 1)
            and event.view.resolution == traffic.PUSH_RESOLUTION
        )
        self.last_seq[event.stream_id] = event.seq
        self.failures.check(ok and sane_series(event.view.series), f"bad push on {event.stream_id}")


def collect_pushes(subscriber, count: int) -> list[tuple[float, object]]:
    """Read pushes until *count* arrived (or the wait runs out); ``(receipt, event)``."""
    received: list[tuple[float, object]] = []
    deadline = clock() + PUSH_WAIT_S
    while len(received) < count:
        remaining = deadline - clock()
        if remaining <= 0:
            break
        events = subscriber.pushes(timeout=remaining)
        now = clock()
        received.extend((now, event) for event in events)
    return received


class Rounds:
    """The closed loop on one tier: each :meth:`step` is one round."""

    def __init__(self, tier: Tier, source, failures: Failures,
                 recorder: spans.Recorder | None = None) -> None:
        self.tier = tier
        self.source = source
        self.failures = failures
        self.recorder = recorder
        self.verifier = Verifier(tier.sids, failures)
        self.index_of = {sid: i for i, sid in enumerate(tier.sids)}
        self.log = RoundLog()
        self.count = 0

    def step(self) -> None:
        tier, failures, log = self.tier, self.failures, self.log
        client, sids = tier.client, tier.sids
        batch = self.source.next_round()
        targets = self.source.view_targets(self.count)
        if self.recorder is not None:
            self.recorder.round_id = self.count
        frames: list[tuple[str, object]] = []
        views = []
        got = [0] * len(sids)
        starts = [0.0] * len(sids)
        round_start = clock()
        for i, (ts, vs) in enumerate(batch):
            starts[i] = clock()
            try:
                inline = client.ingest(sids[i], ts, vs)
            except Exception as exc:  # noqa: BLE001 — a raising call is a failed operation
                failures.check(False, f"ingest {sids[i]}: {exc!r}")
                continue
            done = clock()
            failures.check(True, "ingest")
            for frame in inline:
                log.frame_ms.append((done - starts[i]) * 1e3)
                frames.append((sids[i], frame))
                got[i] += 1
        tick_start = clock()
        tier.in_tick = True
        try:
            emitted = client.tick()
            failures.check(True, "tick")
        except Exception as exc:  # noqa: BLE001
            failures.check(False, f"tick: {exc!r}")
            emitted = {}
        tick_end = clock()
        tier.in_tick = False
        for sid, stream_frames in emitted.items():
            i = self.index_of[sid]
            for frame in stream_frames:
                log.frame_ms.append((tick_end - starts[i]) * 1e3)
                frames.append((sid, frame))
                got[i] += 1
        pushes = []
        if tier.subscriber is not None:
            pushes = collect_pushes(tier.subscriber, len(sids))
            for receipt, event in pushes:
                if event.stream_id in emitted:
                    log.push_ms.append((receipt - tick_start) * 1e3)
        else:
            for seen, stream_ids in tier.observed:
                log.push_ms.extend([(seen - tick_start) * 1e3] * len(stream_ids))
            tier.observed.clear()
        for stream, width in targets:
            started = clock()
            try:
                snap = client.snapshot(sids[stream], resolution=width)
            except Exception as exc:  # noqa: BLE001
                failures.check(False, f"view {sids[stream]}@{width}: {exc!r}")
                continue
            log.view_ms.append((clock() - started) * 1e3)
            views.append((sids[stream], width, snap))
        log.walls.append(clock() - round_start)
        log.points += sum(int(np.asarray(vs).size) for _ts, vs in batch)
        # Verification happens outside the round's wall time.
        for i, count in enumerate(got):
            failures.check(count == 1, f"round {self.count}: {sids[i]} emitted {count} frames")
        for sid, frame in frames:
            self.verifier.frame(sid, frame)
        for sid, width, snap in views:
            self.verifier.view(sid, width, snap)
        if tier.subscriber is not None:
            for _receipt, event in pushes:
                self.verifier.push(event)
            log.pushes_dropped += len(sids) - len(pushes)
            for _ in range(len(sids) - len(pushes)):
                failures.check(False, f"round {self.count}: push dropped")
        self.count += 1


# -- correctness gates ---------------------------------------------------------------


def gate_live(kind: str, seed: int, streams: int, out_dir: Path, failures: Failures) -> None:
    """Live frames, views and pushes against in-process references.

    Frames must be bit-identical to looped ``StreamingASAP`` operators fed
    the same arrays; views and pushes must equal a local ``StreamHub``'s
    ``snapshot`` at the same point of the stream.
    """
    source = traffic.LiveTraffic(seed, streams)
    operators = [spec.build_operator() for spec in source.specs]
    for operator, (ts, vs) in zip(operators, source.history):
        operator.backfill(ts, vs)
    tier = Tier(kind, out_dir).connect()
    try:
        tier.open_streams(source.specs, source.history)
        reference = StreamHub()
        for sid, spec, history in zip(tier.sids, source.specs, source.history):
            reference.create_stream(sid, config=spec, history=history)
        expected_pushes: dict[str, list] = {sid: [] for sid in tier.sids}

        def observe(frames: dict) -> None:
            for sid in frames:
                expected_pushes[sid].append(
                    reference.snapshot(sid, resolution=traffic.PUSH_RESOLUTION)
                )

        reference.add_frame_observer(observe)
        live: dict[str, list] = {sid: [] for sid in tier.sids}
        for sid, frames in tier.client.tick().items():
            live[sid].extend(frames)
        reference.tick()
        pushes: list = []
        for round_index in range(GATE_ROUNDS):
            expected: dict[str, list] = {sid: [] for sid in tier.sids}
            for sid, operator, (ts, vs) in zip(tier.sids, operators, source.next_round()):
                live[sid].extend(tier.client.ingest(sid, ts, vs))
                expected[sid].extend(operator.push_many(ts, vs))
                reference.ingest(sid, ts, vs)
            for sid, frames in tier.client.tick().items():
                live[sid].extend(frames)
            reference.tick()
            for sid in tier.sids:
                got, want = live.pop(sid), expected[sid]
                live[sid] = []
                failures.check(
                    len(want) == 1 and len(got) == len(want) and all(map(same_frame, got, want)),
                    f"gate round {round_index}: frames of {sid} differ from the reference",
                )
            for stream, width in source.view_targets(round_index):
                sid = tier.sids[stream]
                failures.check(
                    same_view(tier.client.snapshot(sid, resolution=width),
                              reference.snapshot(sid, resolution=width)),
                    f"gate round {round_index}: view {sid}@{width} differs",
                )
            if tier.subscriber is not None:
                pushes.extend(event for _t, event in collect_pushes(tier.subscriber, len(tier.sids)))
        if tier.subscriber is not None:
            by_stream: dict[str, list] = {sid: [] for sid in tier.sids}
            for event in pushes:
                by_stream[event.stream_id].append(event.view)
            for sid in tier.sids:
                got, want = by_stream[sid], expected_pushes[sid]
                failures.check(
                    len(got) == len(want) == GATE_ROUNDS and all(map(same_view, got, want)),
                    f"gate: pushes of {sid} differ from local snapshot(resolution=100)",
                )
        gate_restore(tier, source, operators, failures)
        gate_render(tier.client, traffic.Dashboards(seed), failures)
    finally:
        tier.close()


def gate_in_child(kind: str, seed: int, streams: int, out_dir: Path, failures: Failures) -> None:
    """:func:`gate_live` in a forked child process, its counts added to *failures*.

    The gate holds a tier, a reference hub and one operator per stream.  Run
    in a child, none of that reaches the measuring process's peak RSS, nor
    the process shards forked from it later.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def child() -> None:
        own = Failures()
        try:
            gate_live(kind, seed, streams, out_dir, own)
        except Exception as exc:  # noqa: BLE001 — a raising gate is a failed gate
            own.check(False, f"gate raised {exc!r}")
        sender.send((own.attempted, own.failed, own.notes))

    process = context.Process(target=child)
    process.start()
    sender.close()
    try:
        attempted, failed, notes = receiver.recv()
    except EOFError:
        attempted, failed, notes = 1, 1, ["gate process died without a result"]
    finally:
        process.join()
        receiver.close()
    failures.attempted += attempted
    failures.failed += failed
    failures.notes.extend(notes)


def gate_restore(tier: Tier, source, operators, failures: Failures) -> None:
    """A ``restore()`` of the tier's checkpoint streams on bit-identically
    to the uninterrupted tier and to the reference operators."""
    restored = repro.client.restore(tier.client.checkpoint())
    try:
        for round_index in range(RESTORE_ROUNDS):
            frames: dict[str, dict[str, list]] = {"live": {}, "restored": {}}
            expected = {}
            for sid, operator, (ts, vs) in zip(tier.sids, operators, source.next_round()):
                frames["live"][sid] = list(tier.client.ingest(sid, ts, vs))
                frames["restored"][sid] = list(restored.ingest(sid, ts, vs))
                expected[sid] = list(operator.push_many(ts, vs))
            for name, client in (("live", tier.client), ("restored", restored)):
                for sid, more in client.tick().items():
                    frames[name][sid].extend(more)
            for name, by_stream in frames.items():
                for sid in tier.sids:
                    got, want = by_stream[sid], expected[sid]
                    failures.check(
                        len(want) == 1 and len(got) == 1 and same_frame(got[0], want[0]),
                        f"gate: {name} stream {sid} differs after restore (round {round_index})",
                    )
    finally:
        restored.close()


def gate_render(client, dashboards, failures: Failures) -> None:
    """``smooth_many`` equals per-series ``smooth()`` at every render width."""
    for resolution in traffic.RENDER_RESOLUTIONS:
        batch = dashboards.next_batch()
        result = client.smooth_many(batch, resolution=resolution)
        for series, got in zip(batch, result):
            want = repro.smooth(series, resolution=resolution)
            failures.check(
                got.window == want.window and same_array(got.series.values, want.series.values),
                f"gate: smooth_many differs from smooth at resolution {resolution}",
            )


# -- measured phases ---------------------------------------------------------------


@dataclass
class Measured:
    """Raw observations of one measured pass."""

    setups: list = field(default_factory=list)
    backfill_rates: list = field(default_factory=list)
    rounds: RoundLog = field(default_factory=RoundLog)
    checkpoints: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    render_rates: list = field(default_factory=list)
    host_units: list = field(default_factory=list)
    rss_mb: float = 0.0
    stats: tuple = ()


#: Share of a run's seconds each task gets, and how often each must run at
#: least.  Tasks are interleaved over the whole run (see :func:`interleave`),
#: so every metric averages over the same stretch of machine time, the
#: host-clock units (:mod:`hostclock`) included.
TASKS = {"round": (0.50, 100), "setup": (0.17, 9), "checkpoint": (0.11, 9), "render": (0.12, 9),
         "host": (0.10, 100)}


def interleave(tasks: dict, plan: dict, seconds: float) -> None:
    """Run *tasks* (name -> callable doing one unit) for *seconds*.

    Each next unit goes to the task furthest behind its share of the time
    spent so far; after *seconds*, tasks below their minimum count run
    until they reach it.
    """
    spent = dict.fromkeys(tasks, 0.0)
    counts = dict.fromkeys(tasks, 0)
    started = clock()
    while True:
        elapsed = clock() - started
        if elapsed < seconds:
            name = max(tasks, key=lambda n: plan[n][0] * elapsed - spent[n])
        else:
            behind = [n for n in tasks if counts[n] < plan[n][1]]
            if not behind:
                return
            name = behind[0]
        unit_start = clock()
        tasks[name]()
        spent[name] += clock() - unit_start
        counts[name] += 1


def stats_window(client):
    """The counters the per-layer ratios need; read while every stream is open
    (``HubStats`` sums only active sessions, so closing one lowers them)."""
    s = client.stats
    return (s.views_served, s.view_cache_hits, s.warm_prefetches, s.warm_fallbacks,
            s.late_accepted, s.nan_dropped)


def measure(kind: str, seed: int, seconds: float, streams: int, run_dir: Path,
            failures: Failures, recorder: spans.Recorder | None = None,
            tag: str = "m") -> Measured:
    """One measured pass on tier *kind*: its tasks interleaved for *seconds*.

    The main tier serves the rounds, checkpoints and renders; every further
    set-up builds a tier of its own and closes and frees it at once, so the
    peak RSS holds at most one such tier whatever the run gets through.
    """
    measured = Measured()
    dashboards = traffic.Dashboards(seed)

    def setup() -> tuple[Tier, traffic.LiveTraffic]:
        if recorder is not None:
            recorder.round_id = -1
        source = traffic.LiveTraffic(seed, streams)
        out_dir = run_dir / f"{tag}-setup{len(measured.setups)}"
        started = clock()
        tier = Tier(kind, out_dir, traced=recorder is not None).connect()
        try:
            provisioning = tier.open_streams(source.specs, source.history)
            tier.client.tick()
        except BaseException:
            tier.close()
            raise
        measured.setups.append(clock() - started)
        points = sum(vs.size for _ts, vs in source.history)
        measured.backfill_rates.append(points / provisioning)
        return tier, source

    def extra_setup() -> None:
        setup()[0].close()
        # The closed tier's hub sits in a reference cycle (it holds the
        # tier's frame observer); free it now, outside any timed interval.
        gc.collect()

    def checkpoint() -> None:
        if recorder is not None:
            recorder.round_id = -2
        SHARD_OUT["dir"] = str(run_dir / f"{tag}-restore")
        started = clock()
        blob = main.client.checkpoint()
        restored = repro.client.restore(blob)
        measured.checkpoints.append(clock() - started)
        measured.checkpoint_bytes = len(blob)
        failures.check(len(restored) == len(main.sids), "restored hub lost streams")
        restored.close()
        gc.collect()

    def render() -> None:
        """Fresh dashboards at every render width: one series/s figure."""
        if recorder is not None:
            recorder.round_id = -3
        wall = 0.0
        rendered = 0
        for resolution in traffic.RENDER_RESOLUTIONS:
            batch = dashboards.next_batch()
            started = clock()
            result = main.client.smooth_many(batch, resolution=resolution)
            wall += clock() - started
            rendered += len(batch)
            failures.check(len(result) == len(batch) and all(sane_series(r.series) for r in result),
                           "smooth_many result")
        measured.render_rates.append(rendered / wall)

    def host_unit() -> None:
        started = clock()
        hostclock.unit()
        measured.host_units.append(clock() - started)

    main = None
    try:
        main, source = setup()
        rounds = Rounds(main, source, failures, recorder)
        before = stats_window(main.client)
        interleave({"round": rounds.step, "setup": extra_setup, "checkpoint": checkpoint,
                    "render": render, "host": host_unit}, TASKS, seconds)
        if recorder is not None:
            recorder.round_id = -4
        after = stats_window(main.client)
        measured.stats = tuple(b - a for a, b in zip(before, after))
        measured.rounds = rounds.log
    finally:
        if main is not None:
            main.close()
    if kind == "tcp":
        measured.rss_mb = main.server_rss_kb / 1024.0
    elif kind == "sharded":
        measured.rss_mb = (own_rss_kb() + main.shard_rss_kb()) / 1024.0
    else:
        measured.rss_mb = own_rss_kb() / 1024.0
    return measured
