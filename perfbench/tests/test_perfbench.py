"""Tests of the benchmark itself: span arithmetic, the failure counter, tiny runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import ATTRS, END, NAME, ORIGIN, PARENT, START  # noqa: E402


def span(name, start, end, parent=-1, round_id=0, origin="", attrs=None):
    return [name, start, end, parent, round_id, origin, attrs]


# -- self-time arithmetic -----------------------------------------------------------


def test_covered_is_the_union_of_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == pytest.approx(3.0)


def test_self_time_of_nested_spans():
    tree = [
        span("client.ingest", 0.0, 10.0),
        span("service.ingest", 1.0, 9.0, parent=0),
        span("core.push_many", 2.0, 8.0, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 6.0])


def test_self_time_of_sibling_spans():
    tree = [
        span("core.refresh", 0.0, 10.0),
        span("core.acf", 1.0, 3.0, parent=0),
        span("core.search", 4.0, 7.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0])


def test_cross_process_spans_are_adopted_and_overlaps_counted_once():
    local = [
        span("client.tick", 0.0, 10.0, round_id=3),
        span("cluster.tick", 0.5, 9.5, parent=0, round_id=3),
    ]
    shard_a = [span("service.tick", 1.0, 6.0), span("core.refresh", 2.0, 5.0, parent=0)]
    shard_b = [span("service.tick", 4.0, 8.0), span("service.tick", 20.0, 21.0)]
    spans.adopt(local, shard_a, "shard-1")
    spans.adopt(local, shard_b, "shard-2")
    names = [(s[NAME], s[ORIGIN], s[PARENT]) for s in local]
    assert names == [
        ("client.tick", "", -1),
        ("cluster.tick", "", 0),
        ("service.tick", "shard-1", 1),
        ("core.refresh", "shard-1", 2),
        ("service.tick", "shard-2", 1),
    ]  # the span outside every adopter was dropped
    assert all(s[4] == 3 for s in local)  # adopted spans take the adopter's round
    own = spans.self_times(local)
    # The two shards overlap on [4, 6]: the coordinator waits on [1, 8] once.
    assert own[1] == pytest.approx(9.0 - 7.0)
    assert own[2] == pytest.approx(5.0 - 3.0)
    metrics = spans.layer_metrics(local)
    assert metrics["cluster.wait_s"] == pytest.approx(9.0 - 5.0)
    assert metrics["cluster.shard_busy_skew"] == pytest.approx(5.0 / 4.0)
    assert metrics["service.tick.calls"] == 2


def test_net_metrics_split_wire_from_server_time():
    local = [
        span("client.ingest", 0.0, 10.0),
        span("net.rpc", 1.0, 9.0, parent=0),
        span("net.encode", 1.0, 2.0, parent=1),
    ]
    server = [span("net.decode", 3.0, 3.5), span("net.server.process", 4.0, 7.0),
              span("service.ingest", 4.5, 6.5, parent=1)]
    spans.adopt(local, server, "server-9")
    metrics = spans.layer_metrics(local)
    assert metrics["net.server.busy_s"] == pytest.approx(3.5)
    assert metrics["net.wait_s"] == pytest.approx(8.0 - 1.0 - 3.5)
    assert metrics["net.encode.self_s"] == pytest.approx(1.0)
    assert metrics["net.decode.self_s"] == pytest.approx(0.5)
    assert metrics["service.ingest.self_s"] == pytest.approx(2.0)


def test_recorder_folds_codec_calls_into_wire_spans():
    recorder = spans.Recorder()
    recorder.enabled = True
    dumps = recorder.wrap("persist.dumps", lambda: 7, fold_under="net.")
    encode = recorder.wrap("net.encode", lambda: dumps())
    checkpoint = recorder.wrap("client.checkpoint", lambda: dumps(),
                               attrs=lambda result: {"value": result})
    assert encode() == 7 and checkpoint() == 7
    assert [s[NAME] for s in recorder.spans] == ["net.encode", "client.checkpoint", "persist.dumps"]
    assert recorder.spans[2][PARENT] == 1
    assert recorder.spans[1][ATTRS] == {"value": 7}
    assert all(s[END] >= s[START] for s in recorder.spans)


def test_install_and_uninstall_restore_every_entry_point():
    before = [getattr(owner, attr) for owner, attr, _name, _opts in spans.layer_wraps()]
    undo = spans.install(spans.Recorder())
    assert any(getattr(owner, attr) is not was for (owner, attr, _n, _o), was
               in zip(spans.layer_wraps(), before))
    spans.uninstall(undo)
    after = [getattr(owner, attr) for owner, attr, _name, _opts in spans.layer_wraps()]
    assert all(a is b or a == b for a, b in zip(after, before))


# -- the failure counter --------------------------------------------------------------


def test_gate_counts_a_planted_frame_mismatch(tmp_path, monkeypatch):
    import dataclasses

    from repro.core.streaming import StreamingASAP
    from repro.timeseries.series import TimeSeries

    original = StreamingASAP.refresh_if_due

    def corrupted(self, cache=None):
        frame = original(self, cache)
        if frame is None:
            return None
        values = frame.series.values.copy()
        values[0] += 1e-9
        series = TimeSeries(values, frame.series.timestamps, name=frame.series.name)
        return dataclasses.replace(frame, series=series)

    failures = workloads.Failures()
    workloads.gate_live("hub", 3, 4, tmp_path, failures)
    assert failures.failed == 0 and failures.attempted > 0
    monkeypatch.setattr(StreamingASAP, "refresh_if_due", corrupted)
    failures = workloads.Failures()
    workloads.gate_in_child("hub", 3, 4, tmp_path, failures)
    assert failures.failed > 0
    assert "differ" in failures.notes[0]


def test_closed_extra_tiers_are_freed(tmp_path, monkeypatch):
    """A set-up finds only the main tier alive: earlier extra tiers were freed."""
    import weakref

    tiers = []
    alive_at_connect = []
    connect = workloads.Tier.connect

    def tracked(self):
        alive_at_connect.append(sum(ref() is not None for ref in tiers))
        tiers.append(weakref.ref(self))
        return connect(self)

    monkeypatch.setattr(workloads.Tier, "connect", tracked)
    workloads.measure("hub", 5, 1.0, TINY_STREAMS, tmp_path, workloads.Failures())
    assert len(tiers) > 2 and max(alive_at_connect) == 1


def test_benchmark_json_matches_the_metric_tables():
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = dict(run.END_TO_END)
    assert [m["name"] for m in contract["end_to_end"]] == list(run.GATED)
    assert all(units[m["name"]] == m["unit"] for m in contract["end_to_end"])
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)


def test_too_few_samples_fail_loudly():
    with pytest.raises(run.TooFewSamples):
        run.percentile([1.0] * 99, 90, "view latency")
    assert run.percentile([1.0] * 100, 90, "view latency") == (1.0, 100)


# -- tiny runs of every workload ----------------------------------------------------------

#: Four streams keep every run to a few seconds.
TINY_STREAMS = 4


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run(tmp_path, workload):
    result = run.run(workload, 5, 3.0, False, tmp_path, streams=TINY_STREAMS)
    assert result["correct"], result["notes"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _unit in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert m["setup_s"] == pytest.approx(m["setup_wall_s"] / m["host_unit_ms"] * 4.0)
    assert m["ingest_points_per_ref"] == pytest.approx(m["ingest_points_per_s"] * m["host_unit_ms"] / 1e3)
    assert m["frame_latency_mean_ref"] == pytest.approx(m["frame_latency_mean_ms"] / m["host_unit_ms"])


@pytest.mark.parametrize("workload", ["tcp-live", "sharded-live"])
def test_tiny_traced_run_reaches_the_remote_layers(tmp_path, workload):
    result = run.run(workload, 5, 4.0, True, tmp_path, streams=TINY_STREAMS)
    assert result["correct"], result["notes"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _unit in run.PER_LAYER}
    assert metrics["core.refresh.calls"] > 0 and metrics["service.ingest.self_s"] > 0
    if workload == "tcp-live":
        assert metrics["net.rpc.calls"] > 0 and metrics["net.server.busy_s"] > 0
        assert metrics["net.bytes_out"] > 0 and metrics["cluster.tick.self_s"] == 0
    else:
        assert metrics["cluster.tick.self_s"] > 0 and metrics["cluster.shard_busy_skew"] >= 1
        assert metrics["net.rpc.calls"] == 0
