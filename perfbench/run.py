"""The repo benchmark: one workload per process, verified before it is timed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hub-live --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice, untraced then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat each metric with its unit and sample count, plus the environment.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # Measuring some other installed copy of the library would be wrong.
    raise SystemExit(f"perfbench: {ROOT} has no src/repro; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Workload name -> the serving tier its traffic goes through.
WORKLOADS = {"hub-live": "hub", "tcp-live": "tcp", "sharded-live": "sharded"}

#: (name, unit) of every end-to-end metric, in print order.  All are printed
#: with their sample counts; only :data:`GATED` ones go into the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("ingest_points_per_s", "points/s"),
    ("ingest_points_per_ref", "points/ref"),
    ("frame_latency_mean_ms", "ms"),
    ("frame_latency_mean_ref", "ref"),
    ("frame_latency_p50_ms", "ms"),
    ("frame_latency_p90_ms", "ms"),
    ("view_latency_p50_ms", "ms"),
    ("view_latency_p90_ms", "ms"),
    ("push_latency_p50_ms", "ms"),
    ("backfill_points_per_s", "points/s"),
    ("checkpoint_restore_s", "s"),
    ("render_series_per_s", "series/s"),
    ("peak_rss_mb", "MB"),
    ("host_unit_ms", "ms"),
)

#: The end-to-end metrics ``BENCHMARK.json`` bounds.  The host's speed swings
#: by up to 2x with other tenants' load (see the README), so the gated timing
#: figures are run-wide means in units of the host clock's mean time
#: (``*_ref``; ``setup_s`` at the clock's nominal speed), which cancels that
#: swing; the figures as timed are printed for reading, not for gating.
GATED = ("setup_s", "ingest_points_per_ref", "frame_latency_mean_ref", "peak_rss_mb")

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("client.calls", "count"), ("client.self_s", "s"),
    ("service.ingest.self_s", "s"), ("service.tick.self_s", "s"), ("service.view.self_s", "s"),
    ("service.view_cache_hit_ratio", "ratio"),
    ("core.push_many.self_s", "s"), ("core.refresh.calls", "count"), ("core.refresh.self_s", "s"),
    ("core.search.self_s", "s"), ("core.acf.self_s", "s"), ("core.warm_fallback_ratio", "ratio"),
    ("core.backfill.self_s", "s"), ("core.backfill.searches_run", "count"),
    ("core.backfill.frames_elided", "count"),
    ("spectral.probe_moments.calls", "count"), ("spectral.probe_moments.self_s", "s"),
    ("stream.panes.self_s", "s"), ("quality.reorder.self_s", "s"),
    ("quality.normalize.self_s", "s"), ("quality.late_accepted", "count"),
    ("quality.nan_dropped", "count"),
    ("pyramid.extend.self_s", "s"), ("pyramid.view.self_s", "s"), ("pyramid.build.self_s", "s"),
    ("net.rpc.calls", "count"), ("net.encode.self_s", "s"), ("net.decode.self_s", "s"),
    ("net.wait_s", "s"), ("net.bytes_out", "B/round"), ("net.bytes_in", "B/round"),
    ("net.push_dropped", "count"), ("net.server.busy_s", "s"),
    ("cluster.ingest.self_s", "s"), ("cluster.tick.self_s", "s"), ("cluster.wait_s", "s"),
    ("cluster.shard_busy_skew", "ratio"),
    ("persist.dumps.self_s", "s"), ("persist.loads.self_s", "s"),
    ("persist.checkpoint_bytes", "B"),
    ("engine.smooth_many.self_s", "s"), ("engine.acf_cache_hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_ratio", "ratio"),
)


class TooFewSamples(RuntimeError):
    """A percentile was asked of fewer samples than can support it."""


def percentile(samples, q: int, what: str) -> tuple[float, int]:
    """The *q*-th percentile, refused unless at least ten samples lie beyond it."""
    n = len(samples)
    if n * (100 - q) < 1000:
        raise TooFewSamples(f"{what}: p{q} needs at least {math.ceil(1000 / (100 - q))} "
                            f"samples, the run produced {n}")
    return float(np.percentile(samples, q)), n


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def end_to_end(m: workloads.Measured) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``(value, sample count)``."""
    rounds = m.rounds
    unit_s = statistics.mean(m.host_units)
    setup_wall_s = statistics.median(m.setups)
    frame_mean_s = statistics.mean(rounds.frame_ms) / 1e3
    return {
        "setup_s": (setup_wall_s / unit_s * hostclock.NOMINAL_S, len(m.setups)),
        "setup_wall_s": (setup_wall_s, len(m.setups)),
        "ingest_points_per_s": (rounds.points / sum(rounds.walls), len(rounds.walls)),
        "ingest_points_per_ref": (rounds.points / sum(rounds.walls) * unit_s, len(rounds.walls)),
        "frame_latency_mean_ms": (frame_mean_s * 1e3, len(rounds.frame_ms)),
        "frame_latency_mean_ref": (frame_mean_s / unit_s, len(rounds.frame_ms)),
        "frame_latency_p50_ms": percentile(rounds.frame_ms, 50, "frame latency"),
        "frame_latency_p90_ms": percentile(rounds.frame_ms, 90, "frame latency"),
        "view_latency_p50_ms": percentile(rounds.view_ms, 50, "view latency"),
        "view_latency_p90_ms": percentile(rounds.view_ms, 90, "view latency"),
        "push_latency_p50_ms": percentile(rounds.push_ms, 50, "push latency"),
        "backfill_points_per_s": (statistics.median(m.backfill_rates), len(m.backfill_rates)),
        "checkpoint_restore_s": (statistics.median(m.checkpoints), len(m.checkpoints)),
        "render_series_per_s": (statistics.median(m.render_rates), len(m.render_rates)),
        "peak_rss_mb": (m.rss_mb, 1),
        "host_unit_ms": (unit_s * 1e3, len(m.host_units)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: workloads.Measured, traced: workloads.Measured,
              merged: list, counts: dict) -> dict[str, tuple[float, int]]:
    """Every per-layer metric of the traced pass as ``(value, sample count)``."""
    sums = spans.layer_metrics(merged)
    views, hits, prefetches, fallbacks, late, nan = traced.stats
    setups = len(traced.setups)
    rounds = traced.rounds
    values = {name: sums.get(name, 0.0) for name, _unit in PER_LAYER}
    values.update({
        "service.view_cache_hit_ratio": _ratio(hits, views),
        "core.warm_fallback_ratio": _ratio(fallbacks, prefetches),
        "core.backfill.searches_run": sums.get("core.backfill.searches_run", 0.0) / setups,
        "core.backfill.frames_elided": sums.get("core.backfill.frames_elided", 0.0) / setups,
        "quality.late_accepted": float(late),
        "quality.nan_dropped": float(nan),
        "net.bytes_out": counts.get("net.bytes_out", 0.0) / len(rounds.walls),
        "net.bytes_in": counts.get("net.bytes_in", 0.0) / len(rounds.walls),
        "net.push_dropped": float(rounds.pushes_dropped),
        "persist.checkpoint_bytes": float(traced.checkpoint_bytes),
        "engine.acf_cache_hit_ratio": _ratio(
            sums.get("engine.smooth_many.acf_hits", 0.0),
            sums.get("engine.smooth_many.acf_hits", 0.0) + sums.get("engine.smooth_many.acf_misses", 0.0),
        ),
    })
    values["trace.overhead_ratio"] = statistics.mean(rounds.walls) / statistics.mean(plain.rounds.walls)
    wall = sum(rounds.walls)
    covered = spans.top_level_time(merged, range(len(rounds.walls)))
    values["trace.unattributed_ratio"] = max(0.0, 1.0 - covered / wall)
    return {name: (value, len(rounds.walls)) for name, value in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path,
        spans_out: Path | None = None, streams: int = 16) -> dict:
    """Gate, then measure; returns the result object (``metrics`` keep sample counts)."""
    kind = WORKLOADS[workload]
    failures = workloads.Failures()
    recorder = spans.Recorder()
    workloads.install_shard_hook(recorder)
    workloads.gate_in_child(kind, seed, streams, run_dir / "gate", failures)
    if failures.failed:
        return {"correct": False, "attempted": failures.attempted, "failed": failures.failed,
                "metrics": {}, "notes": failures.notes}
    if not trace:
        measured = workloads.measure(kind, seed, seconds, streams, run_dir, failures)
        metrics = end_to_end(measured)
        units = dict(END_TO_END)
    else:
        plain = workloads.measure(kind, seed, seconds / 2, streams, run_dir, failures, tag="u")
        undo = spans.install(recorder)
        recorder.enabled = True
        try:
            traced = workloads.measure(kind, seed, seconds / 2, streams, run_dir, failures,
                                       recorder=recorder, tag="t")
        finally:
            recorder.enabled = False
            spans.uninstall(undo)
        merged = recorder.spans
        for directory in sorted(run_dir.glob("t-*")):
            if directory.is_dir():
                spans.load_remote(merged, directory)
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(spans_out, "wt") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "round", "origin", "attrs"],
                           "spans": merged}, handle)
        metrics = per_layer(plain, traced, merged, recorder.counts)
        units = dict(PER_LAYER)
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in metrics.items()},
        "notes": failures.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_dir = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    spans_out = ROOT / ".perfbench-out" / f"spans-{args.workload}.json.gz" if args.trace else None
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir, spans_out)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        gated = "" if args.trace or name in GATED else "  (not gated)"
        print(f"# {name:32s} {metric['value']:>16.6g} {metric['unit']:9s} n={metric['samples']}{gated}")
    for note in result["notes"]:
        print(f"# FAILED: {note}")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items() if args.trace or name in GATED},
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
