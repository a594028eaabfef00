"""Seeded traffic for the benchmark's workloads.

Everything here is a pure function of the workload seed: the same seed gives
bit-identical arrays, and the program under test only ever sees the arrays.

Live traffic (shared by ``hub-live``, ``tcp-live`` and ``sharded-live``, so
the tiers compare like for like): ``streams`` noisy periodic series with
random periods; every 7th stream carries a recurring spike; every 4th stream
is *messy* — its spec turns on the quality stage and each scrape batch holds
one NaN and one adjacent swap (a late point inside the watermark).

Dashboards: fresh series for ``smooth_many`` that no engine has seen before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import AsapSpec

#: Raw points per stream per scrape batch; with ``pane_size=4`` and
#: ``refresh_interval=10`` one batch completes exactly one refresh.
BATCH = 40
PANE_SIZE = 4
RESOLUTION = 400
REFRESH_INTERVAL = 10
#: A full window of warm history: ``RESOLUTION`` panes.
HISTORY = RESOLUTION * PANE_SIZE
#: Widths of the two views polled per round, on rotating streams.
VIEW_WIDTHS = (100, 200)
#: Width every stream is subscribed at on ``tcp-live``.
PUSH_RESOLUTION = 100
MESSY_EVERY = 4
SPIKE_EVERY = 7

LIVE_SPEC = AsapSpec(pane_size=PANE_SIZE, resolution=RESOLUTION, refresh_interval=REFRESH_INTERVAL)
MESSY_SPEC = LIVE_SPEC.merge(normalize=True, cadence=1.0, watermark=8)


def is_messy(index: int) -> bool:
    return index % MESSY_EVERY == MESSY_EVERY - 1


def has_spike(index: int) -> bool:
    return index % SPIKE_EVERY == SPIKE_EVERY - 1


@dataclass
class _Signal:
    """One stream's generator state: its own RNG and clock."""

    rng: np.random.Generator
    period: float
    phase: float
    amplitude: float
    noise: float
    spike: bool
    messy: bool
    clock: int = 0

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(self.clock, self.clock + count, dtype=np.float64)
        self.clock += count
        values = self.amplitude * np.sin(2.0 * np.pi * t / self.period + self.phase)
        values += self.noise * self.rng.standard_normal(count)
        if self.spike:
            # A 6-point burst every 997 points: the anomaly ASAP must keep visible.
            values[(t % 997.0) < 6.0] += 6.0 * self.amplitude
        if self.messy:
            # Per 40-point scrape: one NaN and one adjacent swap.  The swap
            # delays a point by one position, well inside the watermark.
            for start in range(0, count, BATCH):
                span = min(BATCH, count - start)
                values[start + int(self.rng.integers(span))] = np.nan
                k = start + int(self.rng.integers(span - 1))
                t[[k, k + 1]] = t[[k + 1, k]]
                values[[k, k + 1]] = values[[k + 1, k]]
        return t, values


def ladder(low: float, high: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """*count* geometric steps from *low* to *high*, each jittered by ±3%.

    Periods, amplitudes and noise levels come from fixed ladders so that
    every seed gives traffic of the same shape and cost; the seed moves each
    step a little and draws all the noise, phases and faults.
    """
    steps = low * (high / low) ** (np.arange(count) / max(count - 1, 1))
    return steps * rng.uniform(0.97, 1.03, count)


def _signals(seed: int, streams: int) -> list[_Signal]:
    rng = np.random.default_rng([seed, 0])
    period = ladder(24.0, 320.0, streams, rng)
    amplitude = ladder(0.5, 4.0, streams, rng)
    noise = ladder(0.2, 1.0, streams, rng)
    # Fixed permutations decorrelate the ladders from each other and from
    # the messy/spike stream positions.
    return [
        _Signal(
            rng=np.random.default_rng([seed, 1 + index]),
            period=float(period[(5 * index) % streams]),
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            amplitude=float(amplitude[(3 * index + 1) % streams]),
            noise=float(noise[(7 * index + 2) % streams]),
            spike=has_spike(index),
            messy=is_messy(index),
        )
        for index in range(streams)
    ]


class LiveTraffic:
    """The shared live traffic: warm history, then one batch per stream per round."""

    def __init__(self, seed: int, streams: int = 16) -> None:
        self.streams = streams
        self._signals = _signals(seed, streams)
        self.specs = [MESSY_SPEC if s.messy else LIVE_SPEC for s in self._signals]
        self.history = [s.take(HISTORY) for s in self._signals]

    def next_round(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The next scrape batch of every stream, in stream order."""
        return [s.take(BATCH) for s in self._signals]

    def view_targets(self, round_index: int) -> list[tuple[int, int]]:
        """``(stream, width)`` of the views polled in *round_index*, on rotating streams."""
        return [
            ((round_index + j * (self.streams // 2)) % self.streams, width)
            for j, width in enumerate(VIEW_WIDTHS)
        ]


RENDER_RESOLUTIONS = (800, 1600)
#: Series per dashboard batch, and points per series.
DASHBOARD_SERIES = 8
DASHBOARD_POINTS = 12000


class Dashboards:
    """Fresh dashboard batches for ``smooth_many``: series no engine has seen."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 2000])

    def next_batch(self) -> list[np.ndarray]:
        rng = self._rng
        t = np.arange(DASHBOARD_POINTS, dtype=np.float64)
        batch = []
        for period in ladder(40.0, 2000.0, DASHBOARD_SERIES, rng):
            values = 2.0 * np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi))
            values += 0.5 * rng.standard_normal(t.size)
            batch.append(values)
        return batch
