"""A fixed unit of work that clocks the host's current speed.

The benchmark's host shares its machine with other tenants, and their load
makes this process run slower or faster for seconds to minutes at a time,
with no steal time to show for it.  Every time a run measures inherits that
drift.  The unit runs as one of the interleaved tasks of a run, so it
samples the same stretches of machine time as the workload; a mean
workload time divided by the mean unit time cancels the host's speed and
keeps the program's.

The unit imports nothing from the program under test, so no change to the
program can move it.  It has the same make-up as a refresh: small numpy
calls (an FFT autocorrelation, moving averages by cumulative sums) driven
by interpreted Python, on arrays fixed at import time.  It allocates no
containers the cyclic garbage collector tracks beyond a few short lists per
series, so collections of the program's heap are not charged to it.
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(20170301)
_t = np.arange(400, dtype=np.float64)
#: Four noisy sinusoids, periods 6 to 80 points: the unit's fixed input.
SERIES = tuple(
    np.sin(2.0 * np.pi * _t / period) + 0.4 * _rng.standard_normal(_t.size)
    for period in np.geomspace(6.0, 80.0, 4)
)
del _rng, _t

#: The unit's time on an unloaded host of the kind the benchmark was defined
#: on (2 vCPUs, Python 3.11, numpy 2.4): its run-wide means read 3.6 to
#: 5.0 ms there.  Only ``setup_s`` uses it, to stay in seconds.
NOMINAL_S = 0.004


def unit() -> int:
    """One reference unit: a small smoothing-window search on every series.

    Returns the sum of the chosen windows, which is the same on every call.
    """
    total = 0
    for x in SERIES:
        centred = x - x.mean()
        spectrum = np.fft.rfft(centred, 1024)
        acf = np.fft.irfft(spectrum * np.conj(spectrum))[:200]
        acf /= acf[0]
        peaks = np.flatnonzero((acf[1:-1] > acf[:-2]) & (acf[1:-1] >= acf[2:])) + 1
        sums = np.concatenate(([0.0], np.cumsum(x)))
        best_window = 1
        best_roughness = float(np.diff(x).std())
        for window in peaks[:6].tolist() + list(range(2, 10)):
            sma = (sums[window:] - sums[:-window]) / window
            dev = sma - sma.mean()
            var = float((dev * dev).mean())
            kurtosis = float((dev ** 4).mean()) / (var * var)
            roughness = float(np.diff(sma).std())
            if kurtosis >= 1.5 and roughness < best_roughness:
                best_window, best_roughness = window, roughness
        total += best_window
    return total
