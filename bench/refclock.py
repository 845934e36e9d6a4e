"""Time at the reference machine speed.

The benchmark runs on a shared VM whose speed changes by up to 2x within
seconds (other tenants on the same cores), so a wall time says as much about
the neighbours as about symtree. ``RefClock`` measures that speed while the
benchmark runs and converts wall intervals into reference seconds: the time
the interval would have taken at the speed at which one calibration chunk
takes ``CAL_REF_S``.

A SIGALRM timer runs one calibration chunk every ``TICK_S`` seconds, in the
main thread between two bytecodes of whatever runs (inside a C call the tick
waits until it returns). The chunk is a fixed mix of what symtree's layers do
(a pure-Python float loop, tiny numpy ops, a small dense solve) and uses only
Python and numpy, so no change to symtree changes its cost. An interval's
reference seconds are its wall time, less the chunks that ran inside it,
times ``CAL_REF_S`` over the chunk time at each moment of the interval (the
rolling median of ``SMOOTH`` neighbouring chunks, linear between chunks).

The chunk allocates no garbage-collected objects, so it never triggers a
collection that the program's heap would make slow.
"""

from __future__ import annotations

import signal
import time

import numpy as np

CAL_REF_S = 1.2e-3     # chunk time at the reference speed (the 2-vCPU Xeon VM, unloaded)
TICK_S = 0.1           # one chunk per this much wall time (≈1.2% of it)
SMOOTH = 11            # chunks per rolling median (about 1 s)

_A = np.random.default_rng(0).standard_normal((24, 24)) + 24.0 * np.eye(24)
_V = np.linspace(0.1, 0.9, 24)
_W = np.empty(24)


def calibration_chunk() -> float:
    """One fixed chunk of work; returns a value so nothing is optimised away."""
    s = 0.0
    x = 0.37
    for i in range(800):                      # interpreted float arithmetic
        x = 3.7 * x * (1.0 - x)
        s += x * 0.5 + i % 3
    for _ in range(200):                       # tiny numpy ops, as per-point code does
        np.dot(_A, _V, out=_W)
        np.abs(_W, out=_W)
        s += float(_W.sum())
    for _ in range(20):                        # a small dense solve, as the LP does
        s += float(np.linalg.solve(_A, _V)[0])
    return s


class RefClock:
    """Calibration ticks for the life of the process (or until ``stop``)."""

    def __init__(self):
        self.starts, self.lengths = [], []
        calibration_chunk()                   # first call pays numpy's lazy set-up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        calibration_chunk()
        self.starts.append(t)
        self.lengths.append(time.perf_counter() - t)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_samples(self) -> int:
        return len(self.lengths)

    def median_chunk_s(self) -> float:
        return float(np.median(self.lengths))

    def _curve(self):
        """Tick midpoints, the scale (reference over wall seconds) at each,
        and its integral from the first midpoint (trapezoids)."""
        if not self.lengths:
            raise RuntimeError("no calibration tick yet: the interval is too short to scale")
        starts = np.asarray(self.starts)
        lengths = np.asarray(self.lengths)
        k = min(SMOOTH, len(lengths))
        padded = np.pad(lengths, (k // 2, k - 1 - k // 2), mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, k), axis=1)
        mid = starts + lengths / 2
        scale = CAL_REF_S / smooth
        cum = np.concatenate([[0.0], np.cumsum(np.diff(mid) * (scale[1:] + scale[:-1]) / 2)])
        return starts, lengths, mid, scale, cum

    @staticmethod
    def _integral(t, mid, scale, cum):
        """Integral of the scale from mid[0] to t; constant outside the ticks."""
        j = np.clip(np.searchsorted(mid, t, side="right") - 1, 0, len(mid) - 1)
        after = cum[j] + (t - mid[j]) * (scale[j] + np.interp(t, mid, scale)) / 2
        return np.where(t >= mid[0], after, (t - mid[0]) * scale[0])

    def scale(self, t0, t1):
        """Mean scale (reference over wall seconds) over each wall interval."""
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        _, _, mid, scale, cum = self._curve()
        span = self._integral(t1, mid, scale, cum) - self._integral(t0, mid, scale, cum)
        return span / (t1 - t0)

    def ref_seconds(self, t0, t1):
        """Reference seconds of the wall intervals [t0, t1] (arrays or floats).

        Call after the intervals have ended, so ticks on both sides of each
        are known. The scale is linear between tick midpoints and integrated
        exactly over each interval, so a long interval sees every tick inside
        it; the chunks that ran inside an interval are not its work.
        """
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        starts, lengths, mid, scale, cum = self._curve()
        span = self._integral(t1, mid, scale, cum) - self._integral(t0, mid, scale, cum)
        done = np.concatenate([[0.0], np.cumsum(lengths * scale)])
        inside = done[np.searchsorted(starts, t1)] - done[np.searchsorted(starts, t0)]
        return span - inside


class WallClock:
    """``RefClock``'s interface at scale 1: plain wall seconds."""

    def stop(self):
        pass

    def scale(self, t0, t1):
        return np.ones_like(np.asarray(t0, dtype=float))

    def ref_seconds(self, t0, t1):
        return np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float)
