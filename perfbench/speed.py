"""The box's speed, measured by a fixed probe interleaved with the work.

This box's CPU speed drifts by up to 2x over minutes (see README.md,
"This box's noise"), far more than any bound a regression gate can use.
So each run also times a probe: a fixed piece of CPU work that lives in
the benchmark, not in the program, and that makes the same kind of calls
as the program's hot loops (per-feature histogram split search with small
numpy calls, plus dict-heavy pure-Python bookkeeping).  A slice runs
before and after every set-up and every timed unit, never inside a timed
interval.  The speed swings within seconds too, so the slices next to an
interval track it far better than one figure for the whole run.

A CPU-bound metric is then reported in *reference seconds*: each timed
interval is multiplied by ``REFERENCE_SLICE_S`` over the mean of the two
slices around it, before any median is taken.  When the box runs
at its reference speed the two agree; when the whole box slows, the
program and the probe slow together and the ratio stays put.  A change to
the program moves the metric exactly as it moves the raw time, because
the probe does not run program code.  Each record's ``detail`` keeps the
values as timed and the factor applied to every interval.
"""

from __future__ import annotations

import time

import numpy as np

#: Typical slice time on this box in its fast regime (2 vCPU Xeon under
#: KVM, Python 3.11, numpy 2.4).  Only sets the unit; never retune it,
#: or figures before and after stop being comparable.
REFERENCE_SLICE_S = 0.15

_FEATURES = 24
_BINS = 64
#: Probe units per slice: about 0.15-0.3 s here.
_UNITS = 200


class Probe:
    """Fixed CPU work; ``slice()`` runs one piece and returns its seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20180101)
        self.codes = rng.integers(0, _BINS, (512, _FEATURES)).astype(np.uint8)
        self.grad = rng.normal(size=512)
        self.hess = rng.random(512) + 0.5
        self.keys = [(int(a), int(b)) for a, b in rng.integers(0, 97, (64, 2))]

    def _unit(self) -> float:
        g_sum, h_sum = float(self.grad.sum()), float(self.hess.sum())
        best = -np.inf
        for feature in range(_FEATURES):
            codes = self.codes[:, feature]
            gl = np.cumsum(np.bincount(codes, weights=self.grad, minlength=_BINS))[:-1]
            hl = np.cumsum(np.bincount(codes, weights=self.hess, minlength=_BINS))[:-1]
            nl = np.cumsum(np.bincount(codes, minlength=_BINS))[:-1]
            gains = gl**2 / (hl + 1.0) + (g_sum - gl) ** 2 / (h_sum - hl + 1.0)
            gains[nl < 5] = -np.inf
            best = max(best, float(gains[int(np.argmax(gains))]))
        history: dict[tuple[int, int], list[float]] = {}
        for step, key in enumerate(self.keys * 4):
            history.setdefault(key, []).append(step * 0.5)
            if len(history[key]) > 3:
                history[key] = history[key][-3:]
        return best + sum(len(v) for v in history.values())

    def slice(self) -> float:
        started = time.perf_counter()
        for _ in range(_UNITS):
            self._unit()
        return time.perf_counter() - started

    def factor(self, before: float, after: float) -> float:
        """Reference seconds per measured second between two slices."""
        return REFERENCE_SLICE_S / ((before + after) / 2.0)
