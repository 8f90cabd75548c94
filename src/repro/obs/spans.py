"""Span-based tracing over wall or virtual clocks.

A :class:`SpanTracer` accumulates named span durations.  It is
deliberately tiny and self-contained (no registry reference required) so
it can run inside process-pool workers: the sharded simulator returns
its totals as a plain ``stage_seconds`` dict on each shard result, and
records them (as wall-excluded metrics) only at merge time, which keeps
``--jobs N`` snapshots bit-identical to ``--jobs 1``.

Two clock sources:

* the default monotonic wall clock (``time.perf_counter``) for real
  benchmark timings, always tagged ``wall`` so digests exclude them;
* any object with a ``now`` attribute (e.g. the gateway's counted
  ``VirtualClock``) for deterministic event-time spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["SpanTracer"]


class SpanTracer:
    """Accumulate per-name span durations and occurrence counts."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        # ``clock`` is any zero-arg callable returning seconds (or virtual
        # minutes); defaults to the monotonic wall clock.
        self._clock = clock if clock is not None else time.perf_counter
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._open: tuple[str, float] | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - started)

    # Imperative form for interleaved stages (e.g. a tick loop that
    # alternates simulate/sample work): exactly one span is open at a
    # time; ``switch`` closes the current one and opens the next.
    def start(self, name: str) -> None:
        if self._open is not None:
            raise RuntimeError(
                f"span {self._open[0]!r} is still open; use switch()"
            )
        self._open = (name, self._clock())

    def switch(self, name: str) -> None:
        self.stop()
        self.start(name)

    def stop(self) -> None:
        if self._open is not None:
            name, started = self._open
            self._open = None
            self.add(name, self._clock() - started)

    def add(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)
        self._counts[name] = self._counts.get(name, 0) + 1

    @property
    def seconds(self) -> dict[str, float]:
        """Accumulated duration per span name (insertion-ordered)."""
        return dict(self._seconds)

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def get(self, name: str) -> float:
        return self._seconds.get(name, 0.0)
