"""Wall-clock timing helpers.

The streaming and scaling studies in the paper are throughput measurements;
this module provides a small, dependency-free accumulating timer.
:class:`Timer` is what :class:`repro.pic.simulation.PICSimulation`
(``gather``/``push``/``deposit``/``fields``/``plugins``) and the trainer
(``ingest``/``batch``/``forward``/``backward``/``optimizer``) split their
wall time with; the hot-path benchmark and ``bench/`` read those totals.
The clock is injectable, and :class:`VirtualClock` makes the timer's own
tests deterministic — no performance model drives it
(:mod:`repro.perfmodel` is analytic and never measures time).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List


class WallClock:
    """Monotonic clock that can be replaced by a virtual clock in tests."""

    def now(self) -> float:
        return time.perf_counter()


class VirtualClock(WallClock):
    """A manually advanced clock, for deterministic timer tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._t = float(start)

    def now(self) -> float:
        return self._t

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError("cannot advance a clock backwards")
        self._t += dt
        return self._t


@dataclass
class Timer:
    """Accumulating named timer.

    Examples
    --------
    >>> timer = Timer()
    >>> with timer.section("push"):
    ...     pass
    >>> "push" in timer.totals()
    True
    """

    clock: WallClock = field(default_factory=WallClock)
    _totals: Dict[str, float] = field(default_factory=dict)
    _counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = self.clock.now()
        try:
            yield
        finally:
            elapsed = self.clock.now() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against section ``name`` without timing."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def mean(self, name: str) -> float:
        if name not in self._totals or self._counts.get(name, 0) == 0:
            raise KeyError(f"no samples recorded for section {name!r}")
        return self._totals[name] / self._counts[name]

    def total(self) -> float:
        return sum(self._totals.values())

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()


def timed(fn: Callable, *args, repeat: int = 1, clock: WallClock | None = None,
          **kwargs):
    """Run ``fn`` ``repeat`` times, returning ``(result, per-call seconds)``."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    clock = clock or WallClock()
    times: List[float] = []
    result = None
    for _ in range(repeat):
        start = clock.now()
        result = fn(*args, **kwargs)
        times.append(clock.now() - start)
    return result, times
