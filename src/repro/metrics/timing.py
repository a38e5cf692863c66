"""Wall-clock timing of code blocks.

:class:`Timer` is a context manager over ``time.perf_counter_ns()``
whose integer arithmetic avoids the float rounding that
``perf_counter()`` deltas accumulate on long runs.
"""

from __future__ import annotations

import time


class Timer:
    """Measure a block's wall-clock with nanosecond integer arithmetic.

    ::

        with Timer() as timer:
            work()
        print(timer.seconds)

    ``start()``/``stop()`` are also exposed for non-``with`` call sites;
    ``stop()`` returns the elapsed seconds.  Re-entering restarts the
    measurement.
    """

    __slots__ = ("elapsed_ns", "_started_ns")

    def __init__(self) -> None:
        self.elapsed_ns = 0
        self._started_ns: int | None = None

    def start(self) -> "Timer":
        self._started_ns = time.perf_counter_ns()
        return self

    def stop(self) -> float:
        if self._started_ns is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed_ns = time.perf_counter_ns() - self._started_ns
        self._started_ns = None
        return self.seconds

    @property
    def seconds(self) -> float:
        return self.elapsed_ns / 1e9

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
