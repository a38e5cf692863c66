"""Measurement utilities for the experimental evaluation (paper Sec. VI).

* :mod:`repro.metrics.timing` -- wall-clock runtime of a mining call.
* :mod:`repro.metrics.memory` -- peak memory via :mod:`tracemalloc`.
* :mod:`repro.metrics.accuracy` -- the A-STPM accuracy metric
  (pattern-set recall against E-STPM).
"""

from repro.metrics.accuracy import accuracy_pct, pattern_set_overlap
from repro.metrics.memory import close_frame, measure_peak_memory, open_frame
from repro.metrics.timing import Timer

__all__ = [
    "Timer",
    "measure_peak_memory",
    "open_frame",
    "close_frame",
    "accuracy_pct",
    "pattern_set_overlap",
]
