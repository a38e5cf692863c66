"""Unit tests for the measurement utilities."""

import pytest

from repro import ESTPM
from repro.core.results import MiningResult, MiningStats
from repro.metrics import (
    Timer,
    accuracy_pct,
    measure_peak_memory,
    pattern_set_overlap,
)


def _result_with(patterns):
    from repro.core.pattern import single_event_pattern
    from repro.core.results import SeasonalPattern
    from repro.core.seasonality import SeasonView

    view = SeasonView(support=(1,), near_sets=((1,),), seasons=((1,),))
    return MiningResult(
        patterns=[SeasonalPattern(single_event_pattern(e), view) for e in patterns],
        stats=MiningStats(),
    )


class TestTimer:
    def test_context_manager(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.seconds > 0.0
        assert timer.elapsed_ns > 0

    def test_start_stop(self):
        timer = Timer()
        assert timer.start() is timer
        elapsed = timer.stop()
        assert elapsed == timer.seconds >= 0.0

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_restart_measures_fresh(self):
        timer = Timer()
        with timer:
            sum(range(100_000))
        first = timer.seconds
        with timer:
            pass
        assert timer.seconds < first


class TestPeakMemory:
    def test_measures_allocation(self):
        result, peak = measure_peak_memory(lambda: [0] * 200_000)
        assert len(result) == 200_000
        assert peak > 200_000 * 4  # a list of ints is at least this big

    def test_nested_measurement(self):
        import tracemalloc

        def nested():
            _, inner_peak = measure_peak_memory(lambda: [0] * 200_000)
            return inner_peak

        inner_peak, outer_peak = measure_peak_memory(nested)
        assert inner_peak > 200_000 * 4
        assert outer_peak >= inner_peak
        assert not tracemalloc.is_tracing()

    def test_outer_sees_peaks_outside_inner_frame(self):
        def work():
            big = [0] * 400_000  # outer allocation, freed before inner runs
            del big
            _, inner_peak = measure_peak_memory(lambda: [0] * 50_000)
            return inner_peak

        inner_peak, outer_peak = measure_peak_memory(work)
        assert outer_peak > 400_000 * 4
        assert inner_peak < outer_peak

    def test_foreign_tracing_rejected(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError):
                measure_peak_memory(lambda: 1)
        finally:
            tracemalloc.stop()

    def test_stops_tracing_on_error(self):
        import tracemalloc

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            measure_peak_memory(boom)
        assert not tracemalloc.is_tracing()

    def test_stops_tracing_on_nested_error(self):
        import tracemalloc

        def boom():
            raise ValueError("x")

        def outer():
            with pytest.raises(ValueError):
                measure_peak_memory(boom)
            return 1

        result, _ = measure_peak_memory(outer)
        assert result == 1
        assert not tracemalloc.is_tracing()


class TestAccuracy:
    def test_full_recall(self):
        exact = _result_with(["A:1", "B:1"])
        approx = _result_with(["A:1", "B:1"])
        assert accuracy_pct(exact, approx) == 100.0

    def test_partial_recall(self):
        exact = _result_with(["A:1", "B:1", "C:1", "D:1"])
        approx = _result_with(["A:1", "B:1", "C:1"])
        assert accuracy_pct(exact, approx) == 75.0
        assert pattern_set_overlap(exact, approx) == (3, 4)

    def test_empty_exact_counts_as_perfect(self):
        assert accuracy_pct(_result_with([]), _result_with([])) == 100.0

    def test_on_real_mining_results(self, paper_dseq, paper_params):
        exact = ESTPM(paper_dseq, paper_params).mine()
        assert accuracy_pct(exact, exact) == 100.0


class TestResultHelpers:
    def test_by_size_and_describe(self, paper_dseq, paper_params):
        result = ESTPM(paper_dseq, paper_params).mine()
        assert len(result.by_size(1)) + len(result.by_size(2)) + len(
            result.by_size(3)
        ) == len(result)
        text = result.describe(limit=5)
        assert "more" in text or len(result) <= 5
        assert result.multi_event_keys() <= result.pattern_keys()
