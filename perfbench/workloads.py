"""The benchmark's workloads, timed from outside the mining program.

Every timing here wraps a call into one layer's public functions
(``load_dataset``, ``Dataset.dseq``, ``ESTPM.mine``, ``ASTPM.mine``,
``ASTPM.screening``, ``StreamingMiningService.push_symbols`` and the two
calls it is made of).  The program is never patched and no span is added
inside it; the traced run only switches on the existing ``repro.obs``
telemetry and reads its counters.

Engine settings (kernel, support backend, front end) are left at their
defaults, so a later change of a default shows up here.

A run of seed ``s`` performs a fixed number of operations (see
:meth:`Workload.operations_per_run`); operation ``i`` works on the dataset
that ``load_dataset(name, "bench", seed=input_seed(s, i))`` generates, so
a run averages over several inputs and both sides of a comparison do the
same work.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import ASTPM, ESTPM, validate_result
from repro.datasets.registry import load_dataset
from repro.obs import capture, enable_telemetry, phase_summary, reset_telemetry
from repro.streaming import StreamingDatabase, StreamingMiningService

PROFILE = "bench"
#: The CLI ``mine`` defaults (``min_season`` 6, density 0.75, period 0.4).
MIN_SEASON = 6
MIN_DENSITY_PCT = 0.75
MAX_PERIOD_PCT = 0.4
MAX_PATTERN_LENGTH = 3
#: Set-ups timed before the operations, on top of one per operation.
SETUP_REPEATS = 5
N_WORKERS = 2
#: Granules pushed at once to open the stream; one granule per push after.
WARMUP_GRANULES = 60

#: Counters read from ``repro.obs.capture()`` in the traced run.
STPM_COUNTERS = (
    "mine.pairs.recorded",
    "mine.extensions.recorded",
    "kernel.pairs.bulk",
    "kernel.pairs.near_classified",
    "mine.groups.gate_rejected",
)
EXECUTOR_COUNTERS = (
    "executor.tasks_dispatched",
    "executor.pool_spawns",
    "executor.retries",
    "executor.pool_breaks",
)
STREAM_COUNTERS = ("stream.patterns.promoted", "stream.patterns.updated")
#: Layers that do no work on a workload report zero there.
MI_LAYER = {"mi.screening_s": "s", "mi.series_pruned": "count", "mi.events_pruned": "count"}
STREAM_LAYER = {
    "streaming.ingest_s": "s",
    "streaming.advance_s": "s",
    "streaming.checkpoint_s": "s",
    "streaming.checkpoint_bytes": "bytes",
    "streaming.border_patterns": "count",
    "stream.patterns.promoted": "count",
    "stream.patterns.updated": "count",
}


def input_seed(seed: int, index: int) -> int:
    """The dataset seed of operation ``index`` in a run of ``seed``."""
    return 1000 * seed + index


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least ``pct`` percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def result_digest(result) -> str:
    """SHA-256 of what ``results_equivalent`` compares, in canonical order.

    Each frequent pattern contributes its events, relation triples,
    support set, near support sets and seasons.  Integers are normalized
    so a numpy scalar and a Python int of equal value digest alike.
    """

    def ints(values) -> tuple[int, ...]:
        return tuple(int(v) for v in values)

    lines = sorted(
        repr(
            (
                tuple(sp.pattern.events),
                tuple(tuple(triple) for triple in sp.pattern.triples),
                ints(sp.seasons.support),
                tuple(ints(near) for near in sp.seasons.near_sets),
                tuple(ints(season) for season in sp.seasons.seasons),
            )
        )
        for sp in result.patterns
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(call: Callable[[], object]) -> tuple[object, float]:
    """``call()`` and its wall time, after a full collection outside the clock."""
    gc.collect()
    started = time.perf_counter()
    value = call()
    return value, time.perf_counter() - started


@dataclass
class Outcome:
    """Everything one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    phase_summary: list[dict] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def zero(self, names: dict[str, str]) -> None:
        for name, unit in names.items():
            self.put(name, 0, unit)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, digest: str | None, references: dict[str, str | None]) -> None:
        """Fail the operation whose digest differs from any known reference."""
        if digest is None:
            return  # the operation already failed
        wrong = sorted(k for k, ref in references.items() if ref is not None and ref != digest)
        if wrong:
            self.fail(f"result digest differs from {', '.join(wrong)}")

    def put_timings(self, setups: list[float], mines: list[float], ops_ms: list[float]) -> None:
        self.samples.update(setup_s=setups, mine_s=mines, op_ms=ops_ms)
        self.put("setup_s", statistics.median(setups), "s")
        self.put("mine_s", statistics.median(mines), "s")
        self.put("op_p50_ms", statistics.median(ops_ms), "ms")
        self.put("op_p95_ms", nearest_rank(ops_ms, 95), "ms")


@dataclass
class Setup:
    """One prepared input: the dataset with its DSEQ, and the set-up times."""

    dataset: object
    load_s: float
    dseq_build_s: float
    service: StreamingMiningService | None = None
    service_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.load_s + self.dseq_build_s + self.service_s


def mining_params(dataset, max_pattern_length: int = MAX_PATTERN_LENGTH):
    return dataset.params(
        max_period_pct=MAX_PERIOD_PCT,
        min_density_pct=MIN_DENSITY_PCT,
        min_season=MIN_SEASON,
        max_pattern_length=max_pattern_length,
    )


@dataclass(frozen=True)
class Workload:
    """One workload: a dataset, how it is mined, and how often per run."""

    name: str
    dataset: str
    operations: int
    approximate: bool = False
    stream: bool = False
    engine: dict = field(default_factory=dict, hash=False)

    @property
    def parallel(self) -> bool:
        return self.engine.get("executor") == "parallel"

    def operations_per_run(self, share: float) -> int:
        """``operations`` scaled by ``share``, the run's length over the
        declared run length; at least one.

        A count, not a deadline, keeps the work of a run the same on both
        sides of a comparison.
        """
        return max(1, round(self.operations * share))

    def prepare(self, seed: int) -> Setup:
        """Generate, symbolize and transform one dataset; for a stream also
        construct the empty live service.  All of it is timed set-up."""
        started = time.perf_counter()
        dataset = load_dataset(self.dataset, PROFILE, seed=seed)
        loaded = time.perf_counter()
        dataset.dseq()
        setup = Setup(dataset, loaded - started, time.perf_counter() - loaded)
        if self.stream:
            started = time.perf_counter()
            database = StreamingDatabase(
                dataset.ratio, {series.name: series.alphabet for series in dataset.dsyb}
            )
            setup.service = StreamingMiningService(database, mining_params(dataset))
            setup.service_s = time.perf_counter() - started
        return setup

    def mine(self, setup: Setup, max_pattern_length: int = MAX_PATTERN_LENGTH, **engine):
        """The batch job (for a stream: batch E-STPM on the same data)."""
        dataset = setup.dataset
        params = mining_params(dataset, max_pattern_length)
        settings = {**self.engine, **engine}
        if self.approximate:
            return ASTPM(
                dataset.dsyb, dataset.ratio, params, dseq=dataset.dseq(), **settings
            ).mine()
        return ESTPM(dataset.dseq(), params, **settings).mine()

    def oracle_digest(self, seed: int) -> str:
        """The digest of the same input mined by a serial batch run."""
        return result_digest(self.mine(self.prepare(seed), executor="serial", n_workers=None))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("estpm-re", "RE", operations=2),
        Workload(
            "astpm-sc-par2", "SC", operations=4, approximate=True,
            engine={"executor": "parallel", "n_workers": N_WORKERS},
        ),
        Workload("stream-inf", "INF", operations=2, stream=True),
    )
}


def run_workload(name: str, seed: int, share: float, trace: bool, recorded: list[str]) -> Outcome:
    """One benchmark run: the timed operations, or with ``trace`` the layer split.

    ``share`` is the requested run length over the declared one;
    ``recorded`` holds the known digests of the run's operations in order
    (empty for a seed without a record).
    """
    workload = WORKLOADS[name]
    count = workload.operations_per_run(share)
    recorded = list(recorded) + [None] * count
    if trace:
        return (trace_stream if workload.stream else trace_batch)(workload, seed, recorded)
    return (run_stream if workload.stream else run_batch)(workload, seed, count, recorded)


# ----------------------------------------------------------------------
# Batch workloads: E-STPM on RE, A-STPM on SC with two worker processes
# ----------------------------------------------------------------------


def mine_checked(workload: Workload, setup: Setup, outcome: Outcome, **engine):
    """One mining job counted as an operation; returns (result, seconds).

    A job that raises or returns quarantined failures is a failed
    operation; its result is None.
    """
    outcome.attempted += 1
    started = time.perf_counter()
    try:
        result, seconds = timed(lambda: workload.mine(setup, **engine))
    except Exception as exc:  # a raising job is a failed operation, not a crash
        outcome.fail(f"mining raised {exc!r}")
        return None, time.perf_counter() - started
    if result.failures:
        outcome.fail(f"mining returned {len(result.failures)} failed task(s)")
        return None, seconds
    return result, seconds


def validated_digest(setup: Setup, result, outcome: Outcome) -> str | None:
    """The result's digest, after ``validate_result`` re-derives its claims."""
    if result is None:
        return None
    problems = validate_result(result, setup.dataset.dseq(), mining_params(setup.dataset))
    if problems:
        outcome.fail(f"validate_result: {problems[:3]}")
        return None
    return result_digest(result)


def batch_operation(workload: Workload, seed: int, outcome: Outcome) -> tuple[float, float, str | None]:
    """Prepare and mine one input: (set-up seconds, mine seconds, digest).

    Nothing of the job outlives this call, so the next job's memory peak
    is its own.
    """
    setup = workload.prepare(seed)
    result, seconds = mine_checked(workload, setup, outcome)
    return setup.seconds, seconds, validated_digest(setup, result, outcome)


def run_batch(workload: Workload, seed: int, count: int, recorded: list) -> Outcome:
    outcome = Outcome()
    setups = [workload.prepare(input_seed(seed, 0)).seconds for _ in range(SETUP_REPEATS)]
    mines, digests = [], []
    for index in range(count):
        setup_s, mine_s, digest = batch_operation(workload, input_seed(seed, index), outcome)
        setups.append(setup_s)
        mines.append(mine_s)
        digests.append(digest)
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.put_timings(setups, mines, [1000 * s for s in mines])
    for index, digest in enumerate(digests):
        outcome.check(digest, {"recorded": recorded[index]})
    return outcome


def put_stpm_layer(outcome: Outcome, times: dict[int, float], result, counters: dict) -> None:
    """``core.stpm`` metrics from the runs at ``max_pattern_length`` 1, 2, 3."""
    stats = result.stats
    outcome.put("stpm.step21_s", times[1], "s")
    outcome.put("stpm.pairs_s", times[2] - times[1], "s")
    outcome.put("stpm.extend_s", times[3] - times[2], "s")
    for k in (2, 3):
        outcome.put(f"stpm.k{k}.candidate_patterns", stats.n_candidate_patterns.get(k, 0), "count")
        outcome.put(f"stpm.k{k}.frequent", stats.n_frequent.get(k, 0), "count")
    outcome.put("stpm.k3.groups_generated", stats.n_groups_generated.get(3, 0), "count")
    outcome.put("stpm.k3.candidate_groups", stats.n_candidate_groups.get(3, 0), "count")
    frequent = stats.n_frequent.get(3, 0)
    candidates = stats.n_candidate_patterns.get(3, 0)
    outcome.put("stpm.k3.frequent_per_candidate", frequent / candidates if candidates else 0.0, "ratio")
    extensions = counters.get("mine.extensions.recorded", 0)
    outcome.put("stpm.k3.extensions_per_frequent", extensions / frequent if frequent else 0.0, "ratio")
    for name in STPM_COUNTERS + EXECUTOR_COUNTERS:
        outcome.put(name, counters.get(name, 0), "count")


def traced_levels(workload: Workload, setup: Setup, outcome: Outcome):
    """The job at ``max_pattern_length`` 1, 2 and 3 with telemetry on.

    Returns the per-level wall times, the level-3 result and the counters
    captured during the level-3 run, whose phase summary is kept on
    ``outcome`` as a cross-check of the outside timings.
    """
    enable_telemetry()
    times: dict[int, float] = {}
    for level in (1, 2, 3):
        reset_telemetry()
        outcome.attempted += 1
        with capture() as registry:
            result, times[level] = timed(lambda: workload.mine(setup, level))
        if result.failures:
            outcome.fail(f"traced level-{level} run returned failed tasks")
    outcome.phase_summary += phase_summary()
    return times, result, registry.snapshot()["counters"]


def put_setup_layers(outcome: Outcome, setups: list[Setup]) -> None:
    outcome.put("datasets.load_s", statistics.median(s.load_s for s in setups), "s")
    outcome.put("transform.dseq_build_s", statistics.median(s.dseq_build_s for s in setups), "s")
    outcome.put("transform.instances", setups[-1].dataset.dseq().total_instances(), "count")


def put_serial_executor_layer(outcome: Outcome, seconds: float, parent_cpu: float) -> None:
    """``core.executor`` on a job that never leaves the parent process."""
    outcome.put("executor.parent_cpu_s", parent_cpu, "s")
    outcome.zero({"executor.worker_cpu_s": "s", "executor.worker_utilization": "ratio",
                  "executor.worker_peak_rss_mb": "MB"})
    outcome.put("executor.serial_mine_s", seconds, "s")
    outcome.put("executor.speedup", 1.0, "ratio")


def trace_batch(workload: Workload, seed: int, recorded: list) -> Outcome:
    outcome = Outcome()
    setups = [workload.prepare(input_seed(seed, 0)) for _ in range(SETUP_REPEATS)]
    put_setup_layers(outcome, setups)
    setup = setups[-1]

    # Untraced run: the executor's CPU split and the trace-overhead baseline.
    cpu_before, children_before = time.process_time(), children_cpu_s()
    result, untraced = mine_checked(workload, setup, outcome)
    parent_cpu = time.process_time() - cpu_before
    references = {"recorded": recorded[0]}
    if workload.parallel:
        worker_cpu = children_cpu_s() - children_before
        outcome.put("executor.parent_cpu_s", parent_cpu, "s")
        outcome.put("executor.worker_cpu_s", worker_cpu, "s")
        outcome.put("executor.worker_utilization", worker_cpu / (N_WORKERS * untraced), "ratio")
        outcome.put("executor.worker_peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
        serial_result, serial = mine_checked(workload, setup, outcome, executor="serial", n_workers=None)
        references["serial"] = validated_digest(setup, serial_result, outcome)
        outcome.put("executor.serial_mine_s", serial, "s")
        outcome.put("executor.speedup", serial / untraced, "ratio")
    else:
        put_serial_executor_layer(outcome, untraced, parent_cpu)

    if workload.approximate:
        miner = ASTPM(setup.dataset.dsyb, setup.dataset.ratio, mining_params(setup.dataset),
                      dseq=setup.dataset.dseq())
        report, screening = timed(miner.screening)
        outcome.put("mi.screening_s", screening, "s")
        outcome.put("mi.series_pruned", report.n_pruned_series, "count")
        outcome.put("mi.events_pruned", result.stats.n_events_pruned if result else 0, "count")
    else:
        outcome.zero(MI_LAYER)

    times, traced_result, counters = traced_levels(workload, setup, outcome)
    put_stpm_layer(outcome, times, traced_result, counters)
    outcome.zero(STREAM_LAYER)
    outcome.put("obs.trace_overhead_pct", 100 * (times[3] - untraced) / untraced, "%")
    outcome.check(validated_digest(setup, result, outcome), references)
    outcome.check(result_digest(traced_result), references)
    return outcome


# ----------------------------------------------------------------------
# Streaming replay: INF through one live service, closed loop
# ----------------------------------------------------------------------


def stream_blocks(dataset) -> list[dict[str, list[str]]]:
    """The warm-up window, then one block per granule."""
    streams = {series.name: series.symbols for series in dataset.dsyb}
    ratio = dataset.ratio
    bounds = [0, WARMUP_GRANULES * ratio]
    while bounds[-1] + ratio <= dataset.dsyb.n_instants:
        bounds.append(bounds[-1] + ratio)
    return [
        {name: list(symbols[start:end]) for name, symbols in streams.items()}
        for start, end in zip(bounds, bounds[1:])
    ]


def replay(setup: Setup, outcome: Outcome, split: bool = False):
    """Push every block in turn, each after the previous one completes.

    Returns per-push wall times and the final result's digest (None when
    a push raised); with ``split`` also the time spent in
    ``StreamingDatabase.append_symbols`` and ``IncrementalSTPM.advance``,
    the two calls ``push_symbols`` makes.
    """
    service = setup.service
    latencies: list[float] = []
    ingest = advance = 0.0
    gc.collect()
    for block in stream_blocks(setup.dataset):
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            if split:
                service.database.append_symbols(block)
                appended = time.perf_counter()
                service.miner.advance()
                ingest += appended - started
                advance += time.perf_counter() - appended
            else:
                service.push_symbols(block)
        except Exception as exc:  # the stream is broken; stop pushing
            outcome.fail(f"push raised {exc!r}")
            return latencies, None, ingest, advance
        latencies.append(time.perf_counter() - started)
    return latencies, result_digest(service.result()), ingest, advance


def stream_operation(workload: Workload, seed: int, outcome: Outcome):
    """Prepare and replay one input: (set-up seconds, push latencies, digest)."""
    setup = workload.prepare(seed)
    latencies, digest, _, _ = replay(setup, outcome)
    return setup.seconds, latencies, digest


def run_stream(workload: Workload, seed: int, count: int, recorded: list) -> Outcome:
    outcome = Outcome()
    setups = [workload.prepare(input_seed(seed, 0)).seconds for _ in range(SETUP_REPEATS)]
    replays, pushes_ms, digests = [], [], []
    for index in range(count):
        setup_s, latencies, digest = stream_operation(workload, input_seed(seed, index), outcome)
        setups.append(setup_s)
        replays.append(sum(latencies))
        # The warm-up window is one push but not a one-granule sample.
        pushes_ms.extend(1000 * s for s in latencies[1:])
        digests.append(digest)
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.put_timings(setups, replays, pushes_ms)
    # A replay whose final result is wrong counts as one failed operation.
    for index, digest in enumerate(digests):
        batch = workload.oracle_digest(input_seed(seed, index))
        outcome.check(digest, {"recorded": recorded[index], "batch": batch})
    return outcome


def trace_stream(workload: Workload, seed: int, recorded: list) -> Outcome:
    outcome = Outcome()
    setups = [workload.prepare(input_seed(seed, 0)) for _ in range(SETUP_REPEATS)]
    put_setup_layers(outcome, setups)

    cpu_before = time.process_time()
    latencies, untraced_digest, _, _ = replay(setups[0], outcome)
    untraced = sum(latencies)
    put_serial_executor_layer(outcome, untraced, time.process_time() - cpu_before)

    setup = setups[1]
    enable_telemetry()
    reset_telemetry()
    with capture() as registry:
        latencies, traced_digest, ingest, advance = replay(setup, outcome, split=True)
    counters = registry.snapshot()["counters"]
    outcome.phase_summary += phase_summary()
    outcome.put("streaming.ingest_s", ingest, "s")
    outcome.put("streaming.advance_s", advance, "s")
    payload, checkpoint = timed(lambda: setup.service.save_checkpoint(None))
    outcome.put("streaming.checkpoint_s", checkpoint, "s")
    outcome.put("streaming.checkpoint_bytes", len(payload.encode()), "bytes")
    outcome.put("streaming.border_patterns", len(setup.service.border_patterns()), "count")
    for counter in STREAM_COUNTERS:
        outcome.put(counter, counters.get(counter, 0), "count")
    outcome.put("obs.trace_overhead_pct", 100 * (sum(latencies) - untraced) / untraced, "%")
    outcome.zero(MI_LAYER)

    # Batch E-STPM on the same data: the k-level split of the kernel work
    # the stream repeats, and the parity oracle for both replays.
    times, batch_result, batch_counters = traced_levels(workload, setup, outcome)
    put_stpm_layer(outcome, times, batch_result, batch_counters)
    references = {"recorded": recorded[0], "batch": result_digest(batch_result)}
    outcome.check(untraced_digest, references)
    outcome.check(traced_digest, references)
    return outcome
