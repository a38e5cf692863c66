"""E-STPM: the exact Seasonal Temporal Pattern Mining algorithm (Alg. 1).

The miner follows the paper's two mining steps on a temporal sequence
database ``DSEQ``:

* **Step 2.1** -- mine frequent seasonal single events: one scan of DSEQ
  computes every event's support set; events passing the ``maxSeason``
  candidate gate populate ``HLH1``; candidates passing the full seasonal
  check (maxPeriod / minDensity / distInterval / minSeason) are frequent.
* **Step 2.2** -- mine frequent seasonal k-event patterns, k >= 2:
  candidate k-event groups come from the Cartesian product
  ``F_{k-1} x FilteredF1`` with support-set intersection; patterns are
  grown by extending the (k-1)-pattern assignments stored in ``GH_{k-1}``
  with instances of the new event, verifying each new relation triple
  against the candidate 2-event patterns (the Iterative Check of
  Sec. IV-D 4.2.2).

Pruning is controlled by :class:`~repro.core.prune.PruningConfig`:
``apriori`` applies the maxSeason candidate gates (Lemmas 1-2);
``transitivity`` restricts F1 to events present in HLH_{k-1} patterns
(Lemmas 3-4).  Both are lossless.

Engine architecture
-------------------
Support sets live behind :class:`~repro.core.supportset.SupportSet`
(big-int bitsets by default, classical sorted lists for parity), so every
group intersection is a C-level ``&`` and every maxSeason gate a
``bit_count()``.  The per-group work of step 2.2 -- intersect supports,
enumerate instance pairs, grow assignments -- is expressed as pure,
picklable *group tasks* (:func:`mine_pair_task` / :func:`mine_extension_task`
against a read-only :class:`LevelContext`) dispatched through a
:class:`~repro.core.executor.MiningExecutor`.  The serial executor
reproduces the classical single-threaded miner; the parallel executor fans
the tasks over a process pool.  Outcomes are consumed in task order, so
the :class:`~repro.core.results.MiningResult` is identical across
backends.

The step-2.2 inner loops run on the columnar instance index
(:mod:`repro.core.instance_index`): per ``(event, granule)`` start-sorted
start/end columns, a two-pointer sweep join with bulk Follows tails for
pair enumeration, index-keyed relation caches for the Iterative Check,
flyweight-interned triples/patterns, and compact column-index assignment
encodings in ``GH_k`` and in the pickled :class:`GroupOutcome` payloads.

Lean last level
---------------
The assignments kept in ``GH_k`` exist only so that k-patterns can be
extended to k + 1.  At ``k == max_pattern_length`` no extension follows,
so :func:`mine_extension_task` records only *that* each extended pattern
occurs in a granule: no assignment tuples are built, the task's
:class:`GroupOutcome` carries supports with an empty assignment map, and
the last ``HLH_k`` stores no ``GH_k`` entries.  The streaming miner calls
:func:`extend_group_patterns` directly and keeps assignments for its
k + 1 catch-ups.

The optional ``series_filter`` / ``pair_filter`` hooks implement A-STPM's
search-space reduction (only mine events of correlated series and 2-event
groups of correlated series pairs); plain E-STPM leaves them ``None``.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from repro.core.config import MiningParams
from repro.core.executor import MiningExecutor, executor_scope, get_task_context
from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.instance_index import (
    intern_pair_pattern,
    intern_pattern,
    intern_triple,
)
from repro.core.pattern import (
    TemporalPattern,
    Triple,
    single_event_pattern,
    splice_triples,
)
from repro.core.prune import PruningConfig
from repro.core.results import MiningResult, MiningStats, SeasonalPattern
from repro.core.seasonality import (
    compute_seasons,
    count_seasons_batch,
    is_candidate,
    is_frequent_seasonal,
)
from repro.core.supportset import (
    SupportLike,
    SupportSet,
    default_backend,
    make_support_set,
    validate_backend,
)
from repro.events.relations import CONTAINS, FOLLOWS, OVERLAPS
from repro.exceptions import MiningError
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.resilience.policy import FailedTask, task_key_of
from repro.transform.sequence_db import TemporalSequenceDatabase

#: Cache sentinel of the extension kernel's per-granule relation cache:
#: "computed, and the pair has no relation" (``None`` means "not yet
#: computed", so misses never collide with negative verdicts).
_NO_RELATION = object()


def series_of(event: str) -> str:
    """The series name of an event key ``series:symbol``."""
    return event.rsplit(":", 1)[0]


# ---------------------------------------------------------------------------
# Group tasks: the pure, picklable per-group unit of work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelContext:
    """Read-only state shared by every group task of one HLH level.

    Shipped once per worker process (pool initializer) rather than once
    per task; tasks themselves are tiny key tuples into these tables.
    """

    params: MiningParams
    apriori: bool
    hlh1: HLH1
    previous: HLHk | None = None
    candidate_triples: frozenset[Triple] | None = None


@dataclass(frozen=True)
class GroupOutcome:
    """What one group task produced.

    ``support is None`` means the group failed the maxSeason candidate
    gate and contributes nothing to the level.  At the last level
    (``k == max_pattern_length``) ``pattern_assignments`` is empty: only
    the supports are recorded.
    """

    group: tuple[str, ...]
    support: SupportSet | None
    pattern_support: dict[TemporalPattern, list[int]]
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]]


def collect_pair_patterns(
    hlh1: HLH1,
    event_a: str,
    event_b: str,
    granules,
    relation,
    pattern_support: dict[TemporalPattern, list[int]],
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]],
) -> None:
    """Enumerate the related instance pairs of one event pair per granule.

    The per-granule inner loop of step 2.2 (k = 2), shared by the batch
    miner (which walks the full group support) and the streaming miner
    (which walks only the tail granules of an advance).  ``granules`` must
    be ascending; results accumulate into the two dictionaries in place.

    Sweep join
    ----------
    Instead of classifying the full instance product through
    :func:`~repro.events.relations.relation_of_pair`, the kernel walks
    the two start-sorted instance columns (:meth:`HLH1.column_of`) with
    amortized two-pointer bounds per ``a``-instance:

    * every ``b`` whose end lies at least ``epsilon + 1`` before
      ``a.start`` is an unconditional ``b -> a`` Follows (no Contains
      can fire), appended in bulk without classification;
    * symmetrically, every ``b`` starting at least ``epsilon + 1`` after
      ``a.end`` is an unconditional ``a -> b`` Follows -- with
      ``epsilon = 0`` this tail is *every* Follows pair, so dense
      granules skip per-pair branching almost entirely;
    * only the remaining window is classified pair by pair, inlining the
      comparisons of :func:`~repro.events.relations.relation_of_bounds`
      on the raw start/end columns.

    Accepted pairs are recorded against flyweight-interned patterns as
    compact column-index assignments ``(earlier_index, later_index)``
    (see :mod:`repro.core.instance_index`), in exactly the order the
    reference product enumeration would emit them.
    """
    epsilon = relation.epsilon
    min_overlap = relation.min_overlap
    #: (relation, first, second) -> (support list, per-granule assignments)
    entries: dict[tuple[str, str, str], tuple[list, dict]] = {}

    def _bucket(key: tuple[str, str, str], granule: int) -> list:
        """The assignment list of one pattern at one granule, marking the
        granule in the pattern's support on first use."""
        entry = entries.get(key)
        if entry is None:
            pattern = intern_pair_pattern(*key)
            entry = entries[key] = (
                pattern_support.setdefault(pattern, []),
                pattern_assignments.setdefault(pattern, {}),
            )
        support_list, by_granule = entry
        if not support_list or support_list[-1] != granule:
            support_list.append(granule)
        bucket = by_granule.get(granule)
        if bucket is None:
            bucket = by_granule[granule] = []
        return bucket

    same = event_a == event_b
    follows_ab = (FOLLOWS, event_a, event_b)
    follows_ba = (FOLLOWS, event_b, event_a)
    # Telemetry: bulk vs near-window classification split.  One flag
    # read per call; the per-``i`` accumulations below only run when
    # metrics are enabled, keeping the disabled hot loop untouched.
    track = metrics.metrics_enabled()
    n_bulk = 0
    n_near = 0
    for granule in granules:
        column_a = hlh1.column_of(event_a, granule)
        n_a = len(column_a.starts)
        if n_a == 0:
            continue
        starts_a = column_a.starts
        ends_a = column_a.ends
        buckets: dict[tuple[str, str, str], list] = {}

        if same:
            # Distinct-instance pairs of one column: instance i always
            # precedes j > i chronologically (same-event runs are
            # disjoint), so only the near window past each i needs
            # classifying; the rest is a bulk Follows tail.
            tail = 0
            for i in range(n_a):
                start_i = starts_a[i]
                end_i = ends_a[i]
                if tail <= i:
                    tail = i + 1
                threshold = end_i + epsilon + 1
                while tail < n_a and starts_a[tail] < threshold:
                    tail += 1
                if track:
                    n_near += tail - (i + 1)
                    n_bulk += n_a - tail
                for j in range(i + 1, tail):
                    start_j = starts_a[j]
                    end_j = ends_a[j]
                    if start_i <= start_j and end_j <= end_i + epsilon:
                        rel = CONTAINS
                    elif start_j >= end_i + 1 - epsilon:
                        rel = FOLLOWS
                    elif (
                        start_i < start_j
                        and end_i + epsilon < end_j
                        and end_i + 1 - start_j >= min_overlap - epsilon
                    ):
                        rel = OVERLAPS
                    else:
                        continue
                    key = (rel, event_a, event_a)
                    bucket = buckets.get(key)
                    if bucket is None:
                        bucket = buckets[key] = _bucket(key, granule)
                    bucket.append((i, j))
                if tail < n_a:
                    bucket = buckets.get(follows_ab)
                    if bucket is None:
                        bucket = buckets[follows_ab] = _bucket(follows_ab, granule)
                    bucket.extend([(i, j) for j in range(tail, n_a)])
            continue

        column_b = hlh1.column_of(event_b, granule)
        n_b = len(column_b.starts)
        if n_b == 0:
            continue
        starts_b = column_b.starts
        ends_b = column_b.ends
        head = 0
        tail = 0
        for i in range(n_a):
            start_i = starts_a[i]
            end_i = ends_a[i]
            # b's wholly before a (bulk b -> a Follows): ends_b[j] + eps
            # + 1 <= start_i.  Monotone in i since both sides ascend.
            while head < n_b and ends_b[head] + epsilon < start_i:
                head += 1
            # b's wholly after a (bulk a -> b Follows).
            threshold = end_i + epsilon + 1
            if tail < head:
                tail = head
            while tail < n_b and starts_b[tail] < threshold:
                tail += 1
            if track:
                n_near += tail - head
                n_bulk += head + (n_b - tail)
            if head:
                bucket = buckets.get(follows_ba)
                if bucket is None:
                    bucket = buckets[follows_ba] = _bucket(follows_ba, granule)
                bucket.extend([(j, i) for j in range(head)])
            for j in range(head, tail):
                start_j = starts_b[j]
                end_j = ends_b[j]
                if start_j != start_i:
                    a_first = start_i < start_j
                elif end_j != end_i:
                    a_first = end_i > end_j  # longer-first on start ties
                else:
                    a_first = event_a <= event_b
                if a_first:
                    s_1, e_1, s_2, e_2 = start_i, end_i, start_j, end_j
                else:
                    s_1, e_1, s_2, e_2 = start_j, end_j, start_i, end_i
                if s_1 <= s_2 and e_2 <= e_1 + epsilon:
                    rel = CONTAINS
                elif s_2 >= e_1 + 1 - epsilon:
                    rel = FOLLOWS
                elif (
                    s_1 < s_2
                    and e_1 + epsilon < e_2
                    and e_1 + 1 - s_2 >= min_overlap - epsilon
                ):
                    rel = OVERLAPS
                else:
                    continue
                key = (rel, event_a, event_b) if a_first else (rel, event_b, event_a)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = _bucket(key, granule)
                bucket.append((i, j) if a_first else (j, i))
            if tail < n_b:
                bucket = buckets.get(follows_ab)
                if bucket is None:
                    bucket = buckets[follows_ab] = _bucket(follows_ab, granule)
                bucket.extend([(i, j) for j in range(tail, n_b)])
    if track and (n_bulk or n_near):
        metrics.inc("kernel.pairs.bulk", n_bulk)
        metrics.inc("kernel.pairs.near_classified", n_near)


def mine_pair_task(task: tuple[str, str]) -> GroupOutcome:
    """Mine one candidate 2-event group (step 2.2, k = 2).

    Pure function of ``task`` and the installed :class:`LevelContext`:
    intersects the two event supports, applies the candidate gate, and
    enumerates every related instance pair per common granule.
    """
    context: LevelContext = get_task_context()
    event_a, event_b = task
    hlh1 = context.hlh1
    params = context.params
    track = metrics.metrics_enabled()
    support = hlh1.support_of(event_a) & hlh1.support_of(event_b)
    if track:
        metrics.inc("mine.groups.pair")
        metrics.inc("mine.support.intersections")
    if context.apriori and not is_candidate(len(support), params):
        metrics.inc("mine.groups.gate_rejected")
        return GroupOutcome((event_a, event_b), None, {}, {})
    pattern_support: dict[TemporalPattern, list[int]] = {}
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]] = {}
    collect_pair_patterns(
        hlh1, event_a, event_b, support, params.relation,
        pattern_support, pattern_assignments,
    )
    if track:
        metrics.inc(
            "mine.pairs.recorded",
            sum(
                len(bucket)
                for by_granule in pattern_assignments.values()
                for bucket in by_granule.values()
            ),
        )
    return GroupOutcome((event_a, event_b), support, pattern_support, pattern_assignments)


def mine_extension_task(task: tuple[tuple[str, ...], str]) -> GroupOutcome:
    """Mine one candidate k-event group (step 2.2, k >= 3).

    Pure function of ``task`` and the installed :class:`LevelContext`:
    intersects the parent group's support with the new event's, applies
    the candidate gate, and extends the parent's pattern assignments.
    At the last level (``k == max_pattern_length``) the extension is
    existence-only and the outcome carries no assignments.
    """
    context: LevelContext = get_task_context()
    group_prev, event = task
    entry_prev = context.previous.ehk[group_prev]
    group = tuple(sorted(group_prev + (event,)))
    track = metrics.metrics_enabled()
    support = entry_prev.support & context.hlh1.support_of(event)
    if track:
        metrics.inc("mine.groups.extension")
        metrics.inc("mine.support.intersections")
    if context.apriori and not is_candidate(len(support), context.params):
        metrics.inc("mine.groups.gate_rejected")
        return GroupOutcome(group, None, {}, {})
    pattern_support, pattern_assignments = extend_group_patterns(
        context.hlh1,
        context.previous,
        entry_prev,
        event,
        context.candidate_triples,
        context.params,
        context.apriori,
        keep_assignments=len(group) < context.params.max_pattern_length,
    )
    if track:
        metrics.inc(
            "mine.extensions.recorded",
            sum(
                len(bucket)
                for by_granule in pattern_assignments.values()
                for bucket in by_granule.values()
            ),
        )
    return GroupOutcome(group, support, pattern_support, pattern_assignments)


def _verdict_row(
    hlh1: HLH1,
    granule: int,
    existing_event: str,
    existing_index: int,
    event: str,
    new_column,
    epsilon: int,
    min_overlap: int,
    allowed_triples,
) -> list:
    """Oriented relation verdicts of one existing instance against the
    whole new-event column, as a list indexed by new-instance position.

    Each entry is ``(existing_first, triple)`` or :data:`_NO_RELATION`
    (no relation holds, the triple fails the Iterative Check when
    ``allowed_triples`` is given, or the "pair" is the existing instance
    itself).  The new column is start-sorted, so the row is mostly two
    bulk Follows fills found by bisection; only the near window around
    the existing instance's interval is classified element-wise.
    """
    new_starts = new_column.starts
    new_ends = new_column.ends
    n_new = len(new_starts)
    existing_column = hlh1.column_of(existing_event, granule)
    s_e = existing_column.starts[existing_index]
    e_e = existing_column.ends[existing_index]
    # New instances ending epsilon+1 before the existing start: pure
    # new -> existing Follows (Contains cannot fire).
    head = bisect_right(new_ends, s_e - epsilon - 1)
    # New instances starting epsilon+1 after the existing end: pure
    # existing -> new Follows.
    tail = bisect_left(new_starts, e_e + epsilon + 1)
    if tail < head:  # pragma: no cover - impossible on sorted columns
        tail = head
    before = (False, intern_triple(FOLLOWS, event, existing_event))
    after = (True, intern_triple(FOLLOWS, existing_event, event))
    if allowed_triples is not None:
        if before[1] not in allowed_triples:
            before = _NO_RELATION
        if after[1] not in allowed_triples:
            after = _NO_RELATION
    row: list = [before] * head if head else []
    for j in range(head, tail):
        s_n = new_starts[j]
        e_n = new_ends[j]
        if s_e != s_n:
            existing_first = s_e < s_n
        elif e_e != e_n:
            existing_first = e_e > e_n
        else:
            existing_first = existing_event <= event
        if existing_first:
            s_1, e_1, s_2, e_2 = s_e, e_e, s_n, e_n
        else:
            s_1, e_1, s_2, e_2 = s_n, e_n, s_e, e_e
        if s_1 <= s_2 and e_2 <= e_1 + epsilon:
            rel = CONTAINS
        elif s_2 >= e_1 + 1 - epsilon:
            rel = FOLLOWS
        elif (
            s_1 < s_2
            and e_1 + epsilon < e_2
            and e_1 + 1 - s_2 >= min_overlap - epsilon
        ):
            rel = OVERLAPS
        else:
            row.append(_NO_RELATION)
            continue
        if existing_first:
            info = (True, intern_triple(rel, existing_event, event))
        else:
            info = (False, intern_triple(rel, event, existing_event))
        if allowed_triples is not None and info[1] not in allowed_triples:
            info = _NO_RELATION
        row.append(info)
    if tail < n_new:
        row.extend([after] * (n_new - tail))
    if existing_event == event and existing_index < n_new:
        # The existing instance is itself a column entry of the new
        # event: pairing it with itself never extends an assignment.
        row[existing_index] = _NO_RELATION
    return row


def extend_group_patterns(
    hlh1: HLH1,
    previous: HLHk,
    entry_prev,
    event: str,
    candidate_triples,
    params: MiningParams,
    check_candidates: bool,
    parent_patterns=None,
    granule_filter=None,
    keep_assignments: bool = True,
) -> tuple[
    dict[TemporalPattern, list[int]],
    dict[TemporalPattern, dict[int, list[Assignment]]],
]:
    """Extend every candidate pattern of one parent group with ``event``.

    This is the Iterative Check of Sec. IV-D 4.2.2: each new relation
    triple between an existing event and the new event must already be
    a candidate 2-event pattern, otherwise the extension is discarded.

    ``parent_patterns`` restricts the extension to a subset of the parent
    group's candidate patterns and ``granule_filter`` to a subset of the
    granule positions -- the hooks the streaming miner uses to extend only
    newly incorporated parent patterns / only the tail granules of an
    advance.  The batch miner leaves both ``None`` (all patterns, all
    granules).

    ``keep_assignments=False`` is the existence-only mode of the last
    level: each extended pattern only records the granules it occurs
    in, and the returned assignment map is empty.

    Parent assignments arrive -- and extended assignments leave -- in the
    compact column-index encoding of :mod:`repro.core.instance_index`:
    ``assignment[i]`` indexes the instance of ``pattern.events[i]`` in
    its ``(event, granule)`` column.  For every distinct existing
    instance the kernel precomputes one *verdict row* against the whole
    new-event column (:func:`_verdict_row`: bulk Follows prefix/suffix
    via bisection, inline classification for the near window, Iterative
    Check folded in, triples flyweight-interned), cached per granule
    under the index key ``(existing event, existing index)``.  The
    innermost loop is then a list index per (assignment slot, new
    instance); each distinct extended pattern becomes one interned
    :class:`TemporalPattern` at the end.
    """
    relation = params.relation
    epsilon = relation.epsilon
    min_overlap = relation.min_overlap
    allowed_triples = candidate_triples if check_candidates else None
    if parent_patterns is None:
        parent_patterns = entry_prev.patterns
    # Keyed by (events, triples) plain tuples in the hot loop; converted
    # to TemporalPattern objects once per unique pattern at the end.
    # Without assignments a pattern's per-granule store only marks the
    # granule (value ``None``).
    accumulator: dict[tuple, dict[int, set[Assignment] | None]] = {}
    # Per-granule cache of verdict rows: each existing instance is swept
    # against the new-event column exactly once even though it appears
    # in many parent assignments (of every parent pattern).
    row_cache: dict[int, dict[tuple[str, int], list]] = {}
    event_support = hlh1.support_of(event)
    for pattern_prev in parent_patterns:
        prev_events = pattern_prev.events
        prev_triples = pattern_prev.triples
        k = len(prev_events) + 1
        n_slots = k - 1
        # Shape cache: an accepted extension's (events, triples) identity
        # depends only on (position, partner triples), not on which
        # assignment realized it -- so the tuple splices and the
        # accumulator probe run once per distinct shape per parent
        # pattern.  Entries are [per_granule dict, granule tag, bucket].
        shape_cache: dict[tuple, list] = {}
        common = previous.support_of(pattern_prev) & event_support
        if granule_filter is not None:
            common = common & granule_filter
        for granule in common:
            new_column = hlh1.column_of(event, granule)
            n_new = len(new_column.starts)
            if n_new == 0:
                continue
            cache = row_cache.get(granule)
            if cache is None:
                cache = row_cache[granule] = {}
            for assignment in previous.assignments_of(pattern_prev, granule):
                rows = []
                for slot in range(n_slots):
                    row_key = (prev_events[slot], assignment[slot])
                    row = cache.get(row_key)
                    if row is None:
                        row = cache[row_key] = _verdict_row(
                            hlh1,
                            granule,
                            row_key[0],
                            row_key[1],
                            event,
                            new_column,
                            epsilon,
                            min_overlap,
                            allowed_triples,
                        )
                    rows.append(row)
                for new_index in range(n_new):
                    position = 0
                    partner: list[Triple] = []
                    valid = True
                    for slot in range(n_slots):
                        info = rows[slot][new_index]
                        if info is _NO_RELATION:
                            valid = False
                            break
                        if info[0]:
                            position += 1
                        partner.append(info[1])
                    if not valid:
                        continue
                    shape_key = (position, *partner)
                    entry = shape_cache.get(shape_key)
                    if entry is None:
                        events = (
                            prev_events[:position]
                            + (event,)
                            + prev_events[position:]
                        )
                        triples = splice_triples(prev_triples, partner, position, k)
                        # The same assignment can be reached through two
                        # parent patterns when the new pattern embeds the
                        # parent group's events in more than one way, so
                        # the per-granule store is shared per identity
                        # and deduplicates as a set.
                        per_granule = accumulator.setdefault((events, triples), {})
                        entry = shape_cache[shape_key] = [per_granule, -1, None]
                    if entry[1] != granule:
                        per_granule = entry[0]
                        entry[1] = granule
                        if not keep_assignments:
                            per_granule[granule] = None
                            continue
                        bucket = per_granule.get(granule)
                        if bucket is None:
                            bucket = per_granule[granule] = set()
                        entry[2] = bucket
                    elif not keep_assignments:
                        continue
                    entry[2].add(
                        assignment[:position]
                        + (new_index,)
                        + assignment[position:]
                    )
    pattern_support: dict[TemporalPattern, list[int]] = {}
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]] = {}
    for (events, triples), per_granule in accumulator.items():
        pattern = intern_pattern(events, triples)
        pattern_support[pattern] = sorted(per_granule)
        if keep_assignments:
            pattern_assignments[pattern] = {
                granule: sorted(assignments)
                for granule, assignments in per_granule.items()
            }
    return pattern_support, pattern_assignments


# ---------------------------------------------------------------------------
# The miner
# ---------------------------------------------------------------------------


@dataclass
class ESTPM:
    """The exact seasonal temporal pattern miner.

    Parameters
    ----------
    dseq:
        The temporal sequence database to mine.
    params:
        The four seasonal thresholds plus relation settings.
    pruning:
        Which pruning techniques to apply (default: both).
    series_filter:
        If set, only events of these series are mined (A-STPM hook).
    pair_filter:
        If set, a 2-event group across two *different* series is only mined
        when the (unordered) series pair is in this set (A-STPM hook);
        same-series groups are always mined.
    event_filter:
        If set, only these event keys are mined (the event-level pruning
        extension of A-STPM).
    support_backend:
        Physical support-set representation: ``"bitset"`` (big-int bitsets,
        the default) or ``"list"`` (classical sorted lists).  ``None``
        resolves to the process-wide default.
    executor:
        Execution backend for the per-group work: ``"serial"``,
        ``"parallel"``, a :class:`~repro.core.executor.MiningExecutor`
        instance, or ``None`` for the process-wide default.  All backends
        return identical results.
    n_workers:
        Worker processes when ``executor="parallel"`` (default: all cores).
    strict:
        ``True`` (default): a group task that failed all its retry
        attempts aborts the run with :class:`MiningError` -- current
        exact-mining semantics.  ``False``: quarantined tasks are
        collected into ``MiningResult.failures`` and the run returns a
        knowingly partial result (``results_equivalent`` treats it as
        inequivalent to everything).
    checkpoint_path:
        If set, completed step-2.2 group outcomes are checkpointed to
        this file (atomic, versioned; see
        :class:`~repro.io.job_checkpoint.JobCheckpoint`) and a rerun
        pointed at the same path resumes, skipping the finished groups
        (``freqstpfts run --resume``).  The checkpoint is fingerprinted
        against the job's parameters and dataset shape, so it cannot be
        replayed into a different job.
    """

    dseq: TemporalSequenceDatabase
    params: MiningParams
    pruning: PruningConfig = field(default_factory=PruningConfig.all)
    series_filter: set[str] | None = None
    pair_filter: set[frozenset[str]] | None = None
    event_filter: set[str] | None = None
    support_backend: str | None = None
    executor: MiningExecutor | str | None = None
    n_workers: int | None = None
    strict: bool = True
    checkpoint_path: str | None = None

    def mine(self) -> MiningResult:
        """Run the full mining process and return all frequent seasonal
        patterns of length 1..max_pattern_length.

        One executor serves every HLH level of the job: with a pool-backed
        backend the workers spawned for level 2 are reused by levels 3..k.
        A backend resolved here from a *name* is closed when the job
        finishes; a caller-provided instance keeps its pool alive for the
        caller's next job (see :func:`~repro.core.executor.executor_scope`).
        """
        started = time.perf_counter()
        backend = validate_backend(self.support_backend or default_backend())
        stats = MiningStats(n_granules=len(self.dseq))
        patterns: list[SeasonalPattern] = []
        failures: list[FailedTask] = []
        checkpoint = self._open_checkpoint()

        with span(
            "estpm/mine", granules=len(self.dseq), backend=backend
        ) as mine_span, executor_scope(self.executor, self.n_workers) as runner:
            with span("estpm/step2.1") as step21:
                hlh1 = self._mine_single_events(backend, patterns, stats)
                step21.set(
                    candidates=len(hlh1),
                    frequent=stats.n_frequent.get(1, 0),
                )
            if self.params.max_pattern_length >= 2:
                with span("estpm/step2.2/pairs", k=2) as step22:
                    hlh2 = self._mine_two_event_patterns(
                        hlh1, runner, backend, patterns, stats,
                        checkpoint, failures,
                    )
                    step22.set(
                        groups=len(hlh2.groups), patterns=len(hlh2.phk)
                    )
                candidate_triples = frozenset(p.triples[0] for p in hlh2.phk)
                previous = hlh2
                k = 3
                while k <= self.params.max_pattern_length and previous.phk:
                    with span("estpm/step2.2/extend", k=k) as extend_span:
                        current = self._mine_k_event_patterns(
                            hlh1, previous, candidate_triples, k, runner,
                            backend, patterns, stats,
                            checkpoint, failures,
                        )
                        extend_span.set(
                            groups=len(current.groups),
                            patterns=len(current.phk),
                        )
                    previous = current
                    k += 1
            mine_span.set(patterns=len(patterns), failures=len(failures))

        if checkpoint is not None:
            checkpoint.flush()
        stats.mining_seconds = time.perf_counter() - started
        if failures and self.strict:
            raise MiningError(
                f"{len(failures)} group task(s) failed after retries: "
                + "; ".join(f.describe() for f in failures[:5])
                + ("; ..." if len(failures) > 5 else "")
                + " (run with strict=False to keep the partial result)"
            )
        return MiningResult(patterns=patterns, stats=stats, failures=failures)

    def _open_checkpoint(self):
        """The job-progress checkpoint, or ``None`` when not configured.

        The fingerprint binds the checkpoint to this exact job: the
        mining parameters and the dataset shape (the support backend is
        deliberately excluded -- both backends produce equivalent
        outcomes, so a resume may switch it).
        """
        if self.checkpoint_path is None:
            return None
        # Imported lazily: repro.io's package init reaches (via the
        # archive readers) back into this module.
        from repro.io.job_checkpoint import JobCheckpoint

        return JobCheckpoint(
            self.checkpoint_path,
            {
                "job": "estpm",
                "params": repr(self.params),
                "granules": len(self.dseq),
            },
        )

    def _dispatch(
        self,
        runner: MiningExecutor,
        fn,
        tasks: list,
        context: "LevelContext",
        prefix: str,
        checkpoint,
        failures: list[FailedTask],
    ):
        """Run a level's tasks, yielding outcomes in task order.

        Wraps ``runner.map_tasks`` with the two resilience concerns the
        miner owns: *resume* (tasks whose key is already in the job
        checkpoint are skipped -- their recorded outcome is yielded in
        place, counted in ``resume.tasks_skipped``) and *quarantine*
        (a :class:`FailedTask` outcome is collected into ``failures``
        instead of being yielded, leaving that group's patterns out of
        the result).  Completed outcomes are checkpointed as they
        stream back, so progress is durable every ``flush_every`` tasks.
        """
        keys = [f"{prefix}:{task_key_of(task)}" for task in tasks]
        if checkpoint is None:
            pending = list(range(len(tasks)))
        else:
            pending = [i for i, key in enumerate(keys) if key not in checkpoint]
            skipped = len(tasks) - len(pending)
            if skipped:
                metrics.inc("resume.tasks_skipped", skipped)
        if pending:
            fresh = iter(
                runner.map_tasks(fn, [tasks[i] for i in pending], context)
            )
        else:
            fresh = iter(())
        pending_set = set(pending)
        for index in range(len(tasks)):
            if index not in pending_set:
                yield checkpoint.get(keys[index])
                continue
            outcome = next(fresh)
            if isinstance(outcome, FailedTask):
                failures.append(outcome)
                continue
            if checkpoint is not None:
                checkpoint.record(keys[index], outcome)
            yield outcome

    # ------------------------------------------------------------------
    # Step 2.1: single events
    # ------------------------------------------------------------------

    def _mine_single_events(
        self, backend: str, patterns: list[SeasonalPattern], stats: MiningStats
    ) -> HLH1:
        hlh1 = HLH1()
        params = self.params
        # Per-granule instance tables exist solely for step 2.2's pair /
        # extension enumeration; a single-event run (maxSeason scan, the
        # multigrain event-seasonality workload) never reads them.
        need_instances = params.max_pattern_length >= 2
        with span("estpm/step2.1/hlh1_scan") as scan_span:
            event_supports = sorted(self.dseq.event_support(backend).items())
            scan_span.set(events=len(event_supports))
        candidates: list[tuple[str, SupportLike]] = []
        for event, support in event_supports:
            if self.series_filter is not None and series_of(event) not in self.series_filter:
                stats.n_events_pruned += 1
                continue
            if self.event_filter is not None and event not in self.event_filter:
                stats.n_events_pruned += 1
                continue
            stats.n_events_scanned += 1
            if self.pruning.apriori and not is_candidate(len(support), params):
                continue
            candidates.append((event, support))
        # Batched frequency gate: every candidate's packed bit positions
        # run through the chain counter in one pass, early-exiting per
        # event at min_season; the full SeasonView is materialized only
        # for the frequent survivors below.
        with span("estpm/step2.1/season_gate", events=len(candidates)):
            season_counts = count_seasons_batch(
                [support for _, support in candidates],
                params,
                stop_at=params.min_season,
            )
        for (event, support), n_seasons in zip(candidates, season_counts):
            instances_by_granule: dict[int, list] = {}
            columns = None
            if need_instances:
                # The columnar front end already holds per-granule instance
                # tables; hand them straight to HLH1 instead of re-walking
                # the rows (scalar-built databases fall back to row walks).
                columns = self.dseq.prebuilt_columns(event)
                if columns is not None:
                    instances_by_granule = {
                        granule: list(column.instances)
                        for granule, column in columns.items()
                    }
                else:
                    instances_by_granule = {
                        position: self.dseq.instances_at(position, event)
                        for position in support
                    }
            hlh1.add_event(event, support, instances_by_granule, columns=columns)
            if n_seasons >= params.min_season:
                patterns.append(
                    SeasonalPattern(
                        single_event_pattern(event), compute_seasons(support, params)
                    )
                )
        stats.n_candidate_events = len(hlh1)
        stats.bump(stats.n_frequent, 1, sum(1 for p in patterns if p.size == 1))
        return hlh1

    # ------------------------------------------------------------------
    # Step 2.2, k = 2
    # ------------------------------------------------------------------

    def _pair_allowed(self, event_a: str, event_b: str) -> bool:
        if self.pair_filter is None:
            return True
        series_a, series_b = series_of(event_a), series_of(event_b)
        if series_a == series_b:
            return True
        return frozenset((series_a, series_b)) in self.pair_filter

    def _mine_two_event_patterns(
        self,
        hlh1: HLH1,
        runner: MiningExecutor,
        backend: str,
        patterns: list[SeasonalPattern],
        stats: MiningStats,
        checkpoint=None,
        failures: list[FailedTask] | None = None,
    ) -> HLHk:
        hlh2 = HLHk(k=2)
        f1 = sorted(hlh1.candidates)
        tasks: list[tuple[str, str]] = []
        for event_a, event_b in combinations_with_replacement(f1, 2):
            if not self._pair_allowed(event_a, event_b):
                continue
            stats.bump(stats.n_groups_generated, 2)
            tasks.append((event_a, event_b))
        context = LevelContext(
            params=self.params, apriori=self.pruning.apriori, hlh1=hlh1
        )
        outcomes = self._dispatch(
            runner, mine_pair_task, tasks, context, "k2", checkpoint,
            failures if failures is not None else [],
        )
        for outcome in outcomes:
            if outcome.support is None:
                continue
            hlh2.add_group(outcome.group, outcome.support)
            stats.bump(stats.n_candidate_groups, 2)
            self._register_patterns(
                hlh2, backend, outcome.pattern_support,
                outcome.pattern_assignments, patterns, stats,
            )
        return hlh2

    # ------------------------------------------------------------------
    # Step 2.2, k >= 3
    # ------------------------------------------------------------------

    def _mine_k_event_patterns(
        self,
        hlh1: HLH1,
        previous: HLHk,
        candidate_triples: frozenset[Triple],
        k: int,
        runner: MiningExecutor,
        backend: str,
        patterns: list[SeasonalPattern],
        stats: MiningStats,
        checkpoint=None,
        failures: list[FailedTask] | None = None,
    ) -> HLHk:
        hlhk = HLHk(k=k)
        if self.pruning.transitivity:
            filtered_f1 = sorted(previous.events_in_patterns())
        else:
            filtered_f1 = sorted(hlh1.candidates)
        seen_groups: set[tuple[str, ...]] = set()
        tasks: list[tuple[tuple[str, ...], str]] = []
        for group_prev in previous.groups:
            if not previous.ehk[group_prev].patterns:
                continue
            for event in filtered_f1:
                group = tuple(sorted(group_prev + (event,)))
                if group in seen_groups:
                    continue
                seen_groups.add(group)
                stats.bump(stats.n_groups_generated, k)
                tasks.append((group_prev, event))
        context = LevelContext(
            params=self.params,
            apriori=self.pruning.apriori,
            hlh1=hlh1,
            previous=previous,
            candidate_triples=candidate_triples,
        )
        outcomes = self._dispatch(
            runner, mine_extension_task, tasks, context, f"k{k}", checkpoint,
            failures if failures is not None else [],
        )
        for outcome in outcomes:
            if outcome.support is None:
                continue
            hlhk.add_group(outcome.group, outcome.support)
            stats.bump(stats.n_candidate_groups, k)
            self._register_patterns(
                hlhk, backend, outcome.pattern_support,
                outcome.pattern_assignments, patterns, stats,
            )
        return hlhk

    # ------------------------------------------------------------------
    # Shared registration of candidate + frequent patterns
    # ------------------------------------------------------------------

    def _register_patterns(
        self,
        hlhk: HLHk,
        backend: str,
        pattern_support: dict[TemporalPattern, list[int]],
        pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]],
        patterns: list[SeasonalPattern],
        stats: MiningStats,
    ) -> None:
        params = self.params
        for pattern, support in pattern_support.items():
            if self.pruning.apriori and not is_candidate(len(support), params):
                metrics.inc("mine.patterns.gate_rejected")
                continue
            metrics.inc("mine.patterns.candidates")
            hlhk.add_pattern(
                pattern,
                make_support_set(support, backend),
                pattern_assignments.get(pattern),
            )
            stats.bump(stats.n_candidate_patterns, hlhk.k)
            # Gate with the early-exit chain counter (no view allocation
            # for the infrequent majority of candidates).
            if is_frequent_seasonal(support, params):
                patterns.append(
                    SeasonalPattern(pattern, compute_seasons(support, params))
                )
                stats.bump(stats.n_frequent, hlhk.k)
                metrics.inc("mine.patterns.frequent")


def mine_seasonal_patterns(
    dseq: TemporalSequenceDatabase,
    params: MiningParams,
    pruning: PruningConfig | None = None,
) -> MiningResult:
    """Convenience wrapper: run E-STPM with the given (or full) pruning."""
    if len(dseq) == 0:
        raise MiningError("cannot mine an empty DSEQ")
    miner = ESTPM(dseq, params, pruning or PruningConfig.all())
    return miner.mine()
