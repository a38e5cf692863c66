"""Columnar instance index for the step-2.2 pattern-growth hot path.

The step-2.2 kernel (pair enumeration and group extension, Sec. IV-D)
used to relate :class:`~repro.events.event.EventInstance` objects pair by
pair: one ``relation_of_pair`` call, two ``sort_key()`` tuples, and a
fresh ``TemporalPattern`` per accepted pair.  On dense granules that is
almost pure interpreter overhead -- the arithmetic behind a relation
check is four integer comparisons.

This module provides the columnar substitute:

* :class:`InstanceColumn` -- the per ``(event, granule)`` instance table:
  parallel ``starts`` / ``ends`` position tuples sorted chronologically
  (by ``(start, -end)``), plus the instance objects themselves for
  decoding.  Built once per mining job per process and cached on
  :class:`~repro.core.hlh.HLH1` (see :meth:`HLH1.column_of`); the cache
  never crosses the executor boundary -- worker processes rebuild their
  own columns lazily from the broadcast ``GH`` tables.
* **Flyweight interning** for :class:`~repro.core.pattern.Triple` and
  :class:`~repro.core.pattern.TemporalPattern`: the kernels produce one
  object per *distinct* pattern per process instead of one per accepted
  instance pair, killing the ``__post_init__`` validation churn and
  making pattern hashing hit identical objects.
* **Compact assignment encoding**: inside the mining kernels a realizing
  assignment is a tuple of *column indices* parallel to the pattern's
  chronologically ordered ``events`` -- ``encoded[i]`` indexes the
  instance of ``pattern.events[i]`` in its granule column.  Index tuples
  are what ``GH_k`` stores and what the pickled
  :class:`~repro.core.stpm.GroupOutcome` payloads ship back from pool
  workers; :func:`decode_assignment` rematerializes the instance tuple
  wherever a human-facing view needs one.

* :class:`PartnerIndex` -- the level-2 relations regrouped for group
  extension: per ``(existing event, new event, granule)``, which new
  instances each existing instance relates to, and under which triple.
  Read off the pair assignments HLH2 already holds, so the extension
  kernel classifies no relation itself.

The kernels themselves live in :mod:`repro.core.stpm`
(:func:`~repro.core.stpm.collect_pair_patterns`, the sweep join of the
pair step, and :func:`~repro.core.stpm.extend_group_patterns`, the
partner-index join of the extension step) so the batch and streaming
miners keep sharing one implementation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.pattern import TemporalPattern, Triple
from repro.events.event import EventInstance
from repro.exceptions import MiningError


def _sort_key(instance: EventInstance) -> tuple[int, int]:
    """Chronological column order: by start, longer-first on ties.

    Within one column every instance carries the same event key, so the
    event tiebreaker of :meth:`EventInstance.sort_key` is irrelevant.
    """
    return (instance.start, -instance.end)


class InstanceColumn:
    """Start-sorted compact instance table of one ``(event, granule)``.

    ``starts`` and ``ends`` are parallel tuples of inclusive fine-granule
    bounds in chronological order; ``instances`` holds the corresponding
    :class:`EventInstance` objects for decoding.

    Instances of one event inside one granule are disjoint runs, so both
    columns are strictly ascending -- the monotonicity the sweep-join
    two-pointer walks and the bulk-Follows boundary arithmetic rely on.
    """

    __slots__ = ("starts", "ends", "instances")

    def __init__(
        self,
        starts: Iterable[int],
        ends: Iterable[int],
        instances: tuple[EventInstance, ...],
    ):
        self.starts = tuple(starts)
        self.ends = tuple(ends)
        self.instances = instances

    @classmethod
    def from_instances(cls, instances: Sequence[EventInstance]) -> "InstanceColumn":
        """Build the column, re-sorting defensively if the input is not
        already in chronological order (the sequence layer emits sorted
        runs; hand-built HLH structures may not).

        After sorting, the ends column must be non-decreasing -- i.e. no
        instance may *nest* inside another.  The run grouping of
        Def. 3.10 guarantees this (same-event instances in a granule are
        disjoint), and the sweep join's bulk-Follows bounds are only
        sound under it, so a hand-built structure that violates it is
        rejected loudly -- naming the offending instance -- instead of
        silently misclassifying relations.
        """
        ordered = tuple(instances)
        if any(
            _sort_key(a) > _sort_key(b) for a, b in zip(ordered, ordered[1:])
        ):
            ordered = tuple(sorted(ordered, key=_sort_key))
        ends = tuple(instance.end for instance in ordered)
        for index in range(1, len(ends)):
            if ends[index - 1] > ends[index]:
                raise MiningError(
                    f"instance column holds nested instances: instance "
                    f"#{index} {ordered[index]!r} nests inside "
                    f"#{index - 1} {ordered[index - 1]!r} (ends not "
                    "monotone); per-event granule instances must be "
                    "disjoint runs (Def. 3.10)"
                )
        return cls(
            tuple(instance.start for instance in ordered),
            ends,
            ordered,
        )

    def __len__(self) -> int:
        return len(self.starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstanceColumn({list(zip(self.starts, self.ends))!r})"


#: The shared empty column (events missing from a granule).
EMPTY_COLUMN = InstanceColumn((), (), ())


# ---------------------------------------------------------------------------
# Partner index over the level-2 pair assignments
# ---------------------------------------------------------------------------


class PartnerIndex:
    """Related new-event partners of existing instances, read off HLH2.

    The Iterative Check of Sec. IV-D 4.2.2 admits extending an existing
    instance ``x`` of event ``X`` with a new instance ``c`` of event ``C``
    exactly when ``(x, c)`` realizes a candidate 2-event pattern of group
    ``{X, C}`` -- and the pair step recorded every such pair in the
    level-2 ``GH`` tables (``pairs``: the batch HLH2 or the streaming
    level-2 mirror).  :meth:`rows` regroups them per
    ``(X, C, granule)`` as ``{x: {c: (existing_first, triple)}}``, where
    ``existing_first`` says whether ``x`` comes first chronologically and
    ``triple`` is the oriented relation triple of the pair.

    Rows are built lazily per ``(X, granule)`` and kept for one new event
    at a time: a request for another new event drops them.  The batch
    miner dispatches extension tasks grouped by new event, so memory
    stays bounded by one event's partners rather than all of HLH2.  The
    index is per-process state, never pickled (see
    :meth:`~repro.core.hlh.HLHk.partner_index`).  The cached event and
    its rows are swapped as one tuple, so concurrent callers can only
    drop each other's rows, never mix two events' rows.
    """

    __slots__ = ("pairs", "_cache")

    def __init__(self, pairs) -> None:
        self.pairs = pairs
        self._cache: tuple[str | None, dict] = (None, {})

    def rows(
        self, existing: str, new: str, granule: int
    ) -> dict[int, dict[int, tuple[bool, Triple]]]:
        """``{existing index: {new index: (existing_first, triple)}}`` of
        ``existing`` against ``new`` at ``granule`` (read-only; empty
        when no pair of the two events is a candidate there)."""
        event, cache = self._cache
        if event != new:
            cache = {}
            self._cache = (new, cache)
        key = (existing, granule)
        rows = cache.get(key)
        if rows is None:
            rows = cache[key] = self._build(existing, new, granule)
        return rows

    def _build(
        self, existing: str, new: str, granule: int
    ) -> dict[int, dict[int, tuple[bool, Triple]]]:
        rows: dict[int, dict[int, tuple[bool, Triple]]] = {}
        pairs = self.pairs
        entry = pairs.ehk.get((existing, new) if existing <= new else (new, existing))
        if entry is None:
            return rows
        for pattern in entry.patterns:
            assignments = pairs.assignments_of(pattern, granule)
            # With existing == new both slots match: instance i pairs
            # with each later j as the first member and with each
            # earlier one as the second.
            for slot, existing_first in ((0, True), (1, False)):
                if pattern.events[slot] == existing:
                    info = (existing_first, pattern.triples[0])
                    for pair in assignments:
                        rows.setdefault(pair[slot], {})[pair[1 - slot]] = info
        return rows


# ---------------------------------------------------------------------------
# Flyweight interning of triples and patterns
# ---------------------------------------------------------------------------

#: Process-wide flyweight caches.  Patterns and triples are immutable
#: value objects compared by value everywhere, so the interning is a
#: best-effort optimization: sharing across jobs is safe, and losing an
#: entry merely re-constructs an equal object.  Batch jobs drop the
#: caches at ``executor_scope`` exit (a live job's interned objects are
#: all referenced by its HLH structures anyway); for paths with no job
#: scope -- the long-lived streaming miner -- :data:`_INTERN_CACHE_LIMIT`
#: hard-bounds each cache, resetting it when the distinct-identity
#: population outgrows the limit.  Under the threads executor concurrent
#: misses may race benignly: both threads build equal objects and the
#: last insert wins.
_TRIPLE_CACHE: dict[tuple[str, str, str], Triple] = {}
_PATTERN_CACHE: dict[tuple[tuple[str, ...], tuple[Triple, ...]], TemporalPattern] = {}

#: Distinct identities a flyweight cache may hold before it is reset.
_INTERN_CACHE_LIMIT = 1 << 17


def intern_triple(relation: str, first: str, second: str) -> Triple:
    """The one shared :class:`Triple` for ``(relation, first, second)``."""
    key = (relation, first, second)
    triple = _TRIPLE_CACHE.get(key)
    if triple is None:
        if len(_TRIPLE_CACHE) >= _INTERN_CACHE_LIMIT:
            _TRIPLE_CACHE.clear()
        triple = _TRIPLE_CACHE[key] = Triple(relation, first, second)
    return triple


def intern_pattern(
    events: tuple[str, ...], triples: tuple[Triple, ...]
) -> TemporalPattern:
    """The one shared :class:`TemporalPattern` for ``(events, triples)``.

    Construction (and its ``__post_init__`` validation) runs once per
    distinct pattern per process; every later request is two dict probes.
    """
    key = (events, triples)
    pattern = _PATTERN_CACHE.get(key)
    if pattern is None:
        if len(_PATTERN_CACHE) >= _INTERN_CACHE_LIMIT:
            _PATTERN_CACHE.clear()
        pattern = _PATTERN_CACHE[key] = TemporalPattern(events, triples)
    return pattern


def intern_pair_pattern(relation: str, first: str, second: str) -> TemporalPattern:
    """The interned 2-event pattern ``(first, second)`` under ``relation``."""
    triple = intern_triple(relation, first, second)
    return intern_pattern((first, second), (triple,))


def clear_intern_caches() -> None:
    """Drop the flyweight caches (test isolation / long-lived services)."""
    _TRIPLE_CACHE.clear()
    _PATTERN_CACHE.clear()


# ---------------------------------------------------------------------------
# Encoded assignment decoding
# ---------------------------------------------------------------------------


def decode_assignment(
    hlh1, events: Sequence[str], granule: int, encoded: Iterable[int]
) -> tuple[EventInstance, ...]:
    """Rematerialize an encoded assignment into its instance tuple.

    ``events`` is the pattern's chronological event tuple; ``encoded[i]``
    indexes the instance of ``events[i]`` in its ``(event, granule)``
    column.  The result is chronologically ordered by construction.
    """
    return tuple(
        hlh1.column_of(event, granule).instances[index]
        for event, index in zip(events, encoded)
    )
