"""Property tests: the sweep-join kernel equals the naive enumeration.

On random instance sets and random ``epsilon`` / ``min_overlap``
configurations (small coordinate ranges, so exact epsilon-boundary pairs
are generated constantly), the columnar sweep join must reproduce the
naive ``product`` + ``relation_of_pair`` enumeration exactly: same
patterns (relation + orientation), same supports, same deduplicated
assignments.  A second property runs whole random mining jobs through
E-STPM and the brute-force :class:`~repro.baselines.naive.NaiveSTPM`
oracle and compares the results, covering the extension kernel's
Iterative Check and the lean last level.
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.baselines.naive import NaiveSTPM
from repro.core.hlh import HLH1
from repro.core.instance_index import decode_assignment
from repro.core.results import results_equivalent
from repro.core.stpm import collect_pair_patterns
from repro.events.event import EventInstance
from repro.events.relations import (
    RelationConfig,
    relation_between,
    relation_of_bounds,
    relation_of_pair,
)


@st.composite
def instance_runs(draw, event: str, horizon: int = 14):
    """Disjoint ascending runs of one event inside one granule."""
    instances = []
    position = draw(st.integers(1, 4))
    while position <= horizon:
        end = draw(st.integers(position, min(position + 3, horizon)))
        instances.append(EventInstance(event, position, end))
        position = end + 1 + draw(st.integers(1, 4))
    return instances


relation_configs = st.builds(
    RelationConfig, epsilon=st.integers(0, 3), min_overlap=st.integers(1, 3)
)


def _hlh1_with(columns: dict[str, dict[int, list[EventInstance]]]) -> HLH1:
    hlh1 = HLH1()
    for event, by_granule in columns.items():
        hlh1.add_event(event, sorted(by_granule), by_granule)
    return hlh1


def _naive_pairs(hlh1, event_a, event_b, granules, config):
    """Every related instance pair by full product, keyed like the kernel:
    ``(relation, earlier event, later event)`` -> supports / instance pairs."""
    support: dict[tuple, list[int]] = {}
    assignments: dict[tuple, dict[int, list]] = {}
    for granule in granules:
        instances_a = hlh1.instances_of(event_a, granule)
        if event_a == event_b:
            pairs = combinations(instances_a, 2)
        else:
            pairs = product(instances_a, hlh1.instances_of(event_b, granule))
        for a, b in pairs:
            located = relation_of_pair(a, b, config)
            if located is None:
                continue
            rel, earlier, later = located
            key = (rel, earlier.event, later.event)
            granules_of = support.setdefault(key, [])
            if not granules_of or granules_of[-1] != granule:
                granules_of.append(granule)
            assignments.setdefault(key, {}).setdefault(granule, []).append(
                (earlier, later)
            )
    return support, assignments


def _run_both(hlh1, event_a, event_b, granules, config):
    sweep_support, sweep_assignments = {}, {}
    collect_pair_patterns(
        hlh1, event_a, event_b, granules, config, sweep_support, sweep_assignments
    )
    naive = _naive_pairs(hlh1, event_a, event_b, granules, config)
    return (sweep_support, sweep_assignments), naive


def _key(pattern):
    (triple,) = pattern.triples
    return tuple(triple)


def _assert_sweep_matches_naive(hlh1, event_a, event_b, granules, config):
    (sweep_support, sweep_assignments), (naive_support, naive_assignments) = _run_both(
        hlh1, event_a, event_b, granules, config
    )
    assert {_key(p): s for p, s in sweep_support.items()} == naive_support
    assert {_key(p) for p in sweep_assignments} == set(naive_assignments)
    for pattern, by_granule in sweep_assignments.items():
        naive_by_granule = naive_assignments[_key(pattern)]
        assert set(by_granule) == set(naive_by_granule)
        for granule, encoded_list in by_granule.items():
            decoded = [
                decode_assignment(hlh1, pattern.events, granule, encoded)
                for encoded in encoded_list
            ]
            # Same related pairs (orientation included), same dedup.
            assert sorted(decoded) == sorted(naive_by_granule[granule])
            assert len(set(decoded)) == len(decoded)


@given(
    instance_runs("A:1"),
    instance_runs("B:1"),
    instance_runs("A:1"),
    instance_runs("B:1"),
    relation_configs,
)
@settings(max_examples=200, deadline=None)
def test_sweep_join_equals_naive_product(a1, b1, a2, b2, config):
    hlh1 = _hlh1_with(
        {"A:1": {1: a1, 2: a2}, "B:1": {1: b1, 2: b2}}
    )
    _assert_sweep_matches_naive(hlh1, "A:1", "B:1", [1, 2], config)


@given(instance_runs("A:1"), instance_runs("A:1"), relation_configs)
@settings(max_examples=150, deadline=None)
def test_sweep_self_join_equals_naive_combinations(a1, a2, config):
    hlh1 = _hlh1_with({"A:1": {1: a1, 2: a2}})
    _assert_sweep_matches_naive(hlh1, "A:1", "A:1", [1, 2], config)


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 3),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_relation_of_bounds_matches_relation_between(
    start_i, dur_i, start_j, dur_j, epsilon, min_overlap
):
    """The scalar bounds classifier (inlined by the kernel) is exactly
    relation_between on the ordered pair -- boundary values included."""
    a = EventInstance("A:1", start_i, start_i + dur_i - 1)
    b = EventInstance("B:1", start_j, start_j + dur_j - 1)
    earlier, later = (a, b) if a.sort_key() <= b.sort_key() else (b, a)
    config = RelationConfig(epsilon=epsilon, min_overlap=min_overlap)
    assert relation_of_bounds(
        earlier.start, earlier.end, later.start, later.end, epsilon, min_overlap
    ) == relation_between(earlier, later, config)


@st.composite
def mining_inputs(draw):
    n_series = draw(st.integers(2, 3))
    length = draw(st.integers(12, 30))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    params = MiningParams(
        max_period=draw(st.integers(1, 3)),
        min_density=1,
        dist_interval=(draw(st.integers(0, 2)), draw(st.integers(3, 10))),
        min_season=1,
        relation=draw(relation_configs),
        max_pattern_length=3,
    )
    dseq = build_sequence_database(
        SymbolicDatabase.from_rows(rows), draw(st.sampled_from([2, 3]))
    )
    return dseq, params


@given(mining_inputs())
@settings(max_examples=40, deadline=None)
def test_whole_jobs_agree_across_kernels(inputs):
    """End-to-end oracle parity under random epsilon/min_overlap configs
    (exercises the extension kernel's verdict rows + Iterative Check)."""
    dseq, params = inputs
    sweep = ESTPM(dseq, params).mine()
    reference = NaiveSTPM(dseq, params).mine()
    assert results_equivalent(sweep, reference)
