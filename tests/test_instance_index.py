"""Columnar instance index + sweep-join kernel: units and oracle parity.

The headline guarantee of the columnar engine: a whole E-STPM job is
``results_equivalent`` to the brute-force
:class:`~repro.baselines.naive.NaiveSTPM` oracle on every seed dataset
and the paper's running example, serially and on a process pool; A-STPM
agrees with itself across executors and with E-STPM on every pattern it
keeps.  Plus the unit surface: column construction and caching,
flyweight interning, compact assignment decoding, the
``event_a == event_b`` self-pair paths, and the lean last level.
"""

import base64
import json
import pickle

import pytest

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.baselines.naive import NaiveSTPM
from repro.core.approximate import ASTPM
from repro.core.executor import ParallelExecutor
from repro.core.hlh import HLH1
from repro.core.instance_index import (
    EMPTY_COLUMN,
    InstanceColumn,
    decode_assignment,
    intern_pair_pattern,
    intern_pattern,
    intern_triple,
)
from repro.core.pattern import pattern_from_instances
from repro.core.results import results_equivalent
from repro.datasets import load_dataset
from repro.datasets.registry import DATASET_BUILDERS
from repro.events.event import EventInstance
from repro.events.relations import FOLLOWS
from repro.exceptions import MiningError
from repro.streaming import IncrementalSTPM


def _dseq(rows: dict[str, str], ratio: int):
    return build_sequence_database(SymbolicDatabase.from_rows(rows), ratio)


def _params(**overrides):
    defaults = {
        "max_period": 2,
        "min_density": 1,
        "dist_interval": (0, 8),
        "min_season": 1,
        "max_pattern_length": 3,
    }
    defaults.update(overrides)
    return MiningParams(**defaults)


class TestInstanceColumn:
    def test_columns_are_start_sorted(self):
        instances = [
            EventInstance("A:1", 5, 6),
            EventInstance("A:1", 1, 2),
            EventInstance("A:1", 3, 3),
        ]
        column = InstanceColumn.from_instances(instances)
        assert column.starts == (1, 3, 5)
        assert column.ends == (2, 3, 6)
        assert [i.start for i in column.instances] == [1, 3, 5]

    def test_partial_overlap_allowed_nesting_rejected(self):
        # Partial overlap keeps both columns monotone -- fine.  Nesting
        # breaks the ends monotonicity the sweep bounds rely on, so a
        # hand-built structure violating Def. 3.10 is rejected loudly.
        column = InstanceColumn.from_instances(
            [EventInstance("A:1", 1, 5), EventInstance("A:1", 3, 8)]
        )
        assert column.ends == (5, 8)
        with pytest.raises(MiningError):
            InstanceColumn.from_instances(
                [EventInstance("A:1", 1, 30), EventInstance("A:1", 2, 3)]
            )

    def test_hlh1_caches_columns(self):
        hlh1 = HLH1()
        instance = EventInstance("A:1", 1, 2)
        hlh1.add_event("A:1", [1], {1: [instance]})
        column = hlh1.column_of("A:1", 1)
        assert column.starts == (1,)
        assert hlh1.column_of("A:1", 1) is column  # cached
        assert hlh1.column_of("A:1", 99) is EMPTY_COLUMN
        assert hlh1.column_of("B:1", 1) is EMPTY_COLUMN

    def test_add_event_invalidates_columns(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 1, 2)]})
        stale = hlh1.column_of("A:1", 1)
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 3, 4)]})
        fresh = hlh1.column_of("A:1", 1)
        assert fresh is not stale
        assert fresh.starts == (3,)

    def test_pickle_drops_the_cache(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 1, 2)]})
        hlh1.column_of("A:1", 1)
        clone = pickle.loads(pickle.dumps(hlh1))
        assert clone._columns == {}
        assert clone.eh == hlh1.eh
        assert clone.gh == hlh1.gh
        assert clone.column_of("A:1", 1).starts == (1,)


class TestInterning:
    def test_triples_and_patterns_are_flyweights(self):
        t1 = intern_triple(FOLLOWS, "A:1", "B:1")
        t2 = intern_triple(FOLLOWS, "A:1", "B:1")
        assert t1 is t2
        p1 = intern_pair_pattern(FOLLOWS, "A:1", "B:1")
        p2 = intern_pattern(("A:1", "B:1"), (t1,))
        assert p1 is p2

    def test_clear_intern_caches(self):
        from repro.core import instance_index

        intern_triple(FOLLOWS, "A:1", "B:1")
        intern_pair_pattern(FOLLOWS, "A:1", "B:1")
        assert instance_index._TRIPLE_CACHE and instance_index._PATTERN_CACHE
        instance_index.clear_intern_caches()
        assert not instance_index._TRIPLE_CACHE
        assert not instance_index._PATTERN_CACHE

    def test_intern_caches_are_hard_bounded(self, monkeypatch):
        from repro.core import instance_index

        instance_index.clear_intern_caches()
        monkeypatch.setattr(instance_index, "_INTERN_CACHE_LIMIT", 4)
        for i in range(10):
            intern_triple(FOLLOWS, f"A:{i}", "B:1")
        assert len(instance_index._TRIPLE_CACHE) <= 4
        # A reset only costs re-construction; equality is unaffected.
        again = intern_triple(FOLLOWS, "A:0", "B:1")
        assert again == intern_triple(FOLLOWS, "A:0", "B:1")
        instance_index.clear_intern_caches()

    def test_release_context_clears_worker_intern_caches(self):
        """The end-of-job release broadcast (PR 4's 'idle kept pool pins
        no mining state') also drops the flyweight caches in workers."""
        import multiprocessing

        from repro.core import executor as executor_module
        from repro.core import instance_index
        from repro.core.executor import _receive_context, get_task_context

        intern_triple(FOLLOWS, "A:1", "B:1")
        executor_module._init_worker(multiprocessing.Barrier(1))
        try:
            _receive_context(pickle.dumps(None))
        finally:
            executor_module._init_worker(None)
        assert get_task_context() is None
        assert not instance_index._TRIPLE_CACHE


class TestEncodedAssignments:
    def test_ghk_assignments_decode_to_realizing_instances(self):
        """Every encoded GHk assignment decodes to an instance tuple
        that realizes exactly its pattern (pair and extension levels)."""
        miner = IncrementalSTPM(
            _dseq(
                {
                    "A": "110100110100110100",
                    "B": "011010011010011010",
                    "C": "101101101101101101",
                },
                3,
            ),
            _params(),
        )
        miner.advance()
        state = miner.state
        checked = 0
        for k, mirror in state.hlhk.items():
            for pattern, by_granule in mirror.ghk.items():
                assert pattern.size == k
                for granule, encoded_list in by_granule.items():
                    decoded_list = mirror.decoded_assignments_of(
                        pattern, granule, state.hlh1
                    )
                    assert len(decoded_list) == len(encoded_list)
                    for encoded, decoded in zip(encoded_list, decoded_list):
                        assert decoded == decode_assignment(
                            state.hlh1, pattern.events, granule, encoded
                        )
                        assert tuple(i.event for i in decoded) == pattern.events
                        realized = pattern_from_instances(
                            decoded, miner.params.relation
                        )
                        assert realized == pattern
                        checked += 1
        assert checked > 0


class TestSelfPairPaths:
    """The event_a == event_b paths of the kernel (pairs + extension)."""

    ROWS = {
        # A:1 occurs twice per granule (ratio 6) -> self pairs everywhere.
        "A": "110110" * 6,
        "B": "011011" * 6,
    }

    def test_self_pair_patterns_match_reference(self):
        dseq = _dseq(self.ROWS, 6)
        params = _params(max_pattern_length=3)
        sweep = ESTPM(dseq, params).mine()
        reference = NaiveSTPM(dseq, params).mine()
        assert results_equivalent(sweep, reference)
        self_pairs = [
            sp for sp in sweep.patterns if sp.pattern.events == ("A:1", "A:1")
        ]
        assert self_pairs, "workload must exercise the self-pair kernel path"
        repeated_triples = [
            sp
            for sp in sweep.patterns
            if sp.size == 3 and sp.pattern.events.count("A:1") >= 2
        ]
        assert repeated_triples, (
            "workload must exercise the repeated-event extension path"
        )

    def test_extension_never_pairs_an_instance_with_itself(self):
        dseq = _dseq(self.ROWS, 6)
        miner = IncrementalSTPM(dseq, _params(max_pattern_length=3))
        miner.advance()
        state = miner.state
        for k, mirror in state.hlhk.items():
            if k < 3:
                continue
            for pattern, by_granule in mirror.ghk.items():
                for granule in by_granule:
                    for decoded in mirror.decoded_assignments_of(
                        pattern, granule, state.hlh1
                    ):
                        assert len(set(decoded)) == len(decoded)


def _seed_job(name):
    dataset = load_dataset(name, "tiny")
    params = dataset.params(
        max_period_pct=0.4, min_density_pct=0.75, min_season=4
    )
    return dataset, dataset.dseq(), params


class TestKernelParity:
    """The step-2.2 kernel against the brute-force oracle.

    E-STPM, serial and pooled, equals :class:`NaiveSTPM` on every seed
    dataset and the paper example.  A-STPM runs the same kernel on a
    screened search space, so it is checked for serial == pooled and for
    agreement with E-STPM on every pattern it keeps.
    """

    @pytest.fixture(scope="class")
    def pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            yield executor

    @pytest.fixture(scope="class")
    def serial_estpm(self):
        """Serial E-STPM result per seed dataset, shared by both tests."""
        cache = {}

        def mined(name):
            if name not in cache:
                _, dseq, params = _seed_job(name)
                cache[name] = ESTPM(dseq, params, executor="serial").mine()
            return cache[name]

        return mined

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_estpm_parity(self, pool, serial_estpm, name):
        _, dseq, params = _seed_job(name)
        oracle = NaiveSTPM(dseq, params).mine()
        assert oracle.patterns, f"parity run on {name} mined nothing"
        serial = serial_estpm(name)
        assert results_equivalent(serial, oracle), (name, "serial")
        pooled = ESTPM(dseq, params, executor=pool).mine()
        assert results_equivalent(pooled, oracle), (name, "pool")

    def test_estpm_parity_paper_example(self, pool, paper_dseq, paper_params):
        oracle = NaiveSTPM(paper_dseq, paper_params).mine()
        for executor in ("serial", pool):
            result = ESTPM(paper_dseq, paper_params, executor=executor).mine()
            assert results_equivalent(result, oracle), executor

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_astpm_parity(self, pool, serial_estpm, name):
        dataset, dseq, params = _seed_job(name)
        serial = ASTPM(
            dataset.dsyb, dataset.ratio, params, dseq=dseq, executor="serial"
        ).mine()
        pooled = ASTPM(
            dataset.dsyb, dataset.ratio, params, dseq=dseq, executor=pool
        ).mine()
        assert results_equivalent(serial, pooled), name
        exact = serial_estpm(name).seasonal_map()
        for pattern, seasons in serial.seasonal_map().items():
            assert pattern in exact, (name, pattern)
            assert exact[pattern] == seasons, (name, pattern)


class TestLeanLastLevel:
    """At k == max_pattern_length only supports are recorded."""

    @pytest.mark.parametrize("max_length", [2, 3, 4])
    def test_paper_example_matches_oracle(self, paper_dseq, paper_params, max_length):
        params = paper_params.with_updates(max_pattern_length=max_length)
        assert results_equivalent(
            ESTPM(paper_dseq, params).mine(), NaiveSTPM(paper_dseq, params).mine()
        )

    @pytest.mark.parametrize("max_length", [2, 3, 4])
    def test_seed_dataset_matches_oracle(self, max_length):
        # A middle level (k = 3 under max_length 4) must still extend
        # from the assignments it stored.
        dataset = DATASET_BUILDERS["HFM"](n_sequences=44, n_series=4)
        params = dataset.params(
            min_season=2, min_density_pct=0.6, max_pattern_length=max_length
        )
        dseq = dataset.dseq()
        result = ESTPM(dseq, params).mine()
        assert results_equivalent(result, NaiveSTPM(dseq, params).mine())
        assert max(sp.size for sp in result.patterns) == max_length

    def test_last_level_outcome_has_supports_only(
        self, tmp_path, paper_dseq, paper_params
    ):
        """Extension outcomes keep assignments below the last level only.

        The job checkpoint records every group outcome, so it shows what
        each level's tasks returned."""

        def outcomes(max_length):
            path = tmp_path / f"max{max_length}.ckpt.json"
            params = paper_params.with_updates(max_pattern_length=max_length)
            ESTPM(paper_dseq, params, checkpoint_path=str(path)).mine()
            blobs = json.loads(path.read_text())["outcomes"]
            return {
                key: pickle.loads(base64.b64decode(blob))
                for key, blob in blobs.items()
            }

        lean, full = outcomes(3), outcomes(4)
        k3 = [key for key in lean if key.startswith("k3:") and lean[key].pattern_support]
        assert k3, "the paper example must grow 3-patterns"
        for key in k3:
            assert lean[key].pattern_assignments == {}
            # Same supports as at the middle level of a longer job.
            assert lean[key].pattern_support == full[key].pattern_support
            assignments = full[key].pattern_assignments
            assert set(assignments) == set(full[key].pattern_support)
            for pattern, support in full[key].pattern_support.items():
                assert sorted(assignments[pattern]) == support
        # The pair level is not the last one and keeps its assignments.
        assert any(
            outcome.pattern_assignments
            for key, outcome in lean.items()
            if key.startswith("k2:")
        )
