"""The streaming subsystem's hard guarantee: prefix parity with batch E-STPM.

Feeding any prefix of a granule stream through :class:`IncrementalSTPM`
must produce a mining result equivalent to running batch E-STPM on that
prefix -- same frequent patterns, same supports, near support sets, and
seasons -- for every seed dataset profile and both single-granule and
multi-granule batches.  The paper example is also checked against the
brute-force NaiveSTPM at every prefix.
"""

import pytest

from repro import ESTPM, IncrementalSTPM
from repro.core.results import results_equivalent
from repro.datasets.registry import DATASET_BUILDERS


def _estpm(dseq, params):
    return ESTPM(dseq, params).mine()


def _assert_prefix_parity(dseq, params, batch_granules, check_every=1, oracle=_estpm):
    """Stream ``dseq`` in batches, asserting parity with ``oracle`` at
    sampled prefixes."""
    miner = IncrementalSTPM.empty(dseq.ratio, params)
    position = 0
    n_batches = 0
    checked = 0
    while position < len(dseq):
        rows = dseq.rows[position : position + batch_granules]
        position += len(rows)
        delta = miner.advance(rows)
        assert delta.n_granules == position
        n_batches += 1
        if n_batches % check_every == 0 or position == len(dseq):
            batch = oracle(dseq.prefix(position), params)
            streaming = miner.result()
            assert results_equivalent(streaming, batch), (
                f"prefix {position}: streaming diverged from batch "
                f"(batch_granules={batch_granules})"
            )
            checked += 1
    assert checked >= 2, "the parity loop must actually compare prefixes"
    return miner


class TestPaperExampleParity:
    """Every prefix of the paper's running example, against both batch
    oracles (see the ``batch_oracles`` fixture)."""

    @pytest.mark.parametrize("oracle", ["bitset", "list"])
    @pytest.mark.parametrize("batch_granules", [1, 3])
    def test_every_prefix(
        self, paper_dseq, paper_params, batch_oracles, oracle, batch_granules
    ):
        miner = _assert_prefix_parity(
            paper_dseq, paper_params, batch_granules, oracle=batch_oracles[oracle]
        )
        assert len(miner.result()) == 25  # the golden pattern count


class TestSeedDatasetParity:
    """All four seed dataset profiles, batches of 1 and k."""

    @pytest.fixture(scope="class")
    def streams(self):
        datasets = {}
        for name in DATASET_BUILDERS:
            dataset = DATASET_BUILDERS[name](n_sequences=44, n_series=4)
            params = dataset.params(min_season=2, min_density_pct=0.6)
            datasets[name] = (dataset.dseq(), params)
        return datasets

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_granule_by_granule(self, streams, name):
        dseq, params = streams[name]
        miner = _assert_prefix_parity(dseq, params, 1, check_every=8)
        assert len(miner.result()) > 0, "parity must be checked on real patterns"

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_multi_granule_batches(self, streams, name):
        dseq, params = streams[name]
        _assert_prefix_parity(dseq, params, 9, check_every=2)

    def test_deeper_patterns(self, streams):
        dseq, params = streams["INF"]
        deeper = params.with_updates(max_pattern_length=4)
        _assert_prefix_parity(dseq, deeper, 7, check_every=3)


class TestKernelParity:
    """The sweep-join kernel preserves streaming/batch prefix parity.

    The two-pointer sweep join in :mod:`repro.core.stpm` is the only
    step-2.2 kernel, so the incremental miner takes no kernel selection;
    this pins it end to end over growing prefixes of the paper example."""

    @pytest.mark.parametrize("kernel", ["sweep"])
    def test_paper_example_all_kernels(self, paper_dseq, paper_params, kernel):
        miner = _assert_prefix_parity(paper_dseq, paper_params, 3)
        assert not hasattr(miner, "kernel")
        with pytest.raises(TypeError):
            IncrementalSTPM.empty(
                paper_dseq.ratio, paper_params, kernel=kernel
            )
        assert len(miner.result()) == 25
