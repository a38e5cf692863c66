"""Property and unit tests for the SupportSet engine.

The big-int bitset must be observationally equivalent to the classical
sorted-list algebra (``intersect_sorted`` and plain position lists, the
test oracle) on every operation the miners use: intersection,
cardinality, ascending iteration, membership, equality.  The
machine-word kernels (``bit_positions`` / ``coarsen_bits`` /
``_pack_bits``) must match their scalar reference semantics on masks
straddling the small/large cutovers and on every compute backend.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core
from repro import (
    ASTPM,
    ESTPM,
    HierarchicalMiner,
    IncrementalSTPM,
    MultiGrainStreamingService,
    StreamingDatabase,
    StreamingMiningService,
    build_sequence_database,
    replay_dataset,
)
from repro.core import supportset
from repro.core.config import set_compute_backend
from repro.core.support import intersect_sorted
from repro.core.supportset import (
    _COARSEN_CHUNK,
    _SMALL_BITS,
    BitsetSupportSet,
    SupportSet,
    _pack_bits,
    as_positions,
    as_support_list,
    bit_positions,
    coarsen_bits,
    make_support_set,
)
from repro.exceptions import ConfigError
from repro.harness.runner import engine_defaults

positions_lists = st.lists(
    st.integers(min_value=1, max_value=400), unique=True, max_size=60
).map(sorted)


@given(positions_lists)
@settings(max_examples=100, deadline=None)
def test_roundtrip_equivalence(positions):
    support = make_support_set(positions)
    assert isinstance(support, SupportSet)
    assert list(support) == positions
    assert support.positions() == tuple(positions)
    assert len(support) == len(positions)
    assert bool(support) == bool(positions)
    assert support == positions
    assert as_support_list(support) == positions


@given(positions_lists, positions_lists)
@settings(max_examples=100, deadline=None)
def test_intersection_matches_list_algebra(left, right):
    expected = intersect_sorted(left, right)
    both = make_support_set(left) & make_support_set(right)
    assert list(both) == expected
    assert len(both) == len(expected)
    assert both == make_support_set(expected)


@given(positions_lists, positions_lists)
@settings(max_examples=50, deadline=None)
def test_cross_backend_intersection(left, right):
    """A support set intersects plain position lists and tuples too."""
    expected = intersect_sorted(left, right)
    support = make_support_set(left)
    assert list(support & right) == expected
    assert list(support & tuple(right)) == expected
    assert list(support.intersect(right)) == expected


@given(positions_lists, st.integers(min_value=0, max_value=401))
@settings(max_examples=100, deadline=None)
def test_membership_matches(positions, probe):
    assert (probe in make_support_set(positions)) == (probe in positions)


@given(positions_lists)
@settings(max_examples=50, deadline=None)
def test_indexing_and_slicing(positions):
    support = make_support_set(positions)
    if positions:
        assert support[0] == positions[0]
        assert support[-1] == positions[-1]
    assert support[1:] == positions[1:]
    assert support[:3] == positions[:3]


@given(positions_lists)
@settings(max_examples=50, deadline=None)
def test_pickle_roundtrip(positions):
    support = make_support_set(positions)
    clone = pickle.loads(pickle.dumps(support))
    assert clone == support
    assert clone.bits == support.bits


class TestUnits:
    def test_bitset_stores_big_int(self):
        support = make_support_set([1, 3, 5])
        assert isinstance(support, SupportSet)
        assert support.bits == 0b101010
        assert len(support) == 3

    def test_backends_agree_on_unsorted_duplicated_input(self):
        support = make_support_set([9, 3, 5, 3, 9])
        assert list(support) == [3, 5, 9]
        assert support == make_support_set([3, 5, 9])

    def test_equality_against_lists_and_tuples(self):
        support = make_support_set([2, 4])
        assert support == [2, 4]
        assert support == (2, 4)
        assert [2, 4] == support  # reflected comparison
        assert support != [2, 5]
        assert support != "24"

    def test_hash_consistent_across_backends(self):
        a = make_support_set([1, 9])
        b = SupportSet((1 << 1) | (1 << 9))
        assert a == b
        assert hash(a) == hash(b) == hash((1, 9))

    def test_unknown_backend_rejected(self):
        # One representation: there is no backend left to select.
        with pytest.raises(TypeError):
            make_support_set([1], "roaring")

    def test_list_backend_type(self, paper_dsyb, paper_dseq, paper_params):
        """No entry point accepts the removed ``support_backend=`` knob."""
        knob = {"support_backend": "list"}
        stream = StreamingDatabase(3, {s.name: s.alphabet for s in paper_dsyb})
        calls = [
            lambda: make_support_set([1, 3], "list"),
            lambda: build_sequence_database(paper_dsyb, 3, **knob),
            lambda: ESTPM(paper_dseq, paper_params, **knob),
            lambda: ASTPM(paper_dsyb, 3, paper_params, **knob),
            lambda: HierarchicalMiner(paper_dsyb, ratios=[3, 6], **knob),
            lambda: IncrementalSTPM.empty(3, paper_params, **knob),
            lambda: StreamingMiningService(stream, paper_params, **knob),
            lambda: MultiGrainStreamingService(stream, {3: paper_params}, **knob),
            lambda: replay_dataset(None, paper_params, **knob),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_default_backend_switch(self):
        """The process-wide representation switch and its helpers are gone."""
        for name in (
            "ListSupportSet",
            "SUPPORT_BACKENDS",
            "set_default_backend",
            "default_backend",
            "validate_backend",
            "coerce_support_set",
            "coarsen_positions",
        ):
            assert not hasattr(supportset, name), name
        for module in (repro, repro.core):
            assert "ListSupportSet" not in module.__all__
            assert "set_default_backend" not in module.__all__
        with pytest.raises(TypeError):
            engine_defaults(support_backend="list")

    def test_abstract_interface_guards(self):
        """The former abstract base is the concrete class: a bare
        ``SupportSet()`` is the empty set, not an unimplemented stub."""
        empty = SupportSet()
        assert empty.positions() == ()
        assert len(empty) == 0 and not empty
        assert empty == []
        assert empty & [1, 2] == []

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigError):
            SupportSet(-1)

    def test_as_positions_passthrough(self):
        raw = [1, 2, 3]
        assert as_positions(raw) is raw
        assert as_positions(make_support_set(raw)) == (1, 2, 3)

    def test_former_class_name_unpickles(self):
        """Job checkpoints written before the list representation was
        removed pickle supports as ``BitsetSupportSet``."""
        assert BitsetSupportSet is SupportSet
        legacy = b"crepro.core.supportset\nBitsetSupportSet\n(I10\ntR."
        assert pickle.loads(legacy) == [1, 3]


# ---------------------------------------------------------------------------
# Machine-word kernels vs their scalar reference semantics
# ---------------------------------------------------------------------------

#: Position lists that straddle the small/large cutovers of the chunked
#: kernels: masks shorter and longer than ``_SMALL_BITS`` bits and chunk
#: boundaries of ``_COARSEN_CHUNK`` coarse granules.
kernel_positions = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=_SMALL_BITS - 64, max_value=_SMALL_BITS + 64),
        st.integers(min_value=1, max_value=4 * _SMALL_BITS),
    ),
    unique=True,
    max_size=80,
).map(sorted)

coarsen_factors = st.integers(min_value=1, max_value=9)
granule_caps = st.one_of(
    st.none(), st.integers(min_value=0, max_value=2 * _SMALL_BITS)
)


def _reference_coarse(positions, factor, n_granules):
    """Scalar semantics reference: fine p -> (p - 1) // factor + 1."""
    coarse = sorted({(p - 1) // factor + 1 for p in positions})
    if n_granules is not None:
        coarse = [q for q in coarse if q <= n_granules]
    return coarse


@given(kernel_positions)
@settings(max_examples=150, deadline=None)
def test_pack_bits_and_bit_positions_roundtrip(positions):
    bits = _pack_bits(positions)
    assert bits == sum(1 << p for p in positions)
    assert bit_positions(bits) == positions


@given(kernel_positions, coarsen_factors, granule_caps)
@settings(max_examples=200, deadline=None)
def test_coarsen_bits_matches_scalar_semantics(positions, factor, n_granules):
    expected = _reference_coarse(positions, factor, n_granules)
    folded = coarsen_bits(_pack_bits(positions), factor, n_granules)
    assert bit_positions(folded) == expected


@given(kernel_positions, coarsen_factors, granule_caps)
@settings(max_examples=150, deadline=None)
def test_coarsen_positions_matches_scalar_semantics(positions, factor, n_granules):
    """Coarsening a position list or iterator through ``SupportSet``."""
    expected = _reference_coarse(positions, factor, n_granules)
    assert list(SupportSet.from_positions(positions).coarsen(factor, n_granules)) == expected
    folded = SupportSet.from_positions(iter(positions)).coarsen(factor, n_granules)
    assert list(folded) == expected


@given(kernel_positions, coarsen_factors, granule_caps)
@settings(max_examples=100, deadline=None)
def test_supportset_coarsen_agrees_across_backends(positions, factor, n_granules):
    """The bitset fold equals the sorted-list reference fold, packed."""
    expected = _reference_coarse(positions, factor, n_granules)
    folded = make_support_set(positions).coarsen(factor, n_granules)
    assert isinstance(folded, SupportSet)
    assert folded == make_support_set(expected)


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_long_coarsen_positions_on_both_compute_backends(backend):
    """A long position list (past ``_SMALL_BITS``, so the chunked fold
    runs) coarsens identically under both compute backends."""
    positions = [3 * i + 1 for i in range(2048)]
    assert _pack_bits(positions).bit_length() > _SMALL_BITS
    previous = set_compute_backend(backend)
    try:
        support = make_support_set(positions)
        assert list(support.coarsen(5)) == _reference_coarse(positions, 5, None)
        assert list(support.coarsen(5, 100)) == _reference_coarse(positions, 5, 100)
    finally:
        set_compute_backend(previous)


def test_large_mask_kernels_cross_chunk_boundaries():
    """One deterministic case pinning the chunked large-mask paths: every
    coarse chunk boundary of ``coarsen_bits`` and every 64-bit word
    boundary of ``bit_positions`` is straddled."""
    factor = 3
    positions = list(range(1, factor * _COARSEN_CHUNK * 3 + 7, 2))
    bits = _pack_bits(positions)
    assert bits.bit_length() > _SMALL_BITS
    assert bit_positions(bits) == positions
    for n_granules in (None, _COARSEN_CHUNK - 1, _COARSEN_CHUNK, 2 * _COARSEN_CHUNK + 5):
        assert bit_positions(coarsen_bits(bits, factor, n_granules)) == (
            _reference_coarse(positions, factor, n_granules)
        )


def test_pack_bits_rejects_negative_positions():
    with pytest.raises(ConfigError):
        _pack_bits([4, -1])
    with pytest.raises(ConfigError):
        SupportSet.from_positions([-2])


def test_coarsen_rejects_bad_factor():
    with pytest.raises(ConfigError):
        coarsen_bits(0b10, 0)
    with pytest.raises(ConfigError):
        make_support_set([1]).coarsen(-1)
