"""Shared fixtures: the paper's running example and tiny datasets.

The running example is Tables II/IV of the paper: five binary device
series (C: Cooker, D: Dish washer, F: Food processor, M: Microwave,
N: Nespresso) over 42 five-minute granules, mapped 3-to-1 into fourteen
15-minute sequences.  The paper states several exact facts about it
(candidate events, season counts, near support sets) that the golden
tests assert.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.baselines.naive import NaiveSTPM
from repro.datasets import load_dataset
from repro.events.sequence import TemporalSequence
from repro.transform.sequence_db import TemporalSequenceDatabase, granule_instances

def pytest_sessionstart(session):
    """Honor REPRO_TEST_START_METHOD (CI's chaos job sets ``spawn``).

    Process-pool tests default to the platform start method (fork on
    Linux); forcing ``spawn`` here runs the whole suite under the
    portable worker-boot semantics without per-test plumbing.
    """
    method = os.environ.get("REPRO_TEST_START_METHOD")
    if method:
        multiprocessing.set_start_method(method, force=True)


#: Table II, transcribed row by row (42 symbols each).
PAPER_ROWS = {
    "C": "110100110000000000111111000000100110000110",
    "D": "100100110110000000111111000000100100110110",
    "F": "001011001001111000000000111111001001001001",
    "M": "111100111110111111000111111111111000111000",
    "N": "110111111110111111000000111111111111111000",
}


@pytest.fixture(scope="session")
def paper_dsyb() -> SymbolicDatabase:
    """The symbolic database of Table II."""
    return SymbolicDatabase.from_rows(PAPER_ROWS)


@pytest.fixture(scope="session")
def paper_dseq(paper_dsyb):
    """The temporal sequence database of Table IV (ratio 3)."""
    return build_sequence_database(paper_dsyb, ratio=3)


@pytest.fixture(scope="session")
def paper_params() -> MiningParams:
    """The running example's thresholds (Secs. III-E / IV-B/IV-C)."""
    return MiningParams(
        max_period=2,
        min_density=3,
        dist_interval=(4, 10),
        min_season=2,
    )


@pytest.fixture(scope="session")
def tiny_re():
    """A tiny RE dataset for integration tests."""
    return load_dataset("RE", "tiny")


@pytest.fixture(scope="session")
def tiny_inf():
    """A tiny INF dataset for integration tests."""
    return load_dataset("INF", "tiny")


@pytest.fixture(scope="session")
def scalar_dseq():
    """Build DSEQ granule by granule from :func:`granule_instances`.

    The scalar oracle for the columnar front end: every row is assembled
    from the per-granule run grouping of Def. 3.10, and nothing is primed,
    so supports come from a scan of the rows.
    """

    def build(dsyb, ratio):
        rows = []
        for index in range(dsyb.n_instants // ratio):
            offset = index * ratio
            sequence = TemporalSequence(position=index + 1)
            for series in dsyb:
                block = tuple(series.symbols[offset : offset + ratio])
                sequence.instances.extend(granule_instances(series.name, block, offset))
            rows.append(sequence.finalize())
        return TemporalSequenceDatabase(rows=rows, ratio=ratio, source_names=dsyb.names)

    return build


@pytest.fixture(scope="session")
def batch_oracles():
    """Batch miners ``(dseq, params) -> MiningResult`` that derived and
    streamed results are checked against, keyed by how each computes
    supports: ``bitset`` is E-STPM (big-int bitset intersections),
    ``list`` the brute-force NaiveSTPM (one scan of every granule into
    plain sorted position lists, no intersections)."""
    return {
        "bitset": lambda dseq, params: ESTPM(dseq, params).mine(),
        "list": lambda dseq, params: NaiveSTPM(dseq, params).mine(),
    }
