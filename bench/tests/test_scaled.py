"""Latencies are scaled to the reference speed by the blocks timed
around each op."""

import pytest

from bench.common import REFERENCE_S
from bench.workloads import Lane, scaled


def _lane(latencies, references):
    lane = Lane(seed=1)
    for index, (latency, reference) in enumerate(zip(latencies, references)):
        lane.latencies[index] = latency
        lane.references[index] = reference
    lane.completed = len(latencies)
    return lane


def test_ops_at_half_speed_read_as_at_the_reference_speed():
    lane = _lane([400e-6] * 3 + [200e-6] * 3,
                 [2 * REFERENCE_S] * 3 + [REFERENCE_S] * 3)
    assert scaled(lane) == pytest.approx([200e-6] * 6, rel=1e-5)


def test_one_interrupted_block_does_not_set_the_scale():
    lane = _lane([100e-6] * 5, [REFERENCE_S] * 2 + [50 * REFERENCE_S]
                 + [REFERENCE_S] * 2)
    assert scaled(lane) == pytest.approx([100e-6] * 5, rel=1e-5)
