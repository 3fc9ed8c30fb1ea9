"""Latency / prevention discrete-event simulator (Eq. 4, ℛ)."""
import numpy as np
import pytest

from repro.core.sim import prevention_ratio, simulate_groups, simulate_static
from tests.helpers import grouping_flush_sizes


def _batches(n, batch_size):
    """Group sizes of fixed-size batching: full batches, then the remainder."""
    return [min(batch_size, n - s) for s in range(0, n, batch_size)]


class TestStatic:
    def test_edge_waits_for_next_run(self):
        # Runs of length 10 start at 0,10,20...; edge at t=3 is seen by
        # the run starting at 10 and responded to at 20.
        r = simulate_static([3.0], static_time=10.0)
        assert r.response[0] == pytest.approx(20.0)
        assert r.latency[0] == pytest.approx(17.0)

    def test_edge_on_boundary(self):
        r = simulate_static([10.0], static_time=10.0)
        assert r.response[0] == pytest.approx(20.0)

    def test_mean_latency_about_1_5x_period(self):
        # Uniform arrivals: queueing averages p/2, plus the run itself.
        t = np.linspace(0.01, 1000.0, 5000)
        r = simulate_static(t, static_time=10.0)
        assert r.mean_latency == pytest.approx(15.0, rel=0.05)

    def test_total_latency_is_sum(self):
        r = simulate_static([1.0, 2.0], static_time=5.0)
        assert r.total_latency == pytest.approx(r.latency.sum())


class TestBatch:
    def test_batch_responds_at_last_arrival_plus_proc(self):
        r = simulate_groups([1.0, 2.0, 7.0], _batches(3, 3), proc_time=lambda b: 0.5)
        assert list(r.response) == pytest.approx([7.5] * 3)
        assert r.latency[0] == pytest.approx(6.5)

    def test_partial_trailing_batch_flushes_at_end(self):
        r = simulate_groups(
            [1.0, 2.0, 3.0, 10.0], _batches(4, 3), proc_time=lambda b: 1.0
        )
        assert list(r.response[:3]) == pytest.approx([4.0] * 3)
        assert r.response[3] == pytest.approx(11.0)

    def test_larger_batches_increase_queueing(self):
        t = np.arange(1.0, 1001.0)
        small = simulate_groups(t, _batches(len(t), 10), lambda b: 0.0).mean_latency
        large = simulate_groups(t, _batches(len(t), 500), lambda b: 0.0).mean_latency
        assert large > small


class TestGrouping:
    def test_urgent_edge_flushes_immediately(self):
        urgent = [False, False, True]
        r = simulate_groups(
            [1.0, 2.0, 3.0], grouping_flush_sizes(urgent), proc_time=lambda b: 0.1
        )
        assert list(r.response) == pytest.approx([3.1] * 3)

    def test_urgent_latency_is_processing_only(self):
        urgent = [False, True, False, True]
        r = simulate_groups(
            [1.0, 5.0, 6.0, 9.0], grouping_flush_sizes(urgent), proc_time=lambda b: 0.2
        )
        assert r.latency[1] == pytest.approx(0.2)
        assert r.latency[3] == pytest.approx(0.2)

    def test_benign_tail_flushes_at_stream_end(self):
        r = simulate_groups(
            [1.0, 2.0], grouping_flush_sizes([False, False]), proc_time=lambda b: 0.3
        )
        assert list(r.response) == pytest.approx([2.3, 2.3])

    def test_max_buffer_cap(self):
        urgent = [False] * 4
        r = simulate_groups(
            [1.0, 2.0, 3.0, 4.0],
            grouping_flush_sizes(urgent, max_buffer=2),
            proc_time=lambda b: 0.0,
        )
        assert list(r.response) == pytest.approx([2.0, 2.0, 4.0, 4.0])

    def test_grouping_beats_batch_for_urgent_edges(self):
        """The §4.3 claim: fraud (urgent) edges respond much faster."""
        t = np.arange(0.0, 100.0, 0.1)
        urgent = np.zeros(len(t), dtype=bool)
        urgent[::50] = True  # sparse fraud
        g = simulate_groups(t, grouping_flush_sizes(urgent), proc_time=lambda b: 0.01)
        b = simulate_groups(t, _batches(len(t), 500), proc_time=lambda b: 0.01)
        assert g.latency[urgent].mean() < b.latency[urgent].mean() / 10


class TestGroups:
    def test_sizes_must_cover_the_arrivals(self):
        with pytest.raises(ValueError, match="cover"):
            simulate_groups([1.0, 2.0, 3.0], [2], proc_time=lambda b: 0.0)

    def test_proc_time_sees_group_size(self):
        r = simulate_groups([1.0, 2.0, 3.0], [1, 2], proc_time=lambda b: 10.0 * b)
        assert list(r.response) == pytest.approx([11.0, 23.0, 23.0])

    def test_empty_stream(self):
        r = simulate_groups([], [], proc_time=lambda b: 1.0)
        assert len(r.response) == 0


class TestPrevention:
    def test_all_after_detection_prevented(self):
        assert prevention_ratio([1.0, 2.0, 3.0, 4.0], 0.5) == 1.0

    def test_none_prevented_when_detected_late(self):
        assert prevention_ratio([1.0, 2.0], 10.0) == 0.0

    def test_partial(self):
        assert prevention_ratio([1.0, 2.0, 3.0, 4.0], 2.5) == 0.5

    def test_never_detected(self):
        assert prevention_ratio([1.0], None) == 0.0
        assert prevention_ratio([1.0], float("inf")) == 0.0

    def test_empty_stream(self):
        assert prevention_ratio([], 1.0) == 0.0
