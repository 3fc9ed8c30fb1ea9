"""Structured Streaming micro-batch ingestion and the replay harness."""
import pytest

from repro.core import DG, DW, FD, SpadeEngine
from repro.datasets import load_preset
from repro.spark.builder import engine_from_frame
from repro.spark.streaming import (
    replay,
    replay_grouped,
    run_stream,
    write_increment_files,
)
from tests.helpers import assert_engine_valid, grouping_flush_sizes


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


def _fresh_engine(data):
    return engine_from_frame(data.initial, DW, data.priors)


class TestFiles:
    def test_write_increment_files_partitions_in_order(self, data, tmp_path):
        paths = write_increment_files(data.increments, str(tmp_path), 5)
        assert len(paths) == 5
        assert [p.name for p in paths] == sorted(p.name for p in paths)
        import pandas as pd

        total = sum(len(pd.read_parquet(p)) for p in paths)
        assert total == len(data.increments)


class TestStructuredStreaming:
    def test_stream_matches_replay_and_scratch(self, spark, data, tmp_path):
        n_files = 4
        write_increment_files(data.increments, str(tmp_path / "in"), n_files)

        eng_stream = _fresh_engine(data)
        result = run_stream(
            spark, eng_stream, str(tmp_path / "in"), str(tmp_path / "ckpt")
        )
        assert len(result.detections) == n_files
        assert [d.batch_id for d in result.detections] == sorted(
            d.batch_id for d in result.detections
        )
        assert result.total_edges == len(data.increments)

        # Same end state as the in-process replay...
        eng_replay = _fresh_engine(data)
        replay(eng_replay, data.increments, batch_size=len(data.increments) // n_files + 1)
        assert eng_stream.n_edges == eng_replay.n_edges
        assert eng_stream.f_total == pytest.approx(eng_replay.f_total)

        # ...and as a from-scratch build over the full edge log.
        eng_scratch = SpadeEngine(DW)
        eng_scratch.bulk_load(
            list(
                data.edges[["src", "dst", "amount"]].itertuples(index=False, name=None)
            ),
            priors=data.priors,
        )
        assert eng_stream.best_density == pytest.approx(eng_scratch.best_density)
        assert eng_stream.community_external() == eng_scratch.community_external()
        assert_engine_valid(eng_stream)


class TestReplay:
    def test_replay_covers_all_edges(self, data):
        eng = _fresh_engine(data)
        res = replay(eng, data.increments, batch_size=97)
        assert res.total_edges == len(data.increments)
        assert res.per_edge_us > 0
        assert res.total_elapsed_s > 0

    def test_replay_batches_have_monotone_timestamps(self, data):
        eng = _fresh_engine(data)
        res = replay(eng, data.increments, batch_size=200)
        ts = [d.last_ts for d in res.detections]
        assert ts == sorted(ts)

    def test_replay_grouped_flags_and_flushes(self, data):
        eng = _fresh_engine(data)
        res, urgent = replay_grouped(eng, data.increments, max_buffer=500)
        assert len(urgent) == len(data.increments)
        assert res.total_edges == len(data.increments)
        assert eng.buffered_edges == 0
        assert_engine_valid(eng)


class TestGroupedFlushes:
    """The groups replay_grouped applies are the flushes of the §4.3 rule."""

    @pytest.fixture(scope="class")
    def data(self):
        return load_preset("grab1_lite", scale=0.05)

    @pytest.mark.parametrize("metric", [DG, DW, FD], ids=lambda m: m.name)
    def test_applied_groups_equal_flush_rule(self, data, metric):
        eng = engine_from_frame(data.initial, metric, data.priors)
        res, urgent = replay_grouped(eng, data.increments, max_buffer=500)
        applied = [d.n_edges for d in res.detections]
        assert applied == grouping_flush_sizes(urgent, max_buffer=500)
        assert [d.batch_id for d in res.detections] == list(range(len(applied)))
        assert_engine_valid(eng)
