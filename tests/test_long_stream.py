"""Long-stream differential test: the engine against a scratch peel.

grab1_lite at scale 0.1 (9K initial edges, 1K timestamp-ordered
increments) is replayed through each insert mode under each metric. At
four checkpoints the maintained sequence must be a valid greedy peel
and its density must equal a scratch peel of the same graph. This is
the workload-scale run of the in-place reorder: long white runs slide
back over the slots the pending queue vacated, and drift from the
Case 2(a) prune (which keeps the frontier Δ in place of the recovered
weight) would accumulate here.
"""
import pytest

from repro.core import DG, DW, FD
from repro.core.peel import peel
from repro.datasets import load_preset
from repro.spark.builder import edge_rows, engine_from_frame
from tests.helpers import assert_engine_valid

BATCH = 100
MAX_BUFFER = 200
N_CHECKPOINTS = 4


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.1)


def _issue(eng, rows, mode):
    """Feed ``rows`` to ``eng``; yield the number issued after each call."""
    if mode == "edge":
        for i, r in enumerate(rows):
            eng.insert_edge(*r)
            yield i + 1
    elif mode == "batch":
        for s in range(0, len(rows), BATCH):
            eng.insert_batch(rows[s : s + BATCH])
            yield min(s + BATCH, len(rows))
    else:
        for i, r in enumerate(rows):
            eng.insert_grouped(*r, max_buffer=MAX_BUFFER)
            if i + 1 == len(rows):
                eng.flush_buffer()
            yield i + 1


def _check(eng):
    assert_engine_valid(eng)
    n, adj, a = eng.snapshot_graph()
    assert eng.best_density == pytest.approx(peel(n, adj, a).best_density, rel=1e-6)


@pytest.mark.parametrize("mode", ["edge", "batch", "grouped"])
@pytest.mark.parametrize("metric", [DG, DW, FD], ids=lambda m: m.name)
def test_matches_scratch_peel(data, metric, mode):
    inc = data.increments.sort_values("ts", kind="mergesort")
    rows = edge_rows(inc)
    assert len(data.initial) == 9000 and len(rows) == 1000
    eng = engine_from_frame(data.initial, metric, data.priors)
    checkpoints = [len(rows) * q // N_CHECKPOINTS for q in range(1, N_CHECKPOINTS + 1)]
    checked = 0
    for issued in _issue(eng, rows, mode):
        if issued >= checkpoints[checked]:
            _check(eng)
            checked += 1
    assert checked == N_CHECKPOINTS
    assert eng.buffered_edges == 0
    assert eng.n_edges == len(data.initial) + len(rows)
