"""Edge grouping (§4.3): Definition 4.1, Lemmas 4.3/4.4, buffer semantics."""
import pytest

from repro.core import DG, DW, FD, Metric, SpadeEngine
from tests.helpers import assert_engine_valid, random_edges

METRICS = [DG, DW, FD]


def _dense_pair_engine(metric=DW):
    """An engine whose community is a heavy pair: g(S^P) = 10."""
    eng = SpadeEngine(metric)
    eng.bulk_load([("a", "b", 20.0), ("c", "d", 1.0), ("d", "e", 1.0)])
    assert eng.best_density == pytest.approx(10.0)
    return eng


class TestIsBenign:
    def test_low_weight_edge_between_outsiders_is_benign(self):
        eng = _dense_pair_engine()
        assert eng.is_benign("c", "e", 1.0)

    def test_heavy_edge_is_urgent(self):
        eng = _dense_pair_engine()
        assert not eng.is_benign("c", "e", 50.0)

    def test_edge_touching_community_is_urgent(self):
        # w_a(S_0) = 20 >= g = 10, so anything touching `a` is urgent.
        eng = _dense_pair_engine()
        assert not eng.is_benign("a", "zzz", 0.1)

    def test_matches_definition_4_1(self):
        """is_benign == (w_u(S0)+c < g) and (w_v(S0)+c < g), recomputed."""
        eng = _dense_pair_engine()
        g = eng.best_density
        for u, v, amt in [("c", "e", 2.0), ("c", "d", 8.5), ("e", "q", 9.1)]:
            vid_u = eng._vid_of.get(u)
            vid_v = eng._vid_of.get(v)
            w_u = eng._w0[vid_u] if vid_u is not None else 0.0
            w_v = eng._w0[vid_v] if vid_v is not None else 0.0
            expected = (w_u + amt < g) and (w_v + amt < g)
            assert eng.is_benign(u, v, amt) == expected

    def test_unknown_vertices_use_default_prior(self):
        eng = _dense_pair_engine()
        assert eng.is_benign("new1", "new2", 1.0)
        assert not eng.is_benign("new1", "new2", 11.0)


def _benign_edge(eng):
    """An edge that satisfies Definition 4.1, built from the definition.

    Endpoints are tried in order of least ``w(S_0)``, the loaded vertices
    first and then two fresh ones (``w(S_0) = vsusp(0) = 0``). The amount
    is half the pair's headroom ``g(S^P) - max w(S_0)``, which is ``c``
    itself under DW; the first pair whose ``c`` fits under the headroom
    for both endpoints is returned.
    """
    g = eng.best_density
    w0 = {x: eng._w0[eng._vid_of[x]] for x in eng.order_external()}
    pool = sorted(w0, key=lambda x: (w0[x], x)) + ["fresh-a", "fresh-b"]
    for i, u in enumerate(pool):
        for v in pool[i + 1 :]:
            w = max(w0.get(u, 0.0), w0.get(v, 0.0))
            amt = (g - w) / 2
            if amt <= 0:
                continue
            vid = eng._vid_of.get(v)
            c = eng.metric.esusp(amt, (eng._in_deg[vid] if vid is not None else 0) + 1)
            if w + c < g:
                return u, v, amt
    raise AssertionError("no pair of endpoints satisfies Definition 4.1")


class TestBenignLemmas:
    """Lemma 4.4: a benign insertion either keeps its endpoints out of the
    new community or strictly lowers the community density."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_lemma_4_4(self, seed, metric):
        edges = random_edges(seed, n=8, m=22)
        eng = SpadeEngine(metric, vertex_prior=0.0)
        eng.bulk_load(edges)
        g_before = eng.best_density
        u, v, amt = _benign_edge(eng)
        assert eng.is_benign(u, v, amt)
        eng.insert_edge(u, v, amt)
        comm = eng.community_external()
        assert (u not in comm and v not in comm) or (
            eng.best_density < g_before
        ), "benign edge created a denser community containing it"
        assert_engine_valid(eng)


class TestGroupedInsertion:
    def test_benign_edges_buffer(self):
        eng = _dense_pair_engine()
        assert eng.insert_grouped("c", "e", 0.5) == set()
        assert eng.buffered_edges == 1
        assert eng.n_edges == 3  # not applied yet

    def test_urgent_edge_flushes_buffer(self):
        eng = _dense_pair_engine()
        eng.insert_grouped("c", "e", 0.5)
        eng.insert_grouped("e", "f", 0.5)
        assert eng.buffered_edges == 2
        eng.insert_grouped("x", "y", 50.0)  # urgent
        assert eng.buffered_edges == 0
        assert eng.n_edges == 6  # all applied in one batch
        assert eng.community_external() == {"x", "y"}
        assert_engine_valid(eng)

    def test_max_buffer_cap_flushes(self):
        eng = _dense_pair_engine()
        for i in range(4):
            eng.insert_grouped(f"p{i}", f"q{i}", 0.1, max_buffer=4)
        assert eng.buffered_edges == 0
        assert eng.n_edges == 3 + 4

    def test_flush_buffer_empty_is_noop(self):
        eng = _dense_pair_engine()
        assert eng.flush_buffer() == set()

    def test_detection_equals_plain_batch_after_flush(self):
        """Grouped path and plain batch path converge to the same graph."""
        edges = random_edges(42, n=8, m=24)
        base = random_edges(43, n=8, m=12)
        e1 = SpadeEngine(DW, vertex_prior=0.1)
        e1.bulk_load(base)
        e2 = SpadeEngine(DW, vertex_prior=0.1)
        e2.bulk_load(base)
        for e in edges:
            e1.insert_grouped(*e, max_buffer=5)
        e1.flush_buffer()
        e2.insert_batch(edges)
        assert e1.n_edges == e2.n_edges
        assert e1.f_total == pytest.approx(e2.f_total)
        assert e1.best_density == pytest.approx(e2.best_density)
        assert_engine_valid(e1)

    @pytest.mark.parametrize(
        "bad", [("c", "c", 0.5), ("c", "e", -0.5), ("x", "y", float("inf"))]
    )
    def test_rejected_edge_leaves_buffer_and_graph(self, bad):
        """A rejected edge raises before it reaches the buffer."""
        eng = _dense_pair_engine()
        eng.insert_grouped("c", "e", 0.5)
        order = eng.order_external()
        with pytest.raises(ValueError):
            eng.insert_grouped(*bad)
        assert eng.buffered_edges == 1
        assert eng.n_edges == 3 and eng.order_external() == order
        eng.flush_buffer()
        assert eng.n_edges == 4
        assert_engine_valid(eng)

    def test_failed_flush_keeps_the_buffer(self):
        """An urgent edge whose batch is rejected does not drop the benign
        edges waiting before it. Here the second edge into one object
        vertex gets c = -1, which only the batch check can see."""
        once = Metric(
            "ONCE", vsusp=lambda p: 0.0, esusp=lambda amt, deg: amt if deg < 2 else -1.0
        )
        eng = _dense_pair_engine(once)
        eng.insert_grouped("x", "q", 0.5)
        with pytest.raises(ValueError):
            eng.insert_grouped("y", "q", 50.0)  # urgent; the batch is rejected
        assert eng.buffered_edges == 1
        assert eng.n_edges == 3
        eng.flush_buffer()
        assert eng.n_edges == 4
        assert_engine_valid(eng)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_grouped_stream_stays_valid(self, metric):
        edges = random_edges(5, n=10, m=40)
        eng = SpadeEngine(metric, vertex_prior=0.2)
        eng.bulk_load(edges[:10])
        for e in edges[10:]:
            eng.insert_grouped(*e, max_buffer=6)
        eng.flush_buffer()
        assert_engine_valid(eng)


class TestCampaignScenario:
    """End-to-end: an attach campaign is detected and flagged as urgent."""

    def test_campaign_fraudster_turns_urgent_and_detected(self):
        eng = SpadeEngine(DG)
        # Established ring: 3 customers x 2 merchants, 60 edges => g = 12.
        import itertools

        ring = list(itertools.product(["c1", "c2", "c3"], ["m1", "m2"]))
        eng.bulk_load([(u, v, 1.0) for u, v in ring * 10])
        g0 = eng.best_density
        assert g0 == pytest.approx(12.0)
        # A new fraudster transacts with the ring's merchants.
        detected_at = None
        went_urgent_at = None
        for i in range(40):
            m = "m1" if i % 2 == 0 else "m2"
            if went_urgent_at is None and not eng.is_benign("fraud", m, 1.0):
                went_urgent_at = i
            fresh = eng.insert_edge("fraud", m, 1.0)
            if detected_at is None and "fraud" in fresh:
                detected_at = i
        assert detected_at is not None, "campaign fraudster never detected"
        # Detection requires w > g(S^P) ~ 12 edges; urgency kicks in
        # around the same point (w0 + c >= g).
        assert 8 <= detected_at <= 20
        assert went_urgent_at is not None and went_urgent_at <= detected_at + 1
