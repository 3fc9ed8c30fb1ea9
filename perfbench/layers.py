"""Per-layer metrics of the traced run, from spans and Spark's reports.

A layer the workload does not exercise reports 0 and is named in the
notes (the streaming layer on ``edge_dg``/``grouped_dg``, grouping on
``edge_dg``/``stream_dg``).
"""
from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import measure

#: Spark's micro-batch phases outside ``addBatch`` (the foreachBatch call).
OFFSET_PHASES = ("latestOffset", "getBatch", "queryPlanning", "walCommit", "commitOffsets")


def _p50_tail(values: Sequence[float], per_round: float, scale: float) -> Tuple[float, float]:
    if not values:
        return 0.0, 0.0
    p = measure.tail_percentile(int(per_round))
    return (measure.percentile(values, 50) * scale, measure.percentile(values, p) * scale)


def _median(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(w, tracer, traced_rounds, walls, cold_build_s, engine) -> Tuple[Dict, List[str]]:
    """Metrics named ``layer.quantity`` with their units, plus notes."""
    n = len(traced_rounds)
    area = tracer.area
    notes: List[str] = []
    m: Dict[str, Tuple[float, str]] = {}

    m["builder.collect_s"] = (_median(tracer.durations("spark.toPandas", "builder.build_engine")), "s")
    m["builder.cold_build_s"] = (cold_build_s, "s")
    m["engine.bulk_load_s"] = (_median(tracer.durations("engine.bulk_load")), "s")
    m["peel.peel_sequence_s"] = (
        _median(tracer.durations("peel.peel_sequence", "engine.bulk_load")), "s")

    reports = [b for r in traced_rounds for b in r.progress]
    trigger = [b["ms"]["triggerExecution"] for b in reports]
    t50, ttail = _p50_tail(trigger, len(trigger) / n, 1.0)
    m["streaming.trigger_p50_ms"] = (t50, "ms")
    m["streaming.trigger_tail_ms"] = (ttail, "ms")
    m["streaming.add_batch_ms"] = (_median([b["ms"].get("addBatch", 0) for b in reports]), "ms")
    m["streaming.collect_ms"] = (
        _median(tracer.durations("spark.toPandas", "streaming.run_stream"), 1e3), "ms")
    m["streaming.offsets_ms"] = (
        _median([sum(b["ms"].get(k, 0) for k in OFFSET_PHASES) for b in reports]), "ms")
    m["streaming.rows_per_batch"] = (_median([b["rows"] for b in reports]), "count")
    engine_in_stream = sum(tracer.durations("engine.insert_batch", "streaming.run_stream"))
    share = engine_in_stream / (sum(trigger) / 1e3) if trigger else 0.0
    m["streaming.engine_share"] = (share, "ratio")
    if reports:
        notes.append(
            f"streaming.engine_share = {engine_in_stream:.3f} s insert_batch / "
            f"{sum(trigger) / 1e3:.3f} s triggerExecution over {len(trigger)} micro-batches")
        notes.append(
            "streaming.rows_per_batch is Spark's numInputRows; edges per batch: "
            f"{statistics.median(area.batch_edges):g}")
    else:
        notes.append("streaming.*: layer not exercised on this workload, reported as 0")

    batch_s = tracer.durations("engine.insert_batch")
    b50, btail = _p50_tail(batch_s, len(batch_s) / n, 1e3)
    m["engine.insert_batch_p50_ms"] = (b50, "ms")
    m["engine.insert_batch_tail_ms"] = (btail, "ms")
    m["engine.insert_batch_calls"] = (len(batch_s) / n, "count")
    m["engine.edges_per_call"] = (
        sum(area.batch_edges) / len(area.batch_edges) if area.batch_edges else 0.0, "count")
    s50, stail = _p50_tail(area.slots_changed, len(area.slots_changed) / n, 1.0)
    m["engine.slots_changed_p50"] = (s50, "count")
    m["engine.slots_changed_tail"] = (stail, "count")
    m["engine.new_vertex_frac"] = (
        area.new_endpoints / area.endpoints if area.endpoints else 0.0, "ratio")
    notes.append(
        f"affected area diffed on 1 in {w.area_stride} insert_batch calls: "
        f"{len(area.slots_changed)} of {len(area.batch_edges)} calls; "
        f"new endpoints {area.new_endpoints} of {area.endpoints}")

    benign_s = tracer.durations("engine.is_benign")
    i50, itail = _p50_tail(benign_s, len(benign_s) / n, 1e6)
    m["engine.is_benign_p50_us"] = (i50, "us")
    m["engine.is_benign_tail_us"] = (itail, "us")
    m["engine.benign_frac"] = (area.benign / area.classified if area.classified else 0.0, "ratio")
    flushes = area.batch_edges if w.mode == "grouped" else []
    f50, ftail = _p50_tail(flushes, len(flushes) / n, 1.0)
    m["engine.flush_edges_p50"] = (f50, "count")
    m["engine.flush_edges_tail"] = (ftail, "count")
    if w.mode != "grouped":
        notes.append("engine grouping (is_benign, flush): not exercised, reported as 0")
    else:
        notes.append(f"engine.benign_frac = {area.benign} benign / {area.classified} classified")

    m["engine.community_size"] = (float(len(engine.community_external())), "count")
    m["engine.community_churn"] = (
        sum(area.churn) / len(area.churn) if area.churn else 0.0, "count")
    m["engine.n_vertices"] = (float(engine.n_vertices), "count")
    m["engine.n_edges"] = (float(engine.n_edges), "count")

    untraced, traced = walls
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    m["tracing.overhead_frac"] = (overhead, "ratio")
    notes.append(
        f"tracing.overhead_frac: median update-phase wall traced {statistics.median(traced):.3f} s "
        f"({len(traced)} rounds) vs untraced {statistics.median(untraced):.3f} s ({len(untraced)})")
    return m, notes
