"""The three workloads: inputs from the seed, one closed-loop round each.

Every round starts from a freshly built engine and applies the same
increment log, so a faster program measures the same work, not more of
it. The engine is one synchronous server in the calling thread: updates
are issued back to back and each one's service time is recorded;
:mod:`measure` turns those times into latencies at the workload's
offered rate.
"""
from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pandas as pd

from repro.core import metric_by_name
from repro.core.sim import prevention_ratio
from repro.datasets import load_preset
from repro.datasets.generator import GraphData
from repro.spark.builder import build_engine
from repro.spark.streaming import run_stream, write_increment_files

import measure


#: Every preset is used at full size: its last 10 % of edges are the increments.
SCALE = 1.0

#: Percentile of the campaign-edge latency tail. Fixed, because the number
#: of campaign edges varies with the seed; every seed gives over 1 000, so
#: at least 10 samples lie beyond it.
FRAUD_TAIL = 99.0


@dataclass(frozen=True)
class Workload:
    """One named input and update path."""

    name: str
    preset: str
    metric: str
    mode: str  # "stream" | "edge" | "grouped"
    rate: float  # offered edges/s for the latency metrics, ~30 % of capacity
    files: int = 0  # stream: increment files, one micro-batch each
    max_buffer: Optional[int] = None  # grouped: buffer cap (Table 5 job)
    # Traced run: diff the public sequence around 1 in n insert_batch calls
    # (each diff copies the whole sequence, so every call would swamp the run).
    area_stride: int = 1


# Each round applies all increments of the preset (the last 10 % of its
# edges, in timestamp order): every campaign lies wholly inside them, so
# the prevention ratio is defined on every seed.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        # The Fig. 1 path as one: parquet files, file-source stream,
        # foreachBatch, engine. Spark bookkeeping dominates each micro-batch,
        # so a Spark-layer change shows here and an engine change barely does.
        Workload("stream_dg", "grab1_lite", "DG", "stream", 300.0, files=25),
        # insert_edge per edge in-process: the reorder plus the O(n) Detect
        # rescan on every edge, with Spark idle.
        Workload("edge_dg", "grab1_lite", "DG", "edge", 600.0, area_stride=50),
        # Edge grouping on the largest working set: cheap is_benign reads
        # beside small flushes, each with its O(n) Detect. A change that
        # flushes more to cut fraud latency shows as worse edge latency.
        # Offered at ~8 % of capacity: at 500 or 250 edges/s, queueing behind
        # the 10K-edge cap flush made the latency medians unsteady.
        Workload(
            "grouped_dg", "grab4_lite", "DG", "grouped", 125.0,
            max_buffer=10_000, area_stride=20,
        ),
    ]
}


@dataclass
class Inputs:
    """Everything a round needs, generated from the seed alone."""

    data: GraphData
    window: pd.DataFrame  # the increments, applied in full each round
    rows: List[Tuple]
    priors: Dict
    arrivals: np.ndarray  # per edge, seconds
    fraud: np.ndarray  # per edge: labeled campaign edge
    campaigns: Dict[int, Tuple[frozenset, np.ndarray]]  # members, edge idx
    init_path: str
    stream_dir: str = ""
    file_last: Dict[float, int] = field(default_factory=dict)  # last ts -> edge


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    data = load_preset(w.preset, scale=SCALE, seed=seed)
    window = data.increments.reset_index(drop=True)
    offset = len(data.established_blocks)
    block = window["block"].to_numpy()
    campaigns = {
        c: (members, np.flatnonzero(block == offset + c))
        for c, members in enumerate(data.fraud_blocks)
    }
    init_path = str(workdir / "initial.parquet")
    data.initial.to_parquet(init_path, index=False)
    inp = Inputs(
        data=data,
        window=window,
        rows=list(window[["src", "dst", "amount"]].itertuples(index=False, name=None)),
        priors=data.priors,
        arrivals=measure.arrivals_at_rate(window["ts"].to_numpy(), w.rate),
        fraud=block >= offset,
        campaigns=campaigns,
        init_path=init_path,
    )
    if w.mode == "stream":
        inp.stream_dir = str(workdir / "increments")
        write_increment_files(window, inp.stream_dir, w.files)
        ends = np.cumsum([len(c) for c in np.array_split(np.arange(len(window)), w.files)])
        ts = window["ts"].to_numpy()
        inp.file_last = {float(ts[e - 1]): int(e - 1) for e in ends if e > 0}
    return inp


def build(spark, w: Workload, inp: Inputs):
    """One set-up: scan the initial edges, ship them via Arrow, bulk load."""
    df = spark.read.parquet(inp.init_path)
    return build_engine(spark, df, metric_by_name(w.metric), priors=inp.priors)


@dataclass
class Round:
    """One closed-loop pass over the increments on a fresh engine."""

    service: np.ndarray  # per update, seconds
    ready: np.ndarray  # per update: index of the last edge it needs
    applied_by: np.ndarray  # per edge: index of the update that applied it
    fresh: List[Tuple[int, Set]]  # (update, new fraudsters) when non-empty
    failed: int  # updates that raised
    progress: List[Dict] = field(default_factory=list)  # stream: Spark reports
    detected_before: Set[int] = field(default_factory=set)  # campaigns flagged at start
    wall_s: float = 0.0  # the whole pass

    @property
    def attempted(self) -> int:
        return len(self.service)


def _detected_at_start(eng, inp: Inputs) -> Set[int]:
    comm = eng.community_external()
    return {c for c, (members, _) in inp.campaigns.items() if comm & members}


def run_round(w: Workload, eng, inp: Inputs, spark, progress, workdir: Path,
              tracer=None) -> Round:
    before = _detected_at_start(eng, inp)
    run = {"edge": _edges, "grouped": _grouped, "stream": _stream}[w.mode]
    t0 = time.perf_counter()
    r = run(w, eng, inp, spark, progress, workdir, tracer)
    r.wall_s = time.perf_counter() - t0
    r.detected_before = before
    return r


def _edges(w, eng, inp, spark, progress, workdir, tracer) -> Round:
    n = len(inp.rows)
    service = np.empty(n)
    fresh: List[Tuple[int, Set]] = []
    failed = 0
    priors = inp.priors
    for k, (s, d, a) in enumerate(inp.rows):
        if tracer is not None:
            tracer.update = k
        t0 = time.perf_counter()
        try:
            got = eng.insert_edge(s, d, a, src_prior=priors.get(s), dst_prior=priors.get(d))
        except Exception:
            got = set()
            failed += 1
        service[k] = time.perf_counter() - t0
        if got:
            fresh.append((k, got))
    idx = np.arange(n)
    return Round(service, idx, idx, fresh, failed)


def _grouped(w, eng, inp, spark, progress, workdir, tracer) -> Round:
    n = len(inp.rows)
    service = np.empty(n + 1)  # one insert_grouped per edge + final flush
    applied_by = np.empty(n, dtype=np.int64)
    fresh: List[Tuple[int, Set]] = []
    failed = 0
    pending = 0
    for k, (s, d, a) in enumerate(inp.rows):
        if tracer is not None:
            tracer.update = k
        t0 = time.perf_counter()
        try:
            got = eng.insert_grouped(s, d, a, max_buffer=w.max_buffer)
        except Exception:
            got = set()
            failed += 1
        service[k] = time.perf_counter() - t0
        if got:
            fresh.append((k, got))
        # A benign edge always lands in the buffer, so an empty buffer
        # after the call means this call applied everything pending.
        if eng.buffered_edges == 0:
            applied_by[pending : k + 1] = k
            pending = k + 1
    if tracer is not None:
        tracer.update = n
    t0 = time.perf_counter()
    try:
        got = eng.flush_buffer()
    except Exception:
        got = set()
        failed += 1
    service[n] = time.perf_counter() - t0
    if got:
        fresh.append((n, got))
    applied_by[pending:] = n
    ready = np.append(np.arange(n), n - 1)
    return Round(service, ready, applied_by, fresh, failed)


def _stream(w, eng, inp, spark, progress, workdir, tracer) -> Round:
    ckpt = workdir / "checkpoint"
    shutil.rmtree(ckpt, ignore_errors=True)
    done_before = len(progress.terminated)
    if tracer is not None:
        result = tracer.open_root(
            "streaming.run_stream", run_stream, spark, eng, inp.stream_dir, str(ckpt)
        )
    else:
        result = run_stream(spark, eng, inp.stream_dir, str(ckpt))
    reports = {b["batch"]: b for b in progress.batches_of_next_query(done_before)}
    dets = result.detections
    service = np.empty(len(dets))
    ready = np.empty(len(dets), dtype=np.int64)
    applied_by = np.full(len(inp.rows), -1, dtype=np.int64)
    fresh: List[Tuple[int, Set]] = []
    for k, det in enumerate(dets):
        last = inp.file_last.get(det.last_ts)
        if last is None:
            raise RuntimeError(f"micro-batch {det.batch_id} is not one increment file")
        ready[k] = last
        applied_by[last - det.n_edges + 1 : last + 1] = k
        service[k] = reports[det.batch_id]["ms"]["triggerExecution"] / 1e3
        if det.new_fraudsters:
            fresh.append((k, det.new_fraudsters))
    # A batch that raises stops the query and run_stream re-raises; lost or
    # repeated batches fail the gate's edge count and replay comparison.
    batches = [reports[d.batch_id] for d in dets]
    return Round(service, ready, applied_by, fresh, 0, batches)


def end_to_end(w: Workload, inp: Inputs, rounds: List[Round]) -> Tuple[Dict, Dict, List[str]]:
    """Metrics pooled over the rounds: ``(gated, tails, notes)``.

    The tails are printed with every run but kept out of the gated set:
    on ``edge_dg`` and ``grouped_dg`` they are set by the few heaviest
    updates of each seed's stream and spread 30-70 % between seeds.
    """
    svc, lat, fraud_lat, prevented = [], [], [], []
    for r in rounds:
        done = measure.fifo_completion(inp.arrivals[r.ready], r.service)
        edge_lat = done[r.applied_by] - inp.arrivals
        svc.append(r.service)
        lat.append(edge_lat)
        fraud_lat.append(edge_lat[inp.fraud])
        ratios = []
        for c, (members, idx) in inp.campaigns.items():
            if c in r.detected_before:
                flagged = -1.0  # before the first arrival (arrivals start at 0)
            else:
                flagged = measure.first_detection(r.fresh, done, members)
            ratios.append(prevention_ratio(inp.arrivals[idx], flagged))
        prevented.append(float(np.mean(ratios)))
    svc_all = np.concatenate(svc) * 1e3
    lat_all = np.concatenate(lat) * 1e3
    fraud_all = np.concatenate(fraud_lat) * 1e3
    n_upd, n_edge, n_fraud = len(rounds[0].service), len(inp.rows), int(inp.fraud.sum())
    p_upd = measure.tail_percentile(n_upd)
    p_edge = measure.tail_percentile(n_edge)
    gated = {
        "throughput_eps": (len(rounds) * n_edge / (float(svc_all.sum()) / 1e3), "edges/s"),
        "update_p50_ms": (measure.percentile(svc_all, 50), "ms"),
        "fraud_latency_p50_ms": (measure.percentile(fraud_all, 50), "ms"),
        "edge_latency_p50_ms": (measure.percentile(lat_all, 50), "ms"),
        "prevented_frac": (float(np.mean(prevented)), "ratio"),
    }
    tails = {
        "update_tail_ms": (measure.percentile(svc_all, p_upd), "ms"),
        "fraud_latency_tail_ms": (measure.percentile(fraud_all, FRAUD_TAIL), "ms"),
        "edge_latency_tail_ms": (measure.percentile(lat_all, p_edge), "ms"),
    }
    notes = [
        measure.tail_note("update_tail_ms", n_upd, p_upd),
        measure.tail_note("fraud_latency_tail_ms", n_fraud, FRAUD_TAIL),
        measure.tail_note("edge_latency_tail_ms", n_edge, p_edge),
        f"samples pooled over {len(rounds)} round(s); tail percentiles fixed "
        "from one round's count",
    ]
    return gated, tails, notes
