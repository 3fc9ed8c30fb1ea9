"""Reproduce Table 4: incremental maintenance vs batch size vs static.

For every dataset and every metric (DG/DW/FD) this harness measures:

* the static from-scratch peeling time (the paper's columns 2-4,
  seconds per detection) on the full graph;
* the average per-edge time (µs) of the Spade engine replaying the
  timestamp-ordered increments with batch sizes |ΔE| ∈
  {1, 10, 100, 1K, 10K} — 10K standing in for the paper's 100K at the
  1:100 dataset scale (DESIGN.md §3).

Per-edge timing includes detection after every batch, matching the
paper's workflow (every insertion returns the new fraudster set). The
|ΔE|=1 replay is capped at ``--max-single`` edges to bound job time;
the cap is recorded in the output.

Run: ``python jobs/table4_incremental.py [--quick]``.
"""
from __future__ import annotations

import argparse
import time
from typing import List, Optional

import pandas as pd

from repro.core import metric_by_name
from repro.core.peel import peel
from repro.datasets import PRESETS, load_preset
from repro.datasets.generator import GraphData
from repro.spark.builder import engine_from_frame
from repro.spark.streaming import replay

BATCH_SIZES = [1, 10, 100, 1_000, 10_000]
METRICS = ["DG", "DW", "FD"]


def static_time(data: GraphData, metric_name: str) -> float:
    """Seconds for one from-scratch detection on the *full* graph."""
    eng = engine_from_frame(data.edges, metric_by_name(metric_name), data.priors)
    n, adj, a = eng.snapshot_graph()
    t0 = time.perf_counter()
    peel(n, adj, a)
    return time.perf_counter() - t0


def incremental_per_edge_us(
    data: GraphData,
    metric_name: str,
    batch_size: int,
    max_edges: Optional[int] = None,
) -> float:
    """Average µs/edge replaying increments at one batch size."""
    eng = engine_from_frame(data.initial, metric_by_name(metric_name), data.priors)
    inc = data.increments
    if max_edges is not None:
        inc = inc.head(max_edges)
    return replay(eng, inc, batch_size).per_edge_us


def run(
    datasets: Optional[List[str]] = None,
    scale: float = 1.0,
    max_single: int = 5_000,
) -> pd.DataFrame:
    """The full Table 4 sweep. Pure driver-side work (no SparkSession)."""
    rows = []
    for name in datasets or list(PRESETS):
        data = load_preset(name, scale=scale)
        row = {"dataset": name, "inc_edges": len(data.increments)}
        for m in METRICS:
            row[f"{m}_static_s"] = round(static_time(data, m), 3)
        for b in BATCH_SIZES:
            cap = max_single if b == 1 else None
            for m in METRICS:
                us = incremental_per_edge_us(data, m, b, max_edges=cap)
                row[f"Inc{m}-{b}_us"] = round(us, 1)
        rows.append(row)
        print(f"[table4] {name}: {row}", flush=True)
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small subset, 0.2x scale")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--max-single", type=int, default=5_000)
    ap.add_argument("--datasets", nargs="*", default=None)
    args = ap.parse_args()
    if args.quick:
        df = run(["grab1_lite", "wikivote_lite"], scale=0.2, max_single=1_000)
    else:
        df = run(args.datasets, scale=args.scale, max_single=args.max_single)
    print("\n== Table 4: static (s) vs incremental per-edge (us) by batch size ==")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
