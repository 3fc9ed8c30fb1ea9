"""Engine construction from an edge frame (the Fig. 1 bootstrap).

The transaction log is a frame ``(src, dst, amount, ts, ...)``. There is
one way to turn it into a driver-resident engine:

* ``engine_from_frame`` — bulk-load a ``SpadeEngine`` from a pandas edge
  frame, evaluating ``esusp`` edge by edge in frame order (the
  evolving-graph semantics every later insertion uses);
* ``build_engine`` — the Spark front of it: order a Spark edge
  DataFrame by timestamp, ship it to the driver via Arrow
  (``toPandas``) and hand it to ``engine_from_frame``.
"""
from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.core.engine import SpadeEngine
from repro.core.susp import Metric

EDGE_COLUMNS = ["src", "dst", "amount"]


def edge_rows(frame) -> List[Tuple]:
    """The ``(src, dst, amount)`` tuples of a pandas edge frame, in order."""
    return list(frame[EDGE_COLUMNS].itertuples(index=False, name=None))


def engine_from_frame(
    frame, metric: Metric, priors: Optional[Dict[Hashable, float]] = None
) -> SpadeEngine:
    """A :class:`SpadeEngine` bulk-loaded from a pandas edge frame."""
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(frame), priors=priors)
    return eng


def build_engine(
    spark: SparkSession,
    edges: DataFrame,
    metric: Metric,
    priors: Optional[Dict[Hashable, float]] = None,
) -> SpadeEngine:
    """Bootstrap a :class:`SpadeEngine` from a Spark edge DataFrame.

    Edges are loaded in timestamp order when the frame has ``ts``.
    """
    df = edges.orderBy("ts") if "ts" in edges.columns else edges
    return engine_from_frame(df.select(*EDGE_COLUMNS).toPandas(), metric, priors)
