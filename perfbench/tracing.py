"""Spans around the calls into each layer, recorded from outside the program.

Only the traced run installs these wrappers; the program's own files are
never edited. The wrapped names are public entry points:

* ``SpadeEngine.bulk_load``, ``insert_batch``, ``insert_grouped``,
  ``is_benign`` and ``flush_buffer``;
* the ``peel_sequence`` name that ``repro.core.engine`` imports (the
  static peel ``bulk_load`` runs);
* ``toPandas`` on the session's DataFrame class (the Arrow transfer).

Micro-batch durations come from Spark's own progress reports through a
``StreamingQueryListener`` (:class:`ProgressLog`), which the untraced run
also uses for the stream's service times.

Affected-area counts come from public engine state only: the peeling
sequence (``order_external``) and community (``community_external``)
diffed around ``insert_batch``, and the endpoint ids seen so far.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np
from pyspark.sql.streaming import StreamingQueryListener

#: (span id, name, start s, end s, parent span id, update id)
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class ProgressLog(StreamingQueryListener):
    """Collects Spark's per-micro-batch progress reports."""

    def __init__(self) -> None:
        self.batches: List[Dict[str, Any]] = []
        self.terminated: List[str] = []
        self._cv = threading.Condition()

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        p = event.progress
        with self._cv:
            self.batches.append(
                {
                    "run": str(p.runId),
                    "batch": int(p.batchId),
                    "rows": int(p.numInputRows),
                    "ms": {k: int(v) for k, v in dict(p.durationMs).items()},
                }
            )
            self._cv.notify_all()

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        with self._cv:
            self.terminated.append(str(event.runId))
            self._cv.notify_all()

    def batches_of_next_query(self, n_done: int, timeout: float = 60.0) -> List[Dict]:
        """Progress reports of the query that terminated as number ``n_done + 1``.

        The listener bus delivers events in order, so once the query's
        termination has arrived all of its progress reports have too.
        """
        with self._cv:
            if not self._cv.wait_for(lambda: len(self.terminated) > n_done, timeout):
                raise RuntimeError("no termination event from the streaming query")
            run = self.terminated[n_done]
            return sorted(
                (b for b in self.batches if b["run"] == run), key=lambda b: b["batch"]
            )


@dataclass
class AreaLog:
    """Affected area of each ``insert_batch`` call, from public state."""

    batch_edges: List[int] = field(default_factory=list)
    slots_changed: List[int] = field(default_factory=list)
    churn: List[int] = field(default_factory=list)
    endpoints: int = 0
    new_endpoints: int = 0
    classified: int = 0  # is_benign calls
    benign: int = 0  # ... that returned True


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, area_stride: int = 1) -> None:
        self.spans: List[Span] = []
        self.update: Optional[int] = None  # set by the benchmark's loop
        self.root: Optional[int] = None  # parent of spans with no open span
        self.area = AreaLog()
        self.area_stride = area_stride
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        # Per engine: insert_batch calls, last (calls, order, community)
        # snapshot, and endpoint ids seen.
        self._calls: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._snap: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.update))

    def open_root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span that also parents spans of other threads."""
        sid = next(self._ids)
        self.root = sid
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.root = None
            self.spans.append((sid, name, t0, t1, None, self.update))

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, *args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, dataframe_cls) -> None:
        import repro.core.engine as engine_mod
        from repro.core.engine import SpadeEngine

        for attr in ("bulk_load", "insert_grouped", "flush_buffer"):
            self._wrap(SpadeEngine, attr, f"engine.{attr}")
        self._wrap(engine_mod, "peel_sequence", "peel.peel_sequence")
        self._wrap(dataframe_cls, "toPandas", "spark.toPandas")

        tracer = self
        insert_batch_orig = SpadeEngine.insert_batch
        is_benign_orig = SpadeEngine.is_benign

        @functools.wraps(insert_batch_orig)
        def insert_batch(eng, edges, *args, **kwargs):
            return tracer._insert_batch(insert_batch_orig, eng, edges, *args, **kwargs)

        @functools.wraps(is_benign_orig)
        def is_benign(*args, **kwargs):
            benign = tracer.call("engine.is_benign", is_benign_orig, *args, **kwargs)
            tracer.area.classified += 1
            tracer.area.benign += bool(benign)
            return benign

        self._patch(SpadeEngine, "insert_batch", insert_batch)
        self._patch(SpadeEngine, "is_benign", is_benign)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, orig = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- affected area ---------------------------------------------------
    def _snapshot(self, eng) -> Tuple[np.ndarray, Set]:
        calls = self._calls.get(eng, 0)
        snap = self._snap.get(eng)
        if snap is not None and snap[0] == calls:
            return snap[1], snap[2]
        order = eng.order_external()
        arr = np.fromiter(order, dtype=np.int64, count=len(order))
        comm = eng.community_external()
        self._snap[eng] = (calls, arr, comm)
        return arr, comm

    def _insert_batch(self, orig, eng, edges, *args, **kwargs):
        seen = self._seen.get(eng)
        if seen is None:
            seen = self._seen[eng] = set(eng.order_external())
        for e in edges:
            for x in (e[0], e[1]):
                self.area.endpoints += 1
                if x not in seen:
                    seen.add(x)
                    self.area.new_endpoints += 1
        self.area.batch_edges.append(len(edges))
        calls = self._calls.get(eng, 0)
        sampled = calls % self.area_stride == 0
        if sampled:
            before, comm_before = self._snapshot(eng)
        try:
            return self.call("engine.insert_batch", orig, eng, edges, *args, **kwargs)
        finally:
            self._calls[eng] = calls + 1
            if sampled:
                after, comm_after = self._snapshot(eng)
                grown = len(after) - len(before)
                moved = int(np.count_nonzero(after[grown:] != before))
                self.area.slots_changed.append(grown + moved)
                self.area.churn.append(len(comm_after ^ comm_before))

    # -- output ----------------------------------------------------------
    def durations(self, name: str, parent_name: Optional[str] = None) -> List[float]:
        """Durations (s) of spans called ``name``, optionally under a parent name."""
        if parent_name is None:
            return [s[3] - s[2] for s in self.spans if s[1] == name]
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[4] in parents]

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "update")
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")
