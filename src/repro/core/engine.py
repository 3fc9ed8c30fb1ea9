"""The Spade engine — incremental peeling maintenance (paper Sections 3-4).

The engine mirrors the paper's memory-resident C++ class (Listing 1):
it owns the evolving graph, the peeling sequence ``O`` (``_seq``), the
peeling weights ``Δ`` (``_weight``), the benign-edge buffer, and the
three incremental techniques:

* ``insert_edge``       — single-edge peeling-sequence reordering (§4.1, 𝒯);
* ``insert_batch``      — batch reordering (§4.2, Algorithm 2);
* ``insert_grouped``    — edge grouping: benign edges buffer, urgent
  edges trigger an immediate batch reorder (§4.3, Def. 4.1).

Exactness invariant (generalization of Lemma 4.2 to gray vertices)
------------------------------------------------------------------
Vertices enter the pending queue ``T`` *only when the frontier reaches
their old slot*. Hence every out-of-order emission has an old position
before the current frontier ``k``, and for every still-pending vertex
``y`` (any color) the set of its removed neighbors is exactly the set
its stored ``Δ`` already excluded, while ``T`` members can only *add*
weight:

``w_y(current) >= w_y(S_{k-1}^{old}) >= Δ_slot[k]``.

Therefore comparing the head of ``T`` against the *stored* ``Δ`` of the
frontier slot (Cases 1/2 of the paper) always pops a global minimum,
and the maintained sequence is a valid greedy peel of the updated
graph — identical to a static rerun up to tie-breaking. New vertices
are head-inserted with ``Δ_0 = 0`` (paper §4.1), the only sound lower
bound for a slot with no greedy history. White frontier vertices have
``w = Δ_slot[k]`` exactly (no neighbor ever entered ``T``), so runs of
whites are emitted *in bulk* with a vectorized scan for the first
``Δ > Δ_min`` — the python-level loop touches only the affected area
``G_T`` (T entries, pops, and gray recoveries), which is what makes
per-edge maintenance orders of magnitude faster than a scratch peel.

Complexity: ``O(|E_T| + |E_T| log |V_T|)`` event work per update plus
vectorized ``O(n)`` scans (white-run copies and the ``Detect``
suffix-density argmax).
"""
from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.peel import best_community, peel_sequence
from repro.core.susp import Metric

#: (src, dst, amount) with optional trailing fields ignored by the engine.
EdgeLike = Tuple


class SpadeEngine:
    """Evolving-graph state plus incrementally-maintained peeling sequence.

    Parameters
    ----------
    metric:
        The plugged-in suspiciousness semantic (``DG``/``DW``/``FD`` or a
        custom :class:`~repro.core.susp.Metric`). ``esusp`` is evaluated
        when an edge is inserted (degree-dependent weights are frozen at
        insertion time — see DESIGN.md).
    vertex_prior:
        Default side-information prior handed to ``vsusp`` for vertices
        first seen through edge insertion.
    """

    def __init__(self, metric: Metric, vertex_prior: float = 0.0):
        self.metric = metric
        self.default_prior = vertex_prior
        # --- graph state ---------------------------------------------------
        self._vid_of: Dict[Hashable, int] = {}  # external id -> internal vid
        self._ext_of: List[Hashable] = []
        self._adj: List[Dict[int, float]] = []  # combined in+out weighted adjacency
        self._a: List[float] = []  # vertex suspiciousness a_i
        self._in_deg: List[int] = []  # incoming edge count (FD's object degree)
        self._w0: List[float] = []  # w_v(S_0): a_v + total incident weight
        self._f_total = 0.0
        self._n_edges = 0
        # --- peeling sequence (front-gapped numpy backing arrays) ----------
        self._order = np.empty(0, dtype=np.int64)  # valid slots: [_lo, _hi)
        self._delta = np.empty(0, dtype=np.float64)  # aligned with _order
        self._pos = np.empty(0, dtype=np.int64)  # vid -> absolute slot
        self._lo = 0
        self._hi = 0
        # --- detection state ----------------------------------------------
        self._best_index = 0  # absolute slot where S^P starts
        self._best_g = 0.0
        self._community: Set[int] = set()
        # --- edge grouping -------------------------------------------------
        self._benign_buffer: List[EdgeLike] = []

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self._ext_of)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def f_total(self) -> float:
        return self._f_total

    @property
    def best_density(self) -> float:
        """Density ``g(S^P)`` of the current fraudulent community."""
        return self._best_g

    @property
    def buffered_edges(self) -> int:
        """Number of benign edges awaiting a grouped reorder."""
        return len(self._benign_buffer)

    def order_external(self) -> List[Hashable]:
        """The current peeling sequence as external vertex ids."""
        return [self._ext_of[int(v)] for v in self._order[self._lo : self._hi]]

    def deltas(self) -> np.ndarray:
        """The peeling weights ``Δ`` aligned with :meth:`order_external`."""
        return self._delta[self._lo : self._hi].copy()

    def community_external(self) -> Set[Hashable]:
        """The current community ``S^P`` as external vertex ids."""
        return {self._ext_of[v] for v in self._community}

    def snapshot_graph(self) -> Tuple[int, List[Dict[int, float]], List[float]]:
        """A (shared-structure) view of the graph for scratch comparisons."""
        return self.n_vertices, self._adj, self._a

    # ------------------------------------------------------------------
    # vertex / edge bookkeeping
    # ------------------------------------------------------------------
    def _intern(self, ext: Hashable, a: float) -> int:
        """Register a new vertex with suspiciousness ``a``; return its vid."""
        vid = len(self._ext_of)
        self._vid_of[ext] = vid
        self._ext_of.append(ext)
        self._adj.append({})
        self._a.append(a)
        self._in_deg.append(0)
        self._w0.append(a)
        self._f_total += a
        if vid >= len(self._pos):
            grown = np.full(max(64, 2 * len(self._pos)), -1, dtype=np.int64)
            grown[: len(self._pos)] = self._pos
            self._pos = grown
        self._pos[vid] = -1
        return vid

    def _weigh(
        self,
        edges: Iterable[EdgeLike],
        priors: Dict[Hashable, Optional[float]],
    ) -> Tuple[List[Tuple[Hashable, Hashable, float]], Dict[Hashable, float]]:
        """Check a whole update before any state changes.

        Returns the edges as ``(src, dst, c)``, with ``esusp`` evaluated
        at the object degree each edge will see once its predecessors
        are applied (Fraudar's weighting of the final graph when edges
        arrive one at a time), and ``a`` of every vertex the update
        introduces. A self-loop or a weight outside Property 3.1 raises
        ``ValueError`` with the engine untouched.
        """
        vid_of, in_deg = self._vid_of, self._in_deg
        vsusp, esusp, check = self.metric.vsusp, self.metric.esusp, self.metric.check
        new_a: Dict[Hashable, float] = {}
        deg: Dict[Hashable, int] = {}  # object degree after this update's edges
        weighed = []
        for e in edges:
            src, dst, amount = e[0], e[1], float(e[2])
            if src == dst:
                raise ValueError(f"self-loop {src!r}->{dst!r} not supported")
            for x in (src, dst):
                if x not in vid_of and x not in new_a:
                    p = priors.get(x)
                    a = float(vsusp(self.default_prior if p is None else p))
                    check(a=a)
                    new_a[x] = a
            d = deg.get(dst)
            if d is None:
                v = vid_of.get(dst)
                d = 0 if v is None else in_deg[v]
            deg[dst] = d = d + 1
            c = float(esusp(amount, d))
            check(c=c)
            weighed.append((src, dst, c))
        return weighed, new_a

    def _apply(
        self,
        weighed: List[Tuple[Hashable, Hashable, float]],
        new_a: Dict[Hashable, float],
        head_insert: bool,
    ) -> Set[int]:
        """Add checked edges to the graph; return the vids they touch.

        New vertices are interned in first-seen order and, on the
        incremental path, placed at the head of the sequence (§4.1).
        """
        vid_of, adj, w0, in_deg = self._vid_of, self._adj, self._w0, self._in_deg
        touched: Set[int] = set()
        for src, dst, c in weighed:
            u = vid_of.get(src)
            if u is None:
                u = self._intern(src, new_a[src])
                if head_insert:
                    self._insert_head(u)
            v = vid_of.get(dst)
            if v is None:
                v = self._intern(dst, new_a[dst])
                if head_insert:
                    self._insert_head(v)
            in_deg[v] += 1
            adj[u][v] = adj[u].get(v, 0.0) + c
            adj[v][u] = adj[v].get(u, 0.0) + c
            w0[u] += c
            w0[v] += c
            self._f_total += c
            touched.add(u)
            touched.add(v)
        self._n_edges += len(weighed)
        return touched

    # ------------------------------------------------------------------
    # bulk load + static peel (initialization path)
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        edges: Iterable[EdgeLike],
        priors: Optional[Dict[Hashable, float]] = None,
    ) -> None:
        """Load the initial graph and compute its peeling sequence.

        ``edges`` yields ``(src, dst, amount, ...)`` tuples; weights are
        evaluated in arrival order exactly as ``insert_edge`` would. A
        rejected edge raises ``ValueError`` before anything is loaded.
        """
        self._apply(*self._weigh(edges, priors or {}), head_insert=False)
        self._rebuild_sequence()

    def _rebuild_sequence(self) -> None:
        """Static peel of the current graph (used at load; test comparator)."""
        n = self.n_vertices
        order, delta = peel_sequence(n, self._adj, self._a)
        pad = max(64, n // 4)
        self._order = np.empty(pad + n, dtype=np.int64)
        self._order[pad:] = order
        self._delta = np.empty(pad + n, dtype=np.float64)
        self._delta[pad:] = delta
        self._lo = pad
        self._hi = pad + n
        self._pos[self._order[pad:]] = np.arange(pad, pad + n, dtype=np.int64)
        self._refresh_detection()

    # ------------------------------------------------------------------
    # detection (the paper's Detect): argmax_i g(S_i) over the sequence
    # ------------------------------------------------------------------
    def _refresh_detection(self) -> Set[Hashable]:
        """Rescan suffix densities; return the *new* fraudsters (ext ids)."""
        lo, hi = self._lo, self._hi
        i, self._best_g = best_community(
            self._order[lo:hi], self._delta[lo:hi], self._f_total
        )
        self._best_index = lo + i
        new_comm = set(map(int, self._order[self._best_index : self._hi]))
        fresh = new_comm - self._community
        self._community = new_comm
        return {self._ext_of[v] for v in fresh}

    def detect(self) -> Tuple[Set[Hashable], float]:
        """Current fraudulent community and its density (paper ``Detect``)."""
        return self.community_external(), self._best_g

    # ------------------------------------------------------------------
    # front-gap management for head insertions of new vertices
    # ------------------------------------------------------------------
    def _ensure_front_gap(self, m: int) -> None:
        if self._lo >= m:
            return
        pad = max(64, m, (self._hi - self._lo) // 4)
        shift = pad - self._lo + m
        n_backing = len(self._order)
        order = np.empty(n_backing + shift, dtype=np.int64)
        delta = np.empty(n_backing + shift, dtype=np.float64)
        order[shift:] = self._order
        delta[shift:] = self._delta
        self._order, self._delta = order, delta
        self._lo += shift
        self._hi += shift
        self._best_index += shift
        self._pos[self._order[self._lo : self._hi]] += shift

    def _insert_head(self, vid: int) -> None:
        """Place a brand-new vertex at the head of the sequence (§4.1).

        Its stored ``Δ`` is initialized to 0 exactly as in the paper.
        This is load-bearing for correctness, not just convention: the
        stored Δ of the frontier slot lower-bounds every pending
        vertex's weight (Case 1 pops only below it), and 0 is the only
        sound bound for a slot with no greedy history. The vertex is
        always black, so its true weight is recovered on reorder.
        """
        self._ensure_front_gap(1)
        self._lo -= 1
        self._order[self._lo] = vid
        self._delta[self._lo] = 0.0
        self._pos[vid] = self._lo

    # ------------------------------------------------------------------
    # the incremental reorder (Algorithm 2; 𝒯 is the |ΔE|=1 case)
    # ------------------------------------------------------------------
    def _reorder(self, black: Set[int]) -> None:
        if not black:
            return
        order, delta, pos, adj, a = (
            self._order,
            self._delta,
            self._pos,
            self._adj,
            self._a,
        )
        end = self._hi
        black_pos = sorted(int(pos[v]) for v in black)
        bi = 0
        gray: Set[int] = set()
        gray_heap: List[int] = []  # slots of gray vertices ahead of the frontier
        wT: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        # Emitted output, assembled per contiguous rewritten segment as a
        # mix of scalar events and bulk white runs (slice references).
        segments: List[Tuple[int, List]] = []
        parts: List = []  # ("run", s, e) | ("one", vid, delta)
        k = black_pos[0]
        seg_start = k

        def close_segment() -> None:
            if parts:
                segments.append((seg_start, parts.copy()))
                parts.clear()

        while True:
            if not wT:
                # T empty: everything up to the next black keeps its old
                # order in place (stored Δ are exact again — DESIGN.md).
                close_segment()
                while bi < len(black_pos) and black_pos[bi] < k:
                    bi += 1
                if bi >= len(black_pos):
                    break
                k = black_pos[bi]
                seg_start = k
            # Lazily prune stale heap entries, then peek the T head.
            while heap and (heap[0][1] not in wT or heap[0][0] != wT[heap[0][1]]):
                heapq.heappop(heap)
            dmin = heap[0][0] if heap else np.inf
            dk = float(delta[k]) if k < end else np.inf
            if dmin <= dk:
                # Case 1: pop the pending-queue head into O'. The paper
                # pops on Δ_min < Δ_k; popping on *equality* too is an
                # equally valid greedy tie-break (pending weights are
                # still >= Δ_k >= Δ_min) and is load-bearing for
                # performance: integer-weight metrics (DG) produce long
                # Δ-plateaus, and a queued vertex that cannot pop at its
                # own weight would ride the whole plateau, dragging every
                # gray neighbor into T (the paper's own IncDG is ~1000x
                # slower than IncFD for exactly this reason).
                # Update T priorities by iterating the smaller of T and
                # N(u_min).
                _, vmin = heapq.heappop(heap)
                del wT[vmin]
                parts.append(("one", vmin, dmin))
                nbrs = adj[vmin]
                if len(wT) < len(nbrs):
                    for u in list(wT):
                        c = nbrs.get(u)
                        if c is not None:
                            wT[u] -= c
                            heapq.heappush(heap, (wT[u], u))
                else:
                    for u, c in nbrs.items():
                        if u in wT:
                            wT[u] -= c
                            heapq.heappush(heap, (wT[u], u))
                continue
            if k >= end:
                continue  # wT must be empty; loop top closes and breaks
            vk = int(order[k])
            if vk in black or vk in gray:
                # Case 2(a): affected vertex — recover its true current
                # weight (edges to T members and to pending slots).
                while bi < len(black_pos) and black_pos[bi] <= k:
                    bi += 1
                w = a[vk]
                nbr_ahead: List[Tuple[int, int]] = []
                for u, c in adj[vk].items():
                    if u in wT:
                        w += c
                    else:
                        pu = int(pos[u])
                        if pu > k:
                            w += c
                            nbr_ahead.append((u, pu))
                if w <= dk + 1e-9 * (1.0 + abs(dk)):
                    # Weight unchanged (it can never decrease): the vertex
                    # is a global minimum exactly like a white frontier
                    # vertex, so emit it in place WITHOUT entering T or
                    # coloring its neighborhood. This prunes the gray
                    # cascade to the genuinely affected area: a dense
                    # community's halo would otherwise be re-peeled on
                    # every nearby insertion.
                    parts.append(("one", vk, dk))
                    k += 1
                    continue
                wT[vk] = w
                heapq.heappush(heap, (w, vk))
                # Color only pending neighbors ahead of the frontier gray
                # (paper line 6/15: O[j], j > i); vertices behind can
                # never be frontier-tested.
                for u, pu in nbr_ahead:
                    if u not in gray:
                        gray.add(u)
                        heapq.heappush(gray_heap, pu)
                k += 1
                continue
            # Case 2(b): white frontier vertex — its stored Δ is exact;
            # emit it, and extend to the whole run of whites whose Δ
            # stays strictly below Δ_min (vectorized scan instead of a
            # python walk; at Δ = Δ_min the pop branch takes over).
            while gray_heap and gray_heap[0] <= k:
                heapq.heappop(gray_heap)
            nb = black_pos[bi] if bi < len(black_pos) else end
            ng = gray_heap[0] if gray_heap else end
            limit = min(nb, ng, end)
            if limit <= k + 1:
                event = k + 1
            else:
                exceed = np.flatnonzero(delta[k + 1 : limit] >= dmin)
                event = (k + 1 + int(exceed[0])) if len(exceed) else limit
            parts.append(("run", k, event))
            k = event
        close_segment()

        # Write the rewritten segments back (vectorized per segment).
        for start, segment in segments:
            vs: List[np.ndarray] = []
            ds: List[np.ndarray] = []
            for p in segment:
                if p[0] == "run":
                    _, s, e = p
                    vs.append(order[s:e].copy())
                    ds.append(delta[s:e].copy())
                else:
                    _, vid, d = p
                    vs.append(np.array([vid], dtype=np.int64))
                    ds.append(np.array([d], dtype=np.float64))
            seg_v = np.concatenate(vs)
            seg_d = np.concatenate(ds)
            stop = start + len(seg_v)
            order[start:stop] = seg_v
            delta[start:stop] = seg_d
            pos[seg_v] = np.arange(start, stop, dtype=np.int64)

    # ------------------------------------------------------------------
    # public update APIs (paper Listing 1)
    # ------------------------------------------------------------------
    def insert_edge(
        self,
        src: Hashable,
        dst: Hashable,
        amount: float = 1.0,
        src_prior: Optional[float] = None,
        dst_prior: Optional[float] = None,
    ) -> Set[Hashable]:
        """InsertEdge: apply one edge and reorder (§4.1). Returns new fraudsters."""
        return self.insert_batch(
            [(src, dst, amount)], priors={src: src_prior, dst: dst_prior}
        )

    def insert_batch(
        self,
        edges: Sequence[EdgeLike],
        priors: Optional[Dict[Hashable, Optional[float]]] = None,
    ) -> Set[Hashable]:
        """InsertBatchEdges: apply ``ΔE`` and reorder once (Algorithm 2).

        The whole batch is checked first: a rejected edge raises
        ``ValueError`` and leaves the engine as it was.
        """
        black = self._apply(*self._weigh(edges, priors or {}), head_insert=True)
        self._reorder(black)
        return self._refresh_detection()

    # ------------------------------------------------------------------
    # edge grouping (§4.3)
    # ------------------------------------------------------------------
    def is_benign(self, src: Hashable, dst: Hashable, amount: float = 1.0) -> bool:
        """Definition 4.1 against the *current* graph and community density.

        Benign iff ``w_u(S_0)+c < g(S^P)`` for **both** endpoints. The
        candidate weight ``c`` is evaluated with the object degree the
        edge *would* have (current in-degree + 1), without mutating
        state. Unknown endpoints contribute ``w(S_0) = vsusp(default)``.
        An edge the engine would reject raises ``ValueError``, so it
        never reaches the benign buffer.
        """
        u = self._vid_of.get(src)
        v = self._vid_of.get(dst)
        deg = (self._in_deg[v] if v is not None else 0) + 1
        c = float(self.metric.esusp(float(amount), deg))
        if src == dst or not 0.0 < c < math.inf:
            self._weigh([(src, dst, amount)], {})  # raises the batch path's error
        w_u = self._w0[u] if u is not None else float(
            self.metric.vsusp(self.default_prior)
        )
        w_v = self._w0[v] if v is not None else float(
            self.metric.vsusp(self.default_prior)
        )
        g = self._best_g
        return (w_u + c < g) and (w_v + c < g)

    def insert_grouped(
        self,
        src: Hashable,
        dst: Hashable,
        amount: float = 1.0,
        max_buffer: Optional[int] = None,
    ) -> Set[Hashable]:
        """Edge-grouping insertion: buffer benign edges, flush on urgent.

        Returns newly-detected fraudsters (empty while buffering). An
        optional ``max_buffer`` bounds the buffer so purely-benign
        streams still flush periodically (the paper's buffer is flushed
        by urgent edges; Table 5's grouping rows accumulate >1K edges).
        A rejected edge raises with the buffer and the graph unchanged.
        """
        if self.is_benign(src, dst, amount):
            self._benign_buffer.append((src, dst, amount))
            if max_buffer is not None and len(self._benign_buffer) >= max_buffer:
                return self.flush_buffer()
            return set()
        fresh = self.insert_batch(self._benign_buffer + [(src, dst, amount)])
        self._benign_buffer = []
        return fresh

    def flush_buffer(self) -> Set[Hashable]:
        """Force-apply any buffered benign edges (end-of-stream flush)."""
        if not self._benign_buffer:
            return set()
        fresh = self.insert_batch(self._benign_buffer)
        self._benign_buffer = []
        return fresh
