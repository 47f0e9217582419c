"""Fast adjacency kernels: CSR arrays, bitsets, label masks.

The mining inner loop is dominated by *candidate-pool computation*:
intersect the adjacency of a handful of anchor vertices, restrict to a
label, and filter by symmetry bounds and injectivity.  The seed
implementation does all of that with per-vertex ``frozenset``s and a
per-candidate Python filter loop.  This module provides the kernel
layer the engines rewire onto (the cache-friendly substrate of the
paper's Peregrine+ baseline, §2.3, with GraphMini-style pruned
auxiliary adjacency).  There are two adjacency modes:

``sets``
    The seed ``frozenset`` path
    (:func:`repro.mining.candidates.raw_intersection`), the reference
    every kernel result is checked against (no index built).

``auto``
    The default.  Everything it chooses, it chooses from what it can
    observe:

    * *graph tier* — below :data:`AUTO_MIN_AVG_DEGREE` the whole graph
      stays on the ``sets`` path (:func:`auto_selects_kernels`);
    * *pool tier* — a pool seeded at an anchor of degree at least
      :data:`BITSET_MIN_DEGREE` is a per-vertex Python big-int
      bitmask: CPython big-int ``&`` intersects 64 vertices per
      machine word, and symmetry bounds, injectivity, label
      restriction and non-neighbor filters all stay mask ANDs until
      one final decode.  A pool seeded at a lower degree intersects
      hash sets (the AND cost of a bitset is proportional to n/64
      regardless of degree) and is kept as an ascending tuple.

:func:`resolve_index` is the one place that knows which mode strings
exist and when ``auto`` engages the kernels.

Everything is built lazily per vertex / per label, so tasks touching a
few vertices of a large graph never pay an O(n + m) spike.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .graph import Graph

#: Public adjacency-mode names, as accepted by engines and the CLI.
ADJACENCY_MODES: Tuple[str, ...] = ("auto", "sets")

#: Pool tier of ``auto``: a pool is a bitset when the smallest anchor
#: degree is at least this; below it, hash-set intersection wins (the
#: AND cost of a bitset is proportional to n/64 regardless of degree).
BITSET_MIN_DEGREE = 16

#: Graph-level tier of the ``auto`` hybrid: below this average degree
#: the whole graph stays on the legacy frozenset path.  Sparse pools
#: are so small that the kernel layer's fixed per-step cost (semantic
#: cache keys) exceeds what its intersections save over C-speed
#: hash-set ``&``.  Calibrated against the bundled dataset analogs: on
#: the densest committed sparse workload (dblp, avg degree ~5.8) every
#: kernel mode measures 0.89–0.91x end-to-end,
#: so the fallback *is* the optimal tier there — ``auto`` on a sparse
#: graph dispatches to the identical code path as ``sets`` and cannot
#: lose to it by construction (guarded by a dispatch-identity test).
AUTO_MIN_AVG_DEGREE = 16.0


def auto_selects_kernels(graph: "Graph") -> bool:
    """Whether ``auto`` engages the kernel layer for ``graph``.

    This is the coarse tier of the degree-threshold hybrid; the fine
    tier (:data:`BITSET_MIN_DEGREE`, inside :meth:`GraphIndex.pool`)
    picks the pool representation per intersection once kernels are
    in play.
    """
    if graph.num_vertices == 0:
        return False
    return 2.0 * graph.num_edges / graph.num_vertices >= AUTO_MIN_AVG_DEGREE


def resolve_index(graph: "Graph", adjacency: str) -> Optional["GraphIndex"]:
    """The kernel index an adjacency mode runs ``graph`` on, if any.

    ``"sets"`` means the seed frozenset path (no index), as does
    ``"auto"`` on a sparse graph (:func:`auto_selects_kernels`);
    otherwise the graph's shared :meth:`Graph.kernel_index`.  Every
    engine and VTask validates its ``adjacency`` argument by calling
    this, so an unknown mode is the same ``ValueError`` everywhere.
    """
    if adjacency not in ADJACENCY_MODES:
        raise ValueError(
            f"adjacency must be one of {ADJACENCY_MODES}, got {adjacency!r}"
        )
    if adjacency == "sets" or not auto_selects_kernels(graph):
        return None
    return graph.kernel_index()


def _require_auto(mode: str) -> None:
    """``auto`` is the only kernel mode; the ``mode`` parameters of
    :class:`GraphIndex` and :meth:`Graph.kernel_index` remain because
    the frozen benchmark ledger passes it (ROADMAP items 1 and 3)."""
    if mode != "auto":
        raise ValueError(
            f"the kernel index has one mode, 'auto'; got {mode!r} "
            f"(the 'sets' mode needs no index)"
        )


#: A candidate pool in kernel form: a big-int bitmask (high-degree
#: seed) or an ascending vertex tuple (low-degree seed).
Pool = Union[int, Tuple[int, ...]]

# Bit positions set in each byte value, precomputed once: decoding a
# bitset walks its bytes (C-speed ``int.to_bytes``) and only touches
# non-zero ones.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1)
    for byte in range(256)
)


def bits_from_sorted(vertices: Sequence[int], num_vertices: int) -> int:
    """Big-int bitmask with one bit per vertex in ``vertices``.

    Built through a ``bytearray`` so construction is O(n/8 + d) rather
    than the O(d * n/64) of repeated ``1 << v`` shifting.
    """
    if not vertices:
        return 0
    buf = bytearray(num_vertices // 8 + 1)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bytes(buf), "little")


def bits_to_sorted(bits: int) -> List[int]:
    """Decode a bitmask to its ascending list of set bit positions."""
    out: List[int] = []
    if bits <= 0:
        return out
    raw = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    append = out.append
    byte_bits = _BYTE_BITS
    base = 0
    for byte in raw:
        if byte:
            for bit in byte_bits[byte]:
                append(base + bit)
        base += 8
    return out


class GraphIndex:
    """Kernel-form adjacency for one :class:`~repro.graph.graph.Graph`.

    One index serves every engine over the graph; obtain it through
    :meth:`Graph.kernel_index`, which serves one instance per graph
    version from the process-global
    :class:`~repro.graph.store.DerivedCache` — content-identical
    graphs (e.g. per-shard unpickled copies landing in one worker)
    share the index instead of each building one.  All heavy
    structures are lazy: the CSR arrays are built on first
    construction (O(n + m), flat ints), bitsets and label masks per
    vertex / per label on first touch.

    ``graph_version`` records the content version the index was built
    from, so diagnostics and run records can attribute a kernel to
    its exact source snapshot.
    """

    __slots__ = (
        "graph",
        "cache_key",
        "graph_version",
        "_offsets",
        "_flat",
        "_bits",
        "_label_bits",
    )

    def __init__(
        self,
        graph: "Graph",
        mode: str = "auto",
        csr: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
        cache_tag: Optional[str] = None,
    ) -> None:
        """``csr`` adopts prebuilt ``(offsets, flat)`` arrays instead of
        deriving them from the graph's adjacency rows — the zero-copy
        path: a worker attached to a shared-memory graph segment hands
        the segment's views straight to the index.

        ``cache_tag`` disambiguates this index's pools in shared
        set-operation caches: indexes over *different adjacency* for
        the same data graph (auxiliary pruned graphs,
        :mod:`repro.graph.aux`) must not answer each other's cache
        lookups, so their :attr:`cache_key` carries the tag while
        the graph's own index keeps the bare mode string."""
        _require_auto(mode)
        self.graph = graph
        self.cache_key = mode if cache_tag is None else f"{mode}#{cache_tag}"
        self.graph_version = graph.version_key
        if csr is not None:
            self._offsets = csr[0]
            self._flat = csr[1]
        else:
            offsets = array("l", [0])
            flat = array("l")
            for v in graph.vertices():
                flat.extend(graph.neighbors(v))
                offsets.append(len(flat))
            self._offsets = offsets
            self._flat = flat
        self._bits: Dict[int, int] = {}
        self._label_bits: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Primitive accessors
    # ------------------------------------------------------------------

    def window(self, v: int) -> Tuple[int, int]:
        """CSR window ``(lo, hi)`` of ``v`` inside the flat array."""
        return self._offsets[v], self._offsets[v + 1]

    def degree(self, v: int) -> int:
        return self._offsets[v + 1] - self._offsets[v]

    def neighbor_bits(self, v: int) -> int:
        """Adjacency of ``v`` as a bitmask (lazy, cached per vertex)."""
        bits = self._bits.get(v)
        if bits is None:
            lo, hi = self.window(v)
            bits = bits_from_sorted(
                self._flat[lo:hi], self.graph.num_vertices
            )
            self._bits[v] = bits
        return bits

    def label_bits(self, label: int) -> int:
        """Bitmask of all vertices carrying ``label`` (lazy, cached)."""
        bits = self._label_bits.get(label)
        if bits is None:
            bits = bits_from_sorted(
                self.graph.vertices_with_label(label),
                self.graph.num_vertices,
            )
            self._label_bits[label] = bits
        return bits

    def has_edge(self, u: int, v: int) -> bool:
        """Edge probe by binary search on the smaller CSR window."""
        if u == v:
            return False
        if self.degree(v) < self.degree(u):
            u, v = v, u
        lo, hi = self.window(u)
        i = bisect_left(self._flat, v, lo, hi)
        return i < hi and self._flat[i] == v

    # ------------------------------------------------------------------
    # Pool kernels
    # ------------------------------------------------------------------

    def pool(
        self,
        anchors: Sequence[int],
        label: Optional[int],
        stats: Optional["_IntersectionStats"] = None,
    ) -> Pool:
        """Common neighbors of ``anchors``, label-restricted, in kernel
        form (bitmask or ascending tuple; see :data:`Pool`).

        The smallest-degree anchor seeds the pool and its degree picks
        the representation (:data:`BITSET_MIN_DEGREE`); label
        restriction happens inside the kernel.
        """
        ordered = sorted(anchors, key=self.degree)
        seed = ordered[0]
        if self.degree(seed) >= BITSET_MIN_DEGREE:
            bits = self.neighbor_bits(seed)
            for v in ordered[1:]:
                bits &= self.neighbor_bits(v)
                if stats is not None:
                    stats.set_intersections += 1
                    stats.bitset_intersections += 1
                if not bits:
                    return 0
            if label is not None:
                bits &= self.label_bits(label)
            return bits
        # Sparse seed: hash-set intersection runs at C speed; one final
        # sort restores the kernel contract (ascending tuple).
        members = self.graph.neighbor_set(seed)
        for v in ordered[1:]:
            members = members & self.graph.neighbor_set(v)
            if stats is not None:
                stats.set_intersections += 1
            if not members:
                return ()
        if label is not None:
            data_label = self.graph.label
            return tuple(
                sorted(v for v in members if data_label(v) == label)
            )
        return tuple(sorted(members))

    def refine(
        self,
        pool: Pool,
        anchors: Sequence[int],
        stats: Optional["_IntersectionStats"] = None,
    ) -> Pool:
        """Intersect an existing pool with more anchors' adjacency.

        The pool keeps its representation; anchors of either degree
        class work.  No engine calls this: like :func:`_require_auto`
        it remains because the frozen benchmark ledger times it
        (``graph.index.pool_us``; ROADMAP items 1 and 3).
        """
        if isinstance(pool, int):
            for v in anchors:
                pool &= self.neighbor_bits(v)
                if stats is not None:
                    stats.set_intersections += 1
                    stats.bitset_intersections += 1
                if not pool:
                    return 0
            return pool
        # Sorted pool + hash membership keeps the output ascending.
        kept: Sequence[int] = pool
        for v in anchors:
            members = self.graph.neighbor_set(v)
            kept = [x for x in kept if x in members]
            if stats is not None:
                stats.set_intersections += 1
            if not kept:
                break
        return tuple(kept)

    def __repr__(self) -> str:
        return (
            f"GraphIndex({self.cache_key!r}, |V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges}, bitsets={len(self._bits)})"
        )


class _IntersectionStats(Protocol):
    """Structural protocol for the counters the kernels bump.

    :class:`repro.mining.stats.MiningStats` satisfies it; typed here
    so this module stays free of mining imports (strict mypy, no
    cycles).
    """

    set_intersections: int
    bitset_intersections: int
    galloping_intersections: int
