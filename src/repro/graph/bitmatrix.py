"""Bit-packed dense adjacency backend for near-dense perturbed graphs.

Randomized response at the paper's epsilon range flips 10-50% of all node
pairs, so every perturbed graph the estimators consume is effectively *dense*
— yet the estimation stack was built for sparse graphs: per-node triangle
counts via ``diag(A @ A @ A)`` on a scipy CSR matrix cost
``O(sum_i d_i^2) = O(theta^2 n^3)`` multiply-adds plus index churn.

:class:`BitMatrix` packs each adjacency row into uint64 words (64 pairs per
word).  Triangle counts become row-AND + popcount over a node's neighbour
rows — ``O(2 E n / 64) <= O(n^3 / 64)`` word operations — and degrees, edge
counts and intra-community edge counts are plain popcounts.  Every quantity
is an exact integer, so the packed path is **bit-identical** to the sparse
path: dispatching between them (``should_use_packed``) never changes a
result, which keeps every engine cache entry valid.

Dispatch knobs (both overridable per process):

* ``REPRO_DENSE_THRESHOLD`` — edge-density threshold above which metrics
  route through the packed backend (default ``0.05``).
* ``REPRO_DENSE_MAX_BYTES`` — upper bound on the packed matrix size; bigger
  graphs stay on the sparse path regardless of density (default 1 GiB).
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.sparse import pair_count

#: Edge density above which the packed backend beats sparse matmul.
DEFAULT_DENSITY_THRESHOLD = 0.05

#: Environment variable overriding :data:`DEFAULT_DENSITY_THRESHOLD`.
DENSITY_THRESHOLD_ENV = "REPRO_DENSE_THRESHOLD"

#: Default cap on packed-matrix memory (n^2/8 bytes): 1 GiB ~ 92k nodes.
DEFAULT_MAX_PACKED_BYTES = 1 << 30

#: Environment variable overriding :data:`DEFAULT_MAX_PACKED_BYTES`.
MAX_PACKED_BYTES_ENV = "REPRO_DENSE_MAX_BYTES"


def density_threshold() -> float:
    """The edge-density threshold for packed dispatch (env-overridable)."""
    return float(os.environ.get(DENSITY_THRESHOLD_ENV, DEFAULT_DENSITY_THRESHOLD))


def max_packed_bytes() -> int:
    """The packed-matrix memory cap in bytes (env-overridable)."""
    return int(os.environ.get(MAX_PACKED_BYTES_ENV, DEFAULT_MAX_PACKED_BYTES))


def should_use_packed(graph) -> bool:
    """Whether ``graph`` should route dense-friendly metrics through packing.

    True when the graph is dense enough for word-parallel popcounting to beat
    the sparse code paths and small enough for the n x ceil(n/64) uint64
    matrix to fit the memory cap.  Both backends are exact, so this predicate
    only affects speed, never results.
    """
    n = graph.num_nodes
    if n < 3:
        return False
    if n * n // 8 > max_packed_bytes():
        return False
    return graph.num_edges / pair_count(n) >= density_threshold()


_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
#: Per-byte popcount table for numpy < 2.0 (no ``np.bitwise_count``).
_BYTE_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

#: Word budget (32 MiB) for the transient gather/AND buffers of the masked
#: popcount passes, keeping peak memory bounded regardless of node degree.
_CHUNK_WORDS = 1 << 22


def _row_popcounts(words: np.ndarray) -> np.ndarray:
    """Total set bits along the last axis of a uint64 array."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    return _BYTE_POPCOUNT[words.view(np.uint8)].sum(axis=-1, dtype=np.int64)


#: Cached ``(word_index, bit_shift)`` pairs per node count — every row
#: decode needs them and they only depend on ``n``.
_BIT_INDEX_CACHE: dict = {}
_BIT_INDEX_CACHE_LIMIT = 8


def bit_index_arrays(num_nodes: int):
    """``(word_index, bit_shift)`` for extracting bit ``j`` of a packed row.

    Bit ``j`` lives in word ``j >> 6`` at position ``j & 63``; the arrays are
    read-only and cached per ``n`` so repeated sweeps stop reallocating
    them.
    """
    cached = _BIT_INDEX_CACHE.get(num_nodes)
    if cached is None:
        positions = np.arange(num_nodes, dtype=np.int64)
        word_index = positions >> 6
        bit_shift = (positions & 63).astype(np.uint64)
        word_index.setflags(write=False)
        bit_shift.setflags(write=False)
        cached = (word_index, bit_shift)
        _BIT_INDEX_CACHE[num_nodes] = cached
        while len(_BIT_INDEX_CACHE) > _BIT_INDEX_CACHE_LIMIT:
            _BIT_INDEX_CACHE.pop(next(iter(_BIT_INDEX_CACHE)))
    return cached


def accumulate_bits(positions: np.ndarray, bit: np.ndarray, size: int) -> np.ndarray:
    """OR ``1 << bit`` into a zeroed uint64 array of length ``size``.

    Requires every ``(position, bit)`` pair to be unique: then summing the
    per-word bit values is an exact OR, and the sum runs as two buffered
    :func:`np.bincount` passes — far faster than the unbuffered
    ``np.bitwise_or.at`` ufunc for near-dense sets.  bincount accumulates in
    float64, hence the split into two 32-bit halves (every partial sum stays
    < 2^32, exactly representable).

    Sparse sets (set bits ≪ ``size``, the streaming row blocks of barely
    perturbed million-node graphs) skip the bincount: its cost is O(``size``)
    regardless of how few bits are set.  There the bits are grouped by word
    with one argsort and OR-reduced per group — O(k log k) in the k set bits,
    with only the zeroed output ever touching all ``size`` words.
    """
    out = np.zeros(size, dtype=np.uint64)
    if positions.size == 0:
        return out
    if positions.size < size // 8:
        values = np.left_shift(np.uint64(1), bit.astype(np.uint64))
        order = np.argsort(positions, kind="stable")
        grouped = positions[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        out[grouped[starts]] = np.bitwise_or.reduceat(values[order], starts)
        return out
    low = bit < 32
    if low.any():
        weights = (1 << bit[low]).astype(np.float64)
        out |= np.bincount(positions[low], weights=weights, minlength=size).astype(
            np.uint64
        )
    high = ~low
    if high.any():
        weights = (1 << (bit[high] - 32)).astype(np.float64)
        out |= np.bincount(positions[high], weights=weights, minlength=size).astype(
            np.uint64
        ) << np.uint64(32)
    return out


def _word_popcounts(words_1d: np.ndarray) -> np.ndarray:
    """Set bits of each element of a 1-D uint64 array (values <= 64)."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words_1d)
    return _BYTE_POPCOUNT[words_1d.view(np.uint8)].reshape(words_1d.size, 8).sum(
        axis=-1, dtype=np.uint8
    )


def _pair_popcounts(flat_rows: np.ndarray, us: np.ndarray, vs: np.ndarray):
    """Yield ``(start, pops)``: ``popcount(row_u & row_v)`` per pair, chunked.

    ``flat_rows`` is a ``(rows, words)`` packed matrix and ``us``/``vs``
    index into its first axis; ``pops`` holds the counts of pairs
    ``start .. start + pops.size - 1`` as float64, ready for a weighted
    bincount.  For an edge ``{u, v}`` the count is the number of common
    neighbours — the triangles through that edge.

    The sweep runs word-column-major over a transposed copy of the matrix:
    gathering one word column per endpoint keeps both the gather sources
    and the popcount accumulation contiguous, which beats the row-major
    ``(pairs, words)`` gather by ~2x (the short last axis defeats the
    vectorised reduction there) and holds only one word column of each
    chunk at a time.  Popcount partial sums stay within the accumulator
    dtype (``<= 64 * words ~ n``); the float64 copies are exact, every
    value far below 2^53.
    """
    num_words = flat_rows.shape[1]
    columns = np.ascontiguousarray(flat_rows.T)
    acc_dtype = np.uint16 if num_words << 6 <= 0xFFFF else np.uint32
    chunk = max(1, _CHUNK_WORDS // max(1, num_words))
    for start in range(0, us.size, chunk):
        block_u = us[start : start + chunk]
        block_v = vs[start : start + chunk]
        acc = np.zeros(block_u.size, dtype=acc_dtype)
        for word in range(num_words):
            acc += _word_popcounts(columns[word, block_u] & columns[word, block_v])
        yield start, acc.astype(np.float64)


def _gather_triangles(
    flat_rows: np.ndarray,
    edge_rows: np.ndarray,
    edge_cols: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """Per-node triangle counts from one edge-gather/AND/popcount sweep.

    Each edge contributes its common-neighbour count
    (:func:`_pair_popcounts`) to both endpoints; every incident triangle of
    a node is hit exactly twice, once per far endpoint of its opposite
    edge, so a halving yields exact counts.
    """
    counts = np.zeros(num_nodes, dtype=np.int64)
    for start, pops in _pair_popcounts(flat_rows, edge_rows, edge_cols):
        stop = start + pops.size
        for endpoints in (edge_rows[start:stop], edge_cols[start:stop]):
            counts += np.bincount(endpoints, weights=pops, minlength=num_nodes).astype(
                np.int64
            )
    return counts // 2


def _masked_popcount_sum(matrix: np.ndarray, row_ids: np.ndarray, mask: np.ndarray) -> int:
    """``sum(popcount(matrix[i] & mask) for i in row_ids)``, chunked.

    The fancy-index gather and the AND result are matrix-row-sized
    temporaries; chunking ``row_ids`` keeps them a constant ~32 MiB apiece so
    peak memory stays within the ``REPRO_DENSE_MAX_BYTES`` promise instead of
    tripling it on high-degree nodes.
    """
    chunk = max(1, _CHUNK_WORDS // max(matrix.shape[1], 1))
    total = 0
    for start in range(0, row_ids.size, chunk):
        block = row_ids[start : start + chunk]
        total += int(_row_popcounts(matrix[block] & mask).sum())
    return total


class BitMatrix:
    """Symmetric 0/1 adjacency matrix with rows packed into uint64 words.

    Bit ``j`` of row ``i`` (word ``j >> 6``, position ``j & 63``) is 1 iff
    the undirected edge ``{i, j}`` exists.  The diagonal is always 0.

    >>> from repro.graph.adjacency import Graph
    >>> bm = BitMatrix.from_graph(Graph(4, [(0, 1), (1, 2), (2, 0)]))
    >>> bm.degrees().tolist()
    [2, 2, 2, 0]
    >>> bm.triangles_per_node().tolist()
    [1, 1, 1, 0]
    """

    __slots__ = ("num_nodes", "num_words", "rows")

    def __init__(self, num_nodes: int, rows: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.num_words = (self.num_nodes + 63) >> 6
        if rows.shape != (self.num_nodes, self.num_words):
            raise ValueError(
                f"packed rows have shape {rows.shape}, expected "
                f"({self.num_nodes}, {self.num_words})"
            )
        self.rows = rows

    @classmethod
    def from_graph(cls, graph) -> "BitMatrix":
        """Pack a :class:`repro.graph.Graph` (O(E) plus the matrix zeroing)."""
        rows, cols = graph.edge_arrays()
        return cls.from_edge_arrays(graph.num_nodes, rows, cols)

    @classmethod
    def from_edge_arrays(cls, num_nodes: int, rows: np.ndarray, cols: np.ndarray) -> "BitMatrix":
        """Pack aligned edge arrays (duplicate-free, self-loop-free)."""
        n = int(num_nodes)
        words = (n + 63) >> 6
        if n == 0 or rows.size == 0:
            return cls(n, np.zeros((n, words), dtype=np.uint64))
        sym_rows = np.concatenate([rows, cols])
        sym_cols = np.concatenate([cols, rows])
        flat = sym_rows * words + (sym_cols >> 6)
        bit = sym_cols & 63
        # Each (row, bit) position appears at most once in a simple graph, so
        # the split-bincount accumulation is an exact OR.
        matrix = accumulate_bits(flat, bit, n * words)
        return cls(n, matrix.reshape(n, words))

    # ------------------------------------------------------------------
    # Exact integer counts
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every node (row popcounts)."""
        return _row_popcounts(self.rows)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.degrees().sum()) // 2

    def edge_density(self) -> float:
        """Fraction of node pairs that are edges."""
        pairs = pair_count(self.num_nodes)
        if pairs == 0:
            return 0.0
        return self.num_edges / pairs

    def _row_neighbours(self, nodes: np.ndarray) -> tuple:
        """Every set bit of the rows of ``nodes`` as ``(positions, neighbours)``.

        ``neighbours[k]`` is adjacent to ``nodes[positions[k]]``; pairs come
        ordered by position, then by neighbour.  Decoded in row blocks of
        ~32 MiB (endian-independent ``word >> position`` extraction), so
        callers that do not hold the edge list can still drive the
        edge-gather kernels.
        """
        n = self.num_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if n == 0 or nodes.size == 0:
            return empty, empty
        word_index, bit_shift = bit_index_arrays(n)
        one = np.uint64(1)
        block = max(1, _CHUNK_WORDS // n)
        positions, neighbours = [], []
        for start in range(0, nodes.size, block):
            present = self.rows[nodes[start : start + block, None], word_index]
            present >>= bit_shift
            present &= one
            block_positions, block_neighbours = np.nonzero(present)
            positions.append(block_positions + start)
            neighbours.append(block_neighbours)
        return np.concatenate(positions), np.concatenate(neighbours)

    def edge_endpoints(self) -> tuple:
        """Edges as aligned ``(rows, cols)`` arrays with ``rows < cols``."""
        rows, cols = self._row_neighbours(np.arange(self.num_nodes))
        keep = cols > rows
        return rows[keep], cols[keep]

    def triangles_per_node(self, edges: tuple | None = None) -> np.ndarray:
        """Number of triangles incident to each node.

        Edge-gather formulation: for every edge ``{u, v}``,
        ``popcount(row_u & row_v)`` is the number of common neighbours —
        triangles through that edge — and accumulating it onto both
        endpoints counts each node's incident triangles exactly twice
        (once per far endpoint of the opposite edge), so a halving yields
        the exact count in ``O(E ceil(n/64))`` word operations with no
        per-node Python loop.  ``edges`` lets callers that already hold the
        decoded ``(rows, cols)`` arrays skip re-extracting them from the
        packed bits.
        """
        n = self.num_nodes
        if n == 0:
            return np.zeros(n, dtype=np.int64)
        if edges is None:
            edge_rows, edge_cols = self.edge_endpoints()
        else:
            edge_rows = np.asarray(edges[0], dtype=np.int64)
            edge_cols = np.asarray(edges[1], dtype=np.int64)
        return _gather_triangles(self.rows, edge_rows, edge_cols, n)

    def triangles_at(self, nodes: np.ndarray) -> np.ndarray:
        """Number of triangles incident to each of ``nodes`` (aligned).

        The edge-gather of :meth:`triangles_per_node` restricted to the
        ``(node, neighbour)`` pairs of the requested rows, accumulated onto
        the owning node only: each incident triangle ``{u, v, w}`` of ``u``
        is hit once through ``v`` and once through ``w``, so a halving
        yields the exact count in ``O(sum_u d_u ceil(n/64))`` word
        operations — a ``|nodes| / n`` fraction of the full sweep when the
        caller reads only a few nodes' counts.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = np.zeros(nodes.size, dtype=np.int64)
        positions, neighbours = self._row_neighbours(nodes)
        for start, pops in _pair_popcounts(self.rows, nodes[positions], neighbours):
            owners = positions[start : start + pops.size]
            counts += np.bincount(owners, weights=pops, minlength=nodes.size).astype(
                np.int64
            )
        return counts // 2

    def with_edits(
        self,
        add_rows: np.ndarray,
        add_cols: np.ndarray,
        drop_rows: np.ndarray,
        drop_cols: np.ndarray,
    ) -> "BitMatrix":
        """A new matrix with the given edges dropped and added (row patching).

        This is the packed counterpart of rebuilding the graph after an
        attack override: instead of re-packing all ``E`` edges, the before
        matrix's rows are copied once (a flat memcpy) and only the changed
        pairs — a ``~beta`` fraction under the paper's threat model — are
        toggled, in both orientations.  Each edit set must be duplicate-free
        (the callers pass decoded *net* added/removed pair codes, which are
        sorted and unique by construction): the toggles accumulate through
        the same split-bincount trick as :meth:`from_edge_arrays`, where a
        repeated pair would carry into the neighbouring bit.
        """
        flat_rows = self.rows.copy().reshape(-1)
        drop_rows = np.asarray(drop_rows, dtype=np.int64)
        add_rows = np.asarray(add_rows, dtype=np.int64)
        if drop_rows.size:
            self._toggle_bits(flat_rows, drop_rows, drop_cols, clear=True)
        if add_rows.size:
            self._toggle_bits(flat_rows, add_rows, add_cols, clear=False)
        return BitMatrix(self.num_nodes, flat_rows.reshape(self.rows.shape))

    def _toggle_bits(
        self, flat_rows: np.ndarray, edit_rows: np.ndarray, edit_cols: np.ndarray,
        clear: bool,
    ) -> None:
        """Set or clear the bits of duplicate-free edits, both orientations.

        The touched flat word positions are compacted with ``np.unique`` so
        the split-bincount accumulator builds an edit-sized mask instead of a
        matrix-sized one, then applied with one fancy OR / AND-NOT store.
        """
        edit_cols = np.asarray(edit_cols, dtype=np.int64)
        sym_r = np.concatenate([edit_rows, edit_cols])
        sym_c = np.concatenate([edit_cols, edit_rows])
        flat = sym_r * self.num_words + (sym_c >> 6)
        unique, inverse = np.unique(flat, return_inverse=True)
        mask = accumulate_bits(inverse, sym_c & 63, unique.size)
        if clear:
            flat_rows[unique] &= ~mask
        else:
            flat_rows[unique] |= mask

    def intra_community_edges(self, labels: np.ndarray, num_communities: int) -> np.ndarray:
        """Number of edges with both endpoints in each community.

        Exactly :func:`np.bincount` over same-label edges, computed as
        popcounts of member rows masked by the community's packed indicator —
        ``O(n ceil(n/64))`` words instead of touching every edge index.
        """
        labels = np.asarray(labels, dtype=np.int64)
        counts = np.zeros(num_communities, dtype=np.int64)
        one = np.uint64(1)
        for community in range(num_communities):
            members = np.flatnonzero(labels == community)
            if members.size < 2:
                continue
            mask = np.zeros(self.num_words, dtype=np.uint64)
            np.bitwise_or.at(
                mask, members >> 6, one << (members & 63).astype(np.uint64)
            )
            counts[community] = _masked_popcount_sum(self.rows, members, mask) // 2
        return counts

    def __repr__(self) -> str:
        return f"BitMatrix(num_nodes={self.num_nodes}, num_words={self.num_words})"
