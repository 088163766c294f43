"""Exact (non-private) graph metrics.

These are the ground-truth counterparts of the LDP estimators in
``repro.protocols``: normalized degree centrality (Eq. 8 of the paper), the
local clustering coefficient (Eq. 12), per-node triangle counts, edge density
and Newman modularity.  All operate on :class:`repro.graph.Graph`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, should_use_packed
from repro.graph.streaming import should_stream, streaming_triangles_per_node
from repro.telemetry.core import current_tracer
from repro.utils.sparse import pair_count


def degree_centrality(graph: Graph) -> np.ndarray:
    """Normalized degree centrality ``c_i = d_i / (N - 1)`` for every node.

    >>> g = Graph(3, [(0, 1), (0, 2)])
    >>> degree_centrality(g).tolist()
    [1.0, 0.5, 0.5]
    """
    n = graph.num_nodes
    if n <= 1:
        return np.zeros(n, dtype=np.float64)
    return graph.degrees().astype(np.float64) / (n - 1)


def triangles_per_node(graph: Graph) -> np.ndarray:
    """Number of triangles incident to each node (``tau_i`` in the paper).

    Density-adaptive: graphs above the packed-dispatch threshold (e.g. the
    near-dense output of low-epsilon randomized response) are counted via
    bit-packed row-AND + popcount (:class:`repro.graph.bitmatrix.BitMatrix`);
    dense-leaning graphs whose packed matrix exceeds
    ``REPRO_DENSE_MAX_BYTES`` stream packed row blocks instead
    (:func:`repro.graph.streaming.streaming_triangles_per_node`); sparser
    graphs go via ``diag(A @ A @ A) / 2`` on scipy CSR matrices.  All three
    backends produce exact integer counts, so the dispatch never changes a
    result.

    Every call is one full sweep, counted by the ``triangles.full`` tracer
    counter; callers that read only a few nodes' counts use
    :func:`triangles_at` instead.
    """
    current_tracer().counter("triangles.full")
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if should_use_packed(graph):
        return _triangles_packed(graph)
    if should_stream(graph):
        return streaming_triangles_per_node(graph)
    return _triangles_sparse(graph)


def triangles_at(
    graph: Graph, nodes: np.ndarray, packed: Optional[BitMatrix] = None
) -> np.ndarray:
    """Triangles incident to each of ``nodes`` only (aligned with ``nodes``).

    Equal to ``triangles_per_node(graph)[nodes]`` — exact integers — at the
    cost of the requested rows alone: packed graphs run
    :meth:`BitMatrix.triangles_at`, the rest a sparse matmul restricted to
    the requested rows.  ``packed`` optionally supplies ``graph`` already
    packed (the paired-run honest matrix, or its patched after-view).  The
    ``triangles.rows`` tracer counter accumulates the rows counted.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    current_tracer().counter("triangles.rows", nodes.size)
    if nodes.size == 0:
        return np.zeros(0, dtype=np.int64)
    if packed is None and should_use_packed(graph):
        packed = BitMatrix.from_graph(graph)
    if packed is not None:
        return packed.triangles_at(nodes)
    return _triangles_at_sparse(graph, nodes)


def _triangles_packed(graph: Graph) -> np.ndarray:
    """Packed backend: edge-gather row-AND + popcount sweep."""
    edges = graph.edge_arrays()
    return BitMatrix.from_edge_arrays(graph.num_nodes, *edges).triangles_per_node(
        edges=edges
    )


def _triangles_sparse(graph: Graph) -> np.ndarray:
    """Sparse backend: each triangle at node *i* corresponds to two closed
    walks of length 3 (one per orientation)."""
    adjacency = graph.csr().astype(np.int64)
    squared = adjacency @ adjacency
    # diag(A @ A @ A)[i] = sum_j A[i, j] * (A @ A)[j, i]
    closed_walks = np.asarray(adjacency.multiply(squared.T).sum(axis=1)).ravel()
    return closed_walks // 2


def _triangles_at_sparse(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Sparse backend of :func:`triangles_at`: ``A[S] @ A`` counts the
    2-paths from each requested node, and masking them by ``A[S]`` keeps the
    closed ones — two per incident triangle."""
    if graph.num_edges == 0:
        return np.zeros(nodes.size, dtype=np.int64)
    adjacency = graph.csr().astype(np.int64)
    rows = adjacency[nodes]
    closed_walks = np.asarray(rows.multiply(rows @ adjacency).sum(axis=1)).ravel()
    return closed_walks // 2


def local_clustering_coefficients(graph: Graph) -> np.ndarray:
    """Local clustering coefficient ``cc_i = 2 tau_i / (d_i (d_i - 1))``.

    Nodes with degree < 2 have coefficient 0 by convention.
    """
    degrees = graph.degrees().astype(np.float64)
    triangles = triangles_per_node(graph).astype(np.float64)
    denominator = degrees * (degrees - 1.0)
    coefficients = np.zeros(graph.num_nodes, dtype=np.float64)
    valid = denominator > 0
    coefficients[valid] = 2.0 * triangles[valid] / denominator[valid]
    return coefficients


def average_degree(graph: Graph) -> float:
    """Mean node degree ``2E / N`` (0 for the empty graph)."""
    if graph.num_nodes == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_nodes


def edge_density(graph: Graph) -> float:
    """Fraction of node pairs that are edges (``theta`` in the paper)."""
    pairs = pair_count(graph.num_nodes)
    if pairs == 0:
        return 0.0
    return graph.num_edges / pairs


def modularity(graph: Graph, communities: Sequence[Sequence[int]]) -> float:
    """Newman modularity of a node partition.

    ``Q = sum_c (e_c / E - (deg_c / 2E)^2)`` where ``e_c`` is the number of
    intra-community edges and ``deg_c`` the total degree of community ``c``.

    Raises if ``communities`` is not a partition of the node set.
    """
    n = graph.num_nodes
    labels = -np.ones(n, dtype=np.int64)
    for community_id, members in enumerate(communities):
        members = np.asarray(list(members), dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= n):
            raise ValueError("community member out of node range")
        if np.any(labels[members] >= 0):
            raise ValueError("communities overlap")
        labels[members] = community_id
    if np.any(labels < 0):
        raise ValueError("communities do not cover all nodes")
    return modularity_from_labels(graph, labels)


def modularity_from_labels(graph: Graph, labels: np.ndarray) -> float:
    """Newman modularity given a per-node community label array."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.num_nodes,):
        raise ValueError("labels must have one entry per node")
    total_edges = graph.num_edges
    if total_edges == 0:
        return 0.0
    rows, cols = graph.edge_arrays()
    intra = np.bincount(
        labels[rows][labels[rows] == labels[cols]], minlength=labels.max() + 1
    ).astype(np.float64)
    community_degrees = np.bincount(
        labels, weights=graph.degrees().astype(np.float64), minlength=labels.max() + 1
    )
    return float(np.sum(intra / total_edges - (community_degrees / (2.0 * total_edges)) ** 2))
