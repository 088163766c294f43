"""Sparse simulation of randomized response over whole graphs.

Applying bitwise randomized response to every adjacency bit vector of an
N-node graph touches N·(N-1) bits — prohibitive beyond a few thousand nodes.
This module produces a perturbed graph with *exactly the same distribution*
at O(E + #flipped-non-edges) cost:

* each existing edge survives independently with probability ``p``;
* the number of non-edges flipped to edges is ``Binomial(#non-edges, 1-p)``,
  and the flipped pairs are sampled uniformly among non-edges.

Following the paper's estimator model (Eq. 16 and the Fig. 4 case analysis,
which assume a single retention probability ``p`` per undirected edge), the
perturbation is applied once per *unordered pair*; see DESIGN.md §2 for why
this symmetric interpretation is the one consistent with the paper's
calibration formulas.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.streaming import iter_packed_row_blocks
from repro.ldp.mechanisms import rr_keep_probability
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sparse import merge_sorted_disjoint, pair_count, sample_pairs_excluding
from repro.utils.validation import check_non_negative


def perturb_graph(graph: Graph, epsilon: float, rng: RngLike = None) -> Graph:
    """Randomized response over the whole graph, sparsely simulated.

    Returns a new :class:`Graph` drawn from the same distribution as flipping
    every upper-triangle adjacency bit independently with probability
    ``1 - p`` where ``p = e^eps / (1 + e^eps)``.
    """
    generator = ensure_rng(rng)
    keep = rr_keep_probability(epsilon)
    n = graph.num_nodes

    codes = graph.edge_codes
    survivors = codes[generator.random(codes.size) < keep]

    non_edges = pair_count(n) - codes.size
    flip_count = int(generator.binomial(non_edges, 1.0 - keep)) if non_edges > 0 else 0
    flipped = sample_pairs_excluding(n, flip_count, codes, generator)

    # Survivors are a sorted subset of the original codes; flipped pairs were
    # sampled outside them.  Sorting the (smaller) flipped set and merging two
    # disjoint sorted arrays replaces the np.unique re-sort over the full
    # near-dense edge set the previous construction paid.
    merged = merge_sorted_disjoint(survivors, np.sort(flipped))
    return Graph.from_codes(n, merged, assume_sorted_unique=True)


def perturb_graph_stream(
    graph: Graph,
    epsilon: float,
    rng: RngLike = None,
    *,
    block_rows: int | None = None,
    max_bytes: int | None = None,
) -> Tuple[Graph, Iterator[Tuple[int, int, np.ndarray]]]:
    """Randomized response served as packed per-user row blocks.

    Returns ``(perturbed, blocks)``: the perturbed graph in its sparse pair
    code form — the irreducible O(E') representation — plus an iterator of
    ``(start, stop, rows)`` packed uint64 row blocks of its adjacency
    matrix, block height honouring ``REPRO_DENSE_MAX_BYTES`` by default.
    The full ``n^2/8``-byte matrix is never materialized: each block is
    built on demand from the sorted codes and dropped when the consumer
    moves on.

    RNG identity: the sampling happens **eagerly in this call** through
    :func:`perturb_graph` itself — the stream consumes its generator
    draw-for-draw identically to the in-memory path, and ``perturbed``
    equals ``perturb_graph(graph, epsilon, rng)`` bit for bit for any block
    height (block iteration itself draws nothing).
    """
    perturbed = perturb_graph(graph, epsilon, rng)
    blocks = iter_packed_row_blocks(perturbed, block_rows, max_bytes=max_bytes)
    return perturbed, blocks


def expected_perturbed_degree(degree: float, num_nodes: int, epsilon: float) -> float:
    """Expected degree of a node after randomized response.

    ``E[d~] = d p + (N - 1 - d)(1 - p)``: surviving true edges plus flipped
    non-edges.  This is the quantity the attacker computes from public
    protocol parameters to size its connection budget.
    """
    check_non_negative(degree, "degree")
    keep = rr_keep_probability(epsilon)
    return degree * keep + (num_nodes - 1 - degree) * (1.0 - keep)


def expected_perturbed_average_degree(graph: Graph, epsilon: float) -> float:
    """Expected *average* degree of the perturbed graph.

    The paper's attacks cap each fake node's crafted connection count at this
    value (``d~`` in Theorems 1 and 2) so that fake reports blend in with the
    degree distribution genuine perturbed reports exhibit.
    """
    if graph.num_nodes == 0:
        return 0.0
    average = graph.degrees().mean()
    return expected_perturbed_degree(float(average), graph.num_nodes, epsilon)


def attacker_connection_budget(graph: Graph, epsilon: float) -> int:
    """Number of crafted connections a fake node may claim without standing out.

    ``floor`` of :func:`expected_perturbed_average_degree`, but at least 1 so
    every attack can act even at extreme privacy settings.
    """
    return max(1, int(expected_perturbed_average_degree(graph, epsilon)))
