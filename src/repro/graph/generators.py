"""Random-graph generators used to build the dataset surrogates.

Thin, seed-disciplined wrappers over networkx generators plus a tuned
power-law-cluster generator that targets a requested average degree.  All
generators return :class:`repro.graph.Graph` with integer node labels.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.graph.adjacency import Graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive, check_probability


def _nx_seed(rng: RngLike) -> int:
    """Derive an integer seed for networkx from our RngLike convention."""
    return int(ensure_rng(rng).integers(0, 2**31 - 1))


class _Skipping:
    """``items`` without the positions in ``skip`` (ascending), lazily.

    Just the sequence protocol ``random.Random.choice`` uses — one ``len``
    and one index — so a draw from it consumes the generator exactly like a
    draw from the materialised filtered list, at ``O(len(skip))`` per
    access instead of ``O(len(items))`` to build the list.
    """

    __slots__ = ("items", "skip")

    def __init__(self, items: list, skip: list):
        self.items = items
        self.skip = skip

    def __len__(self) -> int:
        return len(self.items) - len(self.skip)

    def __getitem__(self, index: int):
        for position in self.skip:
            if position > index:
                break
            index += 1
        return self.items[index]


def _holme_kim_edges(n: int, m: int, p: float, rand: random.Random) -> list:
    """Edge list of ``nx.powerlaw_cluster_graph(n, m, p, seed)``, replayed.

    A draw-for-draw replica of the networkx Holme–Kim loop: the same
    ``rand.choice`` / ``rand.random`` calls in the same order, the same
    insertion-ordered neighbour iteration, and the same ``set.pop`` target
    order, so the produced edge list is identical for any seed.

    Each node keeps an append-only neighbour list (networkx's insertion
    order) plus a ``{neighbour: index}`` dict.  The clustering step draws
    from the target's neighbours minus the source and the source's current
    neighbours; instead of filtering the target's — possibly hub-sized —
    neighbourhood, it looks up the at most ``m + 1`` excluded members'
    indices and hands ``rand.choice`` a :class:`_Skipping` view, so a step
    costs ``O(|N(source)|)`` rather than ``O(|N(target)|)``.  Generation
    only; results unchanged.
    """
    neighbours: list = [[] for _ in range(n)]
    index: list = [{} for _ in range(n)]
    edges: list = []

    def connect(source: int, target: int) -> None:
        index[source][target] = len(neighbours[source])
        neighbours[source].append(target)
        index[target][source] = len(neighbours[target])
        neighbours[target].append(source)
        edges.append((source, target))

    repeated_nodes = list(range(m))
    source = m
    while source < n:
        # _random_subset: draw until m unique targets accumulate.  The pop
        # order of the resulting set matches networkx exactly — CPython set
        # iteration is deterministic in the inserted values.
        targets: set = set()
        while len(targets) < m:
            targets.add(rand.choice(repeated_nodes))
        source_index = index[source]
        target = targets.pop()
        if target not in source_index:
            connect(source, target)
        repeated_nodes.append(target)
        count = 1
        while count < m:
            if rand.random() < p:  # clustering step: try to close a triangle
                target_index = index[target]
                skip = sorted(
                    target_index[nbr]
                    for nbr in (*source_index, source)
                    if nbr in target_index
                )
                candidates = _Skipping(neighbours[target], skip)
                if len(candidates):
                    nbr = rand.choice(candidates)
                    connect(source, nbr)
                    repeated_nodes.append(nbr)
                    count += 1
                    continue
            # preferential attachment step (may re-add an existing edge,
            # which networkx silently keeps — the repeat weight still lands)
            target = targets.pop()
            if target not in source_index:
                connect(source, target)
            repeated_nodes.append(target)
            count += 1
        repeated_nodes.extend([source] * m)
        source += 1
    return edges


def erdos_renyi_graph(num_nodes: int, edge_probability: float, rng: RngLike = None) -> Graph:
    """G(n, p) random graph.

    Uses the sparse ``fast_gnp_random_graph`` algorithm, fine for the edge
    densities that occur in this library.
    """
    check_positive(num_nodes, "num_nodes")
    check_probability(edge_probability, "edge_probability")
    nx_graph = nx.fast_gnp_random_graph(num_nodes, edge_probability, seed=_nx_seed(rng))
    return Graph.from_networkx(nx_graph)


def barabasi_albert_graph(num_nodes: int, edges_per_node: int, rng: RngLike = None) -> Graph:
    """Preferential-attachment graph (power-law degrees, low clustering)."""
    check_positive(num_nodes, "num_nodes")
    check_positive(edges_per_node, "edges_per_node")
    nx_graph = nx.barabasi_albert_graph(num_nodes, edges_per_node, seed=_nx_seed(rng))
    return Graph.from_networkx(nx_graph)


def powerlaw_cluster_graph(
    num_nodes: int,
    edges_per_node: int,
    triangle_probability: float,
    rng: RngLike = None,
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    This is the backbone of the social-network surrogates: it produces the
    heavy-tailed degree distribution and the high local clustering that the
    SNAP datasets in Table II exhibit.
    """
    check_positive(num_nodes, "num_nodes")
    check_positive(edges_per_node, "edges_per_node")
    check_probability(triangle_probability, "triangle_probability")
    if num_nodes < edges_per_node:
        raise ValueError(
            f"num_nodes must be at least edges_per_node "
            f"({num_nodes} < {edges_per_node})"
        )
    edges = _holme_kim_edges(
        num_nodes,
        edges_per_node,
        triangle_probability,
        random.Random(_nx_seed(rng)),
    )
    return Graph(num_nodes, edges)


def surrogate_social_graph(
    num_nodes: int,
    target_average_degree: float,
    triangle_probability: float = 0.5,
    rng: RngLike = None,
) -> Graph:
    """Social-network surrogate with a requested average degree.

    A Holme–Kim graph with attachment parameter ``m`` has average degree
    close to ``2 m``; we round ``target_average_degree / 2`` to pick ``m``
    (minimum 1) and keep the clustering knob exposed.
    """
    check_positive(num_nodes, "num_nodes")
    check_positive(target_average_degree, "target_average_degree")
    edges_per_node = max(1, round(target_average_degree / 2.0))
    if edges_per_node >= num_nodes:
        raise ValueError(
            "target_average_degree too large for num_nodes "
            f"({target_average_degree} vs {num_nodes})"
        )
    return powerlaw_cluster_graph(num_nodes, edges_per_node, triangle_probability, rng=rng)
