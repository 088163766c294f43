"""Graph substrate: sparse undirected graphs, their packed and streaming
backends, exact metrics (per-node triangle counts over every node via
``triangles_per_node`` or over chosen nodes only via ``triangles_at``),
generators and datasets."""

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, density_threshold, should_use_packed
from repro.graph.datasets import (
    DATASETS,
    REAL_DATASETS,
    DatasetSpec,
    RealDatasetSpec,
    fetch_dataset,
    known_dataset_names,
    load_dataset,
    load_real_dataset,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.streaming import (
    iter_packed_row_blocks,
    rows_per_block,
    should_stream,
    streaming_degrees,
    streaming_intra_community_edges,
    streaming_triangles_per_node,
)
from repro.graph.metrics import (
    average_degree,
    degree_centrality,
    edge_density,
    local_clustering_coefficients,
    modularity,
    triangles_at,
    triangles_per_node,
)

__all__ = [
    "Graph",
    "BitMatrix",
    "density_threshold",
    "should_use_packed",
    "DATASETS",
    "REAL_DATASETS",
    "DatasetSpec",
    "RealDatasetSpec",
    "fetch_dataset",
    "known_dataset_names",
    "load_dataset",
    "load_real_dataset",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "read_edge_list",
    "write_edge_list",
    "iter_packed_row_blocks",
    "rows_per_block",
    "should_stream",
    "streaming_degrees",
    "streaming_intra_community_edges",
    "streaming_triangles_per_node",
    "average_degree",
    "degree_centrality",
    "edge_density",
    "local_clustering_coefficients",
    "modularity",
    "triangles_at",
    "triangles_per_node",
]
