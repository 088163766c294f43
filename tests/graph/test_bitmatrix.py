"""Tests for the bit-packed dense adjacency backend and its dispatch.

The packed and sparse backends must be *bit-identical* — exact integer
triangle counts, degrees and edge counts — across the whole density range,
because the density-adaptive dispatch in ``repro.graph.metrics`` silently
routes between them (and engine cache entries rely on results never
changing).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import metrics
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import (
    DEFAULT_DENSITY_THRESHOLD,
    BitMatrix,
    accumulate_bits,
    bit_index_arrays,
    density_threshold,
    should_use_packed,
)
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.metrics import edge_density, triangles_at, triangles_per_node
from repro.ldp.perturbation import perturb_graph
from repro.utils.sparse import decode_pairs, pair_count


def networkx_triangles(graph: Graph) -> np.ndarray:
    counts = nx.triangles(graph.to_networkx())
    return np.array([counts[node] for node in range(graph.num_nodes)], dtype=np.int64)


#: ``REPRO_DENSE_THRESHOLD`` values forcing the packed / the sparse backend.
BACKENDS = {"packed": "0", "sparse": "1.1"}


class TestPacking:
    def test_triangle_graph(self):
        bm = BitMatrix.from_graph(Graph(4, [(0, 1), (1, 2), (2, 0)]))
        assert bm.degrees().tolist() == [2, 2, 2, 0]
        assert bm.triangles_per_node().tolist() == [1, 1, 1, 0]
        assert bm.num_edges == 3

    def test_empty_graph(self):
        bm = BitMatrix.from_graph(Graph(0))
        assert bm.degrees().size == 0
        assert bm.triangles_per_node().size == 0
        assert bm.num_edges == 0
        assert bm.edge_density() == 0.0

    def test_single_node(self):
        bm = BitMatrix.from_graph(Graph(1))
        assert bm.degrees().tolist() == [0]
        assert bm.triangles_per_node().tolist() == [0]
        assert bm.edge_density() == 0.0

    def test_two_nodes(self):
        bm = BitMatrix.from_graph(Graph(2, [(0, 1)]))
        assert bm.degrees().tolist() == [1, 1]
        assert bm.triangles_per_node().tolist() == [0, 0]
        assert bm.num_edges == 1
        assert bm.edge_density() == 1.0

    def test_word_boundary_nodes(self):
        # Nodes 63/64/65 straddle the uint64 word boundary.
        g = Graph(66, [(63, 64), (64, 65), (63, 65), (0, 63)])
        bm = BitMatrix.from_graph(g)
        assert np.array_equal(bm.degrees(), g.degrees())
        assert bm.triangles_per_node().tolist() == triangles_per_node(g).tolist()

    def test_complete_graph(self):
        k8 = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        bm = BitMatrix.from_graph(k8)
        assert bm.edge_density() == 1.0
        # Each node of K8 is in C(7, 2) = 21 triangles.
        assert bm.triangles_per_node().tolist() == [21] * 8

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="expected"):
            BitMatrix(4, np.zeros((4, 2), dtype=np.uint64))

    def test_repr(self):
        assert repr(BitMatrix.from_graph(Graph(65))) == "BitMatrix(num_nodes=65, num_words=2)"


@pytest.mark.parametrize("density", [0.001, 0.01, 0.05, 0.2, 0.5, 0.9])
def test_backends_bit_identical_across_densities(density):
    """Packed == sparse == networkx, exactly, from near-empty to near-complete."""
    g = erdos_renyi_graph(130, density, rng=int(density * 1000))
    packed = metrics._triangles_packed(g)
    sparse = metrics._triangles_sparse(g)
    assert np.array_equal(packed, sparse)
    theirs = nx.triangles(g.to_networkx())
    assert packed.tolist() == [theirs[i] for i in range(g.num_nodes)]
    bm = BitMatrix.from_graph(g)
    assert np.array_equal(bm.degrees(), g.degrees())
    assert bm.num_edges == g.num_edges
    assert bm.edge_density() == edge_density(g)


@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_backend_equality_property(n, seed, density):
    """Exact packed/sparse agreement on arbitrary random graphs, n=0 included."""
    total = pair_count(n)
    rng = np.random.default_rng(seed)
    count = int(round(density * total))
    codes = rng.choice(total, size=count, replace=False) if count else np.empty(0, np.int64)
    g = Graph.from_codes(n, np.asarray(codes, dtype=np.int64))
    bm = BitMatrix.from_graph(g)
    assert np.array_equal(bm.degrees(), g.degrees())
    assert bm.num_edges == g.num_edges
    if n > 0:
        assert np.array_equal(metrics._triangles_packed(g), metrics._triangles_sparse(g))


def test_chunked_popcount_passes_match_single_pass(monkeypatch):
    """Bounding the gather/AND temporaries must not change any count."""
    from repro.graph import bitmatrix

    g = erdos_renyi_graph(100, 0.5, rng=9)
    labels = np.arange(100) % 3
    reference = BitMatrix.from_graph(g)
    expected_triangles = reference.triangles_per_node()
    expected_intra = reference.intra_community_edges(labels, 3)
    monkeypatch.setattr(bitmatrix, "_CHUNK_WORDS", 4)  # force many tiny chunks
    assert np.array_equal(reference.triangles_per_node(), expected_triangles)
    nodes = np.array([3, 0, 99, 41, 3])
    assert np.array_equal(reference.triangles_at(nodes), expected_triangles[nodes])
    assert np.array_equal(reference.intra_community_edges(labels, 3), expected_intra)


class TestIntraCommunityEdges:
    def test_matches_edge_bucketing(self):
        g = erdos_renyi_graph(90, 0.4, rng=3)
        labels = np.arange(90) % 4
        bm = BitMatrix.from_graph(g)
        rows, cols = g.edge_arrays()
        same = labels[rows] == labels[cols]
        expected = np.bincount(labels[rows[same]], minlength=4)
        assert np.array_equal(bm.intra_community_edges(labels, 4), expected)

    def test_singleton_and_empty_communities(self):
        g = Graph(5, [(0, 1), (1, 2)])
        labels = np.array([0, 0, 1, 2, 2])
        counts = BitMatrix.from_graph(g).intra_community_edges(labels, 4)
        assert counts.tolist() == [1, 0, 0, 0]


class TestEdgeEndpoints:
    def test_edge_endpoints_roundtrip(self):
        graph = erdos_renyi_graph(130, 0.25, rng=3)
        rows, cols = BitMatrix.from_graph(graph).edge_endpoints()
        expected_rows, expected_cols = graph.edge_arrays()
        order = np.lexsort((cols, rows))
        expected_order = np.lexsort((expected_cols, expected_rows))
        assert np.array_equal(rows[order], expected_rows[expected_order])
        assert np.array_equal(cols[order], expected_cols[expected_order])


class TestAccumulateBits:
    def test_matches_bitwise_or_reference(self):
        rng = np.random.default_rng(0)
        size = 50
        positions = rng.permutation(np.repeat(np.arange(size), 3))[:90]
        # make (position, bit) pairs unique
        seen = set()
        keep_positions, keep_bits = [], []
        for position in positions.tolist():
            for bit in rng.integers(0, 64, size=4).tolist():
                if (position, bit) not in seen:
                    seen.add((position, bit))
                    keep_positions.append(position)
                    keep_bits.append(bit)
        positions = np.array(keep_positions, dtype=np.int64)
        bits = np.array(keep_bits, dtype=np.int64)
        reference = np.zeros(size, dtype=np.uint64)
        np.bitwise_or.at(reference, positions, np.uint64(1) << bits.astype(np.uint64))
        assert np.array_equal(accumulate_bits(positions, bits, size), reference)

    def test_empty(self):
        out = accumulate_bits(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert np.array_equal(out, np.zeros(4, dtype=np.uint64))


class TestBitIndexCache:
    def test_cached_and_read_only(self):
        first = bit_index_arrays(100)
        second = bit_index_arrays(100)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable
        word_index, bit_shift = first
        assert word_index.tolist() == [j >> 6 for j in range(100)]
        assert bit_shift.tolist() == [j & 63 for j in range(100)]


class TestDispatch:
    def _count_backends(self, monkeypatch):
        calls = {"packed": 0, "sparse": 0}
        real_packed, real_sparse = metrics._triangles_packed, metrics._triangles_sparse

        def packed(graph):
            calls["packed"] += 1
            return real_packed(graph)

        def sparse(graph):
            calls["sparse"] += 1
            return real_sparse(graph)

        monkeypatch.setattr(metrics, "_triangles_packed", packed)
        monkeypatch.setattr(metrics, "_triangles_sparse", sparse)
        return calls

    def test_low_epsilon_perturbed_graph_takes_packed_path(self, monkeypatch):
        calls = self._count_backends(monkeypatch)
        g = powerlaw_cluster_graph(150, 4, 0.5, rng=0)
        perturbed = perturb_graph(g, 0.5, rng=1)
        assert edge_density(perturbed) > DEFAULT_DENSITY_THRESHOLD
        assert should_use_packed(perturbed)
        triangles_per_node(perturbed)
        assert calls == {"packed": 1, "sparse": 0}

    def test_sparse_input_graph_takes_csr_path(self, monkeypatch):
        calls = self._count_backends(monkeypatch)
        g = powerlaw_cluster_graph(400, 4, 0.5, rng=0)  # density ~ 2m/n = 0.02
        assert edge_density(g) < DEFAULT_DENSITY_THRESHOLD
        assert not should_use_packed(g)
        triangles_per_node(g)
        assert calls == {"packed": 0, "sparse": 1}

    def test_both_paths_equal_on_same_graph(self):
        g = perturb_graph(powerlaw_cluster_graph(150, 4, 0.5, rng=0), 0.8, rng=2)
        assert np.array_equal(metrics._triangles_packed(g), metrics._triangles_sparse(g))

    def test_threshold_env_override(self, monkeypatch):
        dense = perturb_graph(powerlaw_cluster_graph(100, 4, 0.5, rng=0), 0.5, rng=0)
        assert should_use_packed(dense)
        monkeypatch.setenv("REPRO_DENSE_THRESHOLD", "0.99")
        assert density_threshold() == 0.99
        assert not should_use_packed(dense)

    def test_memory_cap_env_override(self, monkeypatch):
        dense = perturb_graph(powerlaw_cluster_graph(100, 4, 0.5, rng=0), 0.5, rng=0)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert not should_use_packed(dense)

    def test_tiny_graphs_stay_sparse(self):
        assert not should_use_packed(Graph(2, [(0, 1)]))
        assert not should_use_packed(Graph(0))


class TestTrianglesAt:
    """``triangles_at`` against networkx, on both backends."""

    @pytest.fixture(params=sorted(BACKENDS))
    def backend(self, request, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_THRESHOLD", BACKENDS[request.param])
        return request.param

    @pytest.mark.parametrize("n,density,seed", [
        (40, 0.02, 0), (60, 0.15, 1), (70, 0.5, 2), (130, 0.3, 3), (90, 0.9, 4),
    ])
    def test_matches_networkx(self, backend, n, density, seed):
        graph = erdos_renyi_graph(n, density, rng=seed)
        assert should_use_packed(graph) == (backend == "packed")
        nodes = np.random.default_rng(seed).choice(n, size=n // 4, replace=False)
        assert np.array_equal(triangles_at(graph, nodes), networkx_triangles(graph)[nodes])

    def test_all_nodes_equal_full_sweep(self, backend):
        graph = powerlaw_cluster_graph(150, 4, 0.6, rng=5)
        everyone = np.arange(graph.num_nodes)
        assert np.array_equal(triangles_at(graph, everyone), triangles_per_node(graph))

    def test_empty_nodes(self, backend):
        graph = erdos_renyi_graph(30, 0.4, rng=0)
        result = triangles_at(graph, np.empty(0, dtype=np.int64))
        assert result.dtype == np.int64 and result.size == 0

    def test_isolated_and_degree_one_nodes(self, backend):
        # Triangle 0-1-2, pendant 3 on node 0, isolated 4 and 5.
        graph = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert triangles_at(graph, np.array([3, 4, 5, 0, 1])).tolist() == [0, 0, 0, 1, 1]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, backend, n):
        graph = Graph(n, [(0, 1)] if n == 2 else [])
        assert triangles_at(graph, np.arange(n)).tolist() == [0] * n

    def test_order_and_duplicates_follow_nodes(self, backend):
        graph = erdos_renyi_graph(50, 0.3, rng=8)
        nodes = np.array([7, 2, 7, 49, 0])
        assert np.array_equal(triangles_at(graph, nodes), networkx_triangles(graph)[nodes])

    def test_packed_argument_is_used_as_is(self):
        """A supplied matrix is counted even when dispatch would pick sparse."""
        graph = powerlaw_cluster_graph(400, 4, 0.5, rng=0)
        assert not should_use_packed(graph)
        nodes = np.arange(0, 400, 7)
        packed = BitMatrix.from_graph(graph)
        assert np.array_equal(
            triangles_at(graph, nodes, packed=packed), networkx_triangles(graph)[nodes]
        )

    def test_bitmatrix_method_aligned_with_nodes(self):
        graph = erdos_renyi_graph(200, 0.2, rng=6)
        nodes = np.array([199, 64, 63, 0, 128])
        assert np.array_equal(
            BitMatrix.from_graph(graph).triangles_at(nodes), networkx_triangles(graph)[nodes]
        )


def touch_rows(graph: Graph, touched: np.ndarray, rng: np.random.Generator) -> Graph:
    """An after-graph differing from ``graph`` only on pairs incident to
    ``touched``: drop roughly half the incident edges, add fresh claims."""
    rows, cols = graph.edge_arrays()
    incident = np.isin(rows, touched) | np.isin(cols, touched)
    drop = incident & (rng.random(rows.size) < 0.5)
    after = graph.without_edges(
        list(zip(rows[drop].tolist(), cols[drop].tolist()))
    )
    n = graph.num_nodes
    additions = []
    for node in touched.tolist():
        for neighbor in rng.choice(n, size=min(n - 1, 4), replace=False).tolist():
            if neighbor != node:
                additions.append((node, neighbor))
    return after.with_edges(additions)


class TestWithEdits:
    def test_patch_equals_repack(self):
        rng = np.random.default_rng(9)
        graph = erdos_renyi_graph(50, 0.2, rng=6)
        touched = np.array([2, 3, 30])
        after = touch_rows(graph, touched, rng)
        added = after.edge_codes[~np.isin(after.edge_codes, graph.edge_codes)]
        removed = graph.edge_codes[~np.isin(graph.edge_codes, after.edge_codes)]
        add_rows, add_cols = decode_pairs(added, 50)
        drop_rows, drop_cols = decode_pairs(removed, 50)
        patched = BitMatrix.from_graph(graph).with_edits(
            add_rows, add_cols, drop_rows, drop_cols
        )
        assert np.array_equal(patched.rows, BitMatrix.from_graph(after).rows)

    def test_noop_edit_returns_equal_matrix(self):
        graph = erdos_renyi_graph(10, 0.5, rng=0)
        packed = BitMatrix.from_graph(graph)
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(packed.with_edits(empty, empty, empty, empty).rows, packed.rows)
