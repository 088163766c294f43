"""Streaming out-of-core path: bit-identity against the in-memory backends.

Every assertion here is an *exact equality*: the streaming module's contract
is that chunking changes peak memory only, never a single bit of any result.
"""

import hashlib

import numpy as np
import pytest

from repro.engine.graph_store import GraphStore
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix
from repro.graph.metrics import triangles_per_node
from repro.graph.streaming import (
    RowBlockBuilder,
    attach_packed_row_block,
    iter_packed_row_blocks,
    rows_per_block,
    share_packed_row_blocks,
    should_stream,
    streaming_degrees,
    streaming_intra_community_edges,
    streaming_triangles_per_node,
)
from repro.ldp.perturbation import perturb_graph, perturb_graph_stream
from repro.protocols.estimators import observed_intra_community_edges
from repro.protocols.lfgdpr import LFGDPRProtocol


def random_graph(n: int, density: float, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    if n < 2 or density == 0.0:
        return Graph(n, [])
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph(n, edges)


def assemble(graph: Graph, block_rows) -> np.ndarray:
    blocks = [
        rows for _, _, rows in iter_packed_row_blocks(graph, block_rows)
    ]
    words = (graph.num_nodes + 63) >> 6
    if not blocks:
        return np.zeros((0, words), dtype=np.uint64)
    return np.concatenate(blocks, axis=0)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 130])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_blocks_equal_packed_matrix(self, n, density):
        graph = random_graph(n, density, seed=n + 1)
        full = BitMatrix.from_graph(graph).rows
        for block_rows in (1, 7, max(1, n), n + 13):
            assert np.array_equal(assemble(graph, block_rows), full)

    def test_block_ranges_tile_the_matrix(self):
        graph = random_graph(40, 0.2, seed=2)
        spans = [
            (start, stop) for start, stop, _ in iter_packed_row_blocks(graph, 9)
        ]
        assert spans[0][0] == 0
        assert spans[-1][1] == graph.num_nodes
        for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
            assert start == prev_stop

    def test_builder_rejects_bad_range(self):
        builder = RowBlockBuilder.from_graph(random_graph(10, 0.5))
        with pytest.raises(ValueError, match="row range"):
            builder.build(3, 11)
        with pytest.raises(ValueError, match="row range"):
            builder.build(-1, 2)

    def test_bad_block_rows_rejected(self):
        with pytest.raises(ValueError, match="block_rows"):
            list(iter_packed_row_blocks(random_graph(5, 0.5), 0))

    def test_ten_thousand_node_graph(self):
        # n = 10^4, sparse codes sampled directly (listcomp generation would
        # visit 5e7 pairs).  Blocks must tile to the exact packed matrix and
        # the chunked estimators must agree with the in-memory backends.
        from repro.utils.sparse import pair_count

        n = 10_000
        rng = np.random.default_rng(9)
        codes = np.unique(
            rng.integers(0, pair_count(n), size=60_000, dtype=np.int64)
        )[:50_000]
        graph = Graph.from_codes(n, codes, assume_sorted_unique=True)
        full = BitMatrix.from_graph(graph).rows
        assert np.array_equal(assemble(graph, 1553), full)
        assert np.array_equal(streaming_degrees(graph, 4099), graph.degrees())
        assert np.array_equal(
            streaming_triangles_per_node(graph, 2048),
            BitMatrix.from_graph(graph).triangles_per_node(),
        )


class TestRowsPerBlock:
    def test_honours_cap(self):
        n = 1000
        row_bytes = ((n + 63) >> 6) << 3
        assert rows_per_block(n, max_bytes=10 * row_bytes) == 10
        assert rows_per_block(n, max_bytes=1) == 1  # floor of one row

    def test_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "1024")
        assert rows_per_block(64) == 1024 // 8


class TestShouldStream:
    def test_streams_only_past_the_byte_cap(self, monkeypatch):
        dense = random_graph(64, 0.9, seed=3)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(1 << 30))
        assert not should_stream(dense)  # packed path still fits
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert should_stream(dense)

    def test_sparse_graphs_never_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        sparse = random_graph(64, 0.01, seed=4)
        assert not should_stream(sparse)


class TestStreamingEstimators:
    @pytest.mark.parametrize("chunk_edges", [1, 7, 1 << 22])
    def test_degrees_identical(self, chunk_edges):
        graph = random_graph(90, 0.4, seed=5)
        assert np.array_equal(
            streaming_degrees(graph, chunk_edges), graph.degrees()
        )

    @pytest.mark.parametrize("chunk_edges", [1, 13, 1 << 22])
    def test_intra_community_identical(self, chunk_edges):
        graph = random_graph(80, 0.3, seed=6)
        labels = np.random.default_rng(0).integers(0, 5, graph.num_nodes)
        packed = BitMatrix.from_graph(graph).intra_community_edges(labels, 5)
        assert np.array_equal(
            streaming_intra_community_edges(graph, labels, 5, chunk_edges),
            packed,
        )

    @pytest.mark.parametrize("block_rows", [1, 11, 64, 200])
    def test_triangles_identical(self, block_rows):
        graph = random_graph(96, 0.35, seed=7)
        expected = BitMatrix.from_graph(graph).triangles_per_node()
        assert np.array_equal(
            streaming_triangles_per_node(graph, block_rows), expected
        )

    def test_triangles_empty_and_tiny(self):
        assert streaming_triangles_per_node(Graph(0, [])).size == 0
        assert np.array_equal(
            streaming_triangles_per_node(Graph(3, [(0, 1)])), np.zeros(3, np.int64)
        )


class TestDispatch:
    def test_metrics_dispatch_identical_past_cap(self, monkeypatch):
        graph = random_graph(70, 0.6, seed=8)
        expected = triangles_per_node(graph)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert should_stream(graph)
        assert np.array_equal(triangles_per_node(graph), expected)

    def test_intra_dispatch_identical_past_cap(self, monkeypatch):
        graph = random_graph(70, 0.6, seed=8)
        labels = np.random.default_rng(1).integers(0, 4, graph.num_nodes)
        expected = observed_intra_community_edges(graph, labels, 4)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert np.array_equal(
            observed_intra_community_edges(graph, labels, 4), expected
        )


class TestPerturbStream:
    def test_draw_for_draw_identity(self):
        graph = random_graph(120, 0.1, seed=10)
        for block_rows in (1, 17, None):
            reference = perturb_graph(graph, 1.2, rng=99)
            perturbed, blocks = perturb_graph_stream(
                graph, 1.2, rng=99, block_rows=block_rows
            )
            assert np.array_equal(perturbed.edge_codes, reference.edge_codes)
            assembled = np.concatenate([rows for _, _, rows in blocks], axis=0)
            assert np.array_equal(
                assembled, BitMatrix.from_graph(reference).rows
            )

    def test_seed_replay_sha256_pin(self):
        """Golden digest: the streamed report bytes for a fixed seed.

        Pins the whole chain — RNG stream keys, sampling order, code merge,
        block assembly — so any accidental draw-order change breaks loudly.
        """
        graph = random_graph(100, 0.15, seed=11)
        digest = hashlib.sha256()
        for _, _, rows in perturb_graph_stream(graph, 2.0, rng=1234, block_rows=23)[1]:
            digest.update(np.ascontiguousarray(rows, dtype="<u8").tobytes())
        # Independent of block height: one block per call consumes the same
        # draws, and the assembled bytes are block-size invariant.
        other = hashlib.sha256()
        for _, _, rows in perturb_graph_stream(graph, 2.0, rng=1234, block_rows=100)[1]:
            other.update(np.ascontiguousarray(rows, dtype="<u8").tobytes())
        assert digest.hexdigest() == other.hexdigest()
        assert digest.hexdigest() == (
            "e34fe179d8f1d3b00692da436974f8a6cc6898ef747037f06a72dd1f1c2daac5"
        )


class TestCollectBlocks:
    def test_blocks_reproduce_collect(self):
        graph = random_graph(110, 0.12, seed=12)
        protocol = LFGDPRProtocol(epsilon=2.0)
        reference = protocol.collect(graph, rng=7)
        for block_rows in (1, 19, None):
            blocks = list(protocol.collect_blocks(graph, rng=7, block_rows=block_rows))
            assert blocks[0].start == 0
            assert blocks[-1].stop == graph.num_nodes
            rows = np.concatenate([b.adjacency_rows for b in blocks], axis=0)
            degrees = np.concatenate([b.reported_degrees for b in blocks])
            assert np.array_equal(
                rows, BitMatrix.from_graph(reference.perturbed_graph).rows
            )
            assert np.array_equal(
                degrees, np.asarray(reference.reported_degrees, dtype=np.float64)
            )

    def test_empty_graph_yields_nothing(self):
        protocol = LFGDPRProtocol(epsilon=1.0)
        assert list(protocol.collect_blocks(Graph(0, []), rng=0)) == []


class TestChunkedSharedMemory:
    def test_export_attach_round_trip(self):
        graph = random_graph(100, 0.25, seed=14)
        full = BitMatrix.from_graph(graph).rows
        with GraphStore() as store:
            key = store.add_graph(graph)
            handle = store.export_graph_chunked(key, block_rows=17)
            assert handle is store.export_graph_chunked(key)  # memoized
            assert handle.boundaries[0] == 0
            assert handle.boundaries[-1] == graph.num_nodes
            pieces = []
            for chunk in range(handle.num_chunks):
                start, stop, rows, segment = attach_packed_row_block(handle, chunk)
                pieces.append(np.array(rows))
                assert np.array_equal(pieces[-1], full[start:stop])
                del rows
                segment.close()
            assert np.array_equal(np.concatenate(pieces), full)

    def test_chunk_for_row(self):
        graph = random_graph(50, 0.3, seed=15)
        handle, segments = share_packed_row_blocks(graph, block_rows=12)
        try:
            assert handle.chunk_for_row(0) == 0
            assert handle.chunk_for_row(11) == 0
            assert handle.chunk_for_row(12) == 1
            assert handle.chunk_for_row(49) == handle.num_chunks - 1
            with pytest.raises(ValueError, match="out of"):
                handle.chunk_for_row(50)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_empty_graph_export(self):
        with GraphStore() as store:
            key = store.add_graph(Graph(0, []))
            handle = store.export_graph_chunked(key)
            assert handle.num_nodes == 0

    def test_closed_store_refuses_export(self):
        store = GraphStore()
        key = store.add_graph(random_graph(10, 0.5))
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.export_graph_chunked(key)
