"""Tests for attack-crafting helpers."""

import numpy as np
import pytest

from repro.core.base import random_new_neighbors, rr_perturb_neighbor_set
from repro.ldp.mechanisms import rr_keep_probability


class TestRandomNewNeighbors:
    def test_excludes_self_and_existing(self):
        rng = np.random.default_rng(0)
        existing = np.array([1, 2, 3])
        for _ in range(20):
            new = random_new_neighbors(0, existing, 4, 10, rng)
            assert 0 not in new
            assert np.intersect1d(new, existing).size == 0

    def test_count(self):
        rng = np.random.default_rng(1)
        new = random_new_neighbors(0, np.array([1]), 5, 100, rng)
        assert new.size == 5
        assert np.unique(new).size == 5

    def test_sorted(self):
        rng = np.random.default_rng(2)
        new = random_new_neighbors(0, np.empty(0, dtype=np.int64), 10, 50, rng)
        assert np.all(np.diff(new) > 0)

    def test_saturation(self):
        rng = np.random.default_rng(3)
        new = random_new_neighbors(0, np.array([1, 2]), 100, 5, rng)
        assert sorted(new.tolist()) == [3, 4]

    def test_zero_count(self):
        rng = np.random.default_rng(4)
        assert random_new_neighbors(0, np.array([1]), 0, 10, rng).size == 0


def reference_random_new_neighbors(node, existing, count, num_nodes, rng):
    """The sorted-set-operation implementation the node masks replaced."""
    forbidden = np.union1d(existing, [node])
    available = num_nodes - forbidden.size
    count = min(count, available)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        draws = rng.integers(0, num_nodes, size=int((count - chosen.size) * 1.3) + 8)
        draws = np.setdiff1d(draws, forbidden)
        chosen = np.union1d(chosen, draws)
    if chosen.size > count:
        chosen = rng.choice(chosen, size=count, replace=False)
    return np.sort(chosen)


class TestRandomNewNeighborsOracle:
    """Same output and same generator state as the reference implementation."""

    CASES = [
        # (node, existing, count, num_nodes)
        (0, [], 10, 50),
        (3, [1, 2, 3, 7], 4, 10),  # existing contains node itself
        (0, [1, 2], 100, 5),  # count > available
        (4, [0, 1, 2, 3], 5, 5),  # nothing available
        (9, [], 0, 20),
        (17, list(range(0, 4000, 3)), 1500, 4039),
        (100, list(range(50, 150)), 30, 200),
    ]

    @pytest.mark.parametrize("node,existing,count,num_nodes", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, node, existing, count, num_nodes, seed):
        existing = np.array(existing, dtype=np.int64)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_new_neighbors(node, existing, count, num_nodes, ours)
        expected = reference_random_new_neighbors(node, existing, count, num_nodes, theirs)
        assert np.array_equal(got, expected)
        assert got.dtype == np.int64
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestRRPerturbNeighborSet:
    def test_output_excludes_self(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            out = rr_perturb_neighbor_set(3, np.array([0, 1]), 20, 1.0, rng)
            assert 3 not in out

    def test_high_epsilon_identity(self):
        rng = np.random.default_rng(1)
        neighbors = np.array([2, 5, 9])
        out = rr_perturb_neighbor_set(0, neighbors, 200, 40.0, rng)
        assert np.array_equal(out, neighbors)

    def test_survival_rate(self):
        epsilon = 1.5
        keep = rr_keep_probability(epsilon)
        rng = np.random.default_rng(2)
        neighbors = np.arange(1, 201)
        rates = []
        for _ in range(30):
            out = rr_perturb_neighbor_set(0, neighbors, 10_000, epsilon, rng)
            rates.append(np.intersect1d(out, neighbors).size / neighbors.size)
        assert np.mean(rates) == pytest.approx(keep, rel=0.03)

    def test_flip_rate(self):
        epsilon = 2.0
        keep = rr_keep_probability(epsilon)
        rng = np.random.default_rng(3)
        neighbors = np.array([1])
        n = 2_000
        new_counts = []
        for _ in range(20):
            out = rr_perturb_neighbor_set(0, neighbors, n, epsilon, rng)
            new_counts.append(np.setdiff1d(out, neighbors).size)
        expected = (n - 2) * (1 - keep)
        assert np.mean(new_counts) == pytest.approx(expected, rel=0.1)

    def test_deduplicates_input(self):
        rng = np.random.default_rng(4)
        out = rr_perturb_neighbor_set(0, np.array([1, 1, 2]), 10, 40.0, rng)
        assert out.tolist() == [1, 2]
