"""Tests for the sparse graph randomized-response simulator."""

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.ldp.mechanisms import rr_keep_probability
from repro.ldp.perturbation import (
    attacker_connection_budget,
    expected_perturbed_average_degree,
    expected_perturbed_degree,
    perturb_graph,
)
from repro.utils.sparse import pair_count


class TestPerturbGraph:
    def test_node_count_preserved(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, rng=0)
        assert perturb_graph(g, 2.0, rng=0).num_nodes == 100

    def test_deterministic(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, rng=0)
        assert perturb_graph(g, 2.0, rng=5) == perturb_graph(g, 2.0, rng=5)

    def test_high_epsilon_identity_like(self):
        g = powerlaw_cluster_graph(200, 3, 0.5, rng=0)
        perturbed = perturb_graph(g, 40.0, rng=0)
        assert perturbed == g

    def test_edge_survival_rate(self):
        g = erdos_renyi_graph(300, 0.2, rng=0)
        epsilon = 2.0
        keep = rr_keep_probability(epsilon)
        rng = np.random.default_rng(1)
        survival_rates = []
        for _ in range(10):
            perturbed = perturb_graph(g, epsilon, rng=rng)
            kept = np.intersect1d(g.edge_codes, perturbed.edge_codes).size
            survival_rates.append(kept / g.num_edges)
        assert np.mean(survival_rates) == pytest.approx(keep, rel=0.02)

    def test_flip_rate_on_non_edges(self):
        g = erdos_renyi_graph(300, 0.2, rng=0)
        epsilon = 2.0
        keep = rr_keep_probability(epsilon)
        non_edges = pair_count(300) - g.num_edges
        rng = np.random.default_rng(2)
        flip_counts = []
        for _ in range(10):
            perturbed = perturb_graph(g, epsilon, rng=rng)
            new_edges = np.setdiff1d(perturbed.edge_codes, g.edge_codes).size
            flip_counts.append(new_edges)
        assert np.mean(flip_counts) == pytest.approx(non_edges * (1 - keep), rel=0.05)

    def test_expected_degree_matches_simulation(self):
        g = erdos_renyi_graph(400, 0.1, rng=0)
        epsilon = 1.0
        rng = np.random.default_rng(3)
        simulated = np.mean(
            [perturb_graph(g, epsilon, rng=rng).degrees().mean() for _ in range(5)]
        )
        predicted = expected_perturbed_average_degree(g, epsilon)
        assert simulated == pytest.approx(predicted, rel=0.02)

    def test_empty_graph(self):
        g = Graph(50)
        perturbed = perturb_graph(g, 1.0, rng=0)
        # Every edge present is a flipped non-edge.
        expected = pair_count(50) * (1 - rr_keep_probability(1.0))
        assert perturbed.num_edges == pytest.approx(expected, rel=0.5)

    def test_single_node(self):
        assert perturb_graph(Graph(1), 1.0, rng=0).num_edges == 0


class TestExpectedDegrees:
    def test_formula(self):
        epsilon = 2.0
        p = rr_keep_probability(epsilon)
        value = expected_perturbed_degree(10.0, 101, epsilon)
        assert value == pytest.approx(10 * p + 90 * (1 - p))

    def test_epsilon_zero(self):
        # At eps=0 everything is random: expected degree = (N-1)/2.
        assert expected_perturbed_degree(5.0, 101, 0.0) == pytest.approx(50.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            expected_perturbed_degree(-1.0, 10, 1.0)

    def test_average_empty_graph(self):
        assert expected_perturbed_average_degree(Graph(0), 1.0) == 0.0

    def test_budget_at_least_one(self):
        g = Graph(10, [(0, 1)])
        assert attacker_connection_budget(g, 50.0) >= 1

    def test_budget_floor_of_expectation(self):
        g = erdos_renyi_graph(200, 0.3, rng=0)
        expected = expected_perturbed_average_degree(g, 3.0)
        assert attacker_connection_budget(g, 3.0) == int(expected)

    def test_budget_decreases_with_epsilon_sparse_graph(self):
        """For sparse graphs, higher eps -> fewer flipped edges -> smaller budget."""
        g = powerlaw_cluster_graph(1000, 5, 0.5, rng=0)
        budgets = [attacker_connection_budget(g, eps) for eps in (1, 2, 4, 8)]
        assert budgets == sorted(budgets, reverse=True)
        assert budgets[0] > budgets[-1]
