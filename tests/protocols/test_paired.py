"""Tests for the paired-run collection path and its bit-identity contract.

``collect_paired`` must be indistinguishable — graph, degree reports and
every downstream estimate — from two independent ``collect`` calls replaying
the same seed.  These tests pin that contract for both protocols, for the
whole evaluation pipeline (undefended and defended), and for the override
plumbing the shared path relies on.
"""

import numpy as np
import pytest

from repro.core.clustering_attacks import ClusteringMGA
from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import evaluate_attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.defenses.base import remove_flagged_pairs
from repro.defenses.evaluation import evaluate_defended_attack
from repro.defenses.naive import NaiveTopDegreeDefense
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.base import (
    FakeReport,
    TwoRunPairedCollection,
    apply_degree_overrides,
    apply_overrides,
    apply_overrides_tracked,
)
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.utils.rng import child_rng


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(90, 3, 0.4, rng=0)


def replace_overrides(num_nodes):
    return {
        2: FakeReport(claimed_neighbors=[5, 9, 11], reported_degree=3.0),
        7: FakeReport(claimed_neighbors=[2, 30], reported_degree=2.0),
    }


def augment_overrides():
    return {
        4: FakeReport(claimed_neighbors=[8], reported_degree=0.0, augment=True, degree_delta=1.0),
        13: FakeReport(claimed_neighbors=[4, 20], reported_degree=0.0, augment=True, degree_delta=2.0),
    }


def assert_reports_identical(first, second):
    assert first.perturbed_graph.num_nodes == second.perturbed_graph.num_nodes
    assert np.array_equal(first.perturbed_graph.edge_codes, second.perturbed_graph.edge_codes)
    assert np.array_equal(first.reported_degrees, second.reported_degrees)
    assert np.array_equal(first.overridden, second.overridden)
    assert first.adjacency_epsilon == second.adjacency_epsilon
    assert first.degree_epsilon == second.degree_epsilon


class TestSharedCollectionBitIdentity:
    @pytest.mark.parametrize("protocol_factory", [
        lambda: LFGDPRProtocol(epsilon=4.0),
        lambda: LDPGenProtocol(epsilon=4.0, refined_groups=4),
    ])
    @pytest.mark.parametrize("make_overrides", [replace_overrides, lambda *_: augment_overrides()])
    def test_views_match_seed_replayed_collects(self, graph, protocol_factory, make_overrides):
        protocol = protocol_factory()
        overrides = make_overrides(graph.num_nodes)
        seed = 1234
        run = protocol.collect_paired(graph, seed)
        assert_reports_identical(run.before, protocol.collect(graph, seed))
        assert_reports_identical(
            run.after(overrides), protocol.collect(graph, seed, overrides=overrides)
        )

    def test_after_without_overrides_is_the_before_view(self, graph):
        run = LFGDPRProtocol(epsilon=4.0).collect_paired(graph, 7)
        assert run.after(None) is run.before
        assert run.after({}) is run.before

    def test_seeded_after_degrees_match_recount(self, graph):
        """The degree array seeded from honest + net changes is exact."""
        run = LFGDPRProtocol(epsilon=2.0).collect_paired(graph, 3)
        after = run.after(replace_overrides(graph.num_nodes))
        seeded = after.perturbed_graph.degrees()
        rows, cols = after.perturbed_graph.edge_arrays()
        recount = (
            np.bincount(rows, minlength=graph.num_nodes)
            + np.bincount(cols, minlength=graph.num_nodes)
        )
        assert np.array_equal(seeded, recount)

    def test_generator_rejected(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        with pytest.raises(TypeError, match="replayable seed"):
            protocol.collect_paired(graph, np.random.default_rng(0))
        with pytest.raises(TypeError, match="replayable seed"):
            LDPGenProtocol(epsilon=4.0).collect_paired(graph, np.random.default_rng(0))
        with pytest.raises(TypeError, match="replayable seed"):
            TwoRunPairedCollection(protocol, graph, np.random.default_rng(0))


def two_run_reference(graph, protocol, attack, threat, rng):
    """Before/after reports from two seed-replayed ``collect`` calls.

    Crafts exactly as the evaluation pipeline does (same child streams), then
    collects the honest world and, replaying the same protocol seed, the
    attacked world with the overrides — the oracle ``collect_paired`` must
    reproduce bit for bit.
    """
    knowledge = AttackerKnowledge.from_protocol(protocol, graph)
    overrides = attack.craft(graph, threat, knowledge, rng=child_rng(rng, "attack-craft"))
    seed = int(child_rng(rng, "protocol-run").integers(2**63 - 1))
    before = protocol.collect(graph, seed)
    after = protocol.collect(graph, seed, overrides=overrides)
    return before, after


def target_estimates(protocol, metric, reports, targets, labels=None):
    if metric == "degree_centrality":
        return protocol.estimate_degree_centrality(reports)[targets]
    if metric == "clustering_coefficient":
        return protocol.estimate_clustering_coefficient(reports)[targets]
    return np.array([protocol.estimate_modularity(reports, labels)])


class TestEvaluationPipelineEquivalence:
    """The paired evaluation matches an explicit two-collection reference."""

    @pytest.mark.parametrize("metric", ["degree_centrality", "clustering_coefficient", "modularity"])
    def test_evaluate_attack_matches_legacy(self, graph, metric):
        labels = np.arange(graph.num_nodes) % 4
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        protocol = LFGDPRProtocol(epsilon=4.0)

        outcome = evaluate_attack(
            graph, protocol, DegreeMGA(), threat, metric=metric, rng=11, labels=labels
        )
        before, after = two_run_reference(graph, protocol, DegreeMGA(), threat, rng=11)
        expected_before = target_estimates(protocol, metric, before, threat.targets, labels)
        expected_after = target_estimates(protocol, metric, after, threat.targets, labels)
        assert np.array_equal(outcome.before, expected_before)
        assert np.array_equal(outcome.after, expected_after)
        assert outcome.total_gain == float(np.abs(expected_after - expected_before).sum())

    def test_defended_evaluation_matches_legacy(self, graph):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=3)
        protocol = LFGDPRProtocol(epsilon=4.0)
        defense = NaiveTopDegreeDefense()
        metric = "clustering_coefficient"
        outcome = evaluate_defended_attack(
            graph, protocol, DegreeMGA(), defense, threat, metric=metric, rng=21,
        )
        before, after = two_run_reference(graph, protocol, DegreeMGA(), threat, rng=21)
        defended, flagged = defense.apply(after)
        assert np.array_equal(
            outcome.before, target_estimates(protocol, metric, before, threat.targets)
        )
        assert np.array_equal(
            outcome.after_defended,
            target_estimates(protocol, metric, defended, threat.targets),
        )
        assert np.array_equal(outcome.flagged, flagged)

    def test_ldpgen_evaluation_matches_legacy(self, graph):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=4)
        protocol = LDPGenProtocol(epsilon=4.0, refined_groups=4)
        metric = "degree_centrality"
        outcome = evaluate_attack(graph, protocol, DegreeMGA(), threat, metric=metric, rng=9)
        before, after = two_run_reference(graph, protocol, DegreeMGA(), threat, rng=9)
        assert np.array_equal(
            outcome.before, target_estimates(protocol, metric, before, threat.targets)
        )
        assert np.array_equal(
            outcome.after, target_estimates(protocol, metric, after, threat.targets)
        )


def test_views_free_without_cycle_collection(graph):
    """The honest view must not reference itself: a cycle would keep every
    trial's perturbed graph and packed matrix alive until the cyclic
    collector happens to run."""
    import gc
    import weakref

    protocol = LFGDPRProtocol(epsilon=2.0)
    gc.disable()
    try:
        run = protocol.collect_paired(graph, 3)
        after = run.after(replace_overrides(graph.num_nodes))
        assert run.before.baseline.honest is None
        assert after.baseline.honest is run.before
        for reports in (run.before, after):
            protocol.estimate_clustering_coefficient(reports, nodes=np.arange(5))
        honest = weakref.ref(run.before)
        del run, after, reports
        assert honest() is None
    finally:
        gc.enable()


def assert_bit_identical(first, second, view=""):
    assert first.dtype == second.dtype == np.float64, view
    assert first.tobytes() == second.tobytes(), view


class TestTargetOnlyEstimation:
    """``estimate_clustering_coefficient(r, nodes)`` is the full vector
    indexed by ``nodes``, bit for bit, on every view the gain reads."""

    @pytest.mark.parametrize("backend", ["0", "1.1"])
    @pytest.mark.parametrize("plugin", ["perturbed", "calibrated"])
    @pytest.mark.parametrize("clip", [False, True])
    def test_lfgdpr_views(self, graph, backend, plugin, clip, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_THRESHOLD", backend)
        protocol = LFGDPRProtocol(
            epsilon=2.0, clustering_degree_plugin=plugin, clip_clustering=clip
        )
        threat = ThreatModel.sample(graph, 0.1, 0.1, rng=2)
        knowledge = AttackerKnowledge.from_protocol(protocol, graph)
        overrides = ClusteringMGA().craft(graph, threat, knowledge, rng=5)
        run = protocol.collect_paired(graph, 17)
        after = run.after(overrides)
        defended, flagged = NaiveTopDegreeDefense().apply(after)
        assert flagged.size and defended.baseline is None
        # Low ids shift every kept user's position in the induced subgraph.
        low_ids = np.array([0, 3, 10, 11])
        # Targets plus excluded users (which estimate to 0), out of order.
        nodes = np.concatenate([threat.targets[::-1], flagged[:3], low_ids[:2]])
        views = {
            "honest": run.before,
            "paired-after": after,
            "defended": defended,
            "removed-low-ids": remove_flagged_pairs(after, low_ids),
            "unpaired": protocol.collect(graph, 17, overrides=overrides),
        }
        for name, reports in views.items():
            full = protocol.estimate_clustering_coefficient(reports)
            at_nodes = protocol.estimate_clustering_coefficient(reports, nodes=nodes)
            assert_bit_identical(at_nodes, full[nodes], name)

    def test_ldpgen_indexes_full_vector(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0, refined_groups=4)
        threat = ThreatModel.sample(graph, 0.05, 0.1, rng=4)
        knowledge = AttackerKnowledge.from_protocol(protocol, graph)
        overrides = ClusteringMGA().craft(graph, threat, knowledge, rng=3)
        run = protocol.collect_paired(graph, 9)
        for reports in (run.before, run.after(overrides)):
            full = protocol.estimate_clustering_coefficient(reports)
            at_nodes = protocol.estimate_clustering_coefficient(reports, nodes=threat.targets)
            assert_bit_identical(at_nodes, full[threat.targets])

    def test_evaluate_attack_reads_targets_only(self, graph):
        """The gain pipeline's target-only estimates match the full vectors."""
        threat = ThreatModel.sample(graph, 0.1, 0.05, rng=2)
        protocol = LFGDPRProtocol(epsilon=2.0)
        outcome = evaluate_attack(
            graph, protocol, ClusteringMGA(), threat,
            metric="clustering_coefficient", rng=5,
        )
        before, after = two_run_reference(graph, protocol, ClusteringMGA(), threat, rng=5)
        full_before = protocol.estimate_clustering_coefficient(before)
        full_after = protocol.estimate_clustering_coefficient(after)
        assert_bit_identical(outcome.before, full_before[threat.targets])
        assert_bit_identical(outcome.after, full_after[threat.targets])


class TestAugmentCollisionRegression:
    """Augment-mode extra edges colliding with surviving RR pairs (the
    scenario RNA creates when its crafted edge survived perturbation)."""

    def test_colliding_claim_deduped_and_degree_shift_exact(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(6, [(0, 1), (0, 2), (3, 4)])
        overrides = {
            0: FakeReport(
                claimed_neighbors=[1, 5],  # (0, 1) already survived RR
                reported_degree=0.0,
                augment=True,
                degree_delta=2.0,
            )
        }
        graph, overridden = apply_overrides(perturbed, overrides)
        assert overridden.tolist() == [0]
        # The collision is deduplicated: (0, 1) appears once, (0, 5) is new,
        # untouched pairs survive.
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (0, 5), (3, 4)]
        assert graph.num_edges == 4

        noisy = np.array([3.1, 1.0, 1.0, 1.2, 1.2, 0.0])
        reported = apply_degree_overrides(noisy, overrides)
        # Exactly degree_delta on the augmenting user, nobody else moves.
        assert reported[0] == noisy[0] + 2.0
        assert np.array_equal(reported[1:], noisy[1:])

    def test_tracked_changes_exclude_collisions(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(6, [(0, 1), (0, 2), (3, 4)])
        overrides = {
            0: FakeReport(
                claimed_neighbors=[1, 5], reported_degree=0.0, augment=True, degree_delta=2.0
            )
        }
        graph, overridden, added, removed = apply_overrides_tracked(perturbed, overrides)
        # Only the genuinely new pair is a net addition; nothing was removed
        # (augment keeps the user's RR pairs).
        rows, cols = Graph.from_codes(6, added).edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 5)]
        assert removed.size == 0

    def test_replace_readding_dropped_pair_nets_out(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(5, [(0, 1), (0, 2)])
        overrides = {0: FakeReport(claimed_neighbors=[1, 3], reported_degree=2.0)}
        graph, _, added, removed = apply_overrides_tracked(perturbed, overrides)
        assert sorted(graph.edges()) == [(0, 1), (0, 3)]
        # (0, 1) was dropped and re-claimed: no net change either way.
        add_pairs = list(zip(*Graph.from_codes(5, added).edge_arrays()))
        drop_pairs = list(zip(*Graph.from_codes(5, removed).edge_arrays()))
        assert add_pairs == [(0, 3)]
        assert drop_pairs == [(0, 2)]


class TestVectorizedOverridePlumbing:
    def test_degree_overrides_mixed_modes(self):
        noisy = np.array([1.0, 2.0, 3.0, 4.0])
        overrides = {
            0: FakeReport(claimed_neighbors=[1], reported_degree=9.0),
            2: FakeReport(claimed_neighbors=[3], reported_degree=0.0, augment=True, degree_delta=-1.5),
        }
        result = apply_degree_overrides(noisy, overrides)
        assert result.tolist() == [9.0, 2.0, 1.5, 4.0]
        assert noisy.tolist() == [1.0, 2.0, 3.0, 4.0]  # input untouched

    def test_self_loop_rejected_with_offender_named(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {2: FakeReport(claimed_neighbors=[2], reported_degree=1.0)}
        with pytest.raises(ValueError, match="fake user 2 claims a self-loop"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_neighbor_rejected_with_offender_named(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {1: FakeReport(claimed_neighbors=[99], reported_degree=1.0)}
        with pytest.raises(ValueError, match="fake user 1 claims out-of-range neighbor 99"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_fake_id_rejected(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {9: FakeReport(claimed_neighbors=[0], reported_degree=1.0)}
        with pytest.raises(ValueError, match="out of range"):
            apply_overrides(perturbed, overrides)
