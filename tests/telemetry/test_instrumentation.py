"""Engine/scenario instrumentation: spans and counters from real runs.

These tests pin the two telemetry invariants the ISSUE demands:

* **zero interference** — tracing on or off, serial or parallel, results
  stay bit-identical (spans never touch RNG state);
* **faithful accounting** — the counters the CI and the manifest read
  (``cache.hit``, ``batch.tasks``, worker-side ``task.execute`` spans)
  reflect what actually happened.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine.cache import NullCache, ResultCache
from repro.engine.executors import ParallelExecutor, SerialExecutor, run_tasks
from repro.engine.result_store import ShardedResultStore
from repro.engine.session import EngineSession
from repro.engine.tasks import TrialTask
from repro.experiments.config import ExperimentConfig
from repro.scenarios.registry import get_scenario
from repro.scenarios.run import load_scenario_graph, run_scenario
from repro.scenarios.compiler import compile_scenario
from repro.telemetry.core import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.telemetry.progress import ProgressPrinter

CONFIG = ExperimentConfig(trials=2, scale=0.02, seed=0, cache=False)


def _sha256_of(gains):
    payload = json.dumps([float(g) for g in gains]).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def batch():
    """A real compiled scenario batch (fig6 at the golden scale)."""
    spec = get_scenario("fig6")
    graph = load_scenario_graph(spec, CONFIG)
    return graph, compile_scenario(spec, graph, CONFIG)


class TestTracingDoesNotChangeResults:
    def test_serial_traced_equals_untraced(self, batch):
        graph, tasks = batch
        untraced = run_tasks(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        with use_tracer(Tracer()):
            traced = run_tasks(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        assert _sha256_of(traced) == _sha256_of(untraced)

    def test_parallel_traced_equals_serial_traced(self, batch):
        """sha256(Serial) == sha256(Parallel jobs=4) with tracing active."""
        graph, tasks = batch
        with use_tracer(Tracer()):
            serial = run_tasks(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        with use_tracer(Tracer()) as tracer:
            parallel = run_tasks(
                tasks, graph, executor=ParallelExecutor(jobs=4), cache=NullCache()
            )
            # Worker spans actually travelled back and were re-parented.
            fan = [s for s in tracer.spans if s.name == "executor.fan_out"]
            chunks = [s for s in tracer.spans if s.name == "executor.chunk"]
            executed = [s for s in tracer.spans if s.name == "task.execute"]
            assert len(fan) == 1
            assert chunks, "no worker chunk spans were adopted"
            assert all(c.parent_id == fan[0].span_id for c in chunks)
            chunk_ids = {c.span_id for c in chunks}
            assert len(executed) == len(tasks)
            assert all(s.parent_id in chunk_ids for s in executed)
            assert tracer.counters["executor.fan_out"] == 1
        assert _sha256_of(parallel) == _sha256_of(serial)


class TestDriverCounters:
    def test_cache_hit_miss_and_batch_tasks(self, batch, tmp_path):
        graph, tasks = batch
        cache = ResultCache(tmp_path)
        with use_tracer(Tracer()) as cold:
            run_tasks(tasks, graph, executor=SerialExecutor(), cache=cache)
        assert cold.counters["cache.miss"] == len(tasks)
        assert cold.counters["cache.hit"] == 0
        assert cold.counters["batch.tasks"] == len(tasks)

        with use_tracer(Tracer()) as warm:
            run_tasks(tasks, graph, executor=SerialExecutor(), cache=cache)
        assert warm.counters["cache.hit"] == len(tasks)
        assert warm.counters["cache.miss"] == 0
        # Warm replay computes nothing, so no task spans exist.
        assert not any(s.name == "task.execute" for s in warm.spans)

    def test_serial_fallback_counter(self, batch):
        graph, tasks = batch
        with use_tracer(Tracer()) as tracer:
            run_tasks(tasks[:1], graph, executor=ParallelExecutor(jobs=4), cache=NullCache())
        assert tracer.counters["executor.serial_fallback"] == 1


class TestNoOpPath:
    def test_untraced_run_records_nothing(self, batch):
        """The default tracer stays the stateless singleton: no spans, no
        counters, no allocations attributable to telemetry."""
        graph, tasks = batch
        assert current_tracer() is NULL_TRACER
        run_tasks(tasks[:4], graph, executor=SerialExecutor(), cache=NullCache())
        assert current_tracer() is NULL_TRACER
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.counters == {}


class TestSessionTelemetry:
    def test_session_lifecycle_counters_and_close_stats(self, batch, tmp_path):
        graph, tasks = batch
        tracer = Tracer()
        session = EngineSession(
            jobs=1, cache=ShardedResultStore(tmp_path), telemetry=tracer
        )
        session.add_graph(graph)
        session.run(tasks[:8])
        session.run(tasks[:8])  # warm: answered by the store
        session.close()
        assert current_tracer() is NULL_TRACER, "close must restore the tracer"
        assert tracer.counters["session.create"] == 1
        assert tracer.counters["result_store.miss"] == 8
        assert tracer.counters["result_store.hit"] == 8
        runs = [s for s in tracer.spans if s.name == "session.run"]
        assert len(runs) == 2
        close = [s for s in tracer.spans if s.name == "session.close"]
        assert len(close) == 1
        assert close[0].attributes["hits"] == 8
        assert close[0].attributes["misses"] == 8
        assert close[0].attributes["appends"] == 8

    def test_pool_create_then_reuse(self, batch):
        graph, tasks = batch
        tracer = Tracer()
        with EngineSession(jobs=2, telemetry=tracer) as session:
            session.add_graph(graph)
            session.run(tasks[:12])
            session.run(tasks[:12])
        assert tracer.counters["pool.create"] == 1
        assert tracer.counters["pool.reuse"] == 1
        assert tracer.counters["shm.graph_export"] == 1
        assert tracer.counters["shm.export_bytes"] > 0
        assert any(s.name == "pool.create" for s in tracer.spans)


class TestResultStoreCounters:
    def _task(self):
        return TrialTask(
            graph_key="g", metric="degree_centrality", attack="toy",
            protocol="lf-gdpr", epsilon=4.0, beta=0.05, gamma=0.05,
            seed=1234, figure="T", series="s", value=1.0, trial=0,
        )

    def test_stats_and_counters_track_hits_misses_appends(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        task = self._task()
        with use_tracer(Tracer()) as tracer:
            assert store.get(task) is None
            store.put(task, 0.5)
            assert store.get(task) == 0.5
        assert store.stats() == {
            "hits": 1, "misses": 1, "appends": 1, "migrated": 0,
            "shards_loaded": 0,  # the miss found no shard file to parse
            "reloads": 0,  # nobody else appended behind our back
            "corrupt": 0, "quarantined": 0, "legacy_corrupt": 0,
            "non_durable": 0,  # every append above reached the disk
        }
        assert tracer.counters["result_store.miss"] == 1
        assert tracer.counters["result_store.hit"] == 1
        assert tracer.counters["result_store.append.calls"] == 1
        assert tracer.counters["result_store.append.ns"] >= 0
        # A fresh store sees the appended shard on disk and parses it.
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) == 0.5
        assert fresh.stats()["shards_loaded"] == 1

    def test_legacy_migration_counts(self, tmp_path):
        task = self._task()
        ResultCache(tmp_path).put(task, 0.25)
        store = ShardedResultStore(tmp_path)
        with use_tracer(Tracer()) as tracer:
            assert store.get(task) == 0.25
        assert store.stats()["migrated"] == 1
        assert tracer.counters["result_store.migrated"] == 1


class TestTriangleCounters:
    def test_full_sweeps_and_rows_counted(self):
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.metrics import triangles_at, triangles_per_node

        graph = erdos_renyi_graph(30, 0.3, rng=2)
        with use_tracer(Tracer()) as tracer:
            triangles_per_node(graph)
            triangles_at(graph, np.array([1, 5, 9]))
            triangles_at(graph, np.array([2]))
        assert tracer.counters["triangles.full"] == 1
        assert tracer.counters["triangles.rows"] == 4

    def test_clustering_gain_counts_targets_only(self):
        from repro.core.clustering_attacks import ClusteringMGA
        from repro.core.gain import evaluate_attack
        from repro.core.threat_model import ThreatModel
        from repro.graph.generators import powerlaw_cluster_graph
        from repro.protocols.lfgdpr import LFGDPRProtocol

        graph = powerlaw_cluster_graph(120, 3, 0.4, rng=0)
        threat = ThreatModel.sample(graph, 0.05, 0.1, rng=1)
        with use_tracer(Tracer()) as tracer:
            evaluate_attack(
                graph, LFGDPRProtocol(epsilon=2.0), ClusteringMGA(), threat,
                metric="clustering_coefficient", rng=3,
            )
        assert "triangles.full" not in tracer.counters
        assert tracer.counters["triangles.rows"] == 2 * threat.targets.size


class TestScenarioTelemetry:
    def test_scenario_spans_and_point_callbacks(self):
        spec = get_scenario("fig6")
        points = []

        class PointRecorder:
            def on_batch_start(self, total):
                pass

            def on_task_done(self, task, gain):
                pass

            def on_point_done(self, figure, series, value, mean, stderr, trials):
                points.append((figure, series, value, mean, stderr, trials))

            def on_batch_done(self, stats):
                pass

        tracer = Tracer()
        tracer.add_callback(PointRecorder())
        with use_tracer(tracer):
            result = run_scenario(spec, CONFIG, cache=NullCache())
        sweep = result.sweep()
        run_spans = [s for s in tracer.spans if s.name == "scenario.run"]
        assert len(run_spans) == 1
        assert run_spans[0].attributes["scenario"] == "fig6"
        assert run_spans[0].attributes["tasks"] == tracer.counters["batch.tasks"]
        panel_spans = [s for s in tracer.spans if s.name == "scenario.panel"]
        assert len(panel_spans) == len(spec.panels)
        point_spans = [s for s in tracer.spans if s.name == "scenario.point"]
        expected_points = sum(
            len(panel.series) * len(spec.values) for panel in spec.panels
        )
        assert len(point_spans) == len(points) == expected_points
        # Point spans carry the aggregated numbers the sweep reports.
        for span in point_spans:
            series = span.attributes["series"]
            assert span.attributes["mean"] in sweep.series[series]
            assert span.attributes["stderr"] in sweep.stderr[series]
            assert span.attributes["trials"] == CONFIG.trials


class TestProgressPrinter:
    def test_progress_lines_and_summary(self, batch):
        import io

        graph, tasks = batch
        stream = io.StringIO()
        tracer = Tracer()
        tracer.add_callback(ProgressPrinter(stream=stream))
        with use_tracer(tracer):
            run_tasks(tasks[:6], graph, executor=SerialExecutor(), cache=NullCache())
        text = stream.getvalue()
        assert "[6/6]" in text
        assert "batch done: 6 tasks (0 from cache)" in text
