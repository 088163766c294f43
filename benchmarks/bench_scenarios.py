"""Scenario-driven sweep benchmark (extension workloads).

Not a paper figure: this bench runs registered cross-product scenarios —
workloads the paper never measured — end to end through the declarative
scenario subsystem (spec -> compiled TrialTask batch -> engine), timing the
full pipeline and sanity-checking the aggregated curves.  It doubles as the
CI smoke test proving that a scenario outside the paper's fixed grid is one
registry lookup away.
"""

import numpy as np
import pytest
from conftest import bench_config, emit, record_timing

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize(
    "name",
    ["xprod/protocol-duel-mga", "xprod/defense-matrix-mga"],
)
def test_scenario_sweep(benchmark, name):
    spec = get_scenario(name)
    config = bench_config(spec.dataset)

    result = benchmark.pedantic(
        run_scenario, args=(spec, config), rounds=1, iterations=1
    )

    emit(f"scenario_{name.replace('/', '__')}", result.format())
    sweep = result.sweep()
    assert list(sweep.values) == list(spec.values)
    for series, curve in sweep.series.items():
        assert len(curve) == len(spec.values)
        assert all(np.isfinite(g) for g in curve), series


def test_target_triangle_path():
    """The fig09 workload counts triangles at the targets only.

    Runs the fig9 scenario with a live tracer and asserts, from the
    deterministic triangle counters, that no estimate swept every node
    (``triangles.full == 0``) and that exactly the before and after views'
    target rows were counted (``triangles.rows == 2 * sum |targets|`` over
    the compiled tasks, the targets re-sampled here from each task's seed).
    Records the wall clock as ``bench_scenarios/targets``.  Forces
    ``jobs=1``: tracer counters are process-local, and pool workers' counts
    would not reach this tracer.
    """
    import time

    from repro.core.threat_model import ThreatModel
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.run import load_scenario_graph
    from repro.telemetry.core import Tracer, use_tracer
    from repro.utils.rng import child_rng

    spec = get_scenario("fig9")
    config = bench_config(spec.dataset, jobs=1, cache=False)
    graph = load_scenario_graph(spec, config)
    expected_rows = 2 * sum(
        ThreatModel.sample(
            graph, task.beta, task.gamma, rng=child_rng(task.seed, "threat")
        ).targets.size
        for task in compile_scenario(spec, graph, config)
    )

    with use_tracer(Tracer()) as tracer:
        start = time.perf_counter()
        run_scenario(spec, config)
        seconds = time.perf_counter() - start
    counters = {
        name: tracer.counters.get(name, 0) for name in ("triangles.full", "triangles.rows")
    }

    record_timing("bench_scenarios/targets", seconds)
    emit(
        "target_triangle_path",
        f"fig09 workload ({spec.dataset}): {seconds:.2f}s\n"
        f"triangle counters: {counters}, expected rows {expected_rows}",
    )
    assert counters["triangles.full"] == 0, "an estimate swept every node"
    assert counters["triangles.rows"] == expected_rows


def test_scenario_compile_overhead(benchmark):
    """Compiling a spec to its task batch is negligible next to running it."""
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.run import load_scenario_graph

    spec = get_scenario("fig12a")
    config = bench_config(spec.dataset)
    graph = load_scenario_graph(spec, config)

    tasks = benchmark(compile_scenario, spec, graph, config)
    assert len(tasks) == (2 + len(spec.values)) * config.trials
