"""Layer spans recorded from outside the program, and what they add up to.

:func:`instrument` wraps the public entry point of every layer in place —
nothing under ``src/`` knows it is being traced.  Each call becomes one
span ``(name, start, end, parent)`` kept in memory; the leg writes them
out once the run has ended.  :func:`layer_metrics` turns the spans into
self times (a span's duration minus its child spans'), per-layer counts and
shares of the sweep.

Only the main thread records: the layers run there in a serial sweep, and
the pool's helper threads must not interleave with the span stack.  Pool
workers forked from a traced process inherit the wrappers but their spans
stay in the worker, so on a multi-worker run the layer split covers the
parent's side only (setup, store, export, pool and dispatch).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: Layer spans in report order; each yields ``<name>_s`` and ``<name>.share``.
LAYERS = (
    "graph.load",
    "scenarios.compile",
    "core.threat",
    "core.craft",
    "protocols.collect",
    "protocols.overrides",
    "protocols.estimate",
    "defenses.apply",
    "engine.store_get",
    "engine.store_put",
    "engine.export",
    "engine.pool",
)

#: The span that encloses one sweep: every task of the figure runs in it.
SWEEP_SPAN = "engine.run"

#: Counters a traced leg reports beside its spans.
COUNTERS = (
    "graph.nodes",
    "graph.edges",
    "core.threat_calls",
    "core.craft_calls",
    "core.fake_reports",
    "protocols.collect_scalar_calls",
    "protocols.collect_batched_calls",
    "protocols.collect_batched_trials",
    "protocols.overrides_calls",
    "protocols.touched_rows",
    "protocols.estimate_calls",
    "protocols.estimate_packed",
    "protocols.estimate_sparse",
    "protocols.estimate_streaming",
    "defenses.apply_calls",
    "defenses.flagged",
    "engine.store_hits",
    "engine.store_misses",
    "engine.store_puts",
)


class Recorder:
    """In-memory span list plus counters for one leg."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._main = threading.main_thread()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per main-thread call.

        ``count(counts, args, kwargs, result)`` runs after the span closes,
        so its cost lands in the caller's self time, not the layer's.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not recorder._main:
                return fn(*args, **kwargs)
            index = len(recorder.spans)
            span = [name, 0, 0, recorder._stack[-1] if recorder._stack else -1]
            recorder.spans.append(span)
            recorder._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                recorder._stack.pop()
            if count is not None:
                count(recorder.counts, args, kwargs, result)
            return result

        return traced

    def records(self) -> Iterable[dict]:
        """The spans as JSON-ready records (times in ns, perf_counter base)."""
        for name, start, end, parent in self.spans:
            yield {"name": name, "start": start, "end": end,
                   "parent": parent, "run": self.run_id}


def _subclasses(root: type) -> List[type]:
    found, pending = [root], [root]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _wrap_methods(recorder: Recorder, root: type, method: str, name: str,
                  count: Optional[Callable] = None) -> None:
    """Wrap ``method`` on every class under ``root`` that defines its own."""
    for cls in _subclasses(root):
        if method in cls.__dict__:
            setattr(cls, method, recorder.wrap(name, cls.__dict__[method], count))


def instrument(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro  # noqa: F401  (registers every attack/protocol/defense)
    import repro.scenarios.run as scenario_run
    from repro.core.base import Attack
    from repro.core.threat_model import ThreatModel
    from repro.defenses.base import Defense
    from repro.engine.executors import PoolManager
    from repro.engine.graph_store import GraphStore
    from repro.engine.result_store import ShardedResultStore
    from repro.engine.session import EngineSession
    from repro.graph.bitmatrix import should_use_packed
    from repro.graph.streaming import should_stream
    from repro.protocols.base import GraphLDPProtocol, PairedCollection

    def on_load(counts, args, kwargs, graph):
        counts["graph.nodes"] = max(counts["graph.nodes"], graph.num_nodes)
        counts["graph.edges"] = max(counts["graph.edges"], graph.num_edges)

    def tally(key: str):
        def count(counts, args, kwargs, result):
            counts[key] += 1
        return count

    def on_craft(counts, args, kwargs, overrides):
        counts["core.craft_calls"] += 1
        counts["core.fake_reports"] += len(overrides)

    def on_batch(counts, args, kwargs, runs):
        counts["protocols.collect_batched_calls"] += 1
        counts["protocols.collect_batched_trials"] += len(runs)

    def on_after(counts, args, kwargs, reports):
        counts["protocols.overrides_calls"] += 1
        baseline = reports.baseline
        if baseline is not None and baseline.touched is not None:
            counts["protocols.touched_rows"] += int(baseline.touched.size)

    def on_apply(counts, args, kwargs, result):
        counts["defenses.apply_calls"] += 1
        counts["defenses.flagged"] += len(result[1])

    def on_get(counts, args, kwargs, gain):
        counts["engine.store_misses" if gain is None else "engine.store_hits"] += 1

    scenario_run.load_dataset = recorder.wrap(
        "graph.load", scenario_run.load_dataset, on_load
    )
    scenario_run.prepare_scenario = recorder.wrap(
        "scenarios.compile", scenario_run.prepare_scenario
    )
    ThreatModel.sample = classmethod(recorder.wrap(
        "core.threat", ThreatModel.__dict__["sample"].__func__,
        tally("core.threat_calls"),
    ))
    _wrap_methods(recorder, Attack, "craft", "core.craft", on_craft)
    for method in ("collect", "collect_paired"):
        _wrap_methods(recorder, GraphLDPProtocol, method, "protocols.collect",
                      tally("protocols.collect_scalar_calls"))
    _wrap_methods(recorder, GraphLDPProtocol, "collect_paired_batch",
                  "protocols.collect", on_batch)
    _wrap_methods(recorder, PairedCollection, "after", "protocols.overrides", on_after)

    def estimator(fn: Callable) -> Callable:
        traced = recorder.wrap("protocols.estimate", fn, tally("protocols.estimate_calls"))

        @functools.wraps(fn)
        def classify(self, reports, *args, **kwargs):
            # The backend the perturbed graph dispatches to, judged before
            # the span opens so the predicate costs the layer nothing.
            graph = reports.perturbed_graph
            backend = (
                "packed" if should_use_packed(graph)
                else "streaming" if should_stream(graph)
                else "sparse"
            )
            recorder.counts[f"protocols.estimate_{backend}"] += 1
            return traced(self, reports, *args, **kwargs)

        return classify

    for method in ("estimate_degree_centrality", "estimate_clustering_coefficient",
                   "estimate_modularity"):
        for cls in _subclasses(GraphLDPProtocol):
            if method in cls.__dict__:
                setattr(cls, method, estimator(cls.__dict__[method]))
    _wrap_methods(recorder, Defense, "apply", "defenses.apply", on_apply)
    ShardedResultStore.get = recorder.wrap("engine.store_get", ShardedResultStore.get, on_get)
    ShardedResultStore.put = recorder.wrap(
        "engine.store_put", ShardedResultStore.put, tally("engine.store_puts")
    )
    EngineSession.add_graph = recorder.wrap("engine.export", EngineSession.add_graph)
    GraphStore.handles_for = recorder.wrap("engine.export", GraphStore.handles_for)
    PoolManager.acquire = recorder.wrap("engine.pool", PoolManager.acquire)
    EngineSession.run = recorder.wrap(SWEEP_SPAN, EngineSession.run)


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds per span name, each span counted minus its children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for span, children in zip(spans, child_ns):
        totals[span["name"]] += (span["end"] - span["start"] - children) / 1e9
    return totals


def sweep_seconds(spans: List[dict]) -> float:
    """Wall time of the leg's sweep: its ``engine.run`` spans, summed."""
    return sum(
        (span["end"] - span["start"]) / 1e9
        for span in spans
        if span["name"] == SWEEP_SPAN
    )


def layer_metrics(cold: List[dict], cold_counts: Dict[str, float],
                  replay: List[dict], replay_counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced figure (cold sweep, then replay).

    Times, counts and shares come from the cold leg.  The store metrics add
    the replay leg, where every lookup is a hit.
    """
    cold_self = self_times(cold)
    replay_self = self_times(replay)
    sweep = sweep_seconds(cold)
    metrics: Dict[str, float] = {"task.sweep_s": sweep}
    for layer in LAYERS:
        seconds = cold_self.get(layer, 0.0)
        share = seconds / sweep if sweep > 0 else 0.0
        if layer.startswith("engine.store_"):
            seconds += replay_self.get(layer, 0.0)
        metrics[f"{layer}_s"] = seconds
        metrics[f"{layer}.share"] = share
    for name in COUNTERS:
        value = cold_counts.get(name, 0.0)
        if name.startswith("engine.store_"):
            value += replay_counts.get(name, 0.0)
        metrics[name] = value
    metrics["task.unattributed_s"] = cold_self.get(SWEEP_SPAN, 0.0)
    return metrics
