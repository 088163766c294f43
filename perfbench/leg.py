"""One leg of a benchmark run, in a fresh interpreter.

A leg regenerates one figure exactly as ``repro scenario run`` does —
:func:`repro.scenarios.run.run_scenario` with an :class:`ExperimentConfig`
and a :class:`ShardedResultStore` at ``REPRO_CACHE_DIR`` — and writes what
it saw to ``--out`` as JSON: clock readings on the system-wide monotonic
clock (so the parent can time from before it spawned the leg), the
per-task gains' digest, store statistics, and the resident-set and CPU
figures of this process and of every pool worker it reaped.

``--mode cold`` runs against the empty store the parent made;
``--mode replay`` runs against the store a cold leg just filled.
``--trace 1`` wraps every layer entry point (see :mod:`spans`) and writes
the spans to ``--spans`` once the figure is done.  ``--jobs`` overrides
the workload's worker count.

Run by ``perfbench/run.py``; not meant to be invoked by hand.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _store_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "replay"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--jobs", type=int, default=0)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    report = {"started": STARTED, "dispatched": None, "error": None}
    recorder = None
    try:
        import dataclasses
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.executors import SerialExecutor
        from repro.engine.result_store import ShardedResultStore
        from repro.engine.session import EngineSession
        from repro.experiments.config import ExperimentConfig
        from repro.scenarios import get_scenario
        from repro.scenarios.run import run_scenario

        # Marks the first task handed to an executor: the in-process one on
        # entry, the pool after its first submit (which forks the workers).
        def mark(fn, after):
            @functools.wraps(fn)
            def marked(*a, **k):
                if report["dispatched"] is None and not after:
                    report["dispatched"] = time.monotonic()
                result = fn(*a, **k)
                if report["dispatched"] is None and after:
                    report["dispatched"] = time.monotonic()
                return result
            return marked

        SerialExecutor.execute = mark(SerialExecutor.execute, after=False)
        ProcessPoolExecutor.submit = mark(ProcessPoolExecutor.submit, after=True)

        # The per-task gains in task order, as the session hands them back.
        batches = []
        session_run = EngineSession.run

        @functools.wraps(session_run)
        def capture(self, tasks, cache=None):
            gains = session_run(self, tasks, cache=cache)
            batches.append(gains)
            return gains

        EngineSession.run = capture

        if args.trace:
            from spans import Recorder, instrument

            recorder = Recorder(f"{args.workload}-s{args.seed}-{args.mode}")
            instrument(recorder)

        spec = dataclasses.replace(
            get_scenario(workload.scenario, dataset=workload.dataset),
            values=workload.values,
        )
        config = ExperimentConfig(
            scale=workload.scale, trials=workload.trials,
            jobs=args.jobs or workload.jobs, seed=args.seed,
        )
        store = ShardedResultStore()
        run_scenario(spec, config, cache=store)
        report["finished"] = time.monotonic()

        gains = [gain for batch in batches for gain in batch]
        packed = b"".join(float(gain).hex().encode() + b"\n" for gain in gains)
        report["tasks"] = len(gains)
        report["nonfinite"] = sum(1 for gain in gains if not math.isfinite(gain))
        report["digest"] = hashlib.sha256(packed).hexdigest()
        report["store"] = store.stats()
        report["store_bytes"] = _store_bytes(str(store.root))
    except Exception:
        report["error"] = traceback.format_exc()

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["maxrss_kb"] = max(own.ru_maxrss, workers.ru_maxrss)
    report["cpu_s"] = own.ru_utime + own.ru_stime
    report["worker_cpu_s"] = workers.ru_utime + workers.ru_stime
    if recorder is not None:
        report["counts"] = dict(recorder.counts)
        with open(args.spans, "w") as handle:
            for record in recorder.records():
                handle.write(json.dumps(record) + "\n")
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 1 if report["error"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
