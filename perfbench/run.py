"""Figure-regeneration benchmark: end-to-end metrics, or a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cc-gplus --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

``--trace 0`` interleaves cold figures with replays of their stores until
``--seconds`` is spent, and reports the end-to-end metrics as medians.
``--trace 1`` alternates untraced and traced cold figures, then replays
the last traced one traced (and, where the workload names a pool size,
runs one traced cold figure on that many workers), and reports the
per-layer metrics.  Every leg runs in a fresh interpreter with every
``REPRO_*`` variable unset and a fresh ``REPRO_CACHE_DIR`` under
``.perfbench/tmp`` (see ``leg.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A full record of the run (environment, every
sample, the spans of a traced run) goes to ``.perfbench/results``.
Metric names, units and the reasons behind each workload are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics, self_times, sweep_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run must end inside this many seconds; legs are killed past it.
RUN_DEADLINE_S = 170.0

#: Share of a measured run spent replaying; cold figures get the rest.
REPLAY_SHARE = 0.35

#: End-to-end metric units, in report order.
END_TO_END = {
    "setup_s": "s",
    "figure_s": "s",
    "trials_per_s": "trials/s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}


class Leg(dict):
    """One leg's report plus the parent's spawn time and outcome."""

    @property
    def ok(self) -> bool:
        return self.get("error") is None and "digest" in self


def environment() -> dict:
    """Where and with what a result was measured."""
    sha = None
    if (ROOT / ".git").exists():  # never the SHA of a repository around the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package: str) -> Optional[str]:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "repro_env_unset": {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }


class Runner:
    """Spawns the legs of one run inside a private scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.legs = 0

    def leg(self, mode: str, cache: Path, trace: bool = False, jobs: int = 0) -> Leg:
        self.legs += 1
        tag = f"leg{self.legs}-{mode}{'-traced' if trace else ''}{f'-j{jobs}' if jobs else ''}"
        out = self.scratch / f"{tag}.json"
        spans = self.scratch / f"{tag}.spans.jsonl"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            REPRO_CACHE_DIR=str(cache),
            PYTHONPATH=str(ROOT / "src"),
            TMPDIR=str(self.scratch),
        )
        command = [
            sys.executable, str(HERE / "leg.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--trace", str(int(trace)),
            "--out", str(out), "--spans", str(spans), "--jobs", str(jobs),
        ]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The whole process group: a killed leg must not leave pool
            # workers behind.
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            return Leg(error=f"{tag} exceeded the run deadline", spawned=spawned,
                       returned=time.monotonic(), mode=mode)
        try:
            report = Leg(json.loads(out.read_text()))
        except (OSError, ValueError):
            report = Leg(error=f"{tag} exited {proc.returncode} without a report:\n{stderr}")
        report["spawned"] = spawned
        report["returned"] = time.monotonic()
        report["mode"] = mode
        if trace and spans.exists():
            report["spans"] = [json.loads(line) for line in spans.read_text().splitlines()]
        if report.get("error"):
            print(f"[perfbench] {tag} failed:\n{report['error']}", file=sys.stderr)
        return report

    def cache(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))


def cold_metrics(leg: Leg) -> Dict[str, float]:
    setup = leg["dispatched"] - leg["spawned"]
    figure = leg["finished"] - leg["spawned"]
    return {
        "setup_s": setup,
        "figure_s": figure,
        "trials_per_s": leg["tasks"] / (leg["finished"] - leg["dispatched"]),
        "peak_rss_mb": leg["maxrss_kb"] / 1024.0,
    }


class Verdict:
    """Failure accounting and the digest checks over a run's legs.

    At seed 0 every leg must reproduce the workload's pinned digest; at
    any other seed every leg must reproduce the run's first digest.  A leg
    that raised, returned a non-finite gain, disagreed on the digest or (a
    replay) missed the store counts its tasks as failed.
    """

    def __init__(self, workload, seed: int):
        self.reference = workload.digest if seed == 0 else None
        self.tasks = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, legs: List[Leg]) -> None:
        for leg in legs:
            if leg.ok:
                self.tasks = leg["tasks"]
            tasks = leg.get("tasks") or self.tasks or 1
            self.attempted += tasks
            problem, failed = self._problem(leg, tasks)
            if problem:
                self.failed += failed
                self.problems.append(problem)

    def _problem(self, leg: Leg, tasks: int):
        mode = leg.get("mode", "leg")
        if not leg.ok:
            return f"{mode} leg raised", tasks
        if leg["nonfinite"]:
            return f"{mode} leg returned {leg['nonfinite']} non-finite gains", leg["nonfinite"]
        if mode == "cold" and leg["dispatched"] is None:
            return "cold leg computed nothing: its empty store answered", tasks
        if self.reference is None:
            self.reference = leg["digest"]
        if leg["digest"] != self.reference:
            return f"{mode} digest {leg['digest']} != expected {self.reference}", tasks
        store = leg["store"]
        if mode == "replay" and (store["hits"] != tasks or store["misses"]):
            return (f"replay missed the store: {store['hits']} hits, "
                    f"{store['misses']} misses for {tasks} tasks"), tasks
        return None, 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure(runner: Runner, seconds: float, verdict: Verdict, record: dict) -> Dict[str, float]:
    """Cold figures interleaved with replays, for ``seconds``; medians of the samples.

    Each cold figure gets its own empty store, and replays of that store
    follow it until replays hold ``REPLAY_SHARE`` of the time spent, so
    both kinds of leg sample the host across the whole run.  A leg starts
    only while it is expected to end within ``seconds``, costed at the mean
    wall time of its kind so far; when no cold figure fits, replays fill
    the rest.  Every run gets at least one of each.
    """
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    walls: Dict[str, List[float]] = {"cold": [], "replay": []}
    started = time.monotonic()
    legs: List[Leg] = []
    cache: Optional[Path] = None
    while True:
        elapsed = time.monotonic() - started
        fits = {mode: elapsed + statistics.mean(w or [0.0]) <= seconds
                for mode, w in walls.items()}
        replayed = sum(walls["replay"])
        if cache is None or (fits["cold"] and replayed >= REPLAY_SHARE * elapsed):
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)
            cache = runner.cache()
            leg = runner.leg("cold", cache)
            # A wrong digest still leaves the timing valid; ``correct`` reports it.
            if leg.ok and leg["dispatched"] is not None:
                for name, value in cold_metrics(leg).items():
                    samples[name].append(value)
        elif fits["replay"] or not walls["replay"]:
            leg = runner.leg("replay", cache)
            if leg.ok:
                samples["replay_s"].append(leg["finished"] - leg["spawned"])
        else:
            break
        legs.append(leg)
        walls[leg["mode"]].append(leg["returned"] - leg["spawned"])
        if not leg.ok:
            break
    if cache is not None:
        shutil.rmtree(cache, ignore_errors=True)
    verdict.check(legs)
    record["samples"] = legs
    if not samples["figure_s"] or not samples["replay_s"]:
        return {}
    return {name: statistics.median(values) for name, values in samples.items()}


def trace(runner: Runner, verdict: Verdict, record: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced cold figure and its traced replay.

    Untraced and traced cold figures alternate twice, so the tracing
    overhead compares two medians; the layer split comes from the last
    traced figure and a traced replay of its store.  On a workload with
    ``pool_jobs``, the engine export and pool layers and the worker CPU
    come from one more traced cold figure on that many workers.
    """
    legs, untraced, traced = [], [], []
    for _ in range(2):
        untraced.append(runner.leg("cold", runner.cache()))
        cache = runner.cache()
        traced.append(runner.leg("cold", cache, trace=True))
        legs += [untraced[-1], traced[-1]]
    cold = traced[-1]
    if cold.ok:
        legs.append(runner.leg("replay", cache, trace=True))
    jobs = WORKLOADS[runner.workload].pool_jobs
    if jobs and all(leg.ok for leg in legs):
        legs.append(runner.leg("cold", runner.cache(), trace=True, jobs=jobs))
    verdict.check(legs)
    record["samples"] = [{k: v for k, v in leg.items() if k != "spans"} for leg in legs]
    record["spans"] = [span for leg in legs for span in leg.get("spans", [])]
    if not all(leg.ok for leg in legs):
        return {}
    replay = legs[len(untraced) + len(traced)]
    metrics = layer_metrics(
        cold["spans"], cold.get("counts", {}), replay["spans"], replay.get("counts", {})
    )
    metrics["engine.store_bytes"] = float(cold["store_bytes"])
    metrics["engine.worker_cpu_s"] = cold["worker_cpu_s"]
    metrics["engine.busy_frac"] = 0.0
    if jobs:
        pool = legs[-1]
        pool_self = self_times(pool["spans"])
        pool_sweep = sweep_seconds(pool["spans"])
        for layer in ("engine.export", "engine.pool"):
            metrics[f"{layer}_s"] = pool_self.get(layer, 0.0)
            metrics[f"{layer}.share"] = metrics[f"{layer}_s"] / pool_sweep
        metrics["engine.worker_cpu_s"] = pool["worker_cpu_s"]
        metrics["engine.busy_frac"] = pool["worker_cpu_s"] / (jobs * pool_sweep)

    def figure(leg: Leg) -> float:
        return leg["finished"] - leg["spawned"]

    metrics["trace.overhead_frac"] = (
        statistics.median(map(figure, traced)) / statistics.median(map(figure, untraced)) - 1
    )
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def declared_metrics(traced: bool) -> Optional[List[str]]:
    """The metric names BENCHMARK.json promises for this mode, if it is there."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [metric["name"] for metric in spec["per_layer" if traced else "end_to_end"]]


def run_one(name: str, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(name, seed, scratch, time.monotonic() + RUN_DEADLINE_S)
    verdict = Verdict(workload, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
    if traced:
        values = trace(runner, verdict, record)
    else:
        values = measure(runner, seconds, verdict, record)
    declared = declared_metrics(traced)
    if values and declared is not None and set(values) != set(declared):
        verdict.problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    record["problems"] = verdict.problems
    record["result"] = {
        "correct": verdict.correct and bool(values),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()},
    }
    return record


def print_report(record: dict) -> None:
    result = record["result"]
    mode = "per-layer (traced)" if record["trace"] else "end to end"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    for problem in record["problems"]:
        print(f"   ! {problem}")
    metrics = result["metrics"]
    if not record["trace"]:
        for key, entry in metrics.items():
            print(f"   {key:<34} {entry['value']:>14.4f} {entry['unit']}")
        failed_frac = result["failed"] / max(1, result["attempted"])
        print(f"   {'failed_frac':<34} {failed_frac:>14.4f} ratio")
        modes = [leg.get("mode") for leg in record["samples"]]
        print(f"   (medians of {modes.count('cold')} cold figures and "
              f"{modes.count('replay')} replays)")
        return
    pooled = WORKLOADS[record["workload"]].pool_jobs
    for key, entry in metrics.items():
        if key in ("engine.busy_frac", "engine.worker_cpu_s") and not pooled:
            continue  # no pool workers without a pool leg
        print(f"   {key:<34} {entry['value']:>14.4f} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    env = environment()
    work = ROOT / ".perfbench"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=work / "tmp"))
    print(f"perfbench  sha={env['git_sha']}  nproc={env['nproc']}  cpu={env['cpu_model']}  "
          f"python={env['python']}  numpy={env['numpy']}  scipy={env['scipy']}  "
          f"unset REPRO_*={env['repro_env_unset'] or '{}'}")

    if args.workload == "all":
        plan = [(name, traced) for name in WORKLOADS for traced in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    records = []
    try:
        for name, traced in plan:
            record = run_one(name, args.seed, args.seconds, traced, scratch)
            record["environment"] = env
            print_report(record)
            records.append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(records if len(records) > 1 else records[0], indent=1))
    if not any(record["result"]["metrics"] for record in records):
        print("perfbench: no leg completed; see the errors above", file=sys.stderr)
        return 1
    if len(records) == 1:
        summary = records[0]["result"]
    else:
        summary = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{key}": entry
                for r in records for key, entry in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
