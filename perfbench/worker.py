"""Runs one workload in this process and prints its result.

Start it through ``perfbench/run.py``, which pins the thread pools and the
hash seed before this process imports numpy.  Modes::

    python3 -m perfbench.worker --workload NAME --seed N --seconds S --trace 0|1
    python3 -m perfbench.worker --probe-import
    python3 -m perfbench.worker --write-references SEEDS --workload NAME

A measured run is batches back to back: the first batch warms caches and
lazy set-up, the rest are timed.  The untraced run reports medians over
batches; the traced run alternates untraced and traced batches so the
tracing overhead is measured under the same machine load.  Every
operation of every batch goes through the output check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench import check
from perfbench.layers import STANDALONE, LayerTracer, layer_map_violations, layer_names
from perfbench.workloads import PROGRAM_MODULES, WORKLOADS, Workload, derive_seed

OUT_DIR = Path(".perfbench_out")
PREPARE_REPEATS = 3  # input generation runs this often, for a setup_s median
MIN_BATCHES = 2  # the warm-up batch plus at least one timed (or traced) one
STEP_NAMES = tuple(step.name for step in WORKLOADS["characterize"].steps)


def import_program() -> float:
    """Import every program module a workload uses; returns the seconds."""
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


@dataclass
class Outcome:
    """One operation's simulated outputs and what went wrong with them."""

    summary: Optional[Dict[str, Any]]
    problems: List[str]
    wall_s: float = 0.0


@dataclass
class Batch:
    """One pass over a workload's operations."""

    traced: bool
    wall_s: float = 0.0  # host seconds inside the timed calls
    build_s: float = 0.0  # host seconds in build_runtime
    outcomes: Dict[str, Outcome] = field(default_factory=dict)


def _call(tracer: Optional[LayerTracer], cell: int, fn, *args):
    # Start every operation on a collected heap: the runtime's reference
    # cycles otherwise pile up across cells, and peak RSS (and when the
    # collector runs) would depend on how many batches fit in the run.
    gc.collect()
    if tracer is not None:
        value, wall_ns = tracer.timed(cell, fn, *args)
        return value, wall_ns * 1e-9
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_batch(
    workload: Workload,
    seed: int,
    inputs: Any = None,
    tracer: Optional[LayerTracer] = None,
    first_cell: int = 0,
) -> Batch:
    """Run every operation of ``workload`` once; check-ready outcomes."""
    batch = Batch(traced=tracer is not None)
    for i, cell in enumerate(workload.cells):
        try:
            start = time.perf_counter()
            runtime = cell.build(seed)
            batch.build_s += time.perf_counter() - start
            result, wall = _call(tracer, first_cell + i, runtime.run)
        except Exception as exc:  # a failed operation is counted, not fatal
            batch.outcomes[cell.name] = Outcome(None, [f"raised {exc!r}"])
            continue
        batch.wall_s += wall
        summary = check.summarize_cell(result)
        batch.outcomes[cell.name] = Outcome(summary, check.cell_invariants(result, summary), wall)
    for j, step in enumerate(workload.steps):
        fn = step.run if tracer is None else tracer.wrap(step.run, f"{STANDALONE}.{step.name}")
        try:
            outputs, wall = _call(tracer, first_cell + len(workload.cells) + j, fn,
                                  derive_seed(seed, step.name), inputs)
        except Exception as exc:
            batch.outcomes[step.name] = Outcome(None, [f"raised {exc!r}"])
            continue
        batch.wall_s += wall
        summary = json.loads(json.dumps(outputs))
        batch.outcomes[step.name] = Outcome(summary, check.step_invariants(summary), wall)
    return batch


def check_batches(workload: Workload, seed: int, batches: Sequence[Batch]) -> Dict[str, Any]:
    """Apply the output check to every operation of every batch."""
    reference = check.load_reference(workload.name, seed)
    first = batches[0].outcomes
    attempted = failed = 0
    problems: List[str] = []
    for number, batch in enumerate(batches):
        for name in workload.operations:
            attempted += 1
            outcome = batch.outcomes[name]
            found = list(outcome.problems)
            if outcome.summary is not None:
                if reference is not None:
                    expected = reference.get(name)
                    found += (
                        ["no stored reference for this operation"]
                        if expected is None
                        else [f"differs from reference at {p}" for p in check.mismatches(expected, outcome.summary)]
                    )
                elif first[name].summary is not None:
                    found += [f"differs from batch 0 at {p}" for p in check.mismatches(first[name].summary, outcome.summary)]
            if found:
                failed += 1
                problems += [f"batch {number} {name}: {p}" for p in found[:3]]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "has_reference": reference is not None,
    }


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _setup_metrics(import_samples, build_samples, prepare_samples) -> Dict[str, float]:
    return {
        "import_s": _median(import_samples),
        "build_s": _median(build_samples) + _median(prepare_samples),
    }


def end_to_end_metrics(workload: Workload, batches: Sequence[Batch], setup: Dict[str, float]) -> Dict[str, Any]:
    """The untraced run's metrics: medians over the timed batches."""
    timed = batches[1:] if len(batches) > 1 else batches
    wall = _median([b.wall_s for b in timed])
    return {
        "wall_s_per_sim_s": {"value": wall / workload.sim_seconds, "unit": "s/s"},
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup["import_s"] + setup["build_s"], "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }


def per_layer_metric_names() -> List[tuple]:
    """(name, unit) of every traced-run metric, in report order."""
    names = []
    for layer in layer_names(STEP_NAMES):
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [(f"{STANDALONE}.{step}.inclusive_s", "s") for step in STEP_NAMES]
    names += [
        ("sim.engine.events", "count"),
        ("core.scheduler.records", "count"),
        ("core.scheduler.drops", "count"),
        ("core.scheduler.skipped", "count"),
        ("core.scheduler.useful_ratio", "ratio"),
        ("core.switchboard.reads_per_put", "ratio"),
        ("obs.spans", "count"),
        ("resilience.faults", "count"),
        ("resilience.retries", "count"),
        ("resilience.kills", "count"),
        ("resilience.quarantines", "count"),
        ("resilience.dead_letters", "count"),
        ("perf.plan_cache.hit_ratio", "ratio"),
        ("setup.import_s", "s"),
        ("setup.build_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.residual_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return names


def _simulated_counts(batch: Batch) -> Dict[str, int]:
    counts = dict.fromkeys(
        ("records", "drops", "obs_spans", "faults", "retries", "kills", "quarantines", "dead_letters"), 0
    )
    for outcome in batch.outcomes.values():
        summary = outcome.summary
        if summary is None or "records" not in summary:
            continue
        counts["records"] += summary["records"]["count"]
        counts["kills"] += summary["records"]["killed"]
        counts["drops"] += sum(summary["drops"].values())
        counts["obs_spans"] += summary.get("obs_spans", 0)
        counts["faults"] += summary.get("faults_injected", 0)
        supervision = summary.get("supervision")
        if supervision:
            plugins = supervision["plugins"].values()
            counts["retries"] += sum(p["retries"] for p in plugins)
            counts["dead_letters"] += sum(p["dead_letters"] for p in plugins)
            counts["quarantines"] += len(supervision["quarantined"])
    return counts


def per_layer_metrics(
    tracer: LayerTracer,
    batches: Sequence[Batch],
    setup: Dict[str, float],
    plan_cache: Dict[str, int],
) -> Dict[str, Any]:
    """The traced run's metrics, per traced batch."""
    traced = [b for b in batches if b.traced]
    untraced = [b for b in batches[1:] if not b.traced] or [batches[0]]
    n = len(traced)
    values: Dict[str, float] = {}
    for i, layer in enumerate(tracer.names):
        values[f"{layer}.calls"] = tracer.calls[i] / n
        values[f"{layer}.self_s"] = tracer.self_ns[i] * 1e-9 / n
    for step in STEP_NAMES:
        walls = [b.outcomes[step].wall_s for b in traced if step in b.outcomes]
        values[f"{STANDALONE}.{step}.inclusive_s"] = sum(walls) / n
    values["sim.engine.events"] = tracer.entry_calls[tracer.entries.index("Engine.step")] / n
    per_batch = [_simulated_counts(b) for b in traced]
    counts = {key: sum(c[key] for c in per_batch) / n for key in per_batch[0]}
    skipped = tracer.skipped / n
    attempts = counts["records"] + counts["drops"] + skipped
    values["core.scheduler.records"] = counts["records"]
    values["core.scheduler.drops"] = counts["drops"]
    values["core.scheduler.skipped"] = skipped
    values["core.scheduler.useful_ratio"] = counts["records"] / attempts if attempts else 0.0
    puts = values["core.switchboard.put.calls"]
    values["core.switchboard.reads_per_put"] = values["core.switchboard.read.calls"] / puts if puts else 0.0
    values["obs.spans"] = counts["obs_spans"]
    for key in ("faults", "retries", "kills", "quarantines", "dead_letters"):
        values[f"resilience.{key}"] = counts[key]
    lookups = plan_cache["hits"] + plan_cache["misses"]
    values["perf.plan_cache.hit_ratio"] = plan_cache["hits"] / lookups if lookups else 0.0
    values["setup.import_s"] = setup["import_s"]
    values["setup.build_s"] = setup["build_s"]
    traced_wall = tracer.wall_ns * 1e-9 / n
    values["trace.wall_s"] = traced_wall
    values["trace.residual_s"] = tracer.residual_ns * 1e-9 / n
    values["trace.overhead"] = traced_wall / statistics.mean(b.wall_s for b in untraced) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metric_names()}


def layer_report(tracer: LayerTracer, metrics: Dict[str, Any]) -> List[str]:
    """The human-readable layer table: calls and share of traced wall time."""
    wall = metrics["trace.wall_s"]["value"]
    lines = [f"{'layer':<40} {'calls':>12} {'self_s':>10} {'share':>7}"]
    for layer in tracer.names:
        calls = metrics[f"{layer}.calls"]["value"]
        self_s = metrics[f"{layer}.self_s"]["value"]
        lines.append(f"{layer:<40} {calls:>12.0f} {self_s:>10.4f} {self_s / wall:>7.1%}")
    residual = metrics["trace.residual_s"]["value"]
    lines.append(f"{'(residual: outside any span)':<40} {'':>12} {residual:>10.4f} {residual / wall:>7.1%}")
    lines.append(
        f"traced wall {wall:.4f} s per batch; tracing overhead "
        f"{metrics['trace.overhead']['value']:+.1%} against the untraced batches"
    )
    return lines


def _write_outputs(workload: Workload, seed: int, trace: bool, report: Dict[str, Any], tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    path = OUT_DIR / f"{stem}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if tracer is not None:
        import numpy as np

        np.savez_compressed(
            OUT_DIR / f"{stem}-spans.npz",
            spans=tracer.span_table(),
            fields=np.array(LayerTracer.SPAN_FIELDS),
            layers=np.array(tracer.names),
            operations=np.array(workload.operations),
        )
    return path


def measure(workload: Workload, seed: int, seconds: float, trace: bool, import_samples: List[float]) -> int:
    """Set up, run batches for ``seconds``, check, report; returns the exit code."""
    import_samples = import_samples + [import_program()]
    inputs = None
    prepare_samples: List[float] = []
    if workload.prepare is not None:
        for _ in range(PREPARE_REPEATS):
            start = time.perf_counter()
            inputs = workload.prepare(seed)
            prepare_samples.append(time.perf_counter() - start)

    from repro.perf import global_plan_cache

    tracer = LayerTracer(STEP_NAMES) if trace else None
    plan_cache = {"hits": 0, "misses": 0}  # lookups during traced batches
    batches: List[Batch] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(batches) % 2 == 1
        batch_start = time.perf_counter()
        if traced:
            hits, misses = global_plan_cache.hits, global_plan_cache.misses
            tracer.install()
            try:
                batch = run_batch(workload, seed, inputs, tracer, first_cell=len(batches) * len(workload.operations))
            finally:
                tracer.uninstall()
            tracer.keep_spans = False  # keep the spans of the first traced batch only
            plan_cache["hits"] += global_plan_cache.hits - hits
            plan_cache["misses"] += global_plan_cache.misses - misses
        else:
            batch = run_batch(workload, seed, inputs)
        batches.append(batch)
        durations.append(time.perf_counter() - batch_start)
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES and elapsed + max(durations[-2:]) > seconds:
            break

    outcome = check_batches(workload, seed, batches)
    setup = _setup_metrics(import_samples, [b.build_s for b in batches], prepare_samples)
    measured = sum(b.traced for b in batches) if tracer is not None else len(batches) - 1
    print(f"workload {workload.name}: seed {seed}, {len(batches)} batches "
          f"({measured} {'traced' if tracer is not None else 'timed'}), "
          f"{workload.sim_seconds:g} simulated s per batch")
    if tracer is None:
        metrics = end_to_end_metrics(workload, batches, setup)
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = per_layer_metrics(tracer, batches, setup, plan_cache)
        for line in layer_report(tracer, metrics):
            print(line)
        calls = {layer: metrics[f"{layer}.calls"]["value"] for layer in tracer.names}
        violations = layer_map_violations(workload.name, calls)
        print("layer map: " + ("as documented" if not violations else "; ".join(violations)))
    failed_fraction = outcome["failed"] / outcome["attempted"]
    print(f"failed_fraction = {failed_fraction:.6g} ratio ({outcome['failed']} of {outcome['attempted']} operations)")
    if not outcome["has_reference"]:
        print(f"check: seed {seed} has no stored reference; ran the reference-free invariants only")
    for problem in outcome["problems"][:20]:
        print(f"check failed: {problem}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    # One value per line under stable keys, so two commits' reports diff
    # line by line (units are in BENCHMARK.json).
    report = dict(result, workload=workload.name, seed=seed, batches=len(batches),
                  batch_wall_s=[b.wall_s for b in batches],
                  metrics={name: metric["value"] for name, metric in metrics.items()})
    if tracer is not None:
        report["entry_calls"] = {
            name: count / measured for name, count in zip(tracer.entries, tracer.entry_calls)
        }
    print(f"wrote {_write_outputs(workload, seed, trace, report, tracer)}")
    print(json.dumps(result, sort_keys=True))
    return 0


def write_references(workload: Workload, seeds: Sequence[int]) -> None:
    """Store one batch's summaries per seed as the workload's references."""
    import_program()
    by_seed = {}
    for seed in seeds:
        inputs = workload.prepare(seed) if workload.prepare is not None else None
        batch = run_batch(workload, seed, inputs)
        broken = {name: o.problems for name, o in batch.outcomes.items() if o.problems}
        if broken:
            raise SystemExit(f"{workload.name} seed {seed}: not storing a failing batch: {broken}")
        by_seed[seed] = {name: o.summary for name, o in batch.outcomes.items()}
        print(f"{workload.name} seed {seed}: {len(by_seed[seed])} operations")
    print(f"wrote {check.store_references(workload.name, by_seed)}")


def _seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-samples", default="", help="import seconds measured by fresh processes")
    parser.add_argument("--probe-import", action="store_true", help="print the program's import seconds")
    parser.add_argument("--write-references", metavar="SEEDS", help="store references for seeds A-B")
    args = parser.parse_args(argv)
    if args.probe_import:
        print(f"{import_program():.9f}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.write_references:
        write_references(workload, _seed_range(args.write_references))
        return 0
    samples = [float(s) for s in args.import_samples.split(",") if s]
    return measure(workload, args.seed, args.seconds, bool(args.trace), samples)


if __name__ == "__main__":
    sys.exit(main())
