"""One workload run in a fresh process; prints one JSON line with its figures.

The run makes the calls the CLI makes: ``load_config`` -> ``validate`` ->
``batch_run`` / ``sweep_run`` -> ``merge_parent_directory`` /
``merge_simulations``; the in-memory workload calls ``simulate`` with no run
directory. The set-up of the first run is timed from the start of the
workload to the return of its scenario setup callable, which ``simulate``
calls once the graph is built and the population initialised. After the
run, the outputs are digested and checked (see ``check_outputs``).

Run by ``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import crowdkit.collect as collect_mod
import crowdkit.config as config_mod
import crowdkit.engine as engine_mod
from crowdkit import SCENARIOS, CrowdkitError

import tracing
from workloads import CONFIG_NAME, WORKLOADS, Workload, tiny

LABELED_NAME = "global_payoff"
LABELED_FILE = f"{LABELED_NAME}-labeled.json"
MEMORY_OP = "simulate"


class NullTracer:
    """Stands in for ``tracing.Tracer`` when the run is not traced."""

    def begin(self, name, phase=None):
        return None

    def end(self, span):
        pass


def load_and_validate(config_path: Path, tracer):
    span = tracer.begin("config.load")
    config = config_mod.load_config(config_path)
    tracer.end(span)
    violations = config_mod.validate(config)
    if violations:
        raise CrowdkitError("invalid config: " + "; ".join(violations))
    return config


def run_workload(workload: Workload, config_path: Path, seed: int, sim_dir: Path, factory, tracer) -> dict:
    """The timed part. Returns {operation id: error or None} plus in-memory results."""
    config = load_and_validate(config_path, tracer)
    base_dir = config_path.parent
    ops: dict[str, str | None] = {}
    out: dict = {"ops": ops}
    if workload.mode == "memory":
        registry, setup = factory()
        result = engine_mod.simulate(
            config, epochs=workload.epochs, master_seed=seed, registry=registry, setup=setup, base_dir=base_dir
        )
        ops[MEMORY_OP] = None
        out["result"] = result
        return out

    def merge(op: str, fn, *args) -> None:
        try:
            fn(*args)
            ops[op] = None
        except CrowdkitError as exc:
            ops[op] = f"{type(exc).__name__}: {exc}"

    common = dict(
        batches=workload.batches,
        epochs=workload.epochs,
        snapshot_period=workload.snapshot_period,
        master_seed=seed,
        registry_factory=factory,
        base_dir=base_dir,
    )
    if workload.mode == "batch":
        parents = [(sim_dir, engine_mod.batch_run(config, sim_dir, **common))]
    else:
        sweeps = engine_mod.sweep_run(config, sim_dir, **common)
        parents = [(s.parent_dir, s.batch_outcomes) for s in sweeps]
    for parent, outcomes in parents:
        for outcome in outcomes:
            ops[f"run:{outcome.run_dir.relative_to(sim_dir)}"] = outcome.error
    for parent, _ in parents:
        merge(f"merge:{parent.relative_to(sim_dir)}", collect_mod.merge_parent_directory, parent)
    if workload.mode == "sweep":
        merge(
            "merge:labeled",
            collect_mod.merge_simulations,
            [outcomes[0].run_dir for _, outcomes in parents],
            [parent.name for parent, _ in parents],
            LABELED_NAME,
            sim_dir / LABELED_FILE,
        )
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def states_digest(states: dict[int, str], nodes: int) -> str:
    return sha256("\n".join(str(states.get(v)) for v in range(nodes)).encode())


def file_op(rel: Path) -> str:
    """The operation that wrote a result file (a batch run or a merge)."""
    parts = rel.parts
    if rel.name == LABELED_FILE:
        return "merge:labeled"
    if collect_mod.MERGED_DIR in parts:
        parent = Path(*parts[: parts.index(collect_mod.MERGED_DIR)])
        return f"merge:{parent}"
    batch = next(i for i, p in enumerate(parts) if p.startswith("batch-"))
    return f"run:{Path(*parts[: batch + 1])}"


def check_counts(entries: list[dict], nodes: int) -> bool:
    """Every node_counts entry accounts for every node exactly once."""
    return all(sum(e["value"].values()) == nodes for e in entries)


def check_outputs(workload: Workload, sim_dir: Path, out: dict, final_states: dict) -> tuple[dict, dict]:
    """Digests of the deterministic outputs, and {operation: problem} for failed checks.

    Digested: collectors/*.json, summary.json, merged/*.json, the labeled merge
    and, in memory, the final-state list, records and summary. Snapshot bytes
    and run-meta.json are left out. The final snapshot of each batch is read
    back and its states must equal the run's final states.
    """
    digests: dict[str, str] = {}
    problems: dict[str, str] = {}
    if workload.mode == "memory":
        result = out["result"]
        digests["final_states"] = states_digest(result.states, workload.nodes)
        digests["records"] = sha256(json.dumps(result.records, sort_keys=True).encode())
        digests["summary"] = sha256(json.dumps(result.summary, sort_keys=True).encode())
        if not check_counts(result.records["node_counts"], workload.nodes):
            problems[MEMORY_OP] = "node_counts do not sum to the node count"
        return digests, problems
    for path in sorted(sim_dir.rglob("*.json")):
        rel = path.relative_to(sim_dir)
        if collect_mod.SNAPSHOT_DIR in rel.parts or path.name == engine_mod.RUN_META_FILE:
            continue
        digests[str(rel)] = sha256(path.read_bytes())
        if rel.name == "node_counts.json" and collect_mod.COLLECTOR_DIR in rel.parts:
            entries = collect_mod.read_collector(path)["entries"]
            if not check_counts(entries, workload.nodes):
                problems[file_op(rel)] = f"{rel}: node_counts do not sum to the node count"
    for op in out["ops"]:
        if not op.startswith("run:"):
            continue
        run_dir = sim_dir / op[len("run:") :]
        snapshots = collect_mod.list_snapshots(run_dir)
        if not snapshots:
            problems[op] = "no snapshot written"
            continue
        _, _, states, _, _ = collect_mod.read_snapshot(snapshots[-1])
        captured = final_states.get(run_dir)
        if captured is None or states != captured:
            problems[op] = f"{snapshots[-1].relative_to(sim_dir)}: states differ from the run's final states"
    return digests, problems


def tree_bytes(root: Path) -> int:
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def marking_setup(factory, marks: list[float]):
    """A registry factory whose setup callable appends the time it returned."""

    def wrapped():
        registry, setup = factory()

        def setup_and_mark(ctx):
            if setup is not None:
                setup(ctx)
            marks.append(time.perf_counter())

        return registry, setup_and_mark

    return wrapped


def execute(workload: Workload, config_path: Path, seed: int, sim_dir: Path, tracer=None):
    """Run the workload once.

    Returns (run output, final states by run dir, wall seconds, set-up seconds).
    """
    # Keep each persisted run's final states for the snapshot read-back check.
    final_states: dict[Path, dict] = {}
    simulate = engine_mod.simulate

    def capturing_simulate(*args, **kwargs):
        result = simulate(*args, **kwargs)
        if result.run_dir is not None:
            final_states[Path(result.run_dir)] = result.states
        return result

    engine_mod.simulate = capturing_simulate
    factory = SCENARIOS[workload.scenario].make_hooks
    saved = []
    if tracer is not None:
        saved = tracing.install(tracer)
        factory = tracing.timed_factory(tracer, factory)
    marks: list[float] = []
    try:
        started = time.perf_counter()
        out = run_workload(
            workload, config_path, seed, sim_dir, marking_setup(factory, marks), tracer or NullTracer()
        )
        wall_s = time.perf_counter() - started
    finally:
        tracing.uninstall(saved)
        engine_mod.simulate = simulate
    return out, final_states, wall_s, marks[0] - started


def verdict(workload: Workload, sim_dir: Path, out: dict, final_states: dict) -> dict:
    """Each operation's error or failed check, and the digests of what it wrote."""
    digests, problems = check_outputs(workload, sim_dir, out, final_states)
    return {
        "ops": {op: error or problems.get(op) for op, error in out["ops"].items()},
        "digests": digests,
        "digest_ops": {name: file_op(Path(name)) if "/" in name else MEMORY_OP for name in digests},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--sim-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    config_path = args.inputs / CONFIG_NAME

    tracer = tracing.Tracer() if args.trace else None
    out, final_states, wall_s, setup_s = execute(workload, config_path, args.seed, args.sim_dir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "disk_bytes": tree_bytes(args.sim_dir) + tree_bytes(args.inputs),
        **verdict(workload, args.sim_dir, out, final_states),
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            rows = {"columns": ["name", "start", "end", "parent", "run", "phase"], "spans": tracer.rows()}
            args.spans.write_text(json.dumps(rows), encoding="utf-8")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
