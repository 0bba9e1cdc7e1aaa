"""Workload shapes and input generation for the crowdkit benchmark.

Every input a workload reads is generated here from the workload seed: the
scaled SIR configs are the shipped fixture with only ``structure.count``
changed, the trust config is the fixture as shipped, and the influence
cascade runs on a seeded surrogate edge list with the node and edge counts
of the SNAP ego-Facebook graph (nothing is downloaded).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

FIXTURE_DIR = Path("src") / "crowdkit" / "fixtures"
EDGE_LIST_NAME = "facebook_combined.txt"
CONFIG_NAME = "config.yaml"

# Seed at which the stored digests in golden.json were taken.
DEFAULT_SEED = 0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_steps_per_s", "node-iter/s"),
    ("peak_rss_mb", "MiB"),
    ("disk_mb", "MiB"),
)

# Non-agent hooks of the bundled scenarios, plus the engine's node-count hook.
HOOK_NAMES = (
    "node_counts",
    "percentage_infected",
    "trust_draws",
    "global_payoff",
    "trust_outcome",
    "ic_prepare",
    "total_active",
)

PER_LAYER = (
    ("config.load_s", "s"),
    ("config.validate_calls", "count"),
    ("config.init_s", "s"),
    ("graph.build_s", "s"),
    ("metrics.topk_s", "s"),
    ("scenarios.setup_s", "s"),
    ("engine.before_s", "s"),
    ("engine.agent_s", "s"),
    ("engine.after_s", "s"),
    ("engine.final_s", "s"),
    ("engine.self_s", "s"),
    *((f"hook.{name}_s", "s") for name in HOOK_NAMES),
    ("rules.apply_s", "s"),
    ("rules.calls", "count"),
    ("rules.transitions", "count"),
    ("rules.eligible", "count"),
    ("rules.fire_ratio", "ratio"),
    ("collect.snapshot_s", "s"),
    ("collect.snapshots", "count"),
    ("collect.snapshot_bytes", "bytes"),
    ("collect.collectors_s", "s"),
    ("collect.collector_flushes", "count"),
    ("collect.collector_bytes", "bytes"),
    ("collect.merge_s", "s"),
    ("gexf.write_s", "s"),
    ("gexf.bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    fixture: str
    nodes: int
    epochs: int
    mode: str  # "memory": simulate without a run dir; "batch": batch_run + merge; "sweep": sweep_run + merges
    batches: int = 1
    snapshot_period: int | None = None
    edges: int = 0  # surrogate edge-list size (file-structure workloads only)
    seeds: int = 0  # top-k seed count of the influence fixture

    @property
    def runs(self) -> int:
        """simulate calls one workload run makes (sweep variants x batches)."""
        return self.batches * (11 if self.mode == "sweep" else 1)


# BENCHMARK.json gates sir-100k-mem and infmax-4k-persist. The other two run
# by name and in the smoke test; their run-to-run spread on a 2-vCPU VM whose
# speed drifts by up to 30% over minutes exceeded the largest allowed bound.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sir-100k-mem",
            why="Rule-bound, in memory: the SIR rule pass at 100k nodes dominates; collect and gexf do no work, so a persistence change should not move it.",
            scenario="sir",
            fixture="sir.yaml",
            nodes=100_000,
            epochs=10,
            mode="memory",
        ),
        Workload(
            name="sir-10k-persist",
            why="Snapshot-bound: SIR at 10k nodes, 2 batches, snapshot every 5 epochs, then merge mean; write_snapshot and GEXF dominate.",
            scenario="sir",
            fixture="sir.yaml",
            nodes=10_000,
            epochs=20,
            mode="batch",
            batches=2,
            snapshot_period=5,
        ),
        Workload(
            name="trust-1k-sweep",
            why="Hook-bound, no rule pass: the shipped 1024-node trust fixture through its 11-value r_UT sweep, per-variant and labeled merges.",
            scenario="trust",
            fixture="trust.yaml",
            nodes=1024,
            epochs=80,
            mode="sweep",
        ),
        Workload(
            name="infmax-4k-persist",
            why="Persistence-bound, no rule pass: edge-list load and PageRank seeding, then two snapshots with a 176k-entry edge column dominate.",
            scenario="infmax",
            fixture="infmax.yaml",
            nodes=4039,
            epochs=10,
            mode="batch",
            edges=88234,
            seeds=100,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload shape at a size that runs in well under a second."""
    if workload.mode == "memory":
        return replace(workload, nodes=400, epochs=3)
    if workload.scenario == "sir":
        return replace(workload, nodes=200, epochs=4, snapshot_period=2)
    if workload.scenario == "trust":
        return replace(workload, nodes=64, epochs=3)
    return replace(workload, nodes=120, edges=400, epochs=3, seeds=5)


def surrogate_edges(seed: int, nodes: int, edges: int) -> np.ndarray:
    """A connected random graph with exactly ``nodes`` nodes and ``edges`` edges.

    A random spanning tree keeps every node present, then random pairs fill
    in the remaining count, as the test suite's offline surrogate does.
    """
    rng = np.random.default_rng([seed, nodes, edges])
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for i in range(1, nodes):
        j = int(rng.integers(0, i))
        seen.add((j, i))
        out.append((i, j))
    while len(out) < edges:
        need = edges - len(out)
        us = rng.integers(0, nodes, size=need * 2).tolist()
        vs = rng.integers(0, nodes, size=need * 2).tolist()
        for u, v in zip(us, vs):
            key = (u, v) if u < v else (v, u)
            if u != v and key not in seen:
                seen.add(key)
                out.append((u, v))
                if len(out) == edges:
                    break
    return np.array(out, dtype=np.int64)


def write_inputs(workload: Workload, seed: int, repo: Path, out_dir: Path) -> Path:
    """Generate the workload's inputs under ``out_dir``; returns the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    mapping = yaml.safe_load((repo / FIXTURE_DIR / workload.fixture).read_text(encoding="utf-8"))
    structure = mapping["structure"]
    if "random" in structure:
        structure["random"]["count"] = workload.nodes
    else:
        pairs = surrogate_edges(seed, workload.nodes, workload.edges)
        lines = "".join(f"{u} {v}\n" for u, v in pairs.tolist())
        (out_dir / EDGE_LIST_NAME).write_text(lines, encoding="utf-8")
        nodetypes = mapping["definitions"]["pd-model"]["nodetypes"]
        nodetypes["Active_Spreader"]["choose_with_metric"]["count"] = workload.seeds
        nodetypes["Inactive"]["random-with-count"]["count"] = workload.nodes - workload.seeds
    config_path = out_dir / CONFIG_NAME
    config_path.write_text(yaml.safe_dump(mapping, sort_keys=False), encoding="utf-8")
    return config_path
