"""Simulation engine: hook lifecycle, deterministic seeding, runs on disk.

Each iteration runs in a fixed order:

1. ``before_iteration`` hooks, in registration order.
2. The start-of-iteration states are frozen into ``ctx.frozen_states``.
3. ``every_iteration_agent`` hooks, for every node in a freshly shuffled
   order (returns ignored).
4. For diffusion models, the transition rules fire synchronously: every
   eligible node is evaluated against the same pre-pass state mapping and
   all transitions apply at once.
5. ``after_iteration`` hooks, in registration order. Scalar or flat-map
   returns are recorded as (iteration, value) series.
6. At snapshot periods, the full state is written to disk as one compact JSON
   snapshot and collector files are flushed.

``after_simulation`` hooks run once at the end; their returns become the run
summary. Hooks marked ``record_initial`` also record an iteration-0 baseline
entry before the first iteration (after the setup callable has run). A hook
that raises aborts the run with the hook name and iteration attached; on any
error a persisted run still flushes its collectors and writes run-meta.json.

Determinism: every random draw in a run flows from one ``numpy`` PCG64
generator seeded by ``derive_seed(master_seed, batch_index, sweep_index)``,
so a rerun with the same config and seed produces byte-identical collector
and snapshot files, and any batch can be reproduced in isolation.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from . import __version__ as _version
from .collect import (
    SeriesRecorder,
    coerce_value,
    write_atomic,
    write_collectors,
    write_snapshot,
    write_summary,
)
from .config import (
    MODEL_DIFFUSION,
    ProjectConfig,
    build_graph,
    build_rules,
    initialize_population,
    serialize_config,
)
from .errors import CollectError, ConfigError, HookError
from .graph import AttributeTable, Graph
from .rules import CountdownLedger, Rule, apply_rules

_MASK64 = (1 << 64) - 1

PHASE_BEFORE = "before_iteration"
PHASE_AGENT = "every_iteration_agent"
PHASE_AFTER = "after_iteration"
PHASE_FINAL = "after_simulation"
PHASES = (PHASE_BEFORE, PHASE_AGENT, PHASE_AFTER, PHASE_FINAL)

NODE_COUNTS_HOOK = "node_counts"

RUN_CONFIG_FILE = "config.yaml"
RUN_META_FILE = "run-meta.json"

DEFAULT_PROJECTS_DIRNAME = "crowdkit-projects"
PROJECT_FILE = "project.yaml"
HOME_ENV_VAR = "CROWDKIT_HOME"


def splitmix64(x: int) -> int:
    """One splitmix64 step; the mixing primitive behind seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, batch_index: int = 0, sweep_index: int = 0) -> int:
    """Per-run seed from (master seed, batch index, sweep index).

    Sequentially absorbs each index through splitmix64 so distinct index
    tuples get independent streams, and any single run can be reproduced
    without executing its siblings.
    """
    state = splitmix64(master_seed & _MASK64)
    state = splitmix64(state ^ splitmix64((sweep_index + 1) & _MASK64))
    state = splitmix64(state ^ splitmix64((batch_index + 1) & _MASK64))
    return state


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Hooks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    name: str
    phase: str
    fn: Callable
    record_initial: bool = False


class HookRegistry:
    """Named hooks grouped by lifecycle phase; names unique across phases.

    Hook names become collector file names, so they must be unique. Before-
    and after-iteration hooks may return a number or a flat string-to-number
    map to be recorded; agent hooks receive ``(ctx, node)`` and their returns
    are ignored; after-simulation hooks feed the run summary.
    """

    def __init__(self):
        self._hooks: dict[str, list[Hook]] = {phase: [] for phase in PHASES}
        self._names: set[str] = set()

    def add(self, phase: str, name: str, fn: Callable, record_initial: bool = False) -> None:
        if phase not in PHASES:
            raise HookError(f"unknown phase {phase!r} (valid: {', '.join(PHASES)})", hook=name)
        if name in self._names:
            raise HookError(f"duplicate hook name {name!r}", hook=name)
        if record_initial and phase != PHASE_AFTER:
            raise HookError(f"record_initial only applies to {PHASE_AFTER} hooks", hook=name)
        self._names.add(name)
        self._hooks[phase].append(Hook(name=name, phase=phase, fn=fn, record_initial=record_initial))

    def hooks(self, phase: str) -> list[Hook]:
        return list(self._hooks[phase])

    def __contains__(self, name: str) -> bool:
        return name in self._names


# ---------------------------------------------------------------------------
# Simulation context.
# ---------------------------------------------------------------------------


class NodeCountView(Mapping):
    """Type histogram addressable by type name or by declaration position."""

    def __init__(self, counts: dict[str, int], order: tuple[str, ...]):
        self._counts = counts
        self._order = order

    def __getitem__(self, key):
        if isinstance(key, int):
            return self._counts[self._order[key]]
        return self._counts[key]

    def __iter__(self):
        return iter(self._counts)

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        return f"NodeCountView({self._counts!r})"


class SimContext:
    """Everything a hook can see and touch during a run.

    ``states`` is the live node-to-type map; ``frozen_states`` is the
    immutable start-of-iteration copy agent hooks should read when they need
    simultaneous-update semantics. ``scratch`` is a free dict for hook
    caches. ``iteration`` is 0 during setup and baseline records.
    """

    def __init__(
        self,
        graph: Graph,
        states: dict[int, str],
        attrs: AttributeTable,
        net_params: dict[str, Any],
        rng: np.random.Generator,
        node_types: tuple[str, ...],
    ):
        self.graph = graph
        self.states = states
        self.attrs = attrs
        self.net_params = net_params
        self.rng = rng
        self.node_types = node_types
        self._type_set = set(node_types)
        self.iteration = 0
        self.frozen_states: dict[int, str] = {}
        self.scratch: dict[str, Any] = {}

    def set_state(self, node: int, type_name: str) -> None:
        if type_name not in self._type_set:
            raise HookError(
                f"unknown node type {type_name!r} (declared: {', '.join(self.node_types)})",
                iteration=self.iteration,
            )
        if not 0 <= node < self.graph.num_nodes:
            raise HookError(f"node {node} out of range", iteration=self.iteration)
        self.states[node] = type_name

    def count(self, type_name: str) -> int:
        return sum(1 for s in self.states.values() if s == type_name)

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in self.node_types}
        for s in self.states.values():
            out[s] += 1
        return out

    @property
    def node_count(self) -> NodeCountView:
        """Live type histogram, addressable by name or declaration index."""
        return NodeCountView(self.counts(), self.node_types)

    def mutate_edges(self, add=(), remove=()) -> None:
        """Add/remove edges mid-run. Duplicate adds and absent removes are no-ops."""
        n = self.graph.num_nodes
        for u, v in add:
            if not (0 <= u < n and 0 <= v < n):
                raise HookError(f"cannot add edge ({u}, {v}): endpoint out of range", iteration=self.iteration)
            if u == v:
                raise HookError(f"cannot add self-loop ({u}, {v})", iteration=self.iteration)
            self.graph.add_edge(u, v)
        for u, v in remove:
            if not (0 <= u < n and 0 <= v < n):
                raise HookError(
                    f"cannot remove edge ({u}, {v}): endpoint out of range", iteration=self.iteration
                )
            removed = self.graph.remove_edge(u, v)
            if removed:
                self.attrs.drop_edge(u, v)
                if not self.graph.directed:
                    self.attrs.drop_edge(v, u)


def shuffle_agents(ctx: SimContext) -> list[int]:
    """A fresh uniform permutation of node ids from the run's RNG."""
    return ctx.rng.permutation(ctx.graph.num_nodes).tolist()


@dataclass
class SimResult:
    run_seed: int
    epochs: int
    states: dict[int, str]
    records: dict[str, list[dict]]
    summary: dict[str, Any]
    context: SimContext
    run_dir: Path | None = None


# ---------------------------------------------------------------------------
# Core loop.
# ---------------------------------------------------------------------------


def _call_hook(hook: Hook, ctx: SimContext):
    try:
        return hook.fn(ctx)
    except HookError:
        raise
    except Exception as exc:
        raise HookError(str(exc) or repr(exc), hook=hook.name, iteration=ctx.iteration) from exc


def _node_counts_hook(ctx: SimContext) -> dict[str, int]:
    return ctx.counts()


def simulate(
    config: ProjectConfig,
    *,
    epochs: int,
    master_seed: int = 0,
    batch_index: int = 0,
    sweep_index: int = 0,
    registry: HookRegistry | None = None,
    setup: Callable[[SimContext], None] | None = None,
    base_dir=None,
    graph: Graph | None = None,
    record_node_counts: bool = True,
    run_dir=None,
    snapshot_period: int | None = None,
) -> SimResult:
    """Run one simulation. In-memory unless ``run_dir`` is given.

    ``graph``: reuse an already-built topology (it is copied and the config
    structure section is skipped) — useful for many repeated runs on one
    network. ``setup`` runs once after population init, before the
    iteration-0 baseline records and snapshot.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if snapshot_period is not None and snapshot_period < 1:
        raise ConfigError(f"snapshot period must be >= 1, got {snapshot_period}")
    run_seed = derive_seed(master_seed, batch_index=batch_index, sweep_index=sweep_index)
    rng = make_rng(run_seed)
    started = time.perf_counter()
    started_at = _dt.datetime.now(_dt.timezone.utc).isoformat()

    if graph is None:
        g = build_graph(config, rng, base_dir=base_dir)
    else:
        g = graph.copy()
    states, attrs, net_params = initialize_population(g, config, rng, base_dir=base_dir)

    d = config.definitions
    ctx = SimContext(g, states, attrs, net_params, rng, tuple(d.nodetypes))
    rules: list[Rule] = build_rules(d) if d.model_kind == MODEL_DIFFUSION and d.rules else []
    ledger = CountdownLedger()

    registry = registry or HookRegistry()
    if record_node_counts and NODE_COUNTS_HOOK not in registry:
        registry.add(PHASE_AFTER, NODE_COUNTS_HOOK, _node_counts_hook, record_initial=True)
    before_hooks = registry.hooks(PHASE_BEFORE)
    agent_hooks = registry.hooks(PHASE_AGENT)
    after_hooks = registry.hooks(PHASE_AFTER)
    final_hooks = registry.hooks(PHASE_FINAL)
    recorders: dict[str, SeriesRecorder] = {
        hook.name: SeriesRecorder(hook.name) for hook in before_hooks + after_hooks
    }

    persist = run_dir is not None
    run_path = Path(run_dir) if persist else None
    if persist:
        write_atomic(run_path / RUN_CONFIG_FILE, serialize_config(config, include_sweep=False))

    def _write_meta(error: str | None = None) -> None:
        meta = {
            "master_seed": master_seed,
            "run_seed": run_seed,
            "batch_index": batch_index,
            "sweep_index": sweep_index,
            "epochs": epochs,
            "snapshot_period": snapshot_period,
            "package_version": _version,
            "started_at": started_at,
            "duration_seconds": round(time.perf_counter() - started, 6),
        }
        if error is not None:
            meta["error"] = error
        write_atomic(run_path / RUN_META_FILE, json.dumps(meta, indent=2) + "\n")

    try:
        if setup is not None:
            _call_hook(Hook(name="setup", phase=PHASE_BEFORE, fn=setup), ctx)

        for hook in after_hooks:
            if hook.record_initial:
                value = _call_hook(hook, ctx)
                if value is not None:
                    recorders[hook.name].record(0, value)
        if persist:
            write_snapshot(0, g, ctx.states, attrs, ctx.net_params, run_path)

        for it in range(1, epochs + 1):
            ctx.iteration = it
            for hook in before_hooks:
                value = _call_hook(hook, ctx)
                if value is not None:
                    recorders[hook.name].record(it, value)
            ctx.frozen_states = dict(ctx.states)
            if agent_hooks:
                order = shuffle_agents(ctx)
                try:
                    for node in order:
                        for hook in agent_hooks:
                            hook.fn(ctx, node)
                except HookError:
                    raise
                except Exception as exc:
                    raise HookError(str(exc) or repr(exc), hook=hook.name, iteration=it) from exc
            if rules:
                transitions = apply_rules(ctx.states, g, attrs, rules, ledger, rng)
                if transitions:
                    ctx.states.update(transitions)
            for hook in after_hooks:
                value = _call_hook(hook, ctx)
                if value is not None:
                    recorders[hook.name].record(it, value)
            if persist and snapshot_period is not None and it % snapshot_period == 0:
                write_snapshot(it, g, ctx.states, attrs, ctx.net_params, run_path)
                write_collectors(recorders.values(), run_path)

        summary: dict[str, Any] = {"epochs": epochs, "final_node_counts": ctx.counts()}
        for hook in final_hooks:
            value = _call_hook(hook, ctx)
            if value is not None:
                if hook.name in summary:
                    raise CollectError(f"summary key {hook.name!r} written twice")
                summary[hook.name] = coerce_value(value, f"summary[{hook.name!r}]")
    except Exception as exc:
        if persist:
            write_collectors(recorders.values(), run_path)
            _write_meta(error=str(exc))
        raise

    result = SimResult(
        run_seed=run_seed,
        epochs=epochs,
        states=dict(ctx.states),
        records={name: rec.entries for name, rec in recorders.items()},
        summary=summary,
        context=ctx,
    )
    if persist:
        if snapshot_period is None or epochs % snapshot_period != 0:
            write_snapshot(epochs, g, ctx.states, attrs, ctx.net_params, run_path)
        write_collectors(recorders.values(), run_path)
        write_summary(summary, run_path)
        _write_meta()
        result.run_dir = run_path
    return result


# ---------------------------------------------------------------------------
# Projects on disk.
# ---------------------------------------------------------------------------


def projects_root(override=None) -> Path:
    """The directory that holds projects (CROWDKIT_HOME or ./crowdkit-projects)."""
    if override is not None:
        return Path(override)
    env = os.environ.get(HOME_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_PROJECTS_DIRNAME


class Project:
    """A named directory of simulation runs under the projects root."""

    def __init__(self, directory: Path, name: str):
        self.dir = Path(directory)
        self.name = name

    @classmethod
    def create(cls, name: str, root=None) -> "Project":
        root_path = projects_root(root)
        directory = root_path / name
        if (directory / PROJECT_FILE).exists():
            raise ConfigError(f"project {name!r} already exists at {directory}")
        directory.mkdir(parents=True, exist_ok=True)
        payload = {"name": name, "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat()}
        (directory / PROJECT_FILE).write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
        return cls(directory, name)

    @classmethod
    def load(cls, name: str, root=None) -> "Project":
        directory = projects_root(root) / name
        if not (directory / PROJECT_FILE).is_file():
            raise ConfigError(f"no project {name!r} under {projects_root(root)}")
        return cls(directory, name)

    @classmethod
    def load_or_create(cls, name: str, root=None) -> "Project":
        try:
            return cls.load(name, root=root)
        except ConfigError:
            return cls.create(name, root=root)

    @staticmethod
    def list_projects(root=None) -> list[str]:
        root_path = projects_root(root)
        if not root_path.is_dir():
            return []
        return sorted(p.name for p in root_path.iterdir() if (p / PROJECT_FILE).is_file())

    def simulation_dir(self, sim_name: str) -> Path:
        """A fresh directory for a simulation, suffixed -2, -3, ... if taken."""
        candidate = self.dir / sim_name
        if not candidate.exists():
            return candidate
        k = 2
        while (self.dir / f"{sim_name}-{k}").exists():
            k += 1
        return self.dir / f"{sim_name}-{k}"


# ---------------------------------------------------------------------------
# Batch and sweep drivers.
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    batch_index: int
    run_dir: Path
    error: str | None = None
    result: SimResult | None = field(default=None, repr=False)


def batch_run(
    config: ProjectConfig,
    parent_dir,
    *,
    batches: int,
    epochs: int,
    snapshot_period: int | None = None,
    master_seed: int = 0,
    sweep_index: int = 0,
    registry_factory: Callable[[], tuple[HookRegistry | None, Callable | None]] | None = None,
    base_dir=None,
    graph: Graph | None = None,
    keep_results: bool = False,
) -> list[BatchOutcome]:
    """Run ``batches`` replicas of one config into batch-<k> subdirectories.

    A failing batch is recorded in its outcome and does not stop the others.
    ``registry_factory`` is invoked once per batch so hook closures never
    leak state across replicas.
    """
    if batches < 1:
        raise ConfigError(f"batches must be >= 1, got {batches}")
    parent = Path(parent_dir)
    outcomes: list[BatchOutcome] = []
    for k in range(batches):
        run_dir = parent / f"batch-{k}"
        registry, setup = registry_factory() if registry_factory else (None, None)
        outcome = BatchOutcome(batch_index=k, run_dir=run_dir)
        try:
            result = simulate(
                config,
                epochs=epochs,
                master_seed=master_seed,
                batch_index=k,
                sweep_index=sweep_index,
                registry=registry,
                setup=setup,
                base_dir=base_dir,
                graph=graph,
                run_dir=run_dir,
                snapshot_period=snapshot_period,
            )
            if keep_results:
                outcome.result = result
        except Exception as exc:  # noqa: BLE001 — batch isolation is the contract
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    return outcomes


@dataclass
class SweepOutcome:
    sweep_index: int
    label: str
    assignment: tuple[str, Any]
    parent_dir: Path
    batch_outcomes: list[BatchOutcome]


def sweep_run(
    config: ProjectConfig,
    sim_dir,
    *,
    batches: int,
    epochs: int,
    snapshot_period: int | None = None,
    master_seed: int = 0,
    registry_factory=None,
    base_dir=None,
) -> list[SweepOutcome]:
    """Expand the sweep section and batch-run each variant under its label dir."""
    from .config import expand_sweep, sweep_assignments, sweep_labels

    if not config.sweep:
        raise ConfigError("config has no sweep section")
    variants = expand_sweep(config)
    labels = sweep_labels(config)
    assignments = sweep_assignments(config)
    outcomes: list[SweepOutcome] = []
    for index, (variant, label, assignment) in enumerate(zip(variants, labels, assignments)):
        parent = Path(sim_dir) / label
        batch_outcomes = batch_run(
            variant,
            parent,
            batches=batches,
            epochs=epochs,
            snapshot_period=snapshot_period,
            master_seed=master_seed,
            sweep_index=index,
            registry_factory=registry_factory,
            base_dir=base_dir,
        )
        outcomes.append(
            SweepOutcome(
                sweep_index=index,
                label=label,
                assignment=assignment,
                parent_dir=parent,
                batch_outcomes=batch_outcomes,
            )
        )
    return outcomes
