"""Simulation engine: hook lifecycle, deterministic seeding, runs on disk.

Each iteration runs in a fixed order:

1. ``before_iteration`` hooks, in registration order.
2. When the run has agent hooks, the states as the ``before_iteration``
   hooks left them are frozen into ``ctx.frozen_states`` (a read-only copy
   of the code array).
3. ``every_iteration_agent`` hooks, for every node in a freshly shuffled
   order (returns ignored).
4. For diffusion models, the transition rules fire synchronously: every
   eligible node is evaluated against the same pre-pass states, and the
   movers apply at once, as one masked assignment to the code array.
5. ``after_iteration`` hooks, in registration order. Scalar or flat-map
   returns are recorded as (iteration, value) series.
6. At snapshot periods, the full state is written to disk as one compact JSON
   snapshot and collector files are flushed.

``after_simulation`` hooks run once at the end; their returns become the run
summary. Hooks marked ``record_initial`` also record an iteration-0 baseline
entry before the first iteration (after the setup callable has run). A hook
that raises aborts the run with the hook name and iteration attached (a
``HookError`` raised inside a hook, by the hook API or the hook itself, keeps
its identity and gets whichever of the two it lacks). A persisted run
flushes its collectors and writes run-meta.json on success and on any error,
including one in the final snapshot or summary write.

Node state: ``ctx.states`` is a ``NodeStates`` mapping over one code array
(see ``graph.py``). It iterates in ascending node id, and a write of an
undeclared type or to an out-of-range node raises ``HookError`` at once.

Projects are three functions: ``create_project``, ``list_projects`` and
``simulation_dir`` (which makes a missing project). The two that make
directories refuse a name failing ``is_plain_name`` before making anything.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from . import __version__ as _version
from .collect import (
    RUN_META_FILE,
    SeriesRecorder,
    coerce_value,
    write_collectors,
    write_snapshot,
    write_summary,
)
from .config import (
    MODEL_DIFFUSION,
    ProjectConfig,
    Structure,
    build_graph,
    build_rules,
    expand_sweep,
    initialize_population,
    is_plain_name,
    serialize_config,
    sweep_label_violations,
    sweep_labels,
)
from .errors import CollectError, ConfigError, HookError
from .graph import AttributeTable, Graph, NodeStates, write_atomic
from .rules import CountdownLedger, Rule, apply_rules

_MASK64 = (1 << 64) - 1

PHASE_BEFORE = "before_iteration"
PHASE_AGENT = "every_iteration_agent"
PHASE_AFTER = "after_iteration"
PHASE_FINAL = "after_simulation"
PHASES = (PHASE_BEFORE, PHASE_AGENT, PHASE_AFTER, PHASE_FINAL)

NODE_COUNTS_HOOK = "node_counts"

RUN_CONFIG_FILE = "config.yaml"

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
        self._hooks[phase].append(Hook(name, fn, record_initial))

    def hooks(self, phase: str) -> list[Hook]:
        return list(self._hooks[phase])

    def __contains__(self, name: str) -> bool:
        return name in self._names


# ---------------------------------------------------------------------------
# Simulation context.
# ---------------------------------------------------------------------------


class SimContext:
    """Everything a hook can see and touch during a run.

    ``states`` is the live node-to-type map, a ``NodeStates`` over one code
    array in ``node_types`` order (``states.types``); a mapping is encoded into
    one (writes of undeclared types or out-of-range nodes raise ``HookError``).
    ``frozen_states`` is the read-only copy taken before the agent phase,
    which agent hooks should read when they need simultaneous-update
    semantics (runs without agent hooks take no copy). ``scratch`` is a free
    dict for hook caches. ``iteration`` is 0 during setup and baseline
    records.
    """

    def __init__(
        self,
        graph: Graph,
        states: Mapping[int, str],
        attrs: AttributeTable,
        net_params: dict[str, Any],
        rng: np.random.Generator,
        node_types: tuple[str, ...],
    ):
        self.graph = graph
        if not (isinstance(states, NodeStates) and states.types == tuple(node_types)):
            states = NodeStates.from_mapping(states, graph.num_nodes, node_types)
        self.states = states
        self.attrs = attrs
        self.net_params = net_params
        self.rng = rng
        self.iteration = 0
        self.frozen_states: Mapping[int, str] = {}
        self.scratch: dict[str, Any] = {}

    def count(self, type_name: str) -> int:
        return self.states.count(type_name)

    def counts(self) -> dict[str, int]:
        return self.states.counts()

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
                self.attrs.drop_edge(u, v)  # both orientations


def shuffle_agents(ctx: SimContext) -> list[int]:
    """A fresh uniform permutation of node ids from the run's RNG."""
    return ctx.rng.permutation(ctx.graph.num_nodes).tolist()


@dataclass
class SimResult:
    epochs: int
    states: NodeStates  # read-only
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
    except HookError as exc:
        raise exc.locate(hook.name, ctx.iteration)
    except Exception as exc:
        raise HookError(str(exc) or repr(exc), hook=hook.name, iteration=ctx.iteration) from exc


def _record(hooks: list[Hook], ctx: SimContext, recorders: dict[str, SeriesRecorder]) -> None:
    """Call each hook and record what it returns at the current iteration."""
    for hook in hooks:
        value = _call_hook(hook, ctx)
        if value is not None:
            recorders[hook.name].record(ctx.iteration, value)


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

    g = build_graph(config, rng, base_dir=base_dir) if graph is None else graph.copy()
    states, attrs, net_params = initialize_population(g, config, rng, base_dir=base_dir)

    d = config.definitions
    ctx = SimContext(g, states, attrs, net_params, rng, tuple(d.nodetypes))
    rules: list[Rule] = build_rules(d) if d.model_kind == MODEL_DIFFUSION and d.rules else []
    ledger = CountdownLedger()

    registry = registry or HookRegistry()
    before_hooks = registry.hooks(PHASE_BEFORE)
    agent_hooks = registry.hooks(PHASE_AGENT)
    after_hooks = registry.hooks(PHASE_AFTER)
    final_hooks = registry.hooks(PHASE_FINAL)
    if record_node_counts and NODE_COUNTS_HOOK not in registry:  # this run's list, not the caller's registry
        after_hooks.append(Hook(NODE_COUNTS_HOOK, _node_counts_hook, record_initial=True))
    recorders = {hook.name: SeriesRecorder(hook.name) for hook in before_hooks + after_hooks}

    persist = run_dir is not None
    run_path = Path(run_dir) if persist else None
    texts: dict = {}  # snapshot texts reused across this run's writes while their arrays are unchanged
    if persist:
        write_atomic(run_path / RUN_CONFIG_FILE, serialize_config(config, include_sweep=False))

    def _flush(error: str | None) -> None:
        write_collectors(recorders.values(), run_path)
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
            _call_hook(Hook("setup", setup), ctx)

        _record([hook for hook in after_hooks if hook.record_initial], ctx, recorders)
        if persist:
            write_snapshot(0, g, ctx.states, attrs, ctx.net_params, run_path, texts=texts)

        for it in range(1, epochs + 1):
            ctx.iteration = it
            _record(before_hooks, ctx, recorders)
            if agent_hooks:
                ctx.frozen_states = ctx.states.frozen()
                order = shuffle_agents(ctx)
                try:
                    for node in order:
                        for hook in agent_hooks:
                            hook.fn(ctx, node)
                except HookError as exc:
                    raise exc.locate(hook.name, it)
                except Exception as exc:
                    raise HookError(str(exc) or repr(exc), hook=hook.name, iteration=it) from exc
            if rules:
                transitions = apply_rules(ctx.states, g, attrs, rules, ledger, rng)
                if transitions:
                    ctx.states.update(transitions)
            _record(after_hooks, ctx, recorders)
            if persist and snapshot_period is not None and it % snapshot_period == 0:
                write_snapshot(it, g, ctx.states, attrs, ctx.net_params, run_path, texts=texts)
                write_collectors(recorders.values(), run_path)

        summary: dict[str, Any] = {"epochs": epochs, "final_node_counts": ctx.counts()}
        for hook in final_hooks:
            value = _call_hook(hook, ctx)
            if value is not None:
                if hook.name in summary:
                    raise CollectError(f"summary key {hook.name!r} written twice")
                summary[hook.name] = coerce_value(value, f"summary[{hook.name!r}]")
        if persist:
            if snapshot_period is None or epochs % snapshot_period != 0:
                write_snapshot(epochs, g, ctx.states, attrs, ctx.net_params, run_path, texts=texts)
            write_summary(summary, run_path)
    except Exception as exc:
        if persist:
            _flush(str(exc))
        raise
    if persist:
        _flush(None)

    records = {name: rec.entries for name, rec in recorders.items()}
    return SimResult(epochs=epochs, states=ctx.states.frozen(), records=records, summary=summary, context=ctx,
                     run_dir=run_path)


# ---------------------------------------------------------------------------
# Projects on disk.
# ---------------------------------------------------------------------------


def projects_root(override=None) -> Path:
    """The directory that holds projects (CROWDKIT_HOME or ./crowdkit-projects)."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get(HOME_ENV_VAR) or Path.cwd() / DEFAULT_PROJECTS_DIRNAME)


def _plain(name: str, what: str) -> str:
    if not is_plain_name(name):
        raise ConfigError(f"{what} {name!r} is not a plain directory name")
    return name


def create_project(name: str, root=None) -> Path:
    """Make the project ``name`` under the projects root and return its directory."""
    directory = projects_root(root) / _plain(name, "project name")
    if (directory / PROJECT_FILE).exists():
        raise ConfigError(f"project {name!r} already exists at {directory}")
    payload = {"name": name, "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat()}
    write_atomic(directory / PROJECT_FILE, yaml.safe_dump(payload, sort_keys=False))
    return directory


def list_projects(root=None) -> list[str]:
    """The names of the projects under the projects root, sorted."""
    root_path = projects_root(root)
    if not root_path.is_dir():
        return []
    return sorted(p.name for p in root_path.iterdir() if (p / PROJECT_FILE).is_file())


def simulation_dir(project: str, sim_name: str, root=None) -> Path:
    """A fresh directory for ``sim_name`` in ``project`` (made if missing, once both names pass), suffixed -2, ..."""
    directory = projects_root(root) / _plain(project, "project name")
    _plain(sim_name, "simulation name")
    if not (directory / PROJECT_FILE).is_file():
        create_project(project, root)
    candidate, k = directory / sim_name, 2
    while candidate.exists():
        candidate, k = directory / f"{sim_name}-{k}", k + 1
    return candidate


# ---------------------------------------------------------------------------
# Batch and sweep drivers.
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    batch_index: int
    run_dir: Path
    error: str | None = None


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
    graphs: Mapping[Structure, Graph] | None = None,
) -> list[BatchOutcome]:
    """Run ``batches`` replicas of one config into batch-<k> subdirectories.

    Each outcome holds its batch's run directory, where the results are, and its error if it failed; a
    failing batch does not stop the others.
    ``registry_factory`` is invoked once per batch so hook closures never
    leak state across replicas. ``graphs`` maps structures to graphs already
    built from them: when the config's ``structure`` is a key, each batch
    copies that graph in place of building its own.
    """
    if batches < 1:
        raise ConfigError(f"batches must be >= 1, got {batches}")
    parent = Path(parent_dir)
    graph = (graphs or {}).get(config.structure)
    outcomes: list[BatchOutcome] = []
    for k in range(batches):
        run_dir = parent / f"batch-{k}"
        registry, setup = registry_factory() if registry_factory else (None, None)
        outcome = BatchOutcome(batch_index=k, run_dir=run_dir)
        try:
            simulate(
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
        except Exception as exc:  # noqa: BLE001 — batch isolation is the contract
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    return outcomes


@dataclass
class SweepOutcome:
    label: str
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
    graphs: Mapping[Structure, Graph] | None = None,
) -> list[SweepOutcome]:
    """Expand the sweep section and batch-run each variant under its label dir.

    Each outcome holds a variant's label, directory and batch outcomes; the variant's index in the sweep is
    in each of its batches' ``run-meta.json`` as ``sweep_index``.

    ``graphs`` goes to each variant's ``batch_run``.
    """
    if not config.sweep:
        raise ConfigError("config has no sweep section")
    violations = sweep_label_violations(config)
    if violations:
        raise ConfigError("invalid sweep:\n  " + "\n  ".join(violations))
    outcomes: list[SweepOutcome] = []
    for index, (variant, label) in enumerate(zip(expand_sweep(config), sweep_labels(config))):
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
            graphs=graphs,
        )
        outcomes.append(SweepOutcome(label=label, parent_dir=parent, batch_outcomes=batch_outcomes))
    return outcomes
