"""Command-line front end.

Subcommands: project-new, project-list, run, sweep, merge, chart, inspect,
export. Exit codes are a stable contract for scripting:

* 0 — success
* 2 — usage or configuration problem (bad flags, invalid config, missing
  files/snapshots)
* 3 — runtime failure inside a simulation (hook errors, metric divergence)
* 4 — data/merge problem (mismatched series, malformed collector files), or a
  file that could not be read or written

Every failure prints one ``error:`` line on stderr, except an invalid config,
which prints an ``invalid config:`` line and one line per violation.
``run`` and ``sweep`` write nothing until every config that will run is valid
(each sweep variant's lines are led by its ``[label]``) and every directory
name (project, simulation, sweep label) passes ``config.is_plain_name``.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .charts import CHART_KINDS, write_chart
from .collect import merge_parent_directory, merge_simulations, read_snapshot, snapshot_path, write_gexf
from .config import FileStructure, build_graph, expand_sweep, load_config, sweep_labels, validate
from .engine import HOME_ENV_VAR, batch_run, create_project, list_projects, projects_root, simulation_dir, sweep_run
from .errors import (
    CollectError,
    ConfigError,
    CrowdkitError,
    GexfError,
    GraphError,
    HookError,
    MetricError,
)
from .scenarios import SCENARIOS, fixture_path

EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_DATA = 4


class _Commands(click.Group):
    """``main``'s group: an error becomes one ``error:`` line and the code of its first class in ``EXIT_CODES``; a
    ``BrokenPipeError`` (as in ``crowdkit run | head -1``) goes on to click, which exits 1 with no line."""

    EXIT_CODES = (((HookError, MetricError), EXIT_RUNTIME), ((CollectError, OSError), EXIT_DATA),
                  ((ConfigError, GraphError, GexfError), EXIT_USAGE), (CrowdkitError, 1))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (CrowdkitError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kinds, code in self.EXIT_CODES if isinstance(exc, kinds)))


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Configuration-driven agent-based simulations on networks."""


_home_option = click.option(
    "--home",
    "home",
    type=click.Path(path_type=Path),
    envvar=HOME_ENV_VAR,
    default=None,
    help=f"Projects root directory (default ./crowdkit-projects; env {HOME_ENV_VAR}).",
)


@main.command("project-new")
@click.argument("name")
@_home_option
def project_new(name: str, home):
    """Create a new project directory."""
    click.echo(str(create_project(name, root=home)))


@main.command("project-list")
@_home_option
def project_list(home):
    """List projects under the projects root."""
    names = list_projects(root=home)
    click.echo("\n".join(names) if names else f"no projects under {projects_root(home)}")


def _load_run_inputs(config_path, scenario_name, epochs, snapshot_period, sweep):
    """The config, and the keywords ``run`` and ``sweep`` pass on: registry_factory, base_dir and graphs.

    The config and, with ``sweep``, each variant (its violation lines led by its ``[label]``) is validated with its
    graph's node count, each distinct structure file read once. An unreadable file or any violation exits 2 here.
    """
    if snapshot_period is not None and snapshot_period > epochs:
        raise ConfigError(f"--snapshot must be <= --epochs, got {snapshot_period} with --epochs {epochs}")
    scenario = SCENARIOS[scenario_name] if scenario_name else None
    if config_path is None:
        if scenario is None:
            raise ConfigError("provide --config PATH and/or --scenario NAME")
        config_path = fixture_path(scenario.fixture)
    config_path = Path(config_path)
    config = load_config(config_path)
    if sweep and not config.sweep:
        raise ConfigError("no sweep section in config")
    base_dir = config_path.parent
    graphs = {}  # structure -> its graph, for each distinct structure file

    def check(variant, label=None):
        if isinstance(variant.structure, FileStructure) and variant.structure not in graphs:
            graphs[variant.structure] = build_graph(variant, None, base_dir=base_dir)  # a file draws nothing
        graph = graphs.get(variant.structure)
        lines = validate(variant, node_count_hint=None if graph is None else graph.num_nodes)
        return [line if label is None else f"[{label}] {line}" for line in lines]

    _exit_on_violations(check(config))  # the sweep section must hold before it can be expanded
    if sweep:
        _exit_on_violations([line for label, variant in zip(sweep_labels(config), expand_sweep(config))
                             for line in check(variant, label)])
    return config, {"registry_factory": scenario.make_hooks if scenario else None, "base_dir": base_dir,
                    "graphs": graphs}


def _exit_on_violations(violations: list[str]) -> None:
    if violations:
        click.echo("invalid config:", err=True)
        for violation in violations:
            click.echo(f"  - {violation}", err=True)
        sys.exit(EXIT_USAGE)


def _run_command(sweep, config_path, scenario_name, epochs, snapshot_period, batches, master_seed, project_name, sim_name,
                 home):
    """The ``run`` command, or with ``sweep`` the ``sweep`` command: each run directory on stdout (each variant's
    after its ``[label]``), each failed batch on stderr, and exit 3 when any failed."""
    config, inputs = _load_run_inputs(config_path, scenario_name, epochs, snapshot_period, sweep)
    sim_dir = simulation_dir(project_name, config.name if sim_name is None else sim_name, root=home)
    outcomes = (sweep_run if sweep else batch_run)(config, sim_dir, batches=batches, epochs=epochs,
                                                   snapshot_period=snapshot_period, master_seed=master_seed, **inputs)
    failed = False
    for label, batch_outcomes in [(v.label, v.batch_outcomes) for v in outcomes] if sweep else [(None, outcomes)]:
        if sweep:
            click.echo(f"[{label}]")
        for outcome in batch_outcomes:
            if outcome.error is None:
                click.echo(str(outcome.run_dir))
            else:
                failed = True
                click.echo(f"batch {outcome.batch_index} FAILED: {outcome.error}", err=True)
    if failed:
        sys.exit(EXIT_RUNTIME)


def _register(name: str, sweep: bool, summary: str) -> None:
    """Register ``_run_command`` with ``sweep`` as the command ``name``, under the options both commands share."""
    command = functools.partial(_run_command, sweep)
    for option in reversed([
        click.option("--config", "config_path", type=click.Path(path_type=Path), default=None, help="Config YAML path."),
        click.option("--scenario", "scenario_name", type=click.Choice(sorted(SCENARIOS)), default=None, help="Attach a built-in scenario's hooks (and use its fixture when --config is omitted)."),
        click.option("--epochs", type=click.IntRange(min=1), default=50, show_default=True, help="Number of iterations."),
        click.option("--snapshot", "snapshot_period", type=click.IntRange(min=1), default=None, help="Snapshot every N iterations."),
        click.option("--batches", type=click.IntRange(min=1), default=1, show_default=True, help="Independent replicas."),
        click.option("--seed", "master_seed", type=int, default=0, show_default=True, help="Master seed."),
        click.option("--project", "project_name", default="default", show_default=True, help="Project name."),
        click.option("--name", "sim_name", default=None, help="Simulation directory name (default: config name)."),
        _home_option,
    ]):
        command = option(command)
    main.command(name, help=summary)(command)


_register("run", False, "Run a config (optionally with scenario hooks) for one or more batches.")
_register("sweep", True, "Expand the config's sweep section and run every variant.")


def _default_label(run_dir: Path) -> str:
    name = run_dir.name
    if name.startswith("batch-") and run_dir.parent.name:
        return run_dir.parent.name
    return name


@main.command("merge")
@click.argument("mode", type=click.Choice(["mean", "labeled"]))
@click.argument("dirs", nargs=-1, type=click.Path(path_type=Path))
@click.option("--name", "collector_name", default=None, help="Collector name (required for labeled mode).")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None, help="Output path for labeled mode.")
@click.option("--labels", "labels_csv", default=None, help="Comma-separated labels for labeled mode.")
@click.option("--json", "as_json", is_flag=True, help="Print machine-readable output.")
def cmd_merge(mode, dirs, collector_name, out_path, labels_csv, as_json):
    """Merge collector series: batch mean under a parent, or labeled across runs."""
    if mode == "mean":
        if len(dirs) != 1:
            raise ConfigError("mean mode takes exactly one parent directory")
        written = merge_parent_directory(dirs[0], collector_name)
    else:
        if not dirs:
            raise ConfigError("labeled mode needs at least one run directory")
        if collector_name is None:
            raise ConfigError("labeled mode requires --name")
        labels = (
            [label.strip() for label in labels_csv.split(",")]
            if labels_csv
            else [_default_label(Path(d)) for d in dirs]
        )
        if len(labels) != len(dirs):
            raise ConfigError(f"{len(labels)} labels for {len(dirs)} directories")
        if out_path is None:
            out_path = Path(f"{collector_name}-labeled.json")
        written = [merge_simulations(list(dirs), labels, collector_name, out_path)]
    if as_json:
        click.echo(json.dumps({"written": [str(p) for p in written]}))
    else:
        for path in written:
            click.echo(str(path))


@main.command("chart")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(path_type=Path))
@click.option("--kind", type=click.Choice(CHART_KINDS), default="line", show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True, help="Output .svg or .html path.")
@click.option("--title", default=None)
def cmd_chart(inputs, kind, out_path, title):
    """Draw a deterministic SVG/HTML chart from collector JSON files."""
    click.echo(str(write_chart(list(inputs), kind, out_path, title=title)))


def _snapshot_path(run_dir: Path, iteration: int) -> Path:
    path = snapshot_path(run_dir, iteration)
    if not path.is_file():
        raise ConfigError(f"no snapshot for iteration {iteration} under {run_dir}")
    return path


@main.command("inspect")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.option("--iteration", type=int, default=0, show_default=True)
@click.option("--node", "node_id", type=int, required=True)
@click.option("--json", "as_json", is_flag=True, help="Print machine-readable output.")
def cmd_inspect(run_dir, iteration, node_id, as_json):
    """Show a node's type, attributes, and neighbors at a snapshot iteration."""
    path = _snapshot_path(Path(run_dir), iteration)
    _, graph, states, attrs, _ = read_snapshot(path)
    if not 0 <= node_id < graph.num_nodes:
        raise ConfigError(f"node {node_id} out of range [0, {graph.num_nodes})")
    node_attrs = {key: column[node_id] for key, column in attrs.node.items() if node_id in column}
    neighbors = sorted(graph.neighbors(node_id))
    payload = {
        "node": node_id,
        "iteration": iteration,
        "type": states.get(node_id),
        "attributes": node_attrs,
        "neighbors": [{"node": v, "type": states.get(v)} for v in neighbors],
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(f"node {node_id} at iteration {iteration}")
    click.echo(f"  type: {payload['type']}")
    click.echo("  attributes:")
    if node_attrs:
        for key in sorted(node_attrs):
            click.echo(f"    {key}: {node_attrs[key]}")
    else:
        click.echo("    (none)")
    click.echo(f"  neighbors ({len(neighbors)}):")
    for entry in payload["neighbors"]:
        click.echo(f"    {entry['node']}: {entry['type']}")


@main.command("export")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.option("--iteration", type=int, default=0, show_default=True)
@click.option("--format", "fmt", default="gexf", show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
def cmd_export(run_dir, iteration, fmt, out_path):
    """Export a snapshot as GEXF."""
    if fmt != "gexf":
        raise ConfigError(f"unknown export format {fmt!r} (valid: gexf)")
    path = _snapshot_path(Path(run_dir), iteration)
    if out_path is None:
        out_path = Path(run_dir) / f"export-iter_{iteration}.gexf"
    _, graph, states, attrs, _ = read_snapshot(path)
    write_gexf(graph, out_path, states, attrs)
    click.echo(str(out_path))


if __name__ == "__main__":
    main()
