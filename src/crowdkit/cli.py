"""Command-line front end.

Subcommands: project-new, project-list, run, sweep, merge, chart, inspect,
export. Exit codes are a stable contract for scripting:

* 0 — success
* 2 — usage or configuration problem (bad flags, invalid config, missing
  files/snapshots)
* 3 — runtime failure inside a simulation (hook errors, metric divergence)
* 4 — data/merge problem (mismatched series, malformed collector files)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .charts import CHART_KINDS, write_chart
from .collect import export_gexf, merge_parent_directory, merge_simulations, read_snapshot, snapshot_path
from .config import FileStructure, build_graph, expand_sweep, load_config, validate
from .engine import (
    HOME_ENV_VAR,
    Project,
    batch_run,
    projects_root,
    sweep_run,
)
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


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (HookError, MetricError)):
        return EXIT_RUNTIME
    if isinstance(exc, CollectError):
        return EXIT_DATA
    if isinstance(exc, (ConfigError, GraphError, GexfError)):
        return EXIT_USAGE
    return 1


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(_exit_code_for(exc))


def _usage_fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


@click.group()
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
    try:
        project = Project.create(name, root=home)
    except CrowdkitError as exc:
        _fail(exc)
    click.echo(str(project.dir))


@main.command("project-list")
@_home_option
def project_list(home):
    """List projects under the projects root."""
    names = Project.list_projects(root=home)
    if not names:
        click.echo(f"no projects under {projects_root(home)}")
        return
    for name in names:
        click.echo(name)


def _run_options(command):
    """The options ``run`` and ``sweep`` share, declared once."""
    options = [
        click.option("--config", "config_path", type=click.Path(path_type=Path), default=None, help="Config YAML path."),
        click.option("--scenario", "scenario_name", type=click.Choice(sorted(SCENARIOS)), default=None, help="Attach a built-in scenario's hooks (and use its fixture when --config is omitted)."),
        click.option("--epochs", type=click.IntRange(min=1), default=50, show_default=True, help="Number of iterations."),
        click.option("--snapshot", "snapshot_period", type=click.IntRange(min=1), default=None, help="Snapshot every N iterations."),
        click.option("--batches", type=click.IntRange(min=1), default=1, show_default=True, help="Independent replicas."),
        click.option("--seed", "master_seed", type=int, default=0, show_default=True, help="Master seed."),
        click.option("--project", "project_name", default="default", show_default=True, help="Project name."),
        click.option("--name", "sim_name", default=None, help="Simulation directory name (default: config name)."),
        _home_option,
    ]
    for option in reversed(options):
        command = option(command)
    return command


def _load_run_inputs(config_path, scenario_name, epochs, snapshot_period, sweep=False):
    """The config, and the keywords ``run`` passes on (registry_factory, base_dir, graph) or, with ``sweep``,
    those ``sweep`` passes on (graphs in place of graph).

    Each distinct structure file is read once, before anything is written: the config's and, for a sweep, every
    variant's. A file that cannot be read, or type counts that do not match its nodes, exits 2 here.
    """
    if snapshot_period is not None and snapshot_period > epochs:
        _usage_fail(f"--snapshot must be <= --epochs, got {snapshot_period} with --epochs {epochs}")
    scenario = SCENARIOS[scenario_name] if scenario_name else None
    if config_path is None:
        if scenario is None:
            _usage_fail("provide --config PATH and/or --scenario NAME")
        config_path = fixture_path(scenario.fixture)
    config_path = Path(config_path)
    config = load_config(config_path)
    base_dir = config_path.parent
    graphs = {}  # structure -> its graph, for each distinct structure file
    if isinstance(config.structure, FileStructure):  # a file draws nothing from the RNG
        graphs[config.structure] = build_graph(config, None, base_dir=base_dir)
    graph = graphs.get(config.structure)
    _exit_on_violations(validate(config, node_count_hint=None if graph is None else graph.num_nodes))
    inputs = {"registry_factory": scenario.make_hooks if scenario else None, "base_dir": base_dir}
    if not sweep:
        return config, {**inputs, "graph": graph}
    if not config.sweep:
        _usage_fail("no sweep section in config")
    for variant in expand_sweep(config):
        if isinstance(variant.structure, FileStructure) and variant.structure not in graphs:
            built = graphs[variant.structure] = build_graph(variant, None, base_dir=base_dir)
            _exit_on_violations(validate(variant, node_count_hint=built.num_nodes))
    return config, {**inputs, "graphs": graphs}


def _exit_on_violations(violations: list[str]) -> None:
    if violations:
        click.echo("invalid config:", err=True)
        for violation in violations:
            click.echo(f"  - {violation}", err=True)
        sys.exit(EXIT_USAGE)


def _report_batches(outcomes) -> bool:
    ok = True
    for outcome in outcomes:
        if outcome.error is None:
            click.echo(str(outcome.run_dir))
        else:
            ok = False
            click.echo(f"batch {outcome.batch_index} FAILED: {outcome.error}", err=True)
    return ok


@main.command("run")
@_run_options
def cmd_run(config_path, scenario_name, epochs, snapshot_period, batches, master_seed, project_name, sim_name, home):
    """Run a config (optionally with scenario hooks) for one or more batches."""
    try:
        config, inputs = _load_run_inputs(config_path, scenario_name, epochs, snapshot_period)
        project = Project.load_or_create(project_name, root=home)
        sim_dir = project.simulation_dir(sim_name or config.name)
        outcomes = batch_run(
            config,
            sim_dir,
            batches=batches,
            epochs=epochs,
            snapshot_period=snapshot_period,
            master_seed=master_seed,
            **inputs,
        )
    except CrowdkitError as exc:
        _fail(exc)
    if not _report_batches(outcomes):
        sys.exit(EXIT_RUNTIME)


@main.command("sweep")
@_run_options
def cmd_sweep(config_path, scenario_name, epochs, snapshot_period, batches, master_seed, project_name, sim_name, home):
    """Expand the config's sweep section and run every variant."""
    try:
        config, inputs = _load_run_inputs(config_path, scenario_name, epochs, snapshot_period, sweep=True)
        project = Project.load_or_create(project_name, root=home)
        sim_dir = project.simulation_dir(sim_name or config.name)
        sweep_outcomes = sweep_run(
            config,
            sim_dir,
            batches=batches,
            epochs=epochs,
            snapshot_period=snapshot_period,
            master_seed=master_seed,
            **inputs,
        )
    except CrowdkitError as exc:
        _fail(exc)
    ok = True
    for sweep_outcome in sweep_outcomes:
        click.echo(f"[{sweep_outcome.label}]")
        ok = _report_batches(sweep_outcome.batch_outcomes) and ok
    if not ok:
        sys.exit(EXIT_RUNTIME)


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
    try:
        if mode == "mean":
            if len(dirs) != 1:
                _usage_fail("mean mode takes exactly one parent directory")
            written = merge_parent_directory(dirs[0], collector_name)
        else:
            if not dirs:
                _usage_fail("labeled mode needs at least one run directory")
            if collector_name is None:
                _usage_fail("labeled mode requires --name")
            labels = (
                [label.strip() for label in labels_csv.split(",")]
                if labels_csv
                else [_default_label(Path(d)) for d in dirs]
            )
            if len(labels) != len(dirs):
                _usage_fail(f"{len(labels)} labels for {len(dirs)} directories")
            if out_path is None:
                out_path = Path(f"{collector_name}-labeled.json")
            written = [merge_simulations(list(dirs), labels, collector_name, out_path)]
    except CrowdkitError as exc:
        _fail(exc)
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
    try:
        written = write_chart(list(inputs), kind, out_path, title=title)
    except CrowdkitError as exc:
        _fail(exc)
    click.echo(str(written))


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
    try:
        path = _snapshot_path(Path(run_dir), iteration)
        _, graph, states, attrs, _ = read_snapshot(path)
        if not 0 <= node_id < graph.num_nodes:
            raise ConfigError(f"node {node_id} out of range [0, {graph.num_nodes})")
    except CrowdkitError as exc:
        _fail(exc)
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
    try:
        if fmt != "gexf":
            _usage_fail(f"unknown export format {fmt!r} (valid: gexf)")
        path = _snapshot_path(Path(run_dir), iteration)
        if out_path is None:
            out_path = Path(run_dir) / f"export-iter_{iteration}.gexf"
        export_gexf(path, out_path)
    except CrowdkitError as exc:
        _fail(exc)
    click.echo(str(out_path))


if __name__ == "__main__":
    main()
