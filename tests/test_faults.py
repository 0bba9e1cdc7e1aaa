"""Failed writes and killed runs: what a run leaves behind never breaks a reader command.

Every reader command (``merge mean``, ``merge labeled``, ``inspect``, ``export``, ``chart``) on a run that a failed
``os.replace`` or a ``SIGKILL`` cut short either succeeds or exits 2, 3 or 4 with one ``error:`` line and no
traceback; no ``*.tmp`` file is left and every ``*.json`` file parses. Power loss is not covered: ``write_atomic``
renames its temp file into place without ``fsync``, so after a power cut a renamed file may be empty or missing.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import crowdkit
from crowdkit.cli import main
from crowdkit.scenarios import fixture_path

runner = CliRunner()
real_replace = os.replace


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def write_infmax(tmp_path: Path) -> Path:
    """The infmax fixture on a 30-node edge list (a ring with chords) with 3 PageRank seeds."""
    (tmp_path / "net.txt").write_text("".join(f"{v} {(v + 1) % 30}\n{v} {(v + 7) % 30}\n" for v in range(30)))
    path = tmp_path / "infmax.yaml"
    path.write_text(fixture_path("infmax.yaml").read_text().replace("facebook_combined.txt", "net.txt")
                    .replace("count: 100", "count: 3").replace("count: 3939", "count: 27"))
    return path


def run_args(scenario: str, tmp_path: Path) -> list:
    config = ["--config", write_infmax(tmp_path)] if scenario == "infmax" else []
    return ["run", *config, "--scenario", scenario, "--epochs", 2, "--snapshot", 1, "--batches", 2]


class FailingReplace:
    """``os.replace`` that raises ``OSError`` on call number ``fail_at`` (counting from 1; 0 never, -1 always)."""

    def __init__(self, fail_at: int):
        self.fail_at, self.calls = fail_at, 0

    def __call__(self, src, dst):
        self.calls += 1
        if self.fail_at in (self.calls, -1):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        real_replace(src, dst)


def assert_error_line(res, code: int | None = None) -> None:
    """The command exited 2, 3 or 4 (or ``code``) by the CLI's own exit, with one ``error:`` line on stderr."""
    assert res.exit_code in ((2, 3, 4) if code is None else (code,)), res.output
    assert isinstance(res.exception, SystemExit), res.exception  # an uncaught exception would be a traceback
    [line] = res.stderr.splitlines()
    assert line.startswith("error: "), line


def assert_readers_keep_the_contract(sim_dir: Path, out: Path, collectors: list[str], iterations: list[int]) -> None:
    """Every reader command on every batch a complete run has, at every snapshot and collector it has."""
    batches = [sim_dir / f"batch-{b}" for b in range(2)]
    commands = [("merge", "mean", sim_dir)]
    for name in collectors:
        commands.append(("merge", "labeled", *batches, "--name", name, "--out", out / f"{name}-labeled.json"))
    for batch in batches:
        for it in iterations:
            commands.append(("inspect", batch, "--iteration", it, "--node", 0))
            commands.append(("export", batch, "--iteration", it, "--out", out / f"{batch.name}-{it}.gexf"))
        for name in collectors:
            commands.append(("chart", batch / "collectors" / f"{name}.json", "--out", out / f"{batch.name}-{name}.svg"))
    for args in commands:
        res = invoke(*args)
        if res.exit_code:
            assert_error_line(res)
        else:
            assert res.exception is None and not res.stderr, res.output
    for root in (sim_dir, out):
        assert not list(root.rglob("*.tmp"))
        for path in root.rglob("*.json"):
            json.loads(path.read_text(encoding="utf-8"))


def complete_run(scenario: str, tmp_path: Path, monkeypatch) -> tuple[int, list[str], list[int]]:
    """The ``os.replace`` calls, collector names and snapshot iterations of the run with nothing failing."""
    counter = FailingReplace(0)
    monkeypatch.setattr("os.replace", counter)
    res = invoke(*run_args(scenario, tmp_path), "--home", tmp_path / "home")
    monkeypatch.setattr("os.replace", real_replace)
    assert res.exit_code == 0, res.output
    batch = Path(res.output.splitlines()[0])
    return (counter.calls, sorted(p.stem for p in (batch / "collectors").iterdir()),
            sorted(int(p.stem.partition("_")[2]) for p in (batch / "snapshots").iterdir()))


@pytest.mark.parametrize("scenario", ["sir", "infmax"])
def test_a_run_whose_kth_write_fails_leaves_files_every_reader_handles(tmp_path, monkeypatch, scenario):
    calls, collectors, iterations = complete_run(scenario, tmp_path, monkeypatch)
    assert calls > 2 * (len(collectors) + len(iterations)) and iterations == [0, 1, 2]
    for k in range(1, calls + 1):
        home, out = tmp_path / f"home-{k}", tmp_path / f"out-{k}"
        counter = FailingReplace(k)
        monkeypatch.setattr("os.replace", counter)
        res = invoke(*run_args(scenario, tmp_path), "--home", home)
        monkeypatch.setattr("os.replace", real_replace)
        assert counter.calls >= k, f"write {k} was never made"
        if k == 1:  # the new project's project.yaml
            assert_error_line(res, 4)
            assert not [p for p in home.rglob("*") if p.is_file()]
            continue
        assert res.exit_code == 3, res.output  # the batch that hit the failure is reported, the other still runs
        assert isinstance(res.exception, SystemExit)
        assert [line.split(" FAILED: ")[0] for line in res.stderr.splitlines()] in (["batch 0"], ["batch 1"])
        [sim_dir] = [p for p in (home / "default").iterdir() if p.is_dir()]
        assert_readers_keep_the_contract(sim_dir, out, collectors, iterations)


def test_each_writer_command_whose_write_fails_exits_4_with_one_error_line(tmp_path, monkeypatch):
    res = invoke(*run_args("sir", tmp_path), "--home", tmp_path / "home")
    assert res.exit_code == 0, res.output
    batch = Path(res.output.splitlines()[0])
    out = tmp_path / "out"
    commands = {
        "project-new": ("project-new", "fresh", "--home", tmp_path / "home"),
        "run into a new project": (*run_args("sir", tmp_path), "--home", tmp_path / "home", "--project", "other"),
        "merge mean": ("merge", "mean", batch.parent),
        "merge labeled": ("merge", "labeled", batch, "--name", "node_counts", "--out", out / "labeled.json"),
        "export": ("export", batch, "--out", out / "snap.gexf"),
        "chart": ("chart", batch / "collectors" / "node_counts.json", "--out", out / "chart.svg"),
    }
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr("os.replace", FailingReplace(-1))
    for name, args in commands.items():
        res = invoke(*args)
        assert_error_line(res, 4)
        assert "No space left on device" in res.stderr, name
        assert sorted(tmp_path.rglob("*")) == before, name  # no file, temp file or directory the command made


CRASHING_RUN = """
import dataclasses, os, signal, sys
from crowdkit.cli import main
from crowdkit.engine import PHASE_BEFORE
from crowdkit.scenarios import SCENARIOS

name, kill_at = sys.argv[1], int(sys.argv[2])
scenario = SCENARIOS[name]

def make_hooks():
    registry, setup = scenario.make_hooks()
    registry.add(PHASE_BEFORE, "crash", lambda ctx: os.kill(os.getpid(), signal.SIGKILL) if ctx.iteration == kill_at else None)
    return registry, setup

SCENARIOS[name] = dataclasses.replace(scenario, make_hooks=make_hooks)
main(sys.argv[3:])
"""


@pytest.mark.parametrize("scenario", ["sir", "infmax"])
@pytest.mark.parametrize("kill_at", [1, 2])
def test_a_run_killed_at_an_iteration_leaves_files_every_reader_handles(tmp_path, monkeypatch, scenario, kill_at):
    _, collectors, iterations = complete_run(scenario, tmp_path, monkeypatch)
    home = tmp_path / "crashed"
    env = {**os.environ, "PYTHONPATH": str(Path(crowdkit.__file__).parents[1])}
    args = [str(a) for a in (*run_args(scenario, tmp_path), "--home", home)]
    result = subprocess.run([sys.executable, "-c", CRASHING_RUN, scenario, str(kill_at), *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == -signal.SIGKILL, result.stderr
    [sim_dir] = [p for p in (home / "default").iterdir() if p.is_dir()]
    assert sorted(p.name for p in (sim_dir / "batch-0" / "snapshots").iterdir()) == [
        f"iter_{it}.json" for it in range(kill_at)]
    assert_readers_keep_the_contract(sim_dir, tmp_path / "out", collectors, iterations)
