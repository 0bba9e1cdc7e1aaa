"""Shared fixtures and helpers: the large social-graph fixture, isolated project homes, column kinds."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from crowdkit import Graph, load_edge_list

# Size of the benchmark social network (ego-Facebook from the SNAP collection).
FACEBOOK_NODES = 4039
FACEBOOK_EDGES = 88234
_SURROGATE_SEED = 20260816

FACEBOOK_ENV_VAR = "CROWDKIT_FACEBOOK_EDGELIST"


def _surrogate_social_graph() -> Graph:
    """Deterministic stand-in with the benchmark's node and edge counts.

    A random spanning tree keeps it connected, then random edges fill in
    the remaining count. Used when the real edge list is not available.
    """
    rng = np.random.default_rng(_SURROGATE_SEED)
    g = Graph(FACEBOOK_NODES, directed=False)
    for i in range(1, FACEBOOK_NODES):
        g.add_edge(i, int(rng.integers(0, i)))
    while g.num_edges < FACEBOOK_EDGES:
        need = FACEBOOK_EDGES - g.num_edges
        us = rng.integers(0, FACEBOOK_NODES, size=need * 2)
        vs = rng.integers(0, FACEBOOK_NODES, size=need * 2)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v and g.add_edge(u, v) and g.num_edges == FACEBOOK_EDGES:
                break
    return g


def column_kind(columns, key: str) -> type | None:
    """The value kind of ``columns[key]`` (``attrs.node`` or ``attrs.edge``), None when absent or empty."""
    return columns[key].kind if columns.get(key) else None


_facebook_cache: list[Graph] = []


def get_facebook_graph() -> Graph:
    """The benchmark graph: the real edge list when pointed at, else the surrogate."""
    if not _facebook_cache:
        override = os.environ.get(FACEBOOK_ENV_VAR)
        if override and Path(override).is_file():
            g = load_edge_list(override, directed=False)
        else:
            g = _surrogate_social_graph()
        _facebook_cache.append(g)
    return _facebook_cache[0]


@pytest.fixture(scope="session")
def facebook_graph() -> Graph:
    return get_facebook_graph()


@pytest.fixture()
def project_home(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    """Isolated projects root so tests never touch the working directory."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("CROWDKIT_HOME", str(home))
    return home


# ---------------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion in the terminal
# summary, with the measured numbers.
# ---------------------------------------------------------------------------

_acceptance_lines: list[str] = []


def acceptance_report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    _acceptance_lines.append(f"[{number:02d}] {status} — {label}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
