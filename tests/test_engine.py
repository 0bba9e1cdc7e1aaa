"""Simulation lifecycle: hooks, iteration loop, seeding, batches, sweeps."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    CollectError,
    ConfigError,
    HookError,
    HookRegistry,
    NodeStates,
    Project,
    SCENARIOS,
    batch_run,
    derive_seed,
    fixture_path,
    generate_barabasi_albert,
    list_snapshots,
    load_config,
    merge_parent_directory,
    parse_config,
    read_collector,
    read_snapshot,
    read_summary,
    simulate,
    sweep_run,
    write_edge_list,
)
from crowdkit.engine import (
    PHASE_AFTER,
    PHASE_AGENT,
    PHASE_BEFORE,
    PHASE_FINAL,
    RUN_META_FILE,
)

TINY = """
name: tiny
structure:
  random:
    type: random-regular
    count: 6
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 0.5
      B:
        random-with-weight:
          initial-weight: 0.5
"""


def tiny_config():
    return parse_config(TINY)


def run_files(run_dir: Path) -> dict[str, bytes]:
    """All files under a run directory, keyed by relative path."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)

    def test_batches_are_separated(self):
        seeds = {derive_seed(0, b) for b in range(1000)}
        assert len(seeds) == 1000

    def test_sweeps_are_separated(self):
        seeds = {derive_seed(0, 0, s) for s in range(1000)}
        assert len(seeds) == 1000

    def test_batch_and_sweep_axes_independent(self):
        assert derive_seed(5, 1, 0) != derive_seed(5, 0, 1)

    def test_master_seed_changes_everything(self):
        assert derive_seed(1) != derive_seed(2)


# ---------------------------------------------------------------------------
# Hook registry
# ---------------------------------------------------------------------------


class TestHookRegistry:
    def test_unknown_phase_rejected(self):
        reg = HookRegistry()
        with pytest.raises(HookError):
            reg.add("sometimes", "h", lambda ctx: None)

    def test_duplicate_name_rejected_across_phases(self):
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "h", lambda ctx: None)
        with pytest.raises(HookError):
            reg.add(PHASE_AFTER, "h", lambda ctx: None)

    def test_record_initial_only_on_after_phase(self):
        reg = HookRegistry()
        reg.add(PHASE_AFTER, "ok", lambda ctx: 1.0, record_initial=True)
        with pytest.raises(HookError):
            reg.add(PHASE_BEFORE, "nope", lambda ctx: 1.0, record_initial=True)

    def test_contains(self):
        reg = HookRegistry()
        reg.add(PHASE_FINAL, "wrap", lambda ctx: None)
        assert "wrap" in reg
        assert "other" not in reg


# ---------------------------------------------------------------------------
# Core loop behavior
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_zero_hooks_no_rules_states_unchanged(self):
        result = simulate(tiny_config(), epochs=10, master_seed=1)
        baseline = simulate(tiny_config(), epochs=0, master_seed=1)
        assert result.states == baseline.states
        assert isinstance(result.states, NodeStates)
        with pytest.raises(TypeError, match="read-only"):
            result.states[0] = "A"

    def test_epochs_zero_allowed(self):
        result = simulate(tiny_config(), epochs=0, master_seed=0)
        assert result.epochs == 0
        assert result.summary["epochs"] == 0

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError):
            simulate(tiny_config(), epochs=-1)

    def test_node_counts_recorded_automatically(self):
        result = simulate(tiny_config(), epochs=5, master_seed=2)
        entries = result.records["node_counts"]
        # baseline at iteration 0 plus one entry per iteration
        assert [e["iteration"] for e in entries] == [0, 1, 2, 3, 4, 5]
        for e in entries:
            assert sum(e["value"].values()) == 6

    def test_node_counts_hook_stays_out_of_the_callers_registry(self):
        reg = HookRegistry()
        reg.add(PHASE_AFTER, "first", lambda ctx: 1.0)
        result = simulate(tiny_config(), epochs=2, master_seed=2, registry=reg)
        assert list(result.records) == ["first", "node_counts"]  # user hooks first
        assert "node_counts" not in reg
        result = simulate(tiny_config(), epochs=2, master_seed=2, registry=reg, record_node_counts=False)
        assert list(result.records) == ["first"]

    def test_custom_hook_file_named_after_hook(self, tmp_path):
        reg = HookRegistry()
        reg.add(PHASE_AFTER, "temperature", lambda ctx: float(ctx.iteration) * 2.0)
        result = simulate(
            tiny_config(), epochs=50, master_seed=3, registry=reg, run_dir=tmp_path / "run"
        )
        doc = read_collector(tmp_path / "run" / "collectors" / "temperature.json")
        assert doc["name"] == "temperature"
        # record_initial defaults to False: one entry per iteration, none at 0
        assert len(doc["entries"]) == 50
        assert doc["entries"][0] == {"iteration": 1, "value": 2.0}
        assert result.records["temperature"][-1] == {"iteration": 50, "value": 100.0}

    def test_hook_returning_none_records_nothing(self, tmp_path):
        reg = HookRegistry()
        reg.add(PHASE_AFTER, "silent", lambda ctx: None)
        simulate(tiny_config(), epochs=5, registry=reg, run_dir=tmp_path / "run")
        doc = read_collector(tmp_path / "run" / "collectors" / "silent.json")
        assert doc["entries"] == []

    def test_phase_order_within_iteration(self):
        seen: list[str] = []
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "b", lambda ctx: seen.append(f"before@{ctx.iteration}"))
        reg.add(PHASE_AGENT, "a", lambda ctx, node: seen.append(f"agent@{ctx.iteration}"))
        reg.add(PHASE_AFTER, "d", lambda ctx: seen.append(f"after@{ctx.iteration}"))
        reg.add(PHASE_FINAL, "f", lambda ctx: seen.append("final"))
        simulate(tiny_config(), epochs=2, master_seed=4, registry=reg)
        expected = (
            ["before@1"] + ["agent@1"] * 6 + ["after@1"]
            + ["before@2"] + ["agent@2"] * 6 + ["after@2"]
            + ["final"]
        )
        assert seen == expected

    def test_frozen_states_hold_the_before_hook_moves(self):
        seen: list[tuple[str, str]] = []

        def flip(ctx, node):
            ctx.states[0] = "A"

        def read(ctx, node):
            seen.append((ctx.frozen_states[0], ctx.states[0]))

        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "move", lambda ctx: ctx.states.__setitem__(0, "B"))
        reg.add(PHASE_AGENT, "flip", flip)
        reg.add(PHASE_AGENT, "read", read)
        simulate(tiny_config(), epochs=2, master_seed=4, registry=reg)
        assert seen == [("B", "A")] * 12

    def test_no_frozen_copy_without_agent_hooks(self):
        seen = []
        reg = HookRegistry()
        reg.add(PHASE_AFTER, "probe", lambda ctx: seen.append(dict(ctx.frozen_states)))
        simulate(tiny_config(), epochs=2, master_seed=4, registry=reg)
        assert seen == [{}, {}]

    def test_diffusion_applies_between_agent_and_after_phases(self):
        # 2-node infection with certain spread: the after hook must already
        # see the transition that the agent phase could not.
        doc = """
name: pair
structure:
  random:
    type: random-regular
    count: 2
    degree: 1
definitions:
  pd-model:
    name: diffusion
    nodetypes:
      I:
        random-with-count:
          count: 1
      S:
        random-with-count:
          count: 1
    compartments:
      spread:
        type: node-stochastic
        ratio: 1.0
        triggering_status: I
    rules:
      infect: [S, I, spread]
"""
        observed = {}

        def probe_pre(ctx, node):
            observed.setdefault("agent", dict(ctx.states))

        def probe_post(ctx):
            observed.setdefault("after", dict(ctx.states))

        reg = HookRegistry()
        reg.add(PHASE_AGENT, "probe_pre", probe_pre)
        reg.add(PHASE_AFTER, "probe_post", probe_post)
        simulate(parse_config(doc), epochs=1, master_seed=5, registry=reg)
        assert sorted(observed["agent"].values()) == ["I", "S"]
        assert sorted(observed["after"].values()) == ["I", "I"]

    def test_agent_order_uniform_first_position(self):
        # Over many iterations each node leads the shuffled visit order about
        # equally often (multinomial 3-sigma bound).
        doc = TINY.replace("count: 6", "count: 5").replace("degree: 2", "degree: 2")
        # 5 nodes degree 2 -> ring, n*d even
        firsts: list[int] = []
        last_iteration = {"it": 0}

        def track(ctx, node):
            if ctx.iteration != last_iteration["it"]:
                last_iteration["it"] = ctx.iteration
                firsts.append(node)

        reg = HookRegistry()
        reg.add(PHASE_AGENT, "track", track)
        iters = 10000
        simulate(parse_config(doc), epochs=iters, master_seed=6, registry=reg,
                 record_node_counts=False)
        assert len(firsts) == iters
        expected = iters / 5
        sigma = math.sqrt(iters * 0.2 * 0.8)
        for node in range(5):
            assert abs(firsts.count(node) - expected) <= 3 * sigma

    def test_single_node_order(self):
        doc = """
name: solo
structure:
  random:
    type: random-regular
    count: 1
    degree: 0
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""
        visited = []
        reg = HookRegistry()
        reg.add(PHASE_AGENT, "v", lambda ctx, node: visited.append(node))
        simulate(parse_config(doc), epochs=3, registry=reg)
        assert visited == [0, 0, 0]

    def test_set_state_validates_type(self):
        reg = HookRegistry()
        reg.add(PHASE_AGENT, "bad", lambda ctx, node: ctx.states.__setitem__(node, "Zombie"))
        with pytest.raises(HookError):
            simulate(tiny_config(), epochs=1, registry=reg)

    def test_summary_contains_final_counts_and_final_hooks(self):
        reg = HookRegistry()
        reg.add(PHASE_FINAL, "verdict", lambda ctx: {"score": 1.5})
        result = simulate(tiny_config(), epochs=3, master_seed=7, registry=reg)
        assert result.summary["epochs"] == 3
        assert sum(result.summary["final_node_counts"].values()) == 6
        assert result.summary["verdict"] == {"score": 1.5}

    def test_summary_key_collision_rejected(self):
        reg = HookRegistry()
        reg.add(PHASE_FINAL, "epochs", lambda ctx: 1.0)
        with pytest.raises(CollectError):
            simulate(tiny_config(), epochs=1, registry=reg)


# ---------------------------------------------------------------------------
# Rule state kept across iterations
# ---------------------------------------------------------------------------


MISSING_LOCATION = """
name: missing-location
structure:
  random:
    type: random-regular
    count: 10
    degree: 2
definitions:
  pd-model:
    name: diffusion
    nodetypes:
      S:
        random-with-weight:
          initial-weight: 1.0
      I:
        random-with-weight:
          initial-weight: 0.0
    node-parameters:
      categorical:
        location:
          options: [grid, home]
    compartments:
      ambient:
        type: node-categorical
        attribute: location
        value: grid
        probability: 0.5
    rules:
      infect: [S, I, ambient]
"""


class TestRuleState:
    @pytest.mark.parametrize("phase,move_at", [(PHASE_BEFORE, 3), (PHASE_AFTER, 2)])
    def test_hook_moved_nodes_restart_their_countdown(self, phase, move_at):
        # Infected even nodes sent back to Susceptible by a hook are
        # re-infected at once (ratio 1) and must then take the full
        # iteration-count of 4 to recover, not what a stale counter left.
        text = fixture_path("sir.yaml").read_text(encoding="utf-8")
        text = text.replace("count: 100\n", "count: 200\n").replace("ratio: 0.1\n", "ratio: 1.0\n")
        history: list[dict[int, str]] = []
        sent_back: set[int] = set()

        def send_back(ctx):
            if ctx.iteration == move_at:
                for node, state in ctx.states.items():
                    if state == "Infected" and node % 2 == 0:
                        ctx.states[node] = "Susceptible"
                        sent_back.add(node)

        reg = HookRegistry()
        reg.add(phase, "send_back", send_back)
        reg.add(PHASE_AFTER, "history", lambda ctx: history.append(dict(ctx.states)))
        simulate(parse_config(text), epochs=12, master_seed=4, registry=reg)

        delays = set()
        for node in sent_back:
            trail = [states[node] for states in history[move_at - 1:]]
            infected_at = trail.index("Infected") + move_at
            recovered_at = trail.index("Recovered") + move_at
            delays.add(recovered_at - infected_at)
        assert sent_back
        assert delays == {4}

    def test_missing_attribute_warns_once_per_batch(self, tmp_path, caplog):
        def registry_factory():
            def drop_location(ctx):
                del ctx.attrs.node["location"][0]

            return None, drop_location

        with caplog.at_level("WARNING", logger="crowdkit.rules"):
            outcomes = batch_run(
                parse_config(MISSING_LOCATION), tmp_path, batches=2, epochs=3,
                registry_factory=registry_factory,
            )
        assert all(o.error is None for o in outcomes)
        warnings = [r.getMessage() for r in caplog.records if "lacks categorical" in r.getMessage()]
        assert warnings == ["node 0 lacks categorical attribute 'location'; treating as not eligible"] * 2


# ---------------------------------------------------------------------------
# Snapshot cadence and persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_snapshot_cadence_50_by_5(self, tmp_path):
        cfg = load_config(fixture_path("sir.yaml"))
        run_dir = tmp_path / "run"
        simulate(cfg, epochs=50, master_seed=9, run_dir=run_dir, snapshot_period=5)
        snaps = sorted(
            (tmp_path / "run" / "snapshots").glob("iter_*.json"),
            key=lambda p: int(p.stem.split("_")[1]),
        )
        assert [int(p.stem.split("_")[1]) for p in snaps] == list(range(0, 51, 5))
        assert len(snaps) == 11

    def test_final_snapshot_written_when_period_misses_end(self, tmp_path):
        simulate(tiny_config(), epochs=7, run_dir=tmp_path / "r", snapshot_period=3)
        snaps = {p.name for p in (tmp_path / "r" / "snapshots").glob("iter_*.json")}
        assert snaps == {"iter_0.json", "iter_3.json", "iter_6.json", "iter_7.json"}

    def test_every_snapshot_holds_the_run_as_an_after_hook_saw_it(self, tmp_path):
        write_edge_list(generate_barabasi_albert(40, 2, np.random.default_rng(4)), tmp_path / "net.txt")
        config = parse_config(
            fixture_path("infmax.yaml").read_text()
            .replace("facebook_combined.txt", "net.txt").replace("count: 100", "count: 3")
            .replace("count: 3939", "count: 37")
        )
        registry, setup = SCENARIOS["infmax"].make_hooks()
        seen = {}

        def edit(ctx):
            if ctx.iteration == 2:  # one value rewritten: same topology, same column keys
                column = ctx.attrs.edge["influence_prob"]
                pair = next(iter(column))
                column[pair] = column[pair] / 2
            elif ctx.iteration == 3:  # one edge added, one removed with its values
                ctx.mutate_edges(add=[(0, 39)], remove=[(0, 1)])
            elif ctx.iteration == 4:  # a write into the values array the column hands out
                ctx.attrs.edge["influence_prob"].arrays()[1][0] /= 2

        def capture(ctx):
            seen[ctx.iteration] = (ctx.graph.copy(), ctx.attrs.copy(), dict(ctx.states))

        registry.add(PHASE_BEFORE, "edit", edit)
        registry.add(PHASE_AFTER, "capture", capture, record_initial=True)
        simulate(config, epochs=5, registry=registry, setup=setup, base_dir=tmp_path, run_dir=tmp_path / "run",
                 snapshot_period=1)
        assert seen[1][1] != seen[2][1] != seen[3][1] != seen[4][1] and seen[2][0] != seen[3][0]  # each edit shows
        paths = list_snapshots(tmp_path / "run")
        assert [path.name for path in paths] == [f"iter_{it}.json" for it in range(6)]
        for path in paths:
            iteration, graph, states, attrs, _ = read_snapshot(path)
            assert (graph, attrs, states) == seen[iteration]

    def test_no_period_means_first_and_last_only(self, tmp_path):
        simulate(tiny_config(), epochs=9, run_dir=tmp_path / "r")
        snaps = {p.name for p in (tmp_path / "r" / "snapshots").glob("iter_*.json")}
        assert snaps == {"iter_0.json", "iter_9.json"}

    def test_run_meta_fields(self, tmp_path):
        simulate(tiny_config(), epochs=2, master_seed=11, batch_index=3,
                 sweep_index=2, run_dir=tmp_path / "r")
        meta = json.loads((tmp_path / "r" / RUN_META_FILE).read_text())
        assert meta["master_seed"] == 11
        assert meta["batch_index"] == 3
        assert meta["sweep_index"] == 2
        assert meta["epochs"] == 2
        assert meta["run_seed"] == derive_seed(11, 3, 2)
        assert "duration_seconds" in meta
        assert "package_version" in meta

    def test_frozen_config_written_without_sweep(self, tmp_path):
        cfg = load_config(fixture_path("trust.yaml"))
        doc = (
            "name: small-trust\n"
            + "structure:\n  random:\n    type: barabasi-albert\n    count: 16\n    m: 2\n"
        )
        small = parse_config(
            doc
            + """
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
    network-parameters:
      x: 0
sweep:
  definitions.network-parameters.x: [1, 2]
"""
        )
        # sweep paths are resolved at expansion, not at run time; the frozen
        # copy written into the run directory must drop the sweep section.
        simulate(small, epochs=1, run_dir=tmp_path / "r")
        frozen = (tmp_path / "r" / "config.yaml").read_text()
        assert "sweep" not in frozen
        assert cfg.sweep is not None  # unrelated config untouched

    def test_summary_file_round_trip(self, tmp_path):
        simulate(tiny_config(), epochs=4, master_seed=12, run_dir=tmp_path / "r")
        summary = read_summary(tmp_path / "r")
        assert summary["epochs"] == 4
        assert sum(summary["final_node_counts"].values()) == 6


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_rerun_byte_identical_except_meta(self, tmp_path):
        cfg = load_config(fixture_path("sir.yaml"))
        for name in ("a", "b"):
            simulate(cfg, epochs=20, master_seed=99, run_dir=tmp_path / name,
                     snapshot_period=5)
        files_a = run_files(tmp_path / "a")
        files_b = run_files(tmp_path / "b")
        assert set(files_a) == set(files_b)
        for rel in files_a:
            if rel == RUN_META_FILE:
                continue  # carries wall-clock timing
            assert files_a[rel] == files_b[rel], f"{rel} differs between identical runs"

    def test_different_batch_different_trajectory(self):
        cfg = load_config(fixture_path("sir.yaml"))
        r0 = simulate(cfg, epochs=10, master_seed=1, batch_index=0)
        r1 = simulate(cfg, epochs=10, master_seed=1, batch_index=1)
        assert r0.states != r1.states

    def test_batch_reproducible_in_isolation(self, tmp_path):
        cfg = load_config(fixture_path("sir.yaml"))
        batch_run(cfg, tmp_path / "group", batches=3, epochs=10, master_seed=77)
        solo = simulate(cfg, epochs=10, master_seed=77, batch_index=2,
                        run_dir=tmp_path / "solo")
        group_counts = read_collector(tmp_path / "group" / "batch-2" / "collectors" / "node_counts.json")
        solo_counts = read_collector(tmp_path / "solo" / "collectors" / "node_counts.json")
        assert group_counts == solo_counts
        assert solo.run_dir is not None


# ---------------------------------------------------------------------------
# Edge mutation
# ---------------------------------------------------------------------------


class TestEdgeMutation:
    def test_add_edge_via_hook(self):
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "wire", lambda ctx: ctx.mutate_edges(add=[(0, 3)]))
        result = simulate(tiny_config(), epochs=1, master_seed=13, registry=reg)
        assert result.context.graph.has_edge(0, 3) or result.context.graph.num_edges >= 6

    def test_growth_adds_one_edge_per_iteration(self):
        doc = """
name: grow
structure:
  random:
    type: random-regular
    count: 12
    degree: 0
definitions:
  pd-model:
    name: custom
    nodetypes:
      A:
        random-with-weight:
          initial-weight: 1.0
"""

        def grow(ctx):
            ctx.mutate_edges(add=[(0, ctx.iteration)])

        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "grow", grow)
        result = simulate(parse_config(doc), epochs=10, master_seed=14, registry=reg)
        assert result.context.graph.num_edges == 10

    def test_duplicate_add_is_noop(self):
        reg = HookRegistry()

        def rewire(ctx):
            before = ctx.graph.num_edges
            edge = next(iter(ctx.graph.edges()))
            ctx.mutate_edges(add=[edge])
            assert ctx.graph.num_edges == before

        reg.add(PHASE_BEFORE, "rewire", rewire)
        simulate(tiny_config(), epochs=2, master_seed=15, registry=reg)

    def test_remove_drops_edge_attributes(self):
        captured = {}

        def setup(ctx):
            u, v = next(iter(ctx.graph.edges()))
            ctx.attrs.set_edge(u, v, "w", 1.0)
            captured["edge"] = (u, v)

        def cut(ctx):
            u, v = captured["edge"]
            ctx.mutate_edges(remove=[(u, v)])
            assert ctx.attrs.get_edge(u, v, "w") is None

        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "cut", cut)
        simulate(tiny_config(), epochs=1, master_seed=16, registry=reg, setup=setup)

    def test_bad_endpoint_raises_hook_error(self):
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "bad", lambda ctx: ctx.mutate_edges(add=[(0, 99)]))
        with pytest.raises(HookError) as exc:
            simulate(tiny_config(), epochs=1, registry=reg)
        assert str(exc.value) == "hook bad (iteration 1): cannot add edge (0, 99): endpoint out of range"

    def test_self_loop_raises_hook_error(self):
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "loop", lambda ctx: ctx.mutate_edges(add=[(2, 2)]))
        with pytest.raises(HookError):
            simulate(tiny_config(), epochs=1, registry=reg)


# ---------------------------------------------------------------------------
# Hook failure handling
# ---------------------------------------------------------------------------


class TestHookFailure:
    def test_error_names_hook_and_iteration(self):
        def explode(ctx):
            if ctx.iteration == 3:
                raise ValueError("boom")

        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "fragile", explode)
        with pytest.raises(HookError) as exc:
            simulate(tiny_config(), epochs=5, registry=reg)
        msg = str(exc.value)
        assert "fragile" in msg
        assert "3" in msg

    @pytest.mark.parametrize(
        "names, raiser",
        [(("solo",), "solo"), (("first", "second"), "first"), (("first", "second"), "second")],
    )
    def test_agent_hook_error_names_hook_and_iteration(self, names, raiser):
        def make_agent(name):
            def agent(ctx, node):
                if name == raiser and ctx.iteration == 3:
                    raise ValueError("boom")

            return agent

        reg = HookRegistry()
        for name in names:
            reg.add(PHASE_AGENT, name, make_agent(name))
        with pytest.raises(HookError) as exc:
            simulate(tiny_config(), epochs=5, registry=reg)
        assert exc.value.hook == raiser
        assert exc.value.iteration == 3
        assert str(exc.value) == f"hook {raiser} (iteration 3): boom"
        assert isinstance(exc.value.__cause__, ValueError)

    def test_hook_error_from_agent_hook_propagates_unchanged(self):
        raised = []

        def zombify(ctx, node):
            try:
                ctx.states[node] = "Zombie"
            except HookError as err:
                raised.append(err)
                raise

        reg = HookRegistry()
        reg.add(PHASE_AGENT, "zombify", zombify)
        with pytest.raises(HookError) as exc:
            simulate(tiny_config(), epochs=2, registry=reg)
        assert exc.value is raised[0]
        assert exc.value.hook == "zombify"
        assert exc.value.iteration == 1
        assert str(exc.value) == "hook zombify (iteration 1): unknown node type 'Zombie' (declared: A, B)"
        assert exc.value.__cause__ is None

    def test_partial_output_persisted_on_failure(self, tmp_path):
        def explode(ctx):
            if ctx.iteration == 3:
                raise ValueError("boom")
            return float(ctx.iteration)

        reg = HookRegistry()
        reg.add(PHASE_AFTER, "wobbly", explode)
        run_dir = tmp_path / "r"
        with pytest.raises(HookError):
            simulate(tiny_config(), epochs=5, registry=reg, run_dir=run_dir)
        doc = read_collector(run_dir / "collectors" / "wobbly.json")
        assert [e["iteration"] for e in doc["entries"]] == [1, 2]
        meta = json.loads((run_dir / RUN_META_FILE).read_text())
        assert "wobbly" in meta["error"]

    def test_non_hook_error_still_flushes_collectors_and_meta(self, tmp_path):
        # A scalar then a map fails in SeriesRecorder.record (CollectError),
        # outside the hook call itself.
        def shape_shifter(ctx):
            return float(ctx.iteration) if ctx.iteration < 3 else {"x": 1.0}

        reg = HookRegistry()
        reg.add(PHASE_AFTER, "shifty", shape_shifter)
        run_dir = tmp_path / "r"
        with pytest.raises(CollectError, match="value shape changed"):
            simulate(tiny_config(), epochs=5, registry=reg, run_dir=run_dir)
        doc = read_collector(run_dir / "collectors" / "shifty.json")
        assert [e["iteration"] for e in doc["entries"]] == [1, 2]
        meta = json.loads((run_dir / RUN_META_FILE).read_text())
        assert "value shape changed at iteration 3" in meta["error"]

    def test_final_snapshot_failure_still_flushes_collectors_and_meta(self, tmp_path):
        # A set in the network parameters breaks only the final snapshot's JSON encoding.
        def poison(ctx):
            if ctx.iteration == 3:
                ctx.net_params["bad"] = {1}
            return float(ctx.iteration)

        reg = HookRegistry()
        reg.add(PHASE_AFTER, "poison", poison)
        run_dir = tmp_path / "p" / "batch-0"
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            simulate(tiny_config(), epochs=3, registry=reg, run_dir=run_dir)
        assert [e["iteration"] for e in read_collector(run_dir / "collectors" / "poison.json")["entries"]] == [1, 2, 3]
        meta = json.loads((run_dir / RUN_META_FILE).read_text())
        assert "set is not JSON serializable" in meta["error"]
        with pytest.raises(CollectError) as exc:  # merge refuses the failed batch, quoting its error
            merge_parent_directory(tmp_path / "p")
        assert str(exc.value) == f"batch-0: its run failed: {meta['error']}"

    def test_unchecked_column_write_fails_the_snapshot_with_the_column_named(self, tmp_path):
        def set_flag(ctx):
            ctx.attrs.node.setdefault("flag", {})[0] = True  # a bool, written into the column directly

        reg = HookRegistry()
        reg.add(PHASE_AFTER, "set_flag", set_flag)
        run_dir = tmp_path / "r"
        # the column refuses the write itself, so the run fails before its iteration-1 snapshot
        message = "hook set_flag (iteration 1): attribute 'flag': unsupported attribute value True"
        with pytest.raises(HookError, match=re.escape(message)):
            simulate(tiny_config(), epochs=1, registry=reg, run_dir=run_dir)
        assert (run_dir / "snapshots" / "iter_0.json").exists()
        assert not (run_dir / "snapshots" / "iter_1.json").exists()
        assert message in json.loads((run_dir / RUN_META_FILE).read_text())["error"]

    @pytest.mark.parametrize("pair", [(2**70, 0), ("x", 0)])
    def test_edge_pair_id_that_fits_no_int64_refused_at_the_write(self, tmp_path, pair):
        def weigh(ctx):
            ctx.attrs.set_edge(*pair, "w", 1.0)

        reg = HookRegistry()
        reg.add(PHASE_AFTER, "weigh", weigh)
        run_dir = tmp_path / "r"
        message = f"hook weigh (iteration 1): attribute 'w': {pair!r} is not a pair of integer node ids"
        with pytest.raises(HookError, match=re.escape(message)):
            simulate(tiny_config(), epochs=1, registry=reg, run_dir=run_dir)
        assert not (run_dir / "snapshots" / "iter_1.json").exists()
        assert message in json.loads((run_dir / RUN_META_FILE).read_text())["error"]


# ---------------------------------------------------------------------------
# Projects
# ---------------------------------------------------------------------------


class TestProject:
    def test_create_load_list(self, project_home):
        p = Project.create("epidemics")
        assert p.dir.is_dir()
        assert Project.list_projects() == ["epidemics"]
        q = Project.load("epidemics")
        assert q.dir == p.dir

    def test_create_twice_rejected(self, project_home):
        Project.create("epidemics")
        with pytest.raises(ConfigError):
            Project.create("epidemics")

    def test_load_missing_rejected(self, project_home):
        with pytest.raises(ConfigError):
            Project.load("ghost")

    def test_load_or_create(self, project_home):
        a = Project.load_or_create("x")
        b = Project.load_or_create("x")
        assert a.dir == b.dir

    def test_simulation_dir_suffixes_on_collision(self, project_home):
        p = Project.create("epidemics")
        d1 = p.simulation_dir("sir")
        d1.mkdir(parents=True)
        d2 = p.simulation_dir("sir")
        assert d2.name == "sir-2"
        d2.mkdir(parents=True)
        assert p.simulation_dir("sir").name == "sir-3"


# ---------------------------------------------------------------------------
# Batch and sweep drivers
# ---------------------------------------------------------------------------


class TestBatchRun:
    def test_fifty_batches_fifty_dirs(self, tmp_path):
        outcomes = batch_run(tiny_config(), tmp_path, batches=50, epochs=1, master_seed=1)
        assert len(outcomes) == 50
        dirs = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
        assert len(dirs) == 50
        assert all(o.error is None for o in outcomes)

    def test_single_batch_equivalent_to_simulate(self, tmp_path):
        cfg = load_config(fixture_path("sir.yaml"))
        batch_run(cfg, tmp_path / "grp", batches=1, epochs=10, master_seed=5)
        simulate(cfg, epochs=10, master_seed=5, batch_index=0, run_dir=tmp_path / "solo")
        a = read_collector(tmp_path / "grp" / "batch-0" / "collectors" / "node_counts.json")
        b = read_collector(tmp_path / "solo" / "collectors" / "node_counts.json")
        assert a == b

    def test_failing_batch_isolated(self, tmp_path):
        calls = {"n": 0}

        def registry_factory():
            calls["n"] += 1
            reg = HookRegistry()
            batch = calls["n"] - 1

            def maybe_explode(ctx):
                if batch == 1:
                    raise ValueError("batch 1 dies")

            reg.add(PHASE_BEFORE, "maybe", maybe_explode)
            return reg, None

        outcomes = batch_run(
            tiny_config(), tmp_path, batches=3, epochs=2, registry_factory=registry_factory
        )
        assert outcomes[0].error is None
        assert outcomes[1].error is not None
        assert "batch 1 dies" in outcomes[1].error
        assert outcomes[2].error is None

    def test_merge_names_a_failed_batch_and_quotes_its_error(self, tmp_path):
        calls = {"n": 0}

        def registry_factory():
            calls["n"] += 1
            reg, batch = HookRegistry(), calls["n"] - 1

            def explode(ctx):
                if batch == 1 and ctx.iteration == 3:
                    raise ValueError("batch 1 dies at iteration 3")

            reg.add(PHASE_AFTER, "explode", explode)
            return reg, None

        config = load_config(fixture_path("sir.yaml"))
        outcomes = batch_run(config, tmp_path, batches=2, epochs=5, registry_factory=registry_factory)
        assert [o.error is None for o in outcomes] == [True, False]
        error = json.loads((tmp_path / "batch-1" / RUN_META_FILE).read_text())["error"]
        assert "batch 1 dies at iteration 3" in error
        with pytest.raises(CollectError) as exc:
            merge_parent_directory(tmp_path)
        assert str(exc.value) == f"batch-1: its run failed: {error}"
        assert not (tmp_path / "merged").exists()

    def test_keep_results(self, tmp_path):
        outcomes = batch_run(
            tiny_config(), tmp_path, batches=2, epochs=1, keep_results=True
        )
        assert all(o.result is not None for o in outcomes)
        outcomes2 = batch_run(
            tiny_config(), tmp_path / "x", batches=2, epochs=1
        )
        assert all(o.result is None for o in outcomes2)

    def test_zero_batches_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            batch_run(tiny_config(), tmp_path, batches=0, epochs=1)


class TestSweepRun:
    def sweep_config(self):
        return parse_config(
            TINY
            + """
    network-parameters:
      pressure: 0.0
sweep:
  definitions.network-parameters.pressure: [0.1, 0.2, 0.3]
"""
        )

    def test_sweep_creates_labeled_variant_dirs(self, tmp_path):
        outcomes = sweep_run(self.sweep_config(), tmp_path, batches=2, epochs=1)
        assert len(outcomes) == 3
        names = sorted(d.name for d in tmp_path.iterdir() if d.is_dir())
        assert names == ["pressure=0.1", "pressure=0.2", "pressure=0.3"]
        for out in outcomes:
            assert len(out.batch_outcomes) == 2
            assert (out.parent_dir / "batch-0").is_dir()
            assert (out.parent_dir / "batch-1").is_dir()

    def test_sweep_index_recorded_per_variant(self, tmp_path):
        outcomes = sweep_run(self.sweep_config(), tmp_path, batches=1, epochs=1)
        for i, out in enumerate(outcomes):
            meta = json.loads((out.parent_dir / "batch-0" / RUN_META_FILE).read_text())
            assert meta["sweep_index"] == i

    def test_variant_configs_carry_swept_value(self, tmp_path):
        sweep_run(self.sweep_config(), tmp_path, batches=1, epochs=1)
        frozen = (tmp_path / "pressure=0.2" / "batch-0" / "config.yaml").read_text()
        assert "pressure: 0.2" in frozen

    def test_no_sweep_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            sweep_run(tiny_config(), tmp_path, batches=1, epochs=1)
        assert "sweep" in str(exc.value)

    @pytest.mark.parametrize("values,problem", [("[1, 1]", "repeats"), ('["b/c"]', "not a plain directory name")])
    def test_bad_sweep_labels_rejected_before_any_directory(self, tmp_path, values, problem):
        cfg = parse_config(TINY + f"""    network-parameters:
      x: 0
sweep:
  definitions.network-parameters.x: {values}
""")
        with pytest.raises(ConfigError, match=problem):
            sweep_run(cfg, tmp_path / "sim", batches=1, epochs=1)
        assert not (tmp_path / "sim").exists()

    def test_eleven_value_sweep_expands_fully(self, tmp_path):
        cfg = load_config(fixture_path("trust.yaml"))
        # shrink the network so the sweep itself is the thing under test
        doc = (
            "name: trust-sweep\n"
            "structure:\n  random:\n    type: barabasi-albert\n    count: 12\n    m: 2\n"
            + serialize_config_definitions(cfg)
        )
        small = parse_config(doc)
        outcomes = sweep_run(small, tmp_path, batches=2, epochs=1)
        assert len(outcomes) == 11
        run_dirs = list(tmp_path.glob("r_UT=*/batch-*"))
        assert len(run_dirs) == 22


class TestStatesApi:
    """The hook API contract of ``ctx.states``: a mutable node -> type mapping in ascending id."""

    @staticmethod
    def run_before(probe, agent=None):
        reg = HookRegistry()
        reg.add(PHASE_BEFORE, "probe", probe)
        if agent is not None:
            reg.add(PHASE_AGENT, "agent", agent)
        return simulate(tiny_config(), epochs=1, master_seed=3, registry=reg)

    def test_mapping_operations(self):
        def probe(ctx):
            states = ctx.states
            before = dict(states)
            assert list(before) == list(range(6))
            assert states == before and before == states
            assert states == dict(reversed(before.items()))
            assert states != {**before, 0: "Zombie"}
            states[0] = "B"
            assert states[0] == "B" and states.get(0) == "B"
            assert states.get(99) is None and states.get(-1, "x") == "x" and "a" not in states
            states.update({1: "A", 2: "B"})
            assert (states[1], states[2]) == ("A", "B")
            del states[3]
            assert 3 not in states and len(states) == 5
            with pytest.raises(KeyError):
                del states[3]
            expected = {**before, 0: "B", 1: "A", 2: "B"}
            del expected[3]
            assert dict(states) == dict(states.items()) == expected
            assert list(states.keys()) == sorted(expected) and list(states.values()) == list(expected.values())
            states.clear()
            assert len(states) == 0 and dict(states) == {}
            states.update(before)
            assert states == before

        self.run_before(probe)

    def test_values_may_be_reassigned_while_iterating(self):
        def probe(ctx):
            before = dict(ctx.states)
            flip = {"A": "B", "B": "A"}
            for node, state in ctx.states.items():
                ctx.states[node] = flip[state]
            for node in ctx.states.keys():
                ctx.states[node] = flip[ctx.states[node]]
            for node, state in zip(range(6), ctx.states.values()):
                ctx.states[node] = flip[state]
            assert ctx.states == {node: flip[state] for node, state in before.items()}

        self.run_before(probe)

    def test_frozen_states_are_read_only(self):
        def agent(ctx, node):
            assert ctx.frozen_states == ctx.states
            with pytest.raises(TypeError):
                ctx.frozen_states[node] = "A"

        self.run_before(lambda ctx: None, agent)

    @pytest.mark.parametrize(
        "write",
        [
            lambda s: s.__setitem__(0, "A"),
            lambda s: s.__delitem__(0),
            lambda s: s.clear(),
            lambda s: s.update({0: "A"}),
            lambda s: s.update(NodeStates.from_mapping({0: "A"}, 3, ("A", "B"))),
            lambda s: s.pop(0),
            lambda s: s.setdefault(2, "A"),
        ],
        ids=["setitem", "del", "clear", "update-dict", "update-states", "pop", "setdefault"],
    )
    def test_every_write_to_a_frozen_copy_raises_one_error(self, write):
        frozen = NodeStates.from_mapping({0: "B", 1: "A"}, 3, ("A", "B")).frozen()
        with pytest.raises(TypeError, match="^frozen node states are read-only$"):
            write(frozen)
        assert frozen == {0: "B", 1: "A"}

    @pytest.mark.parametrize(
        "node,type_name,message",
        [
            (0, "Zombie", "unknown node type 'Zombie' (declared: A, B)"),
            (6, "A", "node 6 out of range"),
            (-1, "A", "node -1 out of range"),
        ],
    )
    def test_bad_writes_raise_at_write_time(self, node, type_name, message):
        def probe(ctx):
            ctx.states[node] = type_name

        with pytest.raises(HookError) as exc:
            self.run_before(probe)
        assert str(exc.value) == f"hook probe (iteration 1): {message}"


_NODES = st.integers(-2, 7)
_TYPES = st.sampled_from(["A", "B", "C", "Zombie"])
_OPS = st.one_of(
    st.tuples(st.just("set"), _NODES, _TYPES),
    st.tuples(st.just("del"), _NODES),
    st.tuples(st.just("update"), st.dictionaries(st.integers(0, 5), st.sampled_from(["A", "B", "C"]), max_size=4)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(initial=st.dictionaries(st.integers(0, 5), st.sampled_from(["A", "B", "C"])), ops=st.lists(_OPS, max_size=12))
def test_node_states_behave_as_a_dict(initial, ops):
    states, reference = NodeStates.from_mapping(initial, 6, ("A", "B", "C")), dict(initial)
    for op, *args in ops:
        if op == "set":
            node, type_name = args
            if type_name == "Zombie" or not 0 <= node < 6:
                with pytest.raises(HookError):
                    states[node] = type_name
            else:
                states[node] = reference[node] = type_name
        elif op == "del":
            if args[0] in reference:
                del states[args[0]], reference[args[0]]
            else:
                with pytest.raises(KeyError):
                    del states[args[0]]
        elif op == "update":
            states.update(args[0])
            reference.update(args[0])
        else:
            states.clear()
            reference.clear()
        assert states == reference and len(states) == len(reference)
        assert list(states.items()) == sorted(reference.items())
        assert [states.get(v) for v in range(-2, 8)] == [reference.get(v) for v in range(-2, 8)]


def test_node_states_widen_past_127_types():
    types = [f"T{i}" for i in range(200)]
    states = NodeStates(types, 3)
    assert states.codes.dtype == np.int32
    states[2] = "T199"
    assert states == {2: "T199"} and states.counts()["T199"] == 1
    assert NodeStates(types[:127], 3).codes.dtype == np.int8


def serialize_config_definitions(cfg) -> str:
    """The definitions+sweep sections of a config as YAML text."""
    from crowdkit import serialize_config

    text = serialize_config(cfg)
    return text[text.index("definitions:"):]
