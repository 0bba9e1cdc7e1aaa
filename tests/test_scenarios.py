"""Bundled scenario behaviors: epidemic stats, cascades, trust game, stay-home."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdkit
from crowdkit import (
    AttributeTable,
    Graph,
    HookError,
    SCENARIOS,
    SimContext,
    fixture_path,
    generate_barabasi_albert,
    load_config,
    parse_config,
    simulate,
    write_edge_list,
)
from crowdkit.engine import PHASE_AGENT, PHASE_BEFORE, shuffle_agents
from crowdkit.scenarios import (
    IC_ACTIVE,
    IC_INACTIVE,
    IC_SPREADER,
    INFLUENCE_PROB_KEY,
    LOCATION_GRID,
    LOCATION_HOME,
    LOCATION_KEY,
    SIR_SUSCEPTIBLE,
    TRUST_INVESTOR,
    TRUST_TRUSTWORTHY,
    TRUST_UNTRUSTWORTHY,
    compute_trust_payoffs,
    ic_initialize,
    ic_registry,
    sir_percentage_infected,
    sir_registry,
    stayhome_registry,
    stayhome_step,
    trust_draws,
    trust_payoffs,
    trust_registry,
    trust_setup,
)


def make_ctx(graph, states, node_types, net_params=None, seed=0, attrs=None):
    return SimContext(
        graph,
        dict(states),
        attrs or AttributeTable(),
        dict(net_params or {}),
        np.random.default_rng(seed),
        tuple(node_types),
    )


# ---------------------------------------------------------------------------
# Scalar references: the per-node agent hooks that the scenarios' array steps
# replace. ``drive`` runs hooks in the engine's phase order, so a reference
# pair (before hook + agent hook) and an array step must leave the same
# states, attributes and random stream.
# ---------------------------------------------------------------------------


def drive(ctx, iterations, before, agent=None, after=(), between=None):
    """Iterations 1..``iterations`` in engine order; returns each iteration's hook returns."""
    returns = []
    for it in range(1, iterations + 1):
        ctx.iteration = it
        if between is not None:
            between(ctx, it)
        values = [hook(ctx) for hook in before]
        if agent is not None:
            ctx.frozen_states = ctx.states.frozen()
            for node in shuffle_agents(ctx):
                agent(ctx, node)
        returns.append(values + [hook(ctx) for hook in after])
    return returns


def before_hooks(registry):
    assert not registry.hooks(PHASE_AGENT)
    return [hook.fn for hook in registry.hooks(PHASE_BEFORE)]


def ref_ic_prepare(ctx):
    """Per-node incoming-influence lists (rebuilt per graph version) and the spreader set."""
    sc = ctx.scratch
    graph = ctx.graph
    if sc.get("ic_graph_version") != graph.version:
        probs = ctx.attrs.edge.get(INFLUENCE_PROB_KEY, {})
        sc["ic_in_nbrs"] = in_nbrs = [sorted(graph.in_neighbors(v)) for v in graph.nodes()]
        sc["ic_in_probs"] = [[probs.get((s, v), 0.0) for s in sources] for v, sources in enumerate(in_nbrs)]
        sc["ic_graph_version"] = graph.version
    sc["ic_spreaders"] = {v for v, state in ctx.states.items() if state == IC_SPREADER}


def ref_ic_agent_step(ctx, node):
    """One draw per inactive node with spreader in-neighbors, against the largest probability."""
    status = ctx.frozen_states[node]
    if status == IC_SPREADER:
        ctx.states[node] = IC_ACTIVE
        return
    if status != IC_INACTIVE:
        return
    sc = ctx.scratch
    spreaders = sc["ic_spreaders"]
    sources = sc["ic_in_nbrs"][node]
    probs = sc["ic_in_probs"][node]
    best = -1.0
    for i, s in enumerate(sources):
        if s in spreaders:
            p = probs[i]
            if p > best:
                best = p
    if best >= 0.0 and best >= ctx.rng.random():
        ctx.states[node] = IC_SPREADER


def ref_ic_agent_step_per_edge(ctx, node):
    """Classic variant: one draw per spreader edge (ascending source id)."""
    status = ctx.frozen_states[node]
    if status == IC_SPREADER:
        ctx.states[node] = IC_ACTIVE
        return
    if status != IC_INACTIVE:
        return
    sc = ctx.scratch
    spreaders = sc["ic_spreaders"]
    sources = sc["ic_in_nbrs"][node]
    probs = sc["ic_in_probs"][node]
    activated = False
    rng = ctx.rng
    for i, s in enumerate(sources):
        if s in spreaders and probs[i] >= rng.random():
            activated = True
    if activated:
        ctx.states[node] = IC_SPREADER


def adjacency(g: Graph) -> list[list[int]]:
    """Sorted neighbor lists (out-neighbors when directed), read from ``out_csr()``."""
    indptr, indices = g.out_csr()
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def ref_trust_draws(ctx):
    """Pre-draw this iteration's neighbor picks and switch uniforms (by node id)."""
    sc = ctx.scratch
    n = ctx.graph.num_nodes
    if "trust_adj" not in sc:
        sc["trust_adj"] = adjacency(ctx.graph)
    sc["trust_payoff_list"] = sc["trust_payoff_arr"].tolist()
    sc["trust_pick_u"] = ctx.rng.random(n).tolist()
    sc["trust_switch_u"] = ctx.rng.random(n).tolist()


def ref_trust_imitate(ctx, node):
    """Copy a better-paid random neighbor's live strategy with the clamped gap-over-range probability."""
    sc = ctx.scratch
    neighbors = sc["trust_adj"][node]
    if not neighbors:
        return
    payoff = sc["trust_payoff_list"]
    picked = neighbors[int(sc["trust_pick_u"][node] * len(neighbors))]
    gap = payoff[picked] - payoff[node]
    if gap <= 0.0:
        return
    probability = gap * sc["trust_inv_phi_range"]
    if probability >= 1.0 or sc["trust_switch_u"][node] < probability:
        ctx.states[node] = ctx.states[picked]


def ref_stayhome_case_stats(ctx):
    """New-case fraction since the previous iteration (drop in susceptibles)."""
    n = ctx.graph.num_nodes
    current = ctx.count(SIR_SUSCEPTIBLE)
    previous = ctx.scratch.get("stayhome_prev_susceptible")
    fraction = 0.0 if previous is None or n == 0 else (previous - current) / n
    ctx.scratch["stayhome_prev_susceptible"] = current
    ctx.scratch["stayhome_case_fraction"] = fraction
    return fraction


def ref_stayhome_decider(ctx, node):
    """Home or grid from a logistic response to the new-case fraction (baseline at zero cases)."""
    column = ctx.attrs.node.get(LOCATION_KEY)
    if column is None or node not in column:
        raise HookError(f"node {node} has no {LOCATION_KEY!r} attribute", iteration=ctx.iteration)
    fraction = ctx.scratch.get("stayhome_case_fraction", 0.0)
    params = ctx.net_params
    if fraction <= 0.0:
        p_home = float(params.get("stay-home-baseline", 0.0))
    else:
        slope = float(params.get("stay-home-slope", 10.0))
        midpoint = float(params.get("stay-home-midpoint", 0.05))
        p_home = 1.0 / (1.0 + math.exp(-slope * (fraction - midpoint)))
    column[node] = LOCATION_HOME if ctx.rng.random() < p_home else LOCATION_GRID


def assert_same_run(array_ctx, ref_ctx):
    assert dict(array_ctx.states) == dict(ref_ctx.states)
    assert array_ctx.attrs == ref_ctx.attrs
    assert array_ctx.rng.bit_generator.state == ref_ctx.rng.bit_generator.state


# ---------------------------------------------------------------------------
# SIR scenario
# ---------------------------------------------------------------------------


class TestSir:
    def test_percentage_examples(self):
        g = Graph(100)
        states = {v: ("Infected" if v < 10 else "Susceptible") for v in range(100)}
        ctx = make_ctx(g, states, ("Susceptible", "Infected", "Recovered"))
        assert sir_percentage_infected(ctx) == 10.0
        ctx2 = make_ctx(g, {v: "Susceptible" for v in range(100)},
                        ("Susceptible", "Infected", "Recovered"))
        assert sir_percentage_infected(ctx2) == 0.0

    def test_percentage_tracks_counts_through_run(self):
        cfg = load_config(fixture_path("sir.yaml"))
        registry, setup = sir_registry()
        result = simulate(cfg, epochs=10, master_seed=3, registry=registry, setup=setup)
        pct = {e["iteration"]: e["value"] for e in result.records["percentage_infected"]}
        counts = {e["iteration"]: e["value"] for e in result.records["node_counts"]}
        assert set(pct) == set(range(11))
        for it, value in pct.items():
            assert 0.0 <= value <= 100.0
            assert value == pytest.approx(counts[it]["Infected"] * 100.0 / 100)


# ---------------------------------------------------------------------------
# Independent-cascade scenario
# ---------------------------------------------------------------------------


def run_cascade(graph, seeds, iterations, per_edge=False, force_prob=None, seed=0):
    """Drive the registered cascade step in the engine's phase order."""
    states = {v: IC_INACTIVE for v in range(graph.num_nodes)}
    for s in seeds:
        states[s] = IC_SPREADER
    ctx = make_ctx(graph, states, (IC_SPREADER, IC_ACTIVE, IC_INACTIVE), seed=seed)
    ic_initialize(ctx)
    if force_prob is not None:
        column = ctx.attrs.edge[INFLUENCE_PROB_KEY]
        ctx.attrs.set_edge_column(
            INFLUENCE_PROB_KEY, {pair: force_prob for pair in column}
        )
    history = [dict(ctx.states)]
    drive(ctx, iterations, before_hooks(ic_registry(per_edge)[0]), after=[lambda c: history.append(dict(c.states))])
    return ctx, history


def path_graph(n):
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def star_graph(n):
    g = Graph(n)
    for leaf in range(1, n):
        g.add_edge(0, leaf)
    return g


class TestCascadeInit:
    def test_undirected_prob_is_reciprocal_target_degree(self):
        g = star_graph(5)  # center degree 4, leaves degree 1
        ctx = make_ctx(g, {v: IC_INACTIVE for v in range(5)},
                       (IC_SPREADER, IC_ACTIVE, IC_INACTIVE))
        ic_initialize(ctx)
        for leaf in range(1, 5):
            assert ctx.attrs.get_edge(leaf, 0, INFLUENCE_PROB_KEY) == 0.25
            assert ctx.attrs.get_edge(0, leaf, INFLUENCE_PROB_KEY) == 1.0

    def test_directed_prob_uses_in_degree(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        ctx = make_ctx(g, {v: IC_INACTIVE for v in range(3)},
                       (IC_SPREADER, IC_ACTIVE, IC_INACTIVE))
        ic_initialize(ctx)
        assert ctx.attrs.get_edge(0, 1, INFLUENCE_PROB_KEY) == 0.5
        assert ctx.attrs.get_edge(2, 1, INFLUENCE_PROB_KEY) == 0.5


class TestCascadeDynamics:
    def test_path_fully_activates_in_length_iterations(self):
        g = path_graph(4)
        ctx, history = run_cascade(g, seeds=[0], iterations=3, force_prob=1.0)
        active = [s for s in ctx.states.values() if s != IC_INACTIVE]
        assert len(active) == 4
        # one hop per iteration along the chain
        for t, expected_reach in [(1, 2), (2, 3), (3, 4)]:
            reached = sum(1 for s in history[t].values() if s != IC_INACTIVE)
            assert reached == expected_reach

    def test_unreachable_nodes_stay_inactive(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)  # disconnected pair
        ctx, _ = run_cascade(g, seeds=[0], iterations=10, force_prob=1.0)
        assert ctx.states[2] == IC_INACTIVE
        assert ctx.states[3] == IC_INACTIVE

    def test_spreader_retires_after_exactly_one_iteration(self):
        g = generate_barabasi_albert(30, 2, np.random.default_rng(1))
        _, history = run_cascade(g, seeds=[0, 5], iterations=8, seed=2)
        for t in range(len(history) - 1):
            for v, s in history[t].items():
                if s == IC_SPREADER:
                    assert history[t + 1][v] == IC_ACTIVE

    def test_active_set_monotone_and_permanent(self):
        g = generate_barabasi_albert(30, 2, np.random.default_rng(3))
        _, history = run_cascade(g, seeds=[0], iterations=10, seed=4)
        for t in range(len(history) - 1):
            for v, s in history[t].items():
                if s != IC_INACTIVE:
                    assert history[t + 1][v] != IC_INACTIVE
                if s == IC_ACTIVE:
                    assert history[t + 1][v] == IC_ACTIVE

    def test_single_draw_consumes_one_uniform(self):
        # Inactive center with two spreader leaves: exactly one RNG draw.
        g = star_graph(4)
        states = {0: IC_INACTIVE, 1: IC_SPREADER, 2: IC_SPREADER, 3: IC_INACTIVE}
        ctx = make_ctx(g, states, (IC_SPREADER, IC_ACTIVE, IC_INACTIVE), seed=123)
        ic_initialize(ctx)
        ctx.iteration = 1
        ref_ic_prepare(ctx)
        ctx.frozen_states = dict(ctx.states)
        for node in [0, 1, 2, 3]:
            ref_ic_agent_step(ctx, node)
        twin = np.random.default_rng(123)
        twin.random()  # the center's single draw
        assert ctx.rng.random() == twin.random()

    def test_per_edge_consumes_one_uniform_per_spreader_edge(self):
        g = star_graph(4)
        for seed in range(20):
            states = {0: IC_INACTIVE, 1: IC_SPREADER, 2: IC_SPREADER, 3: IC_INACTIVE}
            ctx = make_ctx(g, states, (IC_SPREADER, IC_ACTIVE, IC_INACTIVE), seed=seed)
            ic_initialize(ctx)
            ctx.iteration = 1
            ref_ic_prepare(ctx)
            ctx.frozen_states = dict(ctx.states)
            for node in [0, 1, 2, 3]:
                ref_ic_agent_step_per_edge(ctx, node)
            twin = np.random.default_rng(seed)
            draws = twin.random(2)  # one per spreader edge, ascending source
            assert ctx.rng.random() == twin.random()
            # activation iff any edge's probability (1/3) beat its own draw
            expected = any(1.0 / 3.0 >= u for u in draws)
            assert (ctx.states[0] == IC_SPREADER) == expected

    def test_integration_total_active_starts_at_seed_count(self):
        doc = """
name: cascade-demo
structure:
  random:
    type: random-regular
    count: 8
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Active_Spreader:
        random-with-count:
          count: 2
      Active:
        random-with-count:
          count: 0
      Inactive:
        random-with-count:
          count: 6
"""
        registry, setup = ic_registry()
        result = simulate(parse_config(doc), epochs=6, master_seed=5,
                          registry=registry, setup=setup)
        series = result.records["total_active"]
        assert series[0] == {"iteration": 0, "value": 2}
        values = [e["value"] for e in series]
        assert values == sorted(values)
        assert all(0 <= v <= 8 for v in values)

    def test_no_spreaders_means_frozen_population(self):
        g = path_graph(5)
        ctx, history = run_cascade(g, seeds=[], iterations=5, force_prob=1.0)
        assert all(s == IC_INACTIVE for s in ctx.states.values())


# ---------------------------------------------------------------------------
# Trust game scenario
# ---------------------------------------------------------------------------


TRUST_TYPES = (TRUST_INVESTOR, TRUST_TRUSTWORTHY, TRUST_UNTRUSTWORTHY)


def trust_ctx(graph, states, net_params, seed=0):
    ctx = make_ctx(graph, states, TRUST_TYPES, net_params=net_params, seed=seed)
    trust_setup(ctx)
    return ctx


class TestTrustPayoffs:
    def test_investor_with_split_trustees(self):
        # Investor sees 2 trustworthy + 2 untrustworthy: payoff
        # tv * ((R_T/2) * k_T/(k_T+k_U) - 1) = 1 * (3 * 0.5 - 1) = 0.5
        g = star_graph(5)
        states = {0: TRUST_INVESTOR, 1: TRUST_TRUSTWORTHY, 2: TRUST_TRUSTWORTHY,
                  3: TRUST_UNTRUSTWORTHY, 4: TRUST_UNTRUSTWORTHY}
        ctx = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        payoffs = compute_trust_payoffs(ctx)
        assert payoffs[0] == pytest.approx(0.5)

    def test_trustworthy_center_collects_shares(self):
        # Three investors each split tv=1 across a single trustee: center
        # collects (R_T/2) * 3 = 9; each investor nets 3*1 - 1 = 2.
        g = star_graph(4)
        states = {0: TRUST_TRUSTWORTHY, 1: TRUST_INVESTOR, 2: TRUST_INVESTOR,
                  3: TRUST_INVESTOR}
        ctx = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        payoffs = compute_trust_payoffs(ctx)
        assert payoffs[0] == pytest.approx(9.0)
        for leaf in (1, 2, 3):
            assert payoffs[leaf] == pytest.approx(2.0)

    def test_zero_untrustworthy_return_ratio_zeroes_u_payoffs(self):
        g = star_graph(4)
        states = {0: TRUST_INVESTOR, 1: TRUST_UNTRUSTWORTHY, 2: TRUST_UNTRUSTWORTHY,
                  3: TRUST_TRUSTWORTHY}
        ctx = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 0.0, "tv": 1.0})
        payoffs = compute_trust_payoffs(ctx)
        assert payoffs[1] == 0.0
        assert payoffs[2] == 0.0
        assert payoffs[3] > 0.0

    def test_untrustworthy_scaling_with_ratio(self):
        g = star_graph(2)
        states = {0: TRUST_INVESTOR, 1: TRUST_UNTRUSTWORTHY}
        base = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        doubled = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 1.0, "tv": 1.0})
        # R_U = 2 * r_UT * R_T, so U payoff scales linearly in r_UT
        assert compute_trust_payoffs(doubled)[1] == pytest.approx(
            2 * compute_trust_payoffs(base)[1]
        )

    def test_isolated_roles_earn_nothing(self):
        g = Graph(3)
        g.add_edge(1, 2)  # node 0 isolated; 1-2 both trustees
        states = {0: TRUST_INVESTOR, 1: TRUST_TRUSTWORTHY, 2: TRUST_UNTRUSTWORTHY}
        ctx = trust_ctx(g, states, {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        payoffs = compute_trust_payoffs(ctx)
        assert payoffs[0] == 0.0  # investor with no trustees
        assert payoffs[1] == 0.0  # trustee with no investors
        assert payoffs[2] == 0.0

    def test_derived_params_published(self):
        g = star_graph(3)
        ctx = trust_ctx(g, {0: TRUST_INVESTOR, 1: TRUST_TRUSTWORTHY, 2: TRUST_UNTRUSTWORTHY},
                        {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        assert ctx.net_params["R_U"] == pytest.approx(6.0)
        assert ctx.net_params["phi_min"] == -1.0
        # k_avg = 2E/n = 4/3 -> phi_max = 2 * 6 * 4/3 = 16
        assert ctx.net_params["phi_max"] == pytest.approx(16.0)


class TestTrustImitation:
    def two_node_ctx(self, payoffs, pick_u, switch_u):
        g = Graph(2)
        g.add_edge(0, 1)
        ctx = trust_ctx(g, {0: TRUST_INVESTOR, 1: TRUST_TRUSTWORTHY},
                        {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        ctx.scratch["trust_adj"] = adjacency(g)
        ctx.scratch["trust_payoff_list"] = payoffs
        ctx.scratch["trust_pick_u"] = pick_u
        ctx.scratch["trust_switch_u"] = switch_u
        return ctx

    def test_switch_probability_is_gap_over_range(self):
        # 2-node graph: k_avg = 1, phi_max = 12, phi_min = -1, range 13.
        # A gap of 1 switches iff the uniform draw is below 1/13.
        just_below = 1.0 / 13.0 - 1e-9
        just_above = 1.0 / 13.0 + 1e-9
        ctx = self.two_node_ctx([0.0, 1.0], [0.0, 0.0], [just_below, 1.0])
        ref_trust_imitate(ctx, 0)
        assert ctx.states[0] == TRUST_TRUSTWORTHY
        ctx2 = self.two_node_ctx([0.0, 1.0], [0.0, 0.0], [just_above, 1.0])
        ref_trust_imitate(ctx2, 0)
        assert ctx2.states[0] == TRUST_INVESTOR

    def test_no_switch_on_nonpositive_gap(self):
        ctx = self.two_node_ctx([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        ref_trust_imitate(ctx, 0)
        assert ctx.states[0] == TRUST_INVESTOR
        ctx2 = self.two_node_ctx([2.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        ref_trust_imitate(ctx2, 0)
        assert ctx2.states[0] == TRUST_INVESTOR

    def test_huge_gap_clamps_to_certainty(self):
        ctx = self.two_node_ctx([0.0, 1000.0], [0.0, 0.0], [0.999999, 1.0])
        ref_trust_imitate(ctx, 0)
        assert ctx.states[0] == TRUST_TRUSTWORTHY

    def test_isolated_node_never_imitates(self):
        g = Graph(2)  # no edges
        ctx = make_ctx(g, {0: TRUST_INVESTOR, 1: TRUST_TRUSTWORTHY}, TRUST_TYPES,
                       net_params={"R_T": 6.0, "r_UT": 0.5, "tv": 1.0})
        ctx.scratch["trust_adj"] = [[], []]
        ctx.scratch["trust_payoff_list"] = [0.0, 5.0]
        ctx.scratch["trust_pick_u"] = [0.0, 0.0]
        ctx.scratch["trust_switch_u"] = [0.0, 0.0]
        ctx.scratch["trust_inv_phi_range"] = 1.0 / 13.0
        ref_trust_imitate(ctx, 0)
        assert ctx.states[0] == TRUST_INVESTOR


def small_trust_config(r_ut: float, count: int = 64) -> str:
    return f"""
name: trust-small
structure:
  random:
    type: barabasi-albert
    count: {count}
    m: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Investor:
        random-with-weight:
          initial-weight: 0.34
      Trustworthy:
        random-with-weight:
          initial-weight: 0.33
      Untrustworthy:
        random-with-weight:
          initial-weight: 0.33
    network-parameters:
      R_T: 6.0
      r_UT: {r_ut}
      tv: 1.0
"""


class TestTrustIntegration:
    def test_counts_sum_to_population_every_iteration(self):
        cfg = parse_config(small_trust_config(0.5))
        registry, setup = trust_registry()
        result = simulate(cfg, epochs=50, master_seed=1, registry=registry, setup=setup)
        for entry in result.records["node_counts"]:
            assert sum(entry["value"].values()) == 64
            assert set(entry["value"]) == set(TRUST_TYPES)

    def test_summary_echoes_parameters_and_counts(self):
        cfg = parse_config(small_trust_config(0.7))
        registry, setup = trust_registry()
        result = simulate(cfg, epochs=30, master_seed=2, registry=registry, setup=setup)
        outcome = result.summary["trust_outcome"]
        assert outcome["r_UT"] == pytest.approx(0.7)
        assert outcome["count_I"] + outcome["count_T"] + outcome["count_U"] == 64
        assert set(outcome) == {"r_UT", "count_I", "count_T", "count_U",
                                "final_global_payoff"}

    def test_final_global_payoff_matches_independent_sum(self):
        cfg = parse_config(small_trust_config(0.5))
        registry, setup = trust_registry()
        result = simulate(cfg, epochs=40, master_seed=3, registry=registry, setup=setup)
        recomputed = float(compute_trust_payoffs(result.context).sum())
        assert result.summary["trust_outcome"]["final_global_payoff"] == pytest.approx(
            recomputed, abs=1e-9
        )
        recorded = result.records["global_payoff"][-1]["value"]
        assert recorded == pytest.approx(recomputed, abs=1e-9)

    def test_high_freeride_return_crowds_out_investors(self):
        # When betraying pays well, defection dominates: averaged over many
        # runs the surviving untrustworthy population exceeds investors.
        totals = {"count_I": 0.0, "count_U": 0.0}
        cfg = parse_config(small_trust_config(0.9))
        for batch in range(20):
            registry, setup = trust_registry()
            result = simulate(cfg, epochs=200, master_seed=7, batch_index=batch,
                              registry=registry, setup=setup, record_node_counts=False)
            outcome = result.summary["trust_outcome"]
            totals["count_I"] += outcome["count_I"]
            totals["count_U"] += outcome["count_U"]
        assert totals["count_U"] > totals["count_I"]


# ---------------------------------------------------------------------------
# Stay-home scenario
# ---------------------------------------------------------------------------


class TestStayHome:
    def test_steep_response_sends_almost_everyone_home(self):
        n = 2000
        g = Graph(n)
        attrs = AttributeTable()
        attrs.set_node_column("location", {v: "grid" for v in range(n)})
        ctx = make_ctx(g, {v: "Infected" for v in range(n)},
                       ("Susceptible", "Infected", "Recovered"),
                       net_params={"stay-home-slope": 10.0, "stay-home-midpoint": 0.05},
                       attrs=attrs, seed=5)
        ctx.scratch["stayhome_prev_susceptible"] = n  # every node fell ill: new-case fraction 1
        assert stayhome_step(ctx) == 1.0
        home = sum(1 for v in range(n) if ctx.attrs.get_node(v, "location") == "home")
        # logistic(10 * 0.95) is about 0.99993
        assert home >= 0.99 * n

    def test_zero_cases_with_zero_baseline_keeps_everyone_out(self):
        cfg_text = fixture_path("stayhome.yaml").read_text()
        calm = cfg_text.replace("probability: 0.1", "probability: 0.0")
        calm = calm.replace("initial-weight: 0.95", "initial-weight: 1.0")
        calm = calm.replace("initial-weight: 0.05", "initial-weight: 0.0")
        registry, setup = stayhome_registry()
        result = simulate(parse_config(calm), epochs=5, master_seed=6,
                          registry=registry, setup=setup)
        for entry in result.records["home_count"]:
            assert entry["value"] == 0
        locations = {result.context.attrs.get_node(v, "location")
                     for v in range(result.context.graph.num_nodes)}
        assert locations == {"grid"}

    def test_locations_stay_in_closed_set(self):
        cfg = load_config(fixture_path("stayhome.yaml"))
        registry, setup = stayhome_registry()
        result = simulate(cfg, epochs=20, master_seed=7, registry=registry, setup=setup)
        ctx = result.context
        values = {ctx.attrs.get_node(v, "location") for v in range(ctx.graph.num_nodes)}
        assert values <= {"home", "grid"}

    def test_case_fraction_recorded(self):
        cfg = load_config(fixture_path("stayhome.yaml"))
        registry, setup = stayhome_registry()
        result = simulate(cfg, epochs=15, master_seed=8, registry=registry, setup=setup)
        fractions = [e["value"] for e in result.records["new_case_fraction"]]
        assert len(fractions) == 15
        assert all(-1.0 <= f <= 1.0 for f in fractions)
        assert any(f > 0 for f in fractions)  # the ambient infection does spread

    def test_missing_location_attribute_is_hook_error(self):
        doc = """
name: no-location
structure:
  random:
    type: random-regular
    count: 4
    degree: 2
definitions:
  pd-model:
    name: custom
    nodetypes:
      Susceptible:
        random-with-weight:
          initial-weight: 1.0
"""
        registry, setup = stayhome_registry()
        with pytest.raises(HookError) as exc:
            simulate(parse_config(doc), epochs=1, master_seed=9,
                     registry=registry, setup=setup)
        assert "location" in str(exc.value)


# ---------------------------------------------------------------------------
# Array steps against the scalar references
# ---------------------------------------------------------------------------

IC_TYPES = (IC_SPREADER, IC_ACTIVE, IC_INACTIVE, "Bystander")
SIR_TYPES = ("Susceptible", "Infected", "Recovered")
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def graphs(draw, max_nodes=10):
    """A random simple graph, directed or not; sparse edge lists leave nodes isolated."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    pairs = [(u, v) for u, v in pairs if u != v]
    graph, _ = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs], directed=draw(st.booleans()))
    return graph


def twin_runs(make, iterations, array_hooks, ref_hooks, between=None):
    """Run the array step and its reference on twin contexts; returns both contexts and returns."""
    array_ctx, ref_ctx = make(), make()
    array_returns = drive(array_ctx, iterations, between=between, **array_hooks)
    ref_returns = drive(ref_ctx, iterations, between=between, **ref_hooks)
    return array_ctx, ref_ctx, array_returns, ref_returns


@settings(max_examples=150, deadline=None)
@given(graph=graphs(), per_edge=st.booleans(), seed=SEEDS, data=st.data())
def test_ic_step_matches_scalar_reference(graph, per_edge, seed, data):
    n = graph.num_nodes
    states = data.draw(st.lists(st.sampled_from(IC_TYPES), min_size=n, max_size=n))
    # One optional edit per edge pair; NaN and negative values pin down which edges count.
    pairs = (1 if graph.directed else 2) * graph.num_edges
    edit = st.none() | st.floats(-0.5, 1.0) | st.just(float("nan"))
    edited = data.draw(st.lists(edit, min_size=pairs, max_size=pairs))
    endpoints = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    added = data.draw(st.lists(endpoints, max_size=3))
    removed = data.draw(st.lists(st.sampled_from(list(graph.edges())), max_size=3)) if graph.num_edges else []

    def make():
        ctx = make_ctx(graph.copy(), enumerate(states), IC_TYPES, seed=seed)
        ic_initialize(ctx)
        column = ctx.attrs.edge[INFLUENCE_PROB_KEY]
        edits = {pair: p for pair, p in zip(sorted(column), edited) if p is not None}
        ctx.attrs.set_edge_column(INFLUENCE_PROB_KEY, {**column, **edits})
        return ctx

    def rewire(ctx, it):  # a new graph version mid-run: the step's probability cache must follow
        if it == 2:
            ctx.mutate_edges(add=added, remove=removed)

    ref_step = ref_ic_agent_step_per_edge if per_edge else ref_ic_agent_step
    array_ctx, ref_ctx, array_returns, ref_returns = twin_runs(
        make, 5, {"before": before_hooks(ic_registry(per_edge)[0])},
        {"before": [ref_ic_prepare], "agent": ref_step}, between=rewire,
    )
    assert array_returns == ref_returns
    assert_same_run(array_ctx, ref_ctx)


@pytest.mark.parametrize("per_edge", [False, True])
def test_ic_step_follows_an_edge_mutation(per_edge):
    # 0 activates 1 at iteration 1; then an edge 1-2 with probability 1 appears, so 2 must
    # activate at iteration 2 through the new in-CSR entry, not a stale cached one.
    def make():
        graph = Graph(3)
        graph.add_edge(0, 1)
        ctx = make_ctx(graph, {0: IC_SPREADER, 1: IC_INACTIVE, 2: IC_INACTIVE}, IC_TYPES)
        ic_initialize(ctx)
        return ctx

    def rewire(ctx, it):
        if it == 2:
            ctx.mutate_edges(add=[(1, 2)])
            ctx.attrs.set_edge(1, 2, INFLUENCE_PROB_KEY, 1.0)

    ref_step = ref_ic_agent_step_per_edge if per_edge else ref_ic_agent_step
    array_ctx, ref_ctx, _, _ = twin_runs(
        make, 3, {"before": before_hooks(ic_registry(per_edge)[0])},
        {"before": [ref_ic_prepare], "agent": ref_step}, between=rewire,
    )
    assert_same_run(array_ctx, ref_ctx)
    assert dict(array_ctx.states) == {0: IC_ACTIVE, 1: IC_ACTIVE, 2: IC_ACTIVE}


@pytest.mark.parametrize("per_edge", [False, True])
def test_ic_step_reads_a_probability_edit_on_the_next_step(per_edge):
    # 2 activates 0 at iteration 1; setting influence_prob of (0, 1) to 0 before iteration 2
    # must keep 1 inactive when 0 spreads.
    graph = Graph(3, directed=True)
    graph.add_edge(2, 0)
    graph.add_edge(0, 1)
    ctx = make_ctx(graph, {0: IC_INACTIVE, 1: IC_INACTIVE, 2: IC_SPREADER}, IC_TYPES)
    ic_initialize(ctx)

    def edit(ctx, it):
        if it == 2:
            ctx.attrs.set_edge(0, 1, INFLUENCE_PROB_KEY, 0.0)

    drive(ctx, 2, before_hooks(ic_registry(per_edge)[0]), between=edit)
    assert dict(ctx.states) == {0: IC_ACTIVE, 1: IC_INACTIVE, 2: IC_ACTIVE}


TRUST_PARAMS = st.fixed_dictionaries(
    {"R_T": st.floats(0.5, 10.0), "r_UT": st.floats(0.0, 1.0), "tv": st.floats(0.1, 2.0)}
)


def trust_twin_runs(graph, states, params, seed, iterations, payoffs=None, inv_range=None):
    def make():
        ctx = trust_ctx(graph.copy(), enumerate(states), params, seed=seed)
        trust_payoffs(ctx)  # the iteration-0 baseline
        if payoffs is not None:
            ctx.scratch["trust_payoff_arr"] = np.array(payoffs, dtype=np.float64)
        if inv_range is not None:
            ctx.scratch["trust_inv_phi_range"] = inv_range
        return ctx

    return twin_runs(
        make, iterations, {"before": [trust_draws], "after": [trust_payoffs]},
        {"before": [ref_trust_draws], "agent": ref_trust_imitate, "after": [trust_payoffs]},
    )


@settings(max_examples=150, deadline=None)
@given(graph=graphs(), params=TRUST_PARAMS, seed=SEEDS, data=st.data())
def test_trust_step_matches_scalar_reference(graph, params, seed, data):
    n = graph.num_nodes
    states = data.draw(st.lists(st.sampled_from(TRUST_TYPES), min_size=n, max_size=n))
    # Optional first-iteration payoffs and a huge inverse range: most positive gaps switch, so
    # switchers copy switchers and the visit order decides what they copy.
    payoffs = data.draw(st.none() | st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    inv_range = data.draw(st.none() | st.just(1e6))
    array_ctx, ref_ctx, array_returns, ref_returns = trust_twin_runs(
        graph, states, params, seed, 4, payoffs, inv_range
    )
    assert array_returns == ref_returns
    assert_same_run(array_ctx, ref_ctx)


def test_trust_switch_chains_follow_visit_order():
    # Path 0-1-2 with payoffs 0 < 1 < 2 and any positive gap switching: node 0 always copies
    # node 1, and node 1 copies node 2 when it picks it. Node 0 then ends Untrustworthy iff
    # node 1 was visited first, so both outcomes show over the seeds.
    seen = set()
    for seed in range(40):
        array_ctx, ref_ctx, _, _ = trust_twin_runs(
            path_graph(3), TRUST_TYPES, {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0}, seed, 1,
            payoffs=[0.0, 1.0, 2.0], inv_range=1e6,
        )
        assert_same_run(array_ctx, ref_ctx)
        if array_ctx.states[1] == TRUST_UNTRUSTWORTHY:
            seen.add(array_ctx.states[0])
    assert seen == {TRUST_TRUSTWORTHY, TRUST_UNTRUSTWORTHY}


TRUST_DEFAULTS = {"R_T": 6.0, "r_UT": 0.5, "tv": 1.0}


def test_trust_payoffs_follow_edge_mutations():
    g = generate_barabasi_albert(30, 2, np.random.default_rng(3))
    states = [TRUST_TYPES[v % 3] for v in range(30)]
    ctx = trust_ctx(g, enumerate(states), TRUST_DEFAULTS)
    before = compute_trust_payoffs(ctx)
    added = [(0, v) for v in (5, 7, 11, 13, 17) if not g.has_edge(0, v)]
    ctx.mutate_edges(add=added, remove=list(g.edges())[:6])
    fresh = trust_ctx(ctx.graph.copy(), enumerate(states), TRUST_DEFAULTS)
    after = compute_trust_payoffs(ctx)
    assert after.tobytes() == compute_trust_payoffs(fresh).tobytes()
    assert after.tobytes() != before.tobytes()


def test_trust_draws_never_pick_a_removed_neighbor():
    # Edges 0-1 and 0-2, then 0-1 is removed and 0-3 added. Node 0 would switch to node 1's
    # Untrustworthy on picking it, and switches to node 3's Trustworthy on picking that.
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    seen = set()
    for seed in range(40):
        states = [TRUST_INVESTOR, TRUST_UNTRUSTWORTHY, TRUST_INVESTOR, TRUST_TRUSTWORTHY]
        ctx = trust_ctx(g.copy(), enumerate(states), TRUST_DEFAULTS, seed=seed)
        ctx.mutate_edges(add=[(0, 3)], remove=[(0, 1)])
        ctx.scratch["trust_payoff_arr"] = np.array([0.0, 100.0, 0.0, 50.0])
        ctx.scratch["trust_inv_phi_range"] = 1e6
        trust_draws(ctx)
        assert [ctx.states[v] for v in (1, 2, 3)] == states[1:]
        seen.add(ctx.states[0])
    assert seen == {TRUST_INVESTOR, TRUST_TRUSTWORTHY}


SCIPY_FREE_RUN = """
import sys
from pathlib import Path

import crowdkit
from crowdkit import SCENARIOS, load_config, parse_config, simulate

base = Path(sys.argv[1])
for scenario, config in (("infmax", parse_config((base / "infmax.yaml").read_text())),
                         ("trust", load_config(crowdkit.fixture_path("trust.yaml")))):
    registry, setup = SCENARIOS[scenario].make_hooks()
    simulate(config, epochs=3, registry=registry, setup=setup, base_dir=base)
# scipy, what xml.sax.saxutils would pull in, and the XML parser GEXF reading needs load only on the paths
# that need them.
absent = ("xml.sax.saxutils", "urllib.request", "http.client", "xml.etree.ElementTree", "pyexpat")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy" or name in absent))
"""


def test_infmax_seeding_and_trust_run_without_scipy(tmp_path):
    write_edge_list(generate_barabasi_albert(60, 2, np.random.default_rng(4)), tmp_path / "net.txt")
    (tmp_path / "infmax.yaml").write_text(
        fixture_path("infmax.yaml").read_text()
        .replace("facebook_combined.txt", "net.txt").replace("count: 100", "count: 5")
        .replace("count: 3939", "count: 55")
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crowdkit.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 12), seed=SEEDS, data=st.data())
def test_stayhome_step_matches_scalar_reference(n, seed, data):
    states = data.draw(st.lists(st.sampled_from(SIR_TYPES), min_size=n, max_size=n))
    locations = data.draw(st.lists(st.sampled_from([LOCATION_HOME, LOCATION_GRID]), min_size=n, max_size=n))
    unplaced = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)) if n else set()
    falls_ill = data.draw(st.lists(st.lists(st.integers(0, max(n - 1, 0)), max_size=n), min_size=3, max_size=3))
    params = data.draw(st.fixed_dictionaries({
        "stay-home-slope": st.floats(0.0, 50.0),
        "stay-home-midpoint": st.floats(0.0, 1.0),
        "stay-home-baseline": st.floats(0.0, 1.0),
    }))

    def make():
        attrs = AttributeTable()
        attrs.set_node_column(LOCATION_KEY, {v: loc for v, loc in enumerate(locations) if v not in unplaced})
        return make_ctx(Graph(n), enumerate(states), SIR_TYPES, net_params=params, seed=seed, attrs=attrs)

    def infect(ctx, it):
        ctx.states.update(dict.fromkeys(falls_ill[it - 1], "Infected") if n else {})

    array_hooks = {"before": [stayhome_step]}
    ref_hooks = {"before": [ref_stayhome_case_stats], "agent": ref_stayhome_decider}
    if unplaced:  # both name the first unplaced node in visit order
        with pytest.raises(HookError) as array_error:
            drive(make(), 3, between=infect, **array_hooks)
        with pytest.raises(HookError) as ref_error:
            drive(make(), 3, between=infect, **ref_hooks)
        assert str(array_error.value) == str(ref_error.value)
        return
    array_ctx, ref_ctx, array_returns, ref_returns = twin_runs(make, 3, array_hooks, ref_hooks, between=infect)
    assert array_returns == ref_returns
    assert_same_run(array_ctx, ref_ctx)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------


class TestScenarioRegistry:
    def test_all_scenarios_have_fixtures(self):
        assert set(SCENARIOS) == {"sir", "infmax", "trust", "stayhome"}
        for scenario in SCENARIOS.values():
            assert fixture_path(scenario.fixture).is_file()

    def test_hook_factories_produce_fresh_registries(self):
        for scenario in SCENARIOS.values():
            reg1, _ = scenario.make_hooks()
            reg2, _ = scenario.make_hooks()
            assert reg1 is not reg2

    def test_no_scenario_registers_an_agent_hook(self):
        for scenario in SCENARIOS.values():
            assert not scenario.make_hooks()[0].hooks(PHASE_AGENT)
        assert not ic_registry(per_edge=True)[0].hooks(PHASE_AGENT)
