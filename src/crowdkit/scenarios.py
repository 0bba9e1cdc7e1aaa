"""Built-in scenarios: epidemic SIR, influence cascade, trust game, stay-home.

Each scenario is a hook set plus a shipped fixture config. The factory
functions return ``(HookRegistry, setup)`` pairs ready to pass to the engine;
``SCENARIOS`` maps CLI names to them.

Scenario notes:

* **sir** — pure config-driven diffusion (neighbor-triggered infection and a
  countdown recovery); the only hook is a percentage-infected collector.
* **infmax** — independent-cascade influence spread. Seeds come from the
  config (top-k by a centrality metric); setup annotates every directed edge
  pair with ``influence_prob`` = 1/degree(target). Activation uses a single
  uniform draw per eligible inactive node per iteration, compared against
  the largest spreader-edge probability (``per_edge=True`` switches to the
  classic one-draw-per-spreader-edge variant). A node spreads for exactly
  one iteration, then retires to plain Active.
* **trust** — an investor/trustee game with proportional imitation. Payoffs
  are recomputed after the imitation phase each iteration, so imitation at
  iteration t compares payoffs from t-1. Payoff model: an investor splits a
  unit investment equally among trustee neighbors and earns
  ``tv * ((R_T/2) * k_T/(k_T+k_U) - 1)``; a trustworthy trustee returns half
  its multiplier on received shares (``(R_T/2) * shares``); an untrustworthy
  one keeps ``R_U * shares`` with ``R_U = 2 * r_UT * R_T``. Strategy switch
  probability is the payoff gap normalized by the payoff range
  ``phi_max - phi_min`` (``phi_max = 2 * R_T * k_avg`` from the realized
  graph, ``phi_min = -tv``), clamped to 1 for hub payoffs that exceed the
  average-degree bound.
* **stayhome** — a location-decision demo: each agent chooses home or grid
  through a logistic response to yesterday's new-case fraction, and an
  ambient infection rule only reaches agents on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .engine import PHASE_AFTER, PHASE_AGENT, PHASE_BEFORE, PHASE_FINAL, HookRegistry, SimContext
from .errors import HookError

# ---------------------------------------------------------------------------
# SIR.
# ---------------------------------------------------------------------------

SIR_SUSCEPTIBLE = "Susceptible"
SIR_INFECTED = "Infected"
SIR_RECOVERED = "Recovered"


def sir_percentage_infected(ctx: SimContext) -> float:
    """Infected share of the population, in percent."""
    n = ctx.graph.num_nodes
    if n == 0:
        return 0.0
    return 100.0 * ctx.count(SIR_INFECTED) / n


def sir_registry() -> tuple[HookRegistry, None]:
    registry = HookRegistry()
    registry.add(PHASE_AFTER, "percentage_infected", sir_percentage_infected, record_initial=True)
    return registry, None


# ---------------------------------------------------------------------------
# Influence cascade (independent cascade with centrality-chosen seeds).
# ---------------------------------------------------------------------------

IC_SPREADER = "Active_Spreader"
IC_ACTIVE = "Active"
IC_INACTIVE = "Inactive"

INFLUENCE_PROB_KEY = "influence_prob"


def ic_initialize(ctx: SimContext) -> None:
    """Annotate every directed edge pair with influence_prob = 1/degree(target)."""
    n = ctx.graph.num_nodes
    # Row v lists every u with an edge pair (u, v): in-neighbors, or neighbors when undirected.
    indptr, indices = ctx.graph.in_csr()
    in_deg = np.diff(indptr)
    ids = list(range(n))  # one int object per node, shared by every key
    pairs = zip(map(ids.__getitem__, indices.tolist()), map(ids.__getitem__, np.repeat(ids, in_deg).tolist()))
    probs = np.repeat(1.0 / np.maximum(in_deg, 1), in_deg).tolist()
    ctx.attrs.set_edge_column(INFLUENCE_PROB_KEY, dict(zip(pairs, probs)))


def _ic_refresh_caches(ctx: SimContext) -> None:
    """(Re)build per-node incoming-influence lists; keyed to graph version."""
    sc = ctx.scratch
    graph = ctx.graph
    if sc.get("ic_graph_version") == graph.version:
        return
    probs = ctx.attrs.edge.get(INFLUENCE_PROB_KEY, {})
    indptr, indices = graph.in_csr()
    ids = list(range(graph.num_nodes))
    flat = list(map(ids.__getitem__, indices.tolist()))
    bounds = indptr.tolist()
    sc["ic_in_nbrs"] = in_nbrs = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    sc["ic_in_probs"] = [[probs.get((s, v), 0.0) for s in sources] for v, sources in enumerate(in_nbrs)]
    sc["ic_graph_version"] = graph.version


def ic_prepare(ctx: SimContext) -> None:
    """Cache the current spreader set (start-of-iteration view) for agent steps."""
    _ic_refresh_caches(ctx)
    ctx.scratch["ic_spreaders"] = set(ctx.states.mask(IC_SPREADER).nonzero()[0].tolist())


def ic_agent_step(ctx: SimContext, node: int) -> None:
    """One cascade step for one node, against the frozen iteration-start view.

    A node that started the iteration as a spreader retires to Active (its
    one spreading iteration is this frozen view). A node that started
    inactive and has spreader neighbors draws one uniform number and
    activates (as next iteration's spreader) iff some spreader-edge
    influence probability is >= the draw.
    """
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


def ic_agent_step_per_edge(ctx: SimContext, node: int) -> None:
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


def ic_total_active(ctx: SimContext) -> int:
    return ctx.count(IC_ACTIVE) + ctx.count(IC_SPREADER)


def ic_registry(per_edge: bool = False) -> tuple[HookRegistry, Callable]:
    registry = HookRegistry()
    registry.add(PHASE_BEFORE, "ic_prepare", ic_prepare)
    registry.add(PHASE_AGENT, "ic_step", ic_agent_step_per_edge if per_edge else ic_agent_step)
    registry.add(PHASE_AFTER, "total_active", ic_total_active, record_initial=True)
    return registry, ic_initialize


# ---------------------------------------------------------------------------
# Trust game.
# ---------------------------------------------------------------------------

TRUST_INVESTOR = "Investor"
TRUST_TRUSTWORTHY = "Trustworthy"
TRUST_UNTRUSTWORTHY = "Untrustworthy"

_TRUST_CODES = {TRUST_INVESTOR: 0, TRUST_TRUSTWORTHY: 1, TRUST_UNTRUSTWORTHY: 2}


def trust_setup(ctx: SimContext) -> None:
    """Cache topology, read parameters, and fix the payoff normalization range."""
    graph = ctx.graph
    n = graph.num_nodes
    sc = ctx.scratch
    sc["trust_csr"] = graph.to_sparse()
    sc["trust_adj"] = graph.adjacency_lists()
    params = ctx.net_params
    r_ut = float(params.get("r_UT", 0.5))
    r_t = float(params.get("R_T", 6.0))
    tv = float(params.get("tv", 1.0))
    r_u = 2.0 * r_ut * r_t
    k_avg = 2.0 * graph.num_edges / n if n else 0.0
    phi_max = 2.0 * r_t * k_avg
    phi_min = -tv
    if phi_max <= phi_min:
        raise HookError(f"degenerate payoff range [{phi_min}, {phi_max}]")
    params.setdefault("R_U", r_u)
    params.setdefault("phi_min", phi_min)
    params.setdefault("phi_max", phi_max)
    sc["trust_params"] = (r_t, r_u, tv)
    sc["trust_inv_phi_range"] = 1.0 / (phi_max - phi_min)


def compute_trust_payoffs(ctx: SimContext) -> np.ndarray:
    """Everyone's payoff from the current strategies (vectorized over CSR)."""
    sc = ctx.scratch
    adjacency = sc["trust_csr"]
    r_t, r_u, tv = sc["trust_params"]
    states = ctx.states
    n = ctx.graph.num_nodes
    # Trust codes by state code; the last entry (-1: no state) and undeclared roles read as -1.
    codes = np.array([*map(_TRUST_CODES.get, states.types, repeat(-1)), -1], dtype=np.int8)[states.codes]
    investors = codes == 0
    trustworthy = codes == 1
    untrustworthy = codes == 2
    k_t = adjacency @ trustworthy.astype(np.float64)
    k_u = adjacency @ untrustworthy.astype(np.float64)
    k_trustees = k_t + k_u
    has_trustees = k_trustees > 0.0
    payoff = np.zeros(n, dtype=np.float64)

    inv_active = investors & has_trustees
    if inv_active.any():
        frac = k_t[inv_active] / k_trustees[inv_active]
        payoff[inv_active] = tv * ((r_t / 2.0) * frac - 1.0)

    shares_out = np.zeros(n, dtype=np.float64)
    shares_out[inv_active] = tv / k_trustees[inv_active]
    shares_in = adjacency @ shares_out
    payoff[trustworthy] = (r_t / 2.0) * shares_in[trustworthy]
    payoff[untrustworthy] = r_u * shares_in[untrustworthy]
    return payoff


def trust_draws(ctx: SimContext) -> None:
    """Pre-draw this iteration's neighbor picks and switch uniforms (by node id)."""
    n = ctx.graph.num_nodes
    ctx.scratch["trust_pick_u"] = ctx.rng.random(n).tolist()
    ctx.scratch["trust_switch_u"] = ctx.rng.random(n).tolist()


def trust_imitate(ctx: SimContext, node: int) -> None:
    """Proportional imitation: copy a better-paid random neighbor's strategy.

    Uses payoffs computed at the end of the previous iteration; adopts the
    neighbor's live (possibly already-updated) strategy. Switch probability
    is the positive payoff gap times the inverse payoff range, clamped to 1.
    """
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


def trust_payoffs(ctx: SimContext) -> float:
    """Recompute payoffs after imitation; returns global net wealth."""
    sc = ctx.scratch
    new = compute_trust_payoffs(ctx)
    old = sc.get("trust_payoff_arr")
    if old is None:
        old = new
    sc["trust_payoff_arr"] = new
    sc["trust_payoff_list"] = new.tolist()
    ctx.attrs.set_node_column("previous_payoff", dict(enumerate(old.tolist())))
    ctx.attrs.set_node_column("current_payoff", dict(enumerate(new.tolist())))
    total = float(new.sum())
    sc["trust_global_payoff"] = total
    return total


def trust_summary(ctx: SimContext) -> dict:
    counts = ctx.counts()
    return {
        "r_UT": float(ctx.net_params.get("r_UT", 0.5)),
        "count_I": counts.get(TRUST_INVESTOR, 0),
        "count_T": counts.get(TRUST_TRUSTWORTHY, 0),
        "count_U": counts.get(TRUST_UNTRUSTWORTHY, 0),
        "final_global_payoff": ctx.scratch.get("trust_global_payoff", 0.0),
    }


def trust_registry() -> tuple[HookRegistry, Callable]:
    registry = HookRegistry()
    registry.add(PHASE_BEFORE, "trust_draws", trust_draws)
    registry.add(PHASE_AGENT, "trust_imitate", trust_imitate)
    registry.add(PHASE_AFTER, "global_payoff", trust_payoffs, record_initial=True)
    registry.add(PHASE_FINAL, "trust_outcome", trust_summary)
    return registry, trust_setup


# ---------------------------------------------------------------------------
# Stay-home location decisions.
# ---------------------------------------------------------------------------

LOCATION_KEY = "location"
LOCATION_HOME = "home"
LOCATION_GRID = "grid"


def stayhome_case_stats(ctx: SimContext) -> float:
    """New-case fraction since the previous iteration (drop in susceptibles)."""
    n = ctx.graph.num_nodes
    current = ctx.count(SIR_SUSCEPTIBLE)
    previous = ctx.scratch.get("stayhome_prev_susceptible")
    fraction = 0.0 if previous is None or n == 0 else (previous - current) / n
    ctx.scratch["stayhome_prev_susceptible"] = current
    ctx.scratch["stayhome_case_fraction"] = fraction
    return fraction


def stayhome_decider(ctx: SimContext, node: int) -> None:
    """Choose home or grid from a logistic response to the new-case fraction.

    With zero new cases the propensity falls back to the configured baseline
    (the logistic would otherwise leave a nonzero floor).
    """
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


def stayhome_home_count(ctx: SimContext) -> int:
    column = ctx.attrs.node.get(LOCATION_KEY, {})
    return sum(1 for value in column.values() if value == LOCATION_HOME)


def stayhome_registry() -> tuple[HookRegistry, None]:
    registry = HookRegistry()
    registry.add(PHASE_BEFORE, "new_case_fraction", stayhome_case_stats)
    registry.add(PHASE_AGENT, "stayhome_decider", stayhome_decider)
    registry.add(PHASE_AFTER, "home_count", stayhome_home_count)
    return registry, None


# ---------------------------------------------------------------------------
# Registry of scenarios and shipped fixtures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    fixture: str
    make_hooks: Callable[[], tuple[HookRegistry, Callable | None]]


SCENARIOS: dict[str, Scenario] = {
    "sir": Scenario(
        name="sir",
        description="Susceptible/Infected/Recovered epidemic on a random-regular graph",
        fixture="sir.yaml",
        make_hooks=sir_registry,
    ),
    "infmax": Scenario(
        name="infmax",
        description="Independent-cascade influence spread from top-centrality seeds",
        fixture="infmax.yaml",
        make_hooks=ic_registry,
    ),
    "trust": Scenario(
        name="trust",
        description="Investor/trustee game with proportional imitation",
        fixture="trust.yaml",
        make_hooks=trust_registry,
    ),
    "stayhome": Scenario(
        name="stayhome",
        description="Logistic stay-home decisions against an ambient infection",
        fixture="stayhome.yaml",
        make_hooks=stayhome_registry,
    ),
}


def fixture_path(filename: str) -> Path:
    """Absolute path of a shipped fixture config."""
    return Path(str(resources.files("crowdkit").joinpath("fixtures", filename)))
