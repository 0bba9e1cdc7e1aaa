"""Built-in scenarios: epidemic SIR, influence cascade, trust game, stay-home.

Each scenario is a hook set plus a shipped fixture config. The factory
functions return ``(HookRegistry, setup)`` pairs ready to pass to the engine;
``SCENARIOS`` maps CLI names to them.

No built-in scenario registers an agent hook. Each case study's step is one
array computation over the whole population inside its before-iteration
hook, which draws the visit permutation ``ctx.rng.permutation(n)`` itself at
the point where the engine's agent phase would, and then makes its per-node
draws with one ``rng.random(k)`` (the same doubles as k scalar calls, in
visit order). So runs consume the random stream exactly as per-node agent
hooks would.

Scenario notes:

* **sir** — pure config-driven diffusion (neighbor-triggered infection and a
  countdown recovery); the only hook is a percentage-infected collector.
* **infmax** — independent-cascade influence spread. Seeds come from the
  config (top-k by a centrality metric); setup annotates every directed edge
  pair with ``influence_prob`` = 1/degree(target). Activation uses a single
  uniform draw per eligible inactive node per iteration, compared against
  the largest spreader-edge probability (``per_edge=True`` switches to the
  classic one-draw-per-spreader-edge variant). A node spreads for exactly
  one iteration, then retires to plain Active. A step walks only the
  spreaders' out-rows, the frontier, never the whole edge set. Each step reads
  ``influence_prob`` afresh, so a hook's edit takes effect on the next step.
* **trust** — an investor/trustee game with proportional imitation. Payoffs
  are recomputed after the imitation phase each iteration, so imitation at
  iteration t compares payoffs from t-1. Payoff model: an investor splits a
  unit investment equally among trustee neighbors and earns
  ``tv * ((R_T/2) * k_T/(k_T+k_U) - 1)``; a trustworthy trustee returns half
  its multiplier on received shares (``(R_T/2) * shares``); an untrustworthy
  one keeps ``R_U * shares`` with ``R_U = 2 * r_UT * R_T``. Strategy switch
  probability is the payoff gap normalized by the payoff range
  ``phi_max - phi_min`` (``phi_max = 2 * R_T * k_avg`` from the graph at
  setup, ``phi_min = -tv``), clamped to 1 for hub payoffs that exceed the
  average-degree bound. Payoffs and neighbor picks read the live out-CSR,
  so ``ctx.mutate_edges`` takes effect from the next payoff or imitation.
* **stayhome** — a location-decision demo: each agent chooses home or grid
  through a logistic response to yesterday's new-case fraction, and an
  ambient infection rule only reaches agents on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .engine import PHASE_AFTER, PHASE_BEFORE, PHASE_FINAL, HookRegistry, SimContext
from .errors import HookError
from .graph import AttributeColumn, csr_matvec

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
    # The out-CSR lists every edge pair (u, v), in (u, v) order; a target's entries count its in-degree.
    out = ctx.graph.out_csr()
    indegree = np.bincount(out[1], minlength=ctx.graph.num_nodes)
    ctx.attrs.set_edge_column(INFLUENCE_PROB_KEY, 1.0 / np.maximum(indegree, 1)[out[1]], (out.rows, out[1]))


def ic_step(ctx: SimContext, per_edge: bool = False) -> None:
    """One cascade step for every node, against the states the iteration started with.

    Nodes are visited in a fresh permutation drawn first. Every spreader
    retires to Active (its one spreading iteration is this one). Every
    inactive node with spreader in-neighbors draws one uniform number, in
    visit order, and activates (as next iteration's spreader) iff the largest
    spreader-edge influence probability is >= the draw; with ``per_edge`` it
    draws once per spreader in-edge (ascending source id) and activates iff
    some edge's probability is >= its draw. Only the spreaders' out-rows are
    read, in (source, target) order, so probabilities are looked up by sorted keys.
    """
    states = ctx.states
    order = ctx.rng.permutation(ctx.graph.num_nodes)
    spreading = states.mask(IC_SPREADER)
    out = ctx.graph.out_csr()
    entries = out.entries(np.flatnonzero(spreading))  # the spreaders' out-rows, in (source, target) order
    entries = entries[states.mask(IC_INACTIVE)[out[1][entries]]]
    sources, rows = out.rows[entries], out[1][entries]
    column = ctx.attrs.edge.get(INFLUENCE_PROB_KEY)  # read live: an edit counts from the next step
    probs = np.zeros(rows.size) if column is None else column.take((sources, rows), 0.0)
    if not per_edge:  # one draw per node, against its largest probability (NaN-skipping, as `>` is)
        best = np.full(ctx.graph.num_nodes, -1.0)
        np.fmax.at(best, rows, probs)
        sources = rows = np.flatnonzero(best >= 0.0)  # one entry per node: no source order to keep
        probs = best[rows]
    visit = np.lexsort((sources, order.argsort()[rows]))  # visit order; a node's edges by ascending source
    activated = rows[visit][probs[visit] >= ctx.rng.random(rows.size)]
    if spreading.any():
        states.codes[spreading] = states.code(IC_ACTIVE)
    if activated.size:
        states.codes[activated] = states.code(IC_SPREADER)


def ic_total_active(ctx: SimContext) -> int:
    return ctx.count(IC_ACTIVE) + ctx.count(IC_SPREADER)


def ic_registry(per_edge: bool = False) -> tuple[HookRegistry, Callable]:
    registry = HookRegistry()
    registry.add(PHASE_BEFORE, "ic_prepare", partial(ic_step, per_edge=per_edge))
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
    """Read parameters and fix the payoff normalization range."""
    graph = ctx.graph
    n = graph.num_nodes
    sc = ctx.scratch
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
    """Everyone's payoff from the current strategies, summed over the graph's live out-CSR."""
    sc = ctx.scratch
    adjacency = ctx.graph.out_csr()
    r_t, r_u, tv = sc["trust_params"]
    states = ctx.states
    n = ctx.graph.num_nodes
    # Trust codes by state code; the last entry (-1: no state) and undeclared roles read as -1.
    codes = np.array([*map(_TRUST_CODES.get, states.types, repeat(-1)), -1], dtype=np.int8)[states.codes]
    investors = codes == 0
    trustworthy = codes == 1
    untrustworthy = codes == 2
    counts = np.bincount(adjacency.rows * 4 + codes[adjacency[1]] + 1, minlength=4 * n).reshape(n, 4)  # by code + 1
    k_t, k_trustees = counts[:, 2], counts[:, 2] + counts[:, 3]
    has_trustees = k_trustees > 0.0
    payoff = np.zeros(n, dtype=np.float64)

    inv_active = investors & has_trustees
    if inv_active.any():
        frac = k_t[inv_active] / k_trustees[inv_active]
        payoff[inv_active] = tv * ((r_t / 2.0) * frac - 1.0)

    shares_out = np.zeros(n, dtype=np.float64)
    shares_out[inv_active] = tv / k_trustees[inv_active]
    shares_in = csr_matvec(adjacency, shares_out)
    payoff[trustworthy] = (r_t / 2.0) * shares_in[trustworthy]
    payoff[untrustworthy] = r_u * shares_in[untrustworthy]
    return payoff


def trust_draws(ctx: SimContext) -> None:
    """Proportional imitation for every node: copy a better-paid random neighbor's strategy.

    Draws each node's neighbor pick and switch uniform (by node id), then a
    visit order. Whom a node picks and whether it switches depend only on the
    payoffs computed at the end of the previous iteration; a switcher adopts
    the neighbor's live (possibly already-updated) strategy, so switchers
    apply in visit order. Switch probability is the positive payoff gap times
    the inverse payoff range, clamped to 1.
    """
    sc = ctx.scratch
    rng = ctx.rng
    n = ctx.graph.num_nodes
    pick_u, switch_u, order = rng.random(n), rng.random(n), rng.permutation(n)
    indptr, indices = ctx.graph.out_csr()
    degree = np.diff(indptr)
    nodes = np.flatnonzero(degree)  # isolated nodes never imitate
    picked = indices[indptr[nodes] + (pick_u[nodes] * degree[nodes]).astype(np.int64)]
    payoff = sc["trust_payoff_arr"]
    # A uniform in [0, 1) is below the gap-times-range product iff the clamped probability fires;
    # a gap <= 0 never does.
    switch = switch_u[nodes] < (payoff[picked] - payoff[nodes]) * sc["trust_inv_phi_range"]
    switchers, picked = nodes[switch], picked[switch]
    visit = np.argsort(order.argsort()[switchers])
    states = ctx.states
    for node, source in zip(switchers[visit].tolist(), picked[visit].tolist()):
        states[node] = states[source]


def trust_payoffs(ctx: SimContext) -> float:
    """Recompute payoffs after imitation; returns global net wealth."""
    sc = ctx.scratch
    new = compute_trust_payoffs(ctx)
    old = sc.get("trust_payoff_arr")
    if old is None:
        old = new
    sc["trust_payoff_arr"] = new
    ctx.attrs.set_node_column("previous_payoff", old)
    ctx.attrs.set_node_column("current_payoff", new)
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
    registry.add(PHASE_AFTER, "global_payoff", trust_payoffs, record_initial=True)
    registry.add(PHASE_FINAL, "trust_outcome", trust_summary)
    return registry, trust_setup


# ---------------------------------------------------------------------------
# Stay-home location decisions.
# ---------------------------------------------------------------------------

LOCATION_KEY = "location"
LOCATION_HOME = "home"
LOCATION_GRID = "grid"


def stayhome_step(ctx: SimContext) -> float:
    """New-case fraction since the previous iteration (drop in susceptibles), then everyone's location.

    In a fresh visit order, each node draws home or grid from a logistic
    response to the fraction. With zero new cases the propensity falls back
    to the configured baseline (the logistic would otherwise leave a nonzero
    floor).
    """
    n = ctx.graph.num_nodes
    current = ctx.count(SIR_SUSCEPTIBLE)
    previous = ctx.scratch.get("stayhome_prev_susceptible")
    fraction = 0.0 if previous is None or n == 0 else (previous - current) / n
    ctx.scratch["stayhome_prev_susceptible"] = current
    order = ctx.rng.permutation(n)
    column = ctx.attrs.node.get(LOCATION_KEY, AttributeColumn(LOCATION_KEY))
    missing = order[column.take(order, None) == None]  # noqa: E711 -- elementwise
    if missing.size:
        raise HookError(f"node {missing[0]} has no {LOCATION_KEY!r} attribute", iteration=ctx.iteration)
    params = ctx.net_params
    if fraction <= 0.0:
        p_home = float(params.get("stay-home-baseline", 0.0))
    else:
        slope = float(params.get("stay-home-slope", 10.0))
        midpoint = float(params.get("stay-home-midpoint", 0.05))
        p_home = 1.0 / (1.0 + math.exp(-slope * (fraction - midpoint)))
    home = (ctx.rng.random(n) < p_home).tolist()
    column.update(zip(order.tolist(), map((LOCATION_GRID, LOCATION_HOME).__getitem__, home)))
    return fraction


def stayhome_home_count(ctx: SimContext) -> int:
    column = ctx.attrs.node.get(LOCATION_KEY)
    return 0 if column is None else int(np.count_nonzero(column.arrays()[1] == LOCATION_HOME))


def stayhome_registry() -> tuple[HookRegistry, None]:
    registry = HookRegistry()
    registry.add(PHASE_BEFORE, "new_case_fraction", stayhome_step)
    registry.add(PHASE_AFTER, "home_count", stayhome_home_count)
    return registry, None


# ---------------------------------------------------------------------------
# Registry of scenarios and shipped fixtures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    fixture: str
    make_hooks: Callable[[], tuple[HookRegistry, Callable | None]]


SCENARIOS: dict[str, Scenario] = {
    "sir": Scenario(
        fixture="sir.yaml",
        make_hooks=sir_registry,
    ),
    "infmax": Scenario(
        fixture="infmax.yaml",
        make_hooks=ic_registry,
    ),
    "trust": Scenario(
        fixture="trust.yaml",
        make_hooks=trust_registry,
    ),
    "stayhome": Scenario(
        fixture="stayhome.yaml",
        make_hooks=stayhome_registry,
    ),
}


def fixture_path(filename: str) -> Path:
    """Absolute path of a shipped fixture config."""
    return Path(str(resources.files("crowdkit").joinpath("fixtures", filename)))
