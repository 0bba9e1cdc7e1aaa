"""Acceptance gate: every shipping criterion measured at its stated tolerance.

Each test prints one PASS/FAIL line (with the measured numbers) into the
terminal summary via the reporting hook in conftest.py.
"""

from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np

from conftest import acceptance_report
from crowdkit import (
    AttributeTable,
    CountDown,
    CountdownLedger,
    Graph,
    NodeStochastic,
    Rule,
    SimContext,
    apply_rules,
    batch_run,
    expand_sweep,
    fixture_path,
    initialize_population,
    load_config,
    load_gexf,
    merge_batches,
    parse_config,
    read_snapshot,
    simulate,
    sweep_run,
    write_gexf,
    write_snapshot,
)
from crowdkit.collect import SeriesRecorder
from crowdkit.config import sweep_labels
from crowdkit.engine import PHASE_BEFORE
from crowdkit.metrics import pagerank, top_k_by_metric
from crowdkit.scenarios import (
    IC_INACTIVE,
    IC_SPREADER,
    INFLUENCE_PROB_KEY,
    SCENARIOS,
    ic_initialize,
    ic_registry,
    trust_registry,
)

SIR_TYPES = ("Susceptible", "Infected", "Recovered")


# ---------------------------------------------------------------------------
# 1. Epidemic runs conserve population, move monotonically, and burn out.
# ---------------------------------------------------------------------------


def test_criterion_01_epidemic_conservation_and_burnout():
    cfg = load_config(fixture_path("sir.yaml"))
    start = time.perf_counter()
    conserved = True
    monotone = True
    extinct = 0
    for seed in range(20):
        result = simulate(cfg, epochs=50, master_seed=seed)
        counts = [e["value"] for e in result.records["node_counts"]]
        for c in counts:
            if sum(c[t] for t in SIR_TYPES) != 100:
                conserved = False
        for prev, curr in zip(counts, counts[1:]):
            if curr["Recovered"] < prev["Recovered"]:
                monotone = False
            if curr["Susceptible"] > prev["Susceptible"]:
                monotone = False
        if counts[-1]["Infected"] == 0:
            extinct += 1
    elapsed = time.perf_counter() - start
    ok = conserved and monotone and extinct >= 18 and elapsed < 5.0
    acceptance_report(
        1, "epidemic conservation, monotonicity, burn-out", ok,
        f"conserved={conserved} monotone={monotone} "
        f"extinct={extinct}/20 (need >=18) time={elapsed:.2f}s (limit 5s)",
    )
    assert conserved, "population total drifted from 100"
    assert monotone, "Recovered decreased or Susceptible increased"
    assert extinct >= 18
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Count-down transitions fire after exactly their configured delay.
# ---------------------------------------------------------------------------


def _countdown_trial(k: int, rng: np.random.Generator) -> bool:
    """One random-entry trial: recovery must land exactly k steps after entry."""
    g = Graph(2)
    g.add_edge(0, 1)
    attrs = AttributeTable()
    rules = [
        Rule("Susceptible", "Infected", NodeStochastic(ratio=0.3, triggering_status="Seed")),
        Rule("Infected", "Recovered", CountDown(name="timer", iteration_count=k)),
    ]
    ledger = CountdownLedger()
    states = {0: "Susceptible", 1: "Seed"}
    entered = None
    for it in range(1, 500):
        transitions = apply_rules(states, g, attrs, rules, ledger, rng)
        states.update(transitions)
        if entered is None and states[0] == "Infected":
            entered = it
        if states[0] == "Recovered":
            return entered is not None and it == entered + k
    return False


def test_criterion_02_countdown_exact_delay():
    rng = np.random.default_rng(42)
    trials = 0
    exact = 0
    for k in range(1, 11):
        for _ in range(100):
            trials += 1
            exact += _countdown_trial(k, rng)
    ok = exact == trials == 1000
    acceptance_report(
        2, "count-down delay exactness", ok,
        f"{exact}/{trials} trials transitioned exactly k steps after entry "
        "(k=1..10, need 100%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Cascade spread matches exhaustive enumeration on a small graph.
# ---------------------------------------------------------------------------

C3_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6),
            (5, 6), (5, 7), (6, 7)]
C3_SEEDS = frozenset({0})


def _c3_prob(u: int, v: int) -> float:
    """Deterministic heterogeneous per-direction probabilities."""
    return ((3 * u + 5 * v) % 7 + 1) / 12.0


def _c3_graph() -> Graph:
    g = Graph(8)
    for u, v in C3_EDGES:
        g.add_edge(u, v)
    return g


def _exhaustive_expected_spread(graph: Graph) -> float:
    """Independent oracle: full enumeration over activation outcomes.

    State is (current spreaders, everything ever activated); each susceptible
    neighbor activates independently with the max probability among its
    spreader sources, matching the one-draw-per-node semantics.
    """
    neighbors = {v: sorted(graph.neighbors(v)) for v in range(graph.num_nodes)}
    memo: dict[tuple[frozenset, frozenset], float] = {}

    def expected(spreaders: frozenset, covered: frozenset) -> float:
        if not spreaders:
            return float(len(covered))
        key = (spreaders, covered)
        if key in memo:
            return memo[key]
        candidates = []
        for v in range(graph.num_nodes):
            if v in covered:
                continue
            best = max((_c3_prob(u, v) for u in neighbors[v] if u in spreaders),
                       default=-1.0)
            if best >= 0.0:
                candidates.append((v, best))
        total = 0.0
        for bits in itertools.product((0, 1), repeat=len(candidates)):
            weight = 1.0
            activated = []
            for (v, p), bit in zip(candidates, bits):
                if bit:
                    weight *= p
                    activated.append(v)
                else:
                    weight *= 1.0 - p
            new = frozenset(activated)
            total += weight * expected(new, covered | new)
        memo[key] = total
        return total

    return expected(C3_SEEDS, C3_SEEDS)


def test_criterion_03_cascade_matches_exhaustive_oracle():
    start = time.perf_counter()
    graph = _c3_graph()
    oracle = _exhaustive_expected_spread(graph)

    # Monte Carlo through the registered cascade step.
    (step,) = (hook.fn for hook in ic_registry()[0].hooks(PHASE_BEFORE))
    ctx = SimContext(graph, {}, AttributeTable(), {}, np.random.default_rng(2024),
                     (IC_SPREADER, "Active", IC_INACTIVE))
    ctx.states.update({v: IC_INACTIVE for v in range(8)})
    ic_initialize(ctx)
    column = ctx.attrs.edge[INFLUENCE_PROB_KEY]
    ctx.attrs.set_edge_column(
        INFLUENCE_PROB_KEY, {(u, v): _c3_prob(u, v) for (u, v) in column}
    )
    runs = 100_000
    spreads = np.empty(runs)
    start_states = {v: IC_SPREADER if v in C3_SEEDS else IC_INACTIVE for v in range(8)}
    for run in range(runs):
        ctx.states.update(start_states)
        it = 0
        while ctx.count(IC_SPREADER):
            it += 1
            ctx.iteration = it
            step(ctx)
        spreads[run] = 8 - ctx.count(IC_INACTIVE)

    mc_mean = float(spreads.mean())
    stderr = float(spreads.std(ddof=1)) / math.sqrt(runs)
    gap = abs(mc_mean - oracle)
    elapsed = time.perf_counter() - start
    ok = gap <= 3.0 * stderr and elapsed < 60.0
    acceptance_report(
        3, "cascade mean spread vs exhaustive enumeration", ok,
        f"oracle={oracle:.5f} mc={mc_mean:.5f} gap={gap:.5f} "
        f"(3*stderr={3 * stderr:.5f}, {runs} runs) time={elapsed:.1f}s (limit 60s)",
    )
    assert gap <= 3.0 * stderr
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. Cascade at benchmark scale finishes fast and grows monotonically.
# ---------------------------------------------------------------------------


def test_criterion_04_cascade_at_benchmark_scale(facebook_graph):
    cfg = load_config(fixture_path("infmax.yaml"))
    registry, setup = SCENARIOS["infmax"].make_hooks()
    start = time.perf_counter()
    result = simulate(cfg, epochs=20, master_seed=0, registry=registry,
                      setup=setup, graph=facebook_graph)
    elapsed = time.perf_counter() - start
    totals = [e["value"] for e in result.records["total_active"]]
    starts_at_seeds = totals[0] == 100
    non_decreasing = all(a <= b for a, b in zip(totals, totals[1:]))
    ok = starts_at_seeds and non_decreasing and elapsed <= 10.0
    acceptance_report(
        4, "benchmark-scale cascade (4039 nodes, 100 seeds, 20 iterations)", ok,
        f"first={totals[0]} final={totals[-1]} non_decreasing={non_decreasing} "
        f"time={elapsed:.2f}s (limit 10s)",
    )
    assert starts_at_seeds
    assert non_decreasing
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# 5. Trust-game run at full size and length stays within its time budget.
# ---------------------------------------------------------------------------


def test_criterion_05_trust_game_performance():
    cfg = load_config(fixture_path("trust.yaml"))
    registry, setup = trust_registry()
    start = time.perf_counter()
    result = simulate(cfg, epochs=5000, master_seed=0, registry=registry,
                      setup=setup)
    elapsed = time.perf_counter() - start
    counts = result.summary["final_node_counts"]
    ok = elapsed <= 25.0 and sum(counts.values()) == 1024
    acceptance_report(
        5, "trust game 1024 nodes x 5000 iterations", ok,
        f"time={elapsed:.2f}s (limit 25s) final_counts={counts}",
    )
    assert sum(counts.values()) == 1024
    assert elapsed <= 25.0


# ---------------------------------------------------------------------------
# 6. Higher payout for betrayal strictly erodes investors and total wealth.
# ---------------------------------------------------------------------------


def _trust_config(r_ut: float) -> str:
    return f"""
name: trust-qualitative
structure:
  random:
    type: barabasi-albert
    count: 256
    m: 3
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


def test_criterion_06_betrayal_payout_erodes_trust():
    start = time.perf_counter()
    mean_investors = []
    mean_wealth = []
    for r_ut in (0.1, 0.5, 0.9):
        cfg = parse_config(_trust_config(r_ut))
        investors = 0.0
        wealth = 0.0
        for batch in range(20):
            registry, setup = trust_registry()
            result = simulate(cfg, epochs=600, master_seed=1234,
                              batch_index=batch, registry=registry, setup=setup,
                              record_node_counts=False)
            outcome = result.summary["trust_outcome"]
            investors += outcome["count_I"]
            wealth += outcome["final_global_payoff"]
        mean_investors.append(investors / 20)
        mean_wealth.append(wealth / 20)
    elapsed = time.perf_counter() - start
    investors_decreasing = mean_investors[0] > mean_investors[1] > mean_investors[2]
    wealth_decreasing = mean_wealth[0] > mean_wealth[1] > mean_wealth[2]
    ok = investors_decreasing and wealth_decreasing
    acceptance_report(
        6, "betrayal payout sweep (20 batches each at 0.1/0.5/0.9)", ok,
        f"investors={[round(v, 2) for v in mean_investors]} "
        f"wealth={[round(v, 2) for v in mean_wealth]} "
        f"both strictly decreasing={ok} time={elapsed:.1f}s",
    )
    assert investors_decreasing, mean_investors
    assert wealth_decreasing, mean_wealth


# ---------------------------------------------------------------------------
# 7. Sweeps expand one-factor-at-a-time and batch means match an oracle.
# ---------------------------------------------------------------------------


def test_criterion_07_sweep_groups_and_merge_oracle(tmp_path):
    # The shipped trust sweep expands to exactly 11 variants.
    cfg = load_config(fixture_path("trust.yaml"))
    variants = expand_sweep(cfg)
    labels = sweep_labels(cfg)
    eleven = len(variants) == 11 and len(set(labels)) == 11

    # And an actual sweep run creates exactly one run group per value.
    small = parse_config(
        fixture_path("trust.yaml").read_text()
        .replace("count: 1024", "count: 24")
        .replace("m: 3", "m: 2")
    )
    registry_factory = trust_registry
    sweep_dir = tmp_path / "sweep"
    outcomes = sweep_run(small, sweep_dir, batches=1, epochs=3,
                         master_seed=0, registry_factory=registry_factory)
    groups = sorted(p.name for p in sweep_dir.iterdir() if p.is_dir())
    group_count_ok = len(outcomes) == 11 and len(groups) == 11

    # Mean-merge vs an independent compensated-summation oracle.
    rng = np.random.default_rng(7)
    batches = []
    for _ in range(30):
        rec = SeriesRecorder("wealth")
        for it, value in enumerate(rng.uniform(10.0, 1e6, size=25).tolist()):
            rec.record(it, value)
        batches.append(rec.as_document())
    merged = merge_batches(batches)
    worst_rel = 0.0
    for idx, entry in enumerate(merged["entries"]):
        oracle = math.fsum(b["entries"][idx]["value"] for b in batches) / len(batches)
        worst_rel = max(worst_rel, abs(entry["value"] - oracle) / abs(oracle))
    merge_ok = worst_rel <= 1e-12

    ok = eleven and group_count_ok and merge_ok
    acceptance_report(
        7, "sweep expansion and mean-merge oracle", ok,
        f"variants={len(variants)} run_groups={len(groups)} (need 11 each) "
        f"merge_worst_rel={worst_rel:.2e} (limit 1e-12)",
    )
    assert eleven
    assert group_count_ok, groups
    assert merge_ok, worst_rel


# ---------------------------------------------------------------------------
# 8. Identical seeds give byte-identical outputs; batches replay in isolation.
# ---------------------------------------------------------------------------


def _persisted_files(run_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "run-meta.json"
    }


def test_criterion_08_determinism_and_batch_isolation(tmp_path, facebook_graph):
    plans = [
        ("sir", 12, 4, None),
        ("trust", 8, 4, None),
        ("stayhome", 12, 4, None),
        ("infmax", 2, None, facebook_graph),
    ]
    identical = {}
    for name, epochs, period, graph in plans:
        scenario = SCENARIOS[name]
        cfg = load_config(fixture_path(scenario.fixture))
        twins = []
        for tag in ("a", "b"):
            registry, setup = scenario.make_hooks()
            run_dir = tmp_path / f"{name}-{tag}"
            simulate(cfg, epochs=epochs, master_seed=77, registry=registry,
                     setup=setup, graph=graph, run_dir=run_dir,
                     snapshot_period=period)
            twins.append(_persisted_files(run_dir))
        assert any(key.startswith("snapshots/") for key in twins[0])
        assert any(key.startswith("collectors/") for key in twins[0])
        identical[name] = twins[0] == twins[1]

    # A batch re-run alone from (master seed, batch index) matches its
    # position inside the original batch run.
    cfg = load_config(fixture_path("sir.yaml"))
    parent = tmp_path / "batch-parent"
    batch_run(cfg, parent, batches=3, epochs=10, master_seed=5)
    solo_dir = tmp_path / "solo"
    simulate(cfg, epochs=10, master_seed=5, batch_index=2, run_dir=solo_dir)
    batch_files = {k: v for k, v in _persisted_files(parent / "batch-2").items()
                   if k.startswith("collectors/")}
    solo_files = {k: v for k, v in _persisted_files(solo_dir).items()
                  if k.startswith("collectors/")}
    isolation = batch_files == solo_files and len(batch_files) > 0

    ok = all(identical.values()) and isolation
    acceptance_report(
        8, "byte-identical replays and batch isolation", ok,
        f"identical={identical} batch2_isolated_replay={isolation}",
    )
    assert all(identical.values()), identical
    assert isolation


# ---------------------------------------------------------------------------
# 9. Graph exports and snapshots round-trip losslessly for every fixture.
# ---------------------------------------------------------------------------


def _graph_signature(graph: Graph):
    return graph.num_nodes, graph.directed, sorted(graph.edges())


def test_criterion_09_export_round_trips(tmp_path, facebook_graph):
    from crowdkit import build_graph

    results = {}
    for name in ("sir", "infmax", "trust"):
        cfg = load_config(fixture_path(SCENARIOS[name].fixture))
        rng = np.random.default_rng(9)
        graph = facebook_graph.copy() if name == "infmax" else build_graph(cfg, rng)
        states, attrs, net_params = initialize_population(graph, cfg, rng)
        if name == "infmax":
            # populate edge attributes so the round trip covers them
            ctx = SimContext(graph, states, attrs, net_params,
                             np.random.default_rng(1), tuple(sorted(set(states.values()))))
            ic_initialize(ctx)

        gexf_path = tmp_path / f"{name}.gexf"
        write_gexf(graph, gexf_path, states, attrs)
        g2, states2, attrs2 = load_gexf(gexf_path)
        gexf_ok = (
            _graph_signature(g2) == _graph_signature(graph)
            and states2 == states
            and attrs2.node == attrs.node
            and attrs2.edge == attrs.edge
        )

        [json_path] = write_snapshot(7, graph, states, attrs, net_params,
                                     tmp_path / name)
        it2, g3, states3, attrs3, params3 = read_snapshot(json_path)
        json_ok = (
            it2 == 7
            and _graph_signature(g3) == _graph_signature(graph)
            and states3 == states
            and attrs3.node == attrs.node
            and attrs3.edge == attrs.edge
            and params3 == net_params
        )
        results[name] = gexf_ok and json_ok

    ok = all(results.values())
    acceptance_report(
        9, "lossless export round trips (graph, states, attributes)", ok,
        f"per_fixture={results}",
    )
    assert ok, results


# ---------------------------------------------------------------------------
# 10. Ranking scores are a distribution and survive relabeling.
# ---------------------------------------------------------------------------


def test_criterion_10_ranking_distribution_and_relabeling(facebook_graph):
    scores = pagerank(facebook_graph)
    total = math.fsum(scores.values())
    sums_to_one = abs(total - 1.0) <= 1e-9

    # 200-node subsample: the selected top-100 set must commute with any
    # relabeling of the nodes.
    degree_order = sorted(range(facebook_graph.num_nodes),
                          key=lambda v: (-len(facebook_graph.neighbors(v)), v))
    chosen = sorted(degree_order[:200])
    index = {v: i for i, v in enumerate(chosen)}
    sub = Graph(200)
    for u, v in facebook_graph.edges():
        if u in index and v in index:
            sub.add_edge(index[u], index[v])

    perm = np.random.default_rng(10).permutation(200).tolist()
    relabeled = Graph(200)
    for u, v in sub.edges():
        relabeled.add_edge(perm[u], perm[v])

    top_original = top_k_by_metric(sub, "pagerank", 100)
    top_relabeled = top_k_by_metric(relabeled, "pagerank", 100)
    invariant = {perm[v] for v in top_original} == set(top_relabeled)

    # guard: the cut between rank 100 and 101 is not a tie
    ranked = sorted(pagerank(sub).values(), reverse=True)
    clear_cut = ranked[99] - ranked[100] > 1e-12

    ok = sums_to_one and invariant and clear_cut
    acceptance_report(
        10, "ranking sums to one and survives relabeling", ok,
        f"sum={total:.12f} (tol 1e-9) top100_invariant={invariant} "
        f"cut_gap={ranked[99] - ranked[100]:.3e}",
    )
    assert sums_to_one, total
    assert invariant
    assert clear_cut
