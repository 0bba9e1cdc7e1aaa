"""Synchronous rule application, checked against a scalar reference pass."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    AttributeTable,
    CountDown,
    CountdownLedger,
    Graph,
    NodeCategorical,
    NodeStates,
    NodeStochastic,
    Rule,
    apply_rules,
    fixture_path,
    generate_random_regular,
    parse_config,
)
from crowdkit.config import build_graph, build_rules, initialize_population
from crowdkit.engine import derive_seed
from crowdkit.rules import _out_neighbors


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def two_path() -> Graph:
    g = Graph(2)
    g.add_edge(0, 1)
    return g


def fires(state, graph, compartment, node, rng=None, attrs=None, ledger=None):
    """Whether a one-rule pass moves ``node`` out of its current type."""
    rules = [Rule(state[node], "Z", compartment)]
    attrs = AttributeTable() if attrs is None else attrs
    ledger = CountdownLedger() if ledger is None else ledger
    rng = make_rng() if rng is None else rng
    return node in apply_rules(state, graph, attrs, rules, ledger, rng)


def run_rounds(states, graph, rules, rng, rounds, attrs=None):
    """Apply rules repeatedly, returning the full state history."""
    attrs = attrs or AttributeTable()
    ledger = CountdownLedger()
    history = [dict(states)]
    current = dict(states)
    for _ in range(rounds):
        transitions = apply_rules(current, graph, attrs, rules, ledger, rng)
        current.update(transitions)
        history.append(dict(current))
    return history


# ---------------------------------------------------------------------------
# NodeStochastic
# ---------------------------------------------------------------------------


class TestNodeStochastic:
    def test_ratio_one_with_trigger_fires(self):
        comp = NodeStochastic(ratio=1.0, triggering_status="I")
        assert fires({0: "I", 1: "S"}, two_path(), comp, 1) is True

    def test_ratio_zero_never_fires(self):
        comp = NodeStochastic(ratio=0.0, triggering_status="I")
        rng = make_rng()
        assert not any(fires({0: "I", 1: "S"}, two_path(), comp, 1, rng) for _ in range(100))

    def test_no_triggering_neighbor_not_eligible(self):
        comp = NodeStochastic(ratio=1.0, triggering_status="I")
        rng = make_rng()
        before = rng.bit_generator.state
        assert fires({0: "S", 1: "S"}, two_path(), comp, 1, rng) is False
        assert rng.bit_generator.state == before  # an ineligible node draws nothing

    def test_absent_trigger_always_eligible(self):
        assert fires({0: "S"}, Graph(1), NodeStochastic(ratio=1.0), 0) is True

    def test_directed_trigger_uses_incoming_edges(self):
        g = Graph(2, directed=True)
        g.add_edge(0, 1)  # 0 -> 1
        comp = NodeStochastic(ratio=1.0, triggering_status="I")
        assert fires({0: "I", 1: "S"}, g, comp, 1) is True
        # reversed roles: node 0 has no incoming edge from an I node
        assert fires({0: "S", 1: "I"}, g, comp, 0) is False

    def test_one_draw_per_node_regardless_of_neighbor_count(self):
        # A node with many triggering neighbors fires with probability ratio,
        # not 1 - (1-ratio)^k: the empirical rate must match a single draw.
        trials = 20000
        g = Graph(6 * trials)
        states = {}
        for hub in range(0, 6 * trials, 6):
            states[hub] = "S"
            for leaf in range(hub + 1, hub + 6):
                g.add_edge(hub, leaf)
                states[leaf] = "I"
        rules = [Rule("S", "I", NodeStochastic(ratio=0.1, triggering_status="I"))]
        rng = make_rng(42)
        fired = len(apply_rules(states, g, AttributeTable(), rules, CountdownLedger(), rng))
        assert rng.bit_generator.state == make_rng(42).bit_generator.advance(trials).state
        sigma = (trials * 0.1 * 0.9) ** 0.5
        assert abs(fired - trials * 0.1) <= 3 * sigma

    def test_infection_rate_monte_carlo(self):
        # Many susceptible nodes, each with exactly one infected neighbor.
        n_pairs = 10000
        g = Graph(2 * n_pairs)
        states = {}
        for i in range(n_pairs):
            g.add_edge(2 * i, 2 * i + 1)
            states[2 * i] = "I"
            states[2 * i + 1] = "S"
        rules = [Rule("S", "I", NodeStochastic(ratio=0.1, triggering_status="I"))]
        transitions = apply_rules(
            states, g, AttributeTable(), rules, CountdownLedger(), make_rng(7)
        )
        fraction = len(transitions) / n_pairs
        assert 0.09 <= fraction <= 0.11


# ---------------------------------------------------------------------------
# CountDown
# ---------------------------------------------------------------------------


class TestCountDown:
    def test_normative_trace_k4(self):
        g = Graph(1)
        comp = CountDown(name="heal", iteration_count=4)
        ledger = CountdownLedger()
        rng = make_rng()
        # evaluations 1..3 decrement without firing; the 4th fires
        assert fires({0: "I"}, g, comp, 0, rng, ledger=ledger) is False
        assert ledger.counters("heal", 1).tolist() == [3]
        assert fires({0: "I"}, g, comp, 0, rng, ledger=ledger) is False
        assert ledger.counters("heal", 1).tolist() == [2]
        assert fires({0: "I"}, g, comp, 0, rng, ledger=ledger) is False
        assert ledger.counters("heal", 1).tolist() == [1]
        assert fires({0: "I"}, g, comp, 0, rng, ledger=ledger) is True
        assert ledger.counters("heal", 1).tolist() == [0]  # firing clears the entry

    def test_k1_fires_on_first_evaluation(self):
        assert fires({0: "I"}, Graph(1), CountDown(name="tick", iteration_count=1), 0) is True

    @pytest.mark.parametrize("k", list(range(1, 11)))
    def test_exactness_for_all_k(self, k):
        # A node entering the source type at round 0 transitions at exactly
        # round k under a countdown of k — never earlier, never later.
        g = Graph(1)
        rules = [Rule("I", "R", CountDown(name="heal", iteration_count=k))]
        history = run_rounds({0: "I"}, g, rules, make_rng(k), rounds=k + 2)
        for t in range(k):
            assert history[t][0] == "I"
        assert history[k][0] == "R"
        assert history[k + 1][0] == "R"

    def test_rule_transition_resets_countdown(self):
        # A node that leaves and re-enters the source type restarts the timer.
        g = Graph(1)
        rules = [
            Rule("A", "B", CountDown(name="ab", iteration_count=2)),
            Rule("B", "A", CountDown(name="ba", iteration_count=2)),
        ]
        history = run_rounds({0: "A"}, g, rules, make_rng(1), rounds=8)
        types = [h[0] for h in history]
        assert types == ["A", "A", "B", "B", "A", "A", "B", "B", "A"]


# ---------------------------------------------------------------------------
# NodeCategorical
# ---------------------------------------------------------------------------


class TestNodeCategorical:
    def test_matching_value_fires(self):
        attrs = AttributeTable()
        attrs.set_node(0, "location", "grid")
        comp = NodeCategorical(attribute="location", value="grid", probability=1.0)
        assert fires({0: "S"}, Graph(1), comp, 0, attrs=attrs) is True

    def test_mismatching_value_never_fires(self):
        attrs = AttributeTable()
        attrs.set_node(0, "location", "home")
        comp = NodeCategorical(attribute="location", value="grid", probability=1.0)
        rng = make_rng()
        assert not any(fires({0: "S"}, Graph(1), comp, 0, rng, attrs=attrs) for _ in range(20))

    def test_missing_attribute_is_not_an_error(self, caplog):
        comp = NodeCategorical(attribute="location", value="grid", probability=1.0)
        ledger = CountdownLedger()
        # evaluates not-eligible instead of raising, and warns once per ledger
        with caplog.at_level("WARNING", logger="crowdkit.rules"):
            assert fires({0: "S"}, Graph(1), comp, 0, ledger=ledger) is False
            assert fires({0: "S"}, Graph(1), comp, 0, ledger=ledger) is False
        assert [r.getMessage() for r in caplog.records] == [
            "node 0 lacks categorical attribute 'location'; treating as not eligible"
        ]


# ---------------------------------------------------------------------------
# apply_rules: synchronous semantics and ordering
# ---------------------------------------------------------------------------


class TestApplyRules:
    def test_sir_step_on_edge(self):
        g = two_path()
        rules = [
            Rule("S", "I", NodeStochastic(ratio=1.0, triggering_status="I")),
            Rule("I", "R", CountDown(name="heal", iteration_count=4)),
        ]
        transitions = apply_rules(
            {0: "I", 1: "S"}, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {1: "I"}

    def test_mutual_trigger_swap_is_synchronous(self):
        g = two_path()
        rules = [
            Rule("X", "Y", NodeStochastic(ratio=1.0, triggering_status="Y")),
            Rule("Y", "X", NodeStochastic(ratio=1.0, triggering_status="X")),
        ]
        transitions = apply_rules(
            {0: "X", 1: "Y"}, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {0: "Y", 1: "X"}

    def test_first_firing_rule_wins(self):
        g = Graph(1)
        rules = [
            Rule("A", "B", NodeStochastic(ratio=1.0)),
            Rule("A", "C", NodeStochastic(ratio=1.0)),
        ]
        transitions = apply_rules(
            {0: "A"}, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {0: "B"}

    def test_later_rule_reached_when_first_cannot_fire(self):
        g = Graph(1)
        rules = [
            Rule("A", "B", NodeStochastic(ratio=0.0)),
            Rule("A", "C", NodeStochastic(ratio=1.0)),
        ]
        transitions = apply_rules(
            {0: "A"}, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {0: "C"}

    def test_rules_restricted_to_frozen_from_type(self):
        # Node 1's transition this round must not make node 0 see it as "I".
        g = two_path()
        rules = [Rule("S", "I", NodeStochastic(ratio=1.0, triggering_status="I"))]
        state = {0: "S", 1: "S"}
        transitions = apply_rules(
            state, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {}

    def test_no_transition_without_matching_from_type(self):
        g = two_path()
        rules = [Rule("S", "I", NodeStochastic(ratio=1.0))]
        transitions = apply_rules(
            {0: "R", 1: "R"}, g, AttributeTable(), rules, CountdownLedger(), make_rng()
        )
        assert transitions == {}

    def test_population_count_conserved(self):
        rng = make_rng(3)
        g = Graph(30)
        for v in range(29):
            g.add_edge(v, v + 1)
        states = {v: ("I" if v % 5 == 0 else "S") for v in range(30)}
        rules = [
            Rule("S", "I", NodeStochastic(ratio=0.3, triggering_status="I")),
            Rule("I", "R", CountDown(name="heal", iteration_count=2)),
        ]
        ledger = CountdownLedger()
        current = dict(states)
        for _ in range(20):
            transitions = apply_rules(current, g, AttributeTable(), rules, ledger, rng)
            current.update(transitions)
            assert len(current) == 30
            assert sum(Counter(current.values()).values()) == 30

    def test_deterministic_given_seed(self):
        g = Graph(50)
        for v in range(49):
            g.add_edge(v, v + 1)
        states = {v: ("I" if v < 5 else "S") for v in range(50)}
        rules = [Rule("S", "I", NodeStochastic(ratio=0.5, triggering_status="I"))]
        t1 = apply_rules(states, g, AttributeTable(), rules, CountdownLedger(), make_rng(11))
        t2 = apply_rules(states, g, AttributeTable(), rules, CountdownLedger(), make_rng(11))
        assert t1 == t2


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    ratio=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_mutual_swap_at_ratio_one(ratio, seed):
    g = Graph(2)
    g.add_edge(0, 1)
    rules = [
        Rule("X", "Y", NodeStochastic(ratio=1.0, triggering_status="Y")),
        Rule("Y", "X", NodeStochastic(ratio=1.0, triggering_status="X")),
    ]
    transitions = apply_rules(
        {0: "X", 1: "Y"}, g, AttributeTable(), rules, CountdownLedger(), make_rng(seed)
    )
    assert transitions == {0: "Y", 1: "X"}


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=1, max_value=25), seed=st.integers(min_value=0, max_value=2**31))
def test_property_countdown_exactness(k, seed):
    g = Graph(1)
    rules = [Rule("I", "R", CountDown(name="heal", iteration_count=k))]
    ledger = CountdownLedger()
    rng = make_rng(seed)
    current = {0: "I"}
    for t in range(1, k + 1):
        transitions = apply_rules(current, g, AttributeTable(), rules, ledger, rng)
        current.update(transitions)
        if t < k:
            assert current[0] == "I", f"fired early at round {t}"
        else:
            assert current[0] == "R", f"did not fire at round {k}"


# ---------------------------------------------------------------------------
# The array pass against the scalar reference it replaced
# ---------------------------------------------------------------------------


def reference_fires(node, compartment, state, graph, attrs, counters, rng):
    """The scalar per-node evaluation: one draw per eligible drawing rule."""
    if type(compartment) is NodeStochastic:
        trigger = compartment.triggering_status
        if trigger is not None:
            nbrs = graph.in_neighbors(node) if graph.directed else graph.neighbors(node)
            if not any(state[u] == trigger for u in nbrs):
                return False
        return rng.random() < compartment.ratio
    if type(compartment) is CountDown:
        key = (node, compartment.name)
        counter = counters.get(key, compartment.iteration_count) - 1
        if counter <= 0:
            counters.pop(key, None)
            return True
        counters[key] = counter
        return False
    value = attrs.get_node(node, compartment.attribute)
    if value is None or value != compartment.value:
        return False
    return rng.random() < compartment.probability


def reference_apply_rules(state, graph, attrs, rules, counters, rng):
    """Node by node in id order, rules in declaration order, first firing wins.

    ``counters`` is a plain ``{(node, name): value}`` dict. A counter whose
    node is outside every source type of its name is dropped first; a rule
    move drops the node's counters of the type it left.
    """
    by_type, names_by_type, sources = {}, {}, {}
    for rule in rules:
        by_type.setdefault(rule.from_type, []).append(rule)
        if type(rule.compartment) is CountDown:
            names_by_type.setdefault(rule.from_type, []).append(rule.compartment.name)
            sources.setdefault(rule.compartment.name, set()).add(rule.from_type)
    for node, name in list(counters):
        if name in sources and state[node] not in sources[name]:
            del counters[(node, name)]
    transitions = {}
    for node in range(graph.num_nodes):
        for rule in by_type.get(state[node], ()):
            if reference_fires(node, rule.compartment, state, graph, attrs, counters, rng):
                transitions[node] = rule.to_type
                break
    for node in transitions:
        for name in names_by_type.get(state[node], ()):
            counters.pop((node, name), None)
    return transitions


TYPES = ("A", "B", "C", "D")  # D is the source of no rule
COUNTDOWN_NAMES = ("t1", "t2")


def compartments():
    probability = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
    return st.one_of(
        st.builds(NodeStochastic, probability, st.sampled_from([None, *TYPES])),
        st.builds(
            NodeCategorical, st.sampled_from(["loc", "absent"]), st.sampled_from(["x", "y"]), probability
        ),
        st.builds(CountDown, st.sampled_from(COUNTDOWN_NAMES), st.integers(1, 4)),
    )


@st.composite
def rule_sets(draw):
    """1-3 rules on B and C; A always has two drawing rules plus maybe a count-down."""
    stochastic = st.builds(NodeStochastic, st.sampled_from([0.3, 0.6, 1.0]), st.sampled_from([None, "B"]))
    countdown = st.builds(CountDown, st.sampled_from(COUNTDOWN_NAMES), st.integers(1, 4))
    comps = [draw(stochastic), draw(st.one_of(stochastic, compartments()))]
    if draw(st.booleans()):
        comps.insert(draw(st.integers(0, 2)), draw(countdown))
    rules = [Rule("A", draw(st.sampled_from(TYPES)), comp) for comp in comps]
    for source in ("B", "C"):
        for comp in draw(st.lists(compartments(), min_size=1, max_size=3)):
            rules.append(Rule(source, draw(st.sampled_from(TYPES)), comp))
    return rules


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 25))
    directed = draw(st.booleans())
    g = Graph(n, directed=directed)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=3 * n)):
        if u != v:
            g.add_edge(u, v)
    attrs = AttributeTable()
    for node in range(n):
        value = draw(st.sampled_from(["x", "y", None]))
        if value is not None:
            attrs.set_node(node, "loc", value)
    states = {node: draw(st.sampled_from(TYPES)) for node in range(n)}
    node_types = st.tuples(st.integers(0, n - 1), st.sampled_from(TYPES))
    edge_edits = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())  # (u, v, add)
    # Per pass: hook moves after it, topology edits after it, whether to shuffle
    # before it and whether to pass the states as a NodeStates or as a dict.
    passes = draw(st.lists(
        st.tuples(st.lists(node_types, max_size=4), st.lists(edge_edits, max_size=4), st.booleans(), st.booleans()),
        min_size=1,
        max_size=6,
    ))
    return g, attrs, states, draw(rule_sets()), passes


def ledger_entries(ledger: CountdownLedger, n: int) -> dict:
    """The ledger's live counters as the reference's ``{(node, name): value}`` dict."""
    return {
        (node, name): count
        for name in COUNTDOWN_NAMES
        for node, count in enumerate(ledger.counters(name, n).tolist())
        if count
    }


@settings(max_examples=300, deadline=None)
@given(case=scenarios(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_array_pass_matches_scalar_reference(case, seed):
    """Passes over states given as a dict or as the engine's NodeStates, with edges added and removed between
    passes (each pass reads a re-merged CSR). The reference reads its own copy of the graph, so a directed
    graph's in-CSR is built only if the array pass builds it, which it must not."""
    g, attrs, states, rules, passes = case
    ref_g = g.copy()
    rng, ref_rng = make_rng(seed), make_rng(seed)
    ledger, counters = CountdownLedger(), {}
    current, ref_current = dict(states), dict(states)
    for moves, edge_edits, shuffle, as_states in passes:
        if shuffle:  # leaves a buffered 32-bit half-word, as the agent phase does
            rng.permutation(g.num_nodes)
            ref_rng.permutation(g.num_nodes)
        given_states = NodeStates.from_mapping(current, g.num_nodes, TYPES) if as_states else current
        transitions = apply_rules(given_states, g, attrs, rules, ledger, rng)
        expected = reference_apply_rules(ref_current, ref_g, attrs, rules, counters, ref_rng)
        assert transitions == expected
        assert ledger_entries(ledger, g.num_nodes) == counters
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert not g.directed or g._in is None
        current.update(transitions)
        ref_current.update(expected)
        for node, type_name in moves:  # hook moves between passes
            current[node] = ref_current[node] = type_name
        for u, v, add in edge_edits:
            if u != v:
                for graph in (g, ref_g):
                    (graph.add_edge if add else graph.remove_edge)(u, v)


def test_sir_pass_at_100k_stays_small():
    """Ten rule passes of the SIR fixture at 100k nodes (the sir-100k-mem run) each peak at no more than
    2.25 MiB of numpy memory above what is live when the pass starts, its result included."""
    mapping = yaml.safe_load(fixture_path("sir.yaml").read_text(encoding="utf-8"))
    mapping["structure"]["random"]["count"] = 100_000
    config = parse_config(mapping)
    rng = make_rng(derive_seed(0))
    graph = build_graph(config, rng)
    states, attrs, _ = initialize_population(graph, config, rng)
    rules, ledger = build_rules(config.definitions), CountdownLedger()
    above_live = []
    tracemalloc.start()
    try:
        for _ in range(10):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            moves = apply_rules(states, graph, attrs, rules, ledger, rng)
            above_live.append(tracemalloc.get_traced_memory()[1] - live)
            states.update(moves)
    finally:
        tracemalloc.stop()
    assert states.count("Recovered") > 0  # the passes moved nodes through both rules
    assert max(above_live) <= 2.25 * 2**20, [f"{b / 2**20:.2f}" for b in above_live]


@pytest.mark.parametrize("share", [0.5, 0.9])
def test_trigger_marking_at_100k_holds_bounded_memory_at_any_density(share):
    """Marking the out-neighbours of 50% or 90% of a 100k-node, degree-4 graph's nodes peaks at no more than
    1.25 MiB of numpy memory above what is live, its mask included (1.16 MiB measured at both shares; reading
    every holder's entries at once peaked at 3.44 and 6.18 MiB), and marks what one read of them marks."""
    graph = generate_random_regular(100_000, 4, make_rng(0))
    holding = make_rng(1).random(graph.num_nodes) < share
    holders = np.flatnonzero(holding).astype(np.int32)
    indptr, indices = graph.out_csr()
    expected = np.zeros(graph.num_nodes, dtype=bool)
    expected[indices[np.repeat(holding, np.diff(indptr))]] = True
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        hit = _out_neighbors(graph, holders)
        above_live = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert np.array_equal(hit, expected)
    assert above_live <= 1.25 * 2**20, f"{above_live / 2**20:.2f} MiB"
