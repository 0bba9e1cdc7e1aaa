"""Diffusion rule bits and their synchronous application.

A rule moves nodes from one type to another when its compartment fires.
``apply_rules`` evaluates every node against the states it is given (read as
their code array) and never mutates them, so all transitions within one
iteration are decided from the same frozen view. It returns the movers as a
``NodeStates`` that holds codes only for the nodes that move; the caller
applies it afterwards. Nodes are visited in ascending id order, each node's
rules in declaration order, and the first firing rule wins.

Compartment kinds:

* ``NodeStochastic`` — eligible when the triggering status is absent or at
  least one in-neighbor (neighbor, when undirected) holds it in the frozen
  view; fires with probability ``ratio``.
* ``CountDown`` — a per-node counter starts at ``iteration_count`` on the
  first evaluation after the node enters the rule's source type and is
  decremented on every evaluation, firing when it reaches zero. A node that
  entered the source type at iteration t therefore transitions at exactly
  t + iteration_count.
* ``NodeCategorical`` — eligible when the node's categorical attribute equals
  ``value``; fires with probability ``probability``. A missing attribute makes
  the node ineligible (logged once per attribute and run, never an exception).

Random stream: one ``rng.random()`` draw per drawing (stochastic or
categorical) rule that a node reaches while eligible, in ascending node id and
then declaration order, and none after the rule that fired. A pass takes them
with one ``rng.random`` call, rewinding the generator when nodes fired before
using every draw they might have needed.

Count-down clearing: leaving the source type by any means clears the counter.
A rule move clears the node's counters of the type it left, and a pass drops
the counter of every node that it finds outside all source types of the
counter's name (a hook moved it, say).
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError
from .graph import AttributeTable, Graph, NodeStates

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NodeStochastic:
    ratio: float
    triggering_status: str | None = None


@dataclass(frozen=True)
class CountDown:
    name: str
    iteration_count: int


@dataclass(frozen=True)
class NodeCategorical:
    attribute: str
    value: str
    probability: float


Compartment = Union[NodeStochastic, CountDown, NodeCategorical]


@dataclass(frozen=True)
class Rule:
    from_type: str
    to_type: str
    compartment: Compartment
    compartment_id: str = ""


class CountdownLedger:
    """Per-run rule state: count-down counters and attributes already warned about.

    Counters live in one int32 array per count-down name, indexed by node;
    0 means "no pending counter".
    """

    __slots__ = ("_counters", "warned_attrs")

    def __init__(self):
        self._counters: dict[str, np.ndarray] = {}
        self.warned_attrs: set[str] = set()

    def counters(self, name: str, size: int) -> np.ndarray:
        """The live counter array of ``name``, grown to hold at least ``size`` nodes."""
        arr = self._counters.get(name, np.zeros(0, dtype=np.int32))
        if arr.size < size:
            arr = self._counters[name] = np.pad(arr, (0, size - arr.size))
        return arr

    def get(self, node: int, name: str) -> int | None:
        return int(self.counters(name, node + 1)[node]) or None

    def set(self, node: int, name: str, value: int) -> None:
        self.counters(name, node + 1)[node] = value

    def pop(self, node: int, name: str) -> None:
        self.counters(name, node + 1)[node] = 0

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(arr)) for arr in self._counters.values())

    def items(self) -> list[tuple[tuple[int, str], int]]:
        return [
            ((int(node), name), int(arr[node]))
            for name, arr in self._counters.items()
            for node in np.flatnonzero(arr)
        ]


def _drawing_rule(comp, members, state, graph, attrs, ledger) -> tuple[np.ndarray, float]:
    """Which ``members`` may draw for a stochastic or categorical compartment, and its probability."""
    if type(comp) is NodeStochastic:
        if comp.triggering_status is None:
            return np.ones(members.size, dtype=bool), comp.ratio
        indptr, indices = graph.in_csr()
        # held[i]: how many of the first i CSR entries hold the trigger.
        held = np.zeros(indices.size + 1, dtype=np.int32)
        np.cumsum(state.mask(comp.triggering_status)[indices], out=held[1:])
        return held[indptr[members + 1]] > held[indptr[members]], comp.ratio
    if type(comp) is NodeCategorical:
        column = attrs.node.get(comp.attribute)
        values = np.full(members.size, None) if column is None else column.take(members, None)
        missing = members[values == None]  # noqa: E711 -- elementwise
        if missing.size and comp.attribute not in ledger.warned_attrs:
            ledger.warned_attrs.add(comp.attribute)
            logger.warning(
                "node %d lacks categorical attribute %r; treating as not eligible", missing[0], comp.attribute
            )
        return values == comp.value, comp.probability
    raise ConfigError(f"unknown compartment kind {type(comp).__name__}")


def _walk(group, size, draws, passes, counters) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Walk a source type's rules in declaration order over its ``size`` members.

    ``draws[j]``: drawing rule j's (eligible mask, probability); ``passes[j]``:
    members whose draw for it succeeds (``None``: every draw fails). Updates
    ``counters`` (name -> member counters) where a count-down is reached.
    Returns the winning rule per member (-1: none) and the members drawing
    for each drawing rule.
    """
    winner = np.full(size, -1, dtype=np.int32)
    alive = np.ones(size, dtype=bool)
    drawn = {}
    for j, rule in enumerate(group):
        comp = rule.compartment
        if type(comp) is CountDown:
            current = counters[comp.name]
            left = np.where(current == 0, comp.iteration_count, current) - 1
            fires = alive & (left <= 0)
            counters[comp.name] = np.where(alive, np.where(fires, 0, left), current)
        else:
            drawn[j] = alive & draws[j][0]
            fires = drawn[j] & passes[j] if passes else np.zeros(size, dtype=bool)
        winner[fires] = j
        alive &= ~fires
    return winner, drawn


def apply_rules(
    state: Mapping[int, str],
    graph: Graph,
    attrs: AttributeTable,
    rules: list[Rule],
    ledger: CountdownLedger,
    rng: np.random.Generator,
) -> NodeStates:
    """One synchronous rule pass. Returns the movers without applying them.

    The result is a ``NodeStates`` over the same types that holds codes only
    for the nodes that move: as a mapping it equals the ascending
    ``{node: new type}`` transition dict. A plain mapping ``state`` is encoded
    once on entry. See the module docstring for the visiting order, the
    random-stream contract and the count-down clearing rule.
    """
    n = graph.num_nodes
    groups: dict[str, list[Rule]] = {}
    for rule in rules:
        groups.setdefault(rule.from_type, []).append(rule)
    if not isinstance(state, NodeStates):
        state = NodeStates.from_mapping(state, n, dict.fromkeys([*state.values(), *(r.to_type for r in rules)]))
    comps = [rule.compartment for rule in rules]
    # Counters survive the pass only for nodes in a source type of their name.
    kept = {c.name: np.zeros(n, dtype=np.int32) for c in comps if type(c) is CountDown}

    # Every draw a node could need: one per eligible drawing rule it reaches
    # when all of its earlier draws fail.
    plans = []
    slots = np.zeros(n, dtype=np.int32)
    for from_type, group in groups.items():
        members = np.flatnonzero(state.mask(from_type))
        draws = {
            j: _drawing_rule(rule.compartment, members, state, graph, attrs, ledger)
            for j, rule in enumerate(group)
            if type(rule.compartment) is not CountDown
        }
        counters = {
            rule.compartment.name: ledger.counters(rule.compartment.name, n)[members]
            for rule in group
            if type(rule.compartment) is CountDown
        }
        _, drawn = _walk(group, members.size, draws, None, dict(counters))
        for mask in drawn.values():
            slots[members] += mask
        plans.append((group, members, draws, counters, drawn))

    start = np.cumsum(slots, dtype=np.int32) - slots
    saved = rng.bit_generator.state
    values = rng.random(int(slots.sum()))
    # A node that fires before its last possible draw leaves the rest unused,
    # so every later node's draws start that much earlier.
    pending = sorted(
        (members[i], [draws[j][1] for j, mask in drawn.items() if mask[i]])
        for _, members, draws, _, drawn in plans
        for i in np.flatnonzero(slots[members] > 1)
    )
    unused = np.zeros(n, dtype=np.int32)
    skipped = 0
    for node, probabilities in pending:
        hits = np.flatnonzero(values[start[node] - skipped :][: len(probabilities)] < probabilities)
        unused[node] = len(probabilities) - 1 - hits[0] if hits.size else 0
        skipped += unused[node]
    if skipped:
        # Replay just the draws used: bit_generator.advance would also drop a
        # buffered 32-bit half-word left by an earlier bounded draw.
        rng.bit_generator.state = saved
        rng.random(values.size - skipped)
        start -= np.cumsum(unused, dtype=np.int32) - unused

    moves = NodeStates(state.types, n)
    for group, members, draws, counters, drawn in plans:
        at = start[members]
        passes = {}
        for j, mask in drawn.items():
            passes[j] = np.zeros(members.size, dtype=bool)
            passes[j][mask] = values[at[mask]] < draws[j][1]
            at = at + mask
        winner, _ = _walk(group, members.size, draws, passes, counters)
        fired = winner >= 0
        for name, left in counters.items():
            kept[name][members] = np.where(fired, 0, left)
        targets = np.array([state.code_of[rule.to_type] for rule in group], dtype=moves.codes.dtype)
        moves.codes[members[fired]] = targets[winner[fired]]
    ledger._counters.update(kept)
    return moves
