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
  view; fires with probability ``ratio``. A pass first marks, for each
  triggering status, the out-neighbors of its holders from the holders'
  out-rows alone (as ``ic_step`` reads the spreaders'), shared by every rule
  that names it, so a directed graph never builds its in-CSR for a trigger.
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

Memory: a pass holds node ids and member positions as int32, counts each
node's draws and turns the counts into its first draw's index in one array,
makes the rewind's shift only when a draw goes unused, and writes the counters
it keeps into the ledger's arrays in place once the draws are decided.

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


def _out_neighbors(graph: Graph, holders: np.ndarray) -> np.ndarray:
    """A node mask of every out-neighbor (neighbor, when undirected) of ``holders``, read from their out-rows in
    runs of at most 2**14 holders, so that marking holds a bounded number of entries at any epidemic density."""
    out = graph.out_csr()
    hit = np.zeros(graph.num_nodes, dtype=bool)
    for at in range(0, holders.size, 2**14):
        hit[out[1][out.entries(holders[at : at + 2**14])]] = True
    return hit


def _drawing_rule(comp, members, attrs, ledger, marked) -> tuple[np.ndarray, float]:
    """Which ``members`` may draw for a stochastic or categorical compartment, and its probability.
    ``marked``: this pass's trigger masks by status (see ``_out_neighbors``)."""
    if type(comp) is NodeStochastic:
        if comp.triggering_status is None:
            return np.ones(members.size, dtype=bool), comp.ratio
        return marked[comp.triggering_status][members], comp.ratio
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


def _walk(group, size, draws, passes, counters) -> tuple[dict, dict[int, np.ndarray]]:
    """Walk a source type's rules in declaration order over its ``size`` members.

    ``draws[j]``: drawing rule j's (eligible mask, probability), read only
    when ``passes`` is None; ``passes[j]``: the positions of members whose
    draw for it succeeds (``None``: every draw fails). Updates ``counters``
    (name -> member counters) where a count-down is reached. Returns the
    members each rule moves (a mask or positions) and, for ``passes`` None,
    the drawing members' positions per drawing rule, as int32.
    """
    alive = np.ones(size, dtype=bool)
    moved, drawn = {}, {}
    for j, rule in enumerate(group):
        comp = rule.compartment
        if type(comp) is CountDown:
            current = counters[comp.name]
            left = np.where(current == 0, comp.iteration_count, current) - 1
            fires = alive & (left <= 0)
            counters[comp.name] = np.where(alive, np.where(fires, 0, left), current)
        elif passes is None:
            drawn[j] = np.flatnonzero(alive & draws[j][0]).astype(np.int32)
            continue
        else:
            fires = passes[j][alive[passes[j]]]
        moved[j] = fires
        alive[fires] = False
    return moved, drawn


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
    triggers = (r.compartment.triggering_status for r in rules if type(r.compartment) is NodeStochastic)
    marked = {
        status: _out_neighbors(graph, np.flatnonzero(state.mask(status)).astype(np.int32))
        for status in dict.fromkeys(triggers)
        if status is not None
    }
    # Every draw a node could need: one per eligible drawing rule it reaches
    # when all of its earlier draws fail. start[v + 1] counts node v's, then
    # an in-place cumsum makes start[v] the index of its first draw.
    plans = []
    start = np.zeros(n + 1, dtype=np.int32)
    for from_type, group in groups.items():
        members = np.flatnonzero(state.mask(from_type)).astype(np.int32)
        draws = {
            j: _drawing_rule(rule.compartment, members, attrs, ledger, marked)
            for j, rule in enumerate(group)
            if type(rule.compartment) is not CountDown
        }
        counters = {
            rule.compartment.name: ledger.counters(rule.compartment.name, n)[members]
            for rule in group
            if type(rule.compartment) is CountDown
        }
        _, drawn = _walk(group, members.size, draws, None, dict(counters))
        for at in drawn.values():
            start[members[at] + 1] += 1
        plans.append((group, members, {j: chance for j, (_, chance) in draws.items()}, counters, drawn))
    del marked

    np.cumsum(start, out=start)
    saved = rng.bit_generator.state
    values = rng.random(int(start[n]))
    # A node that fires before its last possible draw leaves the rest unused,
    # so every later node's draws start that much earlier.
    pending = {}  # node -> probability of each draw it may take; a node's only draw is never left unused
    for _, members, chances, _, drawn in plans:
        for j, at in drawn.items() if len(drawn) > 1 else ():
            for node in members[at].tolist():
                pending.setdefault(node, []).append(chances[j])
    skipped, unused = 0, {}  # node -> the draws it leaves unused
    for node, probabilities in sorted(pending.items()):
        hits = np.flatnonzero(values[start[node] - skipped :][: len(probabilities)] < probabilities)
        unused[node] = len(probabilities) - 1 - hits[0] if hits.size else 0
        skipped += unused[node]
    if skipped:
        # Replay just the draws used: bit_generator.advance would also drop a
        # buffered 32-bit half-word left by an earlier bounded draw.
        rng.bit_generator.state = saved
        rng.random(values.size - skipped)
        shift = np.zeros(n + 1, dtype=np.int32)
        shift[[node + 1 for node in unused]] = list(unused.values())
        start -= np.cumsum(shift, out=shift)

    moves = NodeStates(state.types, n)
    for name in {name for *_, counters, _ in plans for name in counters}:  # every plan holds its own counters
        ledger.counters(name, n).fill(0)  # they survive the pass only for nodes in a source type of their name
    for group, members, chances, counters, drawn in plans:
        passes = {}
        for j, at in drawn.items():
            nodes = members[at]
            passes[j] = at[values[start[nodes]] < chances[j]]
            start[nodes] += 1  # the node's next draw
        moved, _ = _walk(group, members.size, None, passes, counters)
        for j, fires in moved.items():
            moves.codes[members[fires]] = state.code_of[group[j].to_type]
            for left in counters.values():
                left[fires] = 0
        for name, left in counters.items():
            ledger.counters(name, n)[members] = left
    return moves
