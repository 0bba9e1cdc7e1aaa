"""Graph storage, attribute tables, network generators, and edge-list loading.

Nodes are dense 0-based integer ids. Graphs are simple: no self-loops, no
parallel edges. Undirected graphs store each edge once (canonical ``u < v``)
but answer adjacency symmetrically.
"""

from __future__ import annotations

import logging
import math
from itertools import chain
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import EdgeListError, GraphError

logger = logging.getLogger(__name__)

AttributeValue = Union[int, float, str]

_KIND_NAMES = {int: "integer", float: "number", str: "category"}


def _value_kind(value: AttributeValue) -> type:
    # bool is an int subclass; reject it explicitly so kinds stay unambiguous.
    if type(value) is bool or not isinstance(value, (int, float, str)):
        raise GraphError(f"unsupported attribute value {value!r} (allowed: int, float, str)")
    return float if isinstance(value, float) else (int if isinstance(value, int) else str)


class Graph:
    """Simple graph over dense integer node ids with O(degree) adjacency."""

    __slots__ = ("directed", "_adj", "_pred", "_num_edges", "version", "_in_csr")

    def __init__(self, num_nodes: int, directed: bool = False):
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be >= 0, got {num_nodes}")
        self.directed = directed
        self._adj: list[set[int]] = [set() for _ in range(num_nodes)]
        self._pred: list[set[int]] | None = [set() for _ in range(num_nodes)] if directed else None
        self._num_edges = 0
        # Bumped on every mutation; caches key on it.
        self.version = 0
        self._in_csr: tuple[int, np.ndarray, np.ndarray] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def nodes(self) -> range:
        return range(len(self._adj))

    def _check_node(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise GraphError(f"node id must be an integer, got {v!r}")
        if not 0 <= v < len(self._adj):
            raise GraphError(f"node id {v} out of range [0, {len(self._adj)})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge u->v (both directions for undirected). Returns False on duplicate."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        if self.directed:
            self._pred[v].add(u)  # type: ignore[index]
        else:
            self._adj[v].add(u)
        self._num_edges += 1
        self.version += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge u->v. Returns False if absent."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        if self.directed:
            self._pred[v].discard(u)  # type: ignore[index]
        else:
            self._adj[v].discard(u)
        self._num_edges -= 1
        self.version += 1
        return True

    def neighbors(self, v: int) -> frozenset[int]:
        """Out-neighbors for directed graphs, neighbors for undirected."""
        self._check_node(v)
        return frozenset(self._adj[v])

    def in_neighbors(self, v: int) -> frozenset[int]:
        """In-neighbors for directed graphs; same as neighbors when undirected."""
        self._check_node(v)
        if self.directed:
            return frozenset(self._pred[v])  # type: ignore[index]
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        """Neighbor count; for directed graphs, in-degree + out-degree."""
        self._check_node(v)
        if self.directed:
            return len(self._adj[v]) + len(self._pred[v])  # type: ignore[index]
        return len(self._adj[v])

    def out_degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def in_degree(self, v: int) -> int:
        """In undirected graphs in-degree is defined as plain degree."""
        self._check_node(v)
        if self.directed:
            return len(self._pred[v])  # type: ignore[index]
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in sorted order; undirected edges once with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in sorted(nbrs):
                if self.directed or u < v:
                    yield (u, v)

    def adjacency_lists(self) -> list[list[int]]:
        """Sorted neighbor lists (out-neighbors when directed). Deterministic order."""
        return [sorted(nbrs) for nbrs in self._adj]

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbor lists as CSR ``(indptr, indices)``, cached per ``version``.

        Row v lists the in-neighbors of v (its neighbors when undirected), in
        no particular order.
        """
        cached = self._in_csr
        if cached is None or cached[0] != self.version:
            rows = self._pred if self.directed else self._adj
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(indptr[-1]))
            cached = self._in_csr = (self.version, indptr, indices)
        return cached[1], cached[2]

    def copy(self) -> "Graph":
        g = Graph(self.num_nodes, self.directed)
        g._adj = [set(s) for s in self._adj]
        g._pred = [set(s) for s in self._pred] if self._pred is not None else None
        g._num_edges = self._num_edges
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.num_nodes == other.num_nodes
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, nodes={self.num_nodes}, edges={self._num_edges})"

    def to_sparse(self):
        """Adjacency as a scipy CSR matrix (row u -> out-neighbors)."""
        from scipy.sparse import csc_matrix

        # Column v of the adjacency lists the in-neighbors of v.
        indptr, indices = self.in_csr()
        n = self.num_nodes
        return csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n)).tocsr()


class AttributeTable:
    """Columnar node/edge attribute store.

    Each key holds values of a single kind (integer, number, or category).
    Edge attributes are keyed by the ordered pair (u, v); undirected graphs may
    hold distinct values for (u, v) and (v, u).
    """

    __slots__ = ("node", "edge", "_node_kinds", "_edge_kinds")

    def __init__(self):
        self.node: dict[str, dict[int, AttributeValue]] = {}
        self.edge: dict[str, dict[tuple[int, int], AttributeValue]] = {}
        self._node_kinds: dict[str, type] = {}
        self._edge_kinds: dict[str, type] = {}

    def _check_kind(self, kinds: dict[str, type], key: str, value: AttributeValue) -> None:
        kind = _value_kind(value)
        seen = kinds.get(key)
        if seen is None:
            kinds[key] = kind
        elif seen is not kind:
            raise GraphError(
                f"attribute {key!r} holds {_KIND_NAMES[seen]} values, got {_KIND_NAMES[kind]} {value!r}"
            )

    def set_node(self, node: int, key: str, value: AttributeValue) -> None:
        self._check_kind(self._node_kinds, key, value)
        self.node.setdefault(key, {})[node] = value

    def get_node(self, node: int, key: str, default: AttributeValue | None = None):
        col = self.node.get(key)
        if col is None:
            return default
        return col.get(node, default)

    def set_node_column(self, key: str, values: dict[int, AttributeValue]) -> None:
        """Replace a whole node column. Values must share one kind."""
        kinds = {_value_kind(v) for v in values.values()}
        if len(kinds) > 1:
            raise GraphError(f"attribute {key!r}: mixed value kinds in column")
        if kinds:
            self._check_kind(self._node_kinds, key, next(iter(values.values())))
        self.node[key] = dict(values)

    def set_edge(self, u: int, v: int, key: str, value: AttributeValue) -> None:
        self._check_kind(self._edge_kinds, key, value)
        self.edge.setdefault(key, {})[(u, v)] = value

    def get_edge(self, u: int, v: int, key: str, default: AttributeValue | None = None):
        col = self.edge.get(key)
        if col is None:
            return default
        return col.get((u, v), default)

    def set_edge_column(self, key: str, values: dict[tuple[int, int], AttributeValue]) -> None:
        kinds = {_value_kind(v) for v in values.values()}
        if len(kinds) > 1:
            raise GraphError(f"attribute {key!r}: mixed value kinds in column")
        if kinds:
            self._check_kind(self._edge_kinds, key, next(iter(values.values())))
        self.edge[key] = dict(values)

    def drop_edge(self, u: int, v: int) -> None:
        """Remove all attribute entries for (u, v) and (v, u)."""
        for col in self.edge.values():
            col.pop((u, v), None)
            col.pop((v, u), None)

    def node_kind(self, key: str) -> type | None:
        return self._node_kinds.get(key)

    def edge_kind(self, key: str) -> type | None:
        return self._edge_kinds.get(key)

    def copy(self) -> "AttributeTable":
        t = AttributeTable()
        t.node = {k: dict(c) for k, c in self.node.items()}
        t.edge = {k: dict(c) for k, c in self.edge.items()}
        t._node_kinds = dict(self._node_kinds)
        t._edge_kinds = dict(self._edge_kinds)
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeTable):
            return NotImplemented
        return self.node == other.node and self.edge == other.edge


# ---------------------------------------------------------------------------
# Generators. All draw exclusively from the passed numpy Generator, so a run
# seed fully determines the topology.
# ---------------------------------------------------------------------------


def generate_random_regular(num_nodes: int, degree: int, rng: np.random.Generator) -> Graph:
    """Random d-regular graph via stub pairing with leftover repair.

    Requires num_nodes * degree even and degree < num_nodes.
    """
    if degree < 0 or num_nodes < 0:
        raise GraphError("num_nodes and degree must be non-negative")
    if (num_nodes * degree) % 2 != 0:
        raise GraphError(f"no {degree}-regular graph on {num_nodes} nodes: odd stub count")
    if degree >= num_nodes and degree > 0:
        raise GraphError(f"degree {degree} must be < num_nodes {num_nodes}")
    g = Graph(num_nodes)
    if degree == 0 or num_nodes == 0:
        return g

    for _attempt in range(100):
        edges = _try_stub_pairing(num_nodes, degree, rng)
        if edges is not None:
            for u, v in edges:
                g.add_edge(u, v)
            return g
    raise GraphError(f"could not realize a {degree}-regular graph on {num_nodes} nodes")


def _try_stub_pairing(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), d)
    while stubs.size:
        rng.shuffle(stubs)
        leftover: list[int] = []
        it = stubs.tolist()
        for i in range(0, len(it), 2):
            u, v = it[i], it[i + 1]
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover.append(it[i])
                leftover.append(it[i + 1])
            else:
                edges.add((u, v))
        if len(leftover) == len(it):
            return None  # stuck; caller restarts from scratch
        stubs = np.array(leftover, dtype=np.int64)
    return edges


def generate_barabasi_albert(num_nodes: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph seeded with a complete graph on m nodes.

    Each of the remaining num_nodes - m nodes attaches to m distinct existing
    nodes chosen proportionally to degree. Edge count is exactly
    m * (num_nodes - m) + m * (m - 1) / 2.
    """
    if m < 1:
        raise GraphError(f"m must be >= 1, got {m}")
    if num_nodes < m:
        raise GraphError(f"num_nodes {num_nodes} must be >= m {m}")
    g = Graph(num_nodes)
    for u in range(m):
        for v in range(u + 1, m):
            g.add_edge(u, v)
    # One entry per degree unit: sampling uniformly from this list is
    # preferential attachment.
    repeated: list[int] = [u for u in range(m) for _ in range(m - 1)]
    if not repeated:
        repeated = list(range(m))  # m == 1: isolated seed still needs a target
    for v in range(m, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(0, len(repeated)))])
        for t in sorted(targets):
            g.add_edge(v, t)
            repeated.append(t)
        repeated.extend([v] * m)
    return g


def generate_erdos_renyi(num_nodes: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) random graph via geometric edge skipping, O(n + E)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    g = Graph(num_nodes)
    if p == 0.0 or num_nodes < 2:
        return g
    if p == 1.0:
        for u in range(num_nodes):
            for v in range(u + 1, num_nodes):
                g.add_edge(u, v)
        return g
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < num_nodes:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < num_nodes:
            w -= v
            v += 1
        if v < num_nodes:
            g.add_edge(v, w)
    return g


# ---------------------------------------------------------------------------
# Edge-list I/O.
# ---------------------------------------------------------------------------


def load_edge_list(path, directed: bool = False, return_id_map: bool = False):
    """Load a whitespace-separated integer-pair edge list.

    Lines starting with ``#`` and blank lines are skipped. Node ids are
    remapped to dense 0-based ids preserving first-seen order; duplicate edges
    collapse (count logged).
    """
    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListError(f"expected 2 fields, got {len(parts)}: {line!r}", line=line_no)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(f"non-integer node id in {line!r}", line=line_no) from None
            if a == b:
                raise EdgeListError(f"self-loop on node {a}", line=line_no)
            for orig in (a, b):
                if orig not in id_map:
                    id_map[orig] = len(id_map)
            edges.append((id_map[a], id_map[b]))
    g = Graph(len(id_map), directed=directed)
    duplicates = 0
    for u, v in edges:
        if not g.add_edge(u, v):
            duplicates += 1
    if duplicates:
        logger.info("edge list %s: collapsed %d duplicate edges", path, duplicates)
    if return_id_map:
        return g, id_map
    return g


def write_edge_list(graph: Graph, path) -> None:
    """Write edges as whitespace-separated pairs, one per line, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
