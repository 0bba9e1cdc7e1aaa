"""Graph storage, node states, attribute tables, network generators, edge-list I/O and atomic file writes.

Nodes are dense 0-based integer ids. Graphs are simple: no self-loops, no
parallel edges. Undirected graphs count each edge once (listed as ``u < v``)
but answer adjacency symmetrically.

A graph is stored as read-only CSR arrays ``(indptr, indices)``: row u lists
the out-neighbors of u (every neighbor when undirected) in ascending order.
Both are int32, as in scipy; ``indptr`` is int64 only from 2**31 entries. Each
CSR is built from the sorted pair codes ``u << 32 | v`` of its entries (so ids
lie below 2**31), in bulk by ``Graph.from_edges`` or a generator; copies share
the arrays. ``add_edge`` and ``remove_edge`` record each edit in a dict keyed
by pair code, merged into the CSR's codes in one pass on the next read.
``_code_csr`` finds each row's start by binary search of the codes' source
words, read through an int32 view (``_halves``), so a build holds no
entry-sized temporary beyond its indices. The random-regular generator writes
its codes' words in place and, as each of its rows holds ``degree`` entries,
takes ``indptr`` from an int32 ``arange``. ``csr_matvec`` gathers into a work
buffer that an iterating caller owns. ``load_edge_list`` has ``np.loadtxt``
read the file from its path, renumbers ids in first-seen order from one
``argsort``, and names the file on errors.

Node states (``NodeStates``) map node ids to type names through one signed
code array: ``codes[v]`` is the position of v's type in the declared type
order, and -1 means v has no state. An attribute column (``AttributeColumn``)
is one sorted int64 key array and one aligned values array, in the manner of
the Apache Arrow columnar format.
"""

from __future__ import annotations

import logging
import math
import os
import warnings
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, MutableMapping, ValuesView
from contextlib import suppress
from functools import cached_property
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .errors import EdgeListError, GraphError, HookError

logger = logging.getLogger(__name__)

AttributeValue = Union[int, float, str]

_KIND_NAMES = {int: "integer", float: "number", str: "category"}


def _value_kind(value: AttributeValue) -> type:
    # bool is an int subclass; reject it explicitly so kinds stay unambiguous.
    if type(value) is bool or not isinstance(value, (int, float, str)):
        raise GraphError(f"unsupported attribute value {value!r} (allowed: int, float, str)")
    return float if isinstance(value, float) else (int if isinstance(value, int) else str)


def _kind_error(key: str, seen: type, kind: type, value) -> GraphError:
    return GraphError(f"attribute {key!r} holds {_KIND_NAMES[seen]} values, got {_KIND_NAMES[kind]} {value!r}")


def _typed(key: str, values) -> tuple[np.ndarray, type | None]:
    """``values`` as one float64, int64 or object (str, ints past int64) array and their kind, None when
    empty. A numeric array's dtype settles the kind; anything else is checked value by value."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" and values.dtype != np.uint64:
        kind = float if values.dtype.kind == "f" else int
        return values.astype(np.float64 if kind is float else np.int64), kind if values.size else None
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    kinds = set(map(type, values))
    if not kinds <= _KIND_NAMES.keys():  # bool, numpy scalars, subclasses: check each value
        kinds = set(map(_value_kind, values))
    if len(kinds) > 1:
        raise GraphError(f"attribute {key!r}: mixed value kinds in column")
    kind = kinds.pop() if kinds else None
    try:
        return np.array(values, dtype={float: np.float64, int: np.int64}.get(kind, object)), kind
    except OverflowError:  # ints past int64
        return np.array(values, dtype=object), kind


def _pair_codes(src, dst) -> np.ndarray:
    """``src * 2**32 + dst`` as int64: for ids in ``(-2**31, 2**31)``, ordered as the ``(src, dst)`` tuples are."""
    return np.left_shift(src, 32, dtype=np.int64) + dst


def _split_codes(keys) -> np.ndarray | None:
    """``_pair_codes(src, dst)`` if ``keys`` are ``(src, dst)`` one-dimensional arrays of one length, empty or
    holding integer ids in ``_PAIR_BOUNDS``, else None."""
    if len(keys) != 2:
        return None
    src, dst = map(np.asarray, keys)
    if src.ndim != 1 or src.shape != dst.shape or src.size and not (np.result_type(src, dst).kind in "iub" and (
            _PAIR_BOUNDS[0] < min(src.min(), dst.min()) and max(src.max(), dst.max()) < _PAIR_BOUNDS[1])):
        return None
    return _pair_codes(src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _halves(codes: np.ndarray) -> np.ndarray:
    """Pair codes of non-negative ids as an ``(entries, 2)`` int32 view: column 0 their targets, 1 their sources."""
    halves = codes.view(np.int32).reshape(-1, 2)
    return halves if np.little_endian else halves[:, ::-1]


class _CSR(tuple):
    """Read-only CSR ``(indptr, indices)``; ``rows`` (each entry's row id) and ``codes`` (its pair code, sorted)
    are built on first use; not thread-safe."""

    rows = cached_property(lambda self: _frozen(np.repeat(np.arange(self[0].size - 1), np.diff(self[0]))))
    codes = cached_property(lambda self: _frozen(_pair_codes(self.rows, self[1])))

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """The positions of ``rows``' entries, row after row (int64)."""
        lengths = self[0][rows + 1] - self[0][rows]
        entries = np.repeat(self[0][rows] - np.cumsum(lengths) + lengths, lengths)
        entries += np.arange(entries.size)
        return entries


def _offset_dtype(entries: int) -> type:
    """The dtype of a CSR's row offsets over ``entries`` entries: int32 while they fit, as scipy keeps them."""
    return np.int32 if entries < 2**31 else np.int64


def _code_csr(n: int, codes: np.ndarray) -> _CSR:
    """Read-only CSR ``(indptr, indices)`` of sorted, distinct pair codes with ids in ``[0, n)``. Each row's start is
    found by a binary search of the codes' source words, read in place, so beside ``codes`` the build holds only its
    output and one int32 id per node."""
    indptr = _halves(codes)[:, 1].searchsorted(np.arange(n + 1, dtype=np.int32)).astype(_offset_dtype(codes.size))
    return _CSR((_frozen(indptr), _frozen(codes.astype(np.int32))))  # indices: the codes' low 32 bits


def _row(csr: tuple[np.ndarray, np.ndarray], v: int) -> np.ndarray:
    return csr[1][csr[0][v] : csr[0][v + 1]]


def csr_matvec(csr: _CSR, x: np.ndarray, gathered: np.ndarray | None = None) -> np.ndarray:
    """``A @ x`` for the matrix of ones at the entries of a graph's CSR, summing each row in CSR order
    from 0.0 as scipy does: bit-identical to scipy's ``csr_matrix`` product. ``x`` (float64, one per node, else
    ``ValueError``) is gathered into ``gathered``, a float64 work buffer of one slot per entry that an
    iterating caller owns and reuses, so a product allocates only its result; a one-off product passes None."""
    if x.shape != (csr[0].size - 1,):
        raise ValueError(f"x has shape {x.shape}, expected ({csr[0].size - 1},)")
    return np.bincount(csr.rows, weights=x.take(csr[1], out=gathered, mode="clip"), minlength=x.size)


def _node_ids(values) -> np.ndarray:
    ids = np.asarray(values)
    if ids.size and ids.dtype.kind not in "iu":
        bad = next((v for v in values if type(v) is bool or not isinstance(v, (int, np.integer))), None)
        raise GraphError(f"node id must be an integer, got {bad!r}")
    return ids.astype(np.int64)


def _node_count(num_nodes: int) -> int:
    """``num_nodes``, or ``GraphError`` outside ``[0, 2**31)``: pair codes hold ids below 2**31. Checked before
    anything is allocated."""
    if not 0 <= num_nodes < 2**31:
        raise GraphError(f"num_nodes must be in [0, 2**31), got {num_nodes}")
    return num_nodes


class Graph:
    """Simple graph over dense integer node ids, stored as sorted CSR arrays."""

    # _out: the out-CSR as of the last merge; _in: a directed graph's in-CSR, derived from it on demand;
    # _pending: the edits since, pair code -> whether u->v is now an edge (both orientations when undirected).
    __slots__ = ("directed", "num_nodes", "_num_edges", "version", "_out", "_in", "_pending")

    def __init__(self, num_nodes: int, directed: bool = False, *, _out: tuple[_CSR, int] | None = None):
        """A graph with no edges; a builder in this module passes ``_out``, its out-CSR and edge count, instead."""
        self.directed = directed
        self.num_nodes = _node_count(num_nodes)
        # Bumped on every edit that changes the graph; caches key on it.
        self.version = 0
        self._out, self._num_edges = _out or (_code_csr(num_nodes, np.empty(0, dtype=np.int64)), 0)
        self._in, self._pending = None, {}

    @classmethod
    def from_edges(cls, num_nodes: int, src, dst, directed: bool = False) -> tuple["Graph", int]:
        """Build a graph from parallel endpoint sequences; returns it and how many pairs collapsed.

        Repeats (and reversed pairs when undirected) collapse; the first bad pair raises ``add_edge``'s error.
        """
        n = _node_count(num_nodes)
        src, dst = _node_ids(src), _node_ids(dst)
        if src.shape != dst.shape:
            raise GraphError(f"{src.size} edge sources but {dst.size} targets")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst)
        if bad.any():  # add_edge raises its error for the first bad pair
            cls(n, directed).add_edge(src[bad.argmax()].item(), dst[bad.argmax()].item())
        codes = _pair_codes(src, dst) if directed else np.concatenate((_pair_codes(src, dst), _pair_codes(dst, src)))
        codes.sort()  # then drop repeats: many times faster than np.unique here
        distinct = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
        codes = codes[distinct]
        edges = codes.size if directed else codes.size // 2
        return cls(n, directed, _out=(_code_csr(n, codes), edges)), src.size - edges

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def nodes(self) -> range:
        return range(self.num_nodes)

    def _check_node(self, v: int) -> int:
        """``v`` as an int, or ``GraphError`` when it is no node id."""
        if type(v) is int and 0 <= v < self.num_nodes:  # the common case, without the isinstance calls
            return v
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise GraphError(f"node id must be an integer, got {v!r}")
        if not 0 <= v < self.num_nodes:
            raise GraphError(f"node id {v} out of range [0, {self.num_nodes})")
        return int(v)

    def out_csr(self) -> _CSR:
        """Out-neighbor rows (neighbors when undirected), ascending, as read-only CSR; pending edits merged."""
        if self._pending:
            pending, self._pending, codes = self._pending, {}, self._out.codes
            codes = codes[~np.isin(codes, np.fromiter(pending, np.int64, len(pending)))]
            added = np.sort(np.fromiter((code for code, held in pending.items() if held), np.int64))
            self._out, self._in = _code_csr(self.num_nodes, np.insert(codes, codes.searchsorted(added), added)), None
        return self._out

    def _holds(self, u: int, v: int) -> bool:
        """Whether u->v is an edge: its pending edit, else a search of row u as of the last merge."""
        held = self._pending.get(u << 32 | v)
        if held is None:
            indptr, indices = self._out
            end = indptr.item(u + 1)
            at = bisect_left(indices, v, indptr.item(u), end)
            held = at < end and indices.item(at) == v
        return held

    def _edit(self, u: int, v: int, add: bool) -> bool:
        """Record adding (``add``) or removing u->v unless the graph already has it so; True if it did."""
        if self._holds(u, v) == add:
            return False
        self._pending[u << 32 | v] = add
        if not self.directed:
            self._pending[v << 32 | u] = add
        self._num_edges += 1 if add else -1
        self.version += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return self._holds(self._check_node(u), self._check_node(v))

    def has_edges(self, src, dst) -> np.ndarray:
        """``has_edge`` at each pair of the id arrays ``src`` and ``dst``, as booleans; ids in ``(-2**31, 2**31)``."""
        codes, want = self.out_csr().codes, _pair_codes(src, dst)
        return codes.take(codes.searchsorted(want), mode="clip") == want if codes.size else np.zeros(want.shape, bool)

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge u->v (both directions for undirected). Returns False on duplicate."""
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed")
        return self._edit(u, v, True)

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge u->v. Returns False if absent."""
        return self._edit(self._check_node(u), self._check_node(v), False)

    def neighbors(self, v: int) -> frozenset[int]:
        """Out-neighbors for directed graphs, neighbors for undirected."""
        self._check_node(v)
        return frozenset(_row(self.out_csr(), v).tolist())

    def in_neighbors(self, v: int) -> frozenset[int]:
        """In-neighbors for directed graphs; same as neighbors when undirected."""
        self._check_node(v)
        return frozenset(_row(self.in_csr(), v).tolist())

    def degree(self, v: int) -> int:
        """Neighbor count; for directed graphs, in-degree + out-degree."""
        v = self._check_node(v)
        return len(_row(self.out_csr(), v)) + (len(_row(self.in_csr(), v)) if self.directed else 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in sorted order; undirected edges once with u < v."""
        ids = list(range(self.num_nodes))  # one int object per node, shared by every pair
        src, dst = self.edge_arrays()
        return zip(map(ids.__getitem__, src.tolist()), map(ids.__getitem__, dst.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays of the edges, in ``edges()`` order."""
        out = self.out_csr()
        keep = self.directed | (out.rows < out[1])
        return out.rows[keep], out[1][keep]

    def in_csr(self) -> _CSR:
        """In-neighbor rows (neighbors when undirected), ascending, as read-only CSR ``(indptr, indices)``.

        A directed graph derives them from its out-neighbor rows once per merge of pending edits.
        """
        out = self.out_csr()
        if not self.directed:
            return out
        if self._in is None:
            self._in = _code_csr(self.num_nodes, np.sort(_pair_codes(out[1], out.rows)))
        return self._in

    def copy(self) -> "Graph":
        """An independent graph that shares this graph's read-only arrays."""
        g = Graph(self.num_nodes, self.directed, _out=(self.out_csr(), self._num_edges))
        g._in = self._in
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.directed, self.num_nodes) == (other.directed, other.num_nodes) and all(
            map(np.array_equal, self.out_csr(), other.out_csr())
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, nodes={self.num_nodes}, edges={self._num_edges})"


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._pairs()[1])


class _Items(ItemsView):
    def __iter__(self):
        return zip(*self._mapping._pairs())


class NodeStates(MutableMapping):
    """Node id -> type name over one signed code array, iterated in ascending id.

    ``codes[v]`` indexes ``types`` (-1: v has no state); it is int8, or int32
    from 128 types on. ``keys``, ``values`` and ``items`` iterate over a copy
    taken when iteration starts, so values may be reassigned mid-iteration.
    A write of an undeclared type name or to a node outside
    ``[0, len(codes))`` raises ``HookError``; every write to a ``frozen`` copy
    raises ``TypeError``.
    """

    __slots__ = ("types", "code_of", "codes", "_view", "_names")

    def __init__(self, types, size: int = 0, codes: np.ndarray | None = None):
        self.types = tuple(types)
        self.code_of = {name: code for code, name in enumerate(self.types)}
        if codes is None:
            codes = np.full(size, -1, dtype=np.int8 if len(self.types) < 128 else np.int32)
        self.codes = codes
        self._view = memoryview(codes)  # scalar reads and writes as fast as a dict's
        self._names = np.array([*self.types, None], dtype=object)  # code -1 reads as None

    @classmethod
    def from_mapping(cls, mapping: Mapping, size: int, types=None) -> "NodeStates":
        """Encode ``mapping``, validating each write; ``types`` defaults to its values in first-seen order."""
        states = cls(dict.fromkeys(mapping.values()) if types is None else types, size)
        states.update(mapping)
        return states

    def frozen(self) -> "NodeStates":
        """A read-only copy."""
        return NodeStates(self.types, codes=_frozen(self.codes.copy()))

    def __getitem__(self, node):
        try:
            code = self._view[node] if node >= 0 else -1
        except (IndexError, TypeError):
            code = -1
        if code < 0:
            raise KeyError(node)
        return self.types[code]

    def code(self, type_name: str) -> int:
        """The code of a declared type name; ``HookError`` for an undeclared one."""
        code = self.code_of.get(type_name)
        if code is None:
            raise HookError(f"unknown node type {type_name!r} (declared: {', '.join(self.types)})")
        return code

    def __setitem__(self, node, type_name: str) -> None:
        code = self.code(type_name)
        try:
            if node < 0:
                raise IndexError(node)
            self._view[node] = code
        except (IndexError, TypeError):
            self._writable_codes()  # a frozen copy raises its own error
            raise HookError(f"node {node} out of range") from None

    def _writable_codes(self) -> np.ndarray:
        if self._view.readonly:
            raise TypeError("frozen node states are read-only") from None
        return self.codes

    def __delitem__(self, node) -> None:
        self[node]  # KeyError when absent
        self._writable_codes()[node] = -1

    def __iter__(self):
        return iter((self.codes >= 0).nonzero()[0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.codes >= 0))

    def _pairs(self) -> tuple[list[int], list[str]]:
        held = self.codes >= 0
        return held.nonzero()[0].tolist(), self._names[self.codes[held]].tolist()

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def update(self, other=(), /, **kwargs) -> None:
        """As ``dict.update``; a ``NodeStates`` over the same types applies in one masked assignment."""
        if isinstance(other, NodeStates) and other.types == self.types and not kwargs:
            np.copyto(self._writable_codes(), other.codes, where=other.codes >= 0)
        else:
            super().update(other, **kwargs)

    def clear(self) -> None:
        self._writable_codes().fill(-1)

    def column(self) -> list:
        """Every node's type name in id order, None where a node has no state."""
        return self._names[self.codes].tolist()

    def mask(self, type_name: str) -> np.ndarray:
        """Which nodes hold ``type_name`` (none, when it is undeclared)."""
        return self.codes == self.code_of.get(type_name, -2)

    def count(self, type_name: str) -> int:
        return int(np.count_nonzero(self.mask(type_name)))

    def counts(self) -> dict[str, int]:
        """Node count per declared type, in declaration order."""
        held = np.bincount(self.codes + 1, minlength=len(self.types) + 1)[1:]  # code -1 counts in bin 0
        return dict(zip(self.types, held.tolist()))

    def __repr__(self) -> str:
        return f"NodeStates({dict(self.items())!r})"


_GONE = object()  # a pending delete
_NODE_BOUNDS, _PAIR_BOUNDS = (-(2**63) - 1, 2**63), (-(2**31), 2**31)  # ids lie strictly between


class AttributeColumn(MutableMapping):
    """One attribute column as sorted int64 key codes and one aligned values array, used as a dict.

    Keys are node ids, or for an edge column ``(u, v)`` pairs of ids in ``(-2**31, 2**31)``, coded so that
    code order is tuple order; iteration follows it. Values are float64, int64 or object (str, ints past
    int64) and read back as Python int, float or str. A key that is no node id (no pair), a value that is
    no int, float or str, or one of another kind than the column holds raises ``GraphError`` at the write;
    an emptied column forgets its kind. Single writes and deletes wait in a dict merged on the next bulk
    read. ``==`` is a dict's, except that NaN equals NaN.
    """

    __slots__ = ("name", "edge", "kind", "_keys", "_values", "_pending")

    def __init__(self, name: str, values=(), keys=None, edge: bool = False):
        """``values``: a mapping, or values at ``keys``: node ids (default 0, 1, ...) or ``(src, dst)`` id sequences."""
        self.name, self.edge, self._pending, codes = name, edge, {}, None
        if isinstance(values, Mapping):
            keys, values = list(values), list(values.values())
        elif edge and keys is not None:  # (src, dst): coded as given, stacked into (m, 2) pairs only if a key is bad
            codes = _split_codes(keys)
            if codes is None and len(keys) == 2 and len(keys[0]) != len(keys[1]):
                raise GraphError(f"attribute {name!r}: {len(keys[0])} edge sources but {len(keys[1])} targets")
            keys = keys if codes is not None else np.column_stack(keys) if len(keys[0]) else ()
        values, self.kind = _typed(name, values)
        if keys is None and not edge:  # default node ids are their own sorted codes; an edge column's raise below
            codes = np.arange(values.size)
        self._set(self._codes(np.arange(values.size) if keys is None else keys) if codes is None else codes, values)

    def _set(self, codes: np.ndarray, values: np.ndarray) -> None:
        if codes.size != values.size:
            raise GraphError(f"attribute {self.name!r}: {codes.size} keys for {values.size} values")
        if np.any(codes[1:] <= codes[:-1]):  # sort; a repeated key keeps its last value
            order = np.argsort(codes, kind="stable")
            codes, values = codes[order], values[order]
            last = np.append(codes[1:] != codes[:-1], True)
            codes, values = codes[last], values[last]
        self._keys, self._values, self.kind = codes, values, self.kind if codes.size else None

    def _code(self, key) -> int:
        ids, (low, high) = (key, _PAIR_BOUNDS) if self.edge else ((key,), _NODE_BOUNDS)
        try:
            if len(ids) == 1 + self.edge and all(isinstance(i, (int, np.integer)) and low < i < high for i in ids):
                return int(ids[0]) * 2**32 + int(ids[1]) if self.edge else int(key)
        except TypeError:
            pass
        what = "a pair of integer node ids in (-2**31, 2**31)" if self.edge else "an integer node id"
        raise GraphError(f"attribute {self.name!r}: {key!r} is not {what}")

    def _codes(self, keys) -> np.ndarray:
        """The codes of node ids (``(m, 2)`` pairs); on any bad key, ``_code`` names the first."""
        low, high = _PAIR_BOUNDS if self.edge else _NODE_BOUNDS
        with suppress(ValueError):  # pairs of uneven length
            ids = np.asarray(keys)
            shaped = ids.dtype.kind in "iub" and ids.shape[1:] == (2,) * self.edge
            if not ids.size or shaped and low < ids.min() and ids.max() < high:
                ids = ids.astype(np.int64, copy=not self.edge).reshape(-1, 1 + self.edge)  # edge codes are new anyway
                return _pair_codes(ids[:, 0], ids[:, 1]) if self.edge else ids[:, 0]
        return np.array(list(map(self._code, keys)), dtype=np.int64)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted key codes and their values, pending writes merged; read them, do not write them."""
        if self._pending:  # the pending values go last, so they win over the values they replace
            pending, self._pending = self._pending, {}
            live = {code: value for code, value in pending.items() if value is not _GONE}
            keep = ~np.isin(self._keys, np.fromiter(pending.keys() - live.keys(), np.int64))
            new = _typed(self.name, live.values())[0]
            values = [part for part in (self._values[keep], new) if part.size] or [new]
            codes = np.concatenate((self._keys[keep], np.fromiter(live, np.int64, len(live))))
            self._set(codes, np.concatenate(values))
        return self._keys, self._values

    def ids(self, at: slice = slice(None)) -> np.ndarray:
        """The keys (those ``at`` a slice of them) in key order: node ids, or an edge column's ``(m, 2)`` pairs."""
        codes = self.arrays()[0][at]
        if not self.edge:
            return codes
        src = (codes + 2**31) >> 32
        return np.stack((src, codes - (src << 32)), axis=1)

    def positions(self, keys) -> np.ndarray:
        """Where each of ``keys`` (node ids, or ``(src, dst)`` arrays of ids in range) is in ``arrays()``, -1 if absent."""
        codes, want = self.arrays()[0], _pair_codes(*keys) if self.edge else np.asarray(keys)
        at = codes.searchsorted(want)
        return np.where(codes.take(at, mode="clip") == want, at, -1) if codes.size else np.full(want.shape, -1)

    def take(self, keys, default) -> np.ndarray:
        """The values at ``keys`` (as for ``positions``), ``default`` where absent."""
        at, values = self.positions(keys), self.arrays()[1]
        return np.where(at >= 0, values.take(at, mode="clip"), default) if values.size else np.full(at.shape, default)

    def check_nodes(self, num_nodes: int) -> None:
        """``GraphError`` naming the largest key that is no node id in ``[0, num_nodes)``."""
        codes = self.arrays()[0]
        bad = codes[(codes < 0) | (codes >= num_nodes)]
        if bad.size:
            raise GraphError(f"{bad[-1]} is not an integer node id in [0, {num_nodes})")

    def __getitem__(self, key):
        try:
            code = self._code(key)
        except GraphError:
            raise KeyError(key) from None
        value = self._pending.get(code, self)  # self: no pending write
        at = int(self._keys.searchsorted(code)) if value is self else -1
        if 0 <= at < self._keys.size and self._keys[at] == code:
            return self._values.item(at)
        if value is self or value is _GONE:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value) -> None:
        code = self._code(key)
        try:
            kind = _value_kind(value)
        except GraphError as exc:
            raise GraphError(f"attribute {self.name!r}: {exc}") from None
        if kind is not self.kind and self.kind is not None and len(self):
            raise _kind_error(self.name, self.kind, kind, value)
        self.kind, self._pending[code] = kind, kind(value)

    def __delitem__(self, key) -> None:
        self[key]  # KeyError when absent
        self._pending[self._code(key)] = _GONE

    def __iter__(self):
        return iter(self._pairs()[0])

    def __len__(self) -> int:
        return self.arrays()[0].size

    def _pairs(self) -> tuple[list, list]:
        ids = self.ids()
        return list(zip(*ids.T.tolist())) if self.edge else ids.tolist(), self._values.tolist()

    values, items = NodeStates.values, NodeStates.items  # views over ``_pairs``

    def clear(self) -> None:
        self.__init__(self.name, edge=self.edge)

    def copy(self, name: str | None = None) -> "AttributeColumn":
        column = AttributeColumn(self.name if name is None else name, edge=self.edge)
        column.kind = self.kind
        column._set(*(a.copy() for a in self.arrays()))
        return column

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        try:
            other = other if isinstance(other, AttributeColumn) else AttributeColumn(self.name, other, edge=self.edge)
        except GraphError:
            return False
        (keys, a), (other_keys, b) = self.arrays(), other.arrays()
        return np.array_equal(keys, other_keys) and bool(np.all((a == b) | (a != a) & (b != b)))

    def __repr__(self) -> str:
        return f"AttributeColumn({self.name!r}, {dict(self.items())!r})"


class _Columns(dict):
    """Key -> column; a mapping stored here (also by ``setdefault`` and ``update``) becomes a column."""

    __slots__ = ("edge",)

    def __setitem__(self, key: str, values) -> None:
        same_side = isinstance(values, AttributeColumn) and values.edge == self.edge
        super().__setitem__(key, values.copy(key) if same_side else AttributeColumn(key, values, edge=self.edge))

    def setdefault(self, key: str, default=None) -> AttributeColumn:
        if key not in self:
            self[key] = {} if default is None else default
        return self[key]

    def update(self, other=(), /, **kwargs) -> None:
        for key, values in dict(other, **kwargs).items():
            self[key] = values

    def write(self, key: str, at, value: AttributeValue) -> None:
        column = self[key] if key in self else AttributeColumn(key, edge=self.edge)
        column[at] = value  # a new column is kept only once its first write succeeds
        super().__setitem__(key, column)

    def replace(self, key: str, values, keys) -> None:
        column, old = AttributeColumn(key, values, keys, self.edge), self.get(key)
        if column and old and column.kind is not old.kind:
            first = next(iter(values.values() if isinstance(values, Mapping) else values))
            raise _kind_error(key, old.kind, column.kind, first)
        super().__setitem__(key, column)


class AttributeTable:
    """Node and edge attributes: ``node`` and ``edge`` map each key to its ``AttributeColumn``.

    A mapping stored under a key, as by ``node[key] = {...}`` or ``edge.setdefault(key, {})``, becomes a
    column, checked at once. Edge attributes are keyed by the ordered pair (u, v); undirected graphs may
    hold distinct values for (u, v) and (v, u).
    """

    __slots__ = ("node", "edge")

    def __init__(self):
        self.node, self.edge = _Columns(), _Columns()
        self.node.edge, self.edge.edge = False, True

    def set_node(self, node: int, key: str, value: AttributeValue) -> None:
        self.node.write(key, node, value)

    def get_node(self, node: int, key: str, default: AttributeValue | None = None):
        return self.node[key].get(node, default) if key in self.node else default

    def set_node_column(self, key: str, values, nodes=None) -> None:
        """Replace a node column with ``values``: a mapping, or values for ``nodes`` (default 0, 1, ...),
        where a numeric array's dtype settles the kind. Values must share the column's kind."""
        self.node.replace(key, values, nodes)

    def set_edge(self, u: int, v: int, key: str, value: AttributeValue) -> None:
        self.edge.write(key, (u, v), value)

    def get_edge(self, u: int, v: int, key: str, default: AttributeValue | None = None):
        return self.edge[key].get((u, v), default) if key in self.edge else default

    def set_edge_column(self, key: str, values, pairs=None) -> None:
        """Replace an edge column with ``values``: a mapping, or values for ``pairs``, ``(src, dst)`` id
        sequences, where a numeric array's dtype settles the kind. Values must share the column's kind."""
        self.edge.replace(key, values, pairs)

    def drop_edge(self, u: int, v: int) -> None:
        """Remove all attribute entries for (u, v) and (v, u)."""
        for col in self.edge.values():
            col.pop((u, v), None)
            col.pop((v, u), None)

    def copy(self) -> "AttributeTable":
        t = AttributeTable()
        t.node.update(self.node)
        t.edge.update(self.edge)
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeTable):
            return NotImplemented
        return self.node == other.node and self.edge == other.edge


# ---------------------------------------------------------------------------
# Generators. All draw exclusively from the passed numpy Generator, so a run
# seed fully determines the topology.
# ---------------------------------------------------------------------------


def check_random_regular(num_nodes: int, degree: int) -> None:
    """``GraphError`` unless a ``degree``-regular graph on ``num_nodes`` nodes exists."""
    if degree < 0 or num_nodes < 0:
        raise GraphError("num_nodes and degree must be non-negative")
    if (num_nodes * degree) % 2 != 0:
        raise GraphError(f"no {degree}-regular graph on {num_nodes} nodes: odd stub count")
    if degree >= num_nodes and degree > 0:
        raise GraphError(f"degree {degree} must be < num_nodes {num_nodes}")


def generate_random_regular(num_nodes: int, degree: int, rng: np.random.Generator) -> Graph:
    """Random d-regular graph via stub pairing with leftover repair.

    Requires num_nodes * degree even and degree < num_nodes. Memory: the CSR's codes are sorted in place in the
    pairing's n * degree int64 slots (its edges' codes copied to the first half, reversed into the second) and held
    only until the int32 indices are copied out; as every row holds ``degree`` entries, ``indptr`` is an ``arange``.
    """
    check_random_regular(num_nodes, degree)
    if degree == 0 or _node_count(num_nodes) == 0:
        return Graph(num_nodes)

    for _attempt in range(100):
        edges = _try_stub_pairing(num_nodes, degree, rng)
        if edges is not None:  # with each edge's reversed code (its words swapped), sorted: the CSR's codes
            codes = edges.base  # the pairing's n * degree slots, whose second half ``edges`` is
            codes[: edges.size] = edges
            _halves(edges)[:] = _halves(codes[: edges.size])[:, ::-1]
            codes.sort()
            indices = codes.astype(np.int32)  # the codes' low 32 bits
            codes = edges = None
            indptr = np.arange(0, indices.size + 1, degree, dtype=_offset_dtype(indices.size))
            return Graph(num_nodes, _out=(_CSR((_frozen(indptr), _frozen(indices))), indices.size // 2))
    raise GraphError(f"could not realize a {degree}-regular graph on {num_nodes} nodes")


def _try_stub_pairing(n: int, d: int, rng: np.random.Generator) -> np.ndarray | None:
    """Sorted pair codes ``u << 32 | v`` (u < v) of a d-regular pairing's edges, a view of the second half of
    one array of ``n * d`` int64 slots (their ``base``); None when a pass gets stuck.

    A pass keeps each shuffled stub pair that is no self-loop, taken edge or repeat within it. The draws
    depend only on the stub count and code order is ``(u, v)`` order, so the result is the scalar pairing's.
    Memory: a pass narrows its shuffled int64 stubs to int32 in place and writes its pair codes into the second half
    of their array; it finds repeats from one sorted copy of the codes, looks up only the pairs that share a source
    with a repeat, through a node-sized table, and adds the codes it keeps to the second half of the first pass's
    array (``codes``), after those kept before.
    """
    codes = stubs = np.empty(n * d, dtype=np.int64)
    codes.reshape(n, d)[:] = np.arange(n)[:, None]
    taken = codes[codes.size // 2 :][:0]
    while stubs.size:
        rng.shuffle(stubs)  # the draws do not depend on the item size, and 8-byte items swap fastest
        wide, stubs, keys = stubs, stubs.view(np.int32)[: stubs.size], stubs[stubs.size // 2 :]
        for at in range(0, wide.size, 2**16):  # in runs, so that only the first overlaps its source
            stubs[at : at + 2**16] = wide[at : at + 2**16]
        a, b = stubs[0::2], stubs[1::2]
        np.minimum(a, b, out=_halves(keys)[:, 1])
        np.maximum(a, b, out=_halves(keys)[:, 0])
        ok = a != b
        if taken.size:
            ok &= taken.take(taken.searchsorted(keys), mode="clip") != keys
        repeats = np.sort(keys)  # then only the repeated keys, so the full sorted copy is freed
        repeats = repeats[1:][repeats[1:] == repeats[:-1]]
        if repeats.size:  # a pair repeated within the pass: only its first copy may be kept
            sources = np.zeros(n, dtype=bool)
            sources[_halves(repeats)[:, 1]] = True
            where = np.flatnonzero(sources[_halves(keys)[:, 1]])
            where = where[repeats.take(repeats.searchsorted(keys[where]), mode="clip") == keys[where]]
            later = np.ones(where.size, dtype=bool)
            later[np.unique(keys[where], return_index=True)[1]] = False
            ok[where[later]] = False
        if not ok.any():
            return None  # stuck; caller restarts from scratch
        stubs = stubs.reshape(-1, 2)[~ok].ravel().astype(np.int64)
        keys = keys[ok]
        keys.sort()
        taken = codes[codes.size // 2 :][: taken.size + keys.size]
        taken[-keys.size :] = keys
        taken.sort(kind="stable")  # disjoint sorted runs: the stable sort merges them
    return taken


def check_barabasi_albert(num_nodes: int, m: int) -> None:
    """``GraphError`` unless ``m`` is in ``[1, num_nodes]``."""
    if m < 1:
        raise GraphError(f"m must be >= 1, got {m}")
    if num_nodes < m:
        raise GraphError(f"num_nodes {num_nodes} must be >= m {m}")


def generate_barabasi_albert(num_nodes: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph seeded with a complete graph on m nodes.

    Each of the remaining num_nodes - m nodes attaches to m distinct existing
    nodes chosen proportionally to degree. Edge count is exactly
    m * (num_nodes - m) + m * (m - 1) / 2.
    """
    check_barabasi_albert(num_nodes, m)
    src, dst = (pairs.tolist() for pairs in np.triu_indices(m, 1))
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
            src.append(v)
            dst.append(t)
            repeated.append(t)
        repeated.extend([v] * m)
    return Graph.from_edges(num_nodes, src, dst)[0]


def check_erdos_renyi(num_nodes: int, p: float) -> None:
    """``GraphError`` unless ``p`` is in ``[0, 1]``."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")


def generate_erdos_renyi(num_nodes: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) random graph via geometric edge skipping, O(n + E)."""
    check_erdos_renyi(num_nodes, p)
    if p == 0.0 or num_nodes < 2:
        return Graph(num_nodes)
    if p == 1.0:
        return Graph.from_edges(num_nodes, *np.triu_indices(num_nodes, 1))[0]
    src, dst = [], []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < num_nodes:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < num_nodes:
            w -= v
            v += 1
        if v < num_nodes:
            src.append(v)
            dst.append(w)
    return Graph.from_edges(num_nodes, src, dst)[0]


# ---------------------------------------------------------------------------
# Edge-list I/O.
# ---------------------------------------------------------------------------


def _scalar_edges(text: str, path) -> tuple[list[int], list[int], dict[int, int]]:
    id_map: dict[int, int] = {}
    src, dst = [], []
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected 2 fields, got {len(parts)}: {line!r}", line_no, path)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer node id in {line!r}", line_no, path) from None
        if a == b:
            raise EdgeListError(f"self-loop on node {a}", line_no, path)
        src.append(id_map.setdefault(a, len(id_map)))  # new ids in first-seen order
        dst.append(id_map.setdefault(b, len(id_map)))
    return src, dst, id_map


def load_edge_list(path, directed: bool = False, return_id_map: bool = False):
    """Load a whitespace-separated integer-pair edge list.

    Lines starting with ``#`` and blank lines are skipped; a ``#`` anywhere else is an error. Node ids are
    remapped to dense 0-based ids in first-seen order; duplicate edges collapse (count logged). ``np.loadtxt``
    reads the file from its path; a file it refuses is read line by line, and an error names its file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file with no data
            pairs = np.loadtxt(path, dtype=np.int64, ndmin=2, encoding="utf-8")
        if pairs.shape[1] != 2 or (pairs[:, 0] == pairs[:, 1]).any() or "#" in text and any(
            line.lstrip().find("#") > 0 for line in text.split("\n")):  # loadtxt drops "1 2 # x"
            raise ValueError("a line that is not two distinct ids")
    except (ValueError, Warning):  # line by line, naming the file and line of any error
        src, dst, id_map = _scalar_edges(text, path)
    else:  # sort the ids once: each run of equal ids is one node
        flat = pairs.ravel()
        order = flat.argsort()
        ids = flat[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        by_first = np.minimum.reduceat(order, starts).argsort()  # the runs, by the first position of their id
        flat[order] = np.repeat(by_first.argsort(), np.diff(starts, append=ids.size))  # raw ids become dense ids
        id_map = dict(zip(ids[starts[by_first]].tolist(), range(by_first.size)))
        src, dst = flat.reshape(-1, 2).T
        del order, ids  # not held while the graph is built
    g, duplicates = Graph.from_edges(len(id_map), src, dst, directed)
    if duplicates:
        logger.info("edge list %s: collapsed %d duplicate edges", path, duplicates)
    return (g, id_map) if return_id_map else g


def write_atomic(path, text: str | tuple[str, ...]) -> None:
    """Write ``text`` (or its pieces, in order) via ``<name>.tmp`` (not ``*.json``) and ``os.replace``. A failure leaves
    no temp, and no parent directory that this call made and that is still empty."""
    path = Path(path)
    made = [parent for parent in path.parents if not parent.exists()]  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        with suppress(OSError):  # a directory that is not empty ends the removal, as every one above holds it
            for parent in made:
                parent.rmdir()
        raise


def id_texts(num_nodes: int) -> np.ndarray:
    """Object array whose entry v is the decimal text of node id v."""
    return np.array(list(map(str, range(num_nodes))), dtype=object)


def write_edge_list(graph: Graph, path) -> None:
    """Write edges as whitespace-separated pairs, one per line, sorted; atomically."""
    ids, (src, dst) = id_texts(graph.num_nodes), graph.edge_arrays()
    write_atomic(path, "".join(np.stack(((ids + " ")[src], (ids + "\n")[dst]), axis=1).ravel().tolist()))
