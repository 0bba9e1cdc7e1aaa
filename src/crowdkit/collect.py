"""Data collection and result files.

Collector files are JSON documents ``{"name": ..., "entries": [{"iteration",
"value"}, ...]}`` with iterations strictly increasing. Values are numbers or
flat string-to-number maps (one map shape per series). A snapshot is one
compact JSON file (graph + states + attributes + network params), edge columns
as ``{"pairs": [u0, v0, ...], "values": [...]}`` in (u, v) order; ``crowdkit export`` gives GEXF.

``write_snapshot`` writes the text of ``json.dumps(document, separators=(",", ":"))`` from arrays:
links and in-range pairs join one table of node-id texts, and a float column (edge, or node with a
value at every node) at most half distinct encodes each distinct value once; the rest is ``json.dumps``.

Merging: ``merge_batches`` averages a collector across sibling batch runs
entry-by-entry (exact up to float addition, permutation-invariant via
``math.fsum``); ``merge_labeled`` stacks collectors from different runs into
one labeled document for comparison charts.
"""

from __future__ import annotations

import json
import math
import os  # noqa: F401 -- kept so that ``crowdkit.collect.os.replace`` stays patchable
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Union

import numpy as np

from .errors import CollectError, GraphError
from .gexf import gexf_document
from .graph import AttributeTable, Graph, NodeStates, write_atomic

Value = Union[int, float, dict]

COLLECTOR_DIR = "collectors"
SNAPSHOT_DIR = "snapshots"
MERGED_DIR = "merged"
SUMMARY_FILE = "summary.json"
RUN_META_FILE = "run-meta.json"


def _coerce_number(value, where: str) -> int | float:
    if isinstance(value, bool):
        raise CollectError(f"{where}: booleans are not recordable values")
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise CollectError(f"{where}: non-finite value {value!r}")
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        out = float(value)
        if not math.isfinite(out):
            raise CollectError(f"{where}: non-finite value {out!r}")
        return out
    raise CollectError(f"{where}: expected a number, got {type(value).__name__}")


def coerce_value(value, where: str = "value") -> Value:
    """Validate/coerce a recorded value: number, or flat str->number map."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CollectError(f"{where}: map keys must be strings, got {key!r}")
            out[key] = _coerce_number(item, f"{where}[{key!r}]")
        return out
    return _coerce_number(value, where)


class SeriesRecorder:
    """One named series of (iteration, value) entries.

    Iterations must be strictly increasing, and the value shape (scalar, or
    a map with a fixed key set) must stay the same across the series.
    """

    def __init__(self, name: str):
        self.name = name
        self.entries: list[dict] = []
        self._shape: tuple | None = None

    def record(self, iteration: int, value) -> None:
        if self.entries and iteration <= self.entries[-1]["iteration"]:
            raise CollectError(
                f"series {self.name!r}: iteration {iteration} not after {self.entries[-1]['iteration']}"
            )
        clean = coerce_value(value, f"series {self.name!r}")
        shape = ("map", tuple(sorted(clean))) if isinstance(clean, dict) else ("scalar",)
        if self._shape is None:
            self._shape = shape
        elif shape != self._shape:
            raise CollectError(
                f"series {self.name!r}: value shape changed at iteration {iteration} "
                f"(was {self._shape[0]}, got {shape[0]}"
                + (f" with keys {list(shape[1])}" if len(shape) > 1 and shape[0] == self._shape[0] else "")
                + ")"
            )
        self.entries.append({"iteration": iteration, "value": clean})

    def as_document(self) -> dict:
        return {"name": self.name, "entries": self.entries}


def _dump_json(document: dict, path: Path) -> None:
    write_atomic(path, json.dumps(document, indent=2) + "\n")


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise CollectError(f"no such result file: {path}") from None
    except json.JSONDecodeError as exc:
        raise CollectError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(document, dict):  # every result file holds one object
        raise CollectError(f"not a JSON object: {path}")
    return document


def write_collectors(recorders, run_dir) -> list[Path]:
    """Write every recorder to <run_dir>/collectors/<name>.json."""
    out = []
    for recorder in recorders:
        path = Path(run_dir) / COLLECTOR_DIR / f"{recorder.name}.json"
        _dump_json(recorder.as_document(), path)
        out.append(path)
    return out


def read_collector(path) -> dict:
    document = _load_json(Path(path))
    if "entries" not in document or "name" not in document:
        raise CollectError(f"not a collector document: {path}")
    return document


def write_summary(summary: dict, run_dir) -> Path:
    path = Path(run_dir) / SUMMARY_FILE
    clean = {key: coerce_value(val, f"summary[{key!r}]") for key, val in summary.items()}
    _dump_json(clean, path)
    return path


def read_summary(run_dir) -> dict:
    return _load_json(Path(run_dir) / SUMMARY_FILE)


# ---------------------------------------------------------------------------
# Snapshots.
# ---------------------------------------------------------------------------


_dumps = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(..., separators=(",", ":"))


def _floats_json(values: np.ndarray) -> str:
    """``_dumps(values.tolist())``, encoding each distinct value once when at most half are distinct."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)  # by bits: -0.0 is not 0.0
    if distinct.size * 2 > values.size:
        return _dumps(values.tolist())
    encoded = np.array(_dumps(distinct.view(np.float64).tolist())[1:-1].split(","), dtype=object)
    return "[" + ",".join(encoded[inverse].tolist()) + "]"


def write_snapshot(
    iteration: int,
    graph: Graph,
    states: Mapping[int, str],
    attrs: AttributeTable,
    net_params: dict[str, Any],
    run_dir,
) -> list[Path]:
    """Write <run_dir>/snapshots/iter_<i>.json (node-attribute keys checked to be node ids in range)."""
    path = Path(run_dir) / SNAPSHOT_DIR / f"iter_{iteration}.json"
    n, node_attrs, edge_attrs = graph.num_nodes, [], []
    for key, column in attrs.node.items():
        try:
            column.check_nodes(n)
        except GraphError as exc:
            raise CollectError(f"cannot write {path.name}: attribute {key!r}: {exc}") from exc
    states = states if isinstance(states, NodeStates) else NodeStates.from_mapping(states, n)
    ids = np.array(_dumps(list(range(n)))[1:-1].split(","), dtype=object)  # ids[v] is the text of v
    src, dst = graph.edge_arrays()
    for key in sorted(attrs.node):
        nodes, values = attrs.node[key].arrays()
        if nodes.size == n and values.dtype == float:
            text = _floats_json(values)
        else:
            full = np.full(n, None, dtype=object)  # None where a node has no value
            full[nodes] = values
            text = _dumps(full.tolist())
        node_attrs.append(_dumps({key: 0})[1:-2] + text)  # the key as json.dumps writes it
    for key in sorted(attrs.edge):
        pairs, values = attrs.edge[key].ids().ravel(), attrs.edge[key].arrays()[1]  # in (u, v) order
        in_range = not pairs.size or (pairs.min() >= 0 and pairs.max() < n)
        values = _floats_json(values) if values.dtype == float else _dumps(values.tolist())
        pairs_text = "[" + ",".join(ids[pairs].tolist()) + "]" if in_range else _dumps(pairs.tolist())
        edge_attrs.append(_dumps({key: 0})[1:-2] + '{"pairs":' + pairs_text + ',"values":' + values + "}")
    links = np.stack((("[" + ids)[src], (ids + "]")[dst]), axis=1).ravel().tolist()  # "[u", "v]", ...
    write_atomic(path, "".join((
        '{"iteration":', _dumps(iteration), ',"graph":{"directed":', _dumps(graph.directed), ',"nodes":', _dumps(n),
        ',"links":[', ",".join(links), ']},"states":', _dumps(states.column()), ',"node_attrs":{', ",".join(node_attrs),
        '},"edge_attrs":{', ",".join(edge_attrs), '},"net_params":', _dumps(dict(sorted(net_params.items()))), "}\n",
    )))
    return [path]


def read_snapshot(path) -> tuple[int, Graph, dict[int, str], AttributeTable, dict[str, Any]]:
    """Rebuild (iteration, graph, states, attrs, net_params) from a JSON snapshot."""
    doc = _load_json(Path(path))
    try:
        g = doc["graph"]
        src, dst = zip(*g["links"], strict=True) if g["links"] else ((), ())
        graph, _ = Graph.from_edges(g["nodes"], src, dst, g["directed"])
        states = {i: s for i, s in enumerate(doc["states"]) if s is not None}
        attrs = AttributeTable()
        for key, values in doc["node_attrs"].items():
            held = [i for i, value in enumerate(values) if value is not None]
            attrs.set_node_column(key, [values[i] for i in held], held)
        for key, column in doc["edge_attrs"].items():
            pairs, values = column["pairs"], column["values"]
            if len(pairs) != 2 * len(values):
                raise ValueError(f"edge attribute {key!r}: {len(pairs)} pair ids for {len(values)} values")
            attrs.set_edge_column(key, values, (pairs[0::2], pairs[1::2]))
        return doc["iteration"], graph, states, attrs, dict(doc["net_params"])
    except (KeyError, ValueError, TypeError, GraphError) as exc:
        raise CollectError(f"malformed snapshot {path}: {exc}") from exc


def write_gexf(graph: Graph, path, states: dict[int, str] | None = None, attrs: AttributeTable | None = None) -> None:
    """Write the graph with node types and attributes to a GEXF 1.2 file, atomically."""
    write_atomic(Path(path), gexf_document(graph, states, attrs))


def export_gexf(snapshot_path, out_path) -> None:
    """Write the GEXF form of a JSON snapshot to ``out_path``."""
    _, graph, states, attrs, _ = read_snapshot(snapshot_path)
    write_gexf(graph, out_path, states, attrs)


def list_snapshots(run_dir) -> list[Path]:
    snap_dir = Path(run_dir) / SNAPSHOT_DIR
    if not snap_dir.is_dir():
        return []
    paths = [p for p in snap_dir.iterdir() if p.suffix == ".json" and p.stem.startswith("iter_")]
    return sorted(paths, key=lambda p: int(p.stem.split("_", 1)[1]))


# ---------------------------------------------------------------------------
# Merging.
# ---------------------------------------------------------------------------


def _entry_iterations(document: dict) -> list[int]:
    return [entry["iteration"] for entry in document["entries"]]


def merge_batches(documents: list[dict], sources: list[str] | None = None) -> dict:
    """Average one collector across batch runs, entry by entry.

    All documents must agree on name, length, iteration grid, and value shape;
    a mismatch raises with the offending source named. The mean uses
    ``math.fsum``, so the result is independent of batch order.
    """
    if not documents:
        raise CollectError("nothing to merge")
    if sources is None:
        sources = [f"input {i}" for i in range(len(documents))]
    first = documents[0]
    name = first["name"]
    grid = _entry_iterations(first)
    for doc, source in zip(documents, sources):
        if doc["name"] != name:
            raise CollectError(f"{source}: collector name {doc['name']!r} does not match {name!r}")
        if _entry_iterations(doc) != grid:
            raise CollectError(
                f"{source}: iteration grid differs from {sources[0]} "
                f"({len(doc['entries'])} vs {len(grid)} entries)"
            )
    entries = []
    for idx, iteration in enumerate(grid):
        values = [doc["entries"][idx]["value"] for doc in documents]
        if isinstance(values[0], dict):
            keys = list(values[0].keys())
            for value, source in zip(values, sources):
                if not isinstance(value, dict) or list(value.keys()) != keys:
                    raise CollectError(
                        f"{source}: value keys at iteration {iteration} do not match {sources[0]}"
                    )
            mean: Value = {
                key: math.fsum(value[key] for value in values) / len(values) for key in keys
            }
        else:
            for value, source in zip(values, sources):
                if isinstance(value, dict):
                    raise CollectError(
                        f"{source}: scalar/map value shape at iteration {iteration} does not match {sources[0]}"
                    )
            mean = math.fsum(values) / len(values)
        entries.append({"iteration": iteration, "value": mean})
    return {"name": name, "aggregation": "mean", "sources": list(sources), "entries": entries}


def merge_labeled(documents: list[dict], labels: list[str]) -> dict:
    """Stack collectors from different runs into one labeled document."""
    if not documents:
        raise CollectError("nothing to merge")
    if len(documents) != len(labels):
        raise CollectError(f"{len(documents)} documents for {len(labels)} labels")
    name = documents[0]["name"]
    for doc, label in zip(documents, labels):
        if doc["name"] != name:
            raise CollectError(f"{label}: collector name {doc['name']!r} does not match {name!r}")
    return {
        "name": name,
        "aggregation": "labeled",
        "series": [{"label": label, "entries": doc["entries"]} for label, doc in zip(labels, documents)],
    }


def batch_dirs(parent_dir) -> list[Path]:
    """The batch-<k> run directories under a parent, sorted by index."""
    parent = Path(parent_dir)
    if not parent.is_dir():
        raise CollectError(f"no such directory: {parent}")
    found = []
    for child in parent.iterdir():
        if child.is_dir() and child.name.startswith("batch-"):
            suffix = child.name[len("batch-") :]
            if suffix.isdigit():
                found.append((int(suffix), child))
    return [path for _, path in sorted(found)]


def merge_parent_directory(parent_dir, collector_name: str | None = None) -> list[Path]:
    """Mean-merge collectors across every batch under a parent directory.

    Merges every collector name present in the first batch (or just
    ``collector_name``); writes results to <parent>/merged/<name>.json.
    A batch whose run recorded an error, or wrote no run meta (it did not finish), is refused by name.
    """
    parent = Path(parent_dir)
    batches = batch_dirs(parent)
    if not batches:
        raise CollectError(f"no batch-<k> directories under {parent}")
    for batch in batches:  # else a failed or unfinished run shows only as a series that does not match
        error = _load_json(batch / RUN_META_FILE).get("error")
        if error is not None:
            raise CollectError(f"{batch.name}: its run failed: {error}")
    first_dir = batches[0] / COLLECTOR_DIR
    if collector_name is not None:
        names = [collector_name]
    else:
        if not first_dir.is_dir():
            raise CollectError(f"no collectors directory in {batches[0]}")
        names = sorted(p.stem for p in first_dir.iterdir() if p.suffix == ".json")
        if not names:
            raise CollectError(f"no collector files in {first_dir}")
    written = []
    for name in names:
        documents = []
        sources = []
        for batch in batches:
            documents.append(read_collector(batch / COLLECTOR_DIR / f"{name}.json"))
            sources.append(batch.name)
        merged = merge_batches(documents, sources)
        out_path = parent / MERGED_DIR / f"{name}.json"
        _dump_json(merged, out_path)
        written.append(out_path)
    return written


def merge_simulations(run_dirs: list, labels: list[str], collector_name: str, out_path) -> Path:
    """Stack one collector from several runs into a labeled document on disk."""
    documents = [read_collector(Path(d) / COLLECTOR_DIR / f"{collector_name}.json") for d in run_dirs]
    merged = merge_labeled(documents, labels)
    path = Path(out_path)
    _dump_json(merged, path)
    return path
