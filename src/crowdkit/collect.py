"""Data collection and result files.

Collector files are JSON documents ``{"name": ..., "entries": [{"iteration",
"value"}, ...]}`` with iterations strictly increasing. Values are numbers or
flat string-to-number maps (one map shape per series). ``SeriesRecorder``
holds these rules, and ``check_collector`` reads every collector document by
them (``read_collector``, the merges and the charts): a document passes only
if a run could have written each of its series. A snapshot is one
compact JSON file (graph + states + attributes + network params), edge columns
as ``{"pairs": [u0, v0, ...], "values": [...]}`` in (u, v) order; ``crowdkit export`` gives GEXF.

``write_snapshot`` writes the text of ``json.dumps(document, separators=(",", ":"))`` from arrays, in pieces of at
most ``_CHUNK`` entries: links and in-range pairs join one table of node-id texts, and a float column (edge, or node
with a value at every node) at most half distinct encodes each distinct value once; the rest is ``json.dumps``. A
run passes one ``texts`` dict to all its snapshots, so it builds its id texts and encodes unchanged links and numeric
columns once: a text's pieces are reused while the arrays they were built from stay bit-equal to the copies kept.

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
from .graph import AttributeColumn, AttributeTable, Graph, NodeStates, id_texts, write_atomic

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


def _shape(value: Value) -> tuple | None:
    """A map value's sorted key set, or None for a number."""
    return tuple(sorted(value)) if isinstance(value, dict) else None


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
        shape = _shape(clean)
        if self.entries and shape != self._shape:
            was, got = ("scalar" if keys is None else f"map with keys {list(keys)}" for keys in (self._shape, shape))
            raise CollectError(f"series {self.name!r}: value shape changed at iteration {iteration} (was {was}, got {got})")
        self._shape = shape
        self.entries.append({"iteration": iteration, "value": clean})

    def as_document(self) -> dict:
        return {"name": self.name, "entries": self.entries}


def check_collector(document: dict, where: str, labeled: bool = False) -> list[tuple[str, list[dict]]]:
    """``[(name, entries)]`` of a collector document, or with ``labeled`` ``[(label, entries)]`` of a labelled one,
    if a run could have written every series: each entry is exactly ``{"iteration": int, "value": ...}`` and the
    entries replay through a ``SeriesRecorder``. Else ``CollectError`` naming ``where``."""
    found, key = (document.get("series"), "label") if labeled else ([document], "name")
    if not isinstance(found, list) or not all(
            isinstance(s, dict) and isinstance(s.get(key), str) and isinstance(s.get("entries"), list) for s in found):
        raise CollectError(f"not a collector document: {where}: " + ("'series' must be a list of objects with a"
                           if labeled else "it needs a") + f" {key!r} string and an 'entries' list")
    for series in found:
        recorder = SeriesRecorder(series[key])
        for i, entry in enumerate(series["entries"]):
            if not isinstance(entry, dict) or entry.keys() != {"iteration", "value"} or type(entry["iteration"]) is not int:
                raise CollectError(f"{where}: series {series[key]!r}: entry {i} is not {{iteration: int, value}}")
            try:
                recorder.record(entry["iteration"], entry["value"])
            except CollectError as exc:
                raise CollectError(f"{where}: {exc}") from exc
    return [(series[key], series["entries"]) for series in found]


def _dump_json(document: dict, path: Path) -> None:
    write_atomic(path, json.dumps(document, indent=2) + "\n")


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise CollectError(f"no such result file: {path}") from None
    except OSError as exc:  # a directory in the file's place, a file it may not read
        raise CollectError(f"cannot read result file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes that are no UTF-8
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
    """A run's (or ``merge mean``'s) collector document, checked by ``check_collector``."""
    document = _load_json(Path(path))
    check_collector(document, str(path))
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
_CHUNK = 2**15  # entries per piece of a snapshot text: no gather, list or joined string spans a whole column


def _joined(size: int, text) -> list[str]:
    """``text(slice(0, size))`` in pieces: ``text`` of each run of at most ``_CHUNK`` entries, commas between."""
    pieces = []
    for start in range(0, size, _CHUNK):
        pieces += (",", text(slice(start, start + _CHUNK)))
    return pieces[1:]


def _floats_json(values: np.ndarray) -> list[str]:
    """``_dumps(values.tolist())`` in pieces, encoding each distinct value once when at most half are distinct."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)  # by bits: -0.0 is not 0.0
    if distinct.size * 2 > values.size:
        return ["[", *_joined(values.size, lambda at: _dumps(values[at].tolist())[1:-1]), "]"]
    encoded = np.array(_dumps(distinct.view(np.float64).tolist())[1:-1].split(","), dtype=object)
    return ["[", *_joined(values.size, lambda at: ",".join(encoded[inverse[at]].tolist())), "]"]


def _column_json(key: str, column: AttributeColumn, ids: np.ndarray) -> list[str]:
    """``"key":`` and the column's snapshot text, in pieces; ``ids[v]`` is node id v's text (node keys are in range)."""
    n, (codes, values), name = ids.size, column.arrays(), _dumps({key: 0})[1:-2]  # the key as json.dumps writes it
    if not column.edge:  # one entry per node, null where it has no value
        full = codes.size == n and values.dtype == float
        return [name, *(_floats_json(values) if full else [_dumps(column.take(np.arange(n), None).tolist())])]

    def pairs_text(at: slice) -> str:  # node ids from their table, other ids as json.dumps writes them
        pairs = column.ids(at).ravel()  # in (u, v) order
        return ",".join(ids[pairs].tolist() if pairs.min() >= 0 and pairs.max() < n else map(str, pairs.tolist()))
    values_text = _floats_json(values) if values.dtype == float else [_dumps(values.tolist())]
    return [name, '{"pairs":[', *_joined(codes.size, pairs_text), '],"values":', *values_text, "}"]


def _reuse(texts: dict, role: str, encode, *arrays: np.ndarray) -> list[str] | np.ndarray:
    """``texts[role]``'s encoded value (a text's pieces, or the id-text table) while ``arrays`` are bit-equal (dtype
    and bytes: -0.0 and NaN payloads count) to the copies kept with it, else ``encode()``, kept with copies. Object
    arrays hold references: never reused."""
    if role not in texts or not all(a.dtype == b.dtype != object and np.array_equal(
            np.ascontiguousarray(a).view(np.uint8), b.view(np.uint8)) for a, b in zip(arrays, texts[role][1])):
        texts[role] = (encode(), [a.copy() for a in arrays])
    return texts[role][0]


def write_snapshot(
    iteration: int,
    graph: Graph,
    states: Mapping[int, str],
    attrs: AttributeTable,
    net_params: dict[str, Any],
    run_dir,
    *,
    texts: dict | None = None,
) -> list[Path]:
    """Write ``snapshot_path(run_dir, iteration)`` (node-attribute keys checked to be node ids in range) in pieces."""
    path = snapshot_path(run_dir, iteration)
    n, node_attrs, edge_attrs, texts = graph.num_nodes, [], [], {} if texts is None else texts
    for key, column in attrs.node.items():
        try:
            column.check_nodes(n)
        except GraphError as exc:
            raise CollectError(f"cannot write {path.name}: attribute {key!r}: {exc}") from exc
    states = states if isinstance(states, NodeStates) else NodeStates.from_mapping(states, n)
    size, (src, dst) = np.array([n]), graph.edge_arrays()
    ids = _reuse(texts, "ids", lambda: id_texts(n), size)
    for side, columns, out in (("node", attrs.node, node_attrs), ("edge", attrs.edge, edge_attrs)):
        for key in sorted(columns):  # each after a comma; the first comma is dropped below
            out += (",", *_reuse(texts, f"{side}:{key}", lambda: _column_json(key, columns[key], ids),
                                 size, *columns[key].arrays()))
    ends = _reuse(texts, "ends", lambda: np.concatenate(("[" + ids, ids + "]")), size)  # "[v" and "v]" of each v
    links = _reuse(texts, "links", lambda: _joined(src.size, lambda at: ",".join(  # "[u", "v]", ...
        ends[np.stack((src[at], dst[at] + n), axis=1).ravel()].tolist())), size, src, dst)
    write_atomic(path, (
        '{"iteration":', _dumps(iteration), ',"graph":{"directed":', _dumps(graph.directed), ',"nodes":', _dumps(n),
        ',"links":[', *links, ']},"states":', _dumps(states.column()), ',"node_attrs":{', *node_attrs[1:],
        '},"edge_attrs":{', *edge_attrs[1:], '},"net_params":', _dumps(dict(sorted(net_params.items()))), "}\n",
    ))
    return [path]


def read_snapshot(path) -> tuple[int, Graph, dict[int, str], AttributeTable, dict[str, Any]]:
    """Rebuild (iteration, graph, states, attrs, net_params) from a JSON snapshot."""
    doc = _load_json(Path(path))
    try:
        g = doc["graph"]
        links = np.array(g["links"] or np.empty((0, 2), dtype=np.int64))  # ragged links raise ValueError here
        as_given = links.dtype.kind not in "iu" or links.shape[1:] != (2,)  # so that the error names a bad id
        src, dst = zip(*g["links"], strict=True) if as_given else links.T
        graph, _ = Graph.from_edges(g["nodes"], src, dst, g["directed"])
        states = doc["states"]  # as a run writes them: a node type or null at every node
        if not isinstance(states, list) or len(states) != graph.num_nodes or not all(
                s is None or isinstance(s, str) for s in states):
            raise ValueError(f"states must list a node type (a string) or null for each of {graph.num_nodes} nodes")
        states = {i: s for i, s in enumerate(states) if s is not None}
        attrs = AttributeTable()
        for key, values in doc["node_attrs"].items():
            held = [i for i, value in enumerate(values) if value is not None]
            attrs.set_node_column(key, [values[i] for i in held], held)
        for key, column in doc["edge_attrs"].items():
            pairs, values = np.array(column["pairs"]), column["values"]
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


def snapshot_path(run_dir, iteration) -> Path:
    """Where a run writes its snapshot of ``iteration``: ``<run_dir>/snapshots/iter_<iteration>.json``."""
    return Path(run_dir) / SNAPSHOT_DIR / f"iter_{iteration}.json"


def list_snapshots(run_dir) -> list[Path]:
    """Every ``snapshot_path(run_dir, i)`` that exists, by ``i``."""
    stems = (path.stem.partition("_")[2] for path in Path(run_dir).glob(str(snapshot_path("", "*"))))
    return [snapshot_path(run_dir, i) for i in sorted(int(s) for s in stems if s.isdecimal() and str(int(s)) == s)]


# ---------------------------------------------------------------------------
# Merging.
# ---------------------------------------------------------------------------


def merge_batches(documents: list[dict], sources: list[str] | None = None) -> dict:
    """Average one collector across batch runs, entry by entry.

    Each document must pass ``check_collector``, and all must agree on name,
    iteration grid and value shape; a mismatch raises with the offending
    source named. The mean uses ``math.fsum``, so the result is independent
    of batch order.
    """

    def mean(values: list) -> Value:
        """The values' mean, key by key for maps; where ``math.fsum`` overflows, the exact mean rounded once."""
        if isinstance(values[0], dict):
            return {key: mean([value[key] for value in values]) for key in values[0]}
        try:
            return math.fsum(values) / len(values)
        except OverflowError:  # finite values whose sum passes the float maximum
            from fractions import Fraction  # imported here: no other mean needs it
            return float(sum(map(Fraction, values)) / len(values))

    if not documents:
        raise CollectError("nothing to merge")
    if sources is None:
        sources = [f"input {i}" for i in range(len(documents))]
    checked = [check_collector(doc, source)[0] for doc, source in zip(documents, sources)]
    name, first = checked[0]
    grid = [entry["iteration"] for entry in first]
    for (doc_name, entries), source in zip(checked, sources):
        if doc_name != name:
            raise CollectError(f"{source}: collector name {doc_name!r} does not match {name!r}")
        if [entry["iteration"] for entry in entries] != grid:
            raise CollectError(f"{source}: iteration grid differs from {sources[0]} ({len(entries)} vs {len(grid)} entries)")
        if grid and _shape(entries[0]["value"]) != _shape(first[0]["value"]):
            raise CollectError(f"{source}: value shape does not match {sources[0]}")
    entries = [{"iteration": iteration, "value": mean([series[idx]["value"] for _, series in checked])}
               for idx, iteration in enumerate(grid)]
    return {"name": name, "aggregation": "mean", "sources": list(sources), "entries": entries}


def merge_labeled(documents: list[dict], labels: list[str]) -> dict:
    """Stack collectors from different runs into one labeled document."""
    if not documents:
        raise CollectError("nothing to merge")
    if len(documents) != len(labels):
        raise CollectError(f"{len(documents)} documents for {len(labels)} labels")
    checked = [check_collector(doc, label)[0] for doc, label in zip(documents, labels)]
    name = checked[0][0]
    for (doc_name, _), label in zip(checked, labels):
        if doc_name != name:
            raise CollectError(f"{label}: collector name {doc_name!r} does not match {name!r}")
    series = [{"label": label, "entries": entries} for label, (_, entries) in zip(labels, checked)]
    return {"name": name, "aggregation": "labeled", "series": series}


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

    Merges every collector name present in the first batch (or just ``collector_name``); writes results to
    <parent>/merged/<name>.json once every name has merged, so a refusal writes none. A batch whose run recorded
    an error, or wrote no run meta (it did not finish), is refused by name.
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
    merged = [merge_batches([read_collector(batch / COLLECTOR_DIR / f"{name}.json") for batch in batches],
                            [batch.name for batch in batches]) for name in names]  # every name, before any is written
    written = [parent / MERGED_DIR / f"{name}.json" for name in names]
    for document, path in zip(merged, written):
        _dump_json(document, path)
    return written


def merge_simulations(run_dirs: list, labels: list[str], collector_name: str, out_path) -> Path:
    """Stack one collector from several runs into a labeled document on disk."""
    documents = [read_collector(Path(d) / COLLECTOR_DIR / f"{collector_name}.json") for d in run_dirs]
    _dump_json(merge_labeled(documents, labels), Path(out_path))
    return Path(out_path)
