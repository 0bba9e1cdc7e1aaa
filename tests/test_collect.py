"""Series recording, JSON persistence, snapshots, and batch merging."""

from __future__ import annotations

import json
import math
import struct
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    AttributeTable,
    CollectError,
    Graph,
    GraphError,
    SeriesRecorder,
    list_snapshots,
    merge_batches,
    merge_labeled,
    merge_parent_directory,
    merge_simulations,
    read_collector,
    read_snapshot,
    write_snapshot,
)
from crowdkit import collect
from crowdkit.collect import (
    COLLECTOR_DIR,
    RUN_META_FILE,
    batch_dirs,
    read_summary,
    snapshot_path,
    write_collectors,
    write_summary,
)
from crowdkit.graph import NodeStates
from conftest import column_kind


def series_doc(name: str, values: list) -> dict:
    rec = SeriesRecorder(name)
    for i, v in enumerate(values):
        rec.record(i, v)
    return rec.as_document()


# ---------------------------------------------------------------------------
# SeriesRecorder
# ---------------------------------------------------------------------------


class TestSeriesRecorder:
    def test_fifty_scalars(self):
        rec = SeriesRecorder("wealth")
        for i in range(50):
            rec.record(i, float(i) * 1.5)
        doc = rec.as_document()
        assert doc["name"] == "wealth"
        assert len(doc["entries"]) == 50
        assert doc["entries"][7] == {"iteration": 7, "value": 10.5}

    def test_map_values(self):
        rec = SeriesRecorder("counts")
        rec.record(0, {"I": 10, "S": 90})
        rec.record(1, {"S": 85, "I": 15})
        doc = rec.as_document()
        assert doc["entries"][1]["value"] == {"S": 85, "I": 15}

    def test_shape_change_rejected(self):
        rec = SeriesRecorder("counts")
        rec.record(0, {"I": 1, "T": 2, "U": 3})
        with pytest.raises(CollectError):
            rec.record(1, 42.0)

    def test_map_key_change_rejected(self):
        rec = SeriesRecorder("counts")
        rec.record(0, {"I": 1, "T": 2})
        with pytest.raises(CollectError):
            rec.record(1, {"I": 1, "U": 2})

    def test_iterations_strictly_increase(self):
        rec = SeriesRecorder("x")
        rec.record(3, 1.0)
        with pytest.raises(CollectError):
            rec.record(3, 2.0)
        with pytest.raises(CollectError):
            rec.record(2, 2.0)

    def test_bool_rejected(self):
        rec = SeriesRecorder("x")
        with pytest.raises(CollectError):
            rec.record(0, True)

    def test_non_finite_rejected(self):
        rec = SeriesRecorder("x")
        with pytest.raises(CollectError):
            rec.record(0, float("nan"))
        with pytest.raises(CollectError):
            rec.record(1, float("inf"))

    def test_non_numeric_rejected(self):
        rec = SeriesRecorder("x")
        with pytest.raises(CollectError):
            rec.record(0, "fast")

    def test_numpy_scalars_coerced(self):
        rec = SeriesRecorder("x")
        rec.record(0, np.float64(1.25))
        rec.record(1, np.int64(4))
        doc = rec.as_document()
        assert doc["entries"][0]["value"] == 1.25
        assert isinstance(doc["entries"][0]["value"], float)
        assert doc["entries"][1]["value"] == 4
        assert isinstance(doc["entries"][1]["value"], int)

    def test_empty_series_still_has_document(self):
        doc = SeriesRecorder("quiet").as_document()
        assert doc == {"name": "quiet", "entries": []}


# ---------------------------------------------------------------------------
# Collector file round-trip
# ---------------------------------------------------------------------------


class TestCollectorFiles:
    def test_write_and_read(self, tmp_path):
        rec = SeriesRecorder("signal")
        rec.record(0, 1.0)
        rec.record(1, 2.0)
        paths = write_collectors([rec], tmp_path)
        assert len(paths) == 1
        assert paths[0] == tmp_path / COLLECTOR_DIR / "signal.json"
        doc = read_collector(paths[0])
        assert doc == rec.as_document()

    def test_empty_series_written(self, tmp_path):
        paths = write_collectors([SeriesRecorder("quiet")], tmp_path)
        doc = read_collector(paths[0])
        assert doc["entries"] == []

    def test_read_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        with pytest.raises(CollectError):
            read_collector(bad)

    def test_summary_round_trip(self, tmp_path):
        write_summary({"epochs": 50, "final": {"S": 1, "I": 0}}, tmp_path)
        doc = read_summary(tmp_path)
        assert doc == {"epochs": 50, "final": {"S": 1, "I": 0}}


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshots:
    def build(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        states = {0: "A", 1: "B", 2: "A", 3: "B"}
        attrs = AttributeTable()
        attrs.set_node(0, "age", 12.5)
        attrs.set_node(3, "age", 60.0)
        attrs.set_edge(0, 1, "influence_prob", 0.5)
        attrs.set_edge(1, 0, "influence_prob", 0.25)
        params = {"R_T": 6.0, "r_UT": 0.5}
        return g, states, attrs, params

    def test_round_trip_identity(self, tmp_path):
        g, states, attrs, params = self.build()
        [json_path] = write_snapshot(17, g, states, attrs, params, tmp_path)
        assert json_path.name == "iter_17.json"
        it, g2, states2, attrs2, params2 = read_snapshot(json_path)
        assert it == 17
        assert sorted(g2.edges()) == sorted(g.edges())
        assert g2.num_nodes == 4
        assert states2 == states
        assert attrs2 == attrs
        assert params2 == params

    def test_export_of_run_snapshot_loads(self, tmp_path):
        from click.testing import CliRunner

        from crowdkit import load_gexf
        from crowdkit.cli import main

        g, states, attrs, params = self.build()
        write_snapshot(3, g, states, attrs, params, tmp_path)
        assert [p.name for p in (tmp_path / "snapshots").iterdir()] == ["iter_3.json"]
        out = tmp_path / "snap.gexf"
        res = CliRunner().invoke(main, ["export", str(tmp_path), "--iteration", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        g2, states2, attrs2 = load_gexf(out)
        assert (g2.num_nodes, g2.directed, sorted(g2.edges())) == (4, False, sorted(g.edges()))
        assert states2 == states
        assert attrs2 == attrs

    def test_list_snapshots_numeric_order(self, tmp_path):
        g, states, attrs, params = self.build()
        for it in [0, 5, 10, 2]:
            write_snapshot(it, g, states, attrs, params, tmp_path)
        paths = list_snapshots(tmp_path)
        assert [p.name for p in paths] == [
            "iter_0.json",
            "iter_2.json",
            "iter_5.json",
            "iter_10.json",
        ]

    def test_list_snapshots_missing_dir(self, tmp_path):
        assert list_snapshots(tmp_path) == []

    def test_list_snapshots_lists_only_the_files_snapshot_path_names(self, tmp_path):
        g, states, attrs, params = self.build()
        for it in [3, 12]:
            write_snapshot(it, g, states, attrs, params, tmp_path)
        for stray in ("iter_x.json", "iter_.json", "iter_007.json", "iter_-1.json", "other_4.json", "iter_5.txt"):
            (tmp_path / "snapshots" / stray).write_text("{}", encoding="utf-8")
        assert list_snapshots(tmp_path) == [snapshot_path(tmp_path, 3), snapshot_path(tmp_path, 12)]

    def test_states_other_than_a_type_or_null_per_node_are_malformed(self, tmp_path):
        g, states, attrs, params = self.build()
        [path] = write_snapshot(0, g, states, attrs, params, tmp_path)
        doc = json.loads(path.read_text())
        assert len(doc["states"]) == g.num_nodes
        for bad in ("ABCD", doc["states"] + ["A"], doc["states"][1:], doc["states"][:-1] + [1], {"0": "A"}, None):
            path.write_text(json.dumps(dict(doc, states=bad)))
            with pytest.raises(CollectError, match="malformed snapshot .*states must list"):
                read_snapshot(path)
        path.write_text(json.dumps(dict(doc, states=[None] * g.num_nodes)))
        assert read_snapshot(path)[2] == {}

    def test_malformed_snapshot_rejected(self, tmp_path):
        bad = tmp_path / "iter_0.json"
        bad.write_text(json.dumps({"iteration": 0}))
        with pytest.raises(CollectError):
            read_snapshot(bad)
        g, states, attrs, params = self.build()
        [path] = write_snapshot(0, g, states, attrs, params, tmp_path)
        doc = json.loads(path.read_text())
        # the string-keyed edge columns of the earlier layout are not read
        doc["edge_attrs"] = {"influence_prob": {"0,1": 0.5, "1,0": 0.25}}
        bad.write_text(json.dumps(doc))
        with pytest.raises(CollectError, match="malformed snapshot"):
            read_snapshot(bad)
        for pairs in ([0, 1, 1], [0, 1]):
            doc["edge_attrs"] = {"influence_prob": {"pairs": pairs, "values": [0.5, 0.25]}}
            bad.write_text(json.dumps(doc))
            with pytest.raises(CollectError, match="malformed snapshot"):
                read_snapshot(bad)
        doc["edge_attrs"] = {}
        # a link to a node out of range, and a self-loop link
        for link in ([0, 9], [2, 2]):
            doc["graph"]["links"] = [[0, 1], link]
            bad.write_text(json.dumps(doc))
            with pytest.raises(CollectError, match="malformed snapshot"):
                read_snapshot(bad)

    def test_non_integer_or_ragged_links_are_malformed(self, tmp_path):
        g, states, attrs, params = self.build()
        [path] = write_snapshot(0, g, states, attrs, params, tmp_path)
        doc = json.loads(path.read_text())
        for links in ([[0, 1], [1.5, 2]], [[0, "1"]], [[0, 1], [2]], [[0, 1, 2]], [[0, 1], [1, 2, 3]]):
            doc["graph"]["links"] = links
            path.write_text(json.dumps(doc))
            with pytest.raises(CollectError, match="malformed snapshot"):
                read_snapshot(path)
        doc["graph"]["links"] = []
        path.write_text(json.dumps(doc))
        assert read_snapshot(path)[1].num_edges == 0

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        g, states, attrs, params = self.build()
        [path] = write_snapshot(0, g, states, attrs, params, tmp_path)
        before = path.read_bytes()
        # the encoder raises partway through the document
        with pytest.raises(TypeError):
            write_snapshot(0, g, states, attrs, {**params, "zz": object()}, tmp_path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["iter_0.json"]

        def failing_replace(src, dst):
            raise OSError("disk went away")

        # the temp file is complete but the rename fails
        monkeypatch.setattr("os.replace", failing_replace)
        states[0] = "B"
        with pytest.raises(OSError):
            write_snapshot(0, g, states, attrs, params, tmp_path)
        with pytest.raises(OSError):
            write_collectors([SeriesRecorder("c")], tmp_path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["iter_0.json"]
        assert not (tmp_path / COLLECTOR_DIR).exists()  # the failed write removes the directory it made

    @pytest.mark.parametrize(("column", "bad"), [({0: 1.5, 7: 2.5, -1: 3.5}, "7"), ({0: 1.5, 1.0: 2.5}, "1.0")])
    def test_node_ids_outside_the_graph_refused_before_any_file(self, tmp_path, column, bad):
        g = Graph(2)
        g.add_edge(0, 1)
        attrs = AttributeTable()
        if bad == "1.0":  # an id that is no integer is refused at the column write
            with pytest.raises(GraphError, match=r"^attribute 'k': 1\.0 is not an integer node id$"):
                attrs.node["k"] = column
            attrs.node["k"] = {0: 1.5, 2: 2.5}
            bad = "2"
        else:
            attrs.node["k"] = column
        with pytest.raises(CollectError, match=rf"iter_0\.json: attribute 'k': {bad} is not an integer node id in \[0, 2\)"):
            write_snapshot(0, g, {}, attrs, {}, tmp_path)
        assert list(tmp_path.iterdir()) == []


VALUES_BY_KIND = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
}


@st.composite
def snapshot_inputs(draw):
    n = draw(st.integers(1, 7))
    graph = Graph(n, directed=draw(st.booleans()))
    node = st.integers(0, n - 1)
    ordered = st.tuples(node, node)
    for u, v in draw(st.lists(ordered, max_size=12)):
        if u != v:
            graph.add_edge(u, v)
    attrs = AttributeTable()
    for key in draw(st.lists(st.sampled_from(["age", "loc", "w"]), unique=True)):
        values = VALUES_BY_KIND[draw(st.sampled_from(sorted(VALUES_BY_KIND)))]
        attrs.set_node_column(key, draw(st.dictionaries(node, values)))
    for key in draw(st.lists(st.sampled_from(["influence_prob", "kind", "weight"]), unique=True)):
        values = VALUES_BY_KIND[draw(st.sampled_from(sorted(VALUES_BY_KIND)))]
        # any ordered pair: edges, reverse pairs of undirected edges and non-edges
        attrs.set_edge_column(key, draw(st.dictionaries(ordered, values)))
    states = draw(st.dictionaries(node, st.sampled_from(["S", "I", "R"])))
    params = draw(st.dictionaries(st.text(max_size=3), st.one_of(*VALUES_BY_KIND.values()), max_size=3))
    return draw(st.integers(0, 500)), graph, states, attrs, params


@settings(max_examples=200, deadline=None)
@given(snapshot_inputs())
def test_property_snapshot_round_trip_and_stable_bytes(inputs):
    iteration, graph, states, attrs, params = inputs
    with tempfile.TemporaryDirectory() as tmp:
        [path] = write_snapshot(iteration, graph, states, attrs, params, Path(tmp) / "a")
        first = path.read_bytes()
        it2, g2, states2, attrs2, params2 = read_snapshot(path)
        assert it2 == iteration
        assert (g2.num_nodes, g2.directed, list(g2.edges())) == (
            graph.num_nodes, graph.directed, list(graph.edges())
        )
        assert states2 == states
        assert attrs2 == attrs
        for key in attrs.node:
            assert column_kind(attrs2.node, key) == column_kind(attrs.node, key)
        for key in attrs.edge:
            assert column_kind(attrs2.edge, key) == column_kind(attrs.edge, key)
        assert params2 == params
        # the array sort matches the scalar (u, v) order it replaced
        doc = json.loads(first)
        for key, column in attrs.edge.items():
            ordered = sorted(column.items())
            assert doc["edge_attrs"][key] == {
                "pairs": [x for pair, _ in ordered for x in pair],
                "values": [value for _, value in ordered],
            }
        # writing the read-back copy, whose dict orders differ, gives the same bytes
        [again] = write_snapshot(it2, g2, states2, attrs2, params2, Path(tmp) / "b")
        assert again.read_bytes() == first


def reference_snapshot_document(iteration, graph, states, attrs, net_params) -> dict:
    """The snapshot as one document; ``write_snapshot`` writes its ``json.dumps(..., separators=(",", ":"))``."""
    nodes = range(graph.num_nodes)
    if not isinstance(states, NodeStates):
        states = NodeStates.from_mapping(states, len(nodes))
    edge_attrs = {}
    for key, column in sorted(attrs.edge.items()):
        keys = np.fromiter(chain.from_iterable(column), dtype=np.int64, count=2 * len(column))
        order = np.lexsort((keys[1::2], keys[0::2]))
        values = np.array(list(column.values()), dtype=object)[order].tolist()
        edge_attrs[key] = {"pairs": keys.reshape(-1, 2)[order].ravel().tolist(), "values": values}
    links = np.stack(graph.edge_arrays(), axis=1).tolist()
    return {
        "iteration": iteration,
        "graph": {"directed": graph.directed, "nodes": len(nodes), "links": links},
        "states": states.column(),
        "node_attrs": {key: [col.get(v) for v in nodes] for key, col in sorted(attrs.node.items())},
        "edge_attrs": edge_attrs,
        "net_params": dict(sorted(net_params.items())),
    }


# NaN, infinities, both zeros, subnormals, ints past 2**53 and past int64, non-ASCII text
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.5e-310, 0.1, 1e300]
WIDE_VALUES = {
    "float": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
    "int": st.one_of(st.integers(), st.integers(2**53 - 2, 2**53 + 2), st.integers(2**63 - 1, 2**64)),
    "str": st.text(max_size=4),
}


def column_values(draw, kind: str, size: int) -> list:
    """``size`` values of one kind: all drawn freely, or from a pool of at most three (few distinct)."""
    values = WIDE_VALUES[kind]
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))
    return draw(st.lists(values, min_size=size, max_size=size))


@st.composite
def wide_snapshot_inputs(draw):
    n = draw(st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    directed = draw(st.booleans())
    pairs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=60)) if u != v] if n else []
    graph = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs], directed)[0]
    if pairs and draw(st.booleans()):  # a mutated graph rebuilds its arrays from neighbour sets
        graph.remove_edge(*pairs[0])
    attrs = AttributeTable()
    for key in draw(st.lists(st.sampled_from(["age", "loc", "\u00e9t\u00e9"]), unique=True)) if n else []:
        kind = draw(st.sampled_from(sorted(WIDE_VALUES)))
        ids = draw(st.permutations(range(n))) if draw(st.booleans()) else draw(st.lists(node, unique=True))
        attrs.node[key] = dict(zip(ids, column_values(draw, kind, len(ids))))  # every node, or some
    for key in draw(st.lists(st.sampled_from(["influence_prob", "kind", "w"]), unique=True)):
        kind = draw(st.sampled_from(sorted(WIDE_VALUES)))
        # edges, their reverses, non-edges and pairs outside [0, n)
        keys = list(dict.fromkeys(graph.edges() if draw(st.booleans()) else ()))
        keys += draw(st.lists(st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)), max_size=40))
        keys = list(dict.fromkeys(draw(st.permutations(keys))))
        attrs.edge[key] = dict(zip(keys, column_values(draw, kind, len(keys))))
    states = draw(st.dictionaries(node, st.sampled_from(["S", "I", "R\u00e9"]))) if n else {}
    params = draw(st.dictionaries(st.text(max_size=3), st.one_of(*WIDE_VALUES.values()), max_size=3))
    return draw(st.integers(0, 10**6)), graph, states, attrs, params


def test_few_distinct_floats_keep_both_zeros_and_every_special_value(tmp_path):
    g = Graph.from_edges(40, range(39), range(1, 40))[0]
    attrs = AttributeTable()
    attrs.node["z"] = {v: (0.0, -0.0, math.nan)[v % 3] for v in range(40)}
    attrs.edge["w"] = {pair: (math.inf, -math.inf, 5e-324)[pair[0] % 3] for pair in g.edges()}
    [path] = write_snapshot(0, g, {}, attrs, {}, tmp_path)
    expected = json.dumps(reference_snapshot_document(0, g, {}, attrs, {}), separators=(",", ":")) + "\n"
    assert path.read_text(encoding="utf-8") == expected
    assert '"z":[0.0,-0.0,NaN,0.0,' in expected and '"values":[Infinity,-Infinity,5e-324,' in expected


@settings(max_examples=300, deadline=None)
@given(wide_snapshot_inputs())
def test_property_snapshot_text_is_the_compact_dump_of_the_reference_document(inputs):
    expected = json.dumps(reference_snapshot_document(*inputs), separators=(",", ":")) + "\n"
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for chunk in (collect._CHUNK, 3):  # each text in one piece, and in pieces of 3 entries
            patch.setattr(collect, "_CHUNK", chunk)
            [path] = write_snapshot(*inputs, tmp)
            assert path.read_text(encoding="utf-8") == expected


# both zeros, a NaN with a payload other than the default one, and integral values that equal ints
REUSE_FLOATS = [0.0, -0.0, math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0], 1.0]
REUSE_EDITS = ["edge", "float", "delete", "to_int", "node_column", "grow", "in_place"]


def reuse_edit(data, edit: str, graph: Graph, attrs: AttributeTable) -> Graph:
    """Apply one edit between two snapshot writes; returns the graph the next write sees."""
    n, floats = graph.num_nodes, st.sampled_from(REUSE_FLOATS)
    columns = [col for side in (attrs.node, attrs.edge) for col in side.values() if col and col.kind is float]
    if edit == "edge":  # add or remove one edge; its attribute values stay
        u, v = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]))
        (graph.remove_edge if graph.has_edge(u, v) else graph.add_edge)(u, v)
    elif edit == "float" and columns:  # a pending single write
        column = data.draw(st.sampled_from(columns))
        column[data.draw(st.sampled_from(list(column)))] = data.draw(floats)
    elif edit == "delete" and columns:
        column = data.draw(st.sampled_from(columns))
        del column[data.draw(st.sampled_from(list(column)))]
    elif edit == "to_int" and columns:  # 0.0 and 0 share their bytes, only the dtype differs (NaN becomes 0)
        column = data.draw(st.sampled_from(columns))
        side = attrs.edge if column.edge else attrs.node
        side[column.name] = {key: int(value) if math.isfinite(value) else 0 for key, value in column.items()}
    elif edit == "node_column":  # add or drop one, of any kind
        if "extra" in attrs.node:
            del attrs.node["extra"]
        else:
            values = data.draw(st.sampled_from([floats, st.integers(-3, 3), st.sampled_from(["a", "b"])]))
            attrs.node["extra"] = data.draw(st.dictionaries(st.integers(0, n - 1), values))
    elif edit == "grow":  # the same edges, arrays and columns on more nodes
        graph = Graph.from_edges(n + data.draw(st.integers(1, 3)), *graph.edge_arrays(), graph.directed)[0]
    elif edit == "in_place" and columns:  # a write into the array the column hands out
        values = data.draw(st.sampled_from(columns)).arrays()[1]
        values[data.draw(st.integers(0, values.size - 1))] = data.draw(floats)
    return graph


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), directed=st.booleans())
def test_property_snapshots_sharing_texts_match_the_reference_and_a_fresh_write(data, n, directed):
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u, v in data.draw(st.lists(st.tuples(node, node), max_size=12)) if u != v]
    graph = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs], directed)[0]
    attrs = AttributeTable()
    # each column's values come from a pool of one to three, so some hold 0.0 only
    floats = [st.sampled_from(data.draw(st.lists(st.sampled_from(REUSE_FLOATS), min_size=1, max_size=3))) for _ in "xw"]
    attrs.node["x"] = {v: data.draw(floats[0]) for v in range(n)}  # a value at every node
    attrs.edge["w"] = {pair: data.draw(floats[1]) for pair in graph.edges()}
    attrs.edge["w"].update(data.draw(st.dictionaries(st.tuples(node, node), floats[1], max_size=4)))  # non-edges too
    states = data.draw(st.dictionaries(node, st.sampled_from(["S", "I"])))
    texts: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for iteration in range(data.draw(st.integers(2, 5))):
            if iteration:
                graph = reuse_edit(data, data.draw(st.sampled_from(REUSE_EDITS)), graph, attrs)
            [shared] = write_snapshot(iteration, graph, states, attrs, {}, Path(tmp) / "shared", texts=texts)
            [fresh] = write_snapshot(iteration, graph, states, attrs, {}, Path(tmp) / "fresh")
            document = reference_snapshot_document(iteration, graph, states, attrs, {})
            assert shared.read_text(encoding="utf-8") == json.dumps(document, separators=(",", ":")) + "\n"
            assert shared.read_bytes() == fresh.read_bytes()


# Picks around a piece boundary of 3 entries: none, one, C - 1, C, C + 1 and 2C + 1.
@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.sampled_from([0, 1, 2, 3, 4, 7]) | st.integers(0, 12))
def test_property_joined_pieces_make_the_whole_join(data, count):
    texts = data.draw(st.lists(st.text("ab\u00e9", max_size=2), min_size=1 if count else 0, max_size=5))
    table = np.array(texts, dtype=object)  # empty when there are no picks
    picks = np.array(data.draw(st.lists(st.integers(0, max(len(texts) - 1, 0)), min_size=count, max_size=count)), np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collect, "_CHUNK", 3)
        pieces = collect._joined(picks.size, lambda at: ",".join(table[picks[at]].tolist()))
    assert "".join(pieces) == ",".join(table[picks].tolist())
    assert pieces[1::2] == [","] * (len(pieces) // 2) and len(pieces) == max(2 * -(-count // 3) - 1, 0)
    assert all(piece.count(",") < 3 for piece in pieces[0::2])  # at most 3 texts, none holding a comma


def test_an_edited_float_edge_value_is_encoded_again_in_the_next_snapshot(tmp_path, monkeypatch):
    monkeypatch.setattr(collect, "_CHUNK", 2)  # so the column's texts span several pieces
    graph = Graph.from_edges(8, range(7), range(1, 8), directed=True)[0]
    attrs = AttributeTable()
    attrs.edge["w"] = {pair: 0.5 for pair in graph.edges()}  # one distinct value: encoded once, then picked
    texts: dict = {}
    write_snapshot(0, graph, {}, attrs, {}, tmp_path / "shared", texts=texts)
    attrs.edge["w"][(3, 4)] = 0.25
    [shared] = write_snapshot(1, graph, {}, attrs, {}, tmp_path / "shared", texts=texts)
    [fresh] = write_snapshot(1, graph, {}, attrs, {}, tmp_path / "fresh")
    assert shared.read_bytes() == fresh.read_bytes()
    assert read_snapshot(snapshot_path(tmp_path / "shared", 0))[3].edge["w"][(3, 4)] == 0.5
    assert read_snapshot(shared)[3].edge["w"] == {**{pair: 0.5 for pair in graph.edges()}, (3, 4): 0.25}


# ---------------------------------------------------------------------------
# Merging batches (mean aggregation)
# ---------------------------------------------------------------------------


class TestMergeBatches:
    def test_pointwise_mean(self):
        merged = merge_batches(
            [series_doc("x", [1.0, 2.0, 3.0]), series_doc("x", [3.0, 4.0, 5.0])]
        )
        assert merged["name"] == "x"
        assert merged["aggregation"] == "mean"
        assert [e["value"] for e in merged["entries"]] == [2.0, 3.0, 4.0]
        assert [e["iteration"] for e in merged["entries"]] == [0, 1, 2]

    def test_single_batch_identity(self):
        doc = series_doc("x", [1.5, 2.5])
        merged = merge_batches([doc])
        assert [e["value"] for e in merged["entries"]] == [1.5, 2.5]

    def test_map_values_merged_per_key(self):
        a = series_doc("c", [{"S": 90, "I": 10}])
        b = series_doc("c", [{"S": 80, "I": 20}])
        merged = merge_batches([a, b])
        assert merged["entries"][0]["value"] == {"S": 85.0, "I": 15.0}

    def test_mean_matches_independent_oracle(self):
        # 50 synthetic batches; compare against math.fsum means at 1e-12.
        rng = np.random.default_rng(20260816)
        batches = [series_doc("y", rng.uniform(-1e6, 1e6, size=40).tolist()) for _ in range(50)]
        merged = merge_batches(batches)
        for i, entry in enumerate(merged["entries"]):
            column = [b["entries"][i]["value"] for b in batches]
            expected = math.fsum(column) / len(column)
            denom = max(abs(expected), 1.0)
            assert abs(entry["value"] - expected) / denom <= 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        batches = [series_doc("y", rng.uniform(0, 1, size=10).tolist()) for _ in range(8)]
        forward = merge_batches(list(batches))
        backward = merge_batches(list(reversed(batches)))
        for e1, e2 in zip(forward["entries"], backward["entries"]):
            assert e1["value"] == pytest.approx(e2["value"], rel=1e-12)

    def test_name_mismatch_names_source(self):
        a = series_doc("x", [1.0])
        b = series_doc("z", [1.0])
        with pytest.raises(CollectError) as exc:
            merge_batches([a, b], sources=["batch-0", "batch-1"])
        assert "batch-1" in str(exc.value)

    def test_length_mismatch_names_source(self):
        a = series_doc("x", [1.0, 2.0])
        b = series_doc("x", [1.0])
        with pytest.raises(CollectError) as exc:
            merge_batches([a, b], sources=["batch-0", "batch-1"])
        assert "batch-1" in str(exc.value)

    def test_scalar_vs_map_mismatch(self):
        a = series_doc("x", [1.0])
        b = series_doc("x", [{"k": 1.0}])
        with pytest.raises(CollectError):
            merge_batches([a, b])

    def test_map_key_mismatch(self):
        a = series_doc("x", [{"S": 1.0}])
        b = series_doc("x", [{"I": 1.0}])
        with pytest.raises(CollectError):
            merge_batches([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(CollectError):
            merge_batches([])

    def test_sums_past_the_float_maximum_give_the_exact_mean(self):
        a, b = 1.5 * 2.0**1023, 1.25 * 2.0**1023  # math.fsum overflows on any two; scaling by 2**1023 is exact
        scalar = merge_batches([series_doc("x", [a, 1.0]), series_doc("x", [a, 2.0]), series_doc("x", [b, 4.0])])
        assert [e["value"] for e in scalar["entries"]] == [4.25 / 3 * 2.0**1023, 7 / 3]
        maps = merge_batches([series_doc("c", [{"S": a, "I": 1}]), series_doc("c", [{"S": b, "I": 2}])])
        assert maps["entries"][0]["value"] == {"S": 1.375 * 2.0**1023, "I": 1.5}


def ref_merge_batches(documents: list[dict]) -> dict:
    """``merge_batches`` before it read documents through ``check_collector``: shapes compared entry by entry."""
    sources = [f"input {i}" for i in range(len(documents))]
    first = documents[0]
    name = first["name"]
    grid = [entry["iteration"] for entry in first["entries"]]
    for doc, source in zip(documents, sources):
        if doc["name"] != name:
            raise CollectError(f"{source}: collector name {doc['name']!r} does not match {name!r}")
        if [entry["iteration"] for entry in doc["entries"]] != grid:
            raise CollectError(f"{source}: iteration grid differs from {sources[0]}")
    entries = []
    for idx, iteration in enumerate(grid):
        values = [doc["entries"][idx]["value"] for doc in documents]
        if isinstance(values[0], dict):
            keys = list(values[0].keys())
            for value, source in zip(values, sources):
                if not isinstance(value, dict) or list(value.keys()) != keys:
                    raise CollectError(f"{source}: value keys at iteration {iteration} do not match {sources[0]}")
            mean = {key: math.fsum(value[key] for value in values) / len(values) for key in keys}
        else:
            for value, source in zip(values, sources):
                if isinstance(value, dict):
                    raise CollectError(f"{source}: scalar/map value shape at iteration {iteration} does not match")
            mean = math.fsum(values) / len(values)
        entries.append({"iteration": iteration, "value": mean})
    return {"name": name, "aggregation": "mean", "sources": list(sources), "entries": entries}


def refused_or(fn, *args):
    try:
        return fn(*args)
    except CollectError:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_merge_batches_matches_the_reference(data):
    grid = sorted(data.draw(st.sets(st.integers(0, 20), max_size=4)))
    keys = data.draw(st.none() | st.lists(st.sampled_from("SIR"), unique=True, max_size=3))
    numbers = st.one_of(st.integers(-(2**70), 2**70), st.floats(-1e300, 1e300))
    docs = []
    for _ in range(data.draw(st.integers(1, 4))):  # now and then a batch with another name, grid or shape
        rec = SeriesRecorder(data.draw(st.sampled_from("xxxxy")))
        shape = data.draw(st.sampled_from([keys] * 5 + [None, ["S"], ["S", "I"]]))
        for it in grid[: len(grid) - data.draw(st.sampled_from([0] * 5 + [1]))]:
            rec.record(it, data.draw(numbers) if shape is None else {k: data.draw(numbers) for k in data.draw(st.permutations(shape))})
        docs.append(rec.as_document())
    got, expected = refused_or(merge_batches, docs), refused_or(ref_merge_batches, docs)
    if got is not None and expected is None:  # the reference refused map keys that came in another order only
        first = [entry["value"] for entry in docs[0]["entries"]]
        expected = ref_merge_batches([dict(doc, entries=[
            {"iteration": e["iteration"], "value": {k: e["value"][k] for k in first[i]}} for i, e in enumerate(doc["entries"])
        ]) for doc in docs])
    assert json.dumps(got) == json.dumps(expected)


# ---------------------------------------------------------------------------
# Labeled comparison merge
# ---------------------------------------------------------------------------


class TestMergeLabeled:
    def test_four_labeled_series(self):
        docs = [series_doc("spread", [float(i), float(i) + 1]) for i in range(4)]
        labels = [f"run-{i}" for i in range(4)]
        merged = merge_labeled(docs, labels)
        assert merged["name"] == "spread"
        assert merged["aggregation"] == "labeled"
        assert [s["label"] for s in merged["series"]] == labels
        assert merged["series"][2]["entries"][0]["value"] == 2.0

    def test_label_count_mismatch(self):
        with pytest.raises(CollectError):
            merge_labeled([series_doc("x", [1.0])], ["a", "b"])

    def test_single_series(self):
        merged = merge_labeled([series_doc("x", [9.0])], ["only"])
        assert len(merged["series"]) == 1


# ---------------------------------------------------------------------------
# Directory-level merge workflows
# ---------------------------------------------------------------------------


def write_batch_dir(parent, index, values_by_name, meta=None):
    """A batch run directory with these collectors and a run meta (``{}`` by default: a finished run)."""
    run_dir = parent / f"batch-{index}"
    recs = []
    for name, values in values_by_name.items():
        rec = SeriesRecorder(name)
        for i, v in enumerate(values):
            rec.record(i, v)
        recs.append(rec)
    write_collectors(recs, run_dir)
    (run_dir / RUN_META_FILE).write_text(json.dumps({} if meta is None else meta), encoding="utf-8")
    return run_dir


class TestDirectoryMerge:
    def test_batch_dirs_sorted_numerically(self, tmp_path):
        for i in [0, 2, 10, 1]:
            write_batch_dir(tmp_path, i, {"x": [1.0]})
        dirs = batch_dirs(tmp_path)
        assert [d.name for d in dirs] == ["batch-0", "batch-1", "batch-2", "batch-10"]

    def test_merge_parent_directory(self, tmp_path):
        write_batch_dir(tmp_path, 0, {"x": [1.0, 2.0], "y": [0.0, 0.0]})
        write_batch_dir(tmp_path, 1, {"x": [3.0, 4.0], "y": [2.0, 2.0]})
        out_paths = merge_parent_directory(tmp_path)
        names = sorted(p.name for p in out_paths)
        assert names == ["x.json", "y.json"]
        assert all(p.parent == tmp_path / "merged" for p in out_paths)
        doc = read_collector(tmp_path / "merged" / "x.json")
        assert [e["value"] for e in doc["entries"]] == [2.0, 3.0]

    def test_merge_single_collector_by_name(self, tmp_path):
        write_batch_dir(tmp_path, 0, {"x": [1.0], "y": [5.0]})
        write_batch_dir(tmp_path, 1, {"x": [3.0], "y": [7.0]})
        out_paths = merge_parent_directory(tmp_path, collector_name="y")
        assert [p.name for p in out_paths] == ["y.json"]
        doc = read_collector(out_paths[0])
        assert doc["entries"][0]["value"] == 6.0

    def test_no_batches_rejected(self, tmp_path):
        with pytest.raises(CollectError):
            merge_parent_directory(tmp_path)

    def test_mismatched_batch_named_in_error(self, tmp_path):
        write_batch_dir(tmp_path, 0, {"x": [1.0, 2.0]})
        write_batch_dir(tmp_path, 1, {"x": [1.0]})
        with pytest.raises(CollectError) as exc:
            merge_parent_directory(tmp_path)
        assert "batch-1" in str(exc.value)

    def test_batch_with_a_recorded_error_refused_by_name(self, tmp_path):
        write_batch_dir(tmp_path, 0, {"x": [1.0, 2.0]})
        write_batch_dir(tmp_path, 1, {"x": [1.0]}, meta={"error": "ValueError: boom"})
        with pytest.raises(CollectError, match="^batch-1: its run failed: ValueError: boom$"):
            merge_parent_directory(tmp_path)
        assert not (tmp_path / "merged").exists()

    def test_batch_without_run_meta_refused_by_name(self, tmp_path):
        write_batch_dir(tmp_path, 0, {"x": [1.0]})
        (write_batch_dir(tmp_path, 1, {"x": [1.0]}) / RUN_META_FILE).unlink()
        with pytest.raises(CollectError, match="^no such result file: .*/batch-1/run-meta.json$"):
            merge_parent_directory(tmp_path)

    @pytest.mark.parametrize("file", [RUN_META_FILE, f"{COLLECTOR_DIR}/x.json"])
    def test_result_file_that_is_no_json_object_refused_by_path(self, tmp_path, file):
        write_batch_dir(tmp_path, 0, {"x": [1.0]})
        (write_batch_dir(tmp_path, 1, {"x": [1.0]}) / file).write_text("[]", encoding="utf-8")
        with pytest.raises(CollectError, match=f"^not a JSON object: .*batch-1/{file}$"):
            merge_parent_directory(tmp_path)

    def test_merge_simulations_labeled(self, tmp_path):
        run_a = write_batch_dir(tmp_path, 0, {"spread": [1.0, 2.0]})
        run_b = write_batch_dir(tmp_path, 1, {"spread": [3.0, 4.0]})
        out = tmp_path / "compare.json"
        merge_simulations([run_a, run_b], ["low", "high"], "spread", out)
        doc = json.loads(out.read_text())
        assert doc["aggregation"] == "labeled"
        assert [s["label"] for s in doc["series"]] == ["low", "high"]
