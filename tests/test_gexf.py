"""GEXF export/import round-trips and referential integrity."""

from __future__ import annotations

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    AttributeColumn,
    AttributeTable,
    CollectError,
    GexfError,
    Graph,
    GraphError,
    NodeStates,
    build_graph,
    generate_random_regular,
    load_gexf,
    parse_config,
    read_snapshot,
    simulate,
    write_gexf,
    write_snapshot,
)
from crowdkit.gexf import (
    _GEXF_TYPE_BY_KIND,
    _NOT_XML,
    _REVERSE_SUFFIX,
    NODE_TYPE_KEY,
    _format_value,
    gexf_document,
)
from conftest import column_kind


def triangle() -> Graph:
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


class TestRoundTrip:
    def test_plain_graph(self, tmp_path):
        path = tmp_path / "t.gexf"
        g = triangle()
        write_gexf(g, path)
        g2, states, attrs = load_gexf(path)
        assert g2.num_nodes == 3
        assert sorted(g2.edges()) == sorted(g.edges())
        assert states is None or all(s is None for s in states)

    def test_categorical_attribute(self, tmp_path):
        path = tmp_path / "cat.gexf"
        g = triangle()
        attrs = AttributeTable()
        for v, loc in [(0, "home"), (1, "grid"), (2, "home")]:
            attrs.set_node(v, "location", loc)
        write_gexf(g, path, None, attrs)
        g2, _, attrs2 = load_gexf(path)
        assert sorted(g2.edges()) == sorted(g.edges())
        for v, loc in [(0, "home"), (1, "grid"), (2, "home")]:
            assert attrs2.get_node(v, "location") == loc

    def test_states_and_mixed_attr_kinds(self, tmp_path):
        path = tmp_path / "mix.gexf"
        g = triangle()
        states = {0: "Susceptible", 1: "Infected", 2: "Recovered"}
        attrs = AttributeTable()
        attrs.set_node(0, "age", 42.5)
        attrs.set_node(1, "age", 17.0)
        attrs.set_node(2, "rank", 3)
        write_gexf(g, path, states, attrs)
        _, states2, attrs2 = load_gexf(path)
        assert states2 == states
        assert attrs2.get_node(0, "age") == 42.5
        assert attrs2.get_node(1, "age") == 17.0
        assert attrs2.get_node(2, "rank") == 3
        assert attrs2.get_node(2, "age") is None

    def test_edge_attributes_both_orientations(self, tmp_path):
        path = tmp_path / "edges.gexf"
        g = Graph(2)
        g.add_edge(0, 1)
        attrs = AttributeTable()
        attrs.set_edge(0, 1, "influence", 0.25)
        attrs.set_edge(1, 0, "influence", 0.75)
        write_gexf(g, path, None, attrs)
        _, _, attrs2 = load_gexf(path)
        assert attrs2.get_edge(0, 1, "influence") == 0.25
        assert attrs2.get_edge(1, 0, "influence") == 0.75

    def test_directed_reverse_pair_values_survive(self, tmp_path):
        path = tmp_path / "dir-edges.gexf"
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        attrs = AttributeTable()
        for (u, v), w in [((0, 1), 0.5), ((1, 0), 0.25), ((1, 2), 2.0)]:
            attrs.set_edge(u, v, "w", w)
        write_gexf(g, path, None, attrs)
        g2, _, attrs2 = load_gexf(path)
        assert sorted(g2.edges()) == [(0, 1), (1, 2)]
        assert attrs2 == attrs

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "prec.gexf"
        g = Graph(2)
        g.add_edge(0, 1)
        attrs = AttributeTable()
        value = 1.0 / 3.0
        attrs.set_node(0, "w", value)
        write_gexf(g, path, None, attrs)
        _, _, attrs2 = load_gexf(path)
        assert attrs2.get_node(0, "w") == value

    def test_directed_graph(self, tmp_path):
        path = tmp_path / "dir.gexf"
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        write_gexf(g, path)
        g2, _, _ = load_gexf(path)
        assert g2.directed
        assert g2.has_edge(0, 1)
        assert not g2.has_edge(1, 0)
        assert g2.has_edge(2, 1)

    def test_sir_snapshot_preserves_all_labels(self, tmp_path):
        path = tmp_path / "sir.gexf"
        rng = np.random.default_rng(0)
        g = generate_random_regular(100, 4, rng)
        labels = ["Susceptible", "Infected", "Recovered"]
        states = {i: labels[i % 3] for i in range(100)}
        write_gexf(g, path, states)
        g2, states2, _ = load_gexf(path)
        assert g2.num_nodes == 100
        assert g2.num_edges == 200
        assert states2 == states
        assert set(states2.values()) == set(labels)


class TestValidation:
    def test_reserved_node_type_key_rejected_on_write(self, tmp_path):
        attrs = AttributeTable()
        attrs.set_node(0, "node_type", "X")
        with pytest.raises(GexfError):
            write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)

    def test_reserved_reverse_suffix_rejected_on_write(self, tmp_path):
        attrs = AttributeTable()
        attrs.set_edge(0, 1, "w__reverse", 1.0)
        with pytest.raises(GexfError):
            write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)

    @pytest.mark.parametrize("side", ["node", "edge"])
    def test_key_xml_cannot_carry_rejected_before_any_file(self, tmp_path, side):
        attrs = AttributeTable()
        getattr(attrs, side)["k\x01"] = {(0, 1) if side == "edge" else 0: 1.5}
        with pytest.raises(GexfError, match=r"cannot write attribute 'k\\x01': the key holds a character XML 1.0"):
            write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)
        assert list(tmp_path.iterdir()) == []

    def test_node_type_xml_cannot_carry_rejected_before_any_file(self, tmp_path):
        with pytest.raises(GexfError, match=r"cannot write node type 'A\\x01': it holds a character XML 1.0"):
            write_gexf(triangle(), tmp_path / "x.gexf", {0: "A\x01", 1: "B"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", [1, 1.5, None])
    def test_node_type_that_is_no_string_rejected_before_any_file(self, tmp_path, name):
        with pytest.raises(GexfError, match=rf"cannot write node type {name!r}: it is not a string"):
            write_gexf(triangle(), tmp_path / "x.gexf", {0: "A", 1: name})
        assert list(tmp_path.iterdir()) == []

    def test_node_type_keyed_on_no_node_id_rejected_before_any_file(self, tmp_path):
        with pytest.raises(GexfError, match=r"cannot write node types: .*'a' is not an integer node id"):
            write_gexf(triangle(), tmp_path / "x.gexf", {0: "A", "a": "B"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directed", [False, True])
    def test_value_on_non_edge_rejected_on_write(self, tmp_path, directed):
        g = Graph(3, directed=directed)
        g.add_edge(0, 1)
        attrs = AttributeTable()
        attrs.set_edge(0, 1, "w", 0.5)
        attrs.set_edge(2, 0, "w", 0.25)
        with pytest.raises(GexfError, match=r"'w'.*\(2, 0\)"):
            write_gexf(g, tmp_path / "x.gexf", None, attrs)
        assert not (tmp_path / "x.gexf").exists()

    def test_edge_referencing_undeclared_node(self, tmp_path):
        path = tmp_path / "dangling.gexf"
        path.write_text(
            """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <nodes>
      <node id="0" label="0"/>
      <node id="1" label="1"/>
    </nodes>
    <edges>
      <edge id="0" source="0" target="9"/>
    </edges>
  </graph>
</gexf>
"""
        )
        with pytest.raises(GexfError):
            load_gexf(path)

    def test_duplicate_node_id(self, tmp_path):
        path = tmp_path / "dup.gexf"
        path.write_text(
            """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <nodes>
      <node id="0" label="0"/>
      <node id="0" label="0"/>
    </nodes>
    <edges/>
  </graph>
</gexf>
"""
        )
        with pytest.raises(GexfError):
            load_gexf(path)

    def test_undeclared_attribute_value(self, tmp_path):
        path = tmp_path / "undeclared.gexf"
        path.write_text(
            """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <attributes class="node"/>
    <nodes>
      <node id="0" label="0">
        <attvalues><attvalue for="77" value="1"/></attvalues>
      </node>
    </nodes>
    <edges/>
  </graph>
</gexf>
"""
        )
        with pytest.raises(GexfError):
            load_gexf(path)

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "broken.gexf"
        path.write_text("<gexf><graph><nodes>")
        with pytest.raises(GexfError):
            load_gexf(path)

    def test_self_loop_edge_rejected_with_its_ids(self, tmp_path):
        path = tmp_path / "loop.gexf"
        path.write_text(
            """<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <graph defaultedgetype="undirected">
    <nodes>
      <node id="a" label="a"/>
      <node id="b" label="b"/>
    </nodes>
    <edges>
      <edge id="0" source="a" target="b"/>
      <edge id="1" source="b" target="b"/>
    </edges>
  </graph>
</gexf>
"""
        )
        with pytest.raises(GexfError, match=r"invalid edge \('b', 'b'\): self-loop \(1, 1\) not allowed"):
            load_gexf(path)

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "x.gexf"
        write_gexf(triangle(), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError):
            write_gexf(generate_random_regular(10, 2, np.random.default_rng(0)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.gexf"]


# ---------------------------------------------------------------------------
# Column kinds come from the values, so direct column writes export as they read
# ---------------------------------------------------------------------------


class TestDirectColumnWrites:
    def test_assigned_integer_column_keeps_its_kind(self, tmp_path):
        attrs = AttributeTable()
        attrs.node["k"] = {0: 5}
        write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)
        _, _, attrs2 = load_gexf(tmp_path / "x.gexf")
        assert attrs2.node == {"k": {0: 5}} and attrs2.node["k"].kind is int

    def test_column_replaced_with_another_kind_reads_back(self, tmp_path):
        attrs = AttributeTable()
        attrs.set_node_column("k", {0: 1.5})
        attrs.node["k"] = {0: "x"}
        write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)
        _, _, attrs2 = load_gexf(tmp_path / "x.gexf")
        assert attrs2.node == {"k": {0: "x"}} and attrs2.node["k"].kind is str

    def test_mixed_column_refused_before_any_file(self, tmp_path):
        attrs = AttributeTable()
        with pytest.raises(GraphError, match="attribute 'k': mixed value kinds"):
            attrs.node["k"] = {0: "x", 1: 2}  # refused at the write, so no writer ever sees it
        write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)
        assert load_gexf(tmp_path / "x.gexf")[2].node == {}

    def test_node_ids_outside_the_graph_refused_before_any_file(self, tmp_path):
        attrs = AttributeTable()
        attrs.node["k"] = {0: 1.5, 7: 2.5, -1: 3.5}
        with pytest.raises(GexfError, match=r"attribute 'k': 7 is not an integer node id in \[0, 3\)"):
            write_gexf(triangle(), tmp_path / "x.gexf", None, attrs)
        assert list(tmp_path.iterdir()) == []

    def test_set_column_stores_a_column_equal_to_the_dict_it_is_given(self):
        attrs = AttributeTable()
        column, edges = {3: 1.5, 0: -0.0, 1: math.nan}, {(1, 0): 2, (-1, 5): 2**70, (0, 1): 3}
        attrs.set_node_column("k", column)
        attrs.set_edge_column("w", edges)
        assert attrs.node["k"] == column and attrs.edge["w"] == edges
        assert list(attrs.node["k"]) == [0, 1, 3] and math.isnan(attrs.node["k"][1])  # key order
        assert list(attrs.edge["w"].items()) == [((-1, 5), 2**70), ((0, 1), 3), ((1, 0), 2)]
        assert attrs.node["k"] is not column and attrs.edge["w"] is not edges

    def test_an_emptied_column_forgets_its_kind(self):
        attrs = AttributeTable()
        attrs.set_node(0, "k", 1.5)
        with pytest.raises(GraphError, match="holds number values, got category 'x'"):
            attrs.set_node(1, "k", "x")
        del attrs.node["k"][0]
        assert column_kind(attrs.node, "k") is None
        attrs.set_node(1, "k", "x")
        assert attrs.node["k"].kind is str


def reference_kind(column: dict):
    """The kind every value of a column shares, None when empty, "bad" for a bad value or mixed kinds."""
    kinds = set()
    for value in column.values():
        if type(value) is bool or not isinstance(value, (int, float, str)):
            return "bad"
        kinds.add(float if isinstance(value, float) else int if isinstance(value, int) else str)
    return "bad" if len(kinds) > 1 else next(iter(kinds), None)


def not_xml_char(ch: str) -> bool:
    code = ord(ch)
    return (code < 0x20 and ch not in "\t\n\r") or 0xD800 <= code <= 0xDFFF or code in (0xFFFE, 0xFFFF)


ATTR_KEYS = ["a", "b"]
VALUE_KINDS = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=3),
    "bool": st.booleans(),
    "np.int64": st.integers(-1000, 1000).map(np.int64),
    "np.float64": st.floats(allow_nan=False).map(np.float64),
}
any_value = st.one_of(*VALUE_KINDS.values())


def column_values(data):
    """Values of one kind, or of any kinds at all."""
    return data.draw(st.sampled_from([*VALUE_KINDS.values(), any_value]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_every_writer_checks_every_column(data):
    n = data.draw(st.integers(2, 5))
    graph = Graph(n, directed=data.draw(st.booleans()))
    for u, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if u != v:
            graph.add_edge(u, v)
    node = st.integers(0, n - 1)
    edges = list(graph.edges())
    pair = st.sampled_from(edges + [(v, u) for u, v in edges]) if edges else None
    key = st.sampled_from(ATTR_KEYS)
    attrs = AttributeTable()
    for _ in range(data.draw(st.integers(0, 12))):
        op = data.draw(st.sampled_from(["set", "set_column", "assign", "del_column", "del_value", "drop_edge", "copy"]))
        side = "edge" if pair is not None and data.draw(st.booleans()) else "node"
        where = pair if side == "edge" else node
        columns = getattr(attrs, side)
        before = attrs.copy()
        try:
            if op == "set":
                ids = data.draw(where)
                ids = ids if side == "edge" else (ids,)
                getattr(attrs, f"set_{side}")(*ids, data.draw(key), data.draw(any_value))
            elif op in ("set_column", "assign"):
                column = data.draw(st.dictionaries(where, column_values(data), max_size=4))
                if op == "assign":
                    columns[data.draw(key)] = column
                else:
                    getattr(attrs, f"set_{side}_column")(data.draw(key), column)
            elif op == "del_column" and columns:
                del columns[data.draw(st.sampled_from(sorted(columns)))]
            elif op == "del_value" and any(columns.values()):
                column = columns[data.draw(st.sampled_from(sorted(k for k, c in columns.items() if c)))]
                del column[data.draw(st.sampled_from(sorted(column)))]
            elif op == "drop_edge" and pair is not None:
                attrs.drop_edge(*data.draw(pair))
            elif op == "copy":
                attrs = attrs.copy()
        except GraphError:
            assert attrs == before  # a refused write changes nothing
    bad = {key for columns in (attrs.node, attrs.edge) for key, c in columns.items() if reference_kind(c) == "bad"}
    # XML 1.0 carries no surrogate, U+FFFE, U+FFFF or control character other than tab, newline and return
    not_xml = {
        key
        for columns in (attrs.node, attrs.edge)
        for key, c in columns.items()
        if reference_kind(c) is str and any(not_xml_char(ch) for value in c.values() for ch in value)
    }

    def check(write, read, error, bad):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                path = write(Path(tmp))
            except error as exc:
                assert bad and any(f"attribute {key!r}" in str(exc) for key in bad)
                assert not list(Path(tmp).rglob("*.*"))
                return None
            assert not bad
            return read(path)

    def write_json(tmp):
        [path] = write_snapshot(0, graph, {}, attrs, {}, tmp)
        return path

    def write_xml(tmp):
        write_gexf(graph, tmp / "x.gexf", None, attrs)
        return tmp / "x.gexf"

    read_back = []
    snapshot = check(write_json, read_snapshot, CollectError, bad)
    if snapshot is not None:
        back = snapshot[3]
        assert (back.node, back.edge) == (attrs.node, attrs.edge)
        read_back.append(back)
    exported = check(write_xml, load_gexf, GexfError, bad | not_xml)
    if exported is not None:
        back = exported[2]
        # an empty column writes no value, so it does not come back
        assert back.node == {key: c for key, c in attrs.node.items() if c}
        assert back.edge == {key: c for key, c in attrs.edge.items() if c}
        read_back.append(back)
    for back in read_back:
        for key in ATTR_KEYS:
            assert column_kind(back.node, key) is column_kind(attrs.node, key) is reference_kind(attrs.node.get(key, {}))
            assert column_kind(back.edge, key) is column_kind(attrs.edge, key) is reference_kind(attrs.edge.get(key, {}))


# ---------------------------------------------------------------------------
# Reference writer: the per-element dict and set code ``gexf_document`` ran
# before it rendered from the column arrays. Text and error texts must match.
# ---------------------------------------------------------------------------


def ref_column(key: str, column: AttributeColumn, num_nodes: int | None = None) -> tuple[str, type, dict]:
    try:
        if num_nodes is not None:
            column.check_nodes(num_nodes)
    except GraphError as exc:
        raise GexfError(f"cannot write attribute {key!r}: {exc}") from exc
    values = dict(column.items())
    if (column.kind or str) is str and any(map(_NOT_XML.search, values.values())):
        raise GexfError(f"cannot write attribute {key!r}: a value holds a character XML 1.0 does not allow")
    return key, column.kind or str, values


def ref_gexf_document(
    graph: Graph,
    states: dict[int, str] | None = None,
    attrs: AttributeTable | None = None,
) -> str:
    from xml.sax.saxutils import quoteattr

    node_columns: list[tuple[str, type, dict]] = []
    if states is not None:
        node_columns.append((NODE_TYPE_KEY, str, states))
    if attrs is not None:
        for key in attrs.node:
            if key == NODE_TYPE_KEY:
                raise GexfError(f"node attribute key {NODE_TYPE_KEY!r} is reserved")
            node_columns.append(ref_column(key, attrs.node[key], graph.num_nodes))
    edge_columns: list[tuple[str, type, dict]] = []
    if attrs is not None:
        for key in attrs.edge:
            if key.endswith(_REVERSE_SUFFIX):
                raise GexfError(f"edge attribute key {key!r} collides with the reverse marker")
            edge_columns.append(ref_column(key, attrs.edge[key]))

    out: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">\n',
        f'  <graph defaultedgetype="{"directed" if graph.directed else "undirected"}">\n',
    ]
    if node_columns:
        out.append('    <attributes class="node">\n')
        for key, kind, _ in node_columns:
            out.append(
                f"      <attribute id={quoteattr(key)} title={quoteattr(key)}"
                f' type="{_GEXF_TYPE_BY_KIND[kind]}"/>\n'
            )
        out.append("    </attributes>\n")
    if edge_columns:
        out.append('    <attributes class="edge">\n')
        for key, kind, _ in edge_columns:
            gexf_type = _GEXF_TYPE_BY_KIND[kind]
            out.append(
                f"      <attribute id={quoteattr(key)} title={quoteattr(key)}"
                f' type="{gexf_type}"/>\n'
            )
            out.append(
                f"      <attribute id={quoteattr(key + _REVERSE_SUFFIX)}"
                f" title={quoteattr(key + _REVERSE_SUFFIX)}"
                f' type="{gexf_type}"/>\n'
            )
        out.append("    </attributes>\n")

    out.append("    <nodes>\n")
    for v in graph.nodes():
        values: list[str] = []
        for key, _, column in node_columns:
            if v in column:
                values.append(
                    f'        <attvalue for={quoteattr(key)} value={quoteattr(_format_value(column[v]))}/>\n'
                )
        if values:
            out.append(f'      <node id="{v}" label="{v}">\n        <attvalues>\n')
            out.append("".join(values))
            out.append("        </attvalues>\n      </node>\n")
        else:
            out.append(f'      <node id="{v}" label="{v}"/>\n')
    out.append("    </nodes>\n")

    edges = list(graph.edges())
    edge_set = set(edges)
    for key, _, column in edge_columns:
        for u, v in column:
            if (u, v) not in edge_set and (v, u) not in edge_set:
                raise GexfError(f"edge attribute {key!r} has a value on ({u}, {v}), which is not an edge")

    out.append("    <edges>\n")
    edge_id = 0
    for u, v in edges:
        values = []
        for key, _, column in edge_columns:
            if (u, v) in column:
                values.append(
                    f'        <attvalue for={quoteattr(key)} value={quoteattr(_format_value(column[(u, v)]))}/>\n'
                )
            if (v, u) in column and (v, u) not in edge_set:
                values.append(
                    f'        <attvalue for={quoteattr(key + _REVERSE_SUFFIX)}'
                    f" value={quoteattr(_format_value(column[(v, u)]))}/>\n"
                )
        if values:
            out.append(f'      <edge id="{edge_id}" source="{u}" target="{v}">\n        <attvalues>\n')
            out.append("".join(values))
            out.append("        </attvalues>\n      </edge>\n")
        else:
            out.append(f'      <edge id="{edge_id}" source="{u}" target="{v}"/>\n')
        edge_id += 1
    out.append("    </edges>\n  </graph>\n</gexf>\n")
    return "".join(out)


def document_or_error(write, *args):
    try:
        return write(*args)
    except GexfError as exc:
        return f"GexfError: {exc}"


DOC_VALUES = [
    st.integers(-(2**70), 2**70),
    st.floats(allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, 1.5]),  # equal values of other bits: the writer groups values by bits
    st.text(max_size=3).filter(lambda text: not _NOT_XML.search(text)),
]
RARELY = st.sampled_from([False] * 9 + [True])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_document_and_errors_match_the_reference_writer(data):
    """Directed and undirected graphs from 0 nodes up, with reverse pairs, values on non-edges, reserved keys,
    empty columns, node ids out of range and strings XML cannot carry."""
    n = data.draw(st.integers(0, 7))
    directed = data.draw(st.booleans())
    node = st.integers(-1, n)
    pairs = data.draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1] and 0 <= min(p) <= max(p) < n),
                               max_size=12))
    pairs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=4))] if pairs else []
    graph = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs], directed)[0]
    edges = list(graph.edges())
    near = st.sampled_from(edges + [(v, u) for u, v in edges]) if edges else st.tuples(node, node)
    states = None
    if data.draw(st.booleans()):
        states = data.draw(st.dictionaries(node, st.sampled_from(["S", "I", "R&<"]), max_size=n + 1))
        if data.draw(st.booleans()):  # as a run holds them
            states = NodeStates.from_mapping({v: name for v, name in states.items() if 0 <= v < n}, n)
    attrs = AttributeTable()
    for side, usual, rare, reserved in (
        ("node", st.integers(0, n - 1) if n else node, node, NODE_TYPE_KEY),
        ("edge", near, st.tuples(node, node), "w" + _REVERSE_SUFFIX),
    ):
        keys = data.draw(st.lists(st.sampled_from(["a", "b", 'q"<&>']), max_size=3, unique=True))
        for key in keys + [reserved] * data.draw(RARELY):
            values = data.draw(st.sampled_from(DOC_VALUES + [st.text(max_size=3)] * data.draw(RARELY)))
            getattr(attrs, side)[key] = data.draw(st.dictionaries(rare if data.draw(RARELY) else usual, values,
                                                                  max_size=8))
    want = document_or_error(ref_gexf_document, graph, states, attrs)
    assert document_or_error(gexf_document, graph, states, attrs) == want


# ---------------------------------------------------------------------------
# Reading: every refusal by its text, and the documents read by local name
# ---------------------------------------------------------------------------


def gexf_text(graph: str, root: str = '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">') -> str:
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{root}\n  <graph defaultedgetype="undirected">{graph}</graph>\n</gexf>\n'


NODE_X = '<attributes class="node"><attribute id="x" type="long"/></attributes>'
TWO_NODES = '<nodes><node id="0"/><node id="1"/></nodes>'
# (document, the text after "<path>: ") for each refusal of load_gexf; "{path}" stands for the file's path.
READER_REFUSALS = {
    "malformed XML": ("<gexf><graph><nodes>", "malformed XML in {path}: "),
    "root element": ('<?xml version="1.0"?>\n<network><graph/></network>\n',
                     "{path}: root element is 'network', expected gexf"),
    "no graph": ('<gexf xmlns="http://www.gexf.net/1.2draft"><meta/></gexf>', "{path}: no <graph> element"),
    "attribute without id": (gexf_text('<attributes class="edge"><attribute type="long"/></attributes>'),
                             "{path}: <attribute> without id"),
    "unknown attribute kind": (gexf_text('<attributes class="node"><attribute id="x" type="boolean"/></attributes>'),
                               "{path}: unknown attribute kind 'boolean' for 'x'"),
    "node without id": (gexf_text('<nodes><node label="a"/></nodes>'), "{path}: <node> without id"),
    "duplicate node id": (gexf_text('<nodes><node id="0"/><node id="0"/></nodes>'), "{path}: duplicate node id '0'"),
    "attvalue without value": (gexf_text(NODE_X + '<nodes><node id="0"><attvalues><attvalue for="x"/></attvalues>'
                                         "</node></nodes>"), "{path}: <attvalue> missing for/value"),
    "undeclared attribute": (gexf_text('<nodes><node id="0"><attvalues><attvalue for="77" value="1"/></attvalues>'
                                       "</node></nodes>"), "{path}: attvalue references undeclared attribute '77'"),
    "bad value": (gexf_text(NODE_X + '<nodes><node id="0"><attvalues><attvalue for="x" value="abc"/></attvalues>'
                            "</node></nodes>"), "{path}: bad value 'abc' for attribute 'x'"),
    "edge without target": (gexf_text(TWO_NODES + '<edges><edge id="0" source="0"/></edges>'),
                            "{path}: <edge> missing source/target"),
    "edge to an undeclared node": (gexf_text(TWO_NODES + '<edges><edge id="0" source="0" target="9"/></edges>'),
                                   "{path}: edge ('0', '9') references an undeclared node"),
    # A column the values cannot make: the reverse values of "x" hold another kind than its own.
    "mixed column kinds": (gexf_text(
        '<attributes class="edge"><attribute id="x" type="long"/><attribute id="x__reverse" type="double"/>'
        "</attributes>" + TWO_NODES + '<edges><edge id="0" source="0" target="1"><attvalues>'
        '<attvalue for="x" value="1"/><attvalue for="x__reverse" value="2.5"/></attvalues></edge></edges>'),
        "{path}: attribute 'x': mixed value kinds in column"),
    # The order of the checks: every declaration before any node, every node before any edge.
    "declaration after the nodes": (gexf_text('<nodes><node id="0"/><node id="0"/></nodes>'
                                              '<attributes class="node"><attribute type="long"/></attributes>'),
                                    "{path}: <attribute> without id"),
    "edges before the nodes": (gexf_text('<edges><edge id="0"/></edges><nodes><node/></nodes>'),
                               "{path}: <node> without id"),
}


@pytest.mark.parametrize("case", READER_REFUSALS)
def test_every_reader_refusal_names_its_fault(tmp_path, case):
    document, text = READER_REFUSALS[case]
    path = tmp_path / "bad.gexf"
    path.write_text(document)
    with pytest.raises(GexfError, match=re.escape(text.format(path=path))):
        load_gexf(path)


def test_a_structure_file_is_read_for_its_topology_alone(tmp_path):
    # A sound topology whose edge column load_gexf refuses: "x" is declared long, "x__reverse" double.
    document, text = READER_REFUSALS["mixed column kinds"]
    path = tmp_path / "net.gexf"
    path.write_text(document)
    config = parse_config(
        "name: net\nstructure:\n  file:\n    path: net.gexf\n    format: gexf\n"
        "definitions:\n  pd-model:\n    name: custom\n    nodetypes:\n      A:\n        random-with-count:\n"
        "          count: 2\n")
    assert build_graph(config, None, base_dir=tmp_path) == Graph.from_edges(2, [0], [1])[0]
    result = simulate(config, epochs=2, base_dir=tmp_path)
    assert result.states.counts() == {"A": 2}
    with pytest.raises(GexfError, match=re.escape(text.format(path=path))):
        load_gexf(path)


def test_documents_in_no_or_a_foreign_namespace_read_as_the_written_one(tmp_path):
    graph = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], directed=True)[0]
    attrs = AttributeTable()
    attrs.node["w"] = {0: 1.5, 3: -2.0}
    attrs.edge["x"] = {(0, 1): 1, (1, 0): 2, (2, 3): 3}
    written = gexf_document(graph, {0: "S", 1: "I", 2: "S", 3: "R"}, attrs)
    namespace = 'xmlns="http://www.gexf.net/1.2draft"'
    assert namespace in written
    read = []
    for name, replacement in (("draft", namespace), ("none", ""), ("foreign", 'xmlns="http://example.org/other"')):
        (tmp_path / f"{name}.gexf").write_text(written.replace(namespace, replacement))
        read.append(load_gexf(tmp_path / f"{name}.gexf"))
    assert read[0] == (graph, {0: "S", 1: "I", 2: "S", 3: "R"}, attrs)
    assert read[1] == read[0] and read[2] == read[0]


def test_reverse_value_lands_on_the_reversed_pair_when_only_its_base_key_is_declared(tmp_path):
    path = tmp_path / "reverse.gexf"
    path.write_text(gexf_text(
        '<attributes class="edge"><attribute id="x" type="double"/></attributes>' + TWO_NODES
        + '<edges><edge id="0" source="0" target="1"><attvalues><attvalue for="x" value="0.5"/>'
        '<attvalue for="x__reverse" value="2"/></attvalues></edge></edges>'))
    _, _, attrs = load_gexf(path)
    assert attrs.edge == {"x": {(0, 1): 0.5, (1, 0): 2.0}}
    assert attrs.edge["x"].kind is float


def test_the_last_nodes_and_edges_blocks_are_read(tmp_path):
    path = tmp_path / "blocks.gexf"
    path.write_text(gexf_text(
        '<nodes><node id="a"/><node id="b"/><node id="c"/></nodes><edges><edge id="0" source="a" target="b"/></edges>'
        '<nodes><node id="0"/><node id="1"/></nodes><edges><edge id="0" source="1" target="0"/></edges>'))
    graph, states, attrs = load_gexf(path)
    assert graph == Graph.from_edges(2, [0], [1])[0]
    assert states == {} and attrs == AttributeTable()
