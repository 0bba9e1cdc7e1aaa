"""GEXF 1.2 documents: ``gexf_document`` renders one, ``load_gexf`` reads one (``read_gexf`` without columns).

``collect.write_gexf`` writes one to disk atomically; ``load_gexf`` reads tags by local name, in any namespace or none.

Node types travel under the reserved attribute key ``node_type``. Edge
attributes are stored per written edge: the value for (source, target) under
the attribute's own id and the value for (target, source), when that pair is
not itself a written edge (the reverse of an undirected edge, or of a directed
edge with no reverse edge), under ``<id>__reverse``. A value on a pair with no
edge in either direction cannot be written and raises ``GexfError``. Attribute
kinds map to GEXF types integer -> long, number -> double, category -> string
(also for an empty column); a node type that is no string or is keyed on no
node id, a value, key or node type name XML 1.0 cannot carry, or a node id
outside the graph, raises ``GexfError`` naming it before any text is rendered
from the column arrays.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import GexfError, GraphError
from .graph import AttributeColumn, AttributeTable, AttributeValue, Graph, id_texts

NODE_TYPE_KEY = "node_type"
_REVERSE_SUFFIX = "__reverse"
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_GEXF_TYPE_BY_KIND = {int: "long", float: "double", str: "string"}
_PARSERS_BY_GEXF_TYPE = {
    "long": int,
    "integer": int,
    "double": float,
    "float": float,
    "string": str,
}


def _format_value(value: AttributeValue) -> str:
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr names its type
    return str(value)


def _checked(key: str, column: AttributeColumn, num_nodes: int | None = None) -> tuple[str, AttributeColumn]:
    """``(key, column)``; ``GexfError`` naming a column the file cannot hold (node ids checked given ``num_nodes``)."""
    if _NOT_XML.search(key):
        raise GexfError(f"cannot write attribute {key!r}: the key holds a character XML 1.0 does not allow")
    try:
        if num_nodes is not None:
            column.check_nodes(num_nodes)
    except GraphError as exc:
        raise GexfError(f"cannot write attribute {key!r}: {exc}") from exc
    if (column.kind or str) is str and _NOT_XML.search("".join(column.arrays()[1])):
        raise GexfError(f"cannot write attribute {key!r}: a value holds a character XML 1.0 does not allow")
    return key, column


def _attvalues(key: str, column: AttributeColumn, keys, blank=False) -> np.ndarray:
    """The ``<attvalue>`` line for ``key`` of ``column``'s value at each of ``keys``, "" where it has none or
    ``blank`` holds. Each distinct value is formatted once; floats are told apart by bits (-0.0 is not 0.0)."""
    from xml.sax.saxutils import quoteattr

    values = column.arrays()[1]
    distinct, inverse = np.unique(values.view(np.int64) if values.dtype == float else values, return_inverse=True)
    line = f"        <attvalue for={quoteattr(key)} value="
    texts = [line + quoteattr(_format_value(x)) + "/>\n" for x in distinct.view(values.dtype).tolist()] + [""]
    return np.array(texts, dtype=object)[np.append(inverse, -1)[np.where(blank, -1, column.positions(keys))]]


def _elements(heads: np.ndarray, lines: list[np.ndarray], tag: str) -> str:
    """Each ``heads`` element self-closed, or wrapping its ``<attvalue>`` ``lines`` (one array per attribute)."""
    values = sum(lines, np.full(heads.size, "", dtype=object))
    wrapped = heads + ">\n        <attvalues>\n" + values + f"        </attvalues>\n      </{tag}>\n"
    return "".join(np.where(values != "", wrapped, heads + "/>\n"))


def gexf_document(graph: Graph, states: dict[int, str] | None = None, attrs: AttributeTable | None = None) -> str:
    from xml.sax.saxutils import quoteattr  # imported here: it loads urllib.request and http.client

    n, attrs = graph.num_nodes, attrs or AttributeTable()
    node_columns: list[tuple[str, AttributeColumn]] = []
    if states is not None:
        bad = [name for name in states.values() if not isinstance(name, str) or _NOT_XML.search(name)]
        if bad:
            why = "it holds a character XML 1.0 does not allow" if isinstance(bad[0], str) else "it is not a string"
            raise GexfError(f"cannot write node type {bad[0]!r}: {why}")
        try:
            node_columns.append((NODE_TYPE_KEY, AttributeColumn(NODE_TYPE_KEY, states)))
        except GraphError as exc:  # a key that is no node id
            raise GexfError(f"cannot write node types: {exc}") from exc
    for key in attrs.node:
        if key == NODE_TYPE_KEY:
            raise GexfError(f"node attribute key {NODE_TYPE_KEY!r} is reserved")
        node_columns.append(_checked(key, attrs.node[key], n))
    edge_columns: list[tuple[str, AttributeColumn]] = []
    for key in attrs.edge:
        if key.endswith(_REVERSE_SUFFIX):
            raise GexfError(f"edge attribute key {key!r} collides with the reverse marker")
        edge_columns.append(_checked(key, attrs.edge[key]))

    for key, column in edge_columns:
        u, v = column.ids().T
        off_edge = ~(graph.has_edges(u, v) | (graph.directed and graph.has_edges(v, u)))  # undirected: both held
        if off_edge.any():
            pair = f"({u[off_edge][0]}, {v[off_edge][0]})"
            raise GexfError(f"edge attribute {key!r} has a value on {pair}, which is not an edge")

    out: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">\n',
        f'  <graph defaultedgetype="{"directed" if graph.directed else "undirected"}">\n',
    ]
    for side, columns, suffixes in (("node", node_columns, ("",)), ("edge", edge_columns, ("", _REVERSE_SUFFIX))):
        if columns:
            out.append(f'    <attributes class="{side}">\n')
            out += [f"      <attribute id={quoteattr(key + suffix)} title={quoteattr(key + suffix)}"
                    f' type="{_GEXF_TYPE_BY_KIND[column.kind or str]}"/>\n' for key, column in columns for suffix in suffixes]
            out.append("    </attributes>\n")

    ids = id_texts(n)
    lines = [_attvalues(key, column, np.arange(n)) for key, column in node_columns]
    out += ["    <nodes>\n", _elements('      <node id="' + ids + '" label="' + ids + '"', lines, "node")]
    src, dst = graph.edge_arrays()
    reverse_is_edge = graph.directed and graph.has_edges(dst, src)  # its value is written on that edge
    lines = [line for key, column in edge_columns for line in (
        _attvalues(key, column, (src, dst)), _attvalues(key + _REVERSE_SUFFIX, column, (dst, src), reverse_is_edge))]
    heads = '      <edge id="' + id_texts(src.size) + '" source="' + ids[src] + '" target="' + ids[dst] + '"'
    out += ["    </nodes>\n    <edges>\n", _elements(heads, lines, "edge"), "    </edges>\n  </graph>\n</gexf>\n"]
    return "".join(out)


def read_gexf(path) -> tuple[Graph, dict[int, str], dict[str, dict], dict[str, dict]]:
    """``load_gexf``'s reading, with the node and edge attributes as ``{key: {id or pair: value}}``: no column is built.

    Node ids are remapped to dense 0-based ids in document order (identity for
    files this module wrote); of several ``<nodes>`` (or ``<edges>``) blocks the
    last is read. ``states`` is empty when no node carries ``node_type``.
    """
    import xml.etree.ElementTree as ET  # only reading needs the XML parser; a run that writes GEXF never loads it

    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise GexfError(f"malformed XML in {path}: {exc}") from exc
    if root.tag.rsplit("}", 1)[-1] != "gexf":
        raise GexfError(f"{path}: root element is {root.tag!r}, expected gexf")
    graph_el = root.find("{*}graph")
    if graph_el is None:
        raise GexfError(f"{path}: no <graph> element")

    parsers: dict[str, dict[str, type]] = {"node": {}, "edge": {}}
    for block in graph_el.iterfind("{*}attributes"):
        for attr in block.iterfind("{*}attribute"):
            attr_id, attr_type = attr.get("id"), attr.get("type", "string")
            if attr_id is None:
                raise GexfError(f"{path}: <attribute> without id")
            if attr_type not in _PARSERS_BY_GEXF_TYPE:
                raise GexfError(f"{path}: unknown attribute kind {attr_type!r} for {attr_id!r}")
            parsers["edge" if block.get("class") == "edge" else "node"][attr_id] = _PARSERS_BY_GEXF_TYPE[attr_type]

    def attvalues(element, side: str):
        """``(key, value)`` of each of ``element``'s attvalues; an ``__reverse`` key parses as its base key."""
        for attvalue in element.iterfind("{*}attvalues/{*}attvalue"):
            key, raw = attvalue.get("for"), attvalue.get("value")
            if key is None or raw is None:
                raise GexfError(f"{path}: <attvalue> missing for/value")
            parser = parsers[side].get(key) or parsers[side].get(key.removesuffix(_REVERSE_SUFFIX))
            if parser is None:
                raise GexfError(f"{path}: attvalue references undeclared attribute {key!r}")
            try:
                yield key, parser(raw)
            except ValueError as exc:
                raise GexfError(f"{path}: bad value {raw!r} for attribute {key!r}") from exc

    nodes_el, edges_el = ((graph_el.findall("{*}" + block) or [ET.Element(block)])[-1] for block in ("nodes", "edges"))
    id_map: dict[str, int] = {}
    states: dict[int, str] = {}
    node_columns: dict[str, dict] = {}
    for node in nodes_el.iterfind("{*}node"):
        raw_id = node.get("id")
        if raw_id is None:
            raise GexfError(f"{path}: <node> without id")
        if raw_id in id_map:
            raise GexfError(f"{path}: duplicate node id {raw_id!r}")
        dense = id_map[raw_id] = len(id_map)
        for key, value in attvalues(node, "node"):
            if key == NODE_TYPE_KEY:
                states[dense] = str(value)
            else:
                node_columns.setdefault(key, {})[dense] = value

    src, dst = [], []
    edge_columns: dict[str, dict] = {}
    for edge in edges_el.iterfind("{*}edge"):
        raw_u, raw_v = edge.get("source"), edge.get("target")
        if raw_u is None or raw_v is None:
            raise GexfError(f"{path}: <edge> missing source/target")
        if raw_u not in id_map or raw_v not in id_map:
            raise GexfError(f"{path}: edge ({raw_u!r}, {raw_v!r}) references an undeclared node")
        u, v = id_map[raw_u], id_map[raw_v]
        if u == v:
            raise GexfError(f"{path}: invalid edge ({raw_u!r}, {raw_v!r}): self-loop ({u}, {u}) not allowed")
        src.append(u)
        dst.append(v)
        for key, value in attvalues(edge, "edge"):
            base = key.removesuffix(_REVERSE_SUFFIX)
            edge_columns.setdefault(base, {})[(u, v) if base == key else (v, u)] = value
    graph = Graph.from_edges(len(id_map), src, dst, graph_el.get("defaultedgetype") == "directed")[0]
    return graph, states, node_columns, edge_columns


def load_gexf(path) -> tuple[Graph, dict[int, str], AttributeTable]:
    """Read a GEXF 1.2 file into (graph, states, attributes), as ``read_gexf`` reads it."""
    graph, states, node_columns, edge_columns = read_gexf(path)
    attrs = AttributeTable()
    try:
        attrs.node.update(node_columns)  # each column built at once from its values
        attrs.edge.update(edge_columns)
    except GraphError as exc:  # e.g. an edge column whose reverse values hold another kind
        raise GexfError(f"{path}: {exc}") from exc
    return graph, states, attrs
