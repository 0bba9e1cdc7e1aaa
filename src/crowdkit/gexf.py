"""GEXF 1.2 reading and writing.

Node types travel under the reserved attribute key ``node_type``. Edge
attributes are stored per written edge: the value for (source, target) under
the attribute's own id and the value for (target, source), when that pair is
not itself a written edge (the reverse of an undirected edge, or of a directed
edge with no reverse edge), under ``<id>__reverse``. A value on a pair with no
edge in either direction cannot be written and raises ``GexfError``. Attribute
kinds map to GEXF types integer -> long, number -> double, category -> string.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from .errors import GexfError, GraphError
from .graph import AttributeTable, AttributeValue, Graph

NODE_TYPE_KEY = "node_type"
_REVERSE_SUFFIX = "__reverse"

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
        return repr(value)
    return str(value)


def write_gexf(
    graph: Graph,
    path,
    states: dict[int, str] | None = None,
    attrs: AttributeTable | None = None,
) -> None:
    """Write the graph with node types and attributes to a GEXF 1.2 file."""
    document = gexf_document(graph, states, attrs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)


def gexf_document(
    graph: Graph,
    states: dict[int, str] | None = None,
    attrs: AttributeTable | None = None,
) -> str:
    node_columns: list[tuple[str, type, dict[int, AttributeValue]]] = []
    if states is not None:
        node_columns.append((NODE_TYPE_KEY, str, states))
    if attrs is not None:
        for key in attrs.node:
            if key == NODE_TYPE_KEY:
                raise GexfError(f"node attribute key {NODE_TYPE_KEY!r} is reserved")
            kind = attrs.node_kind(key) or str
            node_columns.append((key, kind, attrs.node[key]))
    edge_columns: list[tuple[str, type, dict[tuple[int, int], AttributeValue]]] = []
    if attrs is not None:
        for key in attrs.edge:
            if key.endswith(_REVERSE_SUFFIX):
                raise GexfError(f"edge attribute key {key!r} collides with the reverse marker")
            edge_columns.append((key, attrs.edge_kind(key) or str, attrs.edge[key]))

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


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def load_gexf(path) -> tuple[Graph, dict[int, str], AttributeTable]:
    """Read a GEXF 1.2 file into (graph, states, attributes).

    Node ids are remapped to dense 0-based ids in document order (identity for
    files this module wrote). ``states`` is empty when no node carries the
    ``node_type`` attribute.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise GexfError(f"malformed XML in {path}: {exc}") from exc
    root = tree.getroot()
    if _local_name(root.tag) != "gexf":
        raise GexfError(f"{path}: root element is {root.tag!r}, expected gexf")
    graph_el = None
    for child in root:
        if _local_name(child.tag) == "graph":
            graph_el = child
            break
    if graph_el is None:
        raise GexfError(f"{path}: no <graph> element")
    directed = graph_el.get("defaultedgetype", "undirected") == "directed"

    node_attr_parsers: dict[str, type] = {}
    edge_attr_parsers: dict[str, type] = {}
    nodes_el = None
    edges_el = None
    for child in graph_el:
        tag = _local_name(child.tag)
        if tag == "attributes":
            target = edge_attr_parsers if child.get("class") == "edge" else node_attr_parsers
            for attr in child:
                if _local_name(attr.tag) != "attribute":
                    continue
                attr_id = attr.get("id")
                attr_type = attr.get("type", "string")
                if attr_id is None:
                    raise GexfError(f"{path}: <attribute> without id")
                parser = _PARSERS_BY_GEXF_TYPE.get(attr_type)
                if parser is None:
                    raise GexfError(f"{path}: unknown attribute kind {attr_type!r} for {attr_id!r}")
                target[attr_id] = parser
        elif tag == "nodes":
            nodes_el = child
        elif tag == "edges":
            edges_el = child

    id_map: dict[str, int] = {}
    node_values: list[tuple[int, str, AttributeValue]] = []
    if nodes_el is not None:
        for node in nodes_el:
            if _local_name(node.tag) != "node":
                continue
            raw_id = node.get("id")
            if raw_id is None:
                raise GexfError(f"{path}: <node> without id")
            if raw_id in id_map:
                raise GexfError(f"{path}: duplicate node id {raw_id!r}")
            dense = len(id_map)
            id_map[raw_id] = dense
            for key, value in _iter_attvalues(node, node_attr_parsers, path):
                node_values.append((dense, key, value))

    graph = Graph(len(id_map), directed=directed)
    states: dict[int, str] = {}
    attrs = AttributeTable()
    for dense, key, value in node_values:
        if key == NODE_TYPE_KEY:
            states[dense] = str(value)
        else:
            attrs.set_node(dense, key, value)

    if edges_el is not None:
        for edge in edges_el:
            if _local_name(edge.tag) != "edge":
                continue
            raw_u, raw_v = edge.get("source"), edge.get("target")
            if raw_u is None or raw_v is None:
                raise GexfError(f"{path}: <edge> missing source/target")
            if raw_u not in id_map or raw_v not in id_map:
                raise GexfError(f"{path}: edge ({raw_u!r}, {raw_v!r}) references an undeclared node")
            u, v = id_map[raw_u], id_map[raw_v]
            try:
                graph.add_edge(u, v)
            except GraphError as exc:
                raise GexfError(f"{path}: invalid edge ({raw_u!r}, {raw_v!r}): {exc}") from exc
            for key, value in _iter_attvalues(edge, edge_attr_parsers, path):
                if key.endswith(_REVERSE_SUFFIX):
                    attrs.set_edge(v, u, key[: -len(_REVERSE_SUFFIX)], value)
                else:
                    attrs.set_edge(u, v, key, value)
    return graph, states, attrs


def _iter_attvalues(element, parsers: dict[str, type], path):
    for child in element:
        if _local_name(child.tag) != "attvalues":
            continue
        for av in child:
            if _local_name(av.tag) != "attvalue":
                continue
            key = av.get("for")
            raw = av.get("value")
            if key is None or raw is None:
                raise GexfError(f"{path}: <attvalue> missing for/value")
            base_key = key[: -len(_REVERSE_SUFFIX)] if key.endswith(_REVERSE_SUFFIX) else key
            parser = parsers.get(key) or parsers.get(base_key)
            if parser is None:
                raise GexfError(f"{path}: attvalue references undeclared attribute {key!r}")
            try:
                yield key, parser(raw)
            except ValueError as exc:
                raise GexfError(f"{path}: bad value {raw!r} for attribute {key!r}") from exc
