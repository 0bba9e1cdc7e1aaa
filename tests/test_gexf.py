"""GEXF export/import round-trips and referential integrity."""

from __future__ import annotations

import numpy as np
import pytest

from crowdkit import (
    AttributeTable,
    GexfError,
    Graph,
    generate_random_regular,
    load_gexf,
    write_gexf,
)


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
