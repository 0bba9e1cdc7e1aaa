"""Graph container, generators, edge-list I/O, and attribute storage."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdkit import (
    AttributeTable,
    EdgeListError,
    Graph,
    GraphError,
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_random_regular,
    load_edge_list,
    write_edge_list,
)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Core container behavior
# ---------------------------------------------------------------------------


class TestGraphContainer:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_add_edge_undirected(self):
        g = Graph(3)
        assert g.add_edge(0, 1) is True
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.neighbors(0) == frozenset({1})
        assert g.neighbors(1) == frozenset({0})

    def test_duplicate_add_returns_false(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert g.add_edge(0, 1) is False
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_out_of_range_rejected(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 3)
        with pytest.raises(GraphError):
            g.add_edge(-1, 0)

    def test_remove_edge(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert g.remove_edge(1, 0) is True
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)
        assert g.remove_edge(0, 1) is False

    def test_directed_edges_one_way(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.neighbors(0) == frozenset({1})
        assert g.neighbors(1) == frozenset()
        assert g.in_neighbors(1) == frozenset({0})

    def test_directed_degree_counts_both_directions(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 0)
        assert g.degree(0) == 2  # one out, one in
        assert g.degree(1) == 1
        assert g.degree(2) == 1

    def test_edges_sorted_canonical(self):
        g = Graph(4)
        g.add_edge(3, 2)
        g.add_edge(1, 0)
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_copy_independent(self):
        g = Graph(3)
        g.add_edge(0, 1)
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_version_bumps_on_mutation(self):
        g = Graph(3)
        v0 = g.version
        g.add_edge(0, 1)
        assert g.version != v0
        v1 = g.version
        g.remove_edge(0, 1)
        assert g.version != v1

    def test_to_sparse_shape_and_symmetry(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        m = g.to_sparse()
        assert m.shape == (3, 3)
        dense = m.toarray()
        assert np.array_equal(dense, dense.T)
        assert dense.sum() == 4.0

    @pytest.mark.parametrize("directed", [False, True])
    def test_in_csr_rows_are_in_neighbors_cached_per_version(self, directed):
        g = Graph(4, directed=directed)
        g.add_edge(0, 1)
        g.add_edge(2, 1)

        def rows(graph):
            indptr, indices = graph.in_csr()
            return [sorted(indices[indptr[v]:indptr[v + 1]].tolist()) for v in graph.nodes()]

        assert rows(g) == [sorted(g.in_neighbors(v)) for v in g.nodes()]
        assert g.in_csr()[1] is g.in_csr()[1]  # cached while the version holds
        g.add_edge(3, 1)
        assert rows(g)[1] == [0, 2, 3]
        h = g.copy()
        assert h._in_csr is None  # a copy starts without the cache
        h.remove_edge(0, 1)
        assert rows(h)[1] == [2, 3]
        assert rows(g)[1] == [0, 2, 3]


# ---------------------------------------------------------------------------
# Random-regular generator
# ---------------------------------------------------------------------------


class TestRandomRegular:
    def test_100_nodes_degree_4(self):
        g = generate_random_regular(100, 4, make_rng(1))
        assert g.num_nodes == 100
        assert g.num_edges == 200
        assert all(g.degree(v) == 4 for v in range(100))

    def test_degree_zero_yields_isolated_nodes(self):
        g = generate_random_regular(4, 0, make_rng(1))
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_degree_must_be_less_than_n(self):
        with pytest.raises(GraphError):
            generate_random_regular(3, 3, make_rng(1))

    def test_odd_product_rejected(self):
        with pytest.raises(GraphError):
            generate_random_regular(5, 3, make_rng(1))

    def test_no_self_loops_or_duplicates(self):
        g = generate_random_regular(50, 6, make_rng(7))
        seen = set()
        for u, v in list(g.edges()):
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))


# ---------------------------------------------------------------------------
# Barabasi-Albert generator
# ---------------------------------------------------------------------------


class TestBarabasiAlbert:
    def test_edge_count_formula(self):
        for n, m in [(10, 2), (50, 3), (100, 5)]:
            g = generate_barabasi_albert(n, m, make_rng(3))
            expected = m * (n - m) + m * (m - 1) // 2
            assert g.num_edges == expected

    def test_minimal_case_single_edge(self):
        g = generate_barabasi_albert(2, 1, make_rng(0))
        assert g.num_nodes == 2
        assert g.num_edges == 1

    def test_connected_and_min_degree(self):
        g = generate_barabasi_albert(1024, 3, make_rng(11))
        assert all(g.degree(v) >= 3 for v in range(1024))
        # BFS connectivity
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert len(seen) == 1024

    def test_heavy_tail(self):
        # Preferential attachment produces hubs: max degree well above median.
        for seed in range(10):
            g = generate_barabasi_albert(500, 2, make_rng(seed))
            degrees = [g.degree(v) for v in range(500)]
            assert max(degrees) / statistics.median(degrees) > 5

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            generate_barabasi_albert(5, 0, make_rng(0))
        with pytest.raises(GraphError):
            generate_barabasi_albert(2, 3, make_rng(0))


# ---------------------------------------------------------------------------
# Erdos-Renyi generator
# ---------------------------------------------------------------------------


class TestErdosRenyi:
    def test_p_zero_empty(self):
        g = generate_erdos_renyi(10, 0.0, make_rng(0))
        assert g.num_edges == 0

    def test_p_one_complete(self):
        g = generate_erdos_renyi(10, 1.0, make_rng(0))
        assert g.num_edges == 45

    def test_expected_edge_count_within_3_sigma(self):
        n, p = 1000, 0.01
        pairs = n * (n - 1) // 2
        mean = pairs * p
        sigma = math.sqrt(pairs * p * (1 - p))
        g = generate_erdos_renyi(n, p, make_rng(42))
        assert abs(g.num_edges - mean) <= 3 * sigma

    def test_invalid_probability(self):
        with pytest.raises(GraphError):
            generate_erdos_renyi(10, -0.1, make_rng(0))
        with pytest.raises(GraphError):
            generate_erdos_renyi(10, 1.5, make_rng(0))


# ---------------------------------------------------------------------------
# Edge-list file I/O
# ---------------------------------------------------------------------------


class TestEdgeListIO:
    def test_mutual_pair_collapses_to_one_edge(self, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("0 1\n1 0\n")
        g = load_edge_list(path)
        assert g.num_nodes == 2
        assert g.num_edges == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\n0 1\n\n# another\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_empty_file_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = load_edge_list(path)
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(path)
        assert "2" in str(exc.value)

    def test_non_integer_token_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("0 x\n")
        with pytest.raises(EdgeListError):
            load_edge_list(path)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("3 3\n")
        with pytest.raises(EdgeListError):
            load_edge_list(path)

    def test_ids_remapped_dense_first_seen(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("100 7\n7 42\n")
        g, id_map = load_edge_list(path, return_id_map=True)
        assert g.num_nodes == 3
        assert id_map == {100: 0, 7: 1, 42: 2}
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_write_then_read_round_trip(self, tmp_path):
        g = generate_random_regular(20, 4, make_rng(5))
        path = tmp_path / "out.txt"
        write_edge_list(g, path)
        g2, id_map = load_edge_list(path, return_id_map=True)
        assert g2.num_nodes == 20
        assert g2.num_edges == g.num_edges
        for u, v in g.edges():
            assert g2.has_edge(id_map[u], id_map[v])

    def test_directed_load(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 1\n1 0\n")
        g = load_edge_list(path, directed=True)
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)


# ---------------------------------------------------------------------------
# Attribute storage
# ---------------------------------------------------------------------------


class TestAttributeTable:
    def test_node_attribute_set_get(self):
        attrs = AttributeTable()
        attrs.set_node(0, "age", 42.0)
        assert attrs.get_node(0, "age") == 42.0
        assert attrs.get_node(1, "age") is None
        assert attrs.get_node(1, "age", -1.0) == -1.0

    def test_kind_locked_per_key(self):
        attrs = AttributeTable()
        attrs.set_node(0, "age", 42.0)
        with pytest.raises(GraphError):
            attrs.set_node(1, "age", "old")

    def test_bool_values_rejected(self):
        attrs = AttributeTable()
        with pytest.raises(GraphError):
            attrs.set_node(0, "flag", True)

    def test_edge_attribute_both_directions(self):
        attrs = AttributeTable()
        attrs.set_edge(0, 1, "weight", 0.5)
        assert attrs.get_edge(0, 1, "weight") == 0.5

    def test_drop_edge_clears_both_orientations(self):
        attrs = AttributeTable()
        attrs.set_edge(0, 1, "w", 1.0)
        attrs.set_edge(1, 0, "w", 2.0)
        attrs.drop_edge(0, 1)
        assert attrs.get_edge(0, 1, "w") is None
        assert attrs.get_edge(1, 0, "w") is None

    def test_column_assignment(self):
        attrs = AttributeTable()
        attrs.set_node_column("score", {0: 1.0, 1: 2.0})
        assert attrs.get_node(1, "score") == 2.0
        with pytest.raises(GraphError):
            attrs.set_node_column("score", {2: "text"})

    def test_copy_and_equality(self):
        attrs = AttributeTable()
        attrs.set_node(0, "age", 30.0)
        attrs.set_edge(0, 1, "w", 1.5)
        dup = attrs.copy()
        assert dup == attrs
        dup.set_node(0, "age", 31.0)
        assert dup != attrs


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=60),
    d=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_regular_handshake(n, d, seed):
    if d >= n or (n * d) % 2 == 1:
        return
    g = generate_random_regular(n, d, make_rng(seed))
    total = sum(g.degree(v) for v in range(n))
    assert total == 2 * g.num_edges
    assert total == n * d


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_ba_handshake_and_count(n, seed):
    m = min(3, n - 1) or 1
    g = generate_barabasi_albert(n, m, make_rng(seed))
    total = sum(g.degree(v) for v in range(n))
    assert total == 2 * g.num_edges
    assert g.num_edges == m * (n - m) + m * (m - 1) // 2
