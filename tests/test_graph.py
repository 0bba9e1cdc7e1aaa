"""Graph container, generators, edge-list I/O, and attribute storage."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import logging
import math
import statistics
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdkit.graph as graph_mod
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
from crowdkit.engine import derive_seed
from crowdkit.graph import _try_stub_pairing, _value_kind
from crowdkit.metrics import pagerank
from conftest import column_kind


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

    def test_node_count_bound(self):
        """Pair codes hold ids below 2**31, so larger graphs are refused before anything is allocated."""
        for bad in (2**31, 2**40, -1):
            with pytest.raises(GraphError, match=r"num_nodes must be in \[0, 2\*\*31\), got"):
                Graph(bad)
        with pytest.raises(GraphError, match=r"num_nodes must be in"):
            generate_random_regular(2**31, 4, make_rng())
        assert Graph(5).num_nodes == 5

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

    def test_out_csr_shape_and_symmetry(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        csr = g.out_csr()
        assert csr[0].size == 4
        dense = np.zeros((3, 3))
        dense[csr.rows, csr[1]] = 1.0
        assert np.array_equal(dense, dense.T)
        assert dense.sum() == 4.0

    @pytest.mark.parametrize("directed", [False, True])
    def test_in_csr_rows_are_in_neighbors_cached_per_version(self, directed):
        g = Graph(4, directed=directed)
        g.add_edge(0, 1)
        g.add_edge(2, 1)

        def rows(graph):
            indptr, indices = graph.in_csr()
            return [indices[indptr[v]:indptr[v + 1]].tolist() for v in graph.nodes()]

        assert rows(g) == [sorted(g.in_neighbors(v)) for v in g.nodes()]  # rows ascending
        cached = g.in_csr()[1]
        assert g.in_csr()[1] is cached  # cached while the version holds
        g.add_edge(3, 1)
        assert g.in_csr()[1] is not cached
        assert rows(g)[1] == [0, 2, 3]
        h = g.copy()
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

    def test_failed_rewrite_keeps_previous_list_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "net.txt"
        write_edge_list(generate_random_regular(10, 2, make_rng(0)), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError):
            write_edge_list(generate_random_regular(40, 4, make_rng(1)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.txt"]

    @pytest.mark.parametrize("filled", [False, True])
    def test_failed_write_removes_only_the_empty_directories_it_made(self, tmp_path, monkeypatch, filled):
        """A failed write removes the parent directories it made, deepest first, while they are empty: ``kept``
        was there before and stays, and so does ``kept/made`` once another writer puts a file in it meanwhile."""
        (tmp_path / "kept").mkdir()

        def failing_replace(src, dst):
            if filled:
                (tmp_path / "kept" / "made" / "other.txt").write_text("")
            raise OSError("disk went away")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            write_edge_list(generate_random_regular(10, 2, make_rng(0)), tmp_path / "kept" / "made" / "a" / "net.txt")
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == (["kept", "kept/made", "kept/made/other.txt"] if filled else ["kept"])

    def test_inline_comment_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "inline.txt"
        path.write_text("# header\n0 1 # note\n")
        with pytest.raises(EdgeListError, match="line 2.*expected 2 fields, got 4"):
            load_edge_list(path)

    def test_bulk_parse_reads_comments_crlf_tabs_and_signs(self, tmp_path):
        path = tmp_path / "bulk.txt"
        path.write_bytes(b"# header\r\n 100\t7 \r\n\r\n  # between\n+7 -42\n7 100\n")
        with mock.patch.object(graph_mod, "_scalar_edges", side_effect=AssertionError("scalar parser used")):
            with captured_log() as messages:
                g, id_map = load_edge_list(path, return_id_map=True)
        assert id_map == {100: 0, 7: 1, -42: 2}
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert messages == [f"edge list {path}: collapsed 1 duplicate edges"]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), directed=st.booleans(), data=st.data())
    def test_written_text_is_the_per_edge_format(self, n, directed, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)) if n else []
        g = Graph.from_edges(n, [u for u, v in pairs if u != v], [v for u, v in pairs if u != v], directed)[0]
        with tempfile.TemporaryDirectory() as tmp:
            write_edge_list(g, Path(tmp) / "out.txt")
            assert (Path(tmp) / "out.txt").read_text() == "".join(f"{u} {v}\n" for u, v in g.edges())

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n \t\n"])
    def test_file_without_edges_loads_empty_and_warns_nothing(self, tmp_path, text):
        path = tmp_path / "none.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            g, id_map = load_edge_list(path, return_id_map=True)
        assert (g.num_nodes, id_map, seen) == (0, {}, [])


@contextlib.contextmanager
def captured_log():
    """The messages ``crowdkit.graph`` logs at INFO and above inside the block."""
    messages: list[str] = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger, level = graph_mod.logger, graph_mod.logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# small ids (repeats, reversals, self-loops), signs and zeros, sparse and large ids up to the int64 bounds;
# then tokens int() and numpy may read differently
ID_TOKEN = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+4", "-0", "007", "4294967296", "123456789012", "-9223372036854775807", "-9223372036854775808"]),
    st.integers(-(2**63), 2**63 - 1).map(str),
)
ODD_TOKEN = st.sampled_from(["1_000", "9223372036854775808", "x", "1.0", "\u0663", "#", "2#"])
EDGE_SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t ", "\xa0", "\x0b", "\x0c", "\x1c"])
EDGE_PADDING = st.sampled_from(["", "", " ", "\t", "\xa0", "\x0c"])


@st.composite
def edge_list_texts(draw) -> str:
    """Edge lists, half of them with well-formed pairs only; the rest may hold any line the parsers refuse."""
    odd = draw(st.booleans())
    token = st.one_of(ID_TOKEN, ODD_TOKEN) if odd else ID_TOKEN
    kinds = ["pair", "pair", "pair", "comment", "blank"] + (["fields", "inline"] if odd else [])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        line = ""
        if kind in ("pair", "fields", "inline"):
            tokens = draw(st.lists(token, min_size=1, max_size=3) if kind == "fields" else st.tuples(token, token))
            line = "".join(draw(EDGE_SEPARATOR) + token for token in tokens)[1:]
            line += draw(EDGE_SEPARATOR) + "# note" if kind == "inline" else ""
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "#0 1"]))
        lines.append(draw(EDGE_PADDING) + line + draw(EDGE_PADDING) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines) + draw(st.sampled_from(["", "0 1"]))


@st.composite
def long_edge_list_texts(draw) -> str:
    """A few hundred distinct-id pairs over a few dozen sparse, negative and int64-extreme ids: long runs of equal ids."""
    extreme = st.sampled_from([-(2**63), 2**63 - 1, -1, 0])
    ids = draw(st.lists(st.one_of(extreme, st.integers(-(2**63), 2**63 - 1)), min_size=2, max_size=40, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src, dst = rng.integers(0, len(ids), (2, draw(st.integers(100, 400)))).tolist()
    return "".join(f"{ids[u]} {ids[v]}\n" for u, v in zip(src, dst) if u != v)


def load_outcome(path, directed: bool):
    """``(graph, id map, log messages)`` of ``load_edge_list``, or its ``EdgeListError`` text; no warning."""
    with warnings.catch_warnings(record=True) as seen, captured_log() as messages:
        warnings.simplefilter("always")
        try:
            g, id_map = load_edge_list(path, directed=directed, return_id_map=True)
            outcome = (g, id_map, messages)
        except EdgeListError as exc:
            outcome = str(exc)
    assert seen == []
    return outcome


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(edge_list_texts(), long_edge_list_texts()), directed=st.booleans())
def test_property_bulk_edge_list_parse_matches_the_line_parser(text, directed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        bulk = load_outcome(path, directed)
        with mock.patch("numpy.loadtxt", side_effect=ValueError("read line by line")):
            assert load_outcome(path, directed) == bulk


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
        attrs.node["score"].clear()  # an emptied column forgets its kind
        assert attrs.node["score"] == {} and attrs.node["score"].kind is None
        attrs.set_node_column("score", {2: "text"})
        assert attrs.node["score"] == {2: "text"}

    def test_values_without_keys_sit_at_node_ids_and_have_no_edge_pairs(self):
        column = graph_mod.AttributeColumn("age", np.array([3.0, 1.0, 2.0]))
        assert column == {0: 3.0, 1: 1.0, 2: 2.0} and column.ids().tolist() == [0, 1, 2]
        with pytest.raises(GraphError, match=r"attribute 'w': .* is not a pair of integer node ids"):
            graph_mod.AttributeColumn("w", [1.5, 2.5], edge=True)
        assert graph_mod.AttributeColumn("w", [], edge=True) == {}

    @pytest.mark.parametrize("edge, values, keys, message", [
        (False, [1.0, 2.0], [0], "1 keys for 2 values"),
        (True, [1.0, 2.0], ([0], [1]), "1 keys for 2 values"),
        (True, [1.0], ([0], [1, 2]), "1 edge sources but 2 targets"),
        (True, [1.0, 2.0], (np.array([0, 1]), np.array([2])), "2 edge sources but 1 targets"),
    ], ids=["node-keys", "edge-pairs", "more-targets", "more-sources"])
    def test_keys_and_values_of_unequal_counts_raise_graph_error(self, edge, values, keys, message):
        attrs = AttributeTable()
        write = attrs.set_edge_column if edge else attrs.set_node_column
        with pytest.raises(GraphError, match=rf"^attribute 'k': {message}$"):
            write("k", values, keys)
        assert not attrs.node and not attrs.edge

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


# ---------------------------------------------------------------------------
# Bulk build against the scalar references it replaced
# ---------------------------------------------------------------------------


def reference_stub_pairing(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """The scalar stub pairing that ``_try_stub_pairing`` replaced."""
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


def test_stub_pairing_matches_scalar_reference():
    stuck = 0
    for n in range(2, 24):
        for d in range(1, min(n, 7)):
            if n * d % 2:
                continue
            for seed in range(8):
                ref_rng, rng = make_rng(seed), make_rng(seed)
                for _attempt in range(3):  # attempts after a stuck pass restart on the same stream
                    expected = reference_stub_pairing(n, d, ref_rng)
                    keys = _try_stub_pairing(n, d, rng)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                    if expected is None:
                        stuck += 1
                        assert keys is None
                    else:
                        assert {(k >> 32, k & 0xFFFFFFFF) for k in keys.tolist()} == expected
    assert stuck > 100  # restarts were exercised
    # and at a size where the pairing runs several passes
    ref_rng, rng = make_rng(3), make_rng(3)
    expected = reference_stub_pairing(5000, 4, ref_rng)
    assert {(k >> 32, k & 0xFFFFFFFF) for k in _try_stub_pairing(5000, 4, rng).tolist()} == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_random_regular(n: int, d: int, rng: np.random.Generator) -> tuple[Graph, int]:
    """``from_edges`` over the scalar reference pairing, restarted on the same stream when stuck, as the
    generator restarts; and how many attempts it took."""
    attempts = 1
    while (pairs := reference_stub_pairing(n, d, rng) if d else set()) is None:
        attempts += 1
    return Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs])[0], attempts


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_property_random_regular_matches_from_edges_over_the_scalar_pairing(n, d, seed):
    """The generator's direct CSR build equals the reference graph and leaves the generator in the same state."""
    d = min(d, n - 1) - (n * min(d, n - 1) % 2)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    g = generate_random_regular(n, d, rng)
    assert g == reference_random_regular(n, d, ref_rng)[0] and g.num_edges == n * d // 2
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_regular_restarts_match_the_scalar_pairing():
    """Seeds whose first pairing passes get stuck restart and still build the reference graph."""
    restarted = 0
    for seed in range(40):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        ref, attempts = reference_random_regular(12, 5, ref_rng)
        assert generate_random_regular(12, 5, rng) == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        restarted += attempts > 1
    assert restarted >= 5


# sha256 of the 100k-node, degree-4 CSR's ``indptr`` bytes (as int64) then ``indices`` bytes, by master seed.
RANDOM_REGULAR_100K_CSR = {
    0: "bd96bf4029ff2219db0f96c29c19c53d76a43925f22511afa7dddb04ddccbbc1",
    1: "bb117c9df8475115a66f439938818c04e661a65868d887770c0bad3a97057ce0",
}


@pytest.mark.parametrize("master_seed", sorted(RANDOM_REGULAR_100K_CSR))
def test_random_regular_100k_build_stays_small(master_seed):
    """The sir-100k-mem graph (100k nodes, degree 4) peaks at 4.96 MiB of numpy memory plus 1 MiB at most, and
    keeps its CSR bytes. Seed 1's pairing gets stuck twice, so its build restarts."""
    rng = make_rng(derive_seed(master_seed))
    tracemalloc.start()
    try:
        g = generate_random_regular(100_000, 4, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges == 200_000
    assert peak <= (4.96 + 1) * 2**20, f"peak {peak / 2**20:.2f} MiB"
    indptr, indices = g.out_csr()
    assert (indptr.dtype, indices.dtype) == (np.int32, np.int32)
    digest = hashlib.sha256(indptr.astype(np.int64).tobytes() + indices.tobytes()).hexdigest()
    assert digest == RANDOM_REGULAR_100K_CSR[master_seed]


def test_csr_row_offsets_are_int32_until_the_entry_count_reaches_2_to_31(tmp_path, monkeypatch):
    """Every CSR builder takes its ``indptr`` dtype from ``_offset_dtype``: int32 below 2**31 entries, int64 from
    there. Forcing int64 offsets (the >= 2**31 case, without allocating it) leaves every read the same."""
    assert [graph_mod._offset_dtype(k) for k in (0, 2**31 - 1, 2**31, 2**40)] == [np.int32] * 2 + [np.int64] * 2
    path = tmp_path / "edges.txt"
    path.write_text("5 7\n7 9\n9 5\n2 5\n", encoding="utf-8")

    def builds():
        directed, _ = Graph.from_edges(6, [0, 1, 2, 4, 5], [1, 2, 0, 3, 1], directed=True)
        merged = generate_random_regular(40, 3, make_rng(3))
        merged.remove_edge(0, int(merged.out_csr()[1][0]))
        merged.add_edge(0, 39)  # pending until the next read merges both edits
        return {"empty": Graph(4), "from_edges": directed, "in_csr": directed, "merged": merged,
                "regular": generate_random_regular(40, 3, make_rng(3)), "edge list": load_edge_list(path)}

    def reads(graphs):
        csrs = {name: g.in_csr() if name == "in_csr" else g.out_csr() for name, g in graphs.items()}
        dtypes = {name: csr[0].dtype for name, csr in csrs.items()}
        rows = {name: csr_rows(csr) for name, csr in csrs.items()}
        ranks = {name: pagerank(g) for name, g in graphs.items() if g.num_edges}
        return dtypes, rows, ranks, {name: list(map(g.degree, g.nodes())) for name, g in graphs.items()}

    dtypes, *contents = reads(builds())
    assert set(dtypes.values()) == {np.dtype(np.int32)}
    monkeypatch.setattr(graph_mod, "_offset_dtype", lambda entries: np.int64)
    wide, *wide_contents = reads(builds())
    assert set(wide.values()) == {np.dtype(np.int64)}
    assert wide_contents == contents


def scalar_build(n: int, directed: bool, pairs):
    """(graph, duplicates) built one ``add_edge`` at a time, or the text of the first error."""
    g = Graph(n, directed)
    try:
        return g, sum(not g.add_edge(u, v) for u, v in pairs)
    except GraphError as exc:
        return str(exc)


def csr_rows(csr) -> list[list[int]]:
    indptr, indices = csr
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def graph_view(g: Graph):
    return (
        g.num_edges,
        list(g.edges()),
        csr_rows(g.in_csr()),
        csr_rows(g.out_csr()),
        [sorted(g.neighbors(v)) for v in g.nodes()],
        [sorted(g.in_neighbors(v)) for v in g.nodes()],
        [g.degree(v) for v in g.nodes()],
        [[g.has_edge(u, v) for v in g.nodes()] for u in g.nodes()],
    )


@st.composite
def edge_inputs(draw):
    # ids of 8 and up make set iteration order differ from sorted order
    n = draw(st.integers(min_value=2, max_value=8) | st.integers(min_value=20, max_value=40))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=30))
    # reverse and repeated pairs, so that duplicates collapse in both directions
    pairs += draw(st.lists(st.sampled_from(pairs).map(lambda p: p[::-1]), max_size=5)) if pairs else []
    pairs = draw(st.permutations(pairs + pairs[: draw(st.integers(0, 3))]))
    for _ in range(draw(st.integers(0, 2))):  # bad pairs: out of range or a self-loop
        w = draw(st.integers(min_value=-2, max_value=n + 1))
        bad = draw(st.sampled_from([(w, w), (0, w if w not in (0, 1) else n), (n, 1)]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return n, draw(st.booleans()), pairs


@settings(max_examples=300, deadline=None)
@given(case=edge_inputs(), data=st.data())
def test_property_from_edges_matches_scalar_build(case, data):
    n, directed, pairs = case
    expected = scalar_build(n, directed, pairs)
    src, dst = [u for u, _ in pairs], [v for _, v in pairs]
    if isinstance(expected, str):
        with pytest.raises(GraphError) as exc:
            Graph.from_edges(n, src, dst, directed)
        assert str(exc.value) == expected
        return
    ref, ref_duplicates = expected
    g, duplicates = Graph.from_edges(n, src, dst, directed)
    assert g == ref and duplicates == ref_duplicates
    assert graph_view(g) == graph_view(ref)
    # the same mutations on both, pending on the bulk graph until the next read
    for _ in range(data.draw(st.integers(1, 3))):
        u, v = data.draw(st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v]))
        if data.draw(st.booleans()):
            assert g.add_edge(u, v) == ref.add_edge(u, v)
        else:
            assert g.remove_edge(u, v) == ref.remove_edge(u, v)
        assert g == ref
        assert graph_view(g) == graph_view(ref)


def test_from_edges_rejects_non_integer_ids():
    with pytest.raises(GraphError, match="must be an integer, got 1.5"):
        Graph.from_edges(3, [0, 1.5], [1, 2])
    with pytest.raises(GraphError, match="must be an integer"):
        Graph.from_edges(3, [True], [1])
    with pytest.raises(GraphError, match="2 edge sources but 1 targets"):
        Graph.from_edges(3, [0, 1], [2])
    g, duplicates = Graph.from_edges(3, [], [])
    assert (g.num_edges, duplicates, list(g.edges())) == (0, 0, [])


@pytest.mark.parametrize("directed", [False, True])
def test_copy_shares_read_only_arrays_and_is_independent(directed):
    g, _ = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], directed)
    h = g.copy()
    for arr in (*g.in_csr(), *h.in_csr(), g.in_csr().rows, h.out_csr().rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    before = graph_view(g)
    h.add_edge(0, 3)
    h.remove_edge(1, 2)
    assert graph_view(g) == before
    assert list(h.edges()) == [(0, 1), (0, 3), (2, 3)]
    g.remove_edge(0, 1)
    assert list(h.edges()) == [(0, 1), (0, 3), (2, 3)]
    assert list(g.edges()) == [(1, 2), (2, 3)]
    # a copy of a mutated graph starts from its current topology, and is independent too
    k = g.copy()
    assert list(k.edges()) == [(1, 2), (2, 3)]
    k.add_edge(0, 2)
    g.add_edge(1, 3)
    assert list(k.edges()) == [(0, 2), (1, 2), (2, 3)]
    assert list(g.edges()) == [(1, 2), (1, 3), (2, 3)]


class PairsGraph:
    """Reference ``Graph``: the set of ordered pairs it holds, both orientations when undirected."""

    def __init__(self, n: int, directed: bool, pairs=()):
        self.n, self.directed, self.pairs, self.version = n, directed, set(), 0
        for u, v in pairs:
            self.pairs |= {(u, v)} if directed else {(u, v), (v, u)}

    def copy(self) -> "PairsGraph":
        ref = PairsGraph(self.n, self.directed)
        ref.pairs = set(self.pairs)
        return ref

    def check(self, v) -> None:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise GraphError(f"node id must be an integer, got {v!r}")
        if not 0 <= v < self.n:
            raise GraphError(f"node id {v} out of range [0, {self.n})")

    def num_edges(self) -> int:
        return len(self.pairs) if self.directed else len(self.pairs) // 2

    def has_edge(self, u, v) -> bool:
        self.check(u)
        self.check(v)
        return (u, v) in self.pairs

    def add_edge(self, u, v) -> bool:
        self.check(u)
        self.check(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed")
        return self._edit((u, v), True)

    def remove_edge(self, u, v) -> bool:
        self.check(u)
        self.check(v)
        return self._edit((u, v), False)

    def _edit(self, pair, add: bool) -> bool:
        if (pair in self.pairs) == add:
            return False
        both = {pair} if self.directed else {pair, pair[::-1]}
        self.pairs = self.pairs | both if add else self.pairs - both
        self.version += 1
        return True

    def neighbors(self, v) -> frozenset:
        self.check(v)
        return frozenset(b for a, b in self.pairs if a == v)

    def in_neighbors(self, v) -> frozenset:
        self.check(v)
        return frozenset(a for a, b in self.pairs if b == v)

    def degree(self, v) -> int:
        return len(self.neighbors(v)) + (len(self.in_neighbors(v)) if self.directed else 0)

    def csr(self, inward: bool) -> tuple[list[int], list[int]]:
        rows = [sorted(self.in_neighbors(v) if inward else self.neighbors(v)) for v in range(self.n)]
        return [0, *itertools.accumulate(map(len, rows))], [w for row in rows for w in row]

    def edge_arrays(self) -> tuple[list[int], list[int]]:
        edges = sorted((u, v) for u, v in self.pairs if self.directed or u < v)
        return [u for u, _ in edges], [v for _, v in edges]


def graph_call(target, name: str, *args):
    """What ``target.name(*args)`` returns, or the type and text of the ``GraphError`` it raises."""
    try:
        return getattr(target, name)(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def node_ids(n: int):
    """Ids in range and out of it, numpy integers, and the bool and float ids that are refused."""
    return st.one_of(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, n + 1),
        st.integers(0, n - 1).map(np.int64), st.booleans(), st.sampled_from([0.0, 1.5, float(n)]),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), directed=st.booleans())
def test_property_graph_matches_a_set_of_pairs_reference(data, n, directed):
    node = st.integers(0, n - 1)
    base = data.draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=2 * n))
    g = Graph.from_edges(n, [u for u, _ in base], [v for _, v in base], directed)[0]
    graphs = [(g, PairsGraph(n, directed, base))]
    for _ in range(data.draw(st.integers(1, 40))):
        at = data.draw(st.integers(0, len(graphs) - 1))
        g, ref = graphs[at]
        op = data.draw(st.sampled_from([
            "add_edge", "remove_edge", "has_edge", "neighbors", "in_neighbors", "degree", "copy", "read", "eq", "remove_add"
        ]))
        if op == "copy":
            graphs.append((g.copy(), ref.copy()))  # a copy starts at version 0
        elif op == "eq":  # merges the pending edits of every graph
            assert [g == other for other, _ in graphs] == [ref.pairs == other.pairs for _, other in graphs]
        elif op == "read":  # merges the pending edits
            assert [a.tolist() for a in g.out_csr()] == list(ref.csr(False))
            assert [a.tolist() for a in g.in_csr()] == list(ref.csr(directed))
            assert [a.tolist() for a in g.edge_arrays()] == list(ref.edge_arrays())
        elif op == "remove_add":  # an edge taken out and put back, or put in and taken out, with no read between
            if ref.pairs and data.draw(st.booleans()):
                (u, v), names = data.draw(st.sampled_from(sorted(ref.pairs))), ("remove_edge", "add_edge")
            else:
                (u, v), names = (data.draw(node), data.draw(node)), ("add_edge", "remove_edge")
            for name in names:
                assert graph_call(g, name, u, v) == graph_call(ref, name, u, v)
        elif op in ("add_edge", "remove_edge", "has_edge"):
            u, v = data.draw(node_ids(n)), data.draw(node_ids(n))
            assert graph_call(g, op, u, v) == graph_call(ref, op, u, v)
        else:
            v = data.draw(node_ids(n))
            assert graph_call(g, op, v) == graph_call(ref, op, v)
        assert (g.num_edges, g.version) == (ref.num_edges(), ref.version)
    for g, ref in graphs:
        ids = np.array(list(itertools.product(range(-2, n + 2), repeat=2)))  # ids outside the graph too
        assert g.has_edges(ids[:, 0], ids[:, 1]).tolist() == [pair in ref.pairs for pair in map(tuple, ids.tolist())]
        assert g == Graph.from_edges(n, *ref.edge_arrays(), directed)[0]
        pairs = list(itertools.product(range(n), repeat=2))
        assert [g.has_edge(u, v) for u, v in pairs] == [pair in ref.pairs for pair in pairs]


# ---------------------------------------------------------------------------
# Column kind checks against the per-value reference
# ---------------------------------------------------------------------------


class IntSubclass(int):
    pass


KIND_NAMES = {int: "integer", float: "number", str: "category"}


def reference_set_node_column(table: AttributeTable, key: str, values: dict) -> None:
    """The per-value kind check ``set_node_column`` had before its one-pass check.

    Every value has a kind, they all share it, and it is the kind of the column they replace.
    """
    kinds = {_value_kind(v) for v in values.values()}
    if len(kinds) > 1:
        raise GraphError(f"attribute {key!r}: mixed value kinds in column")
    seen = column_kind(table.node, key)
    if kinds and seen not in (None, *kinds):
        first = next(iter(values.values()))
        raise GraphError(f"attribute {key!r} holds {KIND_NAMES[seen]} values, got {KIND_NAMES[kinds.pop()]} {first!r}")
    table.node[key] = values


column_values = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.integers(-1000, 1000).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-1000, 1000).map(IntSubclass),
)


def outcome(fn, *args):
    try:
        fn(*args)
    except GraphError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    prior=st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3)),
    values=st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=3))) | st.lists(column_values),
)
def test_property_column_kind_check_matches_per_value_reference(prior, values):
    tables = []
    for _ in range(2):
        table = AttributeTable()
        if prior is not None:
            table.set_node(0, "k", prior)
            table.set_edge(0, 1, "k", prior)
        tables.append(table)
    column = dict(enumerate(values))
    expected = outcome(reference_set_node_column, tables[0], "k", column)
    assert outcome(tables[1].set_node_column, "k", column) == expected
    assert tables[1].node == tables[0].node and column_kind(tables[1].node, "k") == column_kind(tables[0].node, "k")
    # edge columns share the check
    edge_column = {(i, i + 1): v for i, v in enumerate(values)}
    assert outcome(tables[1].set_edge_column, "k", edge_column) == expected


# ---------------------------------------------------------------------------
# Attribute columns against a dict reference
# ---------------------------------------------------------------------------


def reference_key_ok(edge: bool, key) -> bool:
    """A node id in int64, or a pair of ids in (-2**31, 2**31)."""
    if edge:
        return isinstance(key, tuple) and len(key) == 2 and all(
            isinstance(i, int) and -(2**31) < i < 2**31 for i in key
        )
    return isinstance(key, int) and -(2**63) <= key < 2**63


def reference_kind_of(value):
    if type(value) is bool or not isinstance(value, (int, float, str)):
        return None
    return float if isinstance(value, float) else int if isinstance(value, int) else str


class ReferenceTable:
    """``AttributeTable`` as plain dicts: a write is checked, then applied, or refused and applied not at all."""

    def __init__(self):
        self.sides = {False: {}, True: {}}

    def copy(self):
        ref = ReferenceTable()
        ref.sides = {edge: {k: dict(c) for k, c in cols.items()} for edge, cols in self.sides.items()}
        return ref

    def kind(self, edge, key):
        column = self.sides[edge].get(key, {})
        return reference_kind_of(next(iter(column.values()))) if column else None

    def check_column(self, edge, column):
        """The column as it is stored; GraphError if any key or value is bad or the kinds mix."""
        kinds = {reference_kind_of(v) for v in column.values()}
        if None in kinds or len(kinds) > 1 or not all(reference_key_ok(edge, k) for k in column):
            raise GraphError("refused")
        return {k: kinds and next(iter(kinds))(v) for k, v in column.items()}

    def set(self, edge, key, at, value):
        kind = reference_kind_of(value)
        if kind is None or not reference_key_ok(edge, at) or self.kind(edge, key) not in (None, kind):
            raise GraphError("refused")
        self.sides[edge].setdefault(key, {})[at] = kind(value)

    def set_column(self, edge, key, column, check_kind):
        stored = self.check_column(edge, column)
        if check_kind and stored and self.kind(edge, key) not in (None, reference_kind_of(next(iter(stored.values())))):
            raise GraphError("refused")
        self.sides[edge][key] = stored


def exact(column) -> list:
    """Items with their types and reprs: -0.0 is not 0.0, and NaN is NaN."""
    return [(k, type(v), repr(v)) for k, v in column.items()]


node_keys = st.one_of(st.integers(-3, 6), st.sampled_from([2**63, -(2**63) - 1, "x", 1.5]))
pair_keys = st.one_of(
    st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
    st.sampled_from([(2**31 - 1, 1 - 2**31), (2**31, 0), (0, -(2**31)), (2**70, 0), ("x", 0), (1, 2, 3), 5]),
)
mixed_values = st.one_of(
    st.integers(-5, 5),
    st.integers(2**63 - 2, 2**64),  # past int64: an object column of ints
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 1.5]),
    st.text(max_size=2),
    st.sampled_from([True, None, np.int64(3), np.float64(2.5)]),  # bad values, and a float
)


def as_arrays(edge: bool, keys: list, values: list):
    """Keys and values as ``set_*_column`` takes them, numeric values as one array (its dtype then decides)."""
    kinds = {reference_kind_of(v) for v in values}
    if kinds == {float} or kinds == {int} and all(-(2**63) <= v < 2**63 for v in values):
        values = np.array(values)
    return values, (tuple(map(list, zip(*keys))) if keys else ([], [])) if edge else keys


def refused(fn, *args) -> bool:
    try:
        fn(*args)
    except GraphError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_column_facade_matches_a_dict_reference(data):
    attrs, ref = AttributeTable(), ReferenceTable()
    ops = ["set", "item", "get", "del", "update", "setdefault", "set_column", "assign", "arrays", "drop_edge", "copy",
           "clear"]
    for _ in range(data.draw(st.integers(1, 25))):
        op, edge, key = data.draw(st.sampled_from(ops)), data.draw(st.booleans()), data.draw(st.sampled_from("ab"))
        columns, ref_columns = (attrs.edge, ref.sides[True]) if edge else (attrs.node, ref.sides[False])
        keys = pair_keys if edge else node_keys
        at, value = data.draw(keys), data.draw(mixed_values)
        if op == "set" and (not edge or isinstance(at, tuple) and len(at) == 2):
            write = (lambda: attrs.set_edge(*at, key, value)) if edge else (lambda: attrs.set_node(at, key, value))
            assert refused(write) == refused(ref.set, edge, key, at, value)
        elif op in ("item", "setdefault") and key in columns:
            if op == "setdefault" and reference_key_ok(edge, at) and at in ref_columns[key]:
                assert exact({0: columns[key].setdefault(at, value)}) == exact({0: ref_columns[key][at]})
            else:
                write = columns[key].setdefault if op == "setdefault" else columns[key].__setitem__
                assert refused(write, at, value) == refused(ref.set, edge, key, at, value)
        elif op == "get" and key in columns:
            column, expected = columns[key], ref_columns[key] if reference_key_ok(edge, at) else {}
            assert (at in column) == (at in expected)
            assert exact({0: column.get(at, "absent")}) == exact({0: expected.get(at, "absent")})
        elif op == "del" and key in columns:
            absent = not reference_key_ok(edge, at) or at not in ref_columns[key]
            with pytest.raises(KeyError) if absent else contextlib.nullcontext():
                del columns[key][at]
            if not absent:
                del ref_columns[key][at]
        elif op == "update" and key in columns:
            batch = dict(data.draw(st.lists(st.tuples(keys, mixed_values), max_size=4)))
            # one key at a time, as dict.update: a refusal keeps the writes before it
            ref_refused = any(refused(ref.set, edge, key, k, v) for k, v in batch.items())
            assert refused(columns[key].update, batch) == ref_refused
        elif op in ("set_column", "assign"):
            ids = data.draw(st.lists(keys, max_size=5))
            column = {k: data.draw(mixed_values) if data.draw(st.booleans()) else value for k in ids}
            if op == "assign":
                write = columns.__setitem__
            else:
                write = attrs.set_edge_column if edge else attrs.set_node_column
            assert refused(write, key, column) == refused(ref.set_column, edge, key, column, op == "set_column")
        elif op == "arrays":  # every value is checked, then a repeated key keeps its last value
            small = st.integers(-1, 2)  # so keys repeat
            ids = data.draw(st.lists(st.tuples(small, small) if edge else st.one_of(small, node_keys), max_size=6))
            pool = data.draw(st.sampled_from([mixed_values, st.integers(-5, 5), st.floats(), st.just(value)]))
            values = [data.draw(pool) for _ in ids]
            kinds = {reference_kind_of(v) for v in values}
            write = attrs.set_edge_column if edge else attrs.set_node_column
            assert refused(write, key, *as_arrays(edge, ids, values)) == (
                None in kinds or len(kinds) > 1 or refused(ref.set_column, edge, key, dict(zip(ids, values)), True)
            )
        elif op == "drop_edge" and edge and reference_key_ok(True, at):
            attrs.drop_edge(*at)
            for column in ref.sides[True].values():
                column.pop(at, None)
                column.pop(at[::-1], None)
        elif op == "clear" and key in columns:  # the emptied column forgets its kind: checked below
            columns[key].clear()
            ref_columns[key].clear()
        elif op == "copy":
            before, attrs = attrs, attrs.copy()
            assert attrs == before and attrs.copy() == attrs  # NaN included
        for side_edge, cols in ((False, attrs.node), (True, attrs.edge)):
            expected = ref.sides[side_edge]
            assert list(cols) == list(expected)
            for name, column in cols.items():
                ordered = dict(sorted(expected[name].items()))  # iteration follows key (tuple) order
                assert exact(column) == exact(ordered) and list(column) == list(ordered)
                assert len(column) == len(ordered) and exact(dict(column)) == exact({**column}) == exact(ordered)
                assert column == expected[name] and column.kind == ref.kind(side_edge, name)
                probe = [(u, v) for u in range(-3, 7) for v in range(-3, 7)] if side_edge else list(range(-3, 7))
                got = column.take(tuple(np.array(probe).T) if side_edge else np.array(probe), None)
                assert exact(dict(enumerate(got.tolist()))) == exact(dict(enumerate(map(expected[name].get, probe))))
                assert column_kind(cols, name) == ref.kind(side_edge, name)
