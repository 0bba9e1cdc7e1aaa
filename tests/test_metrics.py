"""Centrality metrics against independent brute-force oracles."""

from __future__ import annotations

import itertools
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from crowdkit import (
    METRICS,
    Graph,
    MetricError,
    centrality,
    generate_barabasi_albert,
    generate_erdos_renyi,
    top_k_by_metric,
)
from crowdkit import metrics
from crowdkit.graph import csr_matvec
from crowdkit.metrics import (
    EIGEN_MAX_ITER,
    EIGEN_TOL,
    KATZ_ALPHA,
    KATZ_BETA,
    PAGERANK_DAMPING,
    PAGERANK_MAX_ITER,
    PAGERANK_TOL,
    _DIVERGENCE_LIMIT,
)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def triangle() -> Graph:
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


def path3() -> Graph:
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def star(n: int) -> Graph:
    g = Graph(n)
    for leaf in range(1, n):
        g.add_edge(0, leaf)
    return g


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges():
        a[u, v] = 1.0
        if not g.directed:
            a[v, u] = 1.0
    return a


# ---------------------------------------------------------------------------
# Oracles (independent implementations used only by tests)
# ---------------------------------------------------------------------------


def oracle_pagerank(g: Graph, damping: float = 0.85) -> np.ndarray:
    """Dense linear-algebra PageRank with uniform dangling redistribution."""
    n = g.num_nodes
    a = dense_adjacency(g)
    out = a.sum(axis=1)
    p = np.zeros((n, n))
    for i in range(n):
        if out[i] > 0:
            p[i] = a[i] / out[i]
        else:
            p[i] = 1.0 / n
    m = damping * p + (1 - damping) / n
    # stationary distribution of the column-stochastic transpose
    vals, vecs = np.linalg.eig(m.T)
    idx = int(np.argmax(vals.real))
    v = np.abs(vecs[:, idx].real)
    return v / v.sum()


def oracle_betweenness(g: Graph) -> dict[int, float]:
    """Brute-force shortest-path enumeration over ordered pairs."""
    n = g.num_nodes
    raw = dict.fromkeys(range(n), 0.0)
    for s, t in itertools.permutations(range(n), 2):
        paths = _all_shortest_paths(g, s, t)
        if not paths:
            continue
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            raw[v] += through / len(paths)
    scale = 1.0 / ((n - 1) * (n - 2)) if n > 2 else 0.0
    return {v: raw[v] * scale for v in range(n)}


def _all_shortest_paths(g: Graph, s: int, t: int) -> list[list[int]]:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if t not in dist:
        return []
    paths = []

    def extend(path):
        v = path[-1]
        if v == t:
            paths.append(path)
            return
        for w in g.neighbors(v):
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                extend(path + [w])

    extend([s])
    return paths


def oracle_closeness(g: Graph) -> dict[int, float]:
    scores = {}
    for s in range(g.num_nodes):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total = sum(dist.values())
        scores[s] = (len(dist) - 1) / total if total > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


class TestPagerank:
    def test_two_node_edge_symmetric(self):
        g = Graph(2)
        g.add_edge(0, 1)
        scores = centrality(g, "pagerank")
        assert scores[0] == pytest.approx(0.5, abs=1e-9)
        assert scores[1] == pytest.approx(0.5, abs=1e-9)

    def test_sums_to_one(self):
        g = generate_barabasi_albert(200, 3, make_rng(2))
        scores = centrality(g, "pagerank")
        assert abs(sum(scores.values()) - 1.0) <= 1e-9
        assert all(s > 0 for s in scores.values())

    def test_matches_dense_oracle(self):
        g = generate_erdos_renyi(40, 0.15, make_rng(9))
        scores = centrality(g, "pagerank")
        expected = oracle_pagerank(g)
        for v in range(40):
            assert scores[v] == pytest.approx(expected[v], abs=1e-6)

    def test_directed_with_dangling_nodes(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)  # node 2 dangles
        scores = centrality(g, "pagerank")
        expected = oracle_pagerank(g)
        assert abs(sum(scores.values()) - 1.0) <= 1e-9
        for v in range(3):
            assert scores[v] == pytest.approx(expected[v], abs=1e-6)


# ---------------------------------------------------------------------------
# Degree
# ---------------------------------------------------------------------------


class TestDegree:
    def test_triangle_all_one(self):
        scores = centrality(triangle(), "degree")
        assert scores == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_star_center(self):
        scores = centrality(star(5), "degree")
        assert scores[0] == 1.0
        for leaf in range(1, 5):
            assert scores[leaf] == pytest.approx(0.25)

    def test_single_node(self):
        scores = centrality(Graph(1), "degree")
        assert scores == {0: 0.0}


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------


class TestBetweenness:
    def test_three_node_path(self):
        scores = centrality(path3(), "betweenness")
        assert scores[1] == pytest.approx(1.0)
        assert scores[0] == pytest.approx(0.0)
        assert scores[2] == pytest.approx(0.0)

    def test_matches_bruteforce_on_random_graphs(self):
        for seed in range(5):
            g = generate_erdos_renyi(8, 0.4, make_rng(seed))
            scores = centrality(g, "betweenness")
            expected = oracle_betweenness(g)
            for v in range(8):
                assert scores[v] == pytest.approx(expected[v], abs=1e-9)

    def test_star_center_is_one(self):
        scores = centrality(star(6), "betweenness")
        assert scores[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Closeness
# ---------------------------------------------------------------------------


class TestCloseness:
    def test_path_center_highest(self):
        scores = centrality(path3(), "closeness")
        assert scores[1] > scores[0]
        assert scores[0] == scores[2]

    def test_matches_bfs_oracle(self):
        g = generate_erdos_renyi(30, 0.1, make_rng(3))
        scores = centrality(g, "closeness")
        expected = oracle_closeness(g)
        for v in range(30):
            assert scores[v] == pytest.approx(expected[v], abs=1e-12)

    def test_isolated_node_zero(self):
        g = Graph(3)
        g.add_edge(0, 1)
        scores = centrality(g, "closeness")
        assert scores[2] == 0.0


# ---------------------------------------------------------------------------
# Eigenvector
# ---------------------------------------------------------------------------


class TestEigenvector:
    def test_matches_dense_eigendecomposition(self):
        g = generate_barabasi_albert(30, 2, make_rng(4))
        scores = centrality(g, "eigenvector")
        a = dense_adjacency(g)
        vals, vecs = np.linalg.eigh(a)
        principal = np.abs(vecs[:, -1])
        principal /= np.linalg.norm(principal)
        for v in range(30):
            assert scores[v] == pytest.approx(principal[v], abs=1e-6)

    def test_converges_on_bipartite(self):
        # A 2-path is bipartite; plain power iteration on A oscillates.
        scores = centrality(path3(), "eigenvector")
        assert scores[1] > scores[0]


# ---------------------------------------------------------------------------
# Katz
# ---------------------------------------------------------------------------


class TestKatz:
    def test_matches_linear_solve(self):
        g = generate_erdos_renyi(25, 0.1, make_rng(6))
        alpha, beta = 0.05, 1.0
        scores = centrality(g, "katz", {"alpha": alpha, "beta": beta})
        a = dense_adjacency(g)
        expected = np.linalg.solve(np.eye(25) - alpha * a.T, np.full(25, beta))
        for v in range(25):
            assert scores[v] == pytest.approx(expected[v], abs=1e-5)

    def test_divergence_detected(self):
        # K5 spectral radius is 4; alpha above 1/4 diverges.
        g = Graph(5)
        for u, v in itertools.combinations(range(5), 2):
            g.add_edge(u, v)
        with pytest.raises(MetricError):
            centrality(g, "katz", {"alpha": 0.3})


# ---------------------------------------------------------------------------
# Dispatch and top-k selection
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_all_registered_metrics_run(self):
        g = generate_barabasi_albert(12, 2, make_rng(1))
        for name in METRICS:
            scores = centrality(g, name)
            assert set(scores) == set(range(12))
            assert all(np.isfinite(s) and s >= 0 for s in scores.values())

    def test_unknown_metric(self):
        with pytest.raises(MetricError):
            centrality(triangle(), "noSuchMetric")

    def test_empty_graph_rejected(self):
        with pytest.raises(MetricError):
            centrality(Graph(0), "degree")


class TestTopK:
    def test_tie_break_lowest_id(self):
        assert top_k_by_metric(triangle(), "degree", 1) == [0]

    def test_star_center_first(self):
        g = star(7)
        assert top_k_by_metric(g, "degree", 1) == [0]
        top3 = top_k_by_metric(g, "degree", 3)
        assert top3 == [0, 1, 2]

    def test_k_bounds(self):
        with pytest.raises(MetricError):
            top_k_by_metric(triangle(), "degree", 0)
        with pytest.raises(MetricError):
            top_k_by_metric(triangle(), "degree", 4)

    def test_descending_scores(self):
        g = generate_barabasi_albert(40, 2, make_rng(8))
        order = top_k_by_metric(g, "pagerank", 40)
        scores = centrality(g, "pagerank")
        ranked = [scores[v] for v in order]
        assert ranked == sorted(ranked, reverse=True)
        assert len(set(order)) == 40

    def test_permutation_stability(self):
        # Relabeling nodes by a permutation must relabel the selection the
        # same way: selection is a function of scores and ids only.
        g = generate_barabasi_albert(30, 2, make_rng(10))
        perm = make_rng(11).permutation(30).tolist()
        h = Graph(30)
        for u, v in g.edges():
            h.add_edge(perm[u], perm[v])
        top_g = top_k_by_metric(g, "degree", 5)
        top_h = top_k_by_metric(h, "degree", 5)
        # Degree multiset of the selected nodes must agree even though ids moved.
        deg_g = sorted(g.degree(v) for v in top_g)
        deg_h = sorted(h.degree(v) for v in top_h)
        assert deg_g == deg_h


# ---------------------------------------------------------------------------
# Scipy references: the matrix code the power iterations, degree centrality
# and ranking used before they read the graph's own CSR. The metrics must
# match them bit for bit.
# ---------------------------------------------------------------------------


def to_sparse(g: Graph):
    """The graph's adjacency as a scipy CSR matrix over its own ``out_csr()`` arrays (row u -> out-neighbors)."""
    indptr, indices = g.out_csr()
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(g.num_nodes, g.num_nodes))


def ref_in_operator(g: Graph):
    a = to_sparse(g)
    return a.T.tocsr() if g.directed else a


def ref_pagerank(g: Graph) -> dict[int, float]:
    n = g.num_nodes
    a = to_sparse(g)
    out_deg = np.asarray(a.sum(axis=1)).ravel()
    dangling = out_deg == 0.0
    inv_out = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_deg))
    at = a.T.tocsr()
    x = np.full(n, 1.0 / n)
    base = (1.0 - PAGERANK_DAMPING) / n
    for _ in range(PAGERANK_MAX_ITER):
        nxt = base + PAGERANK_DAMPING * (at @ (x * inv_out))
        nxt += PAGERANK_DAMPING * x[dangling].sum() / n
        if np.abs(nxt - x).sum() < PAGERANK_TOL:
            return {v: float(nxt[v]) for v in range(n)}
        x = nxt
    raise MetricError(f"pagerank did not converge within {PAGERANK_MAX_ITER} iterations")


def ref_eigenvector(g: Graph) -> dict[int, float]:
    n = g.num_nodes
    at = ref_in_operator(g)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(EIGEN_MAX_ITER):
        nxt = at @ x + x
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return dict.fromkeys(range(n), 0.0)
        nxt /= norm
        if np.linalg.norm(nxt - x) < EIGEN_TOL:
            return {v: float(nxt[v]) for v in range(n)}
        x = nxt
    raise MetricError(f"eigenvector centrality did not converge within {EIGEN_MAX_ITER} iterations")


def ref_katz(g: Graph) -> dict[int, float]:
    at = ref_in_operator(g)
    x = np.full(g.num_nodes, KATZ_BETA)
    for _ in range(EIGEN_MAX_ITER):
        nxt = KATZ_ALPHA * (at @ x) + KATZ_BETA
        if not np.all(np.isfinite(nxt)) or np.abs(nxt).max() > _DIVERGENCE_LIMIT:
            raise MetricError("katz centrality diverges: alpha >= 1 / spectral radius")
        if np.abs(nxt - x).max() < EIGEN_TOL:
            return {v: float(nxt[v]) for v in range(g.num_nodes)}
        x = nxt
    raise MetricError(f"katz centrality did not converge within {EIGEN_MAX_ITER} iterations")


def ref_degree(g: Graph) -> dict[int, float]:
    n = g.num_nodes
    if n == 1:
        return {0: 0.0}
    scale = 1.0 / (n - 1)
    return {v: g.degree(v) * scale for v in range(n)}


# ---------------------------------------------------------------------------
# Scalar references: the one-queue Brandes and BFS code the path metrics ran
# before they walked the CSR level by level. The metrics must match them bit
# for bit, including where path counts pass 2**53 and sums round.
# ---------------------------------------------------------------------------


def adjacency(g: Graph) -> list[list[int]]:
    """Sorted neighbor lists (out-neighbors when directed), read from ``out_csr()``."""
    indptr, indices = g.out_csr()
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def ref_betweenness(graph: Graph) -> dict[int, float]:
    n = graph.num_nodes
    scores = dict.fromkeys(range(n), 0.0)
    if n <= 2:
        return scores
    adj = adjacency(graph)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s] = 1.0
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                scores[w] += delta[w]
    scale = 1.0 / ((n - 1) * (n - 2))
    return {v: scores[v] * scale for v in range(n)}


def ref_closeness(graph: Graph) -> dict[int, float]:
    n = graph.num_nodes
    adj = adjacency(graph)
    scores: dict[int, float] = {}
    for s in range(n):
        dist = {s: 0}
        total = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dv + 1
                    total += dv + 1
                    queue.append(w)
        reachable = len(dist) - 1
        scores[s] = reachable / total if total > 0 else 0.0
    return scores


REFERENCES = {
    "pagerank": ref_pagerank,
    "eigenvector": ref_eigenvector,
    "katz": ref_katz,
    "degree": ref_degree,
    "betweenness": ref_betweenness,
    "closeness": ref_closeness,
}


def ref_top_k(scores: dict[int, float], k: int) -> list[int]:
    return sorted(range(len(scores)), key=lambda v: (-scores[v], v))[:k]


def outcome(fn, *args):
    """A call's result, or its MetricError text."""
    try:
        return fn(*args)
    except MetricError as exc:
        return f"MetricError: {exc}"


def bits(result):
    """Node ids and the exact bytes of the scores (an error text as is)."""
    if isinstance(result, str):
        return result
    return list(result), np.array(list(result.values()), dtype=np.float64).tobytes()


@st.composite
def graphs(draw, max_nodes=12):
    """Random simple graphs, directed or not, with isolated and dangling nodes.

    Some are then edited with ``add_edge`` and ``remove_edge``, which moves them onto the set-backed
    topology that ``out_csr`` rebuilds once per version.
    """
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n)) if u != v]
    g, _ = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs], directed=draw(st.booleans()))
    for add, u, v in draw(st.lists(st.tuples(st.booleans(), node, node), max_size=4)):
        if u != v:
            (g.add_edge if add else g.remove_edge)(u, v)
    return g


@settings(max_examples=200, deadline=None)
@given(g=graphs(), data=st.data())
def test_csr_matvec_matches_scipy_product(g, data):
    n = g.num_nodes
    x, y = (np.array(data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)), dtype=np.float64)
            for _ in range(2))
    first = csr_matvec(g.out_csr(), x)
    assert first.tobytes() == (to_sparse(g) @ x).tobytes()
    # A second product on the same CSR reuses its work buffer; the first result keeps its bytes.
    assert csr_matvec(g.out_csr(), y).tobytes() == (to_sparse(g) @ y).tobytes()
    assert first.tobytes() == (to_sparse(g) @ x).tobytes()
    assert csr_matvec(g.in_csr(), x).tobytes() == (ref_in_operator(g) @ x).tobytes()
    for wrong in (x[:-1], np.append(x, 1.0)):  # a clipped gather would read a short x without an error
        with pytest.raises(ValueError, match="expected"):
            csr_matvec(g.out_csr(), wrong)


@settings(max_examples=200, deadline=None)
@given(g=graphs(), data=st.data())
def test_metrics_and_ranking_match_scipy_references(g, data):
    k = data.draw(st.integers(1, g.num_nodes))
    for metric in METRICS:
        want = outcome(REFERENCES[metric], g)
        assert bits(outcome(centrality, g, metric)) == bits(want)
        if not isinstance(want, str):
            assert top_k_by_metric(g, metric, k) == ref_top_k(want, k)


@st.composite
def sparse_graphs(draw):
    """Larger random graphs, directed or not: many with several components, isolated nodes or n <= 2."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < p, 1)
    directed = draw(st.booleans())
    both = upper | (np.tril(rng.random((n, n)) < p, -1) if directed else False)
    src, dst = both.nonzero()
    return Graph.from_edges(n, src, dst, directed)[0]


# Sources are walked in runs sized by ``_BATCH_ENTRIES``: one source a run, a few, or all of them.
BATCH_ENTRIES = st.sampled_from([1, 100, 2**12, metrics._BATCH_ENTRIES])


@settings(max_examples=150, deadline=None)
@given(g=sparse_graphs(), data=st.data())
def test_path_metrics_match_scalar_references_bitwise(g, data):
    k = data.draw(st.integers(1, g.num_nodes))
    with mock.patch.object(metrics, "_BATCH_ENTRIES", data.draw(BATCH_ENTRIES)):
        for metric in ("betweenness", "closeness"):
            want = REFERENCES[metric](g)
            assert bits(centrality(g, metric)) == bits(want)
            assert top_k_by_metric(g, metric, k) == ref_top_k(want, k)


def layered_graph(directed: bool) -> Graph:
    """40 layers of 6 nodes; each pair of nodes in neighbouring layers joined with probability 0.6."""
    rng = np.random.default_rng(20240601)
    layers = np.arange(240).reshape(40, 6)
    pairs = [(u, v) for upper, lower in zip(layers, layers[1:]) for u in upper for v in lower if rng.random() < 0.6]
    return Graph.from_edges(240, *zip(*pairs), directed)[0]


@pytest.mark.parametrize("batch_entries", [1, 2**12, metrics._BATCH_ENTRIES])
@pytest.mark.parametrize("directed", [False, True])
def test_path_metrics_keep_their_bits_past_2_to_the_53_paths(directed, batch_entries, monkeypatch):
    monkeypatch.setattr(metrics, "_BATCH_ENTRIES", batch_entries)
    g = layered_graph(directed)
    sigma = np.zeros(240)  # shortest-path counts from node 0: every layer lies one step further
    sigma[0] = 1.0
    for u, v in sorted(g.edges()):
        sigma[v] += sigma[u]
    assert sigma.max() > 2.0**53
    for metric in ("betweenness", "closeness"):
        want = REFERENCES[metric](g)
        assert bits(centrality(g, metric)) == bits(want)
        assert top_k_by_metric(g, metric, 10) == ref_top_k(want, 10)
