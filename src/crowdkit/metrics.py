"""Node centrality metrics and top-k selection.

All metrics return a full ``{node: score}`` map with finite float scores.
Ranking ties break deterministically by ascending node id. The power
iterations sum over the graph's own in-CSR rows with ``csr_matvec``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from .errors import MetricError
from .graph import Graph, csr_matvec

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-9
PAGERANK_MAX_ITER = 200
EIGEN_TOL = 1e-9
EIGEN_MAX_ITER = 1000
KATZ_ALPHA = 0.1
KATZ_BETA = 1.0
_DIVERGENCE_LIMIT = 1e12


def _require_nodes(graph: Graph) -> int:
    n = graph.num_nodes
    if n == 0:
        raise MetricError("centrality undefined on an empty graph")
    return n


def pagerank(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Power-iteration PageRank. Scores sum to 1; dangling mass is spread uniformly."""
    n = _require_nodes(graph)
    params = params or {}
    damping = float(params.get("damping", PAGERANK_DAMPING))
    tol = float(params.get("tol", PAGERANK_TOL))
    max_iter = int(params.get("max_iter", PAGERANK_MAX_ITER))

    out_deg = np.diff(graph.out_csr()[0])
    dangling = out_deg == 0
    inv_out = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1))
    in_rows = graph.in_csr()

    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = base + damping * csr_matvec(in_rows, x * inv_out)
        nxt += damping * x[dangling].sum() / n
        if np.abs(nxt - x).sum() < tol:
            return {v: float(nxt[v]) for v in range(n)}
        x = nxt
    raise MetricError(f"pagerank did not converge within {max_iter} iterations")


def degree_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Degree normalized by n - 1 (total degree for directed graphs)."""
    n = _require_nodes(graph)
    degree = np.diff(graph.out_csr()[0]) + (np.diff(graph.in_csr()[0]) if graph.directed else 0)
    return dict(enumerate((degree * (1.0 / max(n - 1, 1))).tolist()))


def betweenness_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Exact shortest-path betweenness (Brandes), pair-normalized."""
    n = _require_nodes(graph)
    scores = dict.fromkeys(range(n), 0.0)
    if n <= 2:
        return scores
    adj = graph.adjacency_lists()
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
    # Accumulation is over ordered (s, t) pairs; 1/((n-1)(n-2)) equals the
    # unordered-pair normalization 2/((n-1)(n-2)) for undirected graphs.
    scale = 1.0 / ((n - 1) * (n - 2))
    return {v: scores[v] * scale for v in range(n)}


def closeness_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Classic closeness per component: reachable count over summed distance."""
    n = _require_nodes(graph)
    adj = graph.adjacency_lists()
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


def eigenvector_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Power iteration on A + I with L2 normalization.

    The identity shift keeps the iteration convergent on bipartite structures
    and leaves the eigenvectors unchanged.
    """
    n = _require_nodes(graph)
    params = params or {}
    tol = float(params.get("tol", EIGEN_TOL))
    max_iter = int(params.get("max_iter", EIGEN_MAX_ITER))
    in_rows = graph.in_csr()
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = csr_matvec(in_rows, x) + x
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return dict.fromkeys(range(n), 0.0)
        nxt /= norm
        if np.linalg.norm(nxt - x) < tol:
            return {v: float(nxt[v]) for v in range(n)}
        x = nxt
    raise MetricError(f"eigenvector centrality did not converge within {max_iter} iterations")


def katz_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Katz scores x = alpha * A x + beta, iterated to a fixed point.

    Diverges (and errors) when alpha is at or above the reciprocal of the
    spectral radius.
    """
    n = _require_nodes(graph)
    params = params or {}
    alpha = float(params.get("alpha", KATZ_ALPHA))
    beta = float(params.get("beta", KATZ_BETA))
    tol = float(params.get("tol", EIGEN_TOL))
    max_iter = int(params.get("max_iter", EIGEN_MAX_ITER))
    in_rows = graph.in_csr()
    x = np.full(n, beta)
    for _ in range(max_iter):
        nxt = alpha * csr_matvec(in_rows, x) + beta
        if not np.all(np.isfinite(nxt)) or np.abs(nxt).max() > _DIVERGENCE_LIMIT:
            raise MetricError("katz centrality diverges: alpha >= 1 / spectral radius")
        if np.abs(nxt - x).max() < tol:
            return {v: float(nxt[v]) for v in range(n)}
        x = nxt
    raise MetricError(f"katz centrality did not converge within {max_iter} iterations")


METRICS: dict[str, Callable[[Graph, dict | None], dict[int, float]]] = {
    "pagerank": pagerank,
    "degree": degree_centrality,
    "betweenness": betweenness_centrality,
    "closeness": closeness_centrality,
    "eigenvector": eigenvector_centrality,
    "katz": katz_centrality,
}


def centrality(graph: Graph, metric: str, params: dict | None = None) -> dict[int, float]:
    """Compute a named centrality for every node."""
    fn = METRICS.get(metric)
    if fn is None:
        valid = ", ".join(sorted(METRICS))
        raise MetricError(f"unknown metric {metric!r} (valid: {valid})")
    return fn(graph, params)


def top_k_by_metric(graph: Graph, metric: str, k: int, params: dict | None = None) -> list[int]:
    """The k best-scoring nodes, ordered by descending score then ascending id."""
    n = _require_nodes(graph)
    if not 1 <= k <= n:
        raise MetricError(f"k must be in [1, {n}], got {k}")
    scores = centrality(graph, metric, params)
    return np.argsort(-np.array([scores[v] for v in range(n)]), kind="stable")[:k].tolist()
