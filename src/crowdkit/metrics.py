"""Node centrality metrics and top-k selection.

All metrics return a full ``{node: score}`` map with finite float scores.
Ranking ties break deterministically by ascending node id. PageRank,
eigenvector and Katz centrality are each one step and one distance run by
the one power loop ``_power``, which sums over the graph's own in-CSR rows
with ``csr_matvec``, whose gather reuses one work buffer that the loop owns,
so it is freed on return; closeness and betweenness walk its out-CSR rows
breadth first, one depth at a time for a run of sources at once.
"""

from __future__ import annotations

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
_BATCH_ENTRIES = 2**18  # the sources walked at once share each BFS depth's numpy calls


def _require_nodes(graph: Graph) -> int:
    n = graph.num_nodes
    if n == 0:
        raise MetricError("centrality undefined on an empty graph")
    return n


def _power(graph: Graph, params: dict, name: str, x: np.ndarray, tol: float, max_iter: int, step, distance):
    """Iterate ``x = step(matvec, x)`` until ``distance(next - x) < tol``; the scores as ``{node: score}``.

    ``matvec(v)`` sums ``v`` over the graph's in-CSR rows through one gather buffer, freed on return. Params
    ``tol`` and ``max_iter`` override the defaults given; no convergence within ``max_iter`` steps raises.
    """
    tol, max_iter = float(params.get("tol", tol)), int(params.get("max_iter", max_iter))
    in_rows = graph.in_csr()
    gathered = np.empty(in_rows[1].size)
    for _ in range(max_iter):
        nxt = step(lambda v: csr_matvec(in_rows, v, gathered), x)
        if distance(nxt - x) < tol:
            return dict(enumerate(nxt.tolist()))
        x = nxt
    raise MetricError(f"{name} did not converge within {max_iter} iterations")


def pagerank(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Power-iteration PageRank. Scores sum to 1; dangling mass is spread uniformly."""
    n = _require_nodes(graph)
    params = params or {}
    damping = float(params.get("damping", PAGERANK_DAMPING))
    out_deg = np.diff(graph.out_csr()[0])
    dangling = out_deg == 0
    inv_out = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1))
    base = (1.0 - damping) / n
    return _power(graph, params, "pagerank", np.full(n, 1.0 / n), PAGERANK_TOL, PAGERANK_MAX_ITER,
                  lambda matvec, x: base + damping * matvec(x * inv_out) + damping * x[dangling].sum() / n,
                  lambda diff: np.abs(diff).sum())


def degree_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Degree normalized by n - 1 (total degree for directed graphs)."""
    n = _require_nodes(graph)
    degree = np.diff(graph.out_csr()[0]) + (np.diff(graph.in_csr()[0]) if graph.directed else 0)
    return dict(enumerate((degree * (1.0 / max(n - 1, 1))).tolist()))


def _walks(out: tuple[np.ndarray, np.ndarray]):
    """The BFS over CSR rows ``out`` from every node, for runs of sources at once: yields ``(roots, levels)``.

    A run's arrays hold about ``_BATCH_ENTRIES`` entries: codes ``b * n + v``, node ``v`` as seen from the run's
    ``b``-th source, whose code is ``roots[b]``. ``levels`` holds ``(nodes, src, dst)`` per depth 1, 2, ..., in
    runs of ascending ``b``; in each run ``nodes`` are those first reached at that depth, in the order a FIFO queue
    visits them, and ``src -> dst`` are the edges from the depth above into them, in the order that queue scans them.
    A depth costs what it scans.
    """
    indptr, indices = out
    n = indptr.size - 1
    for sources in np.array_split(np.arange(n), min(n, -(-n * (n + indices.size) // _BATCH_ENTRIES))):
        nodes = roots = np.arange(sources.size) * n + sources
        seen, first, levels = np.zeros(roots.size * n, dtype=bool), np.empty(roots.size * n, dtype=np.int64), []
        seen[roots] = True
        while True:
            rows = nodes % n
            starts, counts = indptr[rows], indptr[rows + 1] - indptr[rows]
            src = np.repeat(nodes, counts)  # the rows of ``nodes``, in their order
            gather = np.arange(src.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
            dst = indices[gather] + np.repeat(nodes - rows, counts)
            new = ~seen[dst]
            src, dst = src[new], dst[new]
            if not dst.size:
                break
            at = np.arange(dst.size)
            first[dst] = dst.size  # each node's first position in the scan
            np.minimum.at(first, dst, at)
            nodes = dst[first[dst] == at]
            seen[nodes] = True
            levels.append((nodes, src, dst))
        yield roots, levels


def betweenness_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Exact shortest-path betweenness (Brandes), pair-normalized.

    ``np.add.at`` adds its terms one by one in the order the one-queue algorithm does, so the scores keep its bits.
    """
    n = _require_nodes(graph)
    if n <= 2:
        return dict.fromkeys(range(n), 0.0)
    scores = np.zeros(n)
    for roots, levels in _walks(graph.out_csr()):
        sigma, delta, visit = np.zeros(roots.size * n), np.zeros(roots.size * n), np.zeros(roots.size * n, np.int64)
        sigma[roots] = 1.0
        for nodes, src, dst in levels:
            np.add.at(sigma, dst, sigma[src])  # from 0.0, in scan order
            visit[nodes] = np.arange(nodes.size)
        for _, src, dst in reversed(levels):  # successors in reverse visit order; ties add to different entries
            order = np.argsort(-visit[dst])
            np.add.at(delta, src[order], (sigma[src] * ((1.0 + delta[dst]) / sigma[dst]))[order])
        delta[roots] = 0.0
        for row in delta.reshape(roots.size, n):  # sources in ascending order
            scores += row
    # Accumulation is over ordered (s, t) pairs; 1/((n-1)(n-2)) equals the
    # unordered-pair normalization 2/((n-1)(n-2)) for undirected graphs.
    return dict(enumerate((scores * (1.0 / ((n - 1) * (n - 2)))).tolist()))


def closeness_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Classic closeness per component: reachable count over summed distance."""
    n, scores = _require_nodes(graph), []
    for roots, levels in _walks(graph.out_csr()):
        reached = total = np.zeros(roots.size, dtype=np.int64)
        for depth, (nodes, _, _) in enumerate(levels, 1):
            size = np.bincount(nodes // n, minlength=roots.size)
            reached, total = reached + size, total + depth * size
        scores += [r / t if t > 0 else 0.0 for r, t in zip(reached.tolist(), total.tolist())]  # as Python ints
    return dict(enumerate(scores))


def eigenvector_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Power iteration on A + I with L2 normalization.

    The identity shift keeps the iteration convergent on bipartite structures
    and leaves the eigenvectors unchanged. ``(A + I) x`` of a positive ``x`` is never zero.
    """
    n = _require_nodes(graph)

    def step(matvec, x):
        nxt = matvec(x) + x
        return nxt / np.linalg.norm(nxt)

    x = np.full(n, 1.0 / np.sqrt(n))
    return _power(graph, params or {}, "eigenvector centrality", x, EIGEN_TOL, EIGEN_MAX_ITER, step, np.linalg.norm)


def katz_centrality(graph: Graph, params: dict | None = None) -> dict[int, float]:
    """Katz scores x = alpha * A x + beta, iterated to a fixed point.

    Diverges (and errors) when alpha is at or above the reciprocal of the
    spectral radius.
    """
    n = _require_nodes(graph)
    params = params or {}
    alpha = float(params.get("alpha", KATZ_ALPHA))
    beta = float(params.get("beta", KATZ_BETA))

    def step(matvec, x):
        nxt = alpha * matvec(x) + beta
        if not np.all(np.isfinite(nxt)) or np.abs(nxt).max() > _DIVERGENCE_LIMIT:
            raise MetricError("katz centrality diverges: alpha >= 1 / spectral radius")
        return nxt

    return _power(graph, params, "katz centrality", np.full(n, beta), EIGEN_TOL, EIGEN_MAX_ITER, step,
                  lambda diff: np.abs(diff).max())


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
