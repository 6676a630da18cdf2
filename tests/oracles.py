"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive. The Ward agglomerator recomputes
cluster centroids from the raw points at every step instead of carrying a
Lance-Williams recurrence, the late-interaction scorer is a pure-Python
double loop, retrieval scores one document at a time, and the nDCG helper
follows the textbook formula directly.
These are the ground truth the fast paths are measured against; keep them
obvious.
"""

from __future__ import annotations

import math

import numpy as np

TIE_EPS = 1e-12


def brute_force_ward(points: np.ndarray, k: int):
    """Ward agglomeration with explicit per-step centroid arithmetic.

    Returns (labels, merge_distances). The merge cost between clusters A
    and B is recomputed from scratch each step as

        cost^2 = 2 * |A||B| / (|A|+|B|) * ||mean(A) - mean(B)||^2

    which equals the squared inter-cluster distance a Lance-Williams
    recurrence maintains when seeded with squared Euclidean distances.
    Ties within TIE_EPS of the step minimum go to the pair whose
    (smallest member, other smallest member) index pair is
    lexicographically least. Output labels are numbered by each cluster's
    smallest member index.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    clusters = [[i] for i in range(n)]
    distances = []
    while len(clusters) > k:
        m = len(clusters)
        mus = np.stack([pts[c].mean(axis=0) for c in clusters])
        sizes = np.array([len(c) for c in clusters], dtype=np.float64)
        gaps = mus[:, None, :] - mus[None, :, :]
        d2 = np.einsum("abd,abd->ab", gaps, gaps)
        cost = 2.0 * (sizes[:, None] * sizes[None, :]) / (
            sizes[:, None] + sizes[None, :]
        ) * d2
        rows, cols = np.triu_indices(m, 1)
        pair_costs = cost[rows, cols]
        limit = pair_costs.min() + TIE_EPS
        tied = pair_costs <= limit
        best = None
        for a, b, c in zip(rows[tied], cols[tied], pair_costs[tied]):
            lo = min(clusters[a][0], clusters[b][0])
            hi = max(clusters[a][0], clusters[b][0])
            if best is None or (lo, hi) < best[:2]:
                best = (lo, hi, int(a), int(b), float(c))
        _, _, a, b, chosen = best
        merged = sorted(clusters[a] + clusters[b])
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)
        distances.append(math.sqrt(chosen))
    labels = np.empty(n, dtype=np.int64)
    order = sorted(range(len(clusters)), key=lambda i: clusters[i][0])
    for new_id, ci in enumerate(order):
        labels[clusters[ci]] = new_id
    return labels, distances


def naive_maxsim(query_vectors, chunk_vectors) -> float:
    """Pure-Python late-interaction score with explicit cosines."""

    def norm(v):
        return math.sqrt(math.fsum(x * x for x in v))

    total = []
    for q in query_vectors:
        nq = norm(q)
        best = -math.inf
        for c in chunk_vectors:
            dot = math.fsum(qi * ci for qi, ci in zip(q, c))
            best = max(best, dot / (nq * norm(c)))
        total.append(best)
    return math.fsum(total)


def naive_retrieve(query, docs, top_k):
    """Score each document with ``maxsim`` in turn; ``(doc_id, score, rank)`` hits.

    The exhaustive per-document loop, sorted by descending score then doc_id.
    """
    from colchunk.scorer import maxsim

    scored = sorted(((doc.doc_id, maxsim(query, doc)) for doc in docs),
                    key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, score, rank) for rank, (doc_id, score) in enumerate(scored[:top_k], 1)]


def naive_ndcg(ranking, judged, k) -> float:
    """Textbook nDCG@k over a doc_id ranking and a doc_id -> grade map."""
    dcg = math.fsum(
        judged.get(doc, 0) / math.log2(pos + 2.0)
        for pos, doc in enumerate(ranking[:k])
    )
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = math.fsum(g / math.log2(pos + 2.0) for pos, g in enumerate(ideal))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg
