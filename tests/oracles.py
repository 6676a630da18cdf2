"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive. The Ward agglomerator recomputes
cluster centroids from the raw points at every step instead of carrying a
Lance-Williams recurrence, the late-interaction scorer is a pure-Python
double loop, retrieval scores one document at a time, and the nDCG helper
follows the textbook formula directly. ``reference_ward`` is the one
exception: it keeps the first, straightforward Lance-Williams loop of
``chunker.cluster_hac`` (per-slot member lists, gathered rows and a
scattered column per merge), so the faster loop can be checked bit for bit
against it. ``reference_pool`` likewise keeps the first ``chunker.pool``
(``np.add.at`` and a per-chunk loop) for a bitwise check.
These are the ground truth the fast paths are measured against; keep them
obvious.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from colchunk.types import ChunkAssignment, CompressedDocument

TIE_EPS = 1e-12
DEGENERATE_NORM = 1e-12


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


def _reference_pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distances with +inf on the diagonal."""
    g = x @ x.T
    g = (g + g.T) * 0.5
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    return d2


def reference_ward(points, k: int):
    """The original dense Lance-Williams Ward loop; ``(assignment, Z)``.

    Same contract, tie rule and linkage convention as
    ``chunker.cluster_hac`` (which must match it bitwise), for ``1 <= k < n``.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    d2 = _reference_pairwise_sq(x)
    active = np.ones(n, dtype=bool)
    size = np.ones(n, dtype=np.int64)
    min_member = np.arange(n)
    dendro_id = np.arange(n)
    members: list[list[int]] = [[j] for j in range(n)]
    row_val = d2.min(axis=1)
    row_idx = d2.argmin(axis=1)
    merges: list[tuple] = []

    for step in range(n - k):
        cost = row_val[active].min()
        limit = cost + TIE_EPS
        # Every tied pair is visible from the row of its smaller-indexed
        # member, so the winner anchors at the candidate row with the
        # smallest member index and takes its smallest tied partner.
        rows = np.flatnonzero(active & (row_val <= limit))
        a = int(rows[np.argmin(min_member[rows])])
        partners = np.flatnonzero(d2[a] <= limit)
        b = int(partners[np.argmin(min_member[partners])])
        if min_member[b] < min_member[a]:
            a, b = b, a
        d2_ab = float(d2[a, b])

        size_a = int(size[a])
        size_b = int(size[b])
        new_size = size_a + size_b
        merges.append((dendro_id[a], dendro_id[b], d2_ab, new_size))

        others = active.copy()
        others[a] = others[b] = False
        w = np.flatnonzero(others)
        sw = size[w].astype(np.float64)
        merged_row = (
            (size_a + sw) * d2[a, w] + (size_b + sw) * d2[b, w] - sw * d2_ab
        ) / (size_a + size_b + sw)
        # Exact duplicates sit at a rounding-error distance, not 0, so the
        # ``- sw * d2_ab`` term can push a merged entry below zero.
        np.maximum(merged_row, 0.0, out=merged_row)
        d2[a, w] = merged_row
        d2[w, a] = merged_row
        active[b] = False
        d2[b, :] = np.inf
        d2[:, b] = np.inf
        size[a] = new_size
        dendro_id[a] = n + step
        members[a].extend(members[b])
        members[b] = []

        row_val[b] = np.inf
        if w.size:
            row_val[a] = d2[a, w].min()
            row_idx[a] = w[d2[a, w].argmin()]
        else:
            row_val[a] = np.inf
        # Rows whose cached minimum pointed into the merged pair may have
        # lost it (Ward distances can grow under the recurrence); rescan
        # them, then absorb any improvements the new row brought.
        stale = others & ((row_idx == a) | (row_idx == b))
        stale_rows = np.flatnonzero(stale)
        if stale_rows.size:
            block = d2[stale_rows]
            row_val[stale_rows] = block.min(axis=1)
            row_idx[stale_rows] = block.argmin(axis=1)
        improved = others & ~stale & (d2[:, a] < row_val)
        row_val[improved] = d2[improved, a]
        row_idx[improved] = a

    slots = sorted(np.flatnonzero(active).tolist(), key=lambda s: min_member[s])
    labels = np.empty(n, dtype=np.int64)
    for lbl, s in enumerate(slots):
        labels[members[s]] = lbl
    linkage = np.array(merges, dtype=np.float64)
    linkage[:, :2].sort(axis=1)
    np.sqrt(linkage[:, 2], out=linkage[:, 2])
    return ChunkAssignment(labels), linkage


def reference_pool(pset, assignment) -> CompressedDocument:
    """The original ``chunker.pool``: scattered sums and a per-chunk loop.

    Same contract as ``chunker.pool`` (which must match it bitwise),
    including the degenerate-centroid warning and the zero-member error.
    """
    if assignment.labels.shape[0] != pset.n_vectors:
        raise ValueError(
            f"assignment covers {assignment.labels.shape[0]} patches, set has {pset.n_vectors}"
        )
    v = pset.vectors
    k = assignment.k
    sums = np.zeros((k, pset.dim), dtype=np.float64)
    np.add.at(sums, assignment.labels, v)
    means = sums / assignment.sizes[:, None]
    norms = np.linalg.norm(means, axis=1)
    chunks = np.empty_like(means)
    for c in range(k):
        if norms[c] < DEGENERATE_NORM:
            j = int(np.flatnonzero(assignment.labels == c)[0])
            fallback_norm = float(np.linalg.norm(v[j]))
            if fallback_norm < DEGENERATE_NORM:
                raise ValueError(
                    f"chunk {c} of '{pset.doc_id}' degenerated to a zero centroid and its "
                    f"smallest member {j} is itself zero"
                )
            warnings.warn(
                f"chunk {c} of '{pset.doc_id}' has a degenerate centroid; "
                f"substituting normalized member {j}",
                RuntimeWarning,
                stacklevel=2,
            )
            chunks[c] = v[j] / fallback_norm
        else:
            chunks[c] = means[c] / norms[c]
    return CompressedDocument(
        doc_id=pset.doc_id,
        k=k,
        dim=pset.dim,
        chunks=chunks,
        chunk_sizes=assignment.sizes,
    )


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
