"""Compression pipeline: spatial-semantic fusion, clustering, centroid pooling.

A page is compressed in three training-free phases. Fusion blends each
(optionally normalized) patch vector with the positional encoding of its
grid cell, ``z_j = (1 - omega) * v_j + omega * p_j``. Ward agglomeration
(or the k-means comparator) partitions the fused features into k chunks.
Pooling then averages the ORIGINAL semantic vectors of each chunk and
renormalizes, so the positional prior steers the partition but never leaks
into the stored representation.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .posenc import PosEncConfig, encode_batch
from .types import (
    ChunkAssignment,
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    grid_coords,
)

__all__ = [
    "METHODS",
    "ChunkerConfig",
    "fuse",
    "cluster_hac",
    "cluster_kmeans",
    "pool",
    "compress",
    "compress_many",
]

METHODS = ("hac_ward", "kmeans")

# Merge costs within this absolute window of the step minimum count as tied;
# ties resolve by smallest (then second-smallest) original member index so a
# run is reproducible on symmetric inputs such as pure positional grids.
TIE_EPS = 1e-12

DEGENERATE_NORM = 1e-12

# Lloyd iterations stop after this many rounds, or earlier once no centroid
# moves by ``KMEANS_TOL`` (L2) or more.
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class ChunkerConfig:
    k: int
    omega: float = 0.2
    method: str = "hac_ward"
    seed: int = 0
    normalize_semantic_before_fusion: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def fuse(pset: PatchEmbeddingSet, cfg: ChunkerConfig, pe: PosEncConfig) -> FusedFeatureSet:
    """Blend semantics with the positional prior.

    Raises ValueError on a dim mismatch between the patch set and the
    encoder, and on a zero-norm semantic vector when normalization is on
    (the direction of a zero vector is undefined).
    """
    if pe.dim != pset.dim:
        raise ValueError(f"positional encoder dim {pe.dim} != embedding dim {pset.dim}")
    v = pset.vectors
    if cfg.normalize_semantic_before_fusion:
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        zero = np.flatnonzero(norms[:, 0] == 0.0)
        if zero.size:
            raise ValueError(
                f"cannot normalize zero-norm semantic vector at index {int(zero[0])}"
            )
        v = v / norms
    p = encode_batch(pe, grid_coords(pset.grid))
    z = (1.0 - cfg.omega) * v + cfg.omega * p
    return FusedFeatureSet(dim=pset.dim, omega=cfg.omega, vectors=z)


def _pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distances with +inf on the diagonal."""
    g = x @ x.T
    g = (g + g.T) * 0.5
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    return d2


def _canonical_assignment(labels_raw: np.ndarray) -> ChunkAssignment:
    """Renumber arbitrary labels to 0..k-1 by ascending smallest member index."""
    _, first, inverse = np.unique(labels_raw, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    labels = rank[inverse]
    return ChunkAssignment(k=first.shape[0], labels=labels, sizes=np.bincount(labels))


def cluster_hac(feats: FusedFeatureSet, k: int) -> tuple[ChunkAssignment, np.ndarray]:
    """Ward agglomeration of fused features down to ``k`` clusters.

    Runs the Lance-Williams recurrence on a dense squared-distance matrix
    with cached row minima, O(n^2) memory. At every step the pair with the
    smallest Ward merge cost is joined; costs within ``TIE_EPS`` of the
    minimum are tied and resolve by the smallest, then second-smallest,
    original member index of the pair. With ``n <= k`` each patch keeps its
    own singleton chunk and no merge happens.

    Returns:
        The canonical assignment and the linkage array ``Z``, a float64
        ``(n - k, 4)`` array in scipy's convention: row ``t`` merges nodes
        ``Z[t, 0] < Z[t, 1]`` at Ward distance ``Z[t, 2]`` (the square root
        of the minimized merge cost) into a cluster of ``Z[t, 3]`` patches.
        Patches are nodes ``0 .. n-1`` and row ``t`` creates node ``n + t``.
        Distances are non-decreasing (Ward linkage is monotone).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    x = feats.vectors
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty feature set")
    if n <= k:
        return (
            ChunkAssignment(k=n, labels=np.arange(n), sizes=np.ones(n, dtype=np.int64)),
            np.empty((0, 4)),
        )

    d2 = _pairwise_sq(x)
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
    sizes = np.empty(len(slots), dtype=np.int64)
    for lbl, s in enumerate(slots):
        labels[members[s]] = lbl
        sizes[lbl] = size[s]
    linkage = np.array(merges, dtype=np.float64)
    linkage[:, :2].sort(axis=1)
    np.sqrt(linkage[:, 2], out=linkage[:, 2])
    return ChunkAssignment(k=len(slots), labels=labels, sizes=sizes), linkage


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding, deterministic for a given generator state."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    chosen: set[int] = set()
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    chosen.add(idx)
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # All remaining points coincide with a chosen center; fall back
            # to the smallest untaken index to stay deterministic.
            idx = next(j for j in range(n) if j not in chosen)
        chosen.add(idx)
        centers[c] = x[idx]
        np.minimum(closest, ((x - centers[c]) ** 2).sum(axis=1), out=closest)
    return centers


def _repair_empty(x, centers, labels, counts):
    """Give each empty cluster the point farthest from its current centroid."""
    d_own = ((x - centers[labels]) ** 2).sum(axis=1)
    for e in np.flatnonzero(counts == 0):
        movable = counts[labels] > 1
        candidates = np.where(movable, d_own, -np.inf)
        far = int(candidates.argmax())
        counts[labels[far]] -= 1
        labels[far] = e
        counts[e] = 1
        d_own[far] = 0.0
    return labels


def cluster_kmeans(feats: FusedFeatureSet, k: int, seed: int = 0) -> ChunkAssignment:
    """Lloyd iterations from a k-means++ seeding, the flat-clustering comparator.

    Stops when the largest centroid movement (L2) drops below ``KMEANS_TOL``
    or after ``KMEANS_MAX_ITER`` rounds. Empty clusters are repaired by
    reassigning the single point farthest from its own centroid. Requires
    ``k`` not to exceed the number of points.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    x = feats.vectors
    n, dim = x.shape
    if k > n:
        raise ValueError(f"k = {k} exceeds the {n} available points")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        x2 = (x * x).sum(axis=1)[:, None]
        c2 = (centers * centers).sum(axis=1)[None, :]
        d2 = np.maximum(x2 + c2 - 2.0 * (x @ centers.T), 0.0)
        labels = d2.argmin(axis=1).astype(np.int64)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            labels = _repair_empty(x, centers, labels, counts)
        # bincount adds each cluster's rows in index order, as a per-cluster
        # mean would, so the centroids match that loop bit for bit.
        flat = (labels[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(flat, weights=x.ravel(), minlength=k * dim).reshape(k, dim)
        new_centers = sums / counts[:, None]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    return _canonical_assignment(labels)


def pool(pset: PatchEmbeddingSet, assignment: ChunkAssignment) -> CompressedDocument:
    """Average each chunk's ORIGINAL semantic vectors and renormalize.

    The positional prior participates only in clustering, never here. A
    chunk whose centroid norm falls below ``DEGENERATE_NORM`` (antipodal
    members cancelling out) is replaced by the normalized embedding of its
    smallest-index member, reported as a RuntimeWarning rather than silently.
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


def compress(pset: PatchEmbeddingSet, cfg: ChunkerConfig, pe: PosEncConfig) -> CompressedDocument:
    """Full per-page pipeline: fuse, cluster, pool.

    The effective chunk count is ``min(cfg.k, n_vectors)``; compression
    never expands a page. Pure function of its inputs, safe to run for many
    pages concurrently.
    """
    k_eff = min(cfg.k, pset.n_vectors)
    feats = fuse(pset, cfg, pe)
    if cfg.method == "hac_ward":
        assignment, _ = cluster_hac(feats, k_eff)
    else:
        assignment = cluster_kmeans(feats, k_eff, seed=cfg.seed)
    return pool(pset, assignment)


def compress_many(
    psets,
    cfg: ChunkerConfig,
    pe: PosEncConfig,
    threads: int = 1,
) -> list[CompressedDocument]:
    """Compress a corpus, optionally across a thread pool.

    Output order follows input order whatever the thread count, so results
    are identical to a sequential run.
    """
    sets = list(psets)
    if threads <= 1 or len(sets) <= 1:
        return [compress(s, cfg, pe) for s in sets]
    with ThreadPoolExecutor(max_workers=threads) as pool_:
        return list(pool_.map(lambda s: compress(s, cfg, pe), sets))
