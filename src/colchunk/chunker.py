"""Compression pipeline: spatial-semantic fusion, clustering, centroid pooling.

A page is compressed in three training-free phases. Fusion blends each
unit-normalized patch vector with the positional encoding of its grid cell,
at the page's own dim, ``z_j = (1 - omega) * v_j + omega * p_j``. Ward
agglomeration (or the k-means comparator) partitions the fused features into
k chunks. Pooling then averages the ORIGINAL semantic vectors of each chunk
and renormalizes, so the positional prior steers the partition but never
leaks into the stored representation. Ward's greedy merge order does not
depend on k, so one dendrogram per page, cut at each k, serves a whole sweep
over k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .posenc import encode_batch
from .types import (
    ChunkAssignment,
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    check_count,
    check_natural,
    check_omega,
    grid_coords,
    unit_rows,
)

__all__ = [
    "METHODS",
    "ChunkerConfig",
    "fuse",
    "cluster_hac",
    "cut_linkage",
    "cluster_kmeans",
    "pool",
    "compress_ks",
    "compress",
    "compress_many",
]

METHODS = ("hac_ward", "kmeans")

# Merge costs within this absolute window of the step minimum count as tied;
# ties resolve by smallest (then second-smallest) original member index so a
# run is reproducible on symmetric inputs such as pure positional grids.
TIE_EPS = 1e-12

# Largest page ``cluster_hac`` accepts. Ward keeps one dense n x n float64
# distance matrix, built in place, whose rows are padded to an odd number of
# cache lines: 512.5 MiB at this bound. Each shrink to the live clusters copies
# them out and back into the same buffer, so the first briefly holds a quarter
# more, a peak of about 640 MiB. A larger page raises ValueError.
MAX_HAC_PATCHES = 8192

# Edge, in rows, of the square tiles in which ``_pairwise_sq`` turns the Gram
# matrix into distances. 128 was fastest at 768 patches and level with 64 at
# 1,024-2,048; a tile pair is 256 KiB of float64.
_TILE = 128

DEGENERATE_NORM = 1e-12

# Lloyd iterations stop after this many rounds, or earlier once no centroid
# moves by ``KMEANS_TOL`` (L2) or more.
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class ChunkerConfig:
    k: int = 40
    omega: float = 0.2
    method: str = "hac_ward"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", check_count(self.k, "k"))
        object.__setattr__(self, "omega", check_omega(self.omega))
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "seed", check_natural(self.seed, "seed"))


def fuse(pset: PatchEmbeddingSet, cfg: ChunkerConfig) -> FusedFeatureSet:
    """Blend unit-normalized semantics with the positional prior.

    The encoder takes the page's dim, so a dim that is not a multiple of 4
    raises ValueError. Normalizing needs no zero-norm check: a
    PatchEmbeddingSet holds no zero vector.
    """
    v = unit_rows(pset.vectors)
    p = encode_batch(pset.dim, grid_coords(pset.grid))
    z = (1.0 - cfg.omega) * v + cfg.omega * p
    return FusedFeatureSet(omega=cfg.omega, vectors=z)


def _pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distances with +inf on the diagonal.

    The n x n result is a view of an n-row buffer whose rows are an odd
    number of 64-byte cache lines apart, one line more than ``n`` floats
    need when their count of lines is even. Then the n entries of a column
    fall in many cache sets, not in the few that rows of 4, 6 or 8 KiB map
    them to, so the two column writes of each Ward merge stay cheap.

    BLAS writes the Gram matrix ``g`` straight into that view. It is then
    overwritten in place, one pair of ``_TILE``-row tiles ``(I, J)`` and
    ``(J, I)`` at a time, so one n x n matrix is live. Each entry is
    ``(sq_i + sq_j) - (g_ij + g_ji)`` with ``sq_i = g_ii``, rounded step by
    step in that order, so it is exactly symmetric. No tile reads an entry
    that another tile has already overwritten.
    """
    n = x.shape[0]
    lines = -(-n // 8)
    g = np.empty((n, 8 * (lines + 1 - lines % 2)))[:, :n]
    np.matmul(x, x.T, out=g)
    sq = g.diagonal().copy()
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, n, _TILE):
            cols = slice(j, j + _TILE)
            t = np.add.outer(sq[rows], sq[cols])
            t -= g[rows, cols] + g[cols, rows].T
            np.maximum(t, 0.0, out=t)
            g[rows, cols] = t
            g[cols, rows] = t.T
    np.fill_diagonal(g, np.inf)
    return g


def _canonical_assignment(labels_raw: np.ndarray) -> ChunkAssignment:
    """Renumber arbitrary labels to 0..k-1 by ascending smallest member index."""
    _, first, inverse = np.unique(labels_raw, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    return ChunkAssignment(rank[inverse])


def cluster_hac(feats: FusedFeatureSet, k: int) -> tuple[ChunkAssignment, np.ndarray]:
    """Ward agglomeration of fused features down to ``k`` clusters.

    Runs the Lance-Williams recurrence on a dense squared-distance matrix
    with cached row minima, O(n^2) memory. At every step the pair with the
    smallest Ward merge cost is joined; costs within ``TIE_EPS`` of the
    minimum are tied and resolve by the smallest, then second-smallest,
    original member index of the pair. With ``n <= k`` each patch keeps its
    own singleton chunk and no merge happens.

    Each merge updates whole rows: a dead slot has size 0 and a +inf
    column, so the recurrence needs no index gathers and keeps dead entries
    at +inf. Once fewer than half the slots are live, the matrix shrinks in
    place to the live ones, in order, so argmin ties resolve as before and
    the rows keep ``_pairwise_sq``'s odd cache-line stride. Labels come
    from cutting ``Z`` with ``cut_linkage``. A page of more than
    ``MAX_HAC_PATCHES`` patches raises ValueError before the matrix is
    allocated.

    Across BLAS thread counts the merge order ``Z[:, :2]``, and so the
    labels, hold; the last bits of the distances ``Z[:, 2]`` may not, since
    they come from the Gram product ``x @ x.T``, whose rounding depends on
    how BLAS splits it. This module never sets the BLAS thread count.

    Returns:
        The canonical assignment and the linkage array ``Z``, a float64
        ``(n - k, 4)`` array in scipy's convention: row ``t`` merges nodes
        ``Z[t, 0] < Z[t, 1]`` at Ward distance ``Z[t, 2]`` (the square root
        of the minimized merge cost) into a cluster of ``Z[t, 3]`` patches.
        Patches are nodes ``0 .. n-1`` and row ``t`` creates node ``n + t``.
        Distances are non-decreasing (Ward linkage is monotone).
    """
    k = check_count(k, "k")
    x = feats.vectors
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty feature set")
    if n <= k:
        return ChunkAssignment(np.arange(n)), np.empty((0, 4))
    if n > MAX_HAC_PATCHES:
        raise ValueError(
            f"a page of {n} patches exceeds MAX_HAC_PATCHES = {MAX_HAC_PATCHES}: "
            f"its Ward distance matrix would take {n * n * 8} bytes"
        )

    d2 = _pairwise_sq(x)
    size = np.ones(n)
    dendro_id = np.arange(n)
    row_val = d2.min(axis=1)
    # argmin copies a padded matrix whole, so it takes one tile of rows at a time.
    row_idx = np.concatenate([d2[i : i + _TILE].argmin(axis=1) for i in range(0, n, _TILE)])
    merges: list[tuple] = []

    for step in range(n - k):
        # A merge keeps the lower slot and compaction keeps slot order, so
        # slot order is the order of each cluster's smallest member. Every
        # tied pair is visible from the row of its lower slot (row minima
        # are exact and d2 is symmetric), so the tie rule takes the first
        # tied row and its first tied partner. Dead rows cache +inf.
        limit = row_val[row_val.argmin()] + TIE_EPS
        a = int((row_val <= limit).argmax())
        b = int((d2[a] <= limit).argmax())
        d2_ab = float(d2[a, b])
        size_a = float(size[a])
        size_b = float(size[b])
        merges.append((dendro_id[a], dendro_id[b], d2_ab, size_a + size_b))

        # Dead slots (size 0, +inf column) and the +inf diagonal entries
        # ``d2[a, a]`` and ``d2[b, b]`` make ``merged`` +inf at a, b and
        # every dead slot.
        merged = (
            (size_a + size) * d2[a] + (size_b + size) * d2[b] - size * d2_ab
        ) / (size_a + size_b + size)
        # Exact duplicates sit at a rounding-error distance, not 0, so the
        # ``- size * d2_ab`` term can push a merged entry below zero.
        np.maximum(merged, 0.0, out=merged)
        # Row ``b`` is dead and never read again; only its column must go.
        d2[a] = merged
        d2[:, a] = merged
        d2[:, b] = np.inf
        size[a] += size_b
        size[b] = 0.0
        dendro_id[a] = n + step

        j = merged.argmin()
        row_val[a] = merged[j]
        row_idx[a] = j
        row_val[b] = np.inf
        row_idx[b] = -1
        # Rows whose cached minimum pointed into the merged pair may have
        # lost it (Ward distances can grow under the recurrence); rescan
        # them, then absorb any improvements the new row brought. A rescanned
        # row already holds its minimum over ``merged``, so it cannot improve.
        # Ward is reducible, so an improvement needs rounding error; the
        # check keeps the merge sequence exact when that happens.
        stale = ((row_idx == a) | (row_idx == b)).nonzero()[0]
        if stale.size:
            j = d2[stale].argmin(axis=1)
            row_idx[stale] = j
            row_val[stale] = d2[stale, j]
        improved = merged < row_val
        row_val[improved] = merged[improved]
        row_idx[improved] = a

        live = n - 1 - step
        if 2 * live < d2.shape[0]:
            keep = size.nonzero()[0]
            d2 = _shrink(d2, keep)
            slot = np.full(size.shape[0], -1)
            slot[keep] = np.arange(live)
            size = size[keep]
            dendro_id = dendro_id[keep]
            row_val = row_val[keep]
            row_idx = slot[row_idx[keep]]

    linkage = np.array(merges, dtype=np.float64)
    linkage[:, :2].sort(axis=1)
    np.sqrt(linkage[:, 2], out=linkage[:, 2])
    return cut_linkage(linkage, n, k), linkage


def _shrink(d2: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows and columns ``keep`` of ``d2``, in order, moved in place to its
    top-left corner: the result is a view that keeps ``d2``'s row stride."""
    live = len(keep)
    d2[:live, :live] = d2[np.ix_(keep, keep)]
    return d2[:live, :live]


def cut_linkage(z: np.ndarray, n: int, k: int) -> ChunkAssignment:
    """Flat clusters of ``n`` leaves after the first ``n - k`` merges of ``z``.

    ``z`` is a linkage array in ``cluster_hac``'s convention. Because the
    greedy merge order does not depend on ``k``, cutting a full dendrogram
    (``cluster_hac(feats, 1)``) at ``k`` gives ``cluster_hac(feats, k)``'s
    assignment. Each leaf finds its root by pointer jumping, a handful of
    vectorized passes over the nodes.
    """
    m = n - k
    if not 0 <= m <= z.shape[0]:
        raise ValueError(f"cannot cut {z.shape[0]} merges of {n} leaves at k = {k}")
    parent = np.arange(n + m)
    new_nodes = np.arange(n, n + m)
    pairs = z[:m, :2].astype(np.int64)
    parent[pairs[:, 0]] = new_nodes
    parent[pairs[:, 1]] = new_nodes
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            break
        parent = hop
    return _canonical_assignment(parent[:n])


def _label_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The ``(k, dim)`` sums of the rows of ``x`` that share each label.

    A weighted ``bincount`` adds each label's rows in index order, as
    ``np.add.at`` or a per-label loop does, so the sums match those bit for
    bit.
    """
    dim = x.shape[1]
    flat = (labels[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(flat, weights=x.ravel(), minlength=k * dim).reshape(k, dim)


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
    k = check_count(k, "k")
    x = feats.vectors
    n = x.shape[0]
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
        new_centers = _label_sums(x, labels, k) / counts[:, None]
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
    That member is nonzero, as every page vector is, but may itself be
    shorter than ``DEGENERATE_NORM``; then pool raises ValueError.
    """
    if assignment.labels.shape[0] != pset.n_vectors:
        raise ValueError(
            f"assignment covers {assignment.labels.shape[0]} patches, set has {pset.n_vectors}"
        )
    v = pset.vectors
    labels = assignment.labels
    means = _label_sums(v, labels, assignment.k) / assignment.sizes[:, None]
    norms = np.linalg.norm(means, axis=1)
    degenerate = norms < DEGENERATE_NORM
    chunks = means / np.where(degenerate, 1.0, norms)[:, None]
    for c in np.flatnonzero(degenerate):
        j = int(np.flatnonzero(labels == c)[0])
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
    return CompressedDocument(
        doc_id=pset.doc_id,
        k=assignment.k,
        dim=pset.dim,
        chunks=chunks,
        chunk_sizes=assignment.sizes,
    )


def compress_ks(pset: PatchEmbeddingSet, cfgs: Sequence[ChunkerConfig]) -> list[CompressedDocument]:
    """Compress one page once per configuration; the configurations differ only in k.

    The per-page pipeline: fuse, cluster, pool. The page is fused once. Ward
    builds one dendrogram at the smallest effective k and cuts it at every
    k; its greedy merge order does not depend on k, so each result equals
    that configuration's own ``cluster_hac`` run bit for bit. k-means
    clusters each k from its own seeding. The effective chunk count is
    ``min(cfg.k, n_vectors)``; compression never expands a page. Pure
    function of its inputs.
    """
    if not cfgs:
        raise ValueError("compress_ks needs at least one configuration")
    shared = replace(cfgs[0], k=1)
    if any(replace(cfg, k=1) != shared for cfg in cfgs):
        raise ValueError("configurations passed to compress_ks may differ only in k")
    n = pset.n_vectors
    ks = [min(cfg.k, n) for cfg in cfgs]
    feats = fuse(pset, shared)
    if shared.method == "hac_ward":
        _, z = cluster_hac(feats, min(ks))
        return [pool(pset, cut_linkage(z, n, k)) for k in ks]
    return [pool(pset, cluster_kmeans(feats, k, seed=shared.seed)) for k in ks]


def compress(pset: PatchEmbeddingSet, cfg: ChunkerConfig) -> CompressedDocument:
    """Compress one page under one configuration: ``compress_ks`` at a single k."""
    return compress_ks(pset, (cfg,))[0]


def compress_many(psets, cfg: ChunkerConfig) -> list[CompressedDocument]:
    """Compress a corpus page by page, in input order."""
    return [compress(s, cfg) for s in psets]
