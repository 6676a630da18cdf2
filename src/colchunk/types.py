"""Core data model shared across the toolkit.

Pages arrive as grids of patch embeddings in row-major order; queries as
bags of token embeddings. Compression replaces each page by a small set of
unit-norm chunk vectors. Every type checks its invariants at construction
and raises ValueError on a violation, so an instance that exists is valid.
Arrays are float64 in memory and made read-only at construction, so no
caller can break an invariant after the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PatchGrid",
    "PatchEmbeddingSet",
    "FusedFeatureSet",
    "ChunkAssignment",
    "CompressedDocument",
    "QueryEmbeddingSet",
    "grid_coords",
]

UNIT_NORM_TOL = 1e-6


def first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """Index and ``|norm - 1|`` of the first row off unit norm, or None.

    A row holding NaN or inf counts as off unit norm.
    """
    off = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0)
    bad = np.flatnonzero(~(off <= UNIT_NORM_TOL))
    return (int(bad[0]), float(off[bad[0]])) if bad.size else None


def _freeze(obj, name: str, value, dtype=np.float64, ndim: int = 2) -> np.ndarray:
    """Coerce a field to a read-only ``ndim``-D array of ``dtype`` on a frozen dataclass."""
    arr = np.array(value, dtype=dtype, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _check_rows(owner: str, dim: int, rows: np.ndarray) -> None:
    """Require ``dim`` finite components and a nonzero norm in every row.

    The ValueError names ``owner`` and the first bad row.
    """
    if rows.shape[1] != dim:
        raise ValueError(f"{owner}: expected {dim} components per vector, got {rows.shape[1]}")
    # One pass clears the usual clean set: a NaN or inf component makes its
    # row's sum of squares non-finite, and the sum is 0 exactly when the norm
    # is (squares cannot cancel). A finite row can still overflow to inf.
    sq = np.einsum("ij,ij->i", rows, rows)
    if np.isfinite(sq).all() and sq.all():
        return
    finite = np.isfinite(rows).all(axis=1)
    bad = np.flatnonzero(~finite | (sq == 0.0))
    if bad.size:
        j = int(bad[0])
        problem = "a non-finite component" if not finite[j] else "zero norm"
        raise ValueError(f"{owner}: vectors[{j}] has {problem}")


@dataclass(frozen=True)
class PatchGrid:
    """Patch layout of one page: ``rows x cols``, indexed row-major."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols


def grid_coords(grid: PatchGrid) -> np.ndarray:
    """All patch centers as an ``(n_patches, 2)`` array of (x, y), row-major.

    Coordinates are normalized to the page, x growing rightward and y
    downward. Patch ``j`` sits at ``row = j // cols``, ``col = j % cols``,
    centered at ``((col + 0.5) / cols, (row + 0.5) / rows)``, so centers
    never touch the page border and a 1x1 grid maps to (0.5, 0.5).
    """
    cols = (np.arange(grid.cols) + 0.5) / grid.cols
    rows = (np.arange(grid.rows) + 0.5) / grid.rows
    xs = np.tile(cols, grid.rows)
    ys = np.repeat(rows, grid.cols)
    return np.column_stack([xs, ys])


@dataclass(frozen=True, eq=False)
class PatchEmbeddingSet:
    """Contextual patch vectors of one page plus the grid they came from.

    Construction raises ValueError unless there is one vector per grid cell
    and every vector has ``dim`` finite components and a nonzero norm: a
    zero vector cannot be semantically normalized and poisons centroid
    pooling.
    """

    doc_id: str
    dim: int
    grid: PatchGrid
    vectors: np.ndarray

    def __post_init__(self):
        arr = _freeze(self, "vectors", self.vectors)
        owner = f"doc '{self.doc_id}'"
        if arr.shape[0] != self.grid.n_patches:
            raise ValueError(f"{owner}: count mismatch: {arr.shape[0]} != {self.grid.n_patches}")
        _check_rows(owner, self.dim, arr)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class FusedFeatureSet:
    """Per-patch features after blending semantics with the positional prior."""

    omega: float
    vectors: np.ndarray

    def __post_init__(self):
        arr = _freeze(self, "vectors", self.vectors)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if not np.isfinite(arr).all():
            raise ValueError("fused features must be finite")


@dataclass(frozen=True, eq=False)
class ChunkAssignment:
    """A partition of a page's patches into ``k`` chunks, given by its labels.

    ``labels[j]`` is the chunk of patch ``j``. The chunk count ``k`` and the
    patches per chunk, ``sizes``, are derived from the labels, which must be
    non-empty and non-negative and leave no chunk in ``[0, k)`` empty. The
    clusterers number chunks by ascending smallest member index, so their
    assignments are a canonical representation of the partition.
    """

    labels: np.ndarray
    k: int = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = _freeze(self, "labels", self.labels, np.int64, 1)
        if labels.size == 0:
            raise ValueError("an assignment needs at least one patch")
        # A label of n or more would leave a chunk empty; refusing it first
        # also bounds the bincount.
        if labels.min() < 0 or labels.max() >= labels.size:
            raise ValueError(f"labels must lie in [0, {labels.size}) for {labels.size} patches")
        sizes = _freeze(self, "sizes", np.bincount(labels), np.int64, 1)
        if (sizes == 0).any():
            raise ValueError(f"chunk {int(np.flatnonzero(sizes == 0)[0])} is empty")
        object.__setattr__(self, "k", len(sizes))


@dataclass(frozen=True, eq=False)
class CompressedDocument:
    """The retained representation of one page: ``k`` unit-norm chunk vectors."""

    doc_id: str
    k: int
    dim: int
    chunks: np.ndarray
    chunk_sizes: np.ndarray

    def __post_init__(self):
        chunks = _freeze(self, "chunks", self.chunks)
        sizes = _freeze(self, "chunk_sizes", self.chunk_sizes, np.int64, 1)
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if chunks.shape != (self.k, self.dim):
            raise ValueError(f"expected chunks of shape ({self.k}, {self.dim}), got {chunks.shape}")
        if sizes.shape[0] != self.k or (sizes < 1).any():
            raise ValueError("every chunk must cover at least one patch")
        bad = first_non_unit_row(chunks)
        if bad is not None:
            raise ValueError(f"chunk {bad[0]} is not unit norm (|norm - 1| = {bad[1]:.3g})")

    @property
    def n_source_vectors(self) -> int:
        return int(self.chunk_sizes.sum())


@dataclass(frozen=True, eq=False)
class QueryEmbeddingSet:
    """Token embeddings of one query. Tokens must be finite and nonzero.

    Construction checks the tokens by the same rule as a page's vectors.
    """

    query_id: str
    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        arr = _freeze(self, "vectors", self.vectors)
        if arr.shape[0] < 1:
            raise ValueError("a query needs at least one token vector")
        _check_rows(f"query '{self.query_id}'", self.dim, arr)

    @property
    def n_tokens(self) -> int:
        return self.vectors.shape[0]
