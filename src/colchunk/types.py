"""Core data model shared across the toolkit.

Pages arrive as grids of patch embeddings in row-major order; queries as bags
of token embeddings. Compression replaces each page by a small set of unit-norm
chunk vectors. Every type checks its invariants at construction and raises
ValueError on a violation, so an instance that exists is valid. Arrays are made
read-only at construction, so no caller can break an invariant after the check,
and are float64 in memory, bar chunks given as float32, which stay so. Each
rule is stated here once and returns the value to store: ``check_count`` for
counts, ``check_natural`` for seeds and grades, ``check_real`` for numbers and
``check_omega`` for omega, ``check_decimal`` for number text, ``check_string``
and ``check_id`` for strings and ids, and ``check_compressed`` for compressed
documents. ``unit_rows`` normalizes rows, bar three divisions by hand:
``posenc.encode_batch`` divides in place, saving a copy; ``chunker.pool``
guards against degenerate centroids; ``evaluation.generate_corpus`` takes each
planted row's own 1-D norm, whose summation order keeps the dump's bytes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PatchGrid",
    "PatchEmbeddingSet",
    "FusedFeatureSet",
    "ChunkAssignment",
    "CompressedDocument",
    "QueryEmbeddingSet",
    "check_compressed",
    "check_count",
    "check_decimal",
    "check_id",
    "check_natural",
    "check_omega",
    "check_real",
    "check_string",
    "grid_coords",
    "unit_rows",
]

UNIT_NORM_TOL = 1e-6
# The largest chunk size: the index stores each size as a u32.
MAX_CHUNK_SIZE = 0xFFFFFFFF
# Rows per block when checking chunk norms in float64: 512 rows at dim 128 are a
# 512 KiB float64 block, which stays in a core's L2 cache between the cast and
# the sums. Each row's norm is its own, so the block size moves no verdict.
_CHECK_ROWS = 512


def first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """Index and ``|norm - 1|`` of the first row off unit norm, or None.

    A row holding NaN or inf counts as off unit norm.
    """
    off = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0)
    bad = np.flatnonzero(~(off <= UNIT_NORM_TOL))
    return (int(bad[0]), float(off[bad[0]])) if bad.size else None


def check_count(value, name: str) -> int:
    """The count rule: an integer of at least 1, a Python or numpy one but never
    a bool, returned as a Python int; ValueError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r:.40}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!s:.40}")
    return int(value)


def check_natural(value, name: str) -> int:
    """The seed and grade rule: ``check_count``'s rule starting from 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r:.40}")
    return int(value)


def check_real(value, name: str) -> int | float:
    """The number rule: a finite Python or numpy integer or float, never a bool,
    returned as a Python value (a Python one unchanged, so trailers keep their bytes)."""
    value = value.item() if isinstance(value, (np.integer, np.floating)) else value
    finite = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    if isinstance(value, bool) or not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r:.40}")
    return value


def check_omega(value) -> int | float:
    """The fusion weight rule: ``check_real``'s, then the interval [0, 1]."""
    if not 0.0 <= (value := check_real(value, "omega")) <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {value!r:.40}")
    return value


def check_decimal(text: str, name: str, parse) -> int | float:
    """The number text rule, for text from a file or a flag: ``parse`` (``int`` or
    ``float``) of ASCII with no ``_``, which they would read as a digit
    separator (``'1_0'`` as 10), as they read non-ASCII digits (``'١'`` as 1)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{name} must be ASCII with no '_', got {text!r:.40}")
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {text!r:.40}") from None


def check_string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a JSON string, got {value!r:.40}")
    return value


def check_id(value, name: str) -> str:
    """The id rule, for doc, query and run ids: a string, non-empty and with no
    whitespace, which would split the id across a run or qrels line's fields,
    that UTF-8 can encode (not a lone surrogate, such as JSON's ``"\\ud800"``),
    as every file that holds ids stores them."""
    if check_string(value, name).split() != [value]:
        raise ValueError(f"{name} {value!r:.40} is empty or holds whitespace")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} {value!r:.40} is not UTF-8 text") from None
    return value


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def check_compressed(ids, dim: int, offsets, chunks: np.ndarray, sizes: np.ndarray) -> None:
    """The compressed-document rule. Document ``ids[i]`` owns rows
    ``offsets[i]:offsets[i + 1]`` of ``chunks`` and of ``sizes`` (patches per
    chunk). ValueError, naming the document and any chunk, unless ``dim`` is a
    count, ``offsets`` runs from 0 by K >= 1 per id, ``chunks`` is ``(offsets[-1], dim)``,
    ``sizes`` is ``(offsets[-1],)``, every size is a whole number from 1 to
    ``MAX_CHUNK_SIZE`` and every chunk finite and unit norm, its norm taken in
    float64, ``_CHECK_ROWS`` rows at a time."""
    check_count(dim, "dim")
    # Python ints: a single document, the common call, skips numpy's per-call cost.
    bounds = np.asarray(offsets).tolist()
    if len(bounds) != len(ids) + 1 or bounds[0] != 0:
        raise ValueError(f"offsets must run from 0 with one entry more than the {len(ids)} ids")
    ks = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    for doc_id, k in zip(ids, ks):
        if k < 1:
            raise ValueError(f"doc '{doc_id}': k must be at least 1, got {k}")
    rows = bounds[-1]
    if chunks.shape != (rows, dim) or sizes.shape != (rows,):
        # Name the first misshaped document; the last owns any rows past the end.
        cuts = [int(b) for b in bounds[:-1]] + [None]
        for doc_id, lo, hi, k in zip(ids, cuts, cuts[1:], ks):
            for name, arr, want in (("chunks", chunks, (k, dim)), ("sizes", sizes, (k,))):
                if (got := arr[lo:hi].shape if arr.ndim else arr.shape) != want:
                    raise ValueError(f"doc '{doc_id}': {name} must have shape {want}, got {got}")
        raise ValueError(f"no documents, so chunks must be {(0, dim)} and sizes (0,), got "
                         f"{chunks.shape} and {sizes.shape}")

    def chunk(row) -> str:  # the document and chunk owning a row
        doc = bisect.bisect_right(bounds, row) - 1
        return f"doc '{ids[doc]}': chunk {row - bounds[doc]}"

    # The bounds come first, by masks a NaN cannot hide from (max and min
    # would return the NaN), so the whole-number test casts only values in
    # [1, MAX_CHUNK_SIZE], or NaN, to int64.
    if (over := sizes > MAX_CHUNK_SIZE).any():
        row = int(np.argmax(over))
        raise ValueError(f"{chunk(row)} of {sizes[row]} patches exceeds the u32 size field")
    if (under := sizes < 1).any():
        row = int(np.argmax(under))
        raise ValueError(f"{chunk(row)} must cover at least one patch, got {sizes[row]}")
    if sizes.dtype.kind not in "iu":
        with np.errstate(invalid="ignore"):  # NaN
            whole = sizes.astype(np.int64) == sizes
        if not whole.all():
            row = int(np.argmin(whole))
            raise ValueError(f"{chunk(row)} must cover a whole number of patches, got {sizes[row]}")
    for lo in range(0, len(chunks), _CHECK_ROWS):
        block = chunks[lo : lo + _CHECK_ROWS].astype(np.float64, copy=False)
        if (bad := first_non_unit_row(block)) is not None:
            raise ValueError(f"{chunk(lo + bad[0])} is not unit norm (|norm - 1| = {bad[1]:.3g})")


def _freeze(obj, name: str, value, dtype=np.float64, ndim: int | None = 2) -> np.ndarray:
    """Coerce a frozen dataclass's field to a read-only ``ndim``-D (any if None) array."""
    arr = np.array(value, dtype=dtype, copy=True)
    if ndim is not None and arr.ndim != ndim:
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
    """Patch layout of one page: ``rows x cols``, indexed row-major; each side a count."""

    rows: int
    cols: int

    def __post_init__(self):
        for name in ("rows", "cols"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))

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
        object.__setattr__(self, "dim", check_count(self.dim, f"{owner}: dim"))
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
        object.__setattr__(self, "omega", check_omega(self.omega))
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
    """One page's ``k`` chunk vectors, float32 if given as float32 and float64
    otherwise, and their patch counts, by ``check_compressed``."""

    doc_id: str
    k: int
    dim: int
    chunks: np.ndarray
    chunk_sizes: np.ndarray

    def __post_init__(self):
        f32 = getattr(self.chunks, "dtype", None) == np.float32
        chunks = _freeze(self, "chunks", self.chunks, np.float32 if f32 else np.float64, None)
        # Checked before the int64 copy, which would truncate a fraction or
        # wrap a size past int64.
        owner = f"doc '{self.doc_id}'"
        for name in ("k", "dim"):
            object.__setattr__(self, name, check_count(getattr(self, name), f"{owner}: {name}"))
        check_compressed([self.doc_id], self.dim, (0, self.k), chunks, np.asarray(self.chunk_sizes))
        _freeze(self, "chunk_sizes", self.chunk_sizes, np.int64, None)


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
        if arr.shape[0] == 0:
            raise ValueError("a query needs at least one token vector")
        owner = f"query '{self.query_id}'"
        object.__setattr__(self, "dim", check_count(self.dim, f"{owner}: dim"))
        _check_rows(owner, self.dim, arr)

    @property
    def n_tokens(self) -> int:
        return self.vectors.shape[0]
