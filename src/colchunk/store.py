"""Persistence: the CCHK binary index and raw embedding dumps.

The index file is little-endian throughout and carries a JSON build-metadata
trailer whose byte length sits in the final 8 bytes, so readers can locate
it without scanning the document records:

    magic          4 bytes    b"CCHK"
    version        u32        currently 1
    dim            u32
    doc_count      u64
    per document:
        id_len     u16        UTF-8 byte length of doc_id
        doc_id     id_len bytes
        k          u32
        sizes      k * u32    patches pooled into each chunk
        chunks     k * dim * f32
    trailer        JSON, UTF-8, sorted keys, no whitespace: BuildMeta's six fields
    trailer_len    u64

Vectors are float32 on disk. ``read_index`` holds the stored float32 values
in one ``(sum K, dim)`` matrix, checked by ``CorpusIndex.from_columns``;
scoring arithmetic is float64. Writing what was read reproduces the file
byte for byte, since the reader takes the trailer's values unconverted. They
must be a build ``ChunkerConfig`` accepts, so ``store`` imports ``chunker``
(never the reverse). ``write_records`` is the one writer: it streams
records, so ``compress`` holds one page at a time, and ``write_index`` feeds
it an in-memory ``CorpusIndex``, the form ``retrieve`` takes.

Embedding dumps are the ingestion side: a JSON manifest describing per-page
raw vector files (flat float32 little-endian, row-major). Query dumps use
the same shape minus the grid fields. Ids, paths and ``location`` are JSON
strings. The loader, the writers and ``CorpusIndex`` (so ``read_index`` too)
check ids by one rule, ``_check_id``: non-empty with no whitespace, since
run and qrels lines are whitespace-separated fields; ``_check_unique``
refuses repeats. The writers name each raw file after its id, so after the
id rule they reject ids that are not safe file names: ``.``, ``..`` and any
id holding ``/``, ``\\`` or NUL. The loader rejects entry paths that are
absolute or have a ``..`` component, and raises ManifestError for any
malformed manifest, such as one that is not UTF-8, ``entries`` that is not a
list or a count that JSON reads as infinity (``1e400``). Vectors that their
type rejects (non-finite or zero-norm) raise ManifestError on ingest too.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, posenc
from .chunker import ChunkerConfig
from .types import (
    CompressedDocument,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
    first_non_unit_row,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "IndexFormatError",
    "ManifestError",
    "BuildMeta",
    "CorpusIndex",
    "DumpEntry",
    "EmbeddingDumpManifest",
    "write_index",
    "write_records",
    "read_index",
    "load_manifest",
    "ingest_dump",
    "write_embedding_dump",
    "ingest_queries",
    "write_query_dump",
]

MAGIC = b"CCHK"
FORMAT_VERSION = 1
# Rows per block when checking chunk norms in float64.
_CHECK_ROWS = 4096


class IndexFormatError(Exception):
    """An index file is malformed: wrong magic, version, truncation, bad record."""


class ManifestError(Exception):
    """An embedding dump (manifest or raw file) is unusable."""


@dataclass(frozen=True)
class BuildMeta:
    """Provenance of an index, persisted verbatim in the JSON trailer.

    Construction raises ValueError unless ``omega`` and ``posenc_base`` are
    finite numbers, ``k_target`` a count and the rest strings, by the
    manifest's rules, and unless ``ChunkerConfig(k_target, omega, method)``
    accepts the build, so every instance writes a trailer the reader accepts.
    """

    omega: float
    k_target: int
    method: str
    posenc_base: float
    tool_version: str
    embedding_location: str = ""

    def __post_init__(self):
        where = "build metadata"
        for name in ("omega", "posenc_base"):
            value = getattr(self, name)
            if not (type(value) is int or isinstance(value, float) and math.isfinite(value)):
                raise ValueError(f"{where}: {name} must be a finite JSON number, got {value!r:.40}")
        _count(self.k_target, where, "k_target", ValueError)
        for name in ("method", "tool_version", "embedding_location"):
            _string(getattr(self, name), where, name, ValueError)
        try:
            ChunkerConfig(self.k_target, self.omega, self.method)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    @classmethod
    def for_config(cls, cfg: ChunkerConfig, location: str) -> "BuildMeta":
        """The metadata of an index this version builds under a ChunkerConfig."""
        return cls(cfg.omega, cfg.k, cfg.method, posenc.BASE, __version__, location)

    @classmethod
    def from_dict(cls, d) -> "BuildMeta":
        """The metadata a parsed trailer holds: a JSON object with exactly the
        six fields, taken unconverted; IndexFormatError otherwise."""
        names = sorted(f.name for f in fields(cls))
        if not (isinstance(d, dict) and sorted(d) == names):
            shown = sorted(d) if isinstance(d, dict) else d
            raise IndexFormatError(f"build metadata must hold exactly {names}, got {shown!r:.200}")
        try:
            return cls(**d)
        except ValueError as exc:
            raise IndexFormatError(str(exc)) from exc


@dataclass(frozen=True, eq=False, init=False)
class CorpusIndex:
    """An ordered corpus of compressed documents sharing one dim, held as columns.

    ``ids`` are the doc ids in order, unique and obeying the dump id rule
    (ValueError otherwise). Document ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of ``chunks``, one ``(sum K, dim)`` matrix
    of unit-norm chunk vectors, and of ``sizes``, the patches pooled into
    each chunk. An index built from CompressedDocuments stacks their float64
    chunks; ``read_index`` keeps the stored float32 values.
    """

    dim: int
    ids: tuple[str, ...]
    offsets: np.ndarray
    chunks: np.ndarray
    sizes: np.ndarray
    build_meta: BuildMeta

    def __init__(self, dim: int, docs, build_meta: BuildMeta):
        docs = tuple(docs)
        for doc in docs:
            if doc.dim != dim:
                raise ValueError(f"doc '{doc.doc_id}' has dim {doc.dim}, index expects {dim}")
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum([doc.k for doc in docs], out=offsets[1:])
        chunks = np.concatenate([np.empty((0, dim))] + [doc.chunks for doc in docs])
        sizes = np.concatenate([np.empty(0, np.int64)] + [doc.chunk_sizes for doc in docs])
        self._set(dim, [doc.doc_id for doc in docs], offsets, chunks, sizes, build_meta)

    @classmethod
    def from_columns(cls, dim, ids, offsets, chunks, sizes, build_meta) -> "CorpusIndex":
        """Wrap the columns as they are, once they are an index: ``offsets``
        runs from 0 by K >= 1 per id, ``chunks`` is ``(offsets[-1], dim)``,
        ``sizes`` is ``(offsets[-1],)``, every size is >= 1 and every chunk
        finite and unit norm; ValueError otherwise."""
        if len(offsets) != len(ids) + 1 or offsets[0] != 0 or (np.diff(offsets) < 1).any():
            raise ValueError(f"offsets must run from 0 by K >= 1 for each of {len(ids)} ids")
        rows = int(offsets[-1])
        if chunks.shape != (rows, dim) or sizes.shape != (rows,):
            raise ValueError(
                f"chunks {chunks.shape} and sizes {sizes.shape} must be {(rows, dim)} and {(rows,)}"
            )
        _check_chunks(ids, offsets, chunks, sizes)
        index = cls.__new__(cls)
        index._set(dim, ids, offsets, chunks, sizes, build_meta)
        return index

    def _set(self, dim, ids, offsets, chunks, sizes, build_meta) -> None:
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        _encoded_ids(ids)
        for arr in (offsets, chunks, sizes):
            arr.setflags(write=False)
        values = (dim, tuple(ids), offsets, chunks, sizes, build_meta)
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def docs(self) -> tuple[CompressedDocument, ...]:
        """The documents as CompressedDocuments, built anew (float64) on each access."""
        bounds = self.offsets.tolist()
        return tuple(
            CompressedDocument(
                doc_id=doc_id,
                k=hi - lo,
                dim=self.dim,
                chunks=self.chunks[lo:hi],
                chunk_sizes=self.sizes[lo:hi],
            )
            for doc_id, lo, hi in zip(self.ids, bounds, bounds[1:])
        )


def write_index(index: CorpusIndex, path: str | Path) -> None:
    """Serialize an index through ``write_records``, one record per document."""
    bounds = index.offsets.tolist()
    rows = ((index.chunks[lo:hi], index.sizes[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    write_records(path, index.dim, index.ids, index.build_meta, rows)


def write_records(path: str | Path, dim: int, ids, build_meta: BuildMeta, rows) -> int:
    """Write ``(chunks, sizes)`` records, taken one at a time from ``rows``, under ``ids``.

    Every id is checked before the file is opened, and each record as
    ``read_index`` will check it, after rounding to the stored float32, just
    before its bytes are written: a file the reader would reject raises
    ValueError instead, as does a record count that disagrees with ``ids``.
    The bytes go to a sibling temporary file that replaces ``path`` only once
    complete, so a failed write leaves any previous index intact. Returns the
    chunk rows written.
    """
    ids = list(ids)
    encoded = _encoded_ids(ids)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    out = Path(path)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    total = 0
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC + struct.pack("<IIQ", FORMAT_VERSION, dim, len(ids)))
            records = iter(rows)
            for n, (doc_id, id_bytes) in enumerate(zip(ids, encoded)):
                record = next(records, None)
                if record is None:
                    raise ValueError(f"cannot write {out}: {len(ids)} ids but {n} records")
                chunks, sizes = record
                chunks, sizes = np.ascontiguousarray(chunks, "<f4"), np.asarray(sizes)
                k = len(sizes)
                if not k or chunks.shape != (k, dim):
                    raise ValueError(
                        f"doc '{doc_id}' has {k} sizes and chunks of shape {chunks.shape}, "
                        f"expected K >= 1 of each in dim {dim}"
                    )
                _check_chunks((doc_id,), (0, k), chunks, sizes)
                fh.write(struct.pack("<H", len(id_bytes)) + id_bytes + struct.pack("<I", k))
                fh.write(sizes.astype("<u4"))
                fh.write(chunks)
                total += k
            if next(records, None) is not None:
                raise ValueError(f"cannot write {out}: more records than the {len(ids)} ids")
            trailer = json.dumps(
                asdict(build_meta), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            fh.write(trailer + struct.pack("<Q", len(trailer)))
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return total


class _Reader:
    """Bounds-checked sequential reads from an open index file."""

    def __init__(self, fh):
        self.fh = fh

    def take(self, n: int, what: str) -> bytes:
        piece = self.fh.read(n)
        if len(piece) < n:
            raise IndexFormatError(f"truncated file: ran out of bytes reading {what}")
        return piece

    def fill(self, out: np.ndarray, what: str) -> None:
        if self.fh.readinto(out) < out.nbytes:
            raise IndexFormatError(f"truncated file: ran out of bytes reading {what}")

    def unpack(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def read_index(path: str | Path) -> CorpusIndex:
    """Parse an index file into columns holding the stored float32 chunks.

    Each record's sizes and vectors are read straight into preallocated
    column arrays. Raises IndexFormatError for anything malformed: wrong
    magic, unsupported version, truncation, trailing garbage, metadata that
    ``BuildMeta.from_dict`` refuses, duplicate doc ids or ids that break the id rule, or a
    document that violates the compressed-document invariants (K >= 1,
    every size >= 1, finite unit-norm chunks).
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        cur = _Reader(fh)
        magic = cur.take(4, "magic")
        if magic != MAGIC:
            raise IndexFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = cur.unpack("<I", "version")
        if version != FORMAT_VERSION:
            raise IndexFormatError(f"unsupported format version {version}")
        dim = cur.unpack("<I", "dim")
        if dim < 1:
            raise IndexFormatError(f"invalid dim {dim}")
        doc_count = cur.unpack("<Q", "doc count")
        # Each chunk row costs 4 * (dim + 1) bytes of the file, which bounds
        # the row count; pages of the unused tail are never touched.
        capacity = max(file_size - 20, 0) // (4 * (dim + 1))
        chunks = np.empty((capacity, dim), dtype="<f4")
        sizes = np.empty(capacity, dtype="<u4")
        ids: list[str] = []
        offsets = [0]
        for i in range(doc_count):
            id_len = cur.unpack("<H", f"doc {i} id length")
            try:
                doc_id = cur.take(id_len, f"doc {i} id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"doc {i} id is not valid UTF-8") from exc
            k = cur.unpack("<I", f"doc '{doc_id}' k")
            if k < 1:
                raise IndexFormatError(f"doc '{doc_id}' has invalid k = {k}")
            lo, hi = offsets[-1], offsets[-1] + k
            if hi > capacity:
                raise IndexFormatError(
                    f"truncated file: ran out of bytes reading doc '{doc_id}' chunk vectors"
                )
            cur.fill(sizes[lo:hi], f"doc '{doc_id}' chunk sizes")
            cur.fill(chunks[lo:hi], f"doc '{doc_id}' chunk vectors")
            ids.append(doc_id)
            offsets.append(hi)
        tail = fh.read()
    if len(tail) < 8:
        raise IndexFormatError("truncated file: missing trailer length")
    trailer_len = struct.unpack("<Q", tail[-8:])[0]
    if trailer_len != len(tail) - 8:
        raise IndexFormatError(
            f"trailer length {trailer_len} disagrees with the {len(tail) - 8} bytes present"
        )
    try:
        meta = BuildMeta.from_dict(json.loads(tail[:-8].decode("utf-8")))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or an over-long integer
        raise IndexFormatError(f"unreadable build metadata: {exc}") from exc
    rows = offsets[-1]
    offsets = np.array(offsets, dtype=np.int64)
    chunks, sizes = chunks[:rows], sizes[:rows].astype(np.int64)
    try:
        return CorpusIndex.from_columns(dim, ids, offsets, chunks, sizes, meta)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from exc


def _check_chunks(ids, offsets, chunks, sizes) -> None:
    """Every size >= 1 and every stored float32 chunk finite and unit norm, its
    norm taken in float64, ``_CHECK_ROWS`` rows at a time; ValueError otherwise."""
    bad = np.flatnonzero(sizes < 1)
    if bad.size:
        doc = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(
            f"doc '{ids[doc]}' violates invariants: every chunk must cover at least one patch"
        )
    for start in range(0, len(chunks), _CHECK_ROWS):
        found = first_non_unit_row(chunks[start : start + _CHECK_ROWS].astype(np.float64))
        if found is not None:
            row = start + found[0]
            doc = int(np.searchsorted(offsets, row, side="right")) - 1
            raise ValueError(
                f"doc '{ids[doc]}' violates invariants: chunk {row - offsets[doc]} "
                f"is not unit norm (|norm - 1| = {found[1]:.3g})"
            )


@dataclass(frozen=True)
class DumpEntry:
    """One raw vector file: a page with its grid, or a query (``grid`` None)."""

    id: str
    n_vectors: int
    path: str
    grid: PatchGrid | None = None


@dataclass(frozen=True)
class EmbeddingDumpManifest:
    """Parsed dump manifest. ``root`` anchors the entries' relative paths."""

    dim: int
    entries: tuple[DumpEntry, ...]
    location: str = ""
    root: Path = field(default_factory=Path)


def _string(value, where: str, field: str, error: type[Exception] = ManifestError) -> str:
    if not isinstance(value, str):
        raise error(f"{where}: {field} must be a JSON string, got {value!r:.40}")
    return value


def _check_id(item_id, where: str, field: str, error: type[Exception] = ManifestError) -> str:
    """The id rule, for doc and query ids alike: a string, non-empty and with
    no whitespace, which would split the id across fields of a run or qrels
    line (``str.split`` splits on ``str.isspace``)."""
    if _string(item_id, where, field, error).split() != [item_id]:
        raise error(f"{where}: {field} {item_id!r:.40} is empty or holds whitespace")
    return item_id


def _check_unique(ids, field: str, where: str, error: type[Exception] = ManifestError) -> None:
    """The uniqueness rule: no id repeats; the error names the first repeat."""
    seen: set[str] = set()
    for item_id in ids:
        if item_id in seen:
            raise error(f"duplicate {field} '{item_id}' in {where}")
        seen.add(item_id)


def _encoded_ids(ids) -> list[bytes]:
    """Each index id's UTF-8 bytes, in order, once every id obeys the id rule,
    is unique and fits the record's u16 length; ValueError otherwise."""
    encoded = []
    for doc_id in ids:
        id_bytes = _check_id(doc_id, "index", "doc_id", ValueError).encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise ValueError(
                f"doc_id {doc_id!r:.40} of {len(id_bytes)} bytes exceeds the u16 length field"
            )
        encoded.append(id_bytes)
    _check_unique(ids, "doc_id", "the index", ValueError)
    return encoded


def _check_file_name(item_id, where: str, field: str) -> None:
    """A writer's id: the id rule, then a safe name for the raw file named after it."""
    _check_id(item_id, where, field, ValueError)
    if item_id in (".", "..") or any(c in item_id for c in "/\\\0"):
        raise ValueError(f"{where}: {field} {item_id!r} is not a safe file name")


def _count(value, where: str, field: str, error: type[Exception] = ManifestError) -> int:
    """A count: a JSON integer of at least 1, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise error(
            f"{where}: {field} must be a JSON integer of at least 1, got {value!r:.40}"
        )
    return value


def _load(path: str | Path, id_key: str) -> EmbeddingDumpManifest:
    """Parse a page dump (``id_key`` "doc_id", grids required) or a query dump."""
    kind = id_key.removesuffix("_id")
    p = Path(path)
    try:
        data = json.loads(p.read_text("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifestError(f"cannot parse {kind} manifest {p}: {exc}") from exc
    try:
        dim, raw_entries = data["dim"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"{kind} manifest {p} is missing dim or entries") from exc
    dim = _count(dim, f"{kind} manifest {p}", "dim")
    if not isinstance(raw_entries, list):
        raise ManifestError(f"{kind} manifest {p}: entries must be a list")
    entries = []
    for i, e in enumerate(raw_entries):
        try:
            item_id, n_vectors, rel = e[id_key], e["n_vectors"], e["path"]
            rows_cols = (e["rows"], e["cols"]) if id_key == "doc_id" else None
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"{kind} manifest entry {i} is malformed: {exc}") from exc
        where = f"{kind} manifest entry {i}"
        item_id = _check_id(item_id, where, id_key)
        rel = _string(rel, where, "path")
        n_vectors = _count(n_vectors, where, "n_vectors")
        if rows_cols:
            rows_cols = (_count(rows_cols[0], where, "rows"), _count(rows_cols[1], where, "cols"))
        grid = PatchGrid(*rows_cols) if rows_cols else None
        if grid and n_vectors != grid.n_patches:
            raise ManifestError(
                f"{kind} '{item_id}': n_vectors {n_vectors} != {grid.rows}x{grid.cols} grid"
            )
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise ManifestError(f"{kind} '{item_id}': path {rel} leaves the manifest directory")
        entries.append(DumpEntry(id=item_id, n_vectors=n_vectors, path=rel, grid=grid))
    _check_unique([entry.id for entry in entries], id_key, f"{kind} manifest {p}")
    root = p.parent
    for entry in entries:
        try:
            found = (root / entry.path).is_file()
        except OSError:  # a path the file system refuses, such as a name too long
            found = False
        if not found:
            raise ManifestError(f"{kind} '{entry.id}': raw file {entry.path} not found")
    location = _string(data.get("location", ""), f"{kind} manifest {p}", "location")
    return EmbeddingDumpManifest(dim=dim, entries=tuple(entries), location=location, root=root)


def load_manifest(path: str | Path) -> EmbeddingDumpManifest:
    """Read and sanity-check a page dump manifest.

    Duplicate doc_ids, inconsistent vector counts, unsafe paths and missing
    raw files are all rejected here, before any vector data is read.
    """
    return _load(path, "doc_id")


def _ingest(manifest: EmbeddingDumpManifest, make):
    """Yield ``make(entry, vectors)`` for each entry's raw file, in order.

    A raw file of the wrong size, or vectors that ``make`` rejects with
    ValueError (a non-finite or zero-norm vector), raise ManifestError.
    """
    for entry in manifest.entries:
        path = manifest.root / entry.path
        expected = entry.n_vectors * manifest.dim * 4
        actual = path.stat().st_size
        if actual != expected:
            kind = "doc" if entry.grid else "query"
            raise ManifestError(
                f"{kind} '{entry.id}': raw file {path.name} holds {actual} bytes, "
                f"expected {expected} ({entry.n_vectors} x {manifest.dim} float32)"
            )
        flat = np.fromfile(path, dtype="<f4")
        try:
            item = make(entry, flat.reshape(entry.n_vectors, manifest.dim))
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        yield item


def ingest_dump(manifest_path: str | Path | EmbeddingDumpManifest):
    """Yield PatchEmbeddingSets for each manifest entry, in order.

    Takes a manifest path, or a manifest already parsed by ``load_manifest``.
    A page that its type rejects (a non-finite or zero-norm vector) raises
    ManifestError.
    """
    manifest = manifest_path
    if not isinstance(manifest, EmbeddingDumpManifest):
        manifest = load_manifest(manifest)
    yield from _ingest(
        manifest, lambda e, vectors: PatchEmbeddingSet(e.id, manifest.dim, e.grid, vectors)
    )


def ingest_queries(manifest_path: str | Path):
    """Yield QueryEmbeddingSets for each query manifest entry, in order."""
    manifest = _load(manifest_path, "query_id")
    yield from _ingest(manifest, lambda e, vectors: QueryEmbeddingSet(e.id, manifest.dim, vectors))


def _write_dump(
    items, out_dir: str | Path, subdir: str, id_key: str, manifest_name: str, header: dict
) -> Path:
    """Write ``(id, dim, vectors, extra entry fields)`` items and their manifest.

    ``header`` holds the manifest's top-level fields besides ``dim`` and
    ``entries``. Every id is checked (the id rule, a safe file name, not
    repeated) before the first byte is written.
    """
    kind = id_key.removesuffix("_id")
    if not items:
        raise ValueError(f"refusing to write an empty {kind} dump")
    dim = items[0][1]
    for i, (item_id, item_dim, _, _) in enumerate(items):
        _check_file_name(item_id, f"{kind} dump entry {i}", id_key)
        if item_dim != dim:
            raise ValueError(f"{kind} '{item_id}' has dim {item_dim}, dump expects {dim}")
    _check_unique([item[0] for item in items], id_key, f"the {kind} dump", ValueError)
    out = Path(out_dir)
    (out / subdir).mkdir(parents=True, exist_ok=True)
    entries = []
    for item_id, _, vectors, extra in items:
        rel = f"{subdir}/{item_id}.f32"
        vectors.astype("<f4").tofile(out / rel)
        entries.append({id_key: item_id, "n_vectors": vectors.shape[0], "path": rel, **extra})
    manifest_path = out / manifest_name
    body = json.dumps({"dim": dim, **header, "entries": entries}, indent=2, sort_keys=True)
    manifest_path.write_text(body + "\n", "utf-8")
    return manifest_path


def write_embedding_dump(psets, out_dir: str | Path, location: str = "") -> Path:
    """Write sets as raw float32 files plus a manifest; returns the manifest path."""
    items = [
        (p.doc_id, p.dim, p.vectors, {"rows": p.grid.rows, "cols": p.grid.cols}) for p in psets
    ]
    header = {"location": location}
    return _write_dump(items, out_dir, "vectors", "doc_id", "manifest.json", header)


def write_query_dump(queries, out_dir: str | Path) -> Path:
    """Write query token sets as raw float32 files plus ``queries.json``."""
    items = [(q.query_id, q.dim, q.vectors, {}) for q in queries]
    return _write_dump(items, out_dir, "queries", "query_id", "queries.json", {})
