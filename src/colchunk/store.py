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
    trailer        JSON, UTF-8, sorted keys
    trailer_len    u64

Vectors are float32 on disk. An index read from disk holds the stored
float32 values in one ``(sum K, dim)`` matrix; scoring arithmetic is float64.
Writing what was read reproduces the file byte for byte.

Embedding dumps are the ingestion side: a JSON manifest describing per-page
raw vector files (flat float32 little-endian, row-major). Query dumps use
the same shape minus the grid fields. Ids, paths and ``location`` are JSON
strings, and an id is non-empty and holds no whitespace, since run and qrels
lines are whitespace-separated fields; the loader, the writers and
``CorpusIndex`` (so ``read_index`` too) share that rule. The writers name
each raw file after its doc or query id, so they also reject ids that are
not safe file names: ``.``, ``..`` and any id containing ``/``, ``\\`` or
NUL. The loader rejects entry paths that are absolute or have a ``..``
component, and raises ManifestError for any malformed manifest, such as one
that is not UTF-8, ``entries`` that is not a list or a count that JSON reads
as infinity (``1e400``). Vectors that their type rejects (non-finite or
zero-norm) raise ManifestError on ingest too.

The in-memory index is always a ``CorpusIndex``, the form ``retrieve`` takes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

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
    """Provenance of an index, persisted verbatim in the JSON trailer."""

    omega: float
    k_target: int
    method: str
    posenc_base: float
    tool_version: str
    embedding_location: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BuildMeta":
        try:
            return cls(
                omega=float(d["omega"]),
                k_target=int(d["k_target"]),
                method=str(d["method"]),
                posenc_base=float(d["posenc_base"]),
                tool_version=str(d["tool_version"]),
                embedding_location=str(d.get("embedding_location", "")),
            )
        except KeyError as exc:
            raise IndexFormatError(f"build metadata is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise IndexFormatError(f"malformed build metadata: {exc}") from exc


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
        if docs:
            chunks = np.concatenate([doc.chunks for doc in docs])
            sizes = np.concatenate([doc.chunk_sizes for doc in docs])
        else:
            chunks, sizes = np.empty((0, dim)), np.empty(0, dtype=np.int64)
        self._set(dim, [doc.doc_id for doc in docs], offsets, chunks, sizes, build_meta)

    @classmethod
    def from_columns(cls, dim, ids, offsets, chunks, sizes, build_meta) -> "CorpusIndex":
        """Wrap columns as they are; the caller has checked the chunk invariants."""
        index = cls.__new__(cls)
        index._set(dim, ids, offsets, chunks, sizes, build_meta)
        return index

    def _set(self, dim, ids, offsets, chunks, sizes, build_meta) -> None:
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        seen: set[str] = set()
        for doc_id in ids:
            if not (isinstance(doc_id, str) and _is_one_field(doc_id)):
                raise ValueError(
                    f"doc_id {doc_id!r:.40} is not a non-empty string free of whitespace"
                )
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id '{doc_id}'")
            seen.add(doc_id)
        for arr in (offsets, chunks, sizes):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "build_meta", build_meta)

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
    """Serialize an index; see the module docstring for the exact layout.

    Before any byte is written, the chunks are checked as ``read_index``
    checks them, rounded to float32, so a file the reader would reject
    raises ValueError instead. The bytes go to a sibling temporary file that
    replaces ``path`` only once complete, so a failed write leaves any
    previous index intact.
    """
    _check_chunks(index.ids, index.offsets, index.chunks, index.sizes)
    out = Path(path)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        _write_records(index, tmp)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_records(index: CorpusIndex, path: Path) -> None:
    bounds = index.offsets.tolist()
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", index.dim))
        fh.write(struct.pack("<Q", len(index)))
        for doc_id, lo, hi in zip(index.ids, bounds, bounds[1:]):
            id_bytes = doc_id.encode("utf-8")
            if len(id_bytes) > 0xFFFF:
                raise ValueError(f"doc_id of {len(id_bytes)} bytes exceeds the u16 length field")
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<I", hi - lo))
            fh.write(index.sizes[lo:hi].astype("<u4").tobytes())
            fh.write(index.chunks[lo:hi].astype("<f4").tobytes())
        trailer = json.dumps(
            index.build_meta.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        fh.write(trailer)
        fh.write(struct.pack("<Q", len(trailer)))


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

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def read_index(path: str | Path) -> CorpusIndex:
    """Parse an index file into columns holding the stored float32 chunks.

    Each record's sizes and vectors are read straight into preallocated
    column arrays. Raises IndexFormatError for anything malformed: wrong
    magic, unsupported version, truncation, trailing garbage, undecodable
    metadata, duplicate doc ids or ids that break the id rule, or a
    document that violates the compressed-document invariants (K >= 1,
    every size >= 1, finite unit-norm chunks).
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        cur = _Reader(fh)
        magic = cur.take(4, "magic")
        if magic != MAGIC:
            raise IndexFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = cur.u32("version")
        if version != FORMAT_VERSION:
            raise IndexFormatError(f"unsupported format version {version}")
        dim = cur.u32("dim")
        if dim < 1:
            raise IndexFormatError(f"invalid dim {dim}")
        doc_count = cur.u64("doc count")
        # Each chunk row costs 4 * (dim + 1) bytes of the file, which bounds
        # the row count; pages of the unused tail are never touched.
        capacity = max(file_size - 20, 0) // (4 * (dim + 1))
        chunks = np.empty((capacity, dim), dtype="<f4")
        sizes = np.empty(capacity, dtype="<u4")
        ids: list[str] = []
        offsets = [0]
        for i in range(doc_count):
            id_len = cur.u16(f"doc {i} id length")
            try:
                doc_id = cur.take(id_len, f"doc {i} id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"doc {i} id is not valid UTF-8") from exc
            k = cur.u32(f"doc '{doc_id}' k")
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
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"unreadable build metadata: {exc}") from exc
    rows = offsets[-1]
    offsets = np.array(offsets, dtype=np.int64)
    chunks, sizes = chunks[:rows], sizes[:rows].astype(np.int64)
    try:
        _check_chunks(ids, offsets, chunks, sizes)
        return CorpusIndex.from_columns(dim, ids, offsets, chunks, sizes, meta)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from exc


def _check_chunks(ids, offsets, chunks, sizes) -> None:
    """Every size >= 1 and every chunk finite and unit norm; ValueError otherwise.

    Chunks are rounded to float32, as stored, and their norms taken in
    float64, ``_CHECK_ROWS`` rows at a time. The rounding is a no-op on the
    reader's float32 matrix.
    """
    bad = np.flatnonzero(sizes < 1)
    if bad.size:
        doc = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(
            f"doc '{ids[doc]}' violates invariants: every chunk must cover at least one patch"
        )
    for start in range(0, len(chunks), _CHECK_ROWS):
        block = chunks[start : start + _CHECK_ROWS].astype(np.float32, copy=False)
        found = first_non_unit_row(block.astype(np.float64))
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


def _is_one_field(text: str) -> bool:
    """The id rule: non-empty with no whitespace, which would split the id
    across fields of a run or qrels line (``str.split`` splits on
    ``str.isspace``)."""
    return text.split() == [text]


def _check_id(item_id, where: str, field: str, error: type[Exception] = ManifestError) -> str:
    """A dump id of either kind: a string that obeys the id rule."""
    if not _is_one_field(_string(item_id, where, field, error)):
        raise error(f"{where}: {field} {item_id!r:.40} is empty or holds whitespace")
    return item_id


def _check_file_name(item_id, where: str, field: str) -> None:
    """A writer's id: the id rule, and a safe name for the raw file named after it."""
    if isinstance(item_id, str) and (
        item_id in ("", ".", "..") or any(c in item_id for c in "/\\\0")
    ):
        raise ValueError(f"{where}: {field} {item_id!r} is not a safe file name")
    _check_id(item_id, where, field, ValueError)


def _count(value, where: str, field: str) -> int:
    """A manifest count: a JSON integer of at least 1, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ManifestError(
            f"{where}: {field} must be a JSON integer of at least 1, got {value!r:.40}"
        )
    return value


def _load(path: str | Path, id_key: str) -> EmbeddingDumpManifest:
    """Parse a page dump (``id_key`` "doc_id", grids required) or a query dump."""
    kind = id_key.removesuffix("_id")
    p = Path(path)
    try:
        data = json.loads(p.read_text("utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot parse {kind} manifest {p}: {exc}") from exc
    try:
        dim, raw_entries = data["dim"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"{kind} manifest {p} is missing dim or entries") from exc
    dim = _count(dim, f"{kind} manifest {p}", "dim")
    if not isinstance(raw_entries, list):
        raise ManifestError(f"{kind} manifest {p}: entries must be a list")
    entries = []
    seen: set[str] = set()
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
        if item_id in seen:
            raise ManifestError(f"duplicate {id_key} '{item_id}' in manifest")
        seen.add(item_id)
        grid = PatchGrid(*rows_cols) if rows_cols else None
        if grid and n_vectors != grid.n_patches:
            raise ManifestError(
                f"{kind} '{item_id}': n_vectors {n_vectors} != {grid.rows}x{grid.cols} grid"
            )
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise ManifestError(f"{kind} '{item_id}': path {rel} leaves the manifest directory")
        entries.append(DumpEntry(id=item_id, n_vectors=n_vectors, path=rel, grid=grid))
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


def _read_raw_vectors(manifest: EmbeddingDumpManifest, entry: DumpEntry) -> np.ndarray:
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
    return flat.astype(np.float64).reshape(entry.n_vectors, manifest.dim)


def ingest_dump(manifest_path: str | Path | EmbeddingDumpManifest):
    """Yield PatchEmbeddingSets for each manifest entry, in order.

    Takes a manifest path, or a manifest already parsed by ``load_manifest``.
    A page that its type rejects (a non-finite or zero-norm vector) raises
    ManifestError.
    """
    manifest = (
        manifest_path
        if isinstance(manifest_path, EmbeddingDumpManifest)
        else load_manifest(manifest_path)
    )
    for entry in manifest.entries:
        vectors = _read_raw_vectors(manifest, entry)
        try:
            pset = PatchEmbeddingSet(
                doc_id=entry.id, dim=manifest.dim, grid=entry.grid, vectors=vectors
            )
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        yield pset


def ingest_queries(manifest_path: str | Path):
    """Yield QueryEmbeddingSets for each query manifest entry, in order."""
    manifest = _load(manifest_path, "query_id")
    for entry in manifest.entries:
        vectors = _read_raw_vectors(manifest, entry)
        try:
            query = QueryEmbeddingSet(query_id=entry.id, dim=manifest.dim, vectors=vectors)
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        yield query


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
    seen: set[str] = set()
    for i, (item_id, item_dim, _, _) in enumerate(items):
        _check_file_name(item_id, f"{kind} dump entry {i}", id_key)
        if item_id in seen:
            raise ValueError(f"duplicate {id_key} '{item_id}' in the {kind} dump")
        seen.add(item_id)
        if item_dim != dim:
            raise ValueError(f"{kind} '{item_id}' has dim {item_dim}, dump expects {dim}")
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
