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

The fixed-width fields are stated once, in the struct table below ``MAGIC``:
``write_records`` packs them, ``read_index`` unpacks them, and a value that
does not fit its field (a dim past u32) raises ValueError before the file is
opened. Vectors are float32 on disk. ``read_index`` holds the stored float32
values in one ``(sum K, dim)`` matrix; scoring arithmetic is float64. It reads
the file through one 1 MiB buffer in one walk over the records. Every record
obeys ``types.check_compressed``. Writing what was read reproduces the file
byte for byte, since the reader takes the trailer's values unconverted. They
must be a build ``ChunkerConfig`` accepts, so ``store`` imports ``chunker``
(never the reverse). ``write_records`` is the one index writer: it streams
records, so ``compress`` holds one page at a time, and the ablation writes
each configuration's file through it too. ``write_index`` feeds it an
in-memory ``CorpusIndex``, for library callers that built one. Every file
the package writes goes through ``replacing``, after ``check_output``.

Embedding dumps are the ingestion side: a JSON manifest describing per-page
raw vector files (flat float32 little-endian, row-major). Query dumps use
the same shape minus the grid fields. Ids, paths and ``location`` are JSON
strings; ``dim``, ``n_vectors``, ``rows`` and ``cols`` are counts by
``types.check_count``, so a float (``4.0``, or ``1e400``, which JSON reads as
infinity), a string or a bool is refused, never converted. The loader, the
writers and ``CorpusIndex`` (so ``read_index`` too) check ids by one rule,
``types.check_id``: non-empty with no whitespace, since run and qrels lines
are whitespace-separated fields, and text UTF-8 can encode, as every file
stores it; ``_check_unique`` refuses repeats. The writers name each raw file
after its id, so after the id rule they reject ids that are not safe file
names: ``.``, ``..`` and any id holding ``/``, ``\\`` or
NUL. The loader rejects entry paths that are absolute or have a ``..``
component; it raises ManifestError for any malformed manifest, such as one
that is not UTF-8 or ``entries`` that is not a list. Vectors that their
type rejects (non-finite or zero-norm) raise ManifestError on ingest too,
and the writers refuse them, over the float32 values a file stores, before
the first byte. ``EmbeddingDumpManifest.files()`` names each raw file.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import struct
from contextlib import contextmanager, suppress
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
    check_compressed,
    check_count,
    check_id,
    check_real,
    check_string,
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
    "check_output",
    "replacing",
    "write_index",
    "write_records",
    "read_index",
    "load_manifest",
    "load_query_manifest",
    "ingest_dump",
    "write_embedding_dump",
    "ingest_queries",
    "write_query_dump",
]

MAGIC = b"CCHK"
FORMAT_VERSION = 1
# The fixed-width fields of the layout above, one struct each for writer and reader:
# the header (magic, version, dim, doc_count), id_len, k and trailer_len.
_HEADER, _ID_LEN, _K, _TRAILER_LEN = map(struct.Struct, ("<4sIIQ", "<H", "<I", "<Q"))


class IndexFormatError(Exception):
    """An index file is malformed: wrong magic, version, truncation, bad record."""


class ManifestError(Exception):
    """An embedding dump (manifest or raw file) is unusable."""


@dataclass(frozen=True)
class BuildMeta:
    """Provenance of an index, persisted verbatim in the JSON trailer.

    Construction raises ValueError unless ``omega`` and ``posenc_base`` are
    numbers and ``k_target`` a count, each stored as its rule returns it, and
    the rest JSON strings, and unless ``ChunkerConfig(k_target, omega, method)``
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
            object.__setattr__(self, name, check_real(getattr(self, name), f"{where}: {name}"))
        object.__setattr__(self, "k_target", check_count(self.k_target, f"{where}: k_target"))
        for name in ("method", "tool_version", "embedding_location"):
            check_string(getattr(self, name), f"{where}: {name}")
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
    ``offsets[i]:offsets[i + 1]`` of ``chunks``, one ``(sum K, dim)`` matrix,
    and of ``sizes``, by ``check_compressed``'s rule. An index built from
    CompressedDocuments stacks their chunks in float32, as ``read_index``
    holds them, if every document's are float32, and in float64 otherwise.
    """

    dim: int
    ids: tuple[str, ...]
    offsets: np.ndarray
    chunks: np.ndarray
    sizes: np.ndarray
    build_meta: BuildMeta

    def __init__(self, dim: int, docs, build_meta: BuildMeta):
        dim = check_count(dim, "dim")
        docs = tuple(docs)
        for doc in docs:
            if doc.dim != dim:
                raise ValueError(f"doc '{doc.doc_id}' has dim {doc.dim}, index expects {dim}")
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum([doc.k for doc in docs], out=offsets[1:])
        chunks = np.concatenate([np.empty((0, dim), np.float32)] + [doc.chunks for doc in docs])
        sizes = np.concatenate([np.empty(0, np.int64)] + [doc.chunk_sizes for doc in docs])
        self._set(dim, [doc.doc_id for doc in docs], offsets, chunks, sizes, build_meta)

    @classmethod
    def from_columns(cls, dim, ids, offsets, chunks, sizes, build_meta) -> "CorpusIndex":
        """Wrap the columns as they are, once ``check_compressed`` accepts them
        (ValueError otherwise)."""
        check_compressed(ids, dim, offsets, chunks, sizes)
        index = cls.__new__(cls)
        index._set(dim, ids, offsets, chunks, sizes, build_meta)
        return index

    def _set(self, dim, ids, offsets, chunks, sizes, build_meta) -> None:
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
        """The documents as CompressedDocuments, built anew on each access in ``chunks``' dtype."""
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


# Numbers one process's temporary files, so no two helpers open at once share one.
_TEMP_SERIAL = itertools.count()


def check_output(path: str | Path, name: str, inputs=()) -> str:
    """Return ``os.path.realpath(path)``, the file ``replacing`` writes, if it may be written.

    ValueError, naming ``name`` and ``path``, if that file is a directory, is one of
    ``inputs`` resolved the same way, or lies in a directory that does not exist: the
    one a symlink points into, or the one any other path spells, so ``nodir/`` too.
    """
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise ValueError(f"{name} {path} is a directory")
    parent = os.path.dirname(target if os.path.islink(path) else path)
    if not os.path.isdir(parent or "."):
        raise ValueError(f"{name} {path}: directory {parent} does not exist")
    if target in {os.path.realpath(source) for source in inputs}:
        raise ValueError(f"{name} {path} names an input, which it would overwrite")
    return target


@contextmanager
def replacing(path: str | Path, binary: bool = False):
    """Yield a UTF-8 text or binary handle whose bytes replace ``path`` once the body completes.

    Once ``check_output`` passes it, the bytes go to ``.colchunk.{pid}.{serial}.tmp``
    beside ``os.path.realpath(path)``, so a symlink stays a link whose target gets them,
    and any name that fits there fits. That file is created exclusively, skipping a
    serial whose name is taken, and given an existing target's permission bits before
    its first byte. On success ``os.replace`` moves it into place; any exception,
    interrupts included, removes it and propagates.
    """
    target = check_output(path, "output")
    for serial in _TEMP_SERIAL:
        tmp = Path(os.path.dirname(target), f".colchunk.{os.getpid()}.{serial}.tmp")
        with suppress(FileExistsError):  # never written through a link planted at the name
            fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
            break
    try:
        with fh:
            with suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_index(index: CorpusIndex, path: str | Path) -> None:
    """Serialize an index through ``write_records``, one record per document."""
    bounds = index.offsets.tolist()
    rows = ((index.chunks[lo:hi], index.sizes[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    write_records(path, index.dim, index.ids, index.build_meta, rows)


def write_records(path: str | Path, dim: int, ids, build_meta: BuildMeta, rows) -> int:
    """Write ``(chunks, sizes)`` records, taken one at a time from ``rows``, under ``ids``.

    Every id is checked before the file is opened, and each record, of K
    chunk rows, by ``check_compressed`` after rounding to the stored float32,
    just before its bytes: a file the reader would reject raises ValueError
    instead, as does a record count that disagrees with ``ids``. The bytes go
    through ``replacing``. Returns the chunk rows written.
    """
    ids = list(ids)
    encoded = _encoded_ids(ids)
    dim = check_count(dim, "dim")
    try:
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, dim, len(ids))
    except struct.error:  # the one header field a count can overflow
        raise ValueError(f"dim {dim!r:.40} exceeds the u32 dim field") from None
    total = 0
    with replacing(path, binary=True) as fh:
        fh.write(header)
        records = iter(rows)
        for n, (doc_id, id_bytes) in enumerate(zip(ids, encoded)):
            record = next(records, None)
            if record is None:
                raise ValueError(f"cannot write {path}: {len(ids)} ids but {n} records")
            chunks, sizes = record
            chunks, sizes = np.ascontiguousarray(chunks, "<f4"), np.asarray(sizes)
            k = len(chunks)
            check_compressed((doc_id,), dim, (0, k), chunks, sizes)
            fh.write(_ID_LEN.pack(len(id_bytes)) + id_bytes + _K.pack(k))
            fh.write(sizes.astype("<u4"))
            fh.write(chunks)
            total += k
        if next(records, None) is not None:
            raise ValueError(f"cannot write {path}: more records than the {len(ids)} ids")
        trailer = json.dumps(
            asdict(build_meta), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        fh.write(trailer + _TRAILER_LEN.pack(len(trailer)))
    return total


# Bytes of the file ``read_index`` buffers at a time: its five reads per record
# are served from memory, with one system call per MiB.
_BUFFER_BYTES = 1 << 20


class _Reader:
    """Bounds-checked sequential reads from an open index file. Each read names
    its field by a ``str.format`` template and one argument, formatted only
    when the file runs out, so a record read builds no message."""

    def __init__(self, fh):
        self.fh = fh

    def take(self, n: int, what: str, arg=None) -> bytes:
        piece = self.fh.read(n)
        if len(piece) < n:
            raise _truncated(what, arg)
        return piece

    def fill(self, out: np.ndarray, what: str, arg=None) -> None:
        if self.fh.readinto(out) < out.nbytes:
            raise _truncated(what, arg)

    def unpack(self, fields: struct.Struct, what: str, arg=None) -> tuple:
        return fields.unpack(self.take(fields.size, what, arg))


def _truncated(what: str, arg) -> IndexFormatError:
    return IndexFormatError(f"truncated file: ran out of bytes reading {what.format(arg)}")


def read_index(path: str | Path) -> CorpusIndex:
    """Parse an index file into columns holding the stored float32 chunks.

    The file is read through one buffer of ``_BUFFER_BYTES`` in one walk over
    the records, each record's sizes and vectors copied from it straight into
    preallocated column arrays. The reader checks only what bounds its reads:
    magic, version, dim, truncation and row capacity, each truncation naming
    its field. The trailer goes through ``BuildMeta.from_dict`` and the
    columns through ``from_columns`` (the id rule and ``check_compressed``,
    K = 0 included). Every flaw raises IndexFormatError, with the rule's own
    message where a rule refused."""
    with open(path, "rb", buffering=_BUFFER_BYTES) as fh:
        file_size = os.fstat(fh.fileno()).st_size
        cur = _Reader(fh)
        magic, version, dim, doc_count = cur.unpack(_HEADER, "header")
        if magic != MAGIC:
            raise IndexFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise IndexFormatError(f"unsupported format version {version}")
        if dim < 1:
            raise IndexFormatError(f"invalid dim {dim}")
        # Each chunk row costs 4 * (dim + 1) bytes of the file, which bounds
        # the row count; pages of the unused tail are never touched.
        capacity = (file_size - _HEADER.size) // (4 * (dim + 1))
        chunks = np.empty((capacity, dim), dtype="<f4")
        sizes = np.empty(capacity, dtype="<u4")
        ids: list[str] = []
        offsets = [0]
        for i in range(doc_count):
            (id_len,) = cur.unpack(_ID_LEN, "doc {} id length", i)
            try:
                doc_id = cur.take(id_len, "doc {} id", i).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"doc {i} id is not valid UTF-8") from exc
            (k,) = cur.unpack(_K, "doc '{}' k", doc_id)
            lo, hi = offsets[-1], offsets[-1] + k
            if hi > capacity:
                raise _truncated("doc '{}' chunk vectors", doc_id)
            cur.fill(sizes[lo:hi], "doc '{}' chunk sizes", doc_id)
            cur.fill(chunks[lo:hi], "doc '{}' chunk vectors", doc_id)
            ids.append(doc_id)
            offsets.append(hi)
        tail = fh.read()
    trailer, length = tail[: -_TRAILER_LEN.size], tail[-_TRAILER_LEN.size :]
    if len(length) < _TRAILER_LEN.size:
        raise IndexFormatError("truncated file: missing trailer length")
    (trailer_len,) = _TRAILER_LEN.unpack(length)
    if trailer_len != len(trailer):
        raise IndexFormatError(
            f"trailer length {trailer_len} disagrees with the {len(trailer)} bytes present"
        )
    try:
        meta = BuildMeta.from_dict(json.loads(trailer.decode("utf-8")))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or an over-long integer
        raise IndexFormatError(f"unreadable build metadata: {exc}") from exc
    rows = offsets[-1]
    offsets = np.array(offsets, dtype=np.int64)
    chunks, sizes = chunks[:rows], sizes[:rows].astype(np.int64)
    try:
        return CorpusIndex.from_columns(dim, ids, offsets, chunks, sizes, meta)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from exc


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

    def files(self) -> list[Path]:
        """Each entry's raw vector file, in entry order."""
        return [self.root / entry.path for entry in self.entries]


def _check_unique(ids, field: str, where: str) -> None:
    """The uniqueness rule: no id repeats; the error names the first repeat."""
    seen: set[str] = set()
    for item_id in ids:
        if item_id in seen:
            raise ValueError(f"duplicate {field} {item_id!r:.40} in {where}")
        seen.add(item_id)


def _encoded_ids(ids) -> list[bytes]:
    """Each index id's UTF-8 bytes, in order, once every id obeys the id rule,
    is unique and fits the record's u16 length; ValueError otherwise."""
    encoded = []
    for doc_id in ids:
        id_bytes = check_id(doc_id, "index: doc_id").encode("utf-8")
        if len(id_bytes) >= 1 << 8 * _ID_LEN.size:
            raise ValueError(
                f"doc_id {doc_id!r:.40} of {len(id_bytes)} bytes exceeds the u16 length field"
            )
        encoded.append(id_bytes)
    _check_unique(ids, "doc_id", "the index")
    return encoded


def _check_file_name(item_id, name: str) -> None:
    """A writer's id: the id rule, then a safe name for the raw file named after it."""
    if check_id(item_id, name) in (".", "..") or any(c in item_id for c in "/\\\0"):
        raise ValueError(f"{name} {item_id!r} is not a safe file name")


def _load(path: str | Path, id_key: str) -> EmbeddingDumpManifest:
    """Parse a page dump (``id_key`` "doc_id", grids required) or a query dump;
    every flaw raises ManifestError, with the refusing rule's own message."""
    kind = id_key.removesuffix("_id")
    p = Path(path)
    try:
        data = json.loads(p.read_text("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifestError(f"cannot parse {kind} manifest {p}: {exc}") from exc
    try:
        if not (isinstance(data, dict) and {"dim", "entries"} <= data.keys()):
            raise ValueError(f"{kind} manifest {p} is missing dim or entries")
        dim = check_count(data["dim"], f"{kind} manifest {p}: dim")
        if not isinstance(data["entries"], list):
            raise ValueError(f"{kind} manifest {p}: entries must be a list")
        entries = []
        for i, e in enumerate(data["entries"]):
            try:
                item_id, n_vectors, rel = e[id_key], e["n_vectors"], e["path"]
                rows_cols = (e["rows"], e["cols"]) if id_key == "doc_id" else None
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{kind} manifest entry {i} is malformed: {exc}") from exc
            where = f"{kind} manifest entry {i}"
            item_id = check_id(item_id, f"{where}: {id_key}")
            rel = check_string(rel, f"{where}: path")
            n_vectors = check_count(n_vectors, f"{where}: n_vectors")
            if rows_cols:
                rows_cols = (check_count(rows_cols[0], f"{where}: rows"),
                             check_count(rows_cols[1], f"{where}: cols"))
            grid = PatchGrid(*rows_cols) if rows_cols else None
            if grid and n_vectors != grid.n_patches:
                raise ValueError(f"{kind} '{item_id}': n_vectors {n_vectors!r:.40} != "
                                 f"{grid.rows!r:.40}x{grid.cols!r:.40} grid")
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                raise ValueError(f"{kind} '{item_id}': path {rel} leaves the manifest directory")
            entries.append(DumpEntry(id=item_id, n_vectors=n_vectors, path=rel, grid=grid))
        _check_unique([entry.id for entry in entries], id_key, f"{kind} manifest {p}")
        location = check_string(data.get("location", ""), f"{kind} manifest {p}: location")
        manifest = EmbeddingDumpManifest(dim, tuple(entries), location, p.parent)
        for entry, raw in zip(entries, manifest.files()):
            try:
                found = raw.is_file()
            except OSError:  # a path the file system refuses, such as a name too long
                found = False
            if not found:
                raise ValueError(f"{kind} '{entry.id}': raw file {entry.path} not found")
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return manifest


def load_manifest(path: str | Path) -> EmbeddingDumpManifest:
    """Read and sanity-check a page dump manifest.

    Duplicate doc_ids, inconsistent vector counts, unsafe paths and missing
    raw files are all rejected here, before any vector data is read.
    """
    return _load(path, "doc_id")


def load_query_manifest(path: str | Path) -> EmbeddingDumpManifest:
    """Read and sanity-check a query dump manifest, as ``load_manifest`` does a
    page dump's."""
    return _load(path, "query_id")


def _item(entry: DumpEntry, dim: int, vectors) -> PatchEmbeddingSet | QueryEmbeddingSet:
    """The type an entry's vectors make: a page if the entry has a grid, else a query."""
    if entry.grid:
        return PatchEmbeddingSet(entry.id, dim, entry.grid, vectors)
    return QueryEmbeddingSet(entry.id, dim, vectors)


def _ingest(manifest, load):
    """Yield ``_item`` of each raw file of ``manifest``, parsed or a path ``load`` parses.

    A raw file of the wrong size, or vectors that their type rejects with
    ValueError (a non-finite or zero-norm vector), raise ManifestError.
    """
    if not isinstance(manifest, EmbeddingDumpManifest):
        manifest = load(manifest)
    for entry, path in zip(manifest.entries, manifest.files()):
        expected = entry.n_vectors * manifest.dim * 4
        actual = path.stat().st_size
        if actual != expected:
            kind = "doc" if entry.grid else "query"
            raise ManifestError(
                f"{kind} '{entry.id}': raw file {path.name} holds {actual} bytes, expected "
                f"{expected!r:.40} ({entry.n_vectors!r:.40} x {manifest.dim!r:.40} float32)"
            )
        flat = np.fromfile(path, dtype="<f4")
        try:
            item = _item(entry, manifest.dim, flat.reshape(entry.n_vectors, manifest.dim))
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        yield item


def ingest_dump(manifest_path: str | Path | EmbeddingDumpManifest):
    """Yield PatchEmbeddingSets for each manifest entry, in order.

    Takes a manifest path, or a manifest already parsed by ``load_manifest``.
    A page that its type rejects (a non-finite or zero-norm vector) raises
    ManifestError.
    """
    yield from _ingest(manifest_path, load_manifest)


def ingest_queries(manifest_path: str | Path | EmbeddingDumpManifest):
    """Yield QueryEmbeddingSets for each query manifest entry, in order.

    Takes a manifest path, or a manifest already parsed by
    ``load_query_manifest``.
    """
    yield from _ingest(manifest_path, load_query_manifest)


def _write_dump(items, out_dir, subdir: str, id_key: str, manifest_name: str, header) -> Path:
    """Write ``(id, dim, grid, vectors)`` items (``grid`` None for a query) and their manifest.

    ``header`` holds the manifest's top-level fields besides ``dim`` and
    ``entries``. Before the first byte is written, every id is checked (the id
    rule, a safe file name, not repeated), every header value by the string
    rule, every item by ``_item`` at the first item's dim, over the float32 values its
    file stores (``_ingest``'s rule on reading), and every file by ``check_output``.
    """
    kind = id_key.removesuffix("_id")
    if not items:
        raise ValueError(f"refusing to write an empty {kind} dump")
    dim = items[0][1]
    entries = []
    for i, (item_id, _, grid, vectors) in enumerate(items):
        _check_file_name(item_id, f"{kind} dump entry {i}: {id_key}")
        entries.append(DumpEntry(item_id, len(vectors), f"{subdir}/{item_id}.f32", grid))
        with np.errstate(over="ignore"):  # past float32's range is inf, which _item refuses
            _item(entries[-1], dim, vectors.astype("<f4"))
    _check_unique([entry.id for entry in entries], id_key, f"the {kind} dump")
    for name, value in header.items():
        check_string(value, f"{kind} dump: {name}")
    manifest = EmbeddingDumpManifest(dim, tuple(entries), root=Path(out_dir))
    manifest.root.mkdir(parents=True, exist_ok=True)
    manifest_path = manifest.root / manifest_name
    check_output(manifest_path, f"{kind} dump file")
    (manifest.root / subdir).mkdir(exist_ok=True)
    for path in manifest.files():
        check_output(path, f"{kind} dump file")
    for (*_, vectors), path in zip(items, manifest.files()):
        with replacing(path, binary=True) as fh:
            fh.write(np.ascontiguousarray(vectors, "<f4"))
    body = [{id_key: e.id, "n_vectors": e.n_vectors, "path": e.path,
             **(asdict(e.grid) if e.grid else {})} for e in entries]
    text = json.dumps({"dim": dim, **header, "entries": body}, indent=2, sort_keys=True)
    with replacing(manifest_path) as fh:
        fh.write(text + "\n")
    return manifest_path


def write_embedding_dump(psets, out_dir: str | Path, location: str = "") -> Path:
    """Write sets as raw float32 files plus a manifest; returns the manifest path."""
    items = [(p.doc_id, p.dim, p.grid, p.vectors) for p in psets]
    header = {"location": location}
    return _write_dump(items, out_dir, "vectors", "doc_id", "manifest.json", header)


def write_query_dump(queries, out_dir: str | Path) -> Path:
    """Write query token sets as raw float32 files plus ``queries.json``."""
    items = [(q.query_id, q.dim, None, q.vectors) for q in queries]
    return _write_dump(items, out_dir, "queries", "query_id", "queries.json", {})
