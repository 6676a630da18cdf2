"""Property tests on random small pages, including duplicated patches and the
tie-heavy pure-position grids of ``omega=1``, a round trip through every
writer, and fuzz tests of the run, qrels and manifest parsers.

Hypothesis runs under the deterministic profile registered in conftest, so
every run draws the same examples.
"""

import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from colchunk.chunker import ChunkerConfig, cluster_hac, compress, cut_linkage, fuse  # noqa: E402
from colchunk.evaluation import EvalInputError, Qrels, read_run, write_run  # noqa: E402
from colchunk.scorer import ScoredHit  # noqa: E402
from colchunk.store import (  # noqa: E402
    BuildMeta,
    CorpusIndex,
    IndexFormatError,
    ManifestError,
    ingest_dump,
    ingest_queries,
    load_manifest,
    read_index,
    write_embedding_dump,
    write_index,
    write_query_dump,
    write_records,
)
from colchunk.types import (  # noqa: E402
    CompressedDocument,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
)

from conftest import with_trailer  # noqa: E402

OMEGAS = st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def pages(draw):
    """A page of up to 6x6 patches; half of them repeat a few distinct vectors."""
    grid = PatchGrid(rows=draw(st.integers(1, 6)), cols=draw(st.integers(1, 6)))
    dim = draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(draw(SEEDS))
    n = grid.n_patches
    if draw(st.booleans()):
        base = rng.normal(size=(draw(st.integers(1, n)), dim))
        vectors = base[rng.integers(0, len(base), size=n)]
    else:
        vectors = rng.normal(size=(n, dim))
    return PatchEmbeddingSet(doc_id="page", dim=dim, grid=grid, vectors=vectors)


@given(page=pages(), k=st.integers(1, 40), omega=OMEGAS,
       method=st.sampled_from(["hac_ward", "kmeans"]))
def test_compress_keeps_min_k_n_unit_chunks_partitioning_the_page(page, k, omega, method):
    doc = compress(page, ChunkerConfig(k=k, omega=omega, method=method))
    n = page.n_vectors
    assert doc.k == min(k, n)
    assert (doc.chunk_sizes >= 1).all() and doc.chunk_sizes.sum() == n
    np.testing.assert_allclose(np.linalg.norm(doc.chunks, axis=1), 1.0, rtol=0, atol=1e-12)


@given(page=pages(), k=st.integers(1, 40), omega=OMEGAS)
def test_cut_of_full_dendrogram_equals_direct_run(page, k, omega):
    feats = fuse(page, ChunkerConfig(k=1, omega=omega))
    n = page.n_vectors
    direct, _ = cluster_hac(feats, k)
    cut = cut_linkage(cluster_hac(feats, 1)[1], n, min(k, n))
    assert cut.labels.tolist() == direct.labels.tolist()
    assert cut.sizes.tolist() == direct.sizes.tolist()


def make_page(vectors):
    grid = PatchGrid(rows=1, cols=vectors.shape[0])
    return PatchEmbeddingSet(doc_id="page", dim=vectors.shape[1], grid=grid, vectors=vectors)


def make_query(vectors):
    return QueryEmbeddingSet(query_id="query", dim=vectors.shape[1], vectors=vectors)


@pytest.mark.parametrize("make", [make_page, make_query])
@given(seed=SEEDS, n=st.integers(1, 12), dim=st.integers(1, 8),
       fault=st.sampled_from([np.nan, np.inf, -np.inf, 0.0]), data=st.data())
def test_nan_inf_or_zero_row_raises_naming_it(make, seed, n, dim, fault, data):
    vectors = np.random.default_rng(seed).normal(size=(n, dim))
    row = data.draw(st.integers(0, n - 1))
    if fault == 0.0:
        vectors[row] = 0.0
    else:
        vectors[row, data.draw(st.integers(0, dim - 1))] = fault
    with pytest.raises(ValueError, match=re.escape(f"vectors[{row}] has")):
        make(vectors)


# Ids that obey the id rule: no whitespace (categories Z and C hold every
# character ``str.split`` splits on) and no surrogates.
IDS = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8)
# Chunk norms drift from 1 by at most the unit-norm tolerance, either way.
DRIFTS = st.sampled_from([-1e-6, 0.0, 0.999e-6, 1e-6]) | st.floats(-1e-6, 1e-6)
META = BuildMeta(omega=0.2, k_target=4, method="hac_ward", posenc_base=10000.0,
                 tool_version="0.1.0")


@given(dim=st.integers(0, 12),
       docs=st.lists(st.tuples(IDS, st.integers(1, 4), SEEDS, DRIFTS), max_size=3,
                     unique_by=lambda doc: doc[0]))
def test_index_is_refused_or_reads_back_and_rewrites_byte_identical(tmp_path_factory, dim, docs):
    first = tmp_path_factory.getbasetemp() / "first.cchk"
    second = tmp_path_factory.getbasetemp() / "second.cchk"
    try:
        built = []
        for doc_id, k, seed, drift in docs:
            rng = np.random.default_rng(seed)
            chunks = rng.normal(size=(k, dim))
            if dim:
                chunks *= (1.0 + drift) / np.linalg.norm(chunks, axis=1, keepdims=True)
            built.append(CompressedDocument(doc_id=doc_id, k=k, dim=dim, chunks=chunks,
                                            chunk_sizes=rng.integers(1, 9, size=k)))
        write_index(CorpusIndex(dim=dim, docs=built, build_meta=META), first)
    except ValueError:
        return
    back = read_index(first)
    assert back.ids == tuple(doc[0] for doc in docs)
    write_index(back, second)
    assert second.read_bytes() == first.read_bytes()


# Ids as a caller may pass them: ones the id rule accepts, and the empty id,
# whitespace, names no raw file may take and a non-string.
ANY_IDS = IDS | st.sampled_from(["", "a b", "tab\there", ".", "..", "a/b", 7])
# Finite components, among them one past float32's range and one that rounds
# to a float32 zero.
COMPONENTS = st.sampled_from([1e300, 1e-100]) | st.floats(-2.0, 2.0)
# A u32 dim, and the first that does not fit the index header's field.
INDEX_DIMS = st.sampled_from([2, 4, 2**32])


@st.composite
def unit_docs(draw, dim):
    """Up to three CompressedDocuments of unit chunks, in float64 or float32,
    under ids a caller may pass; none at a dim too large to allocate."""
    docs = []
    for doc_id in draw(st.lists(ANY_IDS, max_size=3 if dim < 2**32 else 0)):
        rng = np.random.default_rng(draw(SEEDS))
        k = draw(st.integers(1, 3))
        chunks = rng.normal(size=(k, dim))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        docs.append(CompressedDocument(doc_id, k, dim, chunks.astype(draw(st.sampled_from(
            [np.float64, np.float32]))), rng.integers(1, 9, size=k)))
    return docs


@st.composite
def embedding_sets(draw, kind):
    """Up to three pages (``kind`` "doc") or queries that their type accepts,
    of dim 2 or 4, under ids a caller may pass."""
    items = []
    for item_id in draw(st.lists(ANY_IDS, max_size=3)):
        dim = draw(st.sampled_from([2, 4]))
        grid = PatchGrid(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        n = grid.n_patches if kind == "doc" else draw(st.integers(1, 3))
        vectors = draw(arrays(np.float64, (n, dim), elements=COMPONENTS))
        try:
            items.append(PatchEmbeddingSet(item_id, dim, grid, vectors) if kind == "doc"
                         else QueryEmbeddingSet(item_id, dim, vectors))
        except ValueError:  # a zero row
            pass
    return items


def columns(index):
    return (index.dim, index.ids, index.offsets.tolist(), index.chunks.astype(np.float32).tobytes(),
            index.sizes.tolist(), index.build_meta)


def index_round_trip(write):
    """``write(out, dim, docs)`` writes an index file of ``docs``."""
    def round_trip(draw, out):
        dim = draw(INDEX_DIMS)
        docs = draw(unit_docs(dim))
        try:
            write(out, dim, docs)
        except ValueError:
            return None
        return columns(read_index(out)), columns(CorpusIndex(dim=dim, docs=docs, build_meta=META))
    return round_trip


def dump_round_trip(kind, write, ingest):
    """``write`` and ``ingest`` a page (``kind`` "doc") or query dump; a page
    dump also round-trips its ``location``."""
    def round_trip(draw, out):
        items = draw(embedding_sets(kind))
        location = draw(st.text(max_size=3) | st.integers()) if kind == "doc" else ""
        try:
            manifest = write(items, out, location) if kind == "doc" else write(items, out)
        except ValueError:
            return None
        back = [(vars(item) | {"vectors": item.vectors.tobytes()}) for item in ingest(manifest)]
        want = [(vars(item) | {"vectors": item.vectors.astype(np.float32).astype(np.float64)
                                             .tobytes()}) for item in items]
        return (back, load_manifest(manifest).location if kind == "doc" else ""), (want, location)
    return round_trip


def qrels_round_trip(draw, out):
    grades = draw(st.dictionaries(ANY_IDS, st.dictionaries(ANY_IDS, st.integers(0, 3),
                                                           max_size=3), max_size=3))
    try:
        qrels = Qrels(grades)
        qrels.to_file(out)
    except ValueError:
        return None
    back = Qrels.from_file(out)
    return ({q: back.judged(q) for q in back.queries()},
            {q: qrels.judged(q) for q in qrels.queries()})


def run_round_trip(draw, out):
    # hits as retrieve returns them: distinct docs, ranked from 1
    hits = {qid: [ScoredHit(doc_id, draw(st.floats(-1e6, 1e6)), rank)
                  for rank, doc_id in enumerate(draw(st.lists(ANY_IDS, max_size=3, unique=True)),
                                                start=1)]
            for qid in draw(st.lists(ANY_IDS, max_size=3, unique=True))}
    buffer = io.StringIO()
    try:
        write_run(hits, buffer)
    except ValueError:
        assert buffer.getvalue() == "", "refused after its first line"
        return None
    out.write_text(buffer.getvalue(), "utf-8")
    return read_run(out), {qid: [hit.doc_id for hit in hs] for qid, hs in hits.items() if hs}


# writer -> round trip: draws an input the in-memory types accept and writes it
# to ``out``, then returns (what the reader reads back, what was written), or
# None if the writer raised ValueError.
ROUND_TRIPS = {
    "write_records": index_round_trip(lambda out, dim, docs: write_records(
        out, dim, [d.doc_id for d in docs], META, [(d.chunks, d.chunk_sizes) for d in docs])),
    # an index the in-memory type refuses is never written
    "write_index": index_round_trip(lambda out, dim, docs: write_index(
        CorpusIndex(dim=dim, docs=docs, build_meta=META), out)),
    "write_embedding_dump": dump_round_trip("doc", write_embedding_dump, ingest_dump),
    "write_query_dump": dump_round_trip("query", write_query_dump, ingest_queries),
    "qrels_to_file": qrels_round_trip,
    "write_run": run_round_trip,
}


@pytest.mark.parametrize("writer", list(ROUND_TRIPS))
@given(data=st.data())
def test_every_writer_refuses_before_writing_or_round_trips(tmp_path_factory, writer, data):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        result = ROUND_TRIPS[writer](data.draw, Path(tmp) / "out")
        if result is None:
            # refused before the first byte: no file, temporary file or directory
            assert list(Path(tmp).iterdir()) == []
        else:
            got, want = result
            assert got == want


# Run and qrels lines: whitespace-joined fields, some of them plausible, or
# raw bytes that need not be UTF-8.
FIELDS = st.sampled_from(["q1", "Q0", "0", "d1", "d2", "1", "2", "-1", "0.5", "1e400", "nan",
                          "tag"]) | st.text(max_size=6)
LINE = st.lists(FIELDS, max_size=7).map(" ".join).map(str.encode) | st.binary(max_size=12)
LINES = st.lists(LINE, max_size=8).map(b"\n".join)


@pytest.mark.parametrize("reader", [read_run, Qrels.from_file])
@given(blob=LINES)
def test_run_and_qrels_lines_parse_or_raise_eval_input_error(tmp_path_factory, reader, blob):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(blob)
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(EvalInputError, match="is not UTF-8"):
            reader(path)
        return
    try:
        reader(path)
    except EvalInputError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    # longer than a file name may be
    | st.text(alphabet="ab./", min_size=256, max_size=300),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)
# (dump kind, field); "entry" is the manifest's one entry as a whole.
MANIFEST_FIELDS = [
    *(("page", f) for f in ("dim", "entries", "location", "entry", "doc_id", "n_vectors", "path",
                            "rows", "cols")),
    *(("query", f) for f in ("dim", "entries", "entry", "query_id", "n_vectors", "path")),
]


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """One-entry page and query dumps: kind -> (manifest path, its JSON, ingest)."""
    rng = np.random.default_rng(0)
    page = PatchEmbeddingSet(doc_id="d", dim=4, grid=PatchGrid(rows=2, cols=2),
                             vectors=rng.normal(size=(4, 4)))
    pages = write_embedding_dump([page], tmp_path_factory.mktemp("pages"))
    queries = write_query_dump([make_query(rng.normal(size=(3, 4)))],
                               tmp_path_factory.mktemp("queries"))
    return {
        "page": (pages, pages.read_text("utf-8"), ingest_dump),
        "query": (queries, queries.read_text("utf-8"), ingest_queries),
    }


@pytest.mark.parametrize("kind,field", MANIFEST_FIELDS)
@given(value=JSON_VALUES)
def test_any_json_in_a_manifest_field_loads_or_raises_manifest_error(dumps, kind, field, value):
    manifest, text, ingest = dumps[kind]
    top = json.loads(text)
    if field in ("dim", "entries", "location"):
        top[field] = value
    elif field == "entry":
        top["entries"][0] = value
    else:
        top["entries"][0][field] = value
    manifest.write_text(json.dumps(top), "utf-8")
    try:
        list(ingest(manifest))
    except ManifestError:
        pass


NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
# Trailer field -> values of the JSON type the reader takes for it.
TRAILER_TYPES = {"omega": NUMBERS, "posenc_base": NUMBERS, "k_target": st.integers(min_value=1),
                 "method": st.text(), "tool_version": st.text(), "embedding_location": st.text()}
# One trailer field and a value for it: of its own type, or any JSON value.
TRAILER_VALUES = st.sampled_from(sorted(TRAILER_TYPES)).flatmap(
    lambda name: st.tuples(st.just(name), TRAILER_TYPES[name] | JSON_VALUES)
)


@given(field_value=TRAILER_VALUES, change=st.sampled_from(["set", "set", "drop", "add"]),
       extra_key=st.text(max_size=12))
def test_any_json_in_a_trailer_field_is_refused_or_rewrites_byte_identical(
    tmp_path_factory, field_value, change, extra_key
):
    # The field takes the value, or is dropped, or the value goes under an extra key.
    field, value = field_value
    path = tmp_path_factory.getbasetemp() / "trailer.cchk"
    doc = CompressedDocument(doc_id="d", k=1, dim=4, chunks=np.eye(1, 4), chunk_sizes=[1])
    write_index(CorpusIndex(dim=4, docs=(doc,), build_meta=META), path)
    meta = asdict(META)
    if change == "set":
        meta[field] = value
    elif change == "drop":
        del meta[field]
    else:
        meta[extra_key] = value
    trailer = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = with_trailer(path.read_bytes(), trailer)
    path.write_bytes(blob)
    try:
        back = read_index(path)
    except IndexFormatError:
        return
    write_index(back, path)
    assert path.read_bytes() == blob
