"""Property tests on random small pages, including duplicated patches and the
tie-heavy pure-position grids of ``omega=1``, and fuzz tests of the run,
qrels and manifest parsers.

Hypothesis runs under the deterministic profile registered in conftest, so
every run draws the same examples.
"""

import json
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from colchunk.chunker import ChunkerConfig, cluster_hac, compress, cut_linkage, fuse  # noqa: E402
from colchunk.evaluation import EvalInputError, Qrels, read_run  # noqa: E402
from colchunk.store import (  # noqa: E402
    BuildMeta,
    CorpusIndex,
    ManifestError,
    ingest_dump,
    ingest_queries,
    read_index,
    write_embedding_dump,
    write_index,
    write_query_dump,
)
from colchunk.types import (  # noqa: E402
    CompressedDocument,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
)

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
