"""Refusals that no other test reaches: each bad argument raises its typed
error with its message, and leaves no file behind. Every count a caller
passes obeys one rule, ``types.check_count``; every number one rule,
``types.check_real``; every omega one rule, ``types.check_omega``; every seed
and grade one rule, ``types.check_natural``; and every number read from text
one rule, ``types.check_decimal``."""

import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from colchunk.chunker import ChunkerConfig, cluster_hac, cluster_kmeans
from colchunk.evaluation import (
    EvalInputError,
    Qrels,
    SweepSpec,
    SyntheticSpec,
    evaluate_run,
    generate_corpus,
    ndcg_at_k,
    read_run,
    run_ablation,
    write_run,
)
from colchunk.posenc import encode_batch
from colchunk.scorer import ScoredHit, maxsim, retrieve_many
from colchunk.store import (
    BuildMeta,
    CorpusIndex,
    ManifestError,
    load_manifest,
    write_embedding_dump,
    write_query_dump,
    write_records,
)
from colchunk.types import (
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
    check_compressed,
)

from conftest import make_pset

META = BuildMeta(omega=0.2, k_target=4, method="hac_ward", posenc_base=10000.0,
                 tool_version="0.1.0", embedding_location="")


def doc(dim=4, k=1, doc_id="d"):
    return CompressedDocument(doc_id=doc_id, k=k, dim=dim, chunks=np.eye(k, dim),
                              chunk_sizes=np.ones(k, dtype=np.int64))


def feats(n):
    return FusedFeatureSet(omega=0.2, vectors=np.eye(n, 4))


def load_once(tmp_path, top):
    """Load ``top`` written as a page manifest, then remove it."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(top))
    try:
        load_manifest(path)
    finally:
        path.unlink()


def read_once(tmp_path, reader, text):
    """Read ``text`` as a qrels or run file with ``reader``, then remove it."""
    path = tmp_path / "lines.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    finally:
        path.unlink()


def ablation_without_docs(tmp_path):
    query = QueryEmbeddingSet(query_id="q", dim=4, vectors=np.eye(1, 4))
    run_ablation([], [query], Qrels({"q": {"d": 1}}), SweepSpec(), scratch_dir=tmp_path)


def synthetic(**counts):
    base = dict(num_docs=4, num_queries=1, grid=PatchGrid(2, 2), dim=4, signal_patches=1,
                query_tokens=1)
    return SyntheticSpec(**{**base, **counts})


def page_manifest(tmp_path, field, value):
    """Load a one-page manifest whose ``field`` holds ``value``."""
    top = {"dim": 4, "entries": [{"doc_id": "d", "rows": 1, "cols": 1, "n_vectors": 1,
                                  "path": "d.f32"}]}
    (top if field == "dim" else top["entries"][0])[field] = value
    load_once(tmp_path, top)


def dump_page(tmp, value):
    """Write a dump of one 2x1 page whose second vector is all ``value``."""
    vectors = np.array([[1.0, 0.0], [value, value]])
    write_embedding_dump([PatchEmbeddingSet("x", 2, PatchGrid(2, 1), vectors)], tmp / "dump")


def dump_query(tmp, value):
    """Write a query dump of one two-token query whose second token is all ``value``."""
    vectors = np.array([[1.0, 0.0], [value, value]])
    write_query_dump([QueryEmbeddingSet("x", 2, vectors)], tmp / "dump")


def index(dim=4):
    return CorpusIndex(dim=dim, docs=(doc(),), build_meta=META)


# The count rule, ``types.check_count``, at each site: name -> (action on an
# empty directory and a count, the count's name in the message, the error,
# the stored count or None). A good count is 4.
COUNTS = {
    "config-k": (lambda tmp, n: ChunkerConfig(k=n), "k", ValueError, lambda cfg: cfg.k),
    "hac-k": (lambda tmp, n: cluster_hac(feats(6), n), "k", ValueError, None),
    "kmeans-k": (lambda tmp, n: cluster_kmeans(feats(6), n), "k", ValueError, None),
    "retrieve-top-k": (
        lambda tmp, n: retrieve_many([QueryEmbeddingSet("q", 4, np.eye(1, 4))], index(), n),
        "top_k", ValueError, None),
    "ndcg-k": (lambda tmp, n: ndcg_at_k(["d"], {"d": 1}, n), "k", ValueError, None),
    **{f"synthetic-{name}": (
        lambda tmp, n, name=name: synthetic(**{name: n}), name, ValueError, None)
       for name in ("num_docs", "num_queries", "dim", "signal_patches", "query_tokens")},
    "grid-rows": (lambda tmp, n: PatchGrid(n, 2), "rows", ValueError, lambda grid: grid.rows),
    "grid-cols": (lambda tmp, n: PatchGrid(2, n), "cols", ValueError, lambda grid: grid.cols),
    "check-compressed-dim": (
        lambda tmp, n: check_compressed(("d",), n, (0, 1), np.eye(1, 4), np.ones(1)),
        "dim", ValueError, None),
    "compressed-doc-k": (
        lambda tmp, n: CompressedDocument("d", n, 4, np.eye(4), np.ones(4)), "doc 'd': k",
        ValueError, None),
    "index-dim": (lambda tmp, n: index(dim=n), "dim", ValueError, lambda idx: idx.dim),
    "index-from-columns-dim": (
        lambda tmp, n: CorpusIndex.from_columns(n, ["d"], np.array([0, 1]), np.eye(1, 4),
                                                np.ones(1, np.int64), META),
        "dim", ValueError, None),
    "write-records-dim": (
        lambda tmp, n: write_records(tmp / "x.cchk", n, ["d"], META, [(np.eye(1, 4), [1])]),
        "dim", ValueError, None),
    "build-meta-k-target": (
        lambda tmp, n: replace(META, k_target=n), "build metadata: k_target", ValueError,
        lambda meta: meta.k_target),
    # A manifest count is a JSON value, so it is never a numpy integer.
    **{f"manifest-{field}": (
        lambda tmp, n, field=field: page_manifest(tmp, field, n), where, ManifestError, None)
       for field, where in (("dim", "manifest.json: dim"),
                            ("n_vectors", "doc manifest entry 0: n_vectors"),
                            ("rows", "doc manifest entry 0: rows"),
                            ("cols", "doc manifest entry 0: cols"))},
}


# The number rule, ``types.check_real``, at each site: name -> (action on an
# empty directory and a number, the number's name in the message).
NUMBERS = {
    "config-omega": (lambda tmp, x: ChunkerConfig(omega=x), "omega"),
    "fused-omega": (lambda tmp, x: FusedFeatureSet(omega=x, vectors=np.eye(2, 4)), "omega"),
    "sweep-omega-values": (lambda tmp, x: SweepSpec(omega_values=(x,)), "omega"),
    "sweep-base-omega": (lambda tmp, x: SweepSpec(base_omega=x), "omega"),
    "build-meta-posenc-base": (
        lambda tmp, x: replace(META, posenc_base=x), "build metadata: posenc_base"),
    "synthetic-noise-sigma": (lambda tmp, x: synthetic(noise_sigma=x), "noise_sigma"),
}

# Integers that each constructor checks and stores: name -> (action on an
# empty directory and an integer, the start of the message).
INTEGERS = {
    "qrels-grade": (lambda tmp, n: Qrels({"q": {"d": n}}),
                    "grade must be a non-negative integer"),
    "pset-dim": (lambda tmp, n: PatchEmbeddingSet("d", n, PatchGrid(1, 1), np.eye(1, 4)),
                 "doc 'd': dim must be an integer"),
    "query-dim": (lambda tmp, n: QueryEmbeddingSet("q", n, np.eye(1, 4)),
                  "query 'q': dim must be an integer"),
}


# Every rule echoes a value cut to 40 characters, so a refusal's message, less
# any path it names, stays this short however long the value.
MAX_MESSAGE = 100

# 10**400 overflows a float; a trailer or a caller may still pass it as an int.
HUGE = 10**400

# name -> (action on an empty directory, error type, fragment of the message)
REFUSALS = {
    "index-doc-of-another-dim": (
        lambda tmp: CorpusIndex(dim=8, docs=(doc(dim=4),), build_meta=META),
        ValueError, "doc 'd' has dim 4, index expects 8"),
    # one dimension rule for scoring a document and an index
    "maxsim-query-of-another-dim": (
        lambda tmp: maxsim(QueryEmbeddingSet("q", 8, np.eye(1, 8)), doc(dim=4)),
        ValueError, "dimension mismatch: query 'q' has dim 8, doc 'd' has dim 4"),
    "retrieve-query-of-another-dim": (
        lambda tmp: retrieve_many([QueryEmbeddingSet("q", 8, np.eye(1, 8))], index(dim=4), 1),
        ValueError, "dimension mismatch: query 'q' has dim 8, index has dim 4"),
    "write-records-dim-0": (
        lambda tmp: write_records(tmp / "x.cchk", 0, ["d"], META, [(np.eye(1, 4), [1])]),
        ValueError, "dim must be at least 1, got 0"),
    # the header stores dim as a u32: refused before the file is opened
    "write-records-dim-2-32": (
        lambda tmp: write_records(tmp / "x.cchk", 2**32, ["d"], META, [(np.eye(1, 4), [1])]),
        ValueError, "dim 4294967296 exceeds the u32 dim field"),
    "write-records-misshaped-record": (
        lambda tmp: write_records(tmp / "x.cchk", 4, ["d"], META, [(np.eye(2, 4), [1])]),
        ValueError, "doc 'd': sizes must have shape (2,), got (1,)"),
    "manifest-without-entries": (
        lambda tmp: load_once(tmp, {"dim": 4}), ManifestError, "is missing dim or entries"),
    "empty-dump": (
        lambda tmp: write_embedding_dump([], tmp / "dump"),
        ValueError, "refusing to write an empty doc dump"),
    # each page is checked by its type at the dump's dim, the first page's,
    # as the loader checks it
    "mixed-dim-dump": (
        lambda tmp: write_embedding_dump(
            [make_pset(np.random.default_rng(0), dim=4, doc_id="a"),
             make_pset(np.random.default_rng(1), dim=8, doc_id="b")], tmp / "dump"),
        ValueError, "doc 'b': expected 4 components per vector, got 8"),
    # the dump writers refuse, before the first byte, what the loader would:
    # a value past float32's range is stored as inf, and rows of 1e-100 as zeros
    **{f"{kind}-dump-{fault}": (
        lambda tmp, write=write, value=value: write(tmp, value), ValueError,
        f"{kind} 'x': vectors[1] has {problem}")
       for kind, write in (("doc", dump_page), ("query", dump_query))
       for fault, value, problem in (("1e300", 1e300, "a non-finite component"),
                                     ("1e-100", 1e-100, "zero norm"))},
    "doc-dump-int-location": (
        lambda tmp: write_embedding_dump([make_pset(np.random.default_rng(0))], tmp / "dump",
                                         location=5),
        ValueError, "doc dump: location must be a JSON string, got 5"),
    "compressed-doc-k-0": (
        lambda tmp: CompressedDocument(doc_id="d", k=0, dim=4, chunks=np.empty((0, 4)),
                                       chunk_sizes=np.empty(0)),
        ValueError, "doc 'd': k must be at least 1, got 0"),
    "compressed-doc-misshaped-chunks": (
        lambda tmp: CompressedDocument(doc_id="d", k=2, dim=4, chunks=np.eye(2, 3),
                                       chunk_sizes=np.ones(2)),
        ValueError, "doc 'd': chunks must have shape (2, 4), got (2, 3)"),
    "hac-k-0": (lambda tmp: cluster_hac(feats(3), 0), ValueError, "k must be at least 1, got 0"),
    "hac-empty-set": (
        lambda tmp: cluster_hac(feats(0), 1), ValueError, "cannot cluster an empty feature set"),
    "kmeans-k-0": (
        lambda tmp: cluster_kmeans(feats(3), 0), ValueError, "k must be at least 1, got 0"),
    "encode-3-d-coords": (
        lambda tmp: encode_batch(8, np.full((2, 3), 0.5)),
        ValueError, "coords must have shape (n, 2), got (2, 3)"),
    "evaluate-empty-run": (
        lambda tmp: evaluate_run({}, Qrels(), 5), ValueError, "run contains no queries"),
    "synthetic-negative-noise": (
        lambda tmp: SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(2, 2), dim=4,
                                  signal_patches=1, noise_sigma=-0.1),
        ValueError, "noise_sigma must be non-negative"),
    "synthetic-huge-negative-noise": (
        lambda tmp: synthetic(noise_sigma=-HUGE), ValueError,
        f"noise_sigma must be non-negative, got -1{'0' * 38}"),
    # one omega rule at every site, its echo cut to 40 characters
    **{f"{site}-huge": (lambda tmp, act=NUMBERS[site][0]: act(tmp, HUGE), ValueError,
                        f"omega must lie in [0, 1], got 1{'0' * 39}")
       for site in ("config-omega", "fused-omega", "sweep-omega-values", "sweep-base-omega")},
    "build-meta-huge-omega": (
        lambda tmp: replace(META, omega=HUGE), ValueError,
        f"build metadata: omega must lie in [0, 1], got 1{'0' * 39}"),
    # int() and float() read '1_0' as 10 and the Arabic-Indic digit as 1
    "qrels-separated-grade": (
        lambda tmp: read_once(tmp, Qrels.from_file, "q 0 d 1_0\n"), EvalInputError,
        "qrels line 1: grade must be ASCII with no '_', got '1_0'"),
    "qrels-arabic-indic-grade": (
        lambda tmp: read_once(tmp, Qrels.from_file, "q 0 d \u0661\n"), EvalInputError,
        "qrels line 1: grade must be ASCII with no '_', got '\u0661'"),
    "run-separated-rank": (
        lambda tmp: read_once(tmp, read_run, "q Q0 d 1_0 0.5 t\n"), EvalInputError,
        "run line 1: rank must be ASCII with no '_', got '1_0'"),
    **{f"run-{score}-score": (
        lambda tmp, score=score: read_once(tmp, read_run, f"q Q0 d 1 {score} t\n"),
        EvalInputError, f"run line 1: score must be a finite number, got {score}")
       for score in ("nan", "inf")},
    # text int() or float() cannot read is named by its field and cut to 40 characters
    "qrels-long-grade": (
        lambda tmp: read_once(tmp, Qrels.from_file, f"q 0 d {'x' * 200}\n"), EvalInputError,
        f"qrels line 1: grade must be an integer, got '{'x' * 39}"),
    "run-long-rank": (
        lambda tmp: read_once(tmp, read_run, f"q Q0 d {'x' * 200} 0.5 t\n"), EvalInputError,
        f"run line 1: rank must be an integer, got '{'x' * 39}"),
    "run-long-score": (
        lambda tmp: read_once(tmp, read_run, f"q Q0 d 1 {'x' * 200} t\n"), EvalInputError,
        f"run line 1: score must be a number, got '{'x' * 39}"),
    # the qrels and run writers apply the id rule, which keeps each line's fields
    "qrels-space-in-query-id": (
        lambda tmp: Qrels({"a b": {"d": 1}}), ValueError,
        "qrels: query_id 'a b' is empty or holds whitespace"),
    "qrels-empty-doc-id": (
        lambda tmp: Qrels({"q": {"": 1}}), ValueError,
        "qrels: doc_id '' is empty or holds whitespace"),
    "run-space-in-query-id": (
        lambda tmp: write_run({"a b": [ScoredHit("d", 1.0, 1)]}, io.StringIO()), ValueError,
        "run: query_id 'a b' is empty or holds whitespace"),
    "run-empty-doc-id": (
        lambda tmp: write_run({"q": [ScoredHit("d", 1.0, 1), ScoredHit("", 0.5, 2)]},
                              io.StringIO()), ValueError,
        "run: doc_id '' is empty or holds whitespace"),
    # the run writer refuses, before its first line, hits that read_run would refuse
    "run-nan-score": (
        lambda tmp: write_run({"q": [ScoredHit("d", float("nan"), 1)]}, io.StringIO()),
        ValueError, "run: score must be a finite number, got nan"),
    "run-inf-score": (
        lambda tmp: write_run({"q": [ScoredHit("d", 1.0, 1), ScoredHit("e", float("inf"), 2)]},
                              io.StringIO()),
        ValueError, "run: score must be a finite number, got inf"),
    "run-rank-0": (
        lambda tmp: write_run({"q": [ScoredHit("d", 1.0, 0)]}, io.StringIO()), ValueError,
        "run: rank must be at least 1, got 0"),
    "run-repeated-rank": (
        lambda tmp: write_run({"q": [ScoredHit("d", 1.0, 1), ScoredHit("e", 0.5, 1)]},
                              io.StringIO()), ValueError, "run: query q uses rank 1 again"),
    "run-repeated-doc": (
        lambda tmp: write_run({"q": [ScoredHit("d", 1.0, 1), ScoredHit("d", 0.5, 2)]},
                              io.StringIO()), ValueError, "run: query q lists doc d again"),
    "run-score-past-float-range": (
        lambda tmp: write_run({"q": [ScoredHit("d", HUGE, 1)]}, io.StringIO()), ValueError,
        "run: score must be a finite number, got an integer past float range"),
    # and read_run refuses a rank below 1, as write_run does
    **{f"run-file-rank-{rank}": (
        lambda tmp, rank=rank: read_once(tmp, read_run, f"q Q0 d {rank} 0.5 t\n"),
        EvalInputError, f"run line 1: rank must be at least 1, got {rank}")
       for rank in ("0", "-3")},
    # the id rule refuses text UTF-8 cannot encode, such as JSON's "\ud800"
    # escape, at every site that takes an id, with the field's name
    "manifest-surrogate-doc-id": (
        lambda tmp: page_manifest(tmp, "doc_id", "\ud800"), ManifestError,
        "doc manifest entry 0: doc_id '\\ud800' is not UTF-8 text"),
    "qrels-surrogate-query-id": (
        lambda tmp: Qrels({"\ud800": {"d": 1}}), ValueError,
        "qrels: query_id '\\ud800' is not UTF-8 text"),
    "run-surrogate-doc-id": (
        lambda tmp: write_run({"q": [ScoredHit("a\udfff", 1.0, 1)]}, io.StringIO()), ValueError,
        "run: doc_id 'a\\udfff' is not UTF-8 text"),
    "write-records-surrogate-id": (
        lambda tmp: write_records(tmp / "x.cchk", 4, ["\ud800"], META, [(np.eye(1, 4), [1])]),
        ValueError, "index: doc_id '\\ud800' is not UTF-8 text"),
    "query-dump-surrogate-id": (
        lambda tmp: write_query_dump([QueryEmbeddingSet("\ud800", 2, np.eye(1, 2))], tmp / "d"),
        ValueError, "query dump entry 0: query_id '\\ud800' is not UTF-8 text"),
    # one line-width rule for both readers; blank lines are skipped, not counted
    "qrels-three-fields": (
        lambda tmp: read_once(tmp, Qrels.from_file, "q 0 d\n"), EvalInputError,
        "qrels line 1: expected 4 fields, got 3"),
    "run-five-fields": (
        lambda tmp: read_once(tmp, read_run, "q Q0 d 1 0.5\n"), EvalInputError,
        "run line 1: expected 6 fields, got 5"),
    "run-seven-fields-after-a-blank-line": (
        lambda tmp: read_once(tmp, read_run, "\nq Q0 d 1 0.5 t x\n"), EvalInputError,
        "run line 2: expected 6 fields, got 7"),
    # one seed rule, and one message, for a build and a synthetic corpus
    "synthetic-negative-seed": (
        lambda tmp: SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(2, 2), dim=4,
                                  signal_patches=1, seed=-1),
        ValueError, "seed must be a non-negative integer, got -1"),
    "synthetic-bool-seed": (
        lambda tmp: SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(2, 2), dim=4,
                                  signal_patches=1, seed=True),
        ValueError, "seed must be a non-negative integer, got True"),
    "synthetic-zero-query-tokens": (
        lambda tmp: SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(2, 2), dim=4,
                                  signal_patches=1, query_tokens=0),
        ValueError, "query_tokens must be at least 1"),
    "ablation-without-docs": (
        ablation_without_docs, ValueError, "ablation needs at least one document and one query"),
    # A sweep checks every value through ChunkerConfig, used by a row or not.
    "sweep-negative-base-k": (
        lambda tmp: SweepSpec(base_k=-5), ValueError, "k must be at least 1, got -5"),
    "sweep-unused-base-k-0": (
        lambda tmp: SweepSpec(base_k=0, k_values=(2,)), ValueError, "k must be at least 1, got 0"),
    "sweep-base-omega-above-1": (
        lambda tmp: SweepSpec(base_omega=1.5), ValueError, "omega must lie in [0, 1], got 1.5"),
    "sweep-k-0": (
        lambda tmp: SweepSpec(k_values=(4, 0)), ValueError, "k must be at least 1, got 0"),
    "sweep-omega-7": (
        lambda tmp: SweepSpec(omega_values=(7.0,)), ValueError, "omega must lie in [0, 1], got 7.0"),
    "sweep-negative-seed": (
        lambda tmp: SweepSpec(seed=-1), ValueError, "seed must be a non-negative integer, got -1"),
    "config-bool-seed": (
        lambda tmp: ChunkerConfig(seed=True), ValueError,
        "seed must be a non-negative integer, got True"),
    "sweep-unknown-method": (
        lambda tmp: SweepSpec(methods=("bogus",)), ValueError,
        "method must be one of ('hac_ward', 'kmeans'), got 'bogus'"),
    # a bool, a float and a string at every count site
    **{f"{site}-{kind}": (lambda tmp, act=act, bad=bad: act(tmp, bad), error,
                          f"{name} must be an integer, got {bad!r}")
       for site, (act, name, error, _) in COUNTS.items()
       for kind, bad in (("bool", True), ("float", 2.5), ("str", "3"))},
    # a bool and a string at every number site
    **{f"{site}-{kind}": (lambda tmp, act=act, bad=bad: act(tmp, bad), ValueError,
                          f"{name} must be a finite number, got {bad!r}")
       for site, (act, name) in NUMBERS.items()
       for kind, bad in (("bool", True), ("str", "0.5"))},
    # a bool, a string and a fraction at every newly checked integer
    **{f"{site}-{kind}": (lambda tmp, act=act, bad=bad: act(tmp, bad), ValueError,
                          f"{start}, got {bad!r}")
       for site, (act, start) in INTEGERS.items()
       for kind, bad in (("bool", True), ("str", "1"), ("float", 1.5))},
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_is_typed_and_leaves_nothing(tmp_path, case):
    action, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        action(tmp_path)
    assert type(info.value) is error
    assert len(str(info.value).replace(str(tmp_path), "")) <= MAX_MESSAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hit", [
    ScoredHit("e", float("nan"), 2), ScoredHit("e", HUGE, 2), ScoredHit("e", 1.0, 10**5000),
    ScoredHit("d", 1.0, 2), ScoredHit("\ud800", 1.0, 2)],
    ids=["nan-score", "score-past-float-range", "rank-past-str", "repeated-doc", "surrogate"])
def test_run_writer_refuses_before_its_first_line(hit):
    # a good query, then one whose second hit breaks a rule, repeats its first
    # doc, or has a rank str() refuses (past 4,300 digits)
    buffer = io.StringIO()
    with pytest.raises(ValueError):
        write_run({"a": [ScoredHit("d", 1.0, 1)], "b": [ScoredHit("d", 0.5, 1), hit]}, buffer)
    assert buffer.getvalue() == ""


def test_qrels_file_refused_before_it_is_opened(tmp_path):
    # str() refuses an integer past 4,300 digits, which Qrels accepts as a grade
    with pytest.raises(ValueError, match="4300 digits"):
        Qrels({"q": {"d": 1}, "r": {"d": 10**5000}}).to_file(tmp_path / "qrels.txt")
    assert list(tmp_path.iterdir()) == []


# Values thousands of characters long, each echoed cut to 40 characters:
# name -> (action on an empty directory, error type, the whole message).
LONG = "x" * 3000
NINES = 10**3000 - 1
ECHOES = {
    "count-below-1": (lambda tmp: ChunkerConfig(k=-NINES), ValueError,
                      f"k must be at least 1, got -{'9' * 39}"),
    "manifest-n-vectors-off-the-grid": (
        lambda tmp: page_manifest(tmp, "n_vectors", NINES), ManifestError,
        f"doc 'd': n_vectors {'9' * 40} != 1x1 grid"),
    "index-duplicate-id": (
        lambda tmp: CorpusIndex(dim=4, docs=(doc(doc_id=LONG), doc(doc_id=LONG)), build_meta=META),
        ValueError, f"duplicate doc_id '{'x' * 39} in the index"),
    "dump-duplicate-id": (
        lambda tmp: write_embedding_dump([make_pset(np.random.default_rng(0), doc_id=LONG)] * 2,
                                         tmp / "dump"),
        ValueError, f"duplicate doc_id '{'x' * 39} in the doc dump"),
    "qrels-conflicting-grade": (
        lambda tmp: read_once(tmp, Qrels.from_file, f"q 0 {LONG} 1\nq 0 {LONG} 2\n"),
        EvalInputError,
        f"qrels line 2: grade 2 for query q doc {'x' * 40} conflicts with grade 1 on an "
        "earlier line"),
    "run-repeated-doc": (
        lambda tmp: read_once(tmp, read_run, f"q Q0 {LONG} 1 0.5 t\nq Q0 {LONG} 2 0.4 t\n"),
        EvalInputError, f"run line 2: query q lists doc {'x' * 40} again"),
    "run-repeated-rank": (
        lambda tmp: read_once(tmp, read_run,
                              f"{LONG} Q0 a {NINES} 0.5 t\n{LONG} Q0 b {NINES} 0.4 t\n"),
        EvalInputError, f"run line 2: query {'x' * 40} uses rank {'9' * 40} again"),
}


@pytest.mark.parametrize("case", list(ECHOES))
def test_long_value_is_echoed_cut_to_40_characters(tmp_path, case):
    action, error, message = ECHOES[case]
    with pytest.raises(error) as info:
        action(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("site", [site for site in COUNTS if COUNTS[site][2] is ValueError])
def test_count_accepts_a_numpy_integer(tmp_path, site):
    action, _, _, stored = COUNTS[site]
    result = action(tmp_path, np.int64(4))
    if stored is not None:
        assert type(stored(result)) is int and stored(result) == 4


def test_numpy_sweep_k_gives_the_same_rows(tmp_path):
    docs, queries, qrels = generate_corpus(
        SyntheticSpec(num_docs=6, num_queries=2, grid=PatchGrid(4, 4), dim=8, signal_patches=4,
                      query_tokens=4, seed=3))

    def rows(k):
        found = run_ablation(docs, queries, qrels, SweepSpec(k_values=(k,), base_k=4),
                             scratch_dir=tmp_path)
        return [replace(row, wall_ms=0.0) for row in found]

    assert rows(np.int64(8)) == rows(8)
    assert [type(row.k) for row in rows(np.int64(8))] == [int, int]


# A numpy value is stored as its Python value: site -> (stored value, wanted value).
NUMPY_STORED = {
    "config-omega": lambda: (ChunkerConfig(omega=np.float32(0.5)).omega, 0.5),
    "config-seed": lambda: (ChunkerConfig(seed=np.int64(3)).seed, 3),
    "fused-omega": lambda: (FusedFeatureSet(np.float64(0.25), np.eye(2, 4)).omega, 0.25),
    "build-meta-omega": lambda: (replace(META, omega=np.float32(0.5)).omega, 0.5),
    "build-meta-posenc-base": lambda: (replace(META, posenc_base=np.int64(100)).posenc_base, 100),
    "compressed-doc-k": lambda: (doc(k=np.int64(1)).k, 1),
    "compressed-doc-dim": lambda: (doc(dim=np.int64(4)).dim, 4),
    "pset-dim": lambda: (PatchEmbeddingSet("d", np.int64(4), PatchGrid(1, 1), np.eye(1, 4)).dim, 4),
    "query-dim": lambda: (QueryEmbeddingSet("q", np.int32(4), np.eye(1, 4)).dim, 4),
    "synthetic-noise-sigma": lambda: (synthetic(noise_sigma=np.float32(0.5)).noise_sigma, 0.5),
    "synthetic-seed": lambda: (synthetic(seed=np.uint8(7)).seed, 7),
}


@pytest.mark.parametrize("site", list(NUMPY_STORED))
def test_numpy_value_is_stored_as_a_python_one(site):
    stored, want = NUMPY_STORED[site]()
    assert type(stored) is type(want) and stored == want


def test_numpy_sweep_omega_gives_the_same_rows(tmp_path):
    docs, queries, qrels = generate_corpus(
        SyntheticSpec(num_docs=6, num_queries=2, grid=PatchGrid(4, 4), dim=8, signal_patches=4,
                      query_tokens=4, seed=3))

    def rows(omega):
        found = run_ablation(docs, queries, qrels, SweepSpec(omega_values=(omega,), base_k=4),
                             scratch_dir=tmp_path)
        return [replace(row, wall_ms=0.0) for row in found]

    assert rows(np.float32(0.5)) == rows(0.5)
    assert [type(row.omega) for row in rows(np.float32(0.5))] == [float, float]
