"""Refusals that no other test reaches: each bad argument raises its typed
error with its message, and leaves no file behind. Every count a caller
passes obeys one rule, ``types.check_count``."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from colchunk.chunker import ChunkerConfig, cluster_hac, cluster_kmeans
from colchunk.evaluation import (
    Qrels,
    SweepSpec,
    SyntheticSpec,
    evaluate_run,
    generate_corpus,
    ndcg_at_k,
    run_ablation,
)
from colchunk.posenc import encode_batch
from colchunk.scorer import retrieve_many
from colchunk.store import (
    BuildMeta,
    CorpusIndex,
    ManifestError,
    load_manifest,
    write_embedding_dump,
    write_records,
)
from colchunk.types import (
    CompressedDocument,
    FusedFeatureSet,
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


# name -> (action on an empty directory, error type, fragment of the message)
REFUSALS = {
    "index-doc-of-another-dim": (
        lambda tmp: CorpusIndex(dim=8, docs=(doc(dim=4),), build_meta=META),
        ValueError, "doc 'd' has dim 4, index expects 8"),
    "write-records-dim-0": (
        lambda tmp: write_records(tmp / "x.cchk", 0, ["d"], META, [(np.eye(1, 4), [1])]),
        ValueError, "dim must be at least 1, got 0"),
    "write-records-misshaped-record": (
        lambda tmp: write_records(tmp / "x.cchk", 4, ["d"], META, [(np.eye(2, 4), [1])]),
        ValueError, "doc 'd': sizes must have shape (2,), got (1,)"),
    "manifest-without-entries": (
        lambda tmp: load_once(tmp, {"dim": 4}), ManifestError, "is missing dim or entries"),
    "empty-dump": (
        lambda tmp: write_embedding_dump([], tmp / "dump"),
        ValueError, "refusing to write an empty doc dump"),
    "mixed-dim-dump": (
        lambda tmp: write_embedding_dump(
            [make_pset(np.random.default_rng(0), dim=4, doc_id="a"),
             make_pset(np.random.default_rng(1), dim=8, doc_id="b")], tmp / "dump"),
        ValueError, "doc 'b' has dim 8, dump expects 4"),
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
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_is_typed_and_leaves_nothing(tmp_path, case):
    action, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        action(tmp_path)
    assert type(info.value) is error
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
