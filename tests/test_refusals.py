"""Refusals that no other test reaches: each bad argument raises its typed
error with its message, and leaves no file behind."""

import json
import re

import numpy as np
import pytest

from colchunk.chunker import cluster_hac, cluster_kmeans
from colchunk.evaluation import Qrels, SweepSpec, SyntheticSpec, evaluate_run, run_ablation
from colchunk.posenc import encode_batch
from colchunk.store import (
    BuildMeta,
    CorpusIndex,
    ManifestError,
    load_manifest,
    write_embedding_dump,
    write_records,
)
from colchunk.types import CompressedDocument, FusedFeatureSet, PatchGrid, QueryEmbeddingSet

from conftest import make_pset

META = BuildMeta(omega=0.2, k_target=4, method="hac_ward", posenc_base=10000.0,
                 tool_version="0.1.0", embedding_location="")


def doc(dim=4, k=1, doc_id="d"):
    return CompressedDocument(doc_id=doc_id, k=k, dim=dim, chunks=np.eye(k, dim),
                              chunk_sizes=np.ones(k, dtype=np.int64))


def feats(n):
    return FusedFeatureSet(omega=0.2, vectors=np.eye(n, 4))


def manifest_without_entries(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"dim": 4}))
    try:
        load_manifest(path)
    finally:
        path.unlink()


def ablation_without_docs(tmp_path):
    query = QueryEmbeddingSet(query_id="q", dim=4, vectors=np.eye(1, 4))
    run_ablation([], [query], Qrels({"q": {"d": 1}}), SweepSpec(), scratch_dir=tmp_path)


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
        ValueError, "doc 'd' has 1 sizes and chunks of shape (2, 4), expected K >= 1 of each"),
    "manifest-without-entries": (
        manifest_without_entries, ManifestError, "is missing dim or entries"),
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
        ValueError, "k must be at least 1, got 0"),
    "compressed-doc-misshaped-chunks": (
        lambda tmp: CompressedDocument(doc_id="d", k=2, dim=4, chunks=np.eye(2, 3),
                                       chunk_sizes=np.ones(2)),
        ValueError, "expected chunks of shape (2, 4), got (2, 3)"),
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
    "synthetic-zero-query-tokens": (
        lambda tmp: SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(2, 2), dim=4,
                                  signal_patches=1, query_tokens=0),
        ValueError, "query_tokens must be at least 1"),
    "ablation-without-docs": (
        ablation_without_docs, ValueError, "ablation needs at least one document and one query"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_is_typed_and_leaves_nothing(tmp_path, case):
    action, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        action(tmp_path)
    assert type(info.value) is error
    assert list(tmp_path.iterdir()) == []
