"""Late-interaction scoring and exhaustive retrieval over compressed pages.

The relevance of a document is the sum over query tokens of the best cosine
against any of the document's chunk vectors. Chunks are stored unit-norm, so
only the query side needs normalizing and the inner loop is one matrix
product.

``retrieve`` ranks a whole corpus in two stages and returns exactly what
scoring every document with ``maxsim`` would:

1. A candidate pass scores blocks of whole documents, at most ``BLOCK_ROWS``
   chunk rows each, with one float32 matrix product per block, a max over
   each document's rows (``np.maximum.reduceat`` over the offsets) and a sum
   over tokens. It keeps every document whose approximate score is at least
   the k-th best approximate score minus

       slack = 4 * T * (dim + T + 2) * eps32      (T query tokens)

   For unit vectors, rounding both sides to float32, the dim-term float32
   dot products and a T-term float32 sum over tokens move a score by at most
   ``T * (dim + T + 2) * 2**-24``; the sum here is float64, which only
   tightens that. A document whose exact score reaches the k-th best exact
   score is therefore within twice the bound of the k-th best approximate
   one, and the slack is 8 times the bound.
2. Each candidate is rescored with the float64 kernel ``maxsim`` uses, on its
   chunk rows upcast to float64, and the candidates are sorted by descending
   score, ties broken by ascending doc_id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import CorpusIndex
from .types import CompressedDocument, QueryEmbeddingSet

__all__ = ["ScoredHit", "maxsim", "retrieve"]

# Chunk rows per float32 block of the candidate pass (whole documents only;
# a document longer than this is a block of its own).
BLOCK_ROWS = 4096
_EPS32 = float(np.finfo(np.float32).eps)


@dataclass(frozen=True)
class ScoredHit:
    doc_id: str
    score: float
    rank: int


def _unit_tokens(query: QueryEmbeddingSet) -> np.ndarray:
    q = query.vectors
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _late_interaction(q: np.ndarray, chunks: np.ndarray) -> float:
    """Sum over unit query tokens ``q`` of the best dot with a float64 chunk row."""
    sims = q @ chunks.T
    return float(sims.max(axis=1).sum())


def maxsim(query: QueryEmbeddingSet, doc: CompressedDocument) -> float:
    """Late-interaction score: sum over tokens of the best chunk cosine.

    Query tokens are normalized lazily here; document chunks are already
    unit vectors by construction. The result lies in
    ``[-n_tokens, n_tokens]``.
    """
    if query.dim != doc.dim:
        raise ValueError(
            f"dimension mismatch: query '{query.query_id}' has dim {query.dim}, "
            f"doc '{doc.doc_id}' has dim {doc.dim}"
        )
    return _late_interaction(_unit_tokens(query), doc.chunks)


def _approx_scores(q32: np.ndarray, chunks: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Float32 late-interaction scores of every document, block by block."""
    n = len(offsets) - 1
    scores = np.empty(n)
    start = 0
    while start < n:
        fits = int(np.searchsorted(offsets, offsets[start] + BLOCK_ROWS, side="right")) - 1
        stop = max(fits, start + 1)
        lo, hi = offsets[start], offsets[stop]
        sims = q32 @ chunks[lo:hi].astype(np.float32, copy=False).T
        best = np.maximum.reduceat(sims, offsets[start:stop] - lo, axis=1)
        scores[start:stop] = best.sum(axis=0, dtype=np.float64)
        start = stop
    return scores


def retrieve(query: QueryEmbeddingSet, index: CorpusIndex, top_k: int) -> list[ScoredHit]:
    """Score every document in the index and return the top ``top_k`` hits.

    A list of compressed documents becomes an index through
    ``CorpusIndex(dim=, docs=, build_meta=)``. Ordering is deterministic:
    descending score, ties broken by ascending doc_id. Ranks run from 1 to
    ``min(top_k, corpus size)``. Scores equal ``maxsim`` bit for bit.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    if index.dim != query.dim:
        raise ValueError(
            f"dimension mismatch: query '{query.query_id}' has dim {query.dim}, "
            f"index has dim {index.dim}"
        )
    ids, offsets, chunks = index.ids, index.offsets, index.chunks
    n = len(ids)
    if not n:
        raise ValueError("cannot retrieve from an empty index")
    q = _unit_tokens(query)
    candidates = range(n)
    if top_k < n:
        approx = _approx_scores(q.astype(np.float32), chunks, offsets)
        kth = np.partition(approx, n - top_k)[n - top_k]
        tokens, dim = q.shape
        slack = 4 * tokens * (dim + tokens + 2) * _EPS32
        candidates = np.flatnonzero(approx >= kth - slack)
    bounds = offsets.tolist()
    scored = [
        (ids[i], _late_interaction(q, chunks[bounds[i] : bounds[i + 1]].astype(np.float64)))
        for i in candidates
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [
        ScoredHit(doc_id=doc_id, score=score, rank=position + 1)
        for position, (doc_id, score) in enumerate(scored[:top_k])
    ]
