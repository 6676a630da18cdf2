"""Late-interaction scoring and exhaustive retrieval over compressed pages.

The relevance of a document is the sum over query tokens of the best cosine
against any of the document's chunk vectors. Chunks are stored unit-norm, so
only the query side needs normalizing and the inner loop is one matrix
product.

``retrieve_many`` ranks a whole corpus for a batch of queries in two stages
and returns, for each query, exactly what scoring every document with
``maxsim`` would; ``retrieve`` is its one-query case.

1. A candidate pass stacks the unit tokens of up to ``MAX_PASS_TOKENS``
   query tokens (whole queries only; a longer query is a pass of its own)
   into one float32 matrix of T tokens. It visits documents grouped by K
   (``compress`` emits K = min(k, n), so a corpus of one grid is one
   contiguous run of one K) and scores each K by one of two block kinds,
   chosen from the shape alone:

   - *Slot-major*, when the K's documents form one contiguous run of at
     least ``SLOT_MAJOR_DOCS_PER_TOKEN`` x T documents. A block holds at most
     ``SLOT_MAJOR_BLOCK_DOCS`` documents. For each chunk slot j, one float32
     product of the block's j-th chunks (a strided view that BLAS reads in
     place) with the tokens fills a (docs, T) plane, folded into a running
     max by ``np.maximum``.
   - *Reshape-max* otherwise. A block holds at most ``BLOCK_ROWS`` chunk
     rows (or one longer document): a slice of the chunk matrix when its
     documents are contiguous, else a gather of their rows. Its one rows x T
     product is reshaped to ``(docs, K, T)`` and maxed over K, as ColBERT
     max-pools a stack of documents. At K = 1 the product already is the
     maxima, and is taken as it is, with no copy.

   A long run suits slot-major: the reshape-max of few tokens runs numpy
   inner loops only T floats long, while slot-major pays K products per
   block, which a short run or a wide pass does not repay. Both maxima are
   exact, so the kinds differ only in how the products round. A float64 sum
   over each query's tokens (``np.add.reduceat`` over the token offsets)
   follows. Each query keeps every document whose approximate score is at
   least its own k-th best approximate score minus its own

       slack = 4 * T * (dim + T + 2) * eps32      (T query tokens)

   For unit vectors, rounding both sides to float32, the dim-term float32
   dot products and a T-term float32 sum over tokens move a score by at most
   ``T * (dim + T + 2) * 2**-24``, in any summation order; the sum here is
   float64, which only tightens that. A document whose exact score reaches
   the k-th best exact score is therefore within twice the bound of the k-th
   best approximate one, and the slack is 8 times the bound. So the result
   does not depend on how a pass orders its float32 arithmetic, nor on
   which queries share it.
2. Each candidate is rescored with the float64 kernel ``maxsim`` uses, whose
   one upcast widens float32 chunk rows, and the candidates are sorted by
   descending score, ties broken by ascending doc_id.

Memory of a pass: each block kind's buffers are made when a block first
needs them, and reused by every later block of that kind.

- Reshape-max: one product buffer of at most ``MAX_PASS_TOKENS x
  BLOCK_ROWS`` float32 (16 MiB; a longer query or document raises its
  factor, so a 2,048-token query over 4,096 or more rows needs 32 MiB), and
  one gather copy of at most ``BLOCK_ROWS`` rows.
- Slot-major: two (docs, T) float32 planes of at most
  ``SLOT_MAJOR_BLOCK_DOCS`` x T (128 KiB at 32 tokens). A float32 corpus is
  read in place; a float64 one is cast one slot at a time, a copy of at most
  ``SLOT_MAJOR_BLOCK_DOCS`` rows.

Each block's maxima are cast to float64 for the token sum, 8 bytes per
(document, token) of the block. A pass also holds the approximate scores,
one float64 per (query in the pass, document).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import CorpusIndex
from .types import CompressedDocument, QueryEmbeddingSet, check_count, unit_rows

__all__ = ["ScoredHit", "maxsim", "retrieve", "retrieve_many"]

# Chunk rows per float32 block of the candidate pass (whole documents only;
# a document longer than this is a block of its own).
BLOCK_ROWS = 4096
# Query tokens stacked into one candidate pass (whole queries only; a query
# longer than this is a pass of its own).
MAX_PASS_TOKENS = 1024
# A K whose documents form one contiguous run of at least this many per pass
# token is scored slot-major; shorter runs and gathered blocks by the reshape.
SLOT_MAJOR_DOCS_PER_TOKEN = 16
# Documents per slot-major block. Its two (docs, tokens) float32 planes, 128
# KiB each at 32 tokens, stay in L2 while the block's K products are folded
# in. Blocks of 256 documents ran 128-token passes 25% slower; one block of
# all 3,000 serve documents at 32 tokens ran no faster and raised the serve
# benchmark's peak RSS by 0.6 MiB.
SLOT_MAJOR_BLOCK_DOCS = 1024
_EPS32 = float(np.finfo(np.float32).eps)


@dataclass(frozen=True)
class ScoredHit:
    doc_id: str
    score: float
    rank: int


def _late_interaction(q: np.ndarray, chunks: np.ndarray) -> float:
    """Sum over unit query tokens ``q`` of the best dot with a chunk row, upcast
    to float64 here alone, so float32 and float64 twins score the same bits."""
    sims = q @ chunks.astype(np.float64, copy=False).T
    return float(sims.max(axis=1).sum())


def _check_dim(query: QueryEmbeddingSet, dim: int, owner: str) -> None:
    """The dimension rule of scoring: ValueError unless ``query`` has ``owner``'s ``dim``."""
    if query.dim != dim:
        raise ValueError(f"dimension mismatch: query '{query.query_id}' has dim {query.dim}, "
                         f"{owner} has dim {dim}")


def maxsim(query: QueryEmbeddingSet, doc: CompressedDocument) -> float:
    """Late-interaction score: sum over tokens of the best chunk cosine.

    Query tokens are normalized lazily here; document chunks are already
    unit vectors by construction. The result lies in
    ``[-n_tokens, n_tokens]``.
    """
    _check_dim(query, doc.dim, f"doc '{doc.doc_id}'")
    return _late_interaction(unit_rows(query.vectors), doc.chunks)


def _runs(offsets: np.ndarray, cap: int):
    """``(start, stop)`` runs of whole items, item ``i`` owning rows
    ``offsets[i]:offsets[i + 1]``, each run spanning at most ``cap`` rows
    unless it is a single item longer than that."""
    n = len(offsets) - 1
    start = 0
    while start < n:
        fits = int(np.searchsorted(offsets, offsets[start] + cap, side="right")) - 1
        stop = max(fits, start + 1)
        yield start, stop
        start = stop


def _approx_scores(
    q32: np.ndarray, token_offsets: np.ndarray, chunks: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Float32 late-interaction scores of every document, block by block.

    ``q32`` stacks the unit tokens of several queries, query ``j`` owning
    rows ``token_offsets[j]:token_offsets[j + 1]``. Row ``j`` of the
    ``(queries, docs)`` result holds query ``j``'s scores, summed in float64.
    """
    scores = np.empty((len(token_offsets) - 1, len(offsets) - 1))
    ks = np.diff(offsets)
    tokens = len(q32)
    # Each block kind's buffers are made on first use and shared by its
    # blocks (a fresh product per block made 8-query passes 17-30% slower).
    buf = planes = None
    order = np.argsort(ks, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(ks[order])) + 1):
        k = ks[group[0]]
        slot_major = (group[-1] - group[0] == len(group) - 1
                      and len(group) >= SLOT_MAJOR_DOCS_PER_TOKEN * tokens)
        step = SLOT_MAJOR_BLOCK_DOCS if slot_major else max(BLOCK_ROWS // k, 1)
        for at in range(0, len(group), step):
            docs = group[at : at + step]
            lo, rows = offsets[docs[0]], len(docs) * k
            if slot_major:
                # One product per chunk slot j, read by BLAS in place from a
                # strided view, folded into a running max.
                if planes is None:
                    planes = np.empty((2, min(step, len(ks)), tokens), np.float32)
                slots = chunks[lo : lo + rows].reshape(len(docs), k, -1)
                best, plane = planes[:, : len(docs)]
                np.matmul(slots[:, 0].astype(np.float32, copy=False), q32.T, out=best)
                for j in range(1, k):
                    np.matmul(slots[:, j].astype(np.float32, copy=False), q32.T, out=plane)
                    np.maximum(best, plane, out=best)
            else:
                # A slice when the block's documents are contiguous, and else
                # a gather of at most BLOCK_ROWS rows, left unnamed so that it
                # is freed before the next is made (gathering every block ran
                # one K 1.25-1.7x slower).
                if buf is None:
                    buf = np.empty(max(min(BLOCK_ROWS, offsets[-1]), ks.max()) * tokens,
                                   np.float32)
                take = (slice(lo, lo + rows) if docs[-1] - docs[0] == len(docs) - 1
                        else (offsets[docs, None] + np.arange(k)).ravel())
                out = buf[: rows * tokens].reshape(rows, -1)
                sims = np.matmul(chunks[take].astype(np.float32, copy=False), q32.T, out=out)
                # With one chunk per document the product is its maxima.
                best = sims if k == 1 else sims.reshape(len(docs), k, -1).max(axis=1)
            scores[:, docs] = np.add.reduceat(best.T, token_offsets[:-1], axis=0,
                                              dtype=np.float64)
    return scores


def retrieve_many(
    queries: Sequence[QueryEmbeddingSet], index: CorpusIndex, top_k: int
) -> list[list[ScoredHit]]:
    """Score every document in the index for each query; the top ``top_k`` hits of each.

    Returns one hit list per query, in the order given; an empty batch
    gives ``[]``. Each list is what ``retrieve`` returns for that query
    alone: descending score, ties broken by ascending doc_id, ranks from 1
    to ``min(top_k, corpus size)``, scores equal to ``maxsim`` bit for bit.
    """
    top_k = check_count(top_k, "top_k")
    for query in queries:
        _check_dim(query, index.dim, "index")
    ids, offsets, chunks = index.ids, index.offsets, index.chunks
    n = len(ids)
    if not n:
        raise ValueError("cannot retrieve from an empty index")
    bounds = offsets.tolist()

    def ranked(q: np.ndarray, candidates) -> list[ScoredHit]:
        scored = [(ids[i], _late_interaction(q, chunks[bounds[i] : bounds[i + 1]]))
                  for i in candidates]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [
            ScoredHit(doc_id=doc_id, score=score, rank=position + 1)
            for position, (doc_id, score) in enumerate(scored[:top_k])
        ]

    units = [unit_rows(query.vectors) for query in queries]
    if top_k >= n:
        return [ranked(q, range(n)) for q in units]
    token_offsets = np.cumsum([0] + [len(q) for q in units])
    hits = []
    for start, stop in _runs(token_offsets, MAX_PASS_TOKENS):
        batch = units[start:stop]
        pass_offsets = token_offsets[start : stop + 1] - token_offsets[start]
        q32 = np.concatenate(batch, dtype=np.float32)
        approx = _approx_scores(q32, pass_offsets, chunks, offsets)
        kth = np.partition(approx, n - top_k, axis=1)[:, n - top_k]
        tokens = np.diff(pass_offsets)
        slack = 4 * tokens * (index.dim + tokens + 2) * _EPS32
        cuts = kth - slack
        hits += [ranked(q, np.flatnonzero(row >= cut)) for q, row, cut in zip(batch, approx, cuts)]
    return hits


def retrieve(query: QueryEmbeddingSet, index: CorpusIndex, top_k: int) -> list[ScoredHit]:
    """Score every document in the index and return the top ``top_k`` hits.

    The one-query case of ``retrieve_many``. A list of compressed documents
    becomes an index through ``CorpusIndex(dim=, docs=, build_meta=)``.
    Ordering is deterministic: descending score, ties broken by ascending
    doc_id. Ranks run from 1 to ``min(top_k, corpus size)``. Scores equal
    ``maxsim`` bit for bit.
    """
    return retrieve_many([query], index, top_k)[0]
