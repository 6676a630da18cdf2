import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from colchunk import scorer, types
from colchunk.scorer import ScoredHit, maxsim, retrieve, retrieve_many
from colchunk.store import BuildMeta, CorpusIndex, read_index, write_index
from colchunk.types import CompressedDocument, QueryEmbeddingSet

from oracles import naive_maxsim, naive_retrieve


def index_of(docs, dim=None):
    """A CorpusIndex over ``docs``, the one corpus form ``retrieve`` takes."""
    meta = BuildMeta(omega=0.2, k_target=4, method="hac_ward", posenc_base=10000.0,
                     tool_version="0.1.0")
    return CorpusIndex(dim=dim or docs[0].dim, docs=docs, build_meta=meta)


def make_doc(rng, doc_id="d", k=4, dim=8):
    chunks = rng.normal(size=(k, dim))
    chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
    return CompressedDocument(
        doc_id=doc_id, k=k, dim=dim, chunks=chunks,
        chunk_sizes=np.ones(k, dtype=np.int64),
    )


class TestMaxsim:
    def test_basis_vectors_by_hand(self):
        # chunks e1, e2; tokens pick their best chunk independently
        chunks = np.array([[1.0, 0.0], [0.0, 1.0]])
        doc = CompressedDocument(
            doc_id="d", k=2, dim=2, chunks=chunks, chunk_sizes=np.array([1, 1])
        )
        q = QueryEmbeddingSet(
            query_id="q", dim=2, vectors=np.array([[2.0, 0.0], [0.0, 0.5]])
        )
        assert maxsim(q, doc) == 2.0

    def test_antialigned_token_scores_negative(self):
        chunks = np.array([[1.0, 0.0]])
        doc = CompressedDocument(
            doc_id="d", k=1, dim=2, chunks=chunks, chunk_sizes=np.array([1])
        )
        q = QueryEmbeddingSet(query_id="q", dim=2, vectors=np.array([[-3.0, 0.0]]))
        assert maxsim(q, doc) == -1.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(40):
            n_tok = int(rng.integers(1, 9))
            k = int(rng.integers(1, 17))
            dim = int(rng.choice([4, 8, 32]))
            doc = make_doc(rng, k=k, dim=dim)
            q = QueryEmbeddingSet(
                query_id="q", dim=dim, vectors=rng.normal(size=(n_tok, dim))
            )
            expected = naive_maxsim(q.vectors.tolist(), doc.chunks.tolist())
            assert abs(maxsim(q, doc) - expected) <= 1e-12

    def test_score_bounds(self, rng):
        doc = make_doc(rng, k=6)
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(5, 8)))
        s = maxsim(q, doc)
        assert -5.0 - 1e-12 <= s <= 5.0 + 1e-12

    def test_invariant_to_query_token_scale(self, rng):
        doc = make_doc(rng)
        base = rng.normal(size=(3, 8))
        q1 = QueryEmbeddingSet(query_id="q", dim=8, vectors=base)
        q2 = QueryEmbeddingSet(query_id="q", dim=8, vectors=base * 7.5)
        assert abs(maxsim(q1, doc) - maxsim(q2, doc)) <= 1e-12

    def test_invariant_to_chunk_order(self, rng):
        doc = make_doc(rng, k=5)
        perm = np.array([3, 0, 4, 1, 2])
        shuffled = CompressedDocument(
            doc_id="d", k=5, dim=8, chunks=doc.chunks[perm],
            chunk_sizes=doc.chunk_sizes[perm],
        )
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(4, 8)))
        assert maxsim(q, doc) == maxsim(q, shuffled)

    def test_dim_mismatch_names_both_sides(self, rng):
        doc = make_doc(rng, doc_id="page-9", dim=8)
        q = QueryEmbeddingSet(query_id="q-3", dim=4, vectors=rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="page-9"):
            maxsim(q, doc)
        with pytest.raises(ValueError, match="q-3"):
            maxsim(q, doc)


class TestRetrieve:
    def test_orders_by_score_then_doc_id(self, rng):
        # identical docs tie; order must fall back to doc_id
        chunks = np.array([[1.0, 0.0]])
        docs = [
            CompressedDocument(doc_id=name, k=1, dim=2, chunks=chunks,
                               chunk_sizes=np.array([1]))
            for name in ("zeta", "alpha", "mid")
        ]
        q = QueryEmbeddingSet(query_id="q", dim=2, vectors=np.array([[1.0, 0.0]]))
        hits = retrieve(q, index_of(docs), top_k=3)
        assert [h.doc_id for h in hits] == ["alpha", "mid", "zeta"]
        assert [h.rank for h in hits] == [1, 2, 3]

    def test_descending_scores(self, rng):
        docs = [make_doc(rng, doc_id=f"d{i}") for i in range(8)]
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(3, 8)))
        hits = retrieve(q, index_of(docs), top_k=8)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_truncation(self, rng):
        docs = [make_doc(rng, doc_id=f"d{i}") for i in range(10)]
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(2, 8)))
        index = index_of(docs)
        assert len(retrieve(q, index, top_k=4)) == 4
        assert len(retrieve(q, index, top_k=50)) == 10

    def test_scores_match_maxsim(self, rng):
        docs = [make_doc(rng, doc_id=f"d{i}") for i in range(5)]
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(3, 8)))
        by_id = {d.doc_id: d for d in docs}
        for hit in retrieve(q, index_of(docs), top_k=5):
            assert hit.score == maxsim(q, by_id[hit.doc_id])

    def test_rejects_bad_top_k(self, rng):
        docs = [make_doc(rng)]
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(2, 8)))
        with pytest.raises(ValueError):
            retrieve(q, index_of(docs), top_k=0)

    def test_rejects_empty_index(self, rng):
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(2, 8)))
        with pytest.raises(ValueError):
            retrieve(q, index_of([], dim=8), top_k=5)

    def test_hit_is_frozen_record(self):
        hit = ScoredHit(doc_id="d", score=1.5, rank=1)
        with pytest.raises(AttributeError):
            hit.score = 2.0


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tie_corpus(rng, tokens, dim=16):
    """A query and docs with ragged K (K=1 included), three copies of one doc
    and a near-tie pair at the top.

    "z-best" holds the unit query tokens rounded to float32. "a-next" is the
    same with each token's largest component moved 1e-9 toward zero: less
    than half a float32 step, so both round to the same float32 chunks and a
    float32 ranking alone would put "a-next" first on doc_id, while its
    exact score is lower by about tokens * 1e-9 * 0.25.
    """
    q = rng.normal(size=(tokens, dim))
    best = unit_rows(q).astype(np.float32).astype(np.float64)
    nudged = best.copy()
    rows, cols = np.arange(tokens), np.abs(best).argmax(axis=1)
    nudged[rows, cols] -= 1e-9 * np.sign(best[rows, cols])
    parts = [(f"r{i:02d}", unit_rows(rng.normal(size=(1 if i % 7 == 0 else int(rng.integers(1, 13)), dim))))
             for i in range(30)]
    parts += [(name, parts[3][1]) for name in ("dup-b", "dup-a", "dup-c")]
    parts += [("z-best", best), ("a-next", nudged)]
    docs = [
        CompressedDocument(doc_id=doc_id, k=len(chunks), dim=dim, chunks=chunks,
                           chunk_sizes=np.arange(1, len(chunks) + 1))
        for doc_id, chunks in parts
    ]
    return QueryEmbeddingSet(query_id="q", dim=dim, vectors=q), docs


TOKEN_COUNTS = (1, 2, 3, 7, 16, 32, 64)


def tie_batch(rng):
    """Queries of each T in TOKEN_COUNTS over one corpus: every query brings
    its ``tie_corpus`` docs, ids suffixed with its T, so each has its own
    near-tie pair at the top."""
    queries, docs = [], []
    for tokens in TOKEN_COUNTS:
        q, own = tie_corpus(rng, tokens)
        queries.append(replace(q, query_id=f"q{tokens}"))
        docs += [replace(d, doc_id=f"{d.doc_id}-{tokens}") for d in own]
    return queries, docs


def k_corpus(rng, ks, dim=8, dtypes=(np.float64,)):
    """Docs of K ``ks[i]`` each, doc ``i``'s chunks in ``dtypes[i % len(dtypes)]``;
    the second and third copy the first's chunks, so where their dtypes agree
    their scores tie exactly and doc_id orders them."""
    chunks = [unit_rows(rng.normal(size=(k, dim))) for k in ks]
    chunks[1:3] = [chunks[0]] * 2
    return [CompressedDocument(doc_id=f"d{i:05d}", k=len(c), dim=dim,
                               chunks=c.astype(dtypes[i % len(dtypes)]),
                               chunk_sizes=np.ones(len(c), dtype=np.int64))
            for i, c in enumerate(chunks)]


def equal_and_ragged(k, block_rows):
    """Two blocks' worth of K=k docs, a few of small K, then two blocks' worth
    of K=k+1 docs: long contiguous runs of one K, and K=1 docs far apart."""
    return ([k] * (block_rows // k * 2) + [1, 3, 2, 5, 1, 4]
            + [k + 1] * (block_rows // (k + 1) * 2) + [6, 1])


def interleaved(k, block_rows):
    """Ks alternating k and k+1, two blocks' worth of each: no two docs of one K
    are adjacent, so every block of more than one doc is a gather."""
    return [k, k + 1] * (block_rows // k * 2)


# Per-document K of each corpus, given the block size in chunk rows. The
# candidate pass visits documents grouped by K: a block of one K is a slice
# of the chunk matrix when its documents are contiguous and a row gather when
# they are not.
K_CORPORA = {
    "equal-k40": lambda block_rows: [40] * 12,
    "uniform-k1": lambda block_rows: [1] * 30,
    "equal-and-ragged": lambda block_rows: equal_and_ragged(block_rows // 64 + 2, block_rows),
    "doc-longer-than-block": lambda block_rows: [4] * 5 + [block_rows + 3] + [4] * 5,
    "interleaved-k": lambda block_rows: interleaved(block_rows // 64 + 2, block_rows),
}
# Chunk dtypes cycled over a corpus's documents, float64 where not listed: an
# index of float32 documents stays float32, and one float64 document promotes
# the whole stack to float64. Each of these corpora has equal-and-ragged's Ks.
CORPUS_DTYPES = {
    "float32-equal-and-ragged": (np.float32,),
    "mixed-dtype-equal-and-ragged": (np.float32, np.float64),
}
K_CORPORA.update((name, K_CORPORA["equal-and-ragged"]) for name in CORPUS_DTYPES)
# Corpora where some K's documents are not contiguous, so the candidate pass
# gathers their rows wherever a block holds more than one of them:
# equal-and-ragged's K=1 documents, the K=4 documents on either side of
# doc-longer-than-block's long one, and every K of interleaved-k. The others
# are scored from slices alone.
GATHERED = {"equal-and-ragged", "doc-longer-than-block", "interleaved-k", *CORPUS_DTYPES}
# SLOT_MAJOR_DOCS_PER_TOKEN forced to each side of its rule: 0 scores every
# contiguous run of one K slot-major, 2**62 scores every block by the reshape.
SLOT_MAJOR_SIDES = (0, 2**62)


def split_k_groups(ks):
    """Whether some K's documents in ``ks`` are not contiguous."""
    ks = np.asarray(ks)
    return any(np.ptp(np.flatnonzero(ks == k)) >= np.count_nonzero(ks == k) for k in set(ks))


class TestCandidatePass:
    """``_approx_scores`` puts each (query, doc) score in that doc's column, within
    the float32 error bound of ``maxsim``, holding one block at a time."""

    @pytest.mark.parametrize("block_rows", [7, scorer.BLOCK_ROWS])
    @pytest.mark.parametrize("corpus", K_CORPORA)
    def test_scores_within_the_error_bound_of_maxsim(self, rng, monkeypatch, block_rows, corpus):
        monkeypatch.setattr(scorer, "BLOCK_ROWS", block_rows)
        docs = k_corpus(rng, K_CORPORA[corpus](block_rows),
                        dtypes=CORPUS_DTYPES.get(corpus, (np.float64,)))
        index = index_of(docs)
        tokens = np.array([1, 3, 8])
        queries = [QueryEmbeddingSet(query_id=f"q{t}", dim=8, vectors=rng.normal(size=(t, 8)))
                   for t in tokens]
        q32 = np.concatenate([types.unit_rows(q.vectors) for q in queries], dtype=np.float32)
        exact = np.array([[maxsim(q, d) for d in docs] for q in queries])
        bound = tokens * (8 + tokens + 2) * 2.0**-24
        for docs_per_token in SLOT_MAJOR_SIDES:
            monkeypatch.setattr(scorer, "SLOT_MAJOR_DOCS_PER_TOKEN", docs_per_token)
            approx = scorer._approx_scores(q32, np.cumsum([0, *tokens]), index.chunks,
                                           index.offsets)
            assert (np.abs(approx - exact) <= bound[:, None]).all(), docs_per_token

    @pytest.mark.parametrize("ks, tokens, folds", [
        ([3] * 64, 4, [64, 64]),
        ([3] * 63, 4, []),
        ([3] * 64, 5, []),
        # each K's documents interleaved: gathered blocks, however many
        ([3, 2] * 100, 4, []),
        # a document of another K, then a run of one K long enough
        ([2] + [3] * 64, 4, [64, 64]),
    ])
    def test_block_kind_follows_from_the_run_shape(self, rng, monkeypatch, ks, tokens, folds):
        # One K's documents are scored slot-major when they form one
        # contiguous run of at least SLOT_MAJOR_DOCS_PER_TOKEN per pass token.
        # Only the slot-major kind folds its products with np.maximum: K - 1
        # folds of a (docs, tokens) plane per block.
        assert scorer.SLOT_MAJOR_DOCS_PER_TOKEN == 16
        offsets = np.concatenate([[0], np.cumsum(ks)])
        chunks = types.unit_rows(rng.normal(size=(offsets[-1], 8))).astype(np.float32)
        q32 = types.unit_rows(rng.normal(size=(tokens, 8))).astype(np.float32)
        seen = []
        maximum = np.maximum

        def spy(*args, **kwargs):
            seen.append(len(args[0]))
            return maximum(*args, **kwargs)

        monkeypatch.setattr(np, "maximum", spy)
        scorer._approx_scores(q32, np.array([0, tokens]), chunks, offsets)
        assert seen == folds

    def test_pass_holds_one_gather_copy_not_the_corpus(self, rng):
        # A float32 corpus of five Ks in shuffled order, so its blocks are row
        # gathers: the pass holds one at a time and never copies the corpus.
        ks = rng.choice([40, 30, 20, 16, 12], size=2000)
        offsets = np.concatenate([[0], np.cumsum(ks)])
        chunks = rng.random((offsets[-1], 64), dtype=np.float32)
        q32 = types.unit_rows(rng.normal(size=(8, 64))).astype(np.float32)
        tracemalloc.start()
        try:
            scores = scorer._approx_scores(q32, np.array([0, 8]), chunks, offsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = scorer.BLOCK_ROWS * len(q32) * 4
        gather = scorer.BLOCK_ROWS * chunks.shape[1] * 4
        limit = buffer + gather + scores.nbytes + 2**18
        assert chunks.nbytes > 4 * limit
        assert peak < limit, (peak, limit)

    def test_slot_major_pass_holds_two_planes_not_the_corpus(self, rng):
        # A float32 corpus of one K, long enough for 64 tokens to be scored
        # slot-major in several blocks: BLAS reads each chunk slot in place,
        # so the pass holds its two (docs, tokens) float32 planes and the
        # float64 cast the token sum makes of one block's maxima, but no copy
        # of the corpus or of a chunk slot, and no reshape product buffer.
        docs, k, tokens, dim = 1100, 16, 64, 256
        assert docs >= scorer.SLOT_MAJOR_DOCS_PER_TOKEN * tokens
        chunks = rng.random((docs * k, dim), dtype=np.float32)
        q32 = types.unit_rows(rng.normal(size=(tokens, dim))).astype(np.float32)
        tracemalloc.start()
        try:
            scores = scorer._approx_scores(q32, np.array([0, tokens]), chunks,
                                           np.arange(docs + 1) * k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = min(docs, scorer.SLOT_MAJOR_BLOCK_DOCS)
        planes = 2 * block * tokens * 4
        cast = block * tokens * 8
        buffer = scorer.BLOCK_ROWS * tokens * 4
        limit = planes + cast + scores.nbytes + 2**18
        # a copy of one block's slot, or the reshape's buffer, breaks the limit
        assert planes + block * dim * 4 > limit and planes + cast + buffer > limit
        assert chunks.nbytes > 4 * limit
        assert planes + cast <= peak < limit, (peak, limit)

    def test_one_chunk_pass_takes_the_product_as_its_maxima(self, rng):
        # K = 1 documents, too few per token for slot-major: the reshape-max
        # block's product is its maxima as it stands. The pass holds that
        # product and the float64 cast the token sum makes of it, 3 products
        # in all, and no copy of it (a max over the reshape made a fourth).
        docs, tokens, dim = scorer.BLOCK_ROWS, 1024, 64
        assert docs < scorer.SLOT_MAJOR_DOCS_PER_TOKEN * tokens
        chunks = types.unit_rows(rng.normal(size=(docs, dim))).astype(np.float32)
        q32 = types.unit_rows(rng.normal(size=(tokens, dim))).astype(np.float32)
        tracemalloc.start()
        try:
            scorer._approx_scores(q32, np.array([0, tokens]), chunks, np.arange(docs + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        product = docs * tokens * 4
        assert peak <= 3.1 * product, peak / product


class TestRetrieveEquivalence:
    """``retrieve`` and ``retrieve_many`` return the ids, score bits and ranks of the
    per-document loop."""

    @pytest.mark.parametrize("block_rows", [7, scorer.BLOCK_ROWS])
    @pytest.mark.parametrize("tokens", [1, 2, 3, 7, 16, 32, 64])
    def test_matches_per_document_loop(self, rng, tmp_path, monkeypatch, tokens, block_rows):
        monkeypatch.setattr(scorer, "BLOCK_ROWS", block_rows)
        q, docs = tie_corpus(rng, tokens)
        by_id = {d.doc_id: d for d in docs}
        best, nudged = by_id["z-best"].chunks, by_id["a-next"].chunks
        assert np.array_equal(best.astype(np.float32), nudged.astype(np.float32))
        assert maxsim(q, by_id["z-best"]) > maxsim(q, by_id["a-next"])
        memory = index_of(docs)
        write_index(memory, tmp_path / "t.cchk")
        disk = read_index(tmp_path / "t.cchk")
        n = len(docs)
        for index, reference in ((memory, docs), (disk, disk.docs)):
            for top_k in (1, 2, 3, 10, n, n + 5):
                got = [(h.doc_id, h.score.hex(), h.rank) for h in retrieve(q, index, top_k)]
                want = [(d, s.hex(), r) for d, s, r in naive_retrieve(q, reference, top_k)]
                assert got == want, (type(index).__name__, top_k)

    @pytest.mark.parametrize("block_rows", [7, scorer.BLOCK_ROWS])
    @pytest.mark.parametrize("corpus", K_CORPORA)
    def test_equal_k_blocks_match_per_document_loop(self, rng, tmp_path, monkeypatch,
                                                    block_rows, corpus):
        monkeypatch.setattr(scorer, "BLOCK_ROWS", block_rows)
        ks = K_CORPORA[corpus](block_rows)
        assert split_k_groups(ks) == (corpus in GATHERED)
        dtypes = CORPUS_DTYPES.get(corpus, (np.float64,))
        docs = k_corpus(rng, ks, dtypes=dtypes)
        queries = [QueryEmbeddingSet(query_id=f"q{t}", dim=8, vectors=rng.normal(size=(t, 8)))
                   for t in (1, 3, 8)]
        memory = index_of(docs)
        assert memory.chunks.dtype == (np.float32 if dtypes == (np.float32,) else np.float64)
        write_index(memory, tmp_path / "t.cchk")
        disk = read_index(tmp_path / "t.cchk")
        n = len(docs)
        for index, reference in ((memory, docs), (disk, disk.docs)):
            full = [[(d, s.hex(), r) for d, s, r in naive_retrieve(q, reference, n)]
                    for q in queries]
            for docs_per_token, top_k in itertools.product(SLOT_MAJOR_SIDES,
                                                           (1, 2, 5, n - 1, n, n + 1)):
                monkeypatch.setattr(scorer, "SLOT_MAJOR_DOCS_PER_TOKEN", docs_per_token)
                got = [[(h.doc_id, h.score.hex(), h.rank) for h in retrieve(q, index, top_k)]
                       for q in queries]
                assert got == [ranking[:top_k] for ranking in full], (
                    type(index).__name__, docs_per_token, top_k)
                assert retrieve_many(queries, index, top_k) == [retrieve(q, index, top_k)
                                                                for q in queries]

    @pytest.mark.parametrize("tokens", [1, 8, 64])
    def test_any_candidate_pass_within_the_error_bound_is_exact(self, rng, monkeypatch, tokens):
        # Every approximate score is off by the full float32 error bound, in
        # the direction that pushes docs across the cut.
        q, docs = tie_corpus(rng, tokens)
        exact = np.array([maxsim(q, d) for d in docs])
        bound = tokens * (q.dim + tokens + 2) * 2.0**-24
        for top_k in (1, 2, 3):
            kth = np.sort(exact)[-top_k]
            adversarial = np.where(exact >= kth, exact - bound, exact + bound)
            monkeypatch.setattr(scorer, "_approx_scores", lambda *_: adversarial[None])
            got = [(h.doc_id, h.score, h.rank) for h in retrieve(q, index_of(docs), top_k)]
            assert got == naive_retrieve(q, docs, top_k)
        assert got[0][0] == "z-best"

    @pytest.mark.parametrize("max_pass_tokens", [40, scorer.MAX_PASS_TOKENS])
    @pytest.mark.parametrize("block_rows", [7, scorer.BLOCK_ROWS])
    def test_batch_matches_per_document_loop(self, rng, tmp_path, monkeypatch, block_rows,
                                             max_pass_tokens):
        monkeypatch.setattr(scorer, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(scorer, "MAX_PASS_TOKENS", max_pass_tokens)
        passes = []
        approx_scores = scorer._approx_scores

        def spy(q32, token_offsets, chunks, offsets):
            passes.append(np.diff(token_offsets).tolist())
            return approx_scores(q32, token_offsets, chunks, offsets)

        monkeypatch.setattr(scorer, "_approx_scores", spy)
        queries, docs = tie_batch(rng)
        memory = index_of(docs)
        write_index(memory, tmp_path / "t.cchk")
        disk = read_index(tmp_path / "t.cchk")
        n = len(docs)
        for index, reference in ((memory, docs), (disk, disk.docs)):
            full = [[(d, s.hex(), r) for d, s, r in naive_retrieve(q, reference, n)]
                    for q in queries]
            for docs_per_token, top_k in itertools.product(
                    SLOT_MAJOR_SIDES, (*range(1, 13), n // 2, n - 1, n, n + 1, n + 5)):
                monkeypatch.setattr(scorer, "SLOT_MAJOR_DOCS_PER_TOKEN", docs_per_token)
                passes.clear()
                got = [[(h.doc_id, h.score.hex(), h.rank) for h in hits]
                       for hits in retrieve_many(queries, index, top_k)]
                assert got == [ranking[:top_k] for ranking in full], (
                    type(index).__name__, docs_per_token, top_k)
                if top_k < n and max_pass_tokens == 40:
                    # 1+2+3+7+16 tokens fit under 40; 32 does not join them, 64 exceeds it
                    assert passes == [[1, 2, 3, 7, 16], [32], [64]]
                elif top_k < n:
                    assert passes == [list(TOKEN_COUNTS)]
                else:
                    assert passes == []

    def test_any_batch_candidate_pass_within_each_querys_bound_is_exact(self, rng, monkeypatch):
        # Each query's approximate scores are off by its own full float32
        # error bound, which grows with T, in the direction that pushes docs
        # across its cut: a slack shared across the batch would lose the
        # long queries' true top docs.
        queries, docs = tie_batch(rng)
        index = index_of(docs)
        exact = np.array([[maxsim(q, d) for d in docs] for q in queries])
        bounds = np.array([[t * (q.dim + t + 2) * 2.0**-24] for q, t in
                           zip(queries, TOKEN_COUNTS)])
        for top_k in (1, 2, 3):
            kth = np.sort(exact, axis=1)[:, [-top_k]]
            adversarial = np.where(exact >= kth, exact - bounds, exact + bounds)
            rows = dict(zip(TOKEN_COUNTS, adversarial))
            monkeypatch.setattr(scorer, "_approx_scores",
                                lambda _q32, token_offsets, *_: np.array(
                                    [rows[t] for t in np.diff(token_offsets)]))
            got = [[(h.doc_id, h.score, h.rank) for h in hits]
                   for hits in retrieve_many(queries, index, top_k)]
            assert got == [naive_retrieve(q, docs, top_k) for q in queries]
        assert [hits[0][0] for hits in got] == [f"z-best-{t}" for t in TOKEN_COUNTS]

    def test_empty_batch_returns_empty_list(self, rng):
        assert retrieve_many([], index_of([make_doc(rng)]), top_k=3) == []

    def test_batch_dim_mismatch_names_the_query(self, rng):
        index = index_of([make_doc(rng, dim=8)])
        ok = QueryEmbeddingSet(query_id="fine", dim=8, vectors=rng.normal(size=(2, 8)))
        bad = QueryEmbeddingSet(query_id="q-wide", dim=4, vectors=rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="q-wide"):
            retrieve_many([ok, bad], index, top_k=1)
