import re

import numpy as np
import pytest

from colchunk import types
from colchunk.posenc import encode_batch
from colchunk.scorer import maxsim
from colchunk.types import (
    UNIT_NORM_TOL,
    ChunkAssignment,
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
    check_compressed,
    grid_coords,
    unit_rows,
)

from conftest import make_pset


class TestPatchGrid:
    def test_counts(self):
        assert PatchGrid(rows=32, cols=24).n_patches == 768

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-1, 3)])
    def test_rejects_nonpositive(self, rows, cols):
        with pytest.raises(ValueError):
            PatchGrid(rows=rows, cols=cols)


class TestPatchCoords:
    # rows of grid_coords; centers: x = (col + 0.5) / cols, y = (row + 0.5) / rows
    def test_single_cell_center(self):
        assert grid_coords(PatchGrid(rows=1, cols=1)).tolist() == [[0.5, 0.5]]

    def test_last_cell_of_2x2(self):
        assert grid_coords(PatchGrid(rows=2, cols=2))[3].tolist() == [0.75, 0.75]

    def test_row_major_order(self):
        # j=5 in a 4x2 grid sits at row 2, col 1
        assert grid_coords(PatchGrid(rows=4, cols=2))[5].tolist() == [0.75, 0.625]

    def test_out_of_range_index(self):
        # one row per patch, so patch 4 of a 2x2 grid has no row
        table = grid_coords(PatchGrid(rows=2, cols=2))
        assert table.shape == (4, 2)
        with pytest.raises(IndexError):
            table[4]

    def test_grid_coords_matches_scalar(self):
        grid = PatchGrid(rows=3, cols=5)
        table = grid_coords(grid)
        assert table.shape == (15, 2)
        for j in range(grid.n_patches):
            row, col = divmod(j, grid.cols)
            assert table[j, 0] == (col + 0.5) / grid.cols
            assert table[j, 1] == (row + 0.5) / grid.rows

    def test_coords_stay_inside_unit_square(self):
        table = grid_coords(PatchGrid(rows=7, cols=3))
        assert table.min() > 0.0
        assert table.max() < 1.0


class TestNormalizedCoords:
    # normalized coordinates are (n, 2) arrays; encode_batch holds the range check
    def test_range_check(self):
        encode_batch(8, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            encode_batch(8, np.array([[1.5, 0.5]]))
        with pytest.raises(ValueError):
            encode_batch(8, np.array([[0.5, -0.1]]))


def page(vectors, rows=2, cols=2, dim=8):
    return PatchEmbeddingSet(doc_id="d", dim=dim, grid=PatchGrid(rows=rows, cols=cols),
                             vectors=vectors)


class TestValidate:
    """A PatchEmbeddingSet validates at construction and raises on a violation."""

    def test_clean_set_passes(self, rng):
        vecs = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(page(vecs).vectors, vecs)

    def test_count_mismatch_message(self, rng):
        with pytest.raises(ValueError, match=r"doc 'd': count mismatch: 3 != 4"):
            page(rng.normal(size=(3, 8)))

    def test_nonfinite_component_flagged(self, rng):
        for bad in (np.nan, np.inf, -np.inf):
            vecs = rng.normal(size=(4, 8))
            vecs[2, 5] = bad
            with pytest.raises(ValueError, match=r"vectors\[2\] has a non-finite component"):
                page(vecs)

    def test_zero_norm_vector_flagged(self, rng):
        vecs = rng.normal(size=(4, 8))
        vecs[1] = 0.0
        with pytest.raises(ValueError, match=r"vectors\[1\] has zero norm"):
            page(vecs)
        # squares that underflow give a zero np.linalg.norm, which fuse
        # would divide by, so such a row counts as zero too
        vecs[1] = 1e-170
        assert np.linalg.norm(vecs[1]) == 0.0
        with pytest.raises(ValueError, match=r"vectors\[1\] has zero norm"):
            page(vecs)

    def test_wrong_width_flagged(self, rng):
        with pytest.raises(ValueError, match="expected 8 components per vector, got 6"):
            page(rng.normal(size=(4, 6)))

    def test_first_bad_row_is_named(self, rng):
        vecs = rng.normal(size=(4, 8))
        vecs[3, 0] = np.nan
        vecs[1] = 0.0
        with pytest.raises(ValueError, match=r"vectors\[1\] has zero norm"):
            page(vecs)

    def test_tiny_and_huge_finite_vectors_pass(self, rng):
        # 1e200 squared overflows to inf, which must not read as non-finite
        vecs = rng.normal(size=(4, 8))
        vecs[0] = 1e-150
        vecs[2] = 1e200
        page(vecs)


class TestFusedFeatureSet:
    def test_omega_bounds(self, rng):
        vecs = rng.normal(size=(4, 8))
        FusedFeatureSet(omega=0.0, vectors=vecs)
        FusedFeatureSet(omega=1.0, vectors=vecs)
        with pytest.raises(ValueError):
            FusedFeatureSet(omega=1.2, vectors=vecs)
        with pytest.raises(ValueError):
            FusedFeatureSet(omega=-0.1, vectors=vecs)

    def test_rejects_nonfinite(self, rng):
        vecs = rng.normal(size=(4, 8))
        vecs[0, 0] = np.inf
        with pytest.raises(ValueError):
            FusedFeatureSet(omega=0.5, vectors=vecs)


class TestChunkAssignment:
    def test_valid_partition(self):
        asg = ChunkAssignment(np.array([0, 1, 0, 1]))
        assert asg.k == 2
        assert asg.sizes.tolist() == [2, 2]

    def test_rejects_empty_chunk(self):
        with pytest.raises(ValueError, match="chunk 1 is empty"):
            ChunkAssignment(np.array([0, 0, 2, 2]))
        with pytest.raises(ValueError, match="at least one patch"):
            ChunkAssignment(np.array([], dtype=np.int64))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError, match="must lie in"):
            ChunkAssignment(np.array([0, -1, 0, 1]))
        with pytest.raises(ValueError, match="must lie in"):
            ChunkAssignment(np.array([0, 10**12]))  # refused before any bincount


class TestCompressedDocument:
    def test_unit_norm_enforced(self, rng):
        chunks = rng.normal(size=(3, 8))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        doc = CompressedDocument(
            doc_id="d", k=3, dim=8, chunks=chunks, chunk_sizes=np.array([4, 2, 2])
        )
        assert int(doc.chunk_sizes.sum()) == 8

    def test_rejects_non_unit_chunks(self, rng):
        chunks = rng.normal(size=(3, 8)) * 5.0
        with pytest.raises(ValueError):
            CompressedDocument(
                doc_id="d", k=3, dim=8, chunks=chunks, chunk_sizes=np.array([1, 1, 1])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_chunks(self, rng, bad):
        chunks = rng.normal(size=(2, 8))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        chunks[1, 3] = bad
        with pytest.raises(ValueError, match="chunk 1 is not unit norm"):
            CompressedDocument(
                doc_id="d", k=2, dim=8, chunks=chunks, chunk_sizes=np.array([1, 1])
            )

    def test_rejects_zero_size_chunk(self, rng):
        chunks = rng.normal(size=(2, 8))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        with pytest.raises(ValueError):
            CompressedDocument(
                doc_id="d", k=2, dim=8, chunks=chunks, chunk_sizes=np.array([3, 0])
            )

    @pytest.mark.parametrize("sizes,shown", [([1.9, 2.5], "1.9"), ([3.0, 2.5], "2.5"),
                                             ([2.0, np.nan], "nan")])
    def test_rejects_fractional_sizes(self, rng, sizes, shown):
        # truncating to int64 would store [1, 2] for [1.9, 2.5] without a word
        chunks = rng.normal(size=(2, 8))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        row = 0 if sizes[0] % 1 else 1
        with pytest.raises(ValueError, match=re.escape(
                f"doc 'page-7': chunk {row} must cover a whole number of patches, got {shown}")):
            CompressedDocument(doc_id="page-7", k=2, dim=8, chunks=chunks, chunk_sizes=sizes)
        doc = CompressedDocument(doc_id="page-7", k=2, dim=8, chunks=chunks,
                                 chunk_sizes=[3.0, 2.0])
        assert doc.chunk_sizes.dtype == np.int64 and doc.chunk_sizes.tolist() == [3, 2]

    @pytest.mark.parametrize("sizes,row,shown", [
        (np.array([1, 2**63], np.uint64), 1, "9223372036854775808"),
        (np.array([2**32, 1]), 0, "4294967296"),
        ([2.0, np.inf], 1, "inf"),
        ([1.0, 1e30], 1, "1e+30"),
        ([np.nan, 1e30], 1, "1e+30"),
    ])
    def test_rejects_sizes_past_u32(self, rng, sizes, row, shown):
        # int64 would wrap 2**63 to -2**63; an index would read 2**32 back as 0
        chunks = rng.normal(size=(2, 8))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        with pytest.raises(ValueError, match=re.escape(
                f"doc 'page-7': chunk {row} of {shown} patches exceeds the u32 size field")):
            CompressedDocument(doc_id="page-7", k=2, dim=8, chunks=chunks, chunk_sizes=sizes)
        for below in ([2.0, -1e30], [np.nan, -1e30]):
            with pytest.raises(ValueError, match=re.escape(
                    "chunk 1 must cover at least one patch, got -1e+30")):
                CompressedDocument(doc_id="page-7", k=2, dim=8, chunks=chunks,
                                   chunk_sizes=below)
        doc = CompressedDocument(doc_id="page-7", k=2, dim=8, chunks=chunks,
                                 chunk_sizes=np.array([2**32 - 1, 1], np.uint64))
        assert doc.chunk_sizes.tolist() == [2**32 - 1, 1]

    def test_float32_chunks_stay_float32_in_a_read_only_copy(self, rng):
        # the stored precision: widening to float64 would double an index's memory
        source = unit_rows(rng.normal(size=(3, 8))).astype(np.float32)
        kept = source.copy()
        doc = CompressedDocument(doc_id="d", k=3, dim=8, chunks=source, chunk_sizes=[1, 1, 1])
        assert doc.chunks.dtype == np.float32
        assert not doc.chunks.flags.writeable
        source[0, 0] = 7.0
        assert np.array_equal(doc.chunks, kept)

    @pytest.mark.parametrize("chunks", [np.eye(2, 4, dtype=np.float16),
                                        np.eye(2, 4, dtype=np.int64),
                                        np.eye(2, 4).tolist(),
                                        list(np.eye(2, 4, dtype=np.float32))],
                             ids=["float16", "int", "list", "list-of-float32-rows"])
    def test_every_other_input_is_float64(self, chunks):
        doc = CompressedDocument(doc_id="d", k=2, dim=4, chunks=chunks, chunk_sizes=[1, 1])
        assert doc.chunks.dtype == np.float64
        assert np.array_equal(doc.chunks, np.eye(2, 4))

    def test_maxsim_scores_a_float32_document_as_its_float64_twin(self, rng):
        chunks = unit_rows(rng.normal(size=(5, 16))).astype(np.float32)
        single, twin = (CompressedDocument(doc_id="d", k=5, dim=16, chunks=c,
                                           chunk_sizes=[1] * 5)
                        for c in (chunks, chunks.astype(np.float64)))
        assert (single.chunks.dtype, twin.chunks.dtype) == (np.float32, np.float64)
        for tokens in (1, 3, 32):
            q = QueryEmbeddingSet(query_id="q", dim=16, vectors=rng.normal(size=(tokens, 16)))
            assert maxsim(q, single).hex() == maxsim(q, twin).hex()


class TestQueryEmbeddingSet:
    def test_rejects_zero_norm_token(self, rng):
        vecs = rng.normal(size=(3, 8))
        vecs[1] = 0.0
        with pytest.raises(ValueError, match=r"query 'q': vectors\[1\] has zero norm"):
            QueryEmbeddingSet(query_id="q", dim=8, vectors=vecs)

    def test_rejects_nonfinite_token_and_wrong_width(self, rng):
        vecs = rng.normal(size=(3, 8))
        vecs[2, 0] = np.inf
        with pytest.raises(ValueError, match=r"vectors\[2\] has a non-finite component"):
            QueryEmbeddingSet(query_id="q", dim=8, vectors=vecs)
        with pytest.raises(ValueError, match="expected 8 components"):
            QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(3, 6)))
        with pytest.raises(ValueError, match="at least one token"):
            QueryEmbeddingSet(query_id="q", dim=8, vectors=np.empty((0, 8)))

    def test_token_count(self, rng):
        q = QueryEmbeddingSet(query_id="q", dim=8, vectors=rng.normal(size=(5, 8)))
        assert q.n_tokens == 5


class TestImmutability:
    def test_vectors_are_read_only(self, rng):
        pset = make_pset(rng)
        with pytest.raises(ValueError):
            pset.vectors[0, 0] = 99.0


class TestUnitNormBlocks:
    """``check_compressed`` takes chunk norms ``_CHECK_ROWS`` (512) rows at a
    time. Each row's norm is its own, so it gives the verdict, and names the
    doc and chunk, that 4,096-row blocks give."""

    K, ROWS = 40, 10_000  # 512-row blocks: the last starts at 9,728; 4,096-row ones at 8,192
    AT = (0, 3, 511, 512, 4095, 4096, 8191, 8192, 9727, 9728, 9999)
    # 1 +- UNIT_NORM_TOL, give or take a few ulps of 1
    EDGES = [1.0 + side * UNIT_NORM_TOL + step * np.finfo(float).eps
             for side in (1, -1) for step in range(-4, 5)]

    def verdict(self, monkeypatch, chunks, block):
        monkeypatch.setattr(types, "_CHECK_ROWS", block)
        ids = [f"d{i}" for i in range(self.ROWS // self.K)]
        try:
            check_compressed(ids, chunks.shape[1], np.arange(0, self.ROWS + 1, self.K), chunks,
                             np.ones(self.ROWS, np.int64))
        except ValueError as exc:
            return str(exc)

    def agree(self, monkeypatch, chunks):
        small = self.verdict(monkeypatch, chunks, 512)
        assert small == self.verdict(monkeypatch, chunks, 4096)
        return small

    @pytest.fixture
    def chunks(self, rng):
        return unit_rows(rng.normal(size=(self.ROWS, 16)))

    def test_block_size_is_512(self):
        assert types._CHECK_ROWS == 512

    def test_clean_matrix_passes(self, monkeypatch, chunks):
        assert self.agree(monkeypatch, chunks) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0, 0.5])
    def test_bad_row_in_any_block_is_named(self, monkeypatch, chunks, bad):
        for at in self.AT:
            edited = chunks.copy()
            edited[at] = edited[at] * bad if np.isfinite(bad) else bad
            doc, chunk = divmod(at, self.K)
            named = f"doc 'd{doc}': chunk {chunk} is not unit norm"
            assert self.agree(monkeypatch, edited).startswith(named)

    def test_first_of_two_bad_rows_is_named(self, monkeypatch, chunks):
        edited = chunks.copy()
        edited[[5, 9990]] = np.nan
        assert self.agree(monkeypatch, edited).startswith("doc 'd0': chunk 5 is not unit norm")
        edited[5] = chunks[5]
        assert self.agree(monkeypatch, edited).startswith("doc 'd249': chunk 30 is not unit")

    def test_rows_at_the_tolerance_edge(self, monkeypatch, chunks):
        verdicts = set()
        for at in (3, 9998):
            for scale in self.EDGES:
                edited = chunks.copy()
                edited[at] *= scale
                verdicts.add(self.agree(monkeypatch, edited) is None)
        assert verdicts == {True, False}  # the edge rows fall on both sides
