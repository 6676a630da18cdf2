import numpy as np
import pytest

from colchunk.posenc import encode_batch
from colchunk.types import (
    ChunkAssignment,
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
    grid_coords,
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
        assert doc.n_source_vectors == 8

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
