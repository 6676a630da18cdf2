import math

import numpy as np
import pytest

from colchunk import chunker
from colchunk.chunker import (
    ChunkerConfig,
    cluster_hac,
    cluster_kmeans,
    compress,
    compress_ks,
    compress_many,
    cut_linkage,
    fuse,
    pool,
)
from colchunk.types import (
    ChunkAssignment,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
)

from conftest import make_pset
from oracles import brute_force_ward, reference_pool, reference_ward


def feats_from(points, omega=0.0):
    pts = np.asarray(points, dtype=np.float64)
    return FusedFeatureSet(omega=omega, vectors=pts)


class TestConfig:
    def test_defaults(self):
        cfg = ChunkerConfig(k=40)
        assert cfg.omega == 0.2
        assert cfg.method == "hac_ward"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChunkerConfig(k=0)
        with pytest.raises(ValueError):
            ChunkerConfig(k=4, omega=1.5)
        with pytest.raises(ValueError):
            ChunkerConfig(k=4, method="spectral")


class TestFuse:
    def test_omega_zero_is_pure_normalized_semantics(self, rng):
        pset = make_pset(rng)
        feats = fuse(pset, ChunkerConfig(k=2, omega=0.0))
        expected = pset.vectors / np.linalg.norm(pset.vectors, axis=1, keepdims=True)
        np.testing.assert_array_equal(feats.vectors, expected)

    def test_omega_one_is_pure_position(self, rng):
        from colchunk.posenc import encode_batch
        from colchunk.types import grid_coords

        pset = make_pset(rng)
        feats = fuse(pset, ChunkerConfig(k=2, omega=1.0))
        expected = encode_batch(8, grid_coords(pset.grid))
        np.testing.assert_array_equal(feats.vectors, expected)

    def test_componentwise_against_hand_arithmetic(self):
        # 1x2 grid, dim=8, omega=0.25, all arithmetic spelled out
        vectors = np.array(
            [[3.0, 4.0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 5.0, 12.0, 0, 0, 0]]
        )
        pset = PatchEmbeddingSet(
            doc_id="d", dim=8, grid=PatchGrid(rows=1, cols=2), vectors=vectors
        )
        feats = fuse(pset, ChunkerConfig(k=1, omega=0.25))

        def pos(x, y):
            raw = [
                math.sin(x), math.cos(x),
                math.sin(x / 100.0), math.cos(x / 100.0),
                math.sin(y), math.cos(y),
                math.sin(y / 100.0), math.cos(y / 100.0),
            ]
            return [r / 2.0 for r in raw]

        v0 = [3 / 5, 4 / 5, 0, 0, 0, 0, 0, 0]
        v1 = [0, 0, 0, 5 / 13, 12 / 13, 0, 0, 0]
        expected = np.array(
            [
                [0.75 * a + 0.25 * b for a, b in zip(v0, pos(0.25, 0.5))],
                [0.75 * a + 0.25 * b for a, b in zip(v1, pos(0.75, 0.5))],
            ]
        )
        np.testing.assert_allclose(feats.vectors, expected, rtol=0, atol=1e-15)

    def test_zero_norm_semantic_rejected(self):
        # the page type refuses a zero vector, so fuse never has to
        vectors = np.zeros((2, 8))
        vectors[1, 0] = 1.0
        with pytest.raises(ValueError, match=r"vectors\[0\] has zero norm"):
            PatchEmbeddingSet(doc_id="d", dim=8, grid=PatchGrid(rows=1, cols=2), vectors=vectors)


def check_linkage(z, n):
    """Dendrogram invariants of a scipy-style linkage array over ``n`` leaves."""
    assert z.dtype == np.float64 and z.shape[1] == 4
    sizes = [1] * n
    for t, (left, right, dist, size) in enumerate(z):
        assert left == int(left) and right == int(right)
        assert 0 <= left < right < n + t  # distinct ids of existing nodes
        assert math.isfinite(dist) and dist >= 0.0
        assert size >= 2 and size == sizes[int(left)] + sizes[int(right)]
        sizes.append(int(size))


def duplicate_points(rng):
    """A handful of distinct points, each repeated many times."""
    n = int(rng.integers(4, 25))
    base = rng.normal(size=(rng.integers(1, 5), 4))
    return base[rng.integers(0, len(base), size=n)]


class TestClusterHac:
    def test_coincident_pairs(self):
        feats = feats_from([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        asg, z = cluster_hac(feats, 2)
        assert asg.labels.tolist() == [0, 0, 1, 1]
        assert asg.sizes.tolist() == [2, 2]
        assert z[:, 2].tolist() == [0.0, 0.0]
        # dendrogram ids: leaves 0..3, first merge makes id 4
        assert z[:, :2].tolist() == [[0, 1], [2, 3]]
        assert z[:, 3].tolist() == [2, 2]

    def test_tie_break_prefers_smallest_indices(self):
        # three coincident points: (0,1) merges before (0,2) or (1,2)
        feats = feats_from([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        asg, z = cluster_hac(feats, 2)
        assert asg.labels.tolist() == [0, 0, 0, 1]
        assert z[:, :2].tolist() == [[0, 1], [2, 4]]

    def test_linkage_invariants(self, rng):
        for n, k in ((24, 1), (24, 7), (9, 8)):
            _, z = cluster_hac(feats_from(rng.normal(size=(n, 3))), k)
            assert len(z) == n - k
            check_linkage(z, n)

    def test_passthrough_when_k_equals_n(self):
        feats = feats_from([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        asg, z = cluster_hac(feats, 3)
        assert asg.labels.tolist() == [0, 1, 2]
        assert z.shape == (0, 4)

    def test_single_cluster(self):
        feats = feats_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        asg, z = cluster_hac(feats, 1)
        assert asg.labels.tolist() == [0, 0, 0]
        assert len(z) == 2

    def test_passthrough_when_k_exceeds_n(self):
        feats = feats_from([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
        asg, z = cluster_hac(feats, 5)
        assert asg.k == 3
        assert asg.labels.tolist() == [0, 1, 2]
        assert z.shape == (0, 4)

    def test_two_clear_blobs(self, rng):
        a = rng.normal(size=(10, 3)) * 0.05
        b = rng.normal(size=(10, 3)) * 0.05 + 10.0
        feats = feats_from(np.vstack([a, b]))
        asg, _ = cluster_hac(feats, 2)
        assert asg.labels.tolist() == [0] * 10 + [1] * 10

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 32))
            dim = int(rng.choice([2, 4, 8]))
            k = int(rng.integers(1, n + 1))
            pts = rng.normal(size=(n, dim))
            asg, z = cluster_hac(feats_from(pts), k)
            labels_o, dists_o = brute_force_ward(pts, k)
            assert np.array_equal(asg.labels, labels_o)
            np.testing.assert_allclose(z[:, 2], dists_o, rtol=1e-9, atol=0)

    def test_matches_oracle_on_tie_heavy_instances(self, rng):
        # Pure-position grids (omega=1) are full of exactly tied costs, and
        # duplicated patches merge at rounding-error distances; both must
        # follow the oracle's tie rule. Heights compare squared, since the
        # square root magnifies rounding error near zero.
        cases = []
        for _ in range(12):
            pset = make_pset(rng, rows=int(rng.integers(1, 6)), cols=int(rng.integers(2, 6)))
            cases.append(fuse(pset, ChunkerConfig(k=1, omega=1.0)).vectors)
        cases += [duplicate_points(rng) for _ in range(40)]
        for pts in cases:
            n = pts.shape[0]
            k = int(rng.integers(1, n + 1))
            asg, z = cluster_hac(feats_from(pts), k)
            labels_o, dists_o = brute_force_ward(pts, k)
            assert np.array_equal(asg.labels, labels_o)
            np.testing.assert_allclose(
                z[:, 2] ** 2, np.square(dists_o), rtol=1e-9, atol=1e-12
            )
            check_linkage(z, n)

    def test_duplicated_patches_do_not_crash(self):
        # duplicates up to length normalize to vectors a rounding error
        # apart; the Lance-Williams update used to push merged costs below
        # zero and fail in the square root
        r = np.random.default_rng(240)
        pts = duplicate_points(r)
        k = int(r.integers(1, len(pts) + 1))
        pts = pts * r.uniform(0.5, 4.0, size=(len(pts), 1))
        pset = PatchEmbeddingSet(doc_id="dup", dim=4, grid=PatchGrid(rows=2, cols=11),
                                 vectors=pts)
        doc = compress(pset, ChunkerConfig(k=k, omega=0.0))
        assert doc.k == k == 4
        assert int(doc.chunk_sizes.sum()) == 22

    def test_merge_distances_never_decrease(self, rng):
        # Ward linkage is monotone: no inversions in the dendrogram
        for _ in range(5):
            pts = rng.normal(size=(24, 4))
            _, z = cluster_hac(feats_from(pts), 1)
            d = z[:, 2].tolist()
            for prev, nxt in zip(d, d[1:]):
                assert nxt >= prev - 1e-12

    def test_deterministic(self, rng):
        pts = rng.normal(size=(20, 4))
        a1, z1 = cluster_hac(feats_from(pts), 5)
        a2, z2 = cluster_hac(feats_from(pts), 5)
        assert np.array_equal(a1.labels, a2.labels)
        assert np.array_equal(z1, z2)

    def test_labels_numbered_by_first_appearance(self, rng):
        pts = rng.normal(size=(12, 3))
        asg, _ = cluster_hac(feats_from(pts), 4)
        seen = []
        for lab in asg.labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == sorted(seen)


def canonical_labels(labels):
    """Renumber a partition by each cluster's smallest member index."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    return rank[inverse]


def ward_inputs(rng, family, count):
    """``count`` point sets of one family, of 2 to 79 points each."""
    cases = []
    for _ in range(count):
        if family == "gaussian":
            n = int(rng.integers(2, 80))
            cases.append(rng.normal(size=(n, int(rng.choice([2, 4, 8])))))
        elif family == "grid":
            # pure position (omega=1): exactly tied costs everywhere
            pset = make_pset(rng, rows=int(rng.integers(1, 9)), cols=int(rng.integers(2, 9)))
            cases.append(fuse(pset, ChunkerConfig(k=1, omega=1.0)).vectors)
        else:
            n = int(rng.integers(2, 80))
            base = rng.normal(size=(int(rng.integers(1, 6)), 4))
            cases.append(base[rng.integers(0, len(base), size=n)])
    return cases


def large_ward_inputs(rng):
    """768-patch pages, where compaction fires several times."""
    grid = make_pset(rng, rows=32, cols=24, dim=16)
    base = rng.normal(size=(40, 16))
    return [
        rng.normal(size=(768, 16)),
        fuse(grid, ChunkerConfig(k=1, omega=1.0)).vectors,
        base[rng.integers(0, len(base), size=768)],
    ]


def k_values(n):
    return sorted({1, 2, n // 2, n - 1, n} - {0})


class TestClusterHacReference:
    """The gather-free loop against the original loop, bit for bit."""

    def check_bitwise(self, pts):
        n = pts.shape[0]
        for k in k_values(n):
            asg, z = cluster_hac(feats_from(pts), k)
            if k == n:
                assert asg.labels.tolist() == list(range(n)) and z.shape == (0, 4)
                continue
            asg_ref, z_ref = reference_ward(pts, k)
            assert z.tobytes() == z_ref.tobytes(), (n, k)
            assert np.array_equal(asg.labels, asg_ref.labels), (n, k)
            assert np.array_equal(asg.sizes, asg_ref.sizes), (n, k)
            assert asg.k == asg_ref.k == k

    @pytest.mark.parametrize("family", ["gaussian", "grid", "duplicates"])
    def test_bitwise_equal_to_reference(self, family):
        rng = np.random.default_rng({"gaussian": 21, "grid": 22, "duplicates": 23}[family])
        for pts in ward_inputs(rng, family, 110):
            self.check_bitwise(pts)

    def test_bitwise_equal_to_reference_on_full_pages(self):
        for pts in large_ward_inputs(np.random.default_rng(24)):
            self.check_bitwise(pts)

    def test_cut_of_full_dendrogram_matches_each_k(self):
        rng = np.random.default_rng(25)
        cases = [c for family in ("gaussian", "grid", "duplicates")
                 for c in ward_inputs(rng, family, 10)]
        for pts in cases:
            n = pts.shape[0]
            _, z_full = cluster_hac(feats_from(pts), 1)
            for k in k_values(n):
                asg, z = cluster_hac(feats_from(pts), k)
                cut = cut_linkage(z_full, n, k)
                assert z.tobytes() == z_full[: n - k].tobytes()
                assert cut.k == asg.k
                assert np.array_equal(cut.labels, asg.labels)
                assert np.array_equal(cut.sizes, asg.sizes)

    def test_cut_rejects_impossible_k(self, rng):
        _, z = cluster_hac(feats_from(rng.normal(size=(6, 2))), 3)
        for k in (0, 2, 7):
            with pytest.raises(ValueError):
                cut_linkage(z, 6, k)

    def test_matches_scipy_ward_on_tie_free_pages(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(3, 160))
            pts = rng.normal(size=(n, int(rng.choice([2, 8, 32]))))
            z_ref = hierarchy.linkage(pts, method="ward")
            for k in k_values(n):
                asg, z = cluster_hac(feats_from(pts), k)
                flat = hierarchy.fcluster(z_ref, k, criterion="maxclust")
                assert np.array_equal(asg.labels, canonical_labels(flat)), (n, k)
                np.testing.assert_allclose(z[:, 2], z_ref[: n - k, 2], rtol=1e-9, atol=0)


class TestPageSizeBound:
    def test_oversized_page_rejected_before_allocation(self, monkeypatch, rng):
        monkeypatch.setattr(chunker, "MAX_HAC_PATCHES", 16)

        def no_matrix(x):
            raise AssertionError("distance matrix built for an oversized page")

        monkeypatch.setattr(chunker, "_pairwise_sq", no_matrix)
        with pytest.raises(ValueError) as err:
            cluster_hac(feats_from(rng.normal(size=(17, 3))), 4)
        message = str(err.value)
        assert "17" in message and "MAX_HAC_PATCHES = 16" in message
        assert str(17 * 17 * 8) in message

    def test_pages_at_the_bound_or_without_merges_pass(self, monkeypatch, rng):
        monkeypatch.setattr(chunker, "MAX_HAC_PATCHES", 16)
        asg, z = cluster_hac(feats_from(rng.normal(size=(16, 3))), 4)
        assert asg.k == 4 and z.shape == (12, 4)
        # k >= n keeps every patch and needs no distance matrix
        asg, _ = cluster_hac(feats_from(rng.normal(size=(17, 3))), 17)
        assert asg.k == 17


class TestClusterKmeans:
    def test_recovers_separated_blobs(self, rng):
        blobs = [rng.normal(size=(8, 2)) * 0.1 + center
                 for center in ([0, 0], [20, 0], [0, 20])]
        pts = np.vstack(blobs)
        asg = cluster_kmeans(feats_from(pts), 3, seed=0)
        assert asg.labels.tolist() == [0] * 8 + [1] * 8 + [2] * 8

    def test_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(30, 4))
        a1 = cluster_kmeans(feats_from(pts), 5, seed=9)
        a2 = cluster_kmeans(feats_from(pts), 5, seed=9)
        assert np.array_equal(a1.labels, a2.labels)

    def test_k_equals_n(self, rng):
        pts = rng.normal(size=(6, 3))
        asg = cluster_kmeans(feats_from(pts), 6, seed=0)
        assert asg.labels.tolist() == [0, 1, 2, 3, 4, 5]

    def test_rejects_k_above_n(self, rng):
        with pytest.raises(ValueError):
            cluster_kmeans(feats_from(rng.normal(size=(3, 2))), 4, seed=0)

    def test_duplicate_points_fill_every_cluster(self):
        pts = np.ones((5, 2))
        asg = cluster_kmeans(feats_from(pts), 2, seed=0)
        assert asg.k == 2
        assert asg.sizes.sum() == 5
        assert asg.sizes.min() >= 1

    def test_labels_are_canonical(self, rng):
        pts = rng.normal(size=(25, 3))
        asg = cluster_kmeans(feats_from(pts), 4, seed=3)
        seen = []
        for lab in asg.labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == sorted(seen)


class TestPool:
    def test_mean_then_normalize_by_hand(self):
        vectors = np.array([[2.0, 0.0], [0.0, 2.0], [7.0, 0.0]])
        pset = PatchEmbeddingSet(
            doc_id="d", dim=2, grid=PatchGrid(rows=1, cols=3), vectors=vectors
        )
        asg = ChunkAssignment(np.array([0, 0, 1]))
        doc = pool(pset, asg)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            doc.chunks, [[s, s], [1.0, 0.0]], rtol=0, atol=1e-15
        )
        assert doc.chunk_sizes.tolist() == [2, 1]

    def test_pooling_uses_raw_semantics_not_fused(self, rng):
        # scale one vector: the mean must follow the raw magnitudes
        vectors = np.array([[10.0, 0.0], [0.0, 1.0]])
        pset = PatchEmbeddingSet(
            doc_id="d", dim=2, grid=PatchGrid(rows=1, cols=2), vectors=vectors
        )
        asg = ChunkAssignment(np.array([0, 0]))
        doc = pool(pset, asg)
        expected = np.array([5.0, 0.5]) / math.sqrt(25.25)
        np.testing.assert_allclose(doc.chunks[0], expected, rtol=0, atol=1e-15)

    def test_antipodal_mean_falls_back_with_warning(self):
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pset = PatchEmbeddingSet(
            doc_id="d", dim=2, grid=PatchGrid(rows=1, cols=2), vectors=vectors
        )
        asg = ChunkAssignment(np.array([0, 0]))
        with pytest.warns(RuntimeWarning):
            doc = pool(pset, asg)
        np.testing.assert_array_equal(doc.chunks[0], [1.0, 0.0])

    def test_zero_fallback_member_rejected(self):
        # nonzero, so the page is valid, but too short to normalize safely
        vectors = np.array([[1e-13, 0.0], [-1e-13, 0.0]])
        pset = PatchEmbeddingSet(
            doc_id="d", dim=2, grid=PatchGrid(rows=1, cols=2), vectors=vectors
        )
        asg = ChunkAssignment(np.array([0, 0]))
        with pytest.raises(ValueError, match="smallest member 0 is itself zero"):
            pool(pset, asg)


def assert_same_doc(got, want):
    assert got.doc_id == want.doc_id and got.k == want.k
    assert got.chunks.tobytes() == want.chunks.tobytes()
    assert np.array_equal(got.chunk_sizes, want.chunk_sizes)


class TestPoolReference:
    """The bincount pool against the original scattered loop, bit for bit."""

    @pytest.mark.parametrize("rows,cols", [(16, 16), (32, 24)])
    def test_bitwise_equal_to_reference(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        pset = make_pset(rng, rows=rows, cols=cols, dim=32)
        n = pset.n_vectors
        _, z = cluster_hac(fuse(pset, ChunkerConfig(k=1)), 1)
        for k in (1, 4, 40, 64, 200, n):
            asg = cut_linkage(z, n, k)
            assert_same_doc(pool(pset, asg), reference_pool(pset, asg))

    def test_degenerate_chunks_match_reference_and_warn_once_each(self):
        # chunks 0 and 2 hold antipodal pairs, chunk 1 a plain vector
        vectors = np.array([[1.0, 2.0], [0.5, 0.5], [-1.0, -2.0], [0.0, 3.0], [0.0, -3.0]])
        pset = PatchEmbeddingSet(
            doc_id="d", dim=2, grid=PatchGrid(rows=1, cols=5), vectors=vectors
        )
        asg = ChunkAssignment(np.array([0, 1, 0, 2, 2]))
        with pytest.warns(RuntimeWarning) as got_warnings:
            got = pool(pset, asg)
        with pytest.warns(RuntimeWarning) as ref_warnings:
            want = reference_pool(pset, asg)
        assert_same_doc(got, want)
        assert [str(w.message) for w in got_warnings] == [
            str(w.message) for w in ref_warnings
        ] == [
            "chunk 0 of 'd' has a degenerate centroid; substituting normalized member 0",
            "chunk 2 of 'd' has a degenerate centroid; substituting normalized member 3",
        ]


class TestCompressKs:
    """One fusion and one dendrogram per page serve every k."""

    @pytest.mark.parametrize("method", ["hac_ward", "kmeans"])
    @pytest.mark.parametrize("omega", [0.0, 0.2, 1.0])
    def test_equals_one_compress_per_k(self, rng, method, omega):
        pset = make_pset(rng, rows=6, cols=5, dim=8)
        cfgs = [ChunkerConfig(k=k, omega=omega, method=method, seed=3)
                for k in (7, 1, 30, 7, 45, 2)]
        for got, cfg in zip(compress_ks(pset, cfgs), cfgs):
            assert_same_doc(got, compress(pset, cfg))

    def test_clusters_once_at_the_smallest_k(self, rng, monkeypatch):
        calls = []
        real = chunker.cluster_hac

        def counting(feats, k):
            calls.append(k)
            return real(feats, k)

        monkeypatch.setattr(chunker, "cluster_hac", counting)
        pset = make_pset(rng, rows=4, cols=4)
        cfgs = [ChunkerConfig(k=k) for k in (9, 3, 40)]
        docs = compress_ks(pset, cfgs)
        assert calls == [3]
        assert [doc.k for doc in docs] == [9, 3, 16]

    def test_rejects_configurations_that_differ_beyond_k(self, rng):
        pset = make_pset(rng)
        with pytest.raises(ValueError, match="differ only in k"):
            compress_ks(pset, [ChunkerConfig(k=2), ChunkerConfig(k=3, omega=0.5)])
        with pytest.raises(ValueError, match="differ only in k"):
            compress_ks(pset, [ChunkerConfig(k=2), ChunkerConfig(k=2, method="kmeans")])
        with pytest.raises(ValueError, match="at least one"):
            compress_ks(pset, [])


class TestCompress:
    def test_k1_ignores_omega(self, rng):
        pset = make_pset(rng)
        docs = [
            compress(pset, ChunkerConfig(k=1, omega=w))
            for w in (0.0, 0.5, 1.0)
        ]
        for doc in docs[1:]:
            np.testing.assert_array_equal(doc.chunks, docs[0].chunks)
        mean = pset.vectors.mean(axis=0)
        np.testing.assert_allclose(
            docs[0].chunks[0], mean / np.linalg.norm(mean), rtol=0, atol=1e-15
        )

    def test_k_equals_n_returns_normalized_originals(self, rng):
        pset = make_pset(rng, rows=2, cols=3)
        doc = compress(pset, ChunkerConfig(k=6, omega=0.0))
        expected = pset.vectors / np.linalg.norm(pset.vectors, axis=1, keepdims=True)
        np.testing.assert_allclose(doc.chunks, expected, rtol=0, atol=1e-15)
        assert doc.chunk_sizes.tolist() == [1] * 6

    def test_k_clamped_to_vector_count(self, rng):
        pset = make_pset(rng, rows=2, cols=2)
        doc = compress(pset, ChunkerConfig(k=50))
        assert doc.k == 4

    def test_reduction_arithmetic(self, rng):
        pset = make_pset(rng, rows=8, cols=8, dim=16)
        doc = compress(pset, ChunkerConfig(k=9))
        assert doc.k == 9
        assert doc.chunk_sizes.sum() == 64
        assert doc.n_source_vectors == 64

    def test_kmeans_method_dispatch(self, rng):
        pset = make_pset(rng, rows=4, cols=4)
        cfg = ChunkerConfig(k=3, method="kmeans", seed=5)
        doc = compress(pset, cfg)
        assert doc.k == 3
        assert doc.chunk_sizes.sum() == 16

    def test_compress_many_matches_sequential(self, rng):
        # one ``compress`` per page, in input order
        psets = [make_pset(rng, doc_id=f"d{i}") for i in range(6)]
        cfg = ChunkerConfig(k=3)
        many = compress_many(psets, cfg)
        assert len(many) == len(psets)
        for pset, got in zip(psets, many):
            assert_same_doc(got, compress(pset, cfg))
