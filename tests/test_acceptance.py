"""Acceptance suite: eleven numbered criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the per-criterion
PASS/FAIL lines stream as the checks complete. Every criterion gathers its
violations into a list and reports once, so a failing run still prints a
single line for each criterion it reached.
"""

import math
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.random import default_rng

from colchunk.chunker import ChunkerConfig, cluster_hac, compress, compress_many, fuse
from colchunk.evaluation import (
    Qrels,
    SweepSpec,
    SyntheticSpec,
    generate_corpus,
    generate_synthetic,
    ndcg_at_k,
    run_ablation,
)
from colchunk.scorer import maxsim
from colchunk.store import (
    BuildMeta,
    CorpusIndex,
    IndexFormatError,
    read_index,
    write_embedding_dump,
    write_index,
)
from colchunk.types import (
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
)

from oracles import brute_force_ward, naive_maxsim


def _report(num: int, desc: str, problems: list) -> None:
    verdict = "FAIL" if problems else "PASS"
    print(f"[acceptance] C{num:02d} {verdict} {desc}")
    assert not problems, f"C{num:02d} {desc}: " + "; ".join(str(p) for p in problems)


def _meta(**overrides) -> BuildMeta:
    base = dict(omega=0.2, k_target=40, method="hac_ward", posenc_base=10000.0,
                tool_version="test", embedding_location="fuzz")
    base.update(overrides)
    return BuildMeta(**base)


def _random_doc(rng, doc_id: str, dim: int, k: int) -> CompressedDocument:
    raw = rng.normal(size=(k, dim))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # pre-squeeze through f32 so a write/read/write cycle can be byte-stable
    chunks = unit.astype(np.float32).astype(np.float64)
    chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
    chunks = chunks.astype(np.float32).astype(np.float64)
    sizes = rng.integers(1, 9, size=k)
    return CompressedDocument(doc_id=doc_id, k=k, dim=dim, chunks=chunks,
                              chunk_sizes=sizes)


def test_c01_hac_oracle_equivalence():
    rng = default_rng(101)
    problems = []
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(4, 65))
        dim = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, dim))
        got, trace = cluster_hac(FusedFeatureSet(dim=dim, omega=0.0, vectors=pts), k)
        want_labels, want_dists = brute_force_ward(pts, k)
        if not np.array_equal(got.labels, want_labels):
            problems.append(f"trial {trial}: partition mismatch (n={n} dim={dim} k={k})")
        got_dists = trace[:, 2].tolist()
        if len(got_dists) != len(want_dists):
            problems.append(f"trial {trial}: trace length {len(got_dists)} != {len(want_dists)}")
        else:
            for g, w in zip(got_dists, want_dists):
                if abs(g - w) > 1e-9 * max(1.0, abs(w)):
                    problems.append(f"trial {trial}: merge distance {g} vs {w}")
                    break
        if len(problems) > 5:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(1, f"HAC matches brute-force agglomerator on 200 instances ({elapsed:.1f}s)",
            problems)


def test_c02_maxsim_oracle_equivalence():
    rng = default_rng(202)
    problems = []
    t0 = time.perf_counter()
    for trial in range(500):
        dim = int(rng.choice([4, 8, 32]))
        n_q = int(rng.integers(1, 12))
        n_d = int(rng.integers(1, 24))
        q_raw = rng.normal(size=(n_q, dim))
        d_raw = rng.normal(size=(n_d, dim))
        d_unit = d_raw / np.linalg.norm(d_raw, axis=1, keepdims=True)
        query = QueryEmbeddingSet(query_id="q", dim=dim, vectors=q_raw)
        doc = CompressedDocument(doc_id="d", k=n_d, dim=dim, chunks=d_unit,
                                 chunk_sizes=np.ones(n_d, dtype=np.int64))
        got = maxsim(query, doc)
        want = naive_maxsim(q_raw.tolist(), d_unit.tolist())
        if abs(got - want) > 1e-12:
            problems.append(f"trial {trial}: |{got} - {want}| > 1e-12")
            if len(problems) > 5:
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    _report(2, f"maxsim matches naive double loop on 500 pairs ({elapsed:.2f}s)", problems)


def test_c03_no_compression_fidelity():
    rng = default_rng(303)
    problems = []
    for trial in range(100):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        grid = PatchGrid(rows=rows, cols=cols)
        vectors = rng.normal(size=(grid.n_patches, 16))
        pset = PatchEmbeddingSet(doc_id=f"p{trial}", dim=16, grid=grid, vectors=vectors)
        cfg = ChunkerConfig(k=grid.n_patches, omega=0.0)
        doc = compress(pset, cfg)
        query = QueryEmbeddingSet(query_id="q", dim=16,
                                  vectors=rng.normal(size=(int(rng.integers(1, 9)), 16)))
        got = maxsim(query, doc)
        want = naive_maxsim(query.vectors.tolist(), vectors.tolist())
        if abs(got - want) > 1e-12:
            problems.append(f"trial {trial}: |{got} - {want}| > 1e-12")
            if len(problems) > 5:
                break
    _report(3, "K=N_v, omega=0 compression is score-exact on 100 docs", problems)


def test_c04_storage_bytes(tmp_path):
    dim, k = 128, 40
    grid = PatchGrid(rows=32, cols=24)  # 768 patches
    rng = default_rng(404)
    vectors = rng.normal(size=(grid.n_patches, dim))
    pset = PatchEmbeddingSet(doc_id="page", dim=dim, grid=grid, vectors=vectors)
    problems = []

    write_embedding_dump([pset], tmp_path / "dump", location="bench")
    raw_bytes = (tmp_path / "dump" / "vectors" / "page.f32").stat().st_size
    if raw_bytes != 393216:
        problems.append(f"raw dump payload {raw_bytes} != 393216")

    doc = compress(pset, ChunkerConfig(k=k, omega=0.2))
    index_path = tmp_path / "one.cchk"
    write_index(CorpusIndex(dim=dim, docs=(doc,), build_meta=_meta()), index_path)
    blob = index_path.read_bytes()
    trailer_len = struct.unpack("<Q", blob[-8:])[0]
    overhead = 20 + (2 + len(b"page")) + 4 + 4 * k
    payload = len(blob) - overhead - trailer_len - 8
    if payload != 20480:
        problems.append(f"per-doc chunk payload {payload} != 20480")
    reduction = 100.0 * (1.0 - 20480 / 393216)
    if abs(reduction - 94.8) > 0.05:
        problems.append(f"reduction {reduction:.2f}% not 94.8%")
    _report(4, "per-doc payload 20480 bytes vs 393216 raw (94.8% smaller)", problems)


def test_c05_unit_norm_and_partition_invariants(tmp_path):
    rng = default_rng(505)
    problems = []
    docs = []
    truth = []
    for trial in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        grid = PatchGrid(rows=rows, cols=cols)
        n = grid.n_patches
        k = int(rng.integers(1, n + 5))
        cfg = ChunkerConfig(
            k=k,
            omega=float(rng.uniform(0.0, 1.0)),
            method=str(rng.choice(["hac_ward", "kmeans"])),
            seed=int(rng.integers(0, 100)),
        )
        pset = PatchEmbeddingSet(doc_id=f"fuzz{trial}", dim=16, grid=grid,
                                 vectors=rng.normal(size=(n, 16)))
        doc = compress(pset, cfg)
        docs.append(doc)
        truth.append((n, k))
        if doc.k != min(k, n):
            problems.append(f"trial {trial}: K_out {doc.k} != min({k}, {n})")
        if int(doc.chunk_sizes.sum()) != n:
            problems.append(f"trial {trial}: sizes sum {doc.chunk_sizes.sum()} != {n}")

    path = tmp_path / "fuzz.cchk"
    write_index(CorpusIndex(dim=16, docs=tuple(docs), build_meta=_meta()), path)
    stored = read_index(path)
    for (n, k), doc in zip(truth, stored.docs):
        norms = np.linalg.norm(doc.chunks, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > 1e-6:
            problems.append(f"{doc.doc_id}: stored chunk norm off by {worst:.3g}")
        if int(doc.chunk_sizes.sum()) != n:
            problems.append(f"{doc.doc_id}: stored sizes sum != {n}")
        if doc.k != min(k, n):
            problems.append(f"{doc.doc_id}: stored K != min(K, N_v)")
    _report(5, "chunk norms within 1e-6, sizes partition N_v, K_out=min(K,N_v) on 60 fuzz docs",
            problems)


def test_c06_omega_boundary_invariances():
    rng = default_rng(606)
    problems = []

    cfg_pos = ChunkerConfig(k=4, omega=1.0)
    for inst in range(20):
        grid = PatchGrid(rows=4, cols=6)
        vectors = rng.normal(size=(grid.n_patches, 16))
        base_set = PatchEmbeddingSet(doc_id="a", dim=16, grid=grid, vectors=vectors)
        base, _ = cluster_hac(fuse(base_set, cfg_pos), 4)
        for p in range(20):
            perm = rng.permutation(grid.n_patches)
            shuffled = PatchEmbeddingSet(doc_id="a", dim=16, grid=grid,
                                         vectors=vectors[perm])
            got, _ = cluster_hac(fuse(shuffled, cfg_pos), 4)
            if not np.array_equal(got.labels, base.labels):
                problems.append(f"omega=1 instance {inst} perm {p}: assignment moved")
                break

    cfg_sem = ChunkerConfig(k=5, omega=0.0)
    shapes = [(4, 6), (6, 4), (2, 12), (12, 2), (1, 24), (24, 1), (3, 8), (8, 3)]
    for inst in range(10):
        vectors = rng.normal(size=(24, 16))
        reference = None
        for rows, cols in shapes:
            pset = PatchEmbeddingSet(doc_id="b", dim=16,
                                     grid=PatchGrid(rows=rows, cols=cols),
                                     vectors=vectors)
            got, _ = cluster_hac(fuse(pset, cfg_sem), 5)
            if reference is None:
                reference = got.labels
            elif not np.array_equal(got.labels, reference):
                problems.append(f"omega=0 instance {inst}: grid {rows}x{cols} changed labels")
    _report(6, "omega=1 ignores semantic permutations, omega=0 ignores grid shape", problems)


@pytest.fixture(scope="module")
def seeded_sweep():
    """The fixed synthetic benchmark shared by the two direction-of-effect checks."""
    spec = SyntheticSpec(num_docs=100, num_queries=20, grid=PatchGrid(rows=32, cols=24),
                         dim=128, noise_sigma=0.5, seed=7)
    docs, queries, qrels = generate_corpus(spec)
    sweep = SweepSpec(k_values=(5, 40, 80), omega_values=(), methods=("kmeans",),
                      base_k=40, base_omega=0.2, seed=7, include_baseline=True)
    t0 = time.perf_counter()
    rows = run_ablation(docs, queries, qrels, sweep)
    elapsed = time.perf_counter() - t0
    return {row.config_id: row for row in rows}, elapsed


def test_c07_chunk_count_scaling(seeded_sweep):
    rows, elapsed = seeded_sweep
    k1 = rows["baseline-k1"].mean_ndcg_at_5
    k5 = rows["k5"].mean_ndcg_at_5
    k40 = rows["k40"].mean_ndcg_at_5
    k80 = rows["k80"].mean_ndcg_at_5
    problems = []
    if not k40 > k5:
        problems.append(f"nDCG@5 at K=40 ({k40:.4f}) not above K=5 ({k5:.4f})")
    if not k40 > k1:
        problems.append(f"nDCG@5 at K=40 ({k40:.4f}) not above K=1 baseline ({k1:.4f})")
    if not (k40 - k5) > (k80 - k40):
        problems.append(
            f"gain 5->40 ({k40 - k5:.4f}) not above gain 40->80 ({k80 - k40:.4f})")
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.0f}s, budget 300s")
    _report(7, f"chunk-count scaling K1={k1:.3f} K5={k5:.3f} K40={k40:.3f} K80={k80:.3f} "
               f"({elapsed:.0f}s)", problems)


def test_c08_clustering_method_effect(seeded_sweep):
    rows, _ = seeded_sweep
    hac = rows["k40"].mean_ndcg_at_5
    km = rows["method-kmeans"].mean_ndcg_at_5
    problems = []
    if not hac >= km:
        problems.append(f"HAC nDCG@5 ({hac:.4f}) below k-means ({km:.4f}) at K=40")
    _report(8, f"HAC {hac:.3f} >= k-means {km:.3f} at K=40", problems)


def test_c09_ndcg_reference_values():
    cases = [
        (["d1", "x", "y"], {"d1": 1}, 1.0, "single relevant at rank 1"),
        (["x", "d1", "y"], {"d1": 1}, 0.6309297535714574, "single relevant at rank 2"),
        (["a", "b"], {}, 0.0, "no judged docs (IDCG=0)"),
        (
            ["b", "a", "x", "c"],
            {"a": 3, "b": 1, "c": 2},
            (1.0 + 3.0 / math.log2(3) + 2.0 / math.log2(5))
            / (3.0 + 2.0 / math.log2(3) + 0.5),
            "graded judgments",
        ),
        (["x1", "x2", "x3", "x4", "x5", "d1"], {"d1": 1}, 0.0, "relevant below cutoff"),
    ]
    problems = []
    for ranking, judged, want, label in cases:
        got = ndcg_at_k(ranking, judged, 5)
        if abs(got - want) > 1e-12:
            problems.append(f"{label}: {got!r} != {want!r}")
    _report(9, "ndcg_at_5 matches five hand-computed rankings", problems)


def test_c10_format_roundtrip(tmp_path):
    rng = default_rng(1010)
    problems = []
    sample = None
    for trial in range(50):
        dim = int(rng.choice([4, 8, 16, 32]))
        n_docs = int(rng.integers(1, 7))
        docs = tuple(
            _random_doc(rng, f"d{trial}-{i}" + ("-中" if i % 3 == 0 else ""),
                        dim, int(rng.integers(1, 6)))
            for i in range(n_docs)
        )
        meta = _meta(omega=float(rng.uniform(0, 1)), k_target=int(rng.integers(1, 99)))
        index = CorpusIndex(dim=dim, docs=docs, build_meta=meta)
        p1 = tmp_path / f"r{trial}a.cchk"
        p2 = tmp_path / f"r{trial}b.cchk"
        write_index(index, p1)
        write_index(read_index(p1), p2)
        if p1.read_bytes() != p2.read_bytes():
            problems.append(f"trial {trial}: write-read-write not byte-identical")
        if sample is None:
            sample = p1.read_bytes()

    corruptions = [
        ("magic", b"JUNK" + sample[4:]),
        ("version", sample[:4] + struct.pack("<I", struct.unpack("<I", sample[4:8])[0] + 7)
         + sample[8:]),
        ("truncation", sample[: len(sample) // 2]),
        ("truncation", sample[:5]),
    ]
    bad_path = tmp_path / "bad.cchk"
    for label, blob in corruptions:
        bad_path.write_bytes(blob)
        try:
            read_index(bad_path)
            problems.append(f"corrupted {label} was accepted")
        except IndexFormatError:
            pass
        except Exception as exc:  # noqa: BLE001 - the criterion is "typed error, never a crash"
            problems.append(f"corrupted {label} raised {type(exc).__name__} instead")
    _report(10, "50 corpora round-trip byte-identical; corruption raises typed errors",
            problems)


def test_c11_thread_count_determinism(tmp_path):
    spec = SyntheticSpec(num_docs=10, num_queries=3, grid=PatchGrid(rows=8, cols=8),
                         dim=32, signal_patches=4, noise_sigma=0.4, seed=5,
                         query_tokens=8)
    dataset = generate_synthetic(spec, tmp_path / "data")
    problems = []

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "colchunk.cli", *argv],
                              capture_output=True, text=True)

    index_blobs = []
    for threads in ("1", "4"):
        index = tmp_path / f"t{threads}.cchk"
        proc = cli("compress", str(dataset.doc_manifest), str(index),
                   "--k", "8", "--seed", "5", "--threads", threads)
        if proc.returncode != 0:
            problems.append(f"compress --threads {threads} exited {proc.returncode}")
            _report(11, "compress and query outputs invariant to thread count", problems)
            return
        index_blobs.append(index.read_bytes())
    if index_blobs[0] != index_blobs[1]:
        problems.append("compress output differs between 1 and 4 threads")

    run_blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"run{threads}.txt"
        proc = cli("query", str(tmp_path / "t1.cchk"), str(dataset.query_manifest),
                   "--out", str(out), "--threads", threads)
        if proc.returncode != 0:
            problems.append(f"query --threads {threads} exited {proc.returncode}")
            _report(11, "compress and query outputs invariant to thread count", problems)
            return
        run_blobs.append(out.read_bytes())
    if run_blobs[0] != run_blobs[1]:
        problems.append("query output differs between 1 and 4 threads")
    _report(11, "compress and query outputs invariant to thread count", problems)
