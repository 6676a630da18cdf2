import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from colchunk import __version__, chunker, cli, evaluation
from colchunk.chunker import ChunkerConfig, compress_many
from colchunk.evaluation import (
    EvalInputError,
    Qrels,
    SweepSpec,
    SyntheticSpec,
    dcg,
    evaluate_run,
    generate_corpus,
    generate_synthetic,
    ndcg_at_k,
    read_run,
    rows_to_csv,
    run_ablation,
    write_run,
)
from colchunk.posenc import BASE
from colchunk.scorer import ScoredHit, retrieve
from colchunk.store import BuildMeta, CorpusIndex, ingest_dump, ingest_queries, write_index
from colchunk.types import PatchGrid

from oracles import naive_maxsim, naive_ndcg, reference_pages


class TestQrels:
    def test_default_grade_is_zero(self):
        qrels = Qrels()
        qrels.add("q1", "d1", 2)
        assert qrels.grade("q1", "d1") == 2
        assert qrels.grade("q1", "other") == 0
        assert qrels.grade("q9", "d1") == 0

    def test_rejects_negative_grade(self):
        with pytest.raises(ValueError):
            Qrels().add("q", "d", -1)

    def test_constructor_rejects_negative_grade(self):
        # A grade of -1 would give ndcg_at_k(["d1", "d2"], ...) = -1.0.
        with pytest.raises(ValueError, match="non-negative"):
            Qrels({"q1": {"d1": -1, "d2": 1}})
        assert Qrels({"q1": {"d1": 0, "d2": 1}}).judged("q1") == {"d1": 0, "d2": 1}

    def test_file_roundtrip(self, tmp_path):
        qrels = Qrels()
        qrels.add("q2", "d7", 1)
        qrels.add("q1", "d3", 3)
        path = tmp_path / "qrels.txt"
        qrels.to_file(path)
        back = Qrels.from_file(path)
        assert back.grade("q1", "d3") == 3
        assert back.grade("q2", "d7") == 1
        assert back.queries() == ["q1", "q2"]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq2 0 d2\n")
        with pytest.raises(EvalInputError, match="line 2"):
            Qrels.from_file(path)

    def test_non_numeric_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 high\n")
        with pytest.raises(EvalInputError, match="line 1"):
            Qrels.from_file(path)

    def test_conflicting_grade_names_second_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq2 0 d1 0\nq1 0 d1 0\n")
        with pytest.raises(EvalInputError, match="line 3: grade 0 for query q1 doc d1"):
            Qrels.from_file(path)

    def test_identical_repeated_line_accepted(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d1 2\n")
        qrels = Qrels.from_file(path)
        assert qrels.judged("q1") == {"d1": 2}
        assert len(qrels) == 1


class TestNdcg:
    def test_perfect_single_relevant(self):
        assert ndcg_at_k(["d1", "x", "y"], {"d1": 1}, 5) == 1.0

    def test_single_relevant_at_rank_two(self):
        got = ndcg_at_k(["x", "d1", "y"], {"d1": 1}, 5)
        assert abs(got - 0.6309297535714574) <= 1e-12

    def test_no_relevant_docs(self):
        assert ndcg_at_k(["a", "b"], {}, 5) == 0.0

    def test_graded_judgments_by_hand(self):
        judged = {"a": 3, "b": 1, "c": 2}
        ranking = ["b", "a", "x", "c"]
        expected_dcg = 1.0 + 3.0 / math.log2(3) + 2.0 / math.log2(5)
        ideal = 3.0 + 2.0 / math.log2(3) + 1.0 / 2.0
        got = ndcg_at_k(ranking, judged, 5)
        assert abs(got - expected_dcg / ideal) <= 1e-12

    def test_relevant_below_cutoff_scores_zero(self):
        ranking = ["x1", "x2", "x3", "x4", "x5", "d1"]
        assert ndcg_at_k(ranking, {"d1": 1}, 5) == 0.0

    def test_matches_textbook_oracle(self, rng):
        docs = [f"d{i}" for i in range(12)]
        for _ in range(30):
            judged = {f"d{i}": int(g) for i, g in
                      enumerate(rng.integers(0, 4, size=12)) if g > 0}
            ranking = list(rng.permutation(docs))
            k = int(rng.integers(1, 8))
            assert abs(ndcg_at_k(ranking, judged, k) - naive_ndcg(ranking, judged, k)) <= 1e-12

    def test_rank_only_below_cutoff(self, rng):
        judged = {"d1": 2}
        ranking = ["d1", "a", "b", "c", "e", "f", "g"]
        shuffled = ["d1", "a", "b", "c", "e", "g", "f"]
        assert ndcg_at_k(ranking, judged, 5) == ndcg_at_k(shuffled, judged, 5)

    def test_upward_swap_never_hurts(self, rng):
        judged = {"rel": 1}
        base = ["a", "b", "rel", "c"]
        better = ["a", "rel", "b", "c"]
        assert ndcg_at_k(better, judged, 5) >= ndcg_at_k(base, judged, 5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    def test_dcg_prefix(self):
        grades = [3, 2, 0, 1]
        expected = 3.0 + 2.0 / math.log2(3) + 0.0 + 1.0 / math.log2(5)
        assert abs(dcg(grades, 4) - expected) <= 1e-12
        assert dcg(grades, 2) == 3.0 + 2.0 / math.log2(3)


class TestEvaluateRun:
    def test_mean_matches_naive_recompute(self, rng):
        qrels = Qrels()
        run = {}
        for qi in range(6):
            qid = f"q{qi}"
            docs = [f"d{i}" for i in range(10)]
            for d in rng.choice(docs, size=2, replace=False):
                qrels.add(qid, str(d), int(rng.integers(1, 4)))
            run[qid] = list(rng.permutation(docs))
        per_query, mean = evaluate_run(run, qrels, k=5)
        naive = [naive_ndcg(run[q], qrels.judged(q), 5) for q in run]
        assert abs(mean - sum(naive) / len(naive)) <= 1e-12
        for qid in run:
            assert abs(per_query[qid] - naive_ndcg(run[qid], qrels.judged(qid), 5)) <= 1e-12


@pytest.mark.parametrize("reader", [read_run, Qrels.from_file])
def test_non_utf8_file_is_eval_input_error_naming_it(tmp_path, reader):
    path = tmp_path / "judged.txt"
    path.write_bytes(b"\xff\xfeq1 0 d1 1\n")
    with pytest.raises(EvalInputError, match="judged.txt is not UTF-8"):
        reader(path)


class TestRunFiles:
    def test_write_format(self):
        hits = {"q1": [ScoredHit(doc_id="dA", score=1.23456789, rank=1),
                       ScoredHit(doc_id="dB", score=-0.5, rank=2)]}
        buf = io.StringIO()
        write_run(hits, buf, run_tag="trial")
        lines = buf.getvalue().splitlines()
        assert lines == ["q1 Q0 dA 1 1.234568 trial", "q1 Q0 dB 2 -0.500000 trial"]

    @pytest.mark.parametrize("tag", ["my tag", ""], ids=["space", "empty"])
    def test_tag_obeys_the_id_rule(self, tag):
        # such a tag gives run lines of 7 or 5 fields, which read_run refuses
        hits = {"q1": [ScoredHit(doc_id="dA", score=1.0, rank=1)]}
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(f"run: run_tag {tag!r} is empty or holds")):
            write_run(hits, buf, run_tag=tag)
        assert buf.getvalue() == ""

    def test_read_roundtrip(self, tmp_path):
        hits = {"q1": [ScoredHit(doc_id="dA", score=2.0, rank=1)],
                "q2": [ScoredHit(doc_id="dB", score=1.0, rank=1),
                       ScoredHit(doc_id="dC", score=0.5, rank=2)]}
        path = tmp_path / "run.txt"
        with path.open("w") as fh:
            write_run(hits, fh)
        run = read_run(path)
        assert run == {"q1": ["dA"], "q2": ["dB", "dC"]}

    def test_read_orders_by_rank_not_file_order(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 dB 2 0.5 t\nq1 Q0 dA 1 0.9 t\n")
        assert read_run(path) == {"q1": ["dA", "dB"]}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 dA 1 0.9 t\nbroken line\n")
        with pytest.raises(EvalInputError, match="line 2"):
            read_run(path)

    def test_repeated_doc_rejected(self, tmp_path):
        # Read as a ranking, d1 at ranks 1 and 2 scores nDCG@5 above 1.
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 t\nq2 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.8 t\n")
        with pytest.raises(EvalInputError, match="line 3: query q1 lists doc d1 again"):
            read_run(path)

    def test_repeated_rank_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 t\nq2 Q0 d2 1 0.9 t\nq1 Q0 d2 1 0.8 t\n")
        with pytest.raises(EvalInputError, match="line 3: query q1 uses rank 1 again"):
            read_run(path)


class TestSyntheticSpec:
    def test_rejects_more_queries_than_docs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=2, num_queries=3, grid=PatchGrid(rows=4, cols=4),
                          dim=16)

    def test_rejects_unfittable_block(self):
        # 5 patches only factor as 1x5 / 5x1, neither fits a 4x4 grid
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(rows=4, cols=4),
                          dim=16, signal_patches=5)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(rows=4, cols=4),
                          dim=10, signal_patches=4)

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=2, num_queries=1, grid=PatchGrid(rows=2, cols=2),
                          dim=16, signal_patches=8)


class TestGenerateCorpus:
    def small_spec(self, **kw):
        base = dict(num_docs=6, num_queries=3, grid=PatchGrid(rows=4, cols=4),
                    dim=16, signal_patches=4, noise_sigma=0.5, seed=11,
                    query_tokens=4)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_deterministic_across_calls(self):
        d1, q1, r1 = generate_corpus(self.small_spec())
        d2, q2, r2 = generate_corpus(self.small_spec())
        for a, b in zip(d1, d2):
            np.testing.assert_array_equal(a.vectors, b.vectors)
        for a, b in zip(q1, q2):
            np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_seed_changes_data(self):
        d1, _, _ = generate_corpus(self.small_spec())
        d2, _, _ = generate_corpus(self.small_spec(seed=12))
        assert not np.array_equal(d1[0].vectors, d2[0].vectors)

    def test_zero_noise_plants_exact_tokens(self):
        docs, queries, _ = generate_corpus(self.small_spec(noise_sigma=0.0))
        planted = docs[0].vectors
        tokens = queries[0].vectors
        # every token appears bit-for-bit among the planted patches
        for tok in tokens:
            assert any(np.array_equal(tok, row) for row in planted)

    def test_zero_noise_raw_maxsim_hits_token_count(self):
        # brute-force late interaction over raw normalized patches: the
        # planted doc scores exactly the token count and ranks first
        docs, queries, _ = generate_corpus(self.small_spec(noise_sigma=0.0))
        q = queries[0]
        scores = []
        for doc in docs:
            scores.append(naive_maxsim(q.vectors.tolist(), doc.vectors.tolist()))
        assert abs(scores[0] - q.n_tokens) <= 1e-12
        assert scores[0] == max(scores)
        assert sorted(scores)[-2] < scores[0]

    def test_signal_block_is_contiguous_rectangle(self):
        docs, queries, _ = generate_corpus(self.small_spec(noise_sigma=0.0))
        grid = docs[0].grid
        tokens = queries[0].vectors
        hit_cells = [
            divmod(j, grid.cols)
            for j, row in enumerate(docs[0].vectors)
            if any(np.array_equal(row, t) for t in tokens)
        ]
        rows = sorted({r for r, _ in hit_cells})
        cols = sorted({c for _, c in hit_cells})
        assert len(hit_cells) == len(rows) * len(cols)
        assert rows == list(range(rows[0], rows[-1] + 1))
        assert cols == list(range(cols[0], cols[-1] + 1))

    # noise or none, a block of more patches than the query has tokens (so
    # tokens repeat) or fewer, a 1-row block, a block that fills the grid
    @pytest.mark.parametrize("kw", [
        {}, {"noise_sigma": 0.0}, {"signal_patches": 6}, {"signal_patches": 3},
        {"signal_patches": 4, "query_tokens": 8, "noise_sigma": 2.0},
        {"signal_patches": 16, "noise_sigma": 0.0},
    ])
    def test_pages_match_the_patch_by_patch_reference(self, kw):
        spec = self.small_spec(**kw)
        docs, _, _ = generate_corpus(spec)
        for doc, expected in zip(docs, reference_pages(spec), strict=True):
            assert doc.vectors.tobytes() == expected.tobytes()

    def test_qrels_one_relevant_per_query(self):
        _, _, qrels = generate_corpus(self.small_spec())
        assert len(qrels) == 3
        for t in range(3):
            assert qrels.grade(f"q{t:04d}", f"doc{t:04d}") == 1
            assert len(qrels.judged(f"q{t:04d}")) == 1

    def test_noise_docs_are_unit_rows(self):
        docs, _, _ = generate_corpus(self.small_spec())
        last = docs[-1].vectors  # never planted
        np.testing.assert_allclose(np.linalg.norm(last, axis=1), 1.0,
                                   rtol=0, atol=1e-12)


class TestGenerateSynthetic:
    def test_byte_identical_dumps(self, tmp_path):
        spec = SyntheticSpec(num_docs=3, num_queries=2, grid=PatchGrid(rows=2, cols=4),
                             dim=8, signal_patches=2, noise_sigma=0.5, seed=5,
                             query_tokens=2)
        ds1 = generate_synthetic(spec, tmp_path / "a")
        ds2 = generate_synthetic(spec, tmp_path / "b")
        for p1, p2 in ((ds1.doc_manifest, ds2.doc_manifest),
                       (ds1.query_manifest, ds2.query_manifest),
                       (ds1.qrels_path, ds2.qrels_path)):
            assert p1.read_bytes() == p2.read_bytes()
        vec1 = sorted((tmp_path / "a" / "vectors").iterdir())
        vec2 = sorted((tmp_path / "b" / "vectors").iterdir())
        assert [v.name for v in vec1] == [v.name for v in vec2]
        for f1, f2 in zip(vec1, vec2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_dumps_ingest_cleanly(self, tmp_path):
        spec = SyntheticSpec(num_docs=3, num_queries=2, grid=PatchGrid(rows=2, cols=4),
                             dim=8, signal_patches=2, noise_sigma=0.5, seed=5,
                             query_tokens=2)
        ds = generate_synthetic(spec, tmp_path)
        docs = list(ingest_dump(ds.doc_manifest))
        queries = list(ingest_queries(ds.query_manifest))
        assert len(docs) == 3
        assert len(queries) == 2
        assert docs[0].grid == PatchGrid(rows=2, cols=4)


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = SyntheticSpec(num_docs=8, num_queries=4, grid=PatchGrid(rows=4, cols=4),
                         dim=16, signal_patches=4, noise_sigma=0.5, seed=2,
                         query_tokens=8)
    return generate_corpus(spec)


class TestRunAblation:
    def test_row_structure(self, tiny_corpus):
        docs, queries, qrels = tiny_corpus
        sweep = SweepSpec(k_values=(2, 4), omega_values=(0.0,), methods=("kmeans",),
                          base_k=4, base_omega=0.2, seed=2)
        rows = run_ablation(docs, queries, qrels, sweep)
        assert [r.config_id for r in rows] == [
            "baseline-k1", "k2", "k4", "omega0", "method-kmeans"
        ]
        base = rows[0]
        assert base.k == 1 and base.method == "hac_ward"
        assert rows[3].omega == 0.0
        assert rows[4].method == "kmeans"
        for row in rows:
            assert 0.0 <= row.mean_ndcg_at_5 <= 1.0
            assert row.index_bytes > 0
            assert row.wall_ms >= 0.0
        assert rows[0].vectors_per_doc == 1.0
        assert rows[1].vectors_per_doc == 2.0

    def test_csv_shape(self, tiny_corpus):
        docs, queries, qrels = tiny_corpus
        rows = run_ablation(docs, queries, qrels,
                            SweepSpec(k_values=(2,), base_k=2, seed=2))
        buf = io.StringIO()
        rows_to_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("config_id,method,k,omega,mean_ndcg_at_5,"
                            "vectors_per_doc,index_bytes,wall_ms")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "baseline-k1"
        assert first[1] == "hac_ward"
        assert first[2] == "1"
        float(first[4])
        float(first[7])

    def test_one_dendrogram_per_page_and_hac_omega(self, tiny_corpus, monkeypatch):
        docs, queries, qrels = tiny_corpus
        calls = []
        real = chunker.cluster_hac

        def counting(feats, k):
            calls.append((feats.omega, k))
            return real(feats, k)

        monkeypatch.setattr(chunker, "cluster_hac", counting)
        sweep = SweepSpec(k_values=(2, 4, 8), omega_values=(0.0, 0.2, 0.5, 1.0),
                          methods=("kmeans", "hac_ward"), base_k=4, base_omega=0.2, seed=2)
        rows = run_ablation(docs, queries, qrels, sweep)
        hac_omegas = {r.omega for r in rows if r.method == "hac_ward"}
        assert len(rows) == 10 and hac_omegas == {0.0, 0.2, 0.5, 1.0}
        assert len(calls) == len(docs) * len(hac_omegas)
        # the base-omega dendrogram is built once, at the baseline's k = 1
        assert sorted(set(calls)) == [(0.0, 4), (0.2, 1), (0.5, 4), (1.0, 4)]

    # ``bench --threads`` is accepted and ignored: every thread count must give
    # the rows of a one-config-at-a-time compress_many.
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("sweep", [
        # omega = 1 clusters on the grid alone, so Ward meets many exact ties
        SweepSpec(k_values=(2, 3, 5, 16), omega_values=(1.0, 0.0), methods=("kmeans",),
                  base_k=5, base_omega=1.0, seed=2),
        # k_values repeat base_k, and 40 exceeds the 16 patches of a page
        SweepSpec(k_values=(4, 40, 4), omega_values=(0.2, 0.5), methods=("hac_ward", "kmeans"),
                  base_k=4, base_omega=0.2, seed=2),
    ], ids=["tie-heavy", "repeats-and-clamps"])
    def test_rows_match_per_config_compress_many(self, tmp_path, monkeypatch, sweep, threads):
        written = {}
        real_write = evaluation.write_records

        # ``rows`` is a generator, so it is materialised before it is passed on;
        # the file's bytes are kept, since the ablation's scratch directory goes.
        def spy(path, dim, ids, meta, rows):
            rows = list(rows)
            total = real_write(path, dim, ids, meta, rows)
            written[Path(path).stem] = (list(ids), rows, Path(path).read_bytes())
            return total

        ablations = []

        def recording_ablation(docs, queries, qrels, spec):
            assert spec == sweep
            rows = run_ablation(docs, queries, qrels, spec)
            ablations.append((docs, queries, qrels, rows))
            return rows

        monkeypatch.setattr(evaluation, "write_records", spy)
        monkeypatch.setattr(cli, "run_ablation", recording_ablation)
        out = tmp_path / "ablation.csv"
        # the tiny_corpus shape, generated and ingested by bench itself
        assert cli.main([
            "bench", "--num-docs", "8", "--num-queries", "4", "--grid-rows", "4",
            "--grid-cols", "4", "--dim", "16", "--signal-patches", "4",
            "--noise-sigma", "0.5", "--query-tokens", "8", "--seed", str(sweep.seed),
            "--sweep-k", ",".join(map(str, sweep.k_values)),
            "--sweep-omega", ",".join(map(str, sweep.omega_values)),
            "--methods", ",".join(sweep.methods), "--k", str(sweep.base_k),
            "--omega", str(sweep.base_omega), "--threads", str(threads), "--out", str(out),
        ]) == 0
        (docs, queries, qrels, rows), = ablations
        buf = io.StringIO()
        rows_to_csv(rows, buf)
        assert out.read_text(encoding="utf-8") == buf.getvalue()
        assert set(written) == {r.config_id for r in rows}
        for row in rows:
            ids, records, blob = written[row.config_id]
            cfg = ChunkerConfig(k=row.k, omega=row.omega, method=row.method, seed=sweep.seed)
            meta = BuildMeta(omega=cfg.omega, k_target=cfg.k, method=cfg.method,
                             posenc_base=BASE, tool_version=__version__,
                             embedding_location="synthetic")
            ref = CorpusIndex(dim=docs[0].dim, docs=compress_many(docs, cfg), build_meta=meta)
            chunks = np.concatenate([c for c, _ in records])
            assert ids == list(ref.ids)
            assert chunks.dtype == np.float64
            assert chunks.tobytes() == ref.chunks.tobytes(), row.config_id
            assert np.array_equal(np.concatenate([s for _, s in records]), ref.sizes)
            assert np.array_equal(np.cumsum([0] + [len(c) for c, _ in records]), ref.offsets)
            ref_path = tmp_path / f"{row.config_id}.cchk"
            write_index(ref, ref_path)
            assert blob == ref_path.read_bytes(), row.config_id
            run = {q.query_id: [h.doc_id for h in retrieve(q, ref, top_k=5)] for q in queries}
            assert row.mean_ndcg_at_5 == evaluate_run(run, qrels, k=5)[1]
            assert row.vectors_per_doc == float(np.mean(np.diff(ref.offsets)))
            assert row.index_bytes == ref_path.stat().st_size
