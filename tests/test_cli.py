"""End-to-end CLI checks.

Most tests invoke `python -m colchunk.cli ...` the way a user would, so
exit codes, stream separation, and file outputs are all exercised for real.
The error-path table runs `cli.main` in-process, one bad input per case.
"""

import dataclasses
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from colchunk import chunker, cli, store
from colchunk.chunker import ChunkerConfig
from colchunk.evaluation import Qrels, SweepSpec, SyntheticSpec, generate_synthetic
from colchunk.store import read_index, write_embedding_dump
from colchunk.types import PatchEmbeddingSet, PatchGrid

from conftest import with_trailer


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "colchunk.cli", *argv], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    spec = SyntheticSpec(num_docs=6, num_queries=3, grid=PatchGrid(rows=4, cols=4),
                         dim=16, signal_patches=4, noise_sigma=0.3, seed=9,
                         query_tokens=4)
    return generate_synthetic(spec, root)


# ``entries`` that is not a list; a count of 1e400, which JSON reads as infinity.
HOSTILE_MANIFESTS = {"entries-null": '{"dim": 16, "entries": null}',
                     "dim-inf": '{"dim": 1e400, "entries": []}'}


class TestCompress:
    def test_happy_path(self, dataset, tmp_path):
        index = tmp_path / "out.cchk"
        proc = run_cli("compress", str(dataset.doc_manifest), str(index),
                       "--k", "4", "--omega", "0.2")
        assert proc.returncode == 0, proc.stderr
        assert index.exists()
        assert "docs: 6" in proc.stdout
        assert "mean chunks per doc: 4.0" in proc.stdout
        assert "vector-count reduction: 75.0%" in proc.stdout
        loaded = read_index(index)
        assert len(loaded.docs) == 6
        assert loaded.build_meta.k_target == 4

    def test_reads_each_page_only_after_compressing_the_last(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        # one page in memory at a time, however long the dump: each page is
        # written before the next is read (the writer checks each record
        # just before writing its bytes)
        events = []
        read_pages, compress_page = cli.ingest_dump, chunker.compress
        check_record = store.check_compressed

        def spy_ingest(manifest):
            for pset in read_pages(manifest):
                events.append("read")
                yield pset

        def spy_compress(pset, cfg):
            events.append("compress")
            return compress_page(pset, cfg)

        def spy_check(*args):
            events.append("write")
            return check_record(*args)

        monkeypatch.setattr(cli, "ingest_dump", spy_ingest)
        monkeypatch.setattr(chunker, "compress", spy_compress)
        monkeypatch.setattr(store, "check_compressed", spy_check)
        argv = ["compress", str(dataset.doc_manifest), str(tmp_path / "s.cchk"), "--k", "4"]
        assert cli.main(argv) == 0
        assert "docs: 6" in capsys.readouterr().out
        assert events == ["read", "compress", "write"] * 6

    def test_method_alias(self, dataset, tmp_path):
        index = tmp_path / "km.cchk"
        proc = run_cli("compress", str(dataset.doc_manifest), str(index),
                       "--k", "4", "--method", "kmeans", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        assert read_index(index).build_meta.method == "kmeans"

    def test_method_is_read_as_bench_reads_it(self, dataset, tmp_path, capsys):
        # compress --method and bench --methods share one parser, which
        # strips the blanks around a name
        indexes = [tmp_path / "plain.cchk", tmp_path / "padded.cchk"]
        for index, method in zip(indexes, ["kmeans", " kmeans"]):
            argv = ["compress", str(dataset.doc_manifest), str(index), "--k", "4",
                    "--method", method, "--seed", "3"]
            assert cli.main(argv) == 0
        assert indexes[0].read_bytes() == indexes[1].read_bytes()

    def test_zero_k_is_usage_error(self, dataset, tmp_path):
        proc = run_cli("compress", str(dataset.doc_manifest),
                       str(tmp_path / "x.cchk"), "--k", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_omega_out_of_range(self, dataset, tmp_path):
        proc = run_cli("compress", str(dataset.doc_manifest),
                       str(tmp_path / "x.cchk"), "--omega", "1.5")
        assert proc.returncode == 2

    def test_missing_manifest_is_data_error(self, tmp_path):
        proc = run_cli("compress", str(tmp_path / "nope.json"),
                       str(tmp_path / "x.cchk"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_broken_manifest_names_missing_doc(self, dataset, tmp_path):
        import json
        import shutil

        broken_root = tmp_path / "broken"
        shutil.copytree(dataset.doc_manifest.parent, broken_root)
        manifest = broken_root / dataset.doc_manifest.name
        entries = json.loads(manifest.read_text())
        victim = entries["entries"][0]["doc_id"]
        (broken_root / "vectors" / f"{victim}.f32").unlink()
        proc = run_cli("compress", str(manifest), str(tmp_path / "x.cchk"))
        assert proc.returncode == 1
        assert victim in proc.stderr

    def test_duplicated_patches(self, tmp_path):
        # duplicate patches once made Ward HAC fail in a square root; these
        # differ only in length, so they normalize to vectors a rounding
        # error apart, survive the dump's float32 rounding and hit that path
        r = np.random.default_rng(130)
        base = r.normal(size=(r.integers(1, 5), 4))
        pts = base[r.integers(0, len(base), size=22)] * r.uniform(0.5, 4.0, size=(22, 1))
        page = PatchEmbeddingSet(doc_id="dup", dim=4, grid=PatchGrid(rows=2, cols=11),
                                 vectors=pts)
        manifest = write_embedding_dump([page], tmp_path / "dump")
        index = tmp_path / "dup.cchk"
        proc = run_cli("compress", str(manifest), str(index), "--omega", "0", "--k", "1")
        assert proc.returncode == 0, proc.stderr
        assert read_index(index).docs[0].chunk_sizes.tolist() == [22]

    @pytest.mark.parametrize("fault", ["nan", "zero-norm", "count-mismatch"])
    def test_bad_page_dump_is_data_error(self, tmp_path, fault):
        import json

        page = PatchEmbeddingSet(doc_id="bad", dim=4, grid=PatchGrid(rows=2, cols=2),
                                 vectors=np.random.default_rng(3).normal(size=(4, 4)))
        manifest = write_embedding_dump([page], tmp_path / "dump")
        raw = tmp_path / "dump" / "vectors" / "bad.f32"
        data = np.fromfile(raw, dtype="<f4")
        if fault == "nan":
            data[6] = np.nan
        elif fault == "zero-norm":
            data[4:8] = 0.0
        else:
            body = json.loads(manifest.read_text())
            body["entries"][0]["n_vectors"] = 3
            manifest.write_text(json.dumps(body))
        data.tofile(raw)
        proc = run_cli("compress", str(manifest), str(tmp_path / "x.cchk"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "bad" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("body", list(HOSTILE_MANIFESTS.values()), ids=list(HOSTILE_MANIFESTS))
    def test_hostile_manifest_is_data_error(self, tmp_path, body):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(body)
        proc = run_cli("compress", str(manifest), str(tmp_path / "x.cchk"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def index_path(dataset, tmp_path_factory):
    index = tmp_path_factory.mktemp("idx") / "corpus.cchk"
    proc = run_cli("compress", str(dataset.doc_manifest), str(index), "--k", "4")
    assert proc.returncode == 0, proc.stderr
    return index


class TestQuery:
    def test_writes_run_file(self, dataset, index_path, tmp_path):
        out = tmp_path / "run.txt"
        proc = run_cli("query", str(index_path), str(dataset.query_manifest),
                       "--top-k", "3", "--out", str(out), "--run-tag", "trial")
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 9  # 3 queries x 3 hits
        fields = lines[0].split()
        assert len(fields) == 6
        assert fields[1] == "Q0"
        assert fields[3] == "1"
        assert fields[5] == "trial"

    @pytest.mark.parametrize("body", list(HOSTILE_MANIFESTS.values()), ids=list(HOSTILE_MANIFESTS))
    def test_hostile_query_manifest_is_data_error(self, index_path, tmp_path, body):
        manifest = tmp_path / "queries.json"
        manifest.write_text(body)
        proc = run_cli("query", str(index_path), str(manifest))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_stdout_when_no_out(self, dataset, index_path):
        proc = run_cli("query", str(index_path), str(dataset.query_manifest),
                       "--top-k", "2")
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 6

    def test_corrupt_index_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.cchk"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        proc = run_cli("query", str(bad), str(dataset.query_manifest))
        assert proc.returncode == 1
        assert "error:" in proc.stderr


    def test_non_object_metadata_is_data_error(self, dataset, index_path, tmp_path):
        bad = tmp_path / "list-trailer.cchk"
        bad.write_bytes(with_trailer(index_path.read_bytes(), b"[]"))
        proc = run_cli("query", str(bad), str(dataset.query_manifest))
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


def run_blas(threads, *argv):
    """``python argv`` in a process whose BLAS runs ``threads`` threads (1 or 2, never more)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


# Bench pages of 255 patches, where the Gram product ``x @ x.T`` changes its
# last bits with the BLAS thread count, and of 900, at bench's dim of 128.
BLAS_GRIDS = {"15x17": PatchGrid(rows=15, cols=17), "30x30": PatchGrid(rows=30, cols=30)}

# Prints, for each page of each manifest given, at omega 0.2 and 1: the labels
# at K = 40 and the merge order Z[:, :2] of its full Ward dendrogram.
HAC_ORDER = """
import json, sys
from colchunk.chunker import ChunkerConfig, cluster_hac, cut_linkage, fuse
from colchunk.store import ingest_dump
for manifest in sys.argv[1:]:
    for omega in (0.2, 1):
        for page in ingest_dump(manifest):
            _, z = cluster_hac(fuse(page, ChunkerConfig(k=40, omega=omega)), 1)
            labels = cut_linkage(z, len(page.vectors), 40).labels
            print(json.dumps([labels.tolist(), z[:, :2].tolist()]))
"""


@pytest.fixture(scope="module")
def blas_pages(tmp_path_factory):
    """Grid name -> a 4-page, 2-query bench dataset of that grid."""
    root = tmp_path_factory.mktemp("blas-pages")
    return {name: generate_synthetic(SyntheticSpec(num_docs=4, num_queries=2, grid=grid,
                                                   dim=128, query_tokens=4), root / name)
            for name, grid in BLAS_GRIDS.items()}


class TestBlasThreads:
    """What holds across BLAS thread counts: the `.cchk` bytes, the run files,
    Ward's merge order and its labels. Z[:, 2]'s last bits need not."""

    @pytest.mark.parametrize("omega", ["0.2", "1"])
    @pytest.mark.parametrize("grid", list(BLAS_GRIDS))
    def test_compress_and_query_write_the_same_bytes(self, blas_pages, tmp_path, grid, omega):
        data = blas_pages[grid]
        outputs = []
        for threads in (1, 2):
            index, run = tmp_path / f"{threads}.cchk", tmp_path / f"{threads}.txt"
            top = tmp_path / f"{threads}-top1.txt"
            # --top-k 1 of 4 pages runs the float32 candidate pass; the default
            # 10 ranks every page exactly without it.
            for argv in (["compress", data.doc_manifest, index, "--k", "40", "--omega", omega],
                         ["query", index, data.query_manifest, "--out", run],
                         ["query", index, data.query_manifest, "--top-k", "1", "--out", top]):
                proc = run_blas(threads, "-m", "colchunk.cli", *map(str, argv))
                assert proc.returncode == 0, proc.stderr
            outputs.append((index.read_bytes(), run.read_bytes(), top.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_ward_merge_order_and_labels_are_the_same(self, blas_pages):
        manifests = [str(data.doc_manifest) for data in blas_pages.values()]
        printed = []
        for threads in (1, 2):
            proc = run_blas(threads, "-c", HAC_ORDER, *manifests)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout.splitlines())
        assert len(printed[0]) == 2 * 2 * 4
        assert printed[0] == printed[1]


class TestEval:
    def test_ndcg_csv(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text(
            "q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\n"
            "q2 Q0 d9 1 0.8 t\nq2 Q0 d2 2 0.4 t\n"
        )
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n")
        proc = run_cli("eval", str(run), str(qrels), "--k", "5")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "query_id,ndcg_at_5"
        assert lines[1] == "q1,1.000000"
        assert lines[2] == "q2,0.630930"
        assert lines[3] == "all,0.815465"
        assert proc.stderr == ""  # every judged query is in the run

    def test_reports_judged_queries_missing_from_run(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\n")
        qrels = tmp_path / "qrels.txt"
        # q2..q7 have a relevant doc and no results; q0 is judged all-zero
        lines = ["q1 0 d1 1", "q0 0 d1 0"]
        lines += [f"q{i} 0 d{i} {1 + i % 2}" for i in range(2, 8)]
        qrels.write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", str(run), str(qrels), "--k", "5")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["query_id,ndcg_at_5", "q1,1.000000", "all,1.000000"]
        assert "6 judged queries" in proc.stderr
        assert "q2, q3, q4, q5, q6, ..." in proc.stderr
        assert "q0" not in proc.stderr and "q7" not in proc.stderr

    def test_repeated_run_pair_is_an_error(self, tmp_path):
        # Counted twice, d1 would score nDCG@5 = 1.630930.
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.5 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\n")
        proc = run_cli("eval", str(run), str(qrels), "--k", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "run line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_conflicting_qrels_grade_is_an_error(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 0.9 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d1 0\n")
        proc = run_cli("eval", str(run), str(qrels), "--k", "5")
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "qrels line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_run_is_an_error(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_bytes(b"\xff\xfeq1 Q0 d1 1 0.9 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\n")
        proc = run_cli("eval", str(run), str(qrels))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "run.txt is not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_qrels(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 0.9 t\n")
        proc = run_cli("eval", str(run), str(tmp_path / "none.txt"))
        assert proc.returncode == 1


class TestBench:
    BENCH_ARGS = (
        "--num-docs", "6", "--num-queries", "3", "--grid-rows", "4",
        "--grid-cols", "4", "--dim", "16", "--signal-patches", "4",
        "--query-tokens", "4", "--noise-sigma", "0.3", "--seed", "9",
        "--sweep-k", "2,4", "--k", "4",
    )

    def test_csv_to_stdout(self):
        proc = run_cli("bench", *self.BENCH_ARGS)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("config_id,method,k,omega,")
        ids = [ln.split(",")[0] for ln in lines[1:]]
        assert ids == ["baseline-k1", "k2", "k4"]

    def test_out_file_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            proc = run_cli("bench", *self.BENCH_ARGS, "--out", str(path))
            assert proc.returncode == 0, proc.stderr
        got_a = a.read_text()
        got_b = b.read_text()
        # wall_ms is a timing; everything else must match run to run
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(got_a) == strip(got_b)

    def test_workdir_keeps_dataset(self, tmp_path):
        work = tmp_path / "kept"
        proc = run_cli("bench", *self.BENCH_ARGS, "--workdir", str(work))
        assert proc.returncode == 0, proc.stderr
        assert (work / "manifest.json").exists()
        assert (work / "queries.json").exists()
        assert (work / "qrels.txt").exists()

    def test_unknown_method_is_usage_error(self):
        proc = run_cli("bench", *self.BENCH_ARGS, "--methods", "spectral")
        assert proc.returncode == 2

    # Each dump has the baseline, k, omega (1.0 among them) and method-kmeans
    # rows; the first clamps K = 40 to a page's 16 patches and clusters the
    # base row at omega = 1, where Ward meets many exact ties.
    @pytest.mark.parametrize("argv", [
        ["--num-docs", "8", "--num-queries", "4", "--grid-rows", "4", "--grid-cols", "4",
         "--dim", "16", "--signal-patches", "4", "--query-tokens", "8", "--seed", "2",
         "--sweep-k", "2,3,16,40", "--sweep-omega", "0,1", "--methods", "kmeans",
         "--k", "5", "--omega", "1"],
        ["--num-docs", "12", "--num-queries", "4", "--grid-rows", "6", "--grid-cols", "4",
         "--dim", "32", "--signal-patches", "4", "--query-tokens", "8", "--noise-sigma", "0.4",
         "--seed", "5", "--sweep-k", "4,8", "--sweep-omega", "0.5,1",
         "--methods", "kmeans,hac_ward", "--k", "6"],
    ], ids=["tie-heavy-and-clamped", "two-methods"])
    def test_rows_are_the_pipelines_result(self, tmp_path, capsys, argv):
        # A bench row is what compress, query --top-k 5 and eval give on
        # its dump: the same nDCG@5 as printed, and its index file's size.
        work, table = tmp_path / "work", tmp_path / "bench.csv"
        assert cli.main(["bench", *argv, "--workdir", str(work), "--out", str(table)]) == 0
        seed = argv[argv.index("--seed") + 1]
        header, *lines = table.read_text(encoding="utf-8").splitlines()
        assert header.split(",")[4:7] == ["mean_ndcg_at_5", "vectors_per_doc", "index_bytes"]
        assert {"baseline-k1", "omega1", "method-kmeans"} <= {ln.split(",")[0] for ln in lines}
        for line in lines:
            config_id, method, k, omega, ndcg, _, index_bytes, _ = line.split(",")
            index, run = tmp_path / f"{config_id}.cchk", tmp_path / f"{config_id}.txt"
            steps = [
                ["compress", str(work / "manifest.json"), str(index), "--k", k,
                 "--omega", omega, "--method", method, "--seed", seed],
                ["query", str(index), str(work / "queries.json"), "--top-k", "5",
                 "--out", str(run)],
                ["eval", str(run), str(work / "qrels.txt")],
            ]
            capsys.readouterr()
            for step in steps:
                assert cli.main(step) == 0, (config_id, step[0])
            printed = capsys.readouterr().out.splitlines()
            assert printed[-1] == f"all,{ndcg}", config_id
            assert index.stat().st_size == int(index_bytes), config_id


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_command(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_defaults_are_the_dataclass_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["compress", "manifest.json", "index.cchk"])
        cfg = ChunkerConfig(args.k, args.omega, cli.METHOD_ALIASES[args.method], args.seed)
        assert cfg == ChunkerConfig()
        args = parser.parse_args(["bench"])
        assert SweepSpec(base_k=args.k, base_omega=args.omega, seed=args.seed) == SweepSpec()
        defaults = [f for f in dataclasses.fields(SyntheticSpec)
                    if f.default is not dataclasses.MISSING]
        assert [getattr(args, f.name) for f in defaults] == [f.default for f in defaults]

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("compress", "query", "eval", "bench"):
            assert sub in proc.stdout

    @pytest.mark.parametrize("command", ["compress", "query", "bench"])
    def test_threads_must_be_a_positive_integer(self, command, capsys):
        # the flag has no effect, but a bad value is still a usage error
        positional = {"compress": ["m.json", "x.cchk"], "query": ["x.cchk", "q.json"],
                      "bench": []}
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *positional[command], "--threads", "0"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_leave_the_run_as_it_is(self, dataset, index_path, tmp_path):
        runs = []
        for flag in ([], ["--threads", "4"]):
            out = tmp_path / f"run{len(flag)}.txt"
            assert cli.main(["query", str(index_path), str(dataset.query_manifest),
                             "--top-k", "3", "--out", str(out), *flag]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]

    def test_oversized_page_is_data_error(self, dataset, tmp_path, monkeypatch, capsys):
        # the dataset's pages hold 16 patches each
        monkeypatch.setattr(chunker, "MAX_HAC_PATCHES", 15)
        index = tmp_path / "big.cchk"
        code = cli.main(["compress", str(dataset.doc_manifest), str(index), "--k", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "MAX_HAC_PATCHES = 15" in err
        assert not index.exists()


@pytest.fixture(scope="module")
def bad_inputs(dataset, index_path, tmp_path_factory):
    """Name -> path of one good or bad input file each, for the error-path table."""
    root = tmp_path_factory.mktemp("bad-inputs")
    data = root / "data"
    shutil.copytree(dataset.doc_manifest.parent, data)
    paths = {
        "manifest": data / dataset.doc_manifest.name,
        "queries": data / dataset.query_manifest.name,
        "index": index_path,
        "missing": root / "missing",
    }

    def write(file_name, body):
        paths[file_name.partition(".")[0]] = root / file_name
        (root / file_name).write_bytes(body.encode() if isinstance(body, str) else body)

    def manifest_with(file_name, source, field, value, entry=0):
        body = json.loads(paths[source].read_text())
        body["entries"][entry][field] = value
        paths[file_name.partition(".")[0]] = data / file_name
        (data / file_name).write_text(json.dumps(body))

    write("non_utf8.json", b'{"dim": 16, "entries": []}\xff')
    write("empty.json", '{"dim": 16, "entries": []}')
    write("hostile.json", HOSTILE_MANIFESTS["entries-null"])
    write("nested.json", "[" * 100_000)
    manifest_with("null_doc_id.json", "manifest", "doc_id", None)
    manifest_with("space_doc_id.json", "manifest", "doc_id", "a b")
    manifest_with("space_query_id.json", "queries", "query_id", "q 1")
    # json.dumps writes a lone surrogate as the escape "\ud800"
    manifest_with("surrogate_doc_id.json", "manifest", "doc_id", "\ud800")
    manifest_with("surrogate_query_id.json", "queries", "query_id", "\ud800")
    manifest_with("long_doc_id.json", "manifest", "doc_id", "x" * 70_000, entry=-1)
    manifest_with("long_negative_n_vectors.json", "manifest", "n_vectors", -NINES)
    manifest_with("long_n_vectors_queries.json", "queries", "n_vectors", NINES)
    manifest_with("bool_rows.json", "manifest", "rows", True)
    paths["dim_2_32"] = data / "dim_2_32.json"
    paths["dim_2_32"].write_text(json.dumps(dict(json.loads(paths["manifest"].read_text()),
                                                 dim=2**32)))
    # the dataset's last page (16 patches of dim 16) with a NaN in its first patch
    nan_page = np.ones(16 * 16, dtype="<f4")
    nan_page[5] = np.nan
    nan_page.tofile(data / "vectors" / "nan.f32")
    manifest_with("nan_last_page.json", "manifest", "path", "vectors/nan.f32", entry=-1)
    blob = index_path.read_bytes()
    write("truncated.cchk", blob[: len(blob) // 2])
    # cut where the first record's K starts, after the header, id length and id
    write("cut_at_first_k.cchk", blob[: 22 + int.from_bytes(blob[20:22], "little")])
    write("corrupt.cchk", b"JUNK" + blob[4:])
    write("nested_trailer.cchk", with_trailer(blob, b"[" * 100_000))
    meta = json.loads(blob[-8 - int.from_bytes(blob[-8:], "little") : -8])
    bad_meta = json.dumps(dict(meta, k_target=True), sort_keys=True, separators=(",", ":"))
    write("bool_k_trailer.cchk", with_trailer(blob, bad_meta.encode()))
    far_meta = json.dumps(dict(meta, omega=5), sort_keys=True, separators=(",", ":"))
    write("out_of_range_trailer.cchk", with_trailer(blob, far_meta.encode()))
    huge_meta = json.dumps(dict(meta, omega=10**400), sort_keys=True, separators=(",", ":"))
    write("huge_omega_trailer.cchk", with_trailer(blob, huge_meta.encode()))
    # the first doc's id starts after the 20-byte header and its u16 length
    middle = 22 + int.from_bytes(blob[20:22], "little") // 2
    write("space_id.cchk", blob[:middle] + b" " + blob[middle + 1 :])
    write("run.txt", "q1 Q0 d1 1 0.9 t\n")
    write("old_run.txt", "q1 Q0 d1 1 0.9 t\n")
    write("empty_run.txt", "")
    write("repeated_run.txt", "q1 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.5 t\n")
    write("non_utf8_run.txt", b"\xff\xfeq1 Q0 d1 1 0.9 t\n")
    write("separated_rank_run.txt", "q1 Q0 d1 1_0 0.9 t\n")
    write("nan_score_run.txt", "q1 Q0 d1 1 nan t\n")
    write("inf_score_run.txt", "q1 Q0 d1 1 inf t\n")
    write("qrels.txt", "q1 0 d1 1\n")
    write("separated_grade_qrels.txt", "q1 0 d1 1_0\n")
    write("arabic_indic_grade_qrels.txt", "q1 0 d1 \u0661\n")
    write("conflicting_qrels.txt", "q1 0 d1 1\nq1 0 d1 0\n")
    page = PatchEmbeddingSet(doc_id="p", dim=6, grid=PatchGrid(rows=2, cols=2),
                             vectors=np.random.default_rng(6).normal(size=(4, 6)))
    paths["dim6"] = write_embedding_dump([page], root / "dim6")
    # an output link into a directory that does not exist, which the error names
    paths.update(dangling=root / "dangling", nodir=root.resolve() / "nodir")
    paths["dangling"].symlink_to(Path("nodir") / "out")
    # inputs that a refused output path names, apart from the shared ones above
    own = root / "own"
    shutil.copytree(dataset.doc_manifest.parent, own)
    shutil.copy(index_path, own / "pages.cchk")
    first_page = json.loads(dataset.doc_manifest.read_text())["entries"][0]["path"]
    first_query = json.loads(dataset.query_manifest.read_text())["entries"][0]["path"]
    paths.update(own_manifest=own / dataset.doc_manifest.name,
                 own_manifest_alias=own / "vectors" / ".." / dataset.doc_manifest.name,
                 own_page=own / first_page, own_queries=own / dataset.query_manifest.name,
                 own_query=own / first_query, own_index=own / "pages.cchk")
    return paths


# A count of 3,000 digits, which every message echoes cut to 40 characters.
NINES = 10**3000 - 1

# Bench flags for a corpus small enough to build in a moment.
SMALL_BENCH = ["bench", "--num-docs", "4", "--num-queries", "2", "--grid-rows", "4",
               "--grid-cols", "4", "--dim", "16", "--signal-patches", "4", "--query-tokens",
               "4", "--k", "4", "--out", "{out}/b.csv"]

# name -> (argv, a fragment of the error). ``{name}``, in either, stands for
# the file ``bad_inputs`` names so, ``{out}`` for an empty output directory and
# ``{work}`` for a ``bench --workdir`` outside it.
CLI_ERROR_CASES = {
    "compress-missing-manifest": (["compress", "{missing}", "{out}/x.cchk"], "missing"),
    "compress-non-utf8-manifest": (["compress", "{non_utf8}", "{out}/x.cchk"], "non_utf8.json"),
    "compress-hostile-manifest": (["compress", "{hostile}", "{out}/x.cchk"],
                                  "entries must be a list"),
    "compress-nested-manifest": (["compress", "{nested}", "{out}/x.cchk"], "nested.json"),
    "compress-null-doc-id": (["compress", "{null_doc_id}", "{out}/x.cchk"],
                             "doc manifest entry 0: doc_id must be a JSON string"),
    "compress-space-in-doc-id": (["compress", "{space_doc_id}", "{out}/x.cchk"],
                                 "doc manifest entry 0: doc_id 'a b'"),
    "compress-empty-manifest": (["compress", "{empty}", "{out}/x.cchk"], "lists no documents"),
    # a bool is not a count, though Python takes True for 1
    "compress-bool-rows": (["compress", "{bool_rows}", "{out}/x.cchk", "--k", "4"],
                           "error: doc manifest entry 0: rows must be an integer, got True\n"),
    # the positional encoder takes the page's dim, which must be a multiple of 4
    "compress-dim-6": (["compress", "{dim6}", "{out}/x.cchk"], "multiple of 4, got 6"),
    # MAX_HAC_PATCHES is lowered below the dataset's 16 patches a page
    "compress-oversized-page": (["compress", "{manifest}", "{out}/x.cchk", "--k", "4"],
                                "MAX_HAC_PATCHES = 15"),
    # numpy's own message for a negative k-means seed names no flag
    "compress-kmeans-negative-seed": (["compress", "{manifest}", "{out}/x.cchk", "--k", "4",
                                       "--method", "kmeans", "--seed", "-1"],
                                      "seed must be a non-negative integer, got -1"),
    # HAC never draws from the seed, but the same rule holds for every method
    "compress-hac-negative-seed": (["compress", "{manifest}", "{out}/x.cchk", "--k", "4",
                                    "--method", "hac", "--seed", "-1"],
                                   "seed must be a non-negative integer, got -1"),
    # refused before any page is compressed
    "compress-oversized-doc-id": (["compress", "{long_doc_id}", "{out}/x.cchk", "--k", "4"],
                                  "exceeds the u16 length field"),
    # the index header stores dim as a u32: refused before the index is opened
    "compress-dim-2-32": (["compress", "{dim_2_32}", "{out}/x.cchk", "--k", "4"],
                          "error: dim 4294967296 exceeds the u32 dim field\n"),
    # a refused value of thousands of digits is echoed cut to 40 characters
    "compress-long-negative-n-vectors": (
        ["compress", "{long_negative_n_vectors}", "{out}/x.cchk"],
        f"error: doc manifest entry 0: n_vectors must be at least 1, got -{'9' * 39}\n"),
    # refused after the earlier pages' records were written
    "compress-bad-last-page": (["compress", "{nan_last_page}", "{out}/x.cchk", "--k", "4"],
                               "doc 'doc0005': vectors[0] has a non-finite component"),
    "query-missing-index": (["query", "{missing}", "{queries}", "--out", "{out}/run.txt"],
                            "missing"),
    "query-truncated-index": (["query", "{truncated}", "{queries}", "--out", "{out}/run.txt"],
                              "truncated file"),
    # a cut names the field it ends in, and the run file --out names keeps its bytes
    "query-index-cut-at-the-first-k": (
        ["query", "{cut_at_first_k}", "{queries}", "--out", "{old_run}"],
        "error: truncated file: ran out of bytes reading doc 'doc0000' k\n"),
    "query-corrupt-index": (["query", "{corrupt}", "{queries}", "--out", "{out}/run.txt"],
                            "bad magic"),
    "query-nested-trailer": (["query", "{nested_trailer}", "{queries}", "--out",
                              "{out}/run.txt"], "unreadable build metadata"),
    # a bool where the trailer needs an integer
    "query-malformed-trailer": (["query", "{bool_k_trailer}", "{queries}", "--out",
                                 "{out}/run.txt"],
                                "build metadata: k_target must be an integer, got True"),
    # well typed, but a build that no ChunkerConfig accepts
    "query-out-of-range-trailer": (["query", "{out_of_range_trailer}", "{queries}", "--out",
                                    "{out}/run.txt"],
                                   "build metadata: omega must lie in [0, 1], got 5"),
    # an integer too large for a float, echoed cut to 40 digits
    "query-huge-omega-trailer": (["query", "{huge_omega_trailer}", "{queries}", "--out",
                                  "{out}/run.txt"],
                                 f"build metadata: omega must lie in [0, 1], got 1{'0' * 39}"),
    # such an id would split its run line into 7 fields, which eval refuses
    "query-space-in-index-id": (["query", "{space_id}", "{queries}", "--out",
                                 "{out}/run.txt"], "is empty or holds whitespace"),
    "query-long-n-vectors": (["query", "{index}", "{long_n_vectors_queries}", "--out",
                              "{out}/run.txt"],
                             f"raw file q0000.f32 holds 256 bytes, expected "
                             f"{str(NINES * 16 * 4)[:40]} ({'9' * 40} x 16 float32)\n"),
    "query-empty-manifest": (["query", "{index}", "{empty}", "--out", "{out}/run.txt"],
                             "lists no queries"),
    "query-hostile-manifest": (["query", "{index}", "{hostile}", "--out", "{out}/run.txt"],
                               "entries must be a list"),
    "query-non-utf8-manifest": (["query", "{index}", "{non_utf8}", "--out", "{out}/run.txt"],
                                "non_utf8.json"),
    "query-space-in-query-id": (["query", "{index}", "{space_query_id}", "--out",
                                 "{out}/run.txt"], "query manifest entry 0: query_id 'q 1'"),
    # an id UTF-8 cannot encode is refused by the loader, naming its field:
    # query stops before it opens --out, so the run file there is unchanged
    "compress-surrogate-doc-id": (["compress", "{surrogate_doc_id}", "{out}/x.cchk"],
                                  "error: doc manifest entry 0: doc_id '\\ud800' is not "
                                  "UTF-8 text\n"),
    "query-surrogate-query-id": (["query", "{index}", "{surrogate_query_id}", "--out",
                                  "{old_run}"],
                                 "error: query manifest entry 0: query_id '\\ud800' is not "
                                 "UTF-8 text\n"),
    # a run tag is the sixth field of every run line, so it obeys the id rule;
    # refused before retrieval
    "query-space-in-run-tag": (["query", "{index}", "{queries}", "--out", "{out}/run.txt",
                                "--run-tag", "my tag"],
                               "query: --run-tag 'my tag' is empty or holds whitespace"),
    "query-empty-run-tag": (["query", "{index}", "{queries}", "--out", "{out}/run.txt",
                             "--run-tag", ""], "query: --run-tag '' is empty or holds whitespace"),
    # an output path that names an input is refused before any work, so the
    # input survives: compress once replaced the manifest or a raw page it had
    # read with the index, and query --out the index or the query manifest
    "compress-index-names-the-manifest": (
        ["compress", "{own_manifest}", "{own_manifest}", "--k", "4"],
        "error: compress: INDEX {own_manifest} names an input, which it would overwrite\n"),
    "compress-index-names-the-manifest-by-another-path": (
        ["compress", "{own_manifest}", "{own_manifest_alias}", "--k", "4"],
        "error: compress: INDEX {own_manifest_alias} names an input"),
    "compress-index-names-a-raw-page": (
        ["compress", "{own_manifest}", "{own_page}", "--k", "4"],
        "error: compress: INDEX {own_page} names an input, which it would overwrite\n"),
    "query-out-names-the-index": (
        ["query", "{own_index}", "{own_queries}", "--out", "{own_index}"],
        "error: query: --out {own_index} names an input, which it would overwrite\n"),
    "query-out-names-the-query-manifest": (
        ["query", "{own_index}", "{own_queries}", "--out", "{own_queries}"],
        "error: query: --out {own_queries} names an input, which it would overwrite\n"),
    "query-out-names-a-raw-query": (
        ["query", "{own_index}", "{own_queries}", "--out", "{own_query}"],
        "error: query: --out {own_query} names an input, which it would overwrite\n"),
    # bench refuses an --out that names a file of the dataset it has just
    # generated, before the ablation runs, and keeps that dataset whole
    "bench-out-names-the-doc-manifest": (
        [*SMALL_BENCH[:-1], "{work}/manifest.json", "--workdir", "{work}"],
        "error: bench: --out {work}/manifest.json names an input, which it would overwrite\n"),
    "bench-out-names-a-raw-query": (
        [*SMALL_BENCH[:-1], "{work}/queries/q0000.f32", "--workdir", "{work}"],
        "error: bench: --out {work}/queries/q0000.f32 names an input"),
    "bench-out-names-the-qrels": (
        [*SMALL_BENCH[:-1], "{work}/qrels.txt", "--workdir", "{work}"],
        "error: bench: --out {work}/qrels.txt names an input"),
    # an output into a directory that does not exist is refused before any
    # work: bench once ran its whole ablation before it failed to open --out
    "compress-index-in-missing-dir": (
        ["compress", "{manifest}", "{out}/missing/x.cchk", "--k", "4"],
        "error: compress: INDEX {out}/missing/x.cchk: directory {out}/missing does not exist\n"),
    "query-out-in-missing-dir": (
        ["query", "{index}", "{queries}", "--out", "{out}/missing/run.txt"],
        "error: query: --out {out}/missing/run.txt: directory {out}/missing does not exist\n"),
    "bench-out-in-missing-dir": (
        [*SMALL_BENCH[:-1], "{out}/missing/b.csv", "--workdir", "{work}"],
        "error: bench: --out {out}/missing/b.csv: directory {out}/missing does not exist\n"),
    # bench makes its --workdir, so an --out under it is checked against the
    # generated dataset: it once failed there naming its temporary file
    "bench-out-in-missing-dir-under-workdir": (
        [*SMALL_BENCH[:-1], "{work}/missing/b.csv", "--workdir", "{work}"],
        "error: bench: --out {work}/missing/b.csv: directory {work}/missing does not exist\n"),
    # an output that is a symlink into a directory that does not exist is refused
    # by the directory it points into: compress and query once failed naming the
    # temporary file they could not create there, bench after generating its data
    "compress-index-is-a-dangling-link": (
        ["compress", "{manifest}", "{dangling}", "--k", "4"],
        "error: compress: INDEX {dangling}: directory {nodir} does not exist\n"),
    "query-out-is-a-dangling-link": (
        ["query", "{index}", "{queries}", "--out", "{dangling}"],
        "error: query: --out {dangling}: directory {nodir} does not exist\n"),
    "bench-out-is-a-dangling-link": (
        [*SMALL_BENCH[:-1], "{dangling}", "--workdir", "{work}"],
        "error: bench: --out {dangling}: directory {nodir} does not exist\n"),
    # an output that is an existing directory is refused before any work too:
    # compress once wrote every page before its rename onto the directory
    # failed, naming only the temporary file
    "compress-index-is-a-dir": (
        ["compress", "{manifest}", "{out}", "--k", "4"],
        "error: compress: INDEX {out} is a directory\n"),
    "query-out-is-a-dir": (
        ["query", "{index}", "{queries}", "--out", "{out}"],
        "error: query: --out {out} is a directory\n"),
    "bench-out-is-a-dir": (
        [*SMALL_BENCH[:-1], "{out}", "--workdir", "{work}"],
        "error: bench: --out {out} is a directory\n"),
    "bench-out-is-its-workdir": (
        [*SMALL_BENCH[:-1], "{out}", "--workdir", "{out}"],
        "error: bench: --out {out} is a directory\n"),
    # an output its helper cannot create fails before any work: query once read
    # the index and retrieved, and bench ran its whole ablation, before it opened
    # --out (the helper is patched to refuse: a read-only directory does not stop root)
    "query-out-cannot-be-created": (
        ["query", "{index}", "{queries}", "--out", "{out}/run.txt"],
        "error: [Errno 13] Permission denied: '{out}/run.txt'\n"),
    "bench-out-cannot-be-created": (
        SMALL_BENCH, "error: [Errno 13] Permission denied: '{out}/b.csv'\n"),
    "eval-missing-run": (["eval", "{missing}", "{qrels}"], "missing"),
    "eval-empty-run": (["eval", "{empty_run}", "{qrels}"], "run file is empty"),
    "eval-repeated-run-pair": (["eval", "{repeated_run}", "{qrels}"], "run line 2"),
    "eval-non-utf8-run": (["eval", "{non_utf8_run}", "{qrels}"], "is not UTF-8"),
    "eval-conflicting-qrels": (["eval", "{run}", "{conflicting_qrels}"], "qrels line 2"),
    # int() and float() read '1_0' as 10, the Arabic-Indic digit as 1, and
    # 'nan' and 'inf' as scores
    "eval-separated-grade": (["eval", "{run}", "{separated_grade_qrels}"],
                             "error: qrels line 1: grade must be ASCII with no '_', got '1_0'"),
    "eval-arabic-indic-grade": (["eval", "{run}", "{arabic_indic_grade_qrels}"],
                                "error: qrels line 1: grade must be ASCII with no '_', got "
                                "'\u0661'"),
    "eval-separated-rank": (["eval", "{separated_rank_run}", "{qrels}"],
                            "error: run line 1: rank must be ASCII with no '_', got '1_0'"),
    "eval-nan-score": (["eval", "{nan_score_run}", "{qrels}"],
                       "error: run line 1: score must be a finite number, got nan"),
    "eval-inf-score": (["eval", "{inf_score_run}", "{qrels}"],
                       "error: run line 1: score must be a finite number, got inf"),
    "bench-negative-seed": (["bench", "--seed", "-1", "--out", "{out}/b.csv"],
                            "seed must be a non-negative integer, got -1"),
    "bench-more-queries-than-docs": (["bench", "--num-docs", "2", "--num-queries", "3",
                                      "--out", "{out}/b.csv"], "its own relevant document"),
    # the generator would write non-finite vectors, refused under a document's name
    "bench-nan-noise": (["bench", "--noise-sigma", "nan", "--out", "{out}/b.csv"],
                        "noise_sigma must be a finite number, got nan"),
    "bench-inf-noise": (["bench", "--noise-sigma", "inf", "--out", "{out}/b.csv"],
                        "noise_sigma must be a finite number, got inf"),
    # refused when the spec is built, before a single vector is drawn: the
    # Ward baseline row could never cluster such a page
    "bench-oversized-grid": (["bench", "--grid-rows", "100000", "--grid-cols", "100000",
                              "--out", "{out}/b.csv"],
                             "grid of 10000000000 patches exceeds MAX_HAC_PATCHES = 8192"),
    "bench-long-grid-rows": (["bench", "--grid-rows", str(NINES), "--out", "{out}/b.csv"],
                             f"error: a {'9' * 40}x24 grid of {str(NINES * 24)[:40]} patches "
                             "exceeds MAX_HAC_PATCHES = 8192\n"),
}

# Rows whose refused value runs to thousands of characters -> the length their
# one error line may reach, each value it echoes cut to 40 characters.
ECHO_BOUNDS = {"query-huge-omega-trailer": 100, "compress-long-negative-n-vectors": 110,
               "query-long-n-vectors": 170, "bench-long-grid-rows": 150}


# name -> (argv, the error argparse prints after ``argument``): flag text that
# its parser refuses, exit 2 before any work. ``{name}`` as in CLI_ERROR_CASES.
# A number flag's text obeys ``types.check_decimal``: int() and float() would
# read '1_0' as 10 and the Arabic-Indic four as 4.
CLI_USAGE_CASES = {
    "compress-arabic-indic-k": (["compress", "{manifest}", "{out}/x.cchk", "--k", "\u0664"],
                                "--k: expected an integer, got '\u0664'"),
    "compress-separated-seed": (["compress", "{manifest}", "{out}/x.cchk", "--seed", "1_0"],
                                "--seed: expected an integer, got '1_0'"),
    "compress-separated-omega": (["compress", "{manifest}", "{out}/x.cchk", "--omega", "0_5"],
                                 "--omega: expected a number, got '0_5'"),
    # compress and bench read method names by one parser, which names them all
    "compress-unknown-method": (["compress", "{manifest}", "{out}/x.cchk", "--method",
                                 "spectral"],
                                "--method: unknown method 'spectral' "
                                "(choose from 'hac', 'hac_ward', 'kmeans')"),
    "query-separated-top-k": (["query", "{index}", "{queries}", "--out", "{out}/run.txt",
                               "--top-k", "1_0"], "--top-k: expected an integer, got '1_0'"),
    "bench-arabic-indic-k": ([*SMALL_BENCH, "--k", "\u0664"],
                             "--k: expected an integer, got '\u0664'"),
    "bench-separated-seed": ([*SMALL_BENCH, "--seed", "1_0"],
                             "--seed: expected an integer, got '1_0'"),
    "bench-separated-noise-sigma": ([*SMALL_BENCH, "--noise-sigma", "1_0"],
                                    "--noise-sigma: expected a number, got '1_0'"),
    # the refused text is echoed cut to 40 characters, as every rule's is
    "compress-long-k": (["compress", "{manifest}", "{out}/x.cchk", "--k", "x" * 3000],
                        f"--k: expected an integer, got '{'x' * 39}"),
    "compress-long-negative-k": (["compress", "{manifest}", "{out}/x.cchk", "--k",
                                  "-" + "9" * 3000],
                                 f"--k: expected a positive integer, got -{'9' * 39}"),
}


def names_a_file(arg: str) -> bool:
    try:
        return Path(arg).is_file()
    except OSError:  # a flag value too long to be a file name
        return False


class TestErrorPaths:
    @pytest.mark.parametrize("case", list(CLI_ERROR_CASES))
    def test_bad_input_is_a_clean_data_error(self, bad_inputs, tmp_path, monkeypatch, capsys,
                                             case):
        argv, fragment = CLI_ERROR_CASES[case]
        if case == "compress-oversized-page":
            monkeypatch.setattr(chunker, "MAX_HAC_PATCHES", 15)
        compressed = []
        compress_page = chunker.compress

        def spy_compress(pset, cfg):
            compressed.append(pset.doc_id)
            return compress_page(pset, cfg)

        monkeypatch.setattr(chunker, "compress", spy_compress)
        retrieved = []
        retrieve = cli.retrieve_many

        def spy_retrieve(queries, index, top_k):
            retrieved.append(len(queries))
            return retrieve(queries, index, top_k=top_k)

        monkeypatch.setattr(cli, "retrieve_many", spy_retrieve)
        ablated = []
        ablation = cli.run_ablation

        def spy_ablation(docs, queries, qrels, sweep):
            ablated.append(len(docs))
            return ablation(docs, queries, qrels, sweep)

        monkeypatch.setattr(cli, "run_ablation", spy_ablation)
        if case.endswith("-cannot-be-created"):
            def cannot_create(path, binary=False):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

            monkeypatch.setattr(cli, "replacing", cannot_create)
        out = tmp_path / "out"
        out.mkdir()
        work = tmp_path / "work"
        names = {"out": out, "work": work, **bad_inputs}
        argv = [arg.format_map(names) for arg in argv]
        # every file named on the command line, and its directory's listing
        inputs = {Path(arg): Path(arg).read_bytes() for arg in argv if names_a_file(arg)}
        listings = {path.parent: sorted(path.parent.iterdir()) for path in inputs}
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and fragment.format_map(names) in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []
        assert {path.name for path in tmp_path.iterdir()} <= {"out", "work"}
        assert {path: path.read_bytes() for path in inputs} == inputs
        assert {parent: sorted(parent.iterdir()) for parent in listings} == listings
        if case in ("compress-oversized-doc-id", "compress-kmeans-negative-seed",
                    "compress-hac-negative-seed"):
            assert compressed == []
        if case == "compress-bad-last-page":
            assert len(compressed) == 5
        if case.endswith("run-tag"):
            assert retrieved == []
        if "-names-" in case:
            assert compressed == [] and retrieved == []
        if case.endswith("-cannot-be-created"):
            assert retrieved == [] and ablated == []
        if case.endswith(("-in-missing-dir", "-is-a-dir", "-is-a-dangling-link")):
            # no page compressed, no query retrieved and no dataset generated
            assert compressed == [] and retrieved == [] and not work.exists()
        if case.startswith("bench-out-names-"):
            # the dataset bench generated is whole: every file it lists loads
            list(store.ingest_dump(work / "manifest.json"))
            list(store.ingest_queries(work / "queries.json"))
            Qrels.from_file(work / "qrels.txt")
        if case in ECHO_BOUNDS:
            assert len(captured.err.rstrip("\n")) <= ECHO_BOUNDS[case]

    @pytest.mark.parametrize("case", list(CLI_USAGE_CASES))
    def test_bad_flag_is_a_usage_error(self, bad_inputs, tmp_path, capsys, case):
        argv, error = CLI_USAGE_CASES[case]
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format_map({"out": out, **bad_inputs}) for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.err.splitlines()[-1] == f"colchunk {argv[0]}: error: argument {error}"
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["doc", "query"])
    def test_space_in_id_stops_the_pipeline(self, dataset, tmp_path, capsys, kind):
        # Such an id once compressed and queried with exit 0; ``eval`` then
        # refused the 7-field run line it had produced.
        data = tmp_path / "data"
        shutil.copytree(dataset.doc_manifest.parent, data)
        manifest = data / (dataset.doc_manifest if kind == "doc" else dataset.query_manifest).name
        body = json.loads(manifest.read_text())
        body["entries"][0][f"{kind}_id"] = "a b"
        manifest.write_text(json.dumps(body))
        index, run = tmp_path / "x.cchk", tmp_path / "run.txt"
        steps = {
            "compress": ["compress", str(data / dataset.doc_manifest.name), str(index),
                         "--k", "4"],
            "query": ["query", str(index), str(data / dataset.query_manifest.name),
                      "--out", str(run)],
            "eval": ["eval", str(run), str(data / dataset.qrels_path.name)],
        }
        for step, argv in steps.items():
            code = cli.main(argv)
            if code:
                break
        err = capsys.readouterr().err
        assert (step, code) == ("compress" if kind == "doc" else "query", 1)
        assert err.startswith("error:") and f"{kind} manifest entry 0: {kind}_id 'a b'" in err
        assert not run.exists()
