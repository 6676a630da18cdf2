"""The three workloads: set-up, timed phases and output checks.

Each workload drives the program only through public functions of
``colchunk`` and the in-process ``colchunk.cli.main`` entry point. ``setup``
may be repeated; ``measure`` may be called once per pass and appends to the
samples the checks and metrics read.
"""

from __future__ import annotations

import io
import math
import resource
import statistics
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import data

UNIT_NORM_TOL = 1e-5
SCORE_TOL = 1e-9

# Every timing is taken against a reference task. The host is shared, and
# its speed follows its neighbours' load: the same sweep read 0.58 s and
# 1.27 s per run an hour apart, and all of a run's percentiles moved with
# it. The reference task is a fixed loop of the program's kind of work: a
# Python-level agglomeration over a 768x768 distance matrix, one page's
# size in HAC. It runs between the workload's steps and slows with the
# host; of the shapes tried, it tracked compress best (over six runs it cut
# the spread of compress medians from 0.09 to 0.05). Each timing is
# rescaled to a host on which the reference task takes REF_MS; the raw
# wall times are kept in the detail record.
REF_MS = 10.0
REF_REPEATS = 3
REF_POINTS = 768
REF_MERGES = 20


def _reference_matrix() -> np.ndarray:
    x = np.random.default_rng(20240601).standard_normal((REF_POINTS, 64))
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * x @ x.T
    np.fill_diagonal(d2, np.inf)
    return d2


_REFERENCE_D2 = _reference_matrix()


def reference_task() -> None:
    """``REF_MERGES`` single-linkage merges over a fixed matrix: the same work every time."""
    d2 = _REFERENCE_D2.copy()
    for _ in range(REF_MERGES):
        i = int(np.argmin(d2.min(axis=1)))
        j = int(np.argmin(d2[i]))
        merged = np.minimum(d2[i], d2[j])
        d2[i] = merged
        d2[:, i] = merged
        d2[i, i] = np.inf
        d2[j] = np.inf
        d2[:, j] = np.inf


def reference_ms() -> float:
    """Median wall time of ``REF_REPEATS`` reference tasks, in ms."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        reference_task()
        times.append((perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples) -> tuple[float, int]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return ordered[math.ceil(p / 100 * n) - 1], p
    return ordered[-1], 100


class Timings:
    """Timings by name, raw and rescaled to the reference task, in ms."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.ref_ms: list[float] = []

    def extend(self, other: "Timings") -> None:
        for name in other.raw:
            self.raw[name] += other.raw[name]
            self.scaled[name] += other.scaled[name]
        self.ref_ms += other.ref_ms


def timed_loop(budget_s: float, min_runs: int, step) -> Timings:
    """Call ``step()`` at least ``min_runs`` times, then while another fits in ``budget_s``.

    ``step()`` returns its timings as ``{name: [ms, ...]}``. The reference
    task is timed before the first step and after every step; each timing is
    rescaled by the mean of the two reference times around its step.
    """
    out = Timings()
    start = perf_counter()
    before = reference_ms()
    out.ref_ms.append(before)
    runs = 0
    while runs < min_runs or (perf_counter() - start) * (runs + 1) / runs <= budget_s:
        timings = step()
        after = reference_ms()
        out.ref_ms.append(after)
        scale = REF_MS / ((before + after) / 2.0)
        for name, values in timings.items():
            out.raw[name] += values
            out.scaled[name] += [v * scale for v in values]
        before = after
        runs += 1
    return out


def run_cli(cc, argv) -> tuple[int, float]:
    """Run ``colchunk.cli.main`` in-process, its report discarded; returns (exit code, wall ms)."""
    t0 = perf_counter()
    with redirect_stdout(io.StringIO()):
        rc = cc.cli.main(argv)
    return rc, (perf_counter() - t0) * 1000.0


class Workload:
    """Shared bookkeeping: attempted operations, failures and timings."""

    PRIMARY = ""  # the timing ``latency_p50_ms`` reports

    def __init__(self, cc, size, seed: int, work: Path):
        self.cc, self.size, self.seed, self.work = cc, size, seed, work
        self.attempted = 0
        self.failures: list[str] = []
        self.timings = Timings()
        self.last_pass = Timings()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record(self, timings: Timings) -> None:
        self.last_pass = timings
        self.timings.extend(timings)

    def unit_ms(self) -> float:
        """Median rescaled time of the primary step in the last pass."""
        return statistics.median(self.last_pass.scaled[self.PRIMARY])

    def median_ms(self, name: str) -> float:
        return statistics.median(self.timings.scaled[name])

    def common(self, setup: Timings, ndcg, bytes_per_page, throughput) -> dict:
        """The end-to-end metrics every workload reports, as ``{name: (value, unit)}``."""
        return {
            "setup_s": (statistics.median(setup.scaled["setup"]) / 1000.0, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "latency_p50_ms": (self.median_ms(self.PRIMARY), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ndcg_at_5": (ndcg, "score"),
            "index_bytes_per_page": (bytes_per_page, "bytes"),
        }

    def timing_detail(self, setup: Timings) -> dict:
        """Raw median and tail of every timing, its rescaled median, and the reference task's times."""
        out = {}
        for name, raw in [("setup", setup.raw["setup"]), *self.timings.raw.items()]:
            scaled = setup.scaled[name] if name == "setup" else self.timings.scaled[name]
            value, p = tail(raw)
            out[name] = {"samples": len(raw), "median_ms": statistics.median(raw), f"p{p}_ms": value,
                         "median_ref_ms": statistics.median(scaled)}
        ref = self.timings.ref_ms + setup.ref_ms
        out["reference_task_ms"] = {"median": statistics.median(ref), "min": min(ref), "max": max(ref),
                                    "rescaled_to": REF_MS}
        return out


@dataclass(frozen=True)
class BuildSize:
    dumps: int = 8  # distinct inputs for successive runs; later runs reuse them
    pages: int = 2  # per compress run: ~0.3 s, so a run holds many samples
    rows: int = 32
    cols: int = 24
    dim: int = 128
    k: int = 40
    omega: float = 0.2
    tokens: int = 32
    signal: int = 24
    noise: float = 0.5
    setups: int = 9
    min_runs: int = 8  # every dump is compressed, and its planted queries give nDCG


class Build(Workload):
    """``compress`` over uniform pages, then an untimed check of every index."""

    PRIMARY = "compress"

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.manifests, self.queries = [], []
        for d in range(s.dumps):
            pages, queries = data.planted_pages(
                rng, s.pages, s.rows, s.cols, s.dim, s.tokens, s.signal, s.noise
            )
            ids = [f"d{d}p{i:02d}" for i in range(s.pages)]
            self.manifests.append(data.write_dump(self.work / f"dump{d}", ids, s.rows, s.cols, pages))
            self.queries += [(data.f32_round(t), doc_id) for doc_id, t in zip(ids, queries)]
        self.outputs: dict[int, list[Path]] = {d: [] for d in range(s.dumps)}

    def measure(self, budget_s: float) -> None:
        s = self.size

        def step():
            run = self.attempted
            d = run % s.dumps
            out = self.manifests[d].parent / f"run{run}.cchk"
            argv = ["compress", str(self.manifests[d]), str(out), "--k", str(s.k),
                    "--omega", str(s.omega), "--method", "hac"]
            self.attempted += 1
            rc, wall_ms = run_cli(self.cc, argv)
            if rc != 0:
                self.fail(f"compress run {run} exited {rc}")
                return {}
            self.outputs[d].append(out)
            return {"compress": [wall_ms]}

        self.record(timed_loop(budget_s, s.min_runs, step))

    def check(self) -> None:
        s = self.size
        n = s.rows * s.cols
        k = min(s.k, n)
        meta = {"embedding_location": "perfbench", "k_target": s.k, "method": "hac_ward",
                "omega": s.omega, "posenc_base": 10000.0, "tool_version": self.cc.__version__}
        self.indexes, self.sha256 = [], []
        for d, paths in self.outputs.items():
            if not paths:
                continue
            first = data.CchkFile(paths[0])
            ids = [f"d{d}p{i:02d}" for i in range(s.pages)]
            problems = []
            if first.ids != ids:
                problems.append(f"doc ids {first.ids[:3]}... != {ids[:3]}...")
            if first.dim != s.dim or any(kk != k for kk in first.ks):
                problems.append(f"dim {first.dim} or K {sorted(set(first.ks))} != {s.dim}, {k}")
            if any(int(sz.sum()) != n for sz in first.sizes):
                problems.append(f"chunk sizes do not sum to {n}")
            norms = np.linalg.norm(first.chunks.astype(np.float64), axis=1)
            if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
                problems.append(f"chunk norm off by {np.abs(norms - 1.0).max():.3g}")
            expected = data.cchk_size(ids, [k] * s.pages, s.dim, data.trailer_bytes(meta))
            if first.size != expected:
                problems.append(f"file size {first.size} != layout formula {expected}")
            for p in problems:
                self.fail(f"dump {d}: {p}")
            for later in paths[1:]:
                if data.CchkFile(later).sha256 != first.sha256:
                    self.fail(f"dump {d}: {later.name} differs from the first run's index")
            self.indexes.append(first)
            self.sha256.append(first.sha256)
        judged_indexes = self.indexes[: s.min_runs]
        if not judged_indexes:
            self.ndcg = 0.0
            return
        oracle = data.Oracle(
            [i for f in judged_indexes for i in f.ids],
            np.concatenate([f.chunks for f in judged_indexes]),
            [kk for f in judged_indexes for kk in f.ks],
        )
        judged = [(t, rel) for t, rel in self.queries if rel in oracle.ids]
        self.ndcg = statistics.mean(
            data.ndcg_at_5([d for d, _ in oracle.top_k(t, 5)], rel) for t, rel in judged
        )

    def end_to_end(self, setup: Timings) -> dict:
        s = self.size
        per_page = statistics.mean(f.size for f in self.indexes) / s.pages
        return self.common(setup, self.ndcg, per_page, s.pages * 1000.0 / self.median_ms("compress"))

    def detail(self) -> dict:
        s = self.size
        return {
            "shape": {"pages_per_run": s.pages, "dumps": s.dumps, "grid": f"{s.rows}x{s.cols}",
                      "dim": s.dim, "k": s.k, "omega": s.omega, "method": "hac",
                      "query_tokens": s.tokens, "queries": len(self.queries)},
            "build_pages_per_s": s.pages * 1000.0 / statistics.median(self.timings.raw["compress"]),
            "index_sha256": self.sha256,
        }


@dataclass(frozen=True)
class ServeSize:
    docs: int = 3000
    k: int = 40
    dim: int = 128
    patches: int = 768
    queries: int = 8
    tokens: int = 32
    planted: int = 16
    noise: float = 0.5
    top_k: int = 10
    setups: int = 5
    # One round: open the index, send the queries ``loop_passes`` times from
    # one closed-loop client, then run the query command over them once.
    loop_passes: int = 1
    min_rounds: int = 2


class Serve(Workload):
    """Opens, a one-client closed loop of ``retrieve`` and the ``query`` command."""

    PRIMARY = "retrieve"

    def setup(self) -> None:
        s, cc = self.size, self.cc
        rng = np.random.default_rng(self.seed)
        self.index = None
        chunks = np.empty((s.docs * s.k, s.dim), dtype=np.float32)
        block = 256 * s.k
        for r0 in range(0, len(chunks), block):
            raw = rng.standard_normal((min(block, len(chunks) - r0), s.dim), dtype=np.float32)
            chunks[r0 : r0 + len(raw)] = data.unit_rows(raw.astype(np.float64))
        self.ids = [f"doc{i:05d}" for i in range(s.docs)]
        relevant = rng.choice(s.docs, size=s.queries, replace=False)
        self.qids = [f"q{j:03d}" for j in range(s.queries)]
        self.tokens, self.relevant = [], {}
        for qid, doc in zip(self.qids, relevant):
            toks = data.unit_rows(rng.standard_normal((s.tokens, s.dim)))
            noisy = toks[: s.planted] + rng.standard_normal((s.planted, s.dim)) * s.noise / np.sqrt(s.dim)
            chunks[doc * s.k : doc * s.k + s.planted] = data.unit_rows(noisy)
            self.tokens.append(data.f32_round(toks))
            self.relevant[qid] = self.ids[doc]
        self.chunks = chunks
        docs = tuple(
            cc.types.CompressedDocument(
                doc_id=doc_id, k=s.k, dim=s.dim, chunks=chunks[i * s.k : (i + 1) * s.k],
                chunk_sizes=data.random_partition(rng, s.patches, s.k),
            )
            for i, doc_id in enumerate(self.ids)
        )
        meta = cc.store.BuildMeta(omega=0.2, k_target=s.k, method="hac_ward", posenc_base=10000.0,
                                  tool_version=cc.__version__, embedding_location="perfbench")
        self.path = self.work / "serve.cchk"
        cc.store.write_index(cc.store.CorpusIndex(dim=s.dim, docs=docs, build_meta=meta), self.path)
        del docs
        self.manifest = data.write_queries(self.work, self.qids, self.tokens)
        self.qsets = [cc.types.QueryEmbeddingSet(query_id=q, dim=s.dim, vectors=t)
                      for q, t in zip(self.qids, self.tokens)]
        self.calls: list[tuple[int, list]] = []
        self.run_files: list[str] = []

    def measure(self, budget_s: float) -> None:
        s, cc = self.size, self.cc

        def open_once():
            self.attempted += 1
            self.index = None
            t0 = perf_counter()
            self.index = cc.store.read_index(self.path)
            wall_ms = (perf_counter() - t0) * 1000.0
            if len(self.index) != s.docs:
                self.fail(f"opened index holds {len(self.index)} docs, not {s.docs}")
            return wall_ms

        def query_once():
            j = len(self.calls) % s.queries
            self.attempted += 1
            t0 = perf_counter()
            hits = cc.scorer.retrieve(self.qsets[j], self.index, top_k=s.top_k)
            wall_ms = (perf_counter() - t0) * 1000.0
            self.calls.append((j, [(h.doc_id, h.score, h.rank) for h in hits]))
            return wall_ms

        def batch_once():
            self.attempted += 1
            run_path = self.work / "run.txt"
            argv = ["query", str(self.path), str(self.manifest), "--top-k", str(s.top_k),
                    "--threads", "1", "--out", str(run_path)]
            rc, wall_ms = run_cli(cc, argv)
            if rc != 0:
                self.fail(f"query command exited {rc}")
                return []
            self.run_files.append(run_path.read_text("utf-8"))
            return [wall_ms]

        def round_once():
            return {
                "open": [open_once()],
                "retrieve": [query_once() for _ in range(s.loop_passes * s.queries)],
                "query_command": batch_once(),
            }

        self.record(timed_loop(budget_s, s.min_rounds, round_once))

    def check(self) -> None:
        s = self.size
        oracle = data.Oracle(self.ids, self.chunks, [s.k] * s.docs)
        position = {doc_id: i for i, doc_id in enumerate(self.ids)}
        expected = {}
        first_hits = {}
        for j, hits in self.calls:
            if j not in expected:
                scores = oracle.scores(self.tokens[j])
                expected[j] = (scores, oracle.top_k(self.tokens[j], s.top_k))
            scores, top = expected[j]
            problems = []
            if [h[2] for h in hits] != list(range(1, len(top) + 1)):
                problems.append("ranks are not 1..k")
            if [h[0] for h in hits] != [d for d, _ in top]:
                problems.append("top-k differs from the exhaustive top-k")
            for doc_id, score, _ in hits:
                want = scores[position[doc_id]] if doc_id in position else math.inf
                if abs(score - want) > SCORE_TOL:
                    problems.append(f"score of {doc_id} off by {abs(score - want):.3g}")
            if sorted(hits, key=lambda h: (-h[1], h[0])) != hits:
                problems.append("hits are not ordered by (-score, doc_id)")
            if not hits or hits[0][0] != self.relevant[self.qids[j]]:
                problems.append("planted document is not at rank 1")
            if problems:
                self.fail(f"retrieve {self.qids[j]}: " + "; ".join(problems))
            first_hits.setdefault(j, hits)
        want_run = "".join(
            f"{self.qids[j]} Q0 {doc_id} {rank} {score:.6f} colchunk\n"
            for j in sorted(first_hits) for doc_id, score, rank in first_hits[j]
        )
        if len(first_hits) != s.queries:
            self.fail(f"the closed loop sent {len(first_hits)} of the {s.queries} queries")
        for text in self.run_files:
            if text != want_run:
                self.fail("query command run file differs from the closed-loop hits")
        rankings = {}
        for line in (self.run_files[0] if self.run_files else "").splitlines():
            qid, _, doc_id = line.split()[:3]
            rankings.setdefault(qid, []).append(doc_id)
        self.ndcg = statistics.mean(
            data.ndcg_at_5(rankings.get(q, []), self.relevant[q]) for q in self.qids
        )

    def end_to_end(self, setup: Timings) -> dict:
        size = self.path.stat().st_size
        return self.common(setup, self.ndcg, size / self.size.docs, self.qps(self.timings.scaled))

    def qps(self, walls: dict) -> float:
        """Median queries per second of the ``query`` command, open and run-file write included."""
        return statistics.median([self.size.queries * 1000.0 / ms for ms in walls["query_command"]])

    def detail(self) -> dict:
        s = self.size
        return {
            "shape": {"docs": s.docs, "k": s.k, "dim": s.dim, "queries": s.queries,
                      "query_tokens": s.tokens, "top_k": s.top_k,
                      "chunk_matrix_mib_f64": s.docs * s.k * s.dim * 8 / 2**20},
            "first_open_ms": self.timings.raw["open"][0],
            "batch_query_qps": self.qps(self.timings.raw),
            "client": "one client, closed loop",
        }


SWEEP_K = (4, 8, 16, 32, 64)
SWEEP_OMEGA = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class SweepSize:
    docs: int = 4  # a sweep takes ~0.6-1.2 s, so a run holds many samples
    rows: int = 16
    cols: int = 16
    dim: int = 128
    tokens: int = 16
    signal: int = 12
    noise: float = 0.5
    setups: int = 51  # a set-up takes ~5 ms, so many are needed for a steady median
    min_runs: int = 2


class Sweep(Workload):
    """``run_ablation`` over K, omega and k-means on a small 16x16 corpus."""

    PRIMARY = "sweep"

    def setup(self) -> None:
        s, cc = self.size, self.cc
        rng = np.random.default_rng(self.seed)
        pages, queries = data.planted_pages(rng, s.docs, s.rows, s.cols, s.dim, s.tokens, s.signal, s.noise)
        grid = cc.types.PatchGrid(rows=s.rows, cols=s.cols)
        self.ids = [f"doc{i:03d}" for i in range(s.docs)]
        self.docs = [cc.types.PatchEmbeddingSet(doc_id=d, dim=s.dim, grid=grid, vectors=p)
                     for d, p in zip(self.ids, pages)]
        self.queries = [cc.types.QueryEmbeddingSet(query_id=f"q{d}", dim=s.dim, vectors=t)
                        for d, t in zip(self.ids, queries)]
        self.qrels = cc.evaluation.Qrels({f"q{d}": {d: 1} for d in self.ids})
        self.spec = cc.evaluation.SweepSpec(k_values=SWEEP_K, omega_values=SWEEP_OMEGA,
                                            methods=("kmeans",), seed=self.seed)
        self.rows_seen = []

    def measure(self, budget_s: float) -> None:
        ev = self.cc.evaluation

        def step():
            self.attempted += 1
            t0 = perf_counter()
            rows = ev.run_ablation(self.docs, self.queries, self.qrels, self.spec, scratch_dir=self.work)
            wall_ms = (perf_counter() - t0) * 1000.0
            self.rows_seen.append(rows)
            return {"sweep": [wall_ms]}

        self.record(timed_loop(budget_s, self.size.min_runs, step))

    def expected_rows(self):
        sp = self.spec
        rows = [("baseline-k1", "hac_ward", 1, sp.base_omega)]
        rows += [(f"k{k}", "hac_ward", k, sp.base_omega) for k in SWEEP_K]
        rows += [(f"omega{w:g}", "hac_ward", sp.base_k, w) for w in SWEEP_OMEGA]
        rows += [("method-kmeans", "kmeans", sp.base_k, sp.base_omega)]
        return rows

    def check(self) -> None:
        s = self.size
        n = s.rows * s.cols
        want = self.expected_rows()
        for run, rows in enumerate(self.rows_seen):
            got = [(r.config_id, r.method, r.k, r.omega) for r in rows]
            if got != want:
                self.fail(f"sweep {run}: configurations {got} != {want}")
                continue
            for r in rows:
                k_eff = min(r.k, n)
                meta = {"embedding_location": "synthetic", "k_target": r.k, "method": r.method,
                        "omega": r.omega, "posenc_base": 10000.0, "tool_version": self.cc.__version__}
                size = data.cchk_size(self.ids, [k_eff] * s.docs, s.dim, data.trailer_bytes(meta))
                if r.vectors_per_doc != k_eff or r.index_bytes != size:
                    self.fail(f"sweep {run} {r.config_id}: vectors_per_doc {r.vectors_per_doc}, "
                              f"index_bytes {r.index_bytes}; expected {k_eff}, {size}")
            if [r.mean_ndcg_at_5 for r in rows] != [r.mean_ndcg_at_5 for r in self.rows_seen[0]]:
                self.fail(f"sweep {run}: nDCG differs from the first sweep")
        first = self.rows_seen[0] if self.rows_seen else []
        self.ndcg = statistics.mean(r.mean_ndcg_at_5 for r in first) if first else 0.0
        self.bytes_per_page = statistics.mean(r.index_bytes for r in first) / s.docs if first else 0.0

    def end_to_end(self, setup: Timings) -> dict:
        pages = len(self.expected_rows()) * self.size.docs
        return self.common(setup, self.ndcg, self.bytes_per_page, pages * 1000.0 / self.median_ms("sweep"))

    def detail(self) -> dict:
        s = self.size
        return {
            "shape": {"docs": s.docs, "grid": f"{s.rows}x{s.cols}", "dim": s.dim,
                      "k": [1, *SWEEP_K], "omega": list(SWEEP_OMEGA), "methods": ["hac", "kmeans"],
                      "query_tokens": s.tokens, "configs": len(self.expected_rows())},
            "rows": [[r.config_id, round(r.mean_ndcg_at_5, 6)] for r in self.rows_seen[0]]
            if self.rows_seen else [],
        }


WORKLOADS = {"build": (Build, BuildSize), "serve": (Serve, ServeSize), "sweep": (Sweep, SweepSize)}

TINY = {
    "build": BuildSize(dumps=3, pages=3, rows=8, cols=6, dim=16, k=4, tokens=4, signal=4,
                       setups=2, min_runs=2),
    "serve": ServeSize(docs=40, k=4, dim=16, patches=48, queries=4, tokens=4, planted=2, setups=2,
                       loop_passes=2),
    "sweep": SweepSize(docs=4, rows=6, cols=6, dim=16, tokens=4, signal=4, setups=2, min_runs=2),
}
