"""Retrieval evaluation: graded nDCG, TREC files, synthetic data, ablations.

The synthetic benchmark is the harness used throughout the test suite: a
corpus of noise pages in which each query's relevant page carries a
contiguous rectangular block of patches aligned with that query's token
directions. Everything is a deterministic function of the generator seed.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import chunker
from .chunker import ChunkerConfig, compress_ks
from .scorer import retrieve_many
from .store import BuildMeta, read_index, replacing, write_embedding_dump, write_query_dump
from .store import write_records
from .types import PatchEmbeddingSet, PatchGrid, QueryEmbeddingSet
from .types import check_count, check_decimal, check_id, check_natural, check_real, unit_rows

__all__ = [
    "EvalInputError",
    "NDCG_CUTOFF",
    "Qrels",
    "dcg",
    "ndcg_at_k",
    "evaluate_run",
    "read_run",
    "write_run",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_corpus",
    "generate_synthetic",
    "SweepSpec",
    "AblationRow",
    "run_ablation",
    "rows_to_csv",
]


# The ablation's nDCG cutoff, named by its CSV column ``mean_ndcg_at_5``,
# and the default of ``eval --k``.
NDCG_CUTOFF = 5


class EvalInputError(Exception):
    """A qrels or run file could not be parsed."""


def _fields(path, kind: str, width: int):
    """``(line number, fields)`` of each non-blank ``kind`` line of a UTF-8 file; a line
    not of ``width`` fields, or a non-UTF-8 file, raises EvalInputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not (parts := line.split()):
                    continue
                if len(parts) != width:
                    raise EvalInputError(
                        f"{kind} line {lineno}: expected {width} fields, got {len(parts)}")
                yield lineno, parts
    except UnicodeDecodeError as exc:
        raise EvalInputError(f"{path} is not UTF-8 text: {exc}") from exc


class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades: dict[str, dict[str, int]] = {}
        for qid, docs in (grades or {}).items():
            for did, grade in docs.items():
                self.add(qid, did, grade)

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        """Judge ``doc_id`` for ``query_id``; ValueError unless both ids obey the
        id rule, which keeps every qrels line four fields, and the grade its rule."""
        check_id(query_id, "qrels: query_id")
        check_id(doc_id, "qrels: doc_id")
        self._grades.setdefault(query_id, {})[doc_id] = check_natural(grade, "grade")

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get(query_id, {}).get(doc_id, 0)

    def judged(self, query_id: str) -> dict[str, int]:
        """All judged documents for one query, doc_id -> grade."""
        return dict(self._grades.get(query_id, {}))

    def queries(self) -> list[str]:
        return sorted(self._grades)

    def __len__(self) -> int:
        return sum(len(d) for d in self._grades.values())

    @classmethod
    def from_file(cls, path) -> "Qrels":
        """Parse TREC qrels lines: ``query_id 0 doc_id grade``, each grade a
        ``check_decimal`` non-negative integer. A (query, doc) pair may repeat
        only with the same grade. A bad line raises EvalInputError naming it.
        """
        qrels = cls()
        for lineno, parts in _fields(path, "qrels", 4):
            qid, _, did, grade = parts
            earlier = qrels._grades.get(qid, {}).get(did)
            try:
                qrels.add(qid, did, check_decimal(grade, "grade", int))
            except ValueError as exc:
                raise EvalInputError(f"qrels line {lineno}: {exc}") from exc
            if earlier is not None and earlier != qrels.grade(qid, did):
                raise EvalInputError(
                    f"qrels line {lineno}: grade {grade:.40} for query {qid:.40} doc {did:.40} "
                    f"conflicts with grade {earlier!r:.40} on an earlier line"
                )
        return qrels

    def to_file(self, path) -> None:
        """Write TREC qrels lines through ``store.replacing``."""
        with replacing(path) as fh:
            fh.writelines(f"{qid} 0 {did} {self._grades[qid][did]}\n"
                          for qid in self.queries() for did in sorted(self._grades[qid]))


def dcg(grades: Sequence[float], k: int) -> float:
    """Discounted cumulative gain of a grade sequence over the top k ranks."""
    return sum(g / math.log2(i + 2.0) for i, g in enumerate(grades[:k]))


def ndcg_at_k(ranking: Sequence[str], judged: Mapping[str, int], k: int) -> float:
    """nDCG@k of one query's ranking against its judged grades.

    The ideal DCG sorts ALL judged grades descending before truncating at k,
    so a perfect but short ranking still scores 1.0. Queries with no positive
    judgments score 0 by convention.
    """
    k = check_count(k, "k")
    gains = [float(judged.get(doc_id, 0)) for doc_id in ranking]
    ideal = sorted((float(g) for g in judged.values()), reverse=True)
    idcg = dcg(ideal, k)
    if idcg == 0.0:
        return 0.0
    return dcg(gains, k) / idcg


def evaluate_run(
    run: Mapping[str, Sequence[str]], qrels: Qrels, k: int
) -> tuple[dict[str, float], float]:
    """Score every query in the run; returns per-query values and their mean."""
    per_query = {
        qid: ndcg_at_k(ranking, qrels.judged(qid), k) for qid, ranking in run.items()
    }
    if not per_query:
        raise ValueError("run contains no queries")
    mean = sum(per_query.values()) / len(per_query)
    return per_query, mean


def _check_hit(qid: str, did: str, rank, score, ranks: set, docs: set) -> None:
    """The run rule for one hit of query ``qid``, which ``write_run`` and
    ``read_run`` share: a rank of at least 1, a finite score that a float
    holds, and a doc and rank not yet in ``docs`` and ``ranks`` (a doc counted
    twice inflates nDCG), where the hit's are then added. ValueError otherwise."""
    rank = check_count(rank, "rank")
    try:
        float(check_real(score, "score"))
    except OverflowError:
        raise ValueError("score must be a finite number, got an integer past float range") from None
    if did in docs:
        raise ValueError(f"query {qid:.40} lists doc {did:.40} again")
    if rank in ranks:
        raise ValueError(f"query {qid:.40} uses rank {rank!r:.40} again")
    docs.add(did)
    ranks.add(rank)


def write_run(hits_by_query: Mapping[str, Sequence], fh, run_tag: str = "colchunk") -> None:
    """Emit TREC run lines: ``query_id Q0 doc_id rank score tag``. Every line is
    checked and formatted before the first is written, so hits that break
    ``read_run``'s rules (ids by the id rule, ``run_tag`` too, and
    ``_check_hit``'s) raise ValueError with nothing written."""
    check_id(run_tag, "run: run_tag")
    lines = []
    for qid in hits_by_query:
        check_id(qid, "run: query_id")
        ranks, docs = set(), set()
        for hit in hits_by_query[qid]:
            check_id(hit.doc_id, "run: doc_id")
            try:
                _check_hit(qid, hit.doc_id, hit.rank, hit.score, ranks, docs)
            except ValueError as exc:
                raise ValueError(f"run: {exc}") from None
            lines.append(f"{qid} Q0 {hit.doc_id} {hit.rank} {hit.score:.6f} {run_tag}\n")
    fh.writelines(lines)


def read_run(path) -> dict[str, list[str]]:
    """Parse a TREC run file back into per-query rankings ordered by rank.

    Each rank and score is ``check_decimal`` text, an integer and a number,
    and each hit obeys ``_check_hit``: a rank of at least 1, a finite score,
    and each doc and rank used once per query. A bad line raises
    EvalInputError naming it.
    """
    raw: dict[str, dict[int, str]] = {}
    listed: dict[str, tuple[set, set]] = {}
    for lineno, parts in _fields(path, "run", 6):
        qid, _, did, rank, score, _ = parts
        try:
            rank_i = check_decimal(rank, "rank", int)
            _check_hit(qid, did, rank_i, check_decimal(score, "score", float),
                       *listed.setdefault(qid, (set(), set())))
        except ValueError as exc:
            raise EvalInputError(f"run line {lineno}: {exc}") from exc
        raw.setdefault(qid, {})[rank_i] = did
    return {qid: [ranking[r] for r in sorted(ranking)] for qid, ranking in raw.items()}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted-block benchmark.

    ``noise_sigma`` is the expected NORM of the perturbation added to each
    signal patch (components are drawn iid N(0, sigma^2 / dim)), which keeps
    its meaning as a noise-to-signal ratio independent of dim. Each query
    owns ``query_tokens`` unit token directions; the i-th patch of its
    relevant block carries token ``i mod query_tokens``.

    The defaults plant fewer signal patches than the query has tokens, so a
    relevant page answers only part of its query. Unanswered tokens score at
    the noise floor for every document, which is what separates the chunk
    counts: heavy compression dilutes the planted patches into large mixed
    chunks and the relevant page drowns, while at higher K the planted
    patches sit in small chunks and pull ahead. Dense planting saturates
    retrieval at every K and flattens the curve.
    """

    num_docs: int
    num_queries: int
    grid: PatchGrid
    dim: int
    signal_patches: int = 16
    noise_sigma: float = 0.5
    seed: int = 0
    query_tokens: int = 64

    def __post_init__(self):
        for name in ("num_docs", "num_queries", "dim", "signal_patches", "query_tokens"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        if self.num_queries > self.num_docs:
            raise ValueError("every query needs its own relevant document")
        if self.dim % 4 != 0:
            raise ValueError("dim must be a positive multiple of 4")
        # Every bench runs the Ward baseline row, so a page Ward refuses is
        # refused here, before anything is drawn.
        if self.grid.n_patches > chunker.MAX_HAC_PATCHES:
            raise ValueError(
                f"a {self.grid.rows!r:.40}x{self.grid.cols!r:.40} grid of "
                f"{self.grid.n_patches!r:.40} patches exceeds MAX_HAC_PATCHES = "
                f"{chunker.MAX_HAC_PATCHES}"
            )
        if self.signal_patches > self.grid.n_patches:
            raise ValueError("signal_patches must fit in the grid")
        object.__setattr__(self, "noise_sigma", check_real(self.noise_sigma, "noise_sigma"))
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma!r:.40}")
        object.__setattr__(self, "seed", check_natural(self.seed, "seed"))
        _block_shape(self.signal_patches, self.grid)  # fail fast if impossible


def _block_shape(area: int, grid: PatchGrid) -> tuple[int, int]:
    """Most-square rows x cols factorization of ``area`` that fits the grid."""
    best: tuple[int, int] | None = None
    for br in range(1, area + 1):
        if area % br:
            continue
        bc = area // br
        if br <= grid.rows and bc <= grid.cols:
            if best is None or abs(br - bc) < abs(best[0] - best[1]):
                best = (br, bc)
    if best is None:
        raise ValueError(
            f"signal_patches = {area} admits no rectangle inside a "
            f"{grid.rows}x{grid.cols} grid"
        )
    return best


def generate_corpus(
    spec: SyntheticSpec,
) -> tuple[list[PatchEmbeddingSet], list[QueryEmbeddingSet], Qrels]:
    """Materialize the benchmark in memory; deterministic in ``spec.seed``.

    Query t is relevant (grade 1) to document t alone. All non-signal
    patches, and every patch of the remaining documents, are isotropic
    Gaussian directions.
    """
    rng = np.random.default_rng(spec.seed)
    tokens = [
        unit_rows(rng.standard_normal((spec.query_tokens, spec.dim)))
        for _ in range(spec.num_queries)
    ]
    br, bc = _block_shape(spec.signal_patches, spec.grid)
    sigma_component = spec.noise_sigma / math.sqrt(spec.dim)
    docs: list[PatchEmbeddingSet] = []
    for d in range(spec.num_docs):
        vectors = unit_rows(rng.standard_normal((spec.grid.n_patches, spec.dim)))
        if d < spec.num_queries:
            r0 = int(rng.integers(spec.grid.rows - br + 1))
            c0 = int(rng.integers(spec.grid.cols - bc + 1))
            noise = rng.standard_normal((spec.signal_patches, spec.dim)) * sigma_component
            cells = np.arange(r0, r0 + br)[:, None] * spec.grid.cols + np.arange(c0, c0 + bc)
            planted = tokens[d][np.arange(spec.signal_patches) % spec.query_tokens]
            if spec.noise_sigma != 0.0:
                # One 1-D norm per row: unit_rows's axis=1 norm would change the dump's bytes.
                planted = np.array([row / np.linalg.norm(row) for row in planted + noise])
            vectors[cells.ravel()] = planted
        docs.append(
            PatchEmbeddingSet(
                doc_id=f"doc{d:04d}", dim=spec.dim, grid=spec.grid, vectors=vectors
            )
        )
    queries = [
        QueryEmbeddingSet(query_id=f"q{t:04d}", dim=spec.dim, vectors=tokens[t])
        for t in range(spec.num_queries)
    ]
    qrels = Qrels()
    for t in range(spec.num_queries):
        qrels.add(f"q{t:04d}", f"doc{t:04d}", 1)
    return docs, queries, qrels


@dataclass(frozen=True)
class SyntheticDataset:
    doc_manifest: Path
    query_manifest: Path
    qrels_path: Path


def generate_synthetic(spec: SyntheticSpec, out_dir) -> SyntheticDataset:
    """Generate the benchmark and persist it as dumps plus a qrels file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs, queries, qrels = generate_corpus(spec)
    doc_manifest = write_embedding_dump(docs, out, location="synthetic")
    query_manifest = write_query_dump(queries, out)
    qrels_path = out / "qrels.txt"
    qrels.to_file(qrels_path)
    return SyntheticDataset(
        doc_manifest=doc_manifest, query_manifest=query_manifest, qrels_path=qrels_path
    )


@dataclass(frozen=True)
class SweepSpec:
    """Which single-axis ablations to run. Unspecified axes stay at base values.
    Every value is checked by ``ChunkerConfig`` at construction, used by a row or not."""

    k_values: tuple[int, ...] = ()
    omega_values: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()
    base_k: int = ChunkerConfig.k
    base_omega: float = ChunkerConfig.omega
    seed: int = ChunkerConfig.seed

    def __post_init__(self):
        self.configs()

    def configs(self) -> list[tuple[str, ChunkerConfig]]:
        """Each row's ``(config_id, ChunkerConfig)``: the K=1 baseline, then the
        k, omega and method sweeps, each varying one axis of the base."""
        base = ChunkerConfig(self.base_k, self.base_omega, seed=self.seed)
        configs = [("baseline-k1", replace(base, k=1))]
        configs += [(f"k{k}", replace(base, k=k)) for k in self.k_values]
        omegas = [replace(base, omega=w) for w in self.omega_values]  # checked before :g
        configs += [(f"omega{cfg.omega:g}", cfg) for cfg in omegas]
        configs += [(f"method-{m}", replace(base, method=m)) for m in self.methods]
        return configs


@dataclass(frozen=True)
class AblationRow:
    config_id: str
    method: str
    k: int
    omega: float
    mean_ndcg_at_5: float
    vectors_per_doc: float
    index_bytes: int
    wall_ms: float


def run_ablation(
    docs: Iterable[PatchEmbeddingSet],
    queries: Iterable[QueryEmbeddingSet],
    qrels: Qrels,
    sweep: SweepSpec,
    scratch_dir=None,
) -> list[AblationRow]:
    """Compress, index, retrieve, and score one row per swept configuration.

    Emits one row per ``sweep.configs()`` entry, in that order. Each row's
    compressed pages are written as an index file under ``scratch_dir``,
    read back, ranked and scored, as ``compress``, ``query`` and ``eval`` do.

    Configurations sharing (omega, method) are compressed together, page by
    page with ``compress_ks``: one fusion and, for Ward, one dendrogram per
    page serve every k of the group. The group's compression time is charged
    to its first row's ``wall_ms``; every other row times only its own
    indexing, retrieval and scoring.
    """
    doc_list = list(docs)
    query_list = list(queries)
    if not doc_list or not query_list:
        raise ValueError("ablation needs at least one document and one query")

    configs = sweep.configs()
    groups: dict[tuple[float, str], list[int]] = {}
    for i, (_, cfg) in enumerate(configs):
        groups.setdefault((cfg.omega, cfg.method), []).append(i)
    rows: dict[int, AblationRow] = {}
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        for members in groups.values():
            cfgs = [configs[i][1] for i in members]
            start = time.perf_counter()
            per_page = [compress_ks(s, cfgs) for s in doc_list]
            compress_ms = (time.perf_counter() - start) * 1000.0
            for j, i in enumerate(members):
                start = time.perf_counter()
                config_id, cfg = configs[i]
                compressed = [page[j] for page in per_page]
                path = Path(tmp, f"{config_id}.cchk")
                write_records(path, compressed[0].dim, [d.doc_id for d in compressed],
                              BuildMeta.for_config(cfg, "synthetic"),
                              ((d.chunks, d.chunk_sizes) for d in compressed))
                hits = retrieve_many(query_list, read_index(path), top_k=NDCG_CUTOFF)
                run = {q.query_id: [h.doc_id for h in hs] for q, hs in zip(query_list, hits)}
                _, mean = evaluate_run(run, qrels, k=NDCG_CUTOFF)
                rows[i] = AblationRow(
                    config_id, cfg.method, cfg.k, cfg.omega, mean_ndcg_at_5=mean,
                    vectors_per_doc=float(np.mean([d.k for d in compressed])),
                    index_bytes=path.stat().st_size,
                    wall_ms=compress_ms + (time.perf_counter() - start) * 1000.0)
                compress_ms = 0.0  # charged to the group's first row only
    return [rows[i] for i in range(len(configs))]


def rows_to_csv(rows: Sequence[AblationRow], fh) -> None:
    fh.write(",".join(f.name for f in fields(AblationRow)) + "\n")
    for r in rows:
        fh.write(
            f"{r.config_id},{r.method},{r.k},{r.omega:g},"
            f"{r.mean_ndcg_at_5:.6f},{r.vectors_per_doc:.2f},{r.index_bytes},{r.wall_ms:.1f}\n"
        )
