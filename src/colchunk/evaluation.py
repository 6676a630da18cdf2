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

from .chunker import ChunkerConfig, compress_ks
from .scorer import retrieve_many
from .store import (
    BuildMeta,
    CorpusIndex,
    write_embedding_dump,
    write_index,
    write_query_dump,
)
from .types import CompressedDocument, PatchEmbeddingSet, PatchGrid, QueryEmbeddingSet

__all__ = [
    "EvalInputError",
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


class EvalInputError(Exception):
    """A qrels or run file could not be parsed."""


def _fields(path):
    """``(line number, whitespace-split fields)`` of each non-blank line of a
    UTF-8 text file; a file that is not UTF-8 raises EvalInputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if parts:
                    yield lineno, parts
    except UnicodeDecodeError as exc:
        raise EvalInputError(f"{path} is not UTF-8 text: {exc}") from exc


class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id)."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades: dict[str, dict[str, int]] = {}
        for qid, docs in (grades or {}).items():
            self._grades[qid] = {}
            for did, grade in docs.items():
                self.add(qid, did, grade)

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"grade must be non-negative, got {grade}")
        self._grades.setdefault(query_id, {})[doc_id] = int(grade)

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
        """Parse TREC qrels lines: ``query_id 0 doc_id grade``.

        A (query, doc) pair may repeat only with the same grade; a second,
        different grade raises EvalInputError naming its line.
        """
        qrels = cls()
        for lineno, parts in _fields(path):
            if len(parts) != 4:
                raise EvalInputError(f"qrels line {lineno}: expected 4 fields, got {len(parts)}")
            qid, _, did, grade = parts
            earlier = qrels._grades.get(qid, {}).get(did)
            try:
                qrels.add(qid, did, int(grade))
            except ValueError as exc:
                raise EvalInputError(f"qrels line {lineno}: {exc}") from exc
            if earlier is not None and earlier != qrels.grade(qid, did):
                raise EvalInputError(
                    f"qrels line {lineno}: grade {grade} for query {qid} doc {did} "
                    f"conflicts with grade {earlier} on an earlier line"
                )
        return qrels

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for qid in self.queries():
                for did in sorted(self._grades[qid]):
                    fh.write(f"{qid} 0 {did} {self._grades[qid][did]}\n")


def dcg(grades: Sequence[float], k: int) -> float:
    """Discounted cumulative gain of a grade sequence over the top k ranks."""
    return sum(g / math.log2(i + 2.0) for i, g in enumerate(grades[:k]))


def ndcg_at_k(ranking: Sequence[str], judged: Mapping[str, int], k: int) -> float:
    """nDCG@k of one query's ranking against its judged grades.

    The ideal DCG sorts ALL judged grades descending before truncating at k,
    so a perfect but short ranking still scores 1.0. Queries with no positive
    judgments score 0 by convention.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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


def write_run(hits_by_query: Mapping[str, Sequence], fh, run_tag: str = "colchunk") -> None:
    """Emit TREC run lines: ``query_id Q0 doc_id rank score tag``."""
    for qid in hits_by_query:
        for hit in hits_by_query[qid]:
            fh.write(f"{qid} Q0 {hit.doc_id} {hit.rank} {hit.score:.6f} {run_tag}\n")


def read_run(path) -> dict[str, list[str]]:
    """Parse a TREC run file back into per-query rankings ordered by rank.

    A query may list each doc once and use each rank once; a repeat raises
    EvalInputError naming its line, since a doc counted twice inflates nDCG.
    """
    raw: dict[str, dict[int, str]] = {}
    listed: set[tuple[str, str]] = set()
    for lineno, parts in _fields(path):
        if len(parts) != 6:
            raise EvalInputError(f"run line {lineno}: expected 6 fields, got {len(parts)}")
        qid, _, did, rank, score, _ = parts
        try:
            rank_i = int(rank)
            float(score)
        except ValueError as exc:
            raise EvalInputError(f"run line {lineno}: {exc}") from exc
        ranking = raw.setdefault(qid, {})
        if (qid, did) in listed:
            raise EvalInputError(f"run line {lineno}: query {qid} lists doc {did} again")
        if rank_i in ranking:
            raise EvalInputError(f"run line {lineno}: query {qid} uses rank {rank_i} again")
        listed.add((qid, did))
        ranking[rank_i] = did
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
        if self.num_docs < 1 or self.num_queries < 1:
            raise ValueError("need at least one document and one query")
        if self.num_queries > self.num_docs:
            raise ValueError("every query needs its own relevant document")
        if self.dim < 4 or self.dim % 4 != 0:
            raise ValueError("dim must be a positive multiple of 4")
        if not 1 <= self.signal_patches <= self.grid.n_patches:
            raise ValueError("signal_patches must fit in the grid")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.query_tokens < 1:
            raise ValueError("query_tokens must be at least 1")
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


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


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
        _unit_rows(rng.standard_normal((spec.query_tokens, spec.dim)))
        for _ in range(spec.num_queries)
    ]
    br, bc = _block_shape(spec.signal_patches, spec.grid)
    sigma_component = spec.noise_sigma / math.sqrt(spec.dim)
    docs: list[PatchEmbeddingSet] = []
    for d in range(spec.num_docs):
        vectors = _unit_rows(rng.standard_normal((spec.grid.n_patches, spec.dim)))
        if d < spec.num_queries:
            r0 = int(rng.integers(spec.grid.rows - br + 1))
            c0 = int(rng.integers(spec.grid.cols - bc + 1))
            noise = rng.standard_normal((spec.signal_patches, spec.dim)) * sigma_component
            i = 0
            for r in range(r0, r0 + br):
                for c in range(c0, c0 + bc):
                    j = r * spec.grid.cols + c
                    tok = tokens[d][i % spec.query_tokens]
                    if spec.noise_sigma == 0.0:
                        vectors[j] = tok
                    else:
                        noisy = tok + noise[i]
                        vectors[j] = noisy / np.linalg.norm(noisy)
                    i += 1
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
    """Which single-axis ablations to run. Unspecified axes stay at base values."""

    k_values: tuple[int, ...] = ()
    omega_values: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()
    base_k: int = ChunkerConfig.k
    base_omega: float = ChunkerConfig.omega
    seed: int = ChunkerConfig.seed


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


def _measure_config(
    config_id: str,
    compressed: list[CompressedDocument],
    queries: list[QueryEmbeddingSet],
    qrels: Qrels,
    cfg: ChunkerConfig,
    scratch: Path,
    compress_ms: float,
) -> AblationRow:
    """Index, retrieve and score one configuration's compressed pages.

    The row's ``wall_ms`` is ``compress_ms`` plus the time spent here.
    """
    start = time.perf_counter()
    meta = BuildMeta.for_config(cfg, "synthetic")
    index = CorpusIndex(dim=compressed[0].dim, docs=tuple(compressed), build_meta=meta)
    index_path = scratch / f"{config_id}.cchk"
    write_index(index, index_path)
    run = {
        q.query_id: [h.doc_id for h in hits]
        for q, hits in zip(queries, retrieve_many(queries, index, top_k=5))
    }
    _, mean = evaluate_run(run, qrels, k=5)
    wall_ms = compress_ms + (time.perf_counter() - start) * 1000.0
    return AblationRow(
        config_id=config_id,
        method=cfg.method,
        k=cfg.k,
        omega=cfg.omega,
        mean_ndcg_at_5=mean,
        vectors_per_doc=float(np.mean([doc.k for doc in compressed])),
        index_bytes=index_path.stat().st_size,
        wall_ms=wall_ms,
    )


def run_ablation(
    docs: Iterable[PatchEmbeddingSet],
    queries: Iterable[QueryEmbeddingSet],
    qrels: Qrels,
    sweep: SweepSpec,
    scratch_dir=None,
) -> list[AblationRow]:
    """Compress, index, retrieve, and score one row per swept configuration.

    Emits a K=1 single-vector baseline row first, then the k sweep, the
    omega sweep, and the method comparison, each varying one axis with the
    others at base values. Index sizes are measured on real files written
    under ``scratch_dir``.

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

    base = ChunkerConfig(k=1, omega=sweep.base_omega, seed=sweep.seed)
    configs = [("baseline-k1", base)]
    configs += [(f"k{k}", replace(base, k=k)) for k in sweep.k_values]
    configs += [(f"omega{w:g}", replace(base, k=sweep.base_k, omega=w)) for w in sweep.omega_values]
    configs += [(f"method-{m}", replace(base, k=sweep.base_k, method=m)) for m in sweep.methods]

    groups: dict[tuple[float, str], list[int]] = {}
    for i, (_, cfg) in enumerate(configs):
        groups.setdefault((cfg.omega, cfg.method), []).append(i)
    rows: dict[int, AblationRow] = {}
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        scratch = Path(tmp)
        for members in groups.values():
            cfgs = [configs[i][1] for i in members]
            start = time.perf_counter()
            per_page = [compress_ks(s, cfgs) for s in doc_list]
            compress_ms = (time.perf_counter() - start) * 1000.0
            for j, i in enumerate(members):
                config_id, cfg = configs[i]
                compressed = [page[j] for page in per_page]
                rows[i] = _measure_config(
                    config_id, compressed, query_list, qrels, cfg, scratch,
                    compress_ms if j == 0 else 0.0,
                )
    return [rows[i] for i in range(len(configs))]


def rows_to_csv(rows: Sequence[AblationRow], fh) -> None:
    fh.write(",".join(f.name for f in fields(AblationRow)) + "\n")
    for r in rows:
        fh.write(
            f"{r.config_id},{r.method},{r.k},{r.omega:g},"
            f"{r.mean_ndcg_at_5:.6f},{r.vectors_per_doc:.2f},{r.index_bytes},{r.wall_ms:.1f}\n"
        )
