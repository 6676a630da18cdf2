"""Inputs the benchmark generates, and the independent checks on outputs.

Everything here is the benchmark's own code: it writes the documented dump
formats itself, parses ``.cchk`` files itself and scores with its own float64
MaxSim, so a change to the program cannot change the inputs or the oracle.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

CCHK_HEADER_BYTES = 20  # magic, version, dim, doc count
TRAILER_LEN_BYTES = 8


def unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def planted_pages(rng, n_pages, rows, cols, dim, n_tokens, signal, noise):
    """Gaussian pages where page i carries a rectangle of query i's tokens.

    Returns ``(pages, queries)``: one ``(rows * cols, dim)`` float64 array
    per page and one ``(n_tokens, dim)`` token array per page's query.
    """
    fits = [d for d in range(1, rows + 1) if signal % d == 0 and signal // d <= cols]
    br = min(fits, key=lambda d: abs(d - signal // d))  # the most nearly square block
    bc = signal // br
    queries = [unit_rows(rng.standard_normal((n_tokens, dim))) for _ in range(n_pages)]
    pages = []
    for i in range(n_pages):
        page = unit_rows(rng.standard_normal((rows * cols, dim)))
        r0 = int(rng.integers(rows - br + 1))
        c0 = int(rng.integers(cols - bc + 1))
        cells = [(r0 + r) * cols + c0 + c for r in range(br) for c in range(bc)]
        tok = queries[i][np.arange(signal) % n_tokens]
        page[cells] = unit_rows(tok + rng.standard_normal((signal, dim)) * noise / np.sqrt(dim))
        pages.append(page)
    return pages, queries


def write_dump(out: Path, ids, rows, cols, pages) -> Path:
    """Write pages as the documented embedding dump; returns the manifest path."""
    (out / "vectors").mkdir(parents=True, exist_ok=True)
    entries = []
    for doc_id, page in zip(ids, pages):
        rel = f"vectors/{doc_id}.f32"
        page.astype("<f4").tofile(out / rel)
        entries.append(
            {"doc_id": doc_id, "rows": rows, "cols": cols, "n_vectors": len(page), "path": rel}
        )
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"dim": pages[0].shape[1], "location": "perfbench", "entries": entries}))
    return manifest


def write_queries(out: Path, ids, queries) -> Path:
    """Write query tokens as the documented query dump; returns the manifest path."""
    (out / "queries").mkdir(parents=True, exist_ok=True)
    entries = []
    for qid, toks in zip(ids, queries):
        rel = f"queries/{qid}.f32"
        toks.astype("<f4").tofile(out / rel)
        entries.append({"query_id": qid, "n_vectors": len(toks), "path": rel})
    manifest = out / "queries.json"
    manifest.write_text(json.dumps({"dim": queries[0].shape[1], "entries": entries}))
    return manifest


def f32_round(a: np.ndarray) -> np.ndarray:
    """What a dump round trip leaves of a float64 array."""
    return a.astype(np.float32).astype(np.float64)


def random_partition(rng, n: int, k: int) -> np.ndarray:
    """``k`` positive integers summing to ``n``."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [n]]))


def cchk_size(doc_ids, ks, dim: int, trailer_len: int) -> int:
    """Byte size of a ``.cchk`` v1 file, from the layout in the README."""
    records = sum(2 + len(d.encode("utf-8")) + 4 + 4 * k + 4 * k * dim for d, k in zip(doc_ids, ks))
    return CCHK_HEADER_BYTES + records + trailer_len + TRAILER_LEN_BYTES


def trailer_bytes(meta: dict) -> int:
    """Length of the JSON build-metadata trailer for ``meta``."""
    return len(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"))


class CchkFile:
    """A ``.cchk`` v1 file parsed by the benchmark, independently of the program."""

    def __init__(self, path: Path):
        buf = Path(path).read_bytes()
        self.size = len(buf)
        self.sha256 = hashlib.sha256(buf).hexdigest()
        magic, version, self.dim, n = struct.unpack_from("<4sIIQ", buf, 0)
        if magic != b"CCHK" or version != 1:
            raise ValueError(f"bad header {magic!r} v{version}")
        pos = CCHK_HEADER_BYTES
        self.ids, self.sizes, chunks = [], [], []
        for _ in range(n):
            (id_len,) = struct.unpack_from("<H", buf, pos)
            self.ids.append(buf[pos + 2 : pos + 2 + id_len].decode("utf-8"))
            pos += 2 + id_len
            (k,) = struct.unpack_from("<I", buf, pos)
            self.sizes.append(np.frombuffer(buf, "<u4", k, pos + 4).astype(np.int64))
            pos += 4 + 4 * k
            chunks.append(np.frombuffer(buf, "<f4", k * self.dim, pos).reshape(k, self.dim))
            pos += 4 * k * self.dim
        (self.trailer_len,) = struct.unpack_from("<Q", buf, self.size - TRAILER_LEN_BYTES)
        self.chunks = np.concatenate(chunks)
        self.ks = [len(s) for s in self.sizes]


class Oracle:
    """Exhaustive float64 MaxSim over a stacked float32 chunk matrix.

    Scores are computed a block of documents at a time so that the float64
    copy of a large index never exists whole.
    """

    BLOCK_DOCS = 256

    def __init__(self, ids, chunks: np.ndarray, ks):
        self.ids = list(ids)
        self.chunks = chunks
        self.bounds = np.concatenate([[0], np.cumsum(ks)])

    def scores(self, tokens: np.ndarray) -> np.ndarray:
        q = unit_rows(tokens)
        out = np.empty(len(self.ids))
        for d0 in range(0, len(self.ids), self.BLOCK_DOCS):
            d1 = min(d0 + self.BLOCK_DOCS, len(self.ids))
            r0, r1 = self.bounds[d0], self.bounds[d1]
            sims = q @ self.chunks[r0:r1].astype(np.float64).T
            out[d0:d1] = np.maximum.reduceat(sims, self.bounds[d0:d1] - r0, axis=1).sum(axis=0)
        return out

    def top_k(self, tokens: np.ndarray, k: int) -> list[tuple[str, float]]:
        scores = self.scores(tokens)
        order = sorted(range(len(self.ids)), key=lambda i: (-scores[i], self.ids[i]))
        return [(self.ids[i], float(scores[i])) for i in order[:k]]


def ndcg_at_5(ranking, relevant: str) -> float:
    """Binary nDCG@5 of one ranking with a single relevant document."""
    for i, doc_id in enumerate(ranking[:5]):
        if doc_id == relevant:
            return 1.0 / np.log2(i + 2.0)
    return 0.0
