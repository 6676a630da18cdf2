import json
import re
import struct
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from colchunk import store
from colchunk.store import (
    FORMAT_VERSION,
    MAGIC,
    BuildMeta,
    CorpusIndex,
    IndexFormatError,
    ManifestError,
    ingest_dump,
    ingest_queries,
    load_manifest,
    load_query_manifest,
    read_index,
    write_embedding_dump,
    write_index,
    write_query_dump,
    write_records,
)
from colchunk.types import (
    CompressedDocument,
    PatchGrid,
    QueryEmbeddingSet,
    first_non_unit_row,
    unit_rows,
)

from conftest import make_pset, with_trailer


def make_meta(**kw):
    base = dict(
        omega=0.2, k_target=40, method="hac_ward", posenc_base=10000.0,
        tool_version="0.1.0", embedding_location="unit-test",
    )
    base.update(kw)
    return BuildMeta(**base)


def make_index(rng, n_docs=3, dim=8, k=4):
    docs = []
    for i in range(n_docs):
        chunks = rng.normal(size=(k, dim))
        chunks /= np.linalg.norm(chunks, axis=1, keepdims=True)
        # write-ready: chunks must survive the f32 roundtrip bit-for-bit
        chunks = chunks.astype(np.float32).astype(np.float64)
        docs.append(
            CompressedDocument(
                doc_id=f"doc{i}", k=k, dim=dim, chunks=chunks,
                chunk_sizes=rng.integers(1, 9, size=k),
            )
        )
    return CorpusIndex(dim=dim, docs=tuple(docs), build_meta=make_meta())


def float32_docs(rng, n_docs, dim=8, k=4):
    """Documents holding float32 chunks, the precision an index stores."""
    return [CompressedDocument(doc_id=f"doc{i}", k=k, dim=dim, chunk_sizes=[1] * k,
                               chunks=unit_rows(rng.normal(size=(k, dim))).astype(np.float32))
            for i in range(n_docs)]


class TestIndexRoundTrip:
    def test_write_read_write_is_byte_identical(self, rng, tmp_path):
        index = make_index(rng)
        p1, p2 = tmp_path / "a.cchk", tmp_path / "b.cchk"
        write_index(index, p1)
        write_index(read_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_content_survives(self, rng, tmp_path):
        index = make_index(rng, n_docs=2, dim=16, k=3)
        path = tmp_path / "t.cchk"
        write_index(index, path)
        back = read_index(path)
        assert back.dim == 16
        assert len(back) == 2
        assert back.build_meta == index.build_meta
        for orig, got in zip(index.docs, back.docs):
            assert got.doc_id == orig.doc_id
            np.testing.assert_array_equal(got.chunk_sizes, orig.chunk_sizes)
            np.testing.assert_array_equal(
                got.chunks, orig.chunks.astype(np.float32).astype(np.float64)
            )

    def test_float32_documents_stack_to_the_columns_read_index_returns(self, rng, tmp_path):
        index = CorpusIndex(dim=8, docs=float32_docs(rng, 5), build_meta=make_meta())
        write_index(index, tmp_path / "t.cchk")
        back = read_index(tmp_path / "t.cchk")
        assert index.chunks.dtype == back.chunks.dtype == np.float32
        for column in ("offsets", "chunks", "sizes"):
            built, read = getattr(index, column), getattr(back, column)
            assert (built.dtype, built.tobytes()) == (read.dtype, read.tobytes()), column

    def test_float32_documents_stack_in_one_float32_matrix(self, rng):
        # Peak memory of the stacking alone, the documents already built: one
        # float32 stack (1.6 MB here) and small bookkeeping. Widening to float64
        # would double it.
        docs = float32_docs(rng, 200, dim=128, k=16)
        stack = 200 * 16 * 128 * 4
        tracemalloc.start()
        try:
            index = CorpusIndex(dim=128, docs=docs, build_meta=make_meta())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.chunks.nbytes == stack
        assert peak < 1.25 * stack, peak

    def test_empty_corpus(self, tmp_path):
        index = CorpusIndex(dim=8, docs=(), build_meta=make_meta())
        path = tmp_path / "empty.cchk"
        write_index(index, path)
        back = read_index(path)
        assert len(back) == 0
        assert back.dim == 8

    def test_exact_byte_layout(self, rng, tmp_path):
        # header 20, per doc: 2 + len(id) + 4 + 4k + 4k*dim, then trailer + 8
        index = make_index(rng, n_docs=2, dim=8, k=3)
        path = tmp_path / "t.cchk"
        write_index(index, path)
        trailer = json.dumps(
            asdict(index.build_meta), sort_keys=True, separators=(",", ":")
        ).encode()
        per_doc = 2 + len("doc0") + 4 + 4 * 3 + 4 * 3 * 8
        expected = 20 + 2 * per_doc + len(trailer) + 8
        assert path.stat().st_size == expected

    def test_unicode_doc_ids(self, rng, tmp_path):
        chunks = np.eye(2, 4)
        doc = CompressedDocument(
            doc_id="påge-中文", k=2, dim=4, chunks=chunks,
            chunk_sizes=np.array([1, 1]),
        )
        index = CorpusIndex(dim=4, docs=(doc,), build_meta=make_meta())
        path = tmp_path / "u.cchk"
        write_index(index, path)
        assert read_index(path).docs[0].doc_id == "påge-中文"

    @pytest.mark.parametrize("doc_id", ["a b", "tab\t", "", "\u3000wide", 7],
                             ids=["space", "tab", "empty", "ideographic-space", "int"])
    def test_id_that_breaks_run_lines_rejected(self, doc_id):
        # a run line is whitespace-separated fields, one of them the doc id
        doc = CompressedDocument(doc_id=doc_id, k=1, dim=4, chunks=np.eye(1, 4),
                                 chunk_sizes=np.array([1]))
        with pytest.raises(ValueError,
                           match="is empty or holds whitespace|must be a JSON string"):
            CorpusIndex(dim=4, docs=(doc,), build_meta=make_meta())

    def test_oversized_doc_id_rejected_on_write(self, tmp_path):
        # the record's id length is a u16, so such an id cannot be stored
        doc = CompressedDocument(
            doc_id="x" * 70000, k=1, dim=4, chunks=np.eye(1, 4), chunk_sizes=np.array([1])
        )
        with pytest.raises(ValueError, match="exceeds the u16 length field"):
            CorpusIndex(dim=4, docs=(doc,), build_meta=make_meta())

        def no_rows():
            raise AssertionError("the writer took a record before checking every id")
            yield

        with pytest.raises(ValueError, match="exceeds the u16 length field"):
            write_records(tmp_path / "big.cchk", 4, ["fine", "x" * 70000], make_meta(), no_rows())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_index(self, rng, tmp_path):
        path = tmp_path / "t.cchk"
        write_index(make_index(rng), path)
        before = path.read_bytes()
        good = make_index(rng, n_docs=1, dim=4)
        bad = np.eye(1, 4) * np.nan
        rows = [(good.chunks, good.sizes), (bad, np.array([1]))]
        with pytest.raises(ValueError, match=re.escape("doc 'bad': chunk 0 is not unit norm")):
            write_records(path, 4, ["good", "bad"], make_meta(), rows)
        assert path.read_bytes() == before
        assert len(read_index(path)) == 3
        assert [f.name for f in tmp_path.iterdir()] == ["t.cchk"]

    @pytest.mark.parametrize("size", [2**32, 2**32 + 7])
    def test_oversized_chunk_size_rejected_on_write(self, tmp_path, size):
        # a record's sizes are u32: 2**32 + 7 would read back as 7
        path = tmp_path / "t.cchk"
        rows = [(np.eye(1, 4), [1]), (np.eye(2, 4), [3, size])]
        with pytest.raises(ValueError, match=re.escape(
                f"doc 'big': chunk 1 of {size} patches exceeds the u32 size field")):
            write_records(path, 4, ["small", "big"], make_meta(), rows)
        assert list(tmp_path.iterdir()) == []
        write_records(path, 4, ["edge"], make_meta(), [(np.eye(1, 4), [2**32 - 1])])
        assert read_index(path).sizes.tolist() == [2**32 - 1]

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_record_count_must_match_ids(self, rng, tmp_path, n_rows):
        index = make_index(rng, n_docs=3, dim=4, k=2)
        rows = [(index.chunks[:2], index.sizes[:2])] * n_rows
        problem = "2 ids but 1 records" if n_rows == 1 else "more records than the 2 ids"
        path = tmp_path / "t.cchk"
        with pytest.raises(ValueError, match=re.escape(f"cannot write {path}: {problem}")):
            write_records(path, 4, ["a", "b"], make_meta(), rows)
        assert list(tmp_path.iterdir()) == []

    def test_zero_dim_rejected(self):
        # the reader rejects a header dim of 0, so no index may carry one
        with pytest.raises(ValueError, match="dim must be at least 1"):
            CorpusIndex(dim=0, docs=(), build_meta=make_meta())

    # Columns of make_index's 3 docs (dim 8, K 4), each case breaking one rule.
    @pytest.mark.parametrize("case,fragment", [
        ("two-ids-three-docs", "offsets must run from 0 with one entry more than the 2 ids"),
        ("width-5-in-dim-4", "doc 'doc0': chunks must have shape (4, 4), got (4, 5)"),
        ("norm-3", "doc 'doc0': chunk 0 is not unit norm"),
        ("offsets-from-1", "offsets must run from 0"),
        ("zero-k", "doc 'doc1': k must be at least 1, got 0"),
        ("short-sizes", "doc 'doc2': sizes must have shape (4,), got (3,)"),
        ("size-past-u32", "doc 'doc1': chunk 1 of 4294967296 patches exceeds the u32 size field"),
    ], ids=["two-ids-three-docs", "width-5-in-dim-4", "norm-3", "offsets-from-1", "zero-k",
            "short-sizes", "size-past-u32"])
    def test_from_columns_checks_what_it_wraps(self, rng, case, fragment):
        good = make_index(rng)
        cols = dict(dim=good.dim, ids=good.ids, offsets=good.offsets.copy(),
                    chunks=good.chunks.copy(), sizes=good.sizes.copy(),
                    build_meta=good.build_meta)
        if case == "two-ids-three-docs":
            cols["ids"] = good.ids[:2]
        elif case == "width-5-in-dim-4":
            wide = rng.normal(size=(12, 5))
            cols.update(dim=4, chunks=wide / np.linalg.norm(wide, axis=1, keepdims=True))
        elif case == "norm-3":
            cols["chunks"] = good.chunks * 3.0
        elif case == "offsets-from-1":
            cols["offsets"] = good.offsets + 1
        elif case == "zero-k":
            cols["offsets"] = np.array([0, 4, 4, 12])
        elif case == "size-past-u32":
            cols["sizes"][5] = 2**32
        else:
            cols["sizes"] = good.sizes[:-1]
        with pytest.raises(ValueError, match=re.escape(fragment)):
            CorpusIndex.from_columns(**cols)

    def test_chunk_off_unit_norm_once_stored_rejected_before_writing(
        self, rng, tmp_path, monkeypatch
    ):
        # unit norm within UNIT_NORM_TOL in float64, but not once rounded to
        # the stored float32, where the reader checks it
        draws = np.random.default_rng(0)
        while True:
            chunk = draws.normal(size=(1, 128))
            chunk *= (1.0 + 0.999e-6) / np.linalg.norm(chunk)
            if first_non_unit_row(chunk.astype(np.float32).astype(np.float64)) is not None:
                break
        doc = CompressedDocument(doc_id="d", k=1, dim=128, chunks=chunk,
                                 chunk_sizes=np.array([1]))
        path = tmp_path / "t.cchk"
        write_index(make_index(rng), path)
        before = path.read_bytes()
        # the writer checks each record just before its bytes, so the temp
        # file holds the 20-byte header alone when it is removed
        unlinked, unlink = {}, Path.unlink

        def spy_unlink(self, missing_ok=False):
            unlinked[self.name] = self.stat().st_size
            unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", spy_unlink)
        with pytest.raises(ValueError, match="chunk 0 is not unit norm"):
            write_index(CorpusIndex(dim=128, docs=(doc,), build_meta=make_meta()), path)
        assert list(unlinked.values()) == [20]
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["t.cchk"]


def changed_meta(drop=None, **changes) -> dict:
    """``make_meta()``'s fields as a trailer holds them, less ``drop``, with ``changes``."""
    return {k: v for k, v in dict(asdict(make_meta()), **changes).items() if k != drop}


# Well-formed JSON trailers of the wrong shape: a field of another JSON type,
# a field missing or a field too many, or a build no ChunkerConfig accepts.
# None may be converted or defaulted.
MALFORMED_METAS = {
    "k_target-true": changed_meta(k_target=True),
    "k_target-fractional": changed_meta(k_target=40.9),
    "k_target-string": changed_meta(k_target="40"),
    "k_target-negative": changed_meta(k_target=-3),
    "method-list": changed_meta(method=["a"]),
    "omega-string": changed_meta(omega="0.5"),
    "posenc_base-true": changed_meta(posenc_base=True),
    "missing-embedding_location": changed_meta(drop="embedding_location"),
    "extra-field": changed_meta(note="x"),
    "omega-above-1": changed_meta(omega=5),
    "omega-negative": changed_meta(omega=-1),
    "method-empty": changed_meta(method=""),
    "method-unknown": changed_meta(method="spectral"),
}


class TestIndexCorruption:
    @pytest.fixture
    def good_file(self, rng, tmp_path):
        path = tmp_path / "good.cchk"
        write_index(make_index(rng), path)
        return path

    def test_bad_magic(self, good_file):
        raw = bytearray(good_file.read_bytes())
        raw[:4] = b"JUNK"
        good_file.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="magic"):
            read_index(good_file)

    def test_unsupported_version(self, good_file):
        raw = bytearray(good_file.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 7)
        good_file.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="version"):
            read_index(good_file)

    @pytest.mark.parametrize("keep", [3, 10, 19, 25, 60])
    def test_truncation_anywhere(self, good_file, keep):
        good_file.write_bytes(good_file.read_bytes()[:keep])
        with pytest.raises(IndexFormatError):
            read_index(good_file)

    def test_trailer_length_disagreement(self, good_file):
        raw = bytearray(good_file.read_bytes())
        raw[-8:] = struct.pack("<Q", 2**40)
        good_file.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="trailer"):
            read_index(good_file)

    def test_zero_k_rejected(self, rng, tmp_path):
        # hand-build a file with k=0 for its only doc
        path = tmp_path / "k0.cchk"
        trailer = json.dumps(asdict(make_meta()), sort_keys=True,
                             separators=(",", ":")).encode()
        blob = (
            MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 4)
            + struct.pack("<Q", 1) + struct.pack("<H", 1) + b"d"
            + struct.pack("<I", 0) + trailer + struct.pack("<Q", len(trailer))
        )
        path.write_bytes(blob)
        with pytest.raises(IndexFormatError, match="doc 'd': k must be at least 1, got 0"):
            read_index(path)

    # In-place edits of the good file (docs doc0..doc2, dim 8, K 4): the
    # header is 20 bytes, doc0's id starts at 22 and its sizes at 30, and
    # doc1's id starts at 176.
    @pytest.mark.parametrize(
        "offset,patch,fragment",
        [(30, struct.pack("<I", 0), "at least one patch"),
         (8, struct.pack("<I", 0), "invalid dim 0"),
         (176, b"doc0", "duplicate doc_id 'doc0'"),
         (22, b"do 0", "is empty or holds whitespace")],
        ids=["zero-chunk-size", "zero-dim", "repeated-doc-id", "space-in-doc-id"],
    )
    def test_edited_field_rejected(self, good_file, offset, patch, fragment):
        raw = bytearray(good_file.read_bytes())
        raw[offset : offset + len(patch)] = patch
        good_file.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match=fragment):
            read_index(good_file)

    def test_non_unit_chunks_rejected(self, good_file):
        # scale the first doc's vector payload: header 20, id len 2 + 4,
        # k field 4, sizes 16, then 4*8 f32 chunk floats
        raw = bytearray(good_file.read_bytes())
        off = 20 + 2 + 4 + 4 + 16
        floats = np.frombuffer(bytes(raw[off : off + 4 * 4 * 8]), dtype="<f4") * 3.0
        raw[off : off + 4 * 4 * 8] = floats.astype("<f4").tobytes()
        good_file.write_bytes(bytes(raw))
        message = "doc 'doc0': chunk 0 is not unit norm"
        with pytest.raises(IndexFormatError, match=re.escape(message)):
            read_index(good_file)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_chunk_rejected(self, good_file, bad):
        # the second float of the first doc's chunks (offsets as above)
        raw = bytearray(good_file.read_bytes())
        off = 20 + 2 + 4 + 4 + 16 + 4
        raw[off : off + 4] = np.array([bad], dtype="<f4").tobytes()
        good_file.write_bytes(bytes(raw))
        message = f"doc 'doc0': chunk 0 is not unit norm (|norm - 1| = {abs(bad)})"
        with pytest.raises(IndexFormatError, match=re.escape(message)):
            read_index(good_file)

    @pytest.mark.parametrize(
        "trailer",
        [b"[]", b"null", b'"text"', json.dumps(dict(asdict(make_meta()), omega="high")).encode(),
         b"[" * 100_000, *(json.dumps(meta).encode() for meta in MALFORMED_METAS.values()),
         b'{"k_target":' + b"4" * 5000 + b"}"],
        ids=["list", "null", "string", "non-numeric-omega", "deeply-nested", *MALFORMED_METAS,
             "over-long-integer"],
    )
    def test_malformed_metadata(self, good_file, trailer):
        good_file.write_bytes(with_trailer(good_file.read_bytes(), trailer))
        with pytest.raises(IndexFormatError, match="metadata"):
            read_index(good_file)

    def test_every_truncation_and_byte_flip_is_typed(self, tmp_path):
        # 2 docs, dim 4, K 2. 0x00C00000 is a tiny float whose top byte
        # flipped reads NaN, so one flip plants a NaN in a chunk.
        tiny = np.frombuffer(struct.pack("<I", 0x00C00000), dtype="<f4")[0]
        chunks = np.array([[0.6, 0.8, tiny, 0.0], [0.0, 0.0, 1.0, 0.0]])
        docs = tuple(
            CompressedDocument(doc_id=f"d{i}", k=2, dim=4, chunks=chunks,
                               chunk_sizes=np.array([1, 2]))
            for i in range(2)
        )
        path = tmp_path / "small.cchk"
        write_index(CorpusIndex(dim=4, docs=docs, build_meta=make_meta()), path)
        blob = path.read_bytes()
        variants = [blob[:n] for n in range(len(blob))]
        variants += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :] for i in range(len(blob))]
        loaded = 0
        for variant in variants:
            path.write_bytes(variant)
            try:
                index = read_index(path)
            except IndexFormatError:
                continue
            loaded += 1
            chunks64 = index.chunks.astype(np.float64)
            assert np.isfinite(chunks64).all()
            assert np.abs(np.linalg.norm(chunks64, axis=1) - 1.0).max() <= 1e-6
            assert (index.sizes >= 1).all()
        assert 0 < loaded < len(variants)

    @pytest.mark.parametrize("buffer", [20, 1 << 20])
    @pytest.mark.parametrize("ks", [[1] * 6, [1, 1, 3, 1, 2, 1], [1, 2] * 3],
                             ids=["equal", "ragged", "alternating"])
    def test_every_truncation_names_its_field(self, rng, tmp_path, monkeypatch, ks, buffer):
        # Ids of 1 to 4 UTF-8 bytes, multi-byte ones and one ending in NUL.
        # Through a 20-byte buffer, records straddle refills and the K >= 2
        # ones outgrow it. The file reads back whole, and a cut names the
        # field it ends in; a cut in a record's sizes may name its vectors,
        # whose row capacity the reader bounds first.
        monkeypatch.setattr(store, "_BUFFER_BYTES", buffer)
        ids, dim = ["d0", "\u00e9", "a\x00", "\u20ac4", "\u20ac", "d77"], 4
        rows = [(unit_rows(rng.normal(size=(k, dim))).astype(np.float32), rng.integers(1, 9, k))
                for k in ks]
        path = tmp_path / "mixed.cchk"
        write_records(path, dim, ids, make_meta(), rows)
        index = read_index(path)
        assert index.ids == tuple(ids)
        assert index.offsets.tolist() == np.cumsum([0, *ks]).tolist()
        assert index.chunks.tobytes() == b"".join(chunks.tobytes() for chunks, _ in rows)
        assert index.sizes.tolist() == np.concatenate([sizes for _, sizes in rows]).tolist()
        fields = [(store._HEADER.size, ["header"])]
        for i, (doc_id, k) in enumerate(zip(ids, ks)):
            vectors = f"doc '{doc_id}' chunk vectors"
            fields += [(2, [f"doc {i} id length"]), (len(doc_id.encode()), [f"doc {i} id"]),
                       (4, [f"doc '{doc_id}' k"]), (4 * k, [f"doc '{doc_id}' chunk sizes", vectors]),
                       (4 * k * dim, [vectors])]
        blob, cut = path.read_bytes(), 0
        for width, names in fields:
            for n in range(cut, cut + width):
                path.write_bytes(blob[:n])
                with pytest.raises(IndexFormatError) as refused:
                    read_index(path)
                assert str(refused.value) in [f"truncated file: ran out of bytes reading {name}"
                                              for name in names]
            cut += width

    def test_garbage_metadata(self, good_file):
        raw = bytearray(good_file.read_bytes())
        # trash the first trailer byte ('{' becomes '!')
        trailer_len = struct.unpack("<Q", bytes(raw[-8:]))[0]
        raw[-8 - trailer_len] = ord("!")
        good_file.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="metadata"):
            read_index(good_file)

    def test_metadata_missing_field(self):
        with pytest.raises(IndexFormatError, match="omega"):
            BuildMeta.from_dict({"k_target": 40})

    @pytest.mark.parametrize("field,value,problem", [
        ("omega", "0.2", "omega must be a finite number, got '0.2'"),
        ("omega", float("nan"), "omega must be a finite number, got nan"),
        ("posenc_base", True, "posenc_base must be a finite number, got True"),
        ("k_target", 4.0, "k_target must be an integer, got 4.0"),
        ("k_target", 0, "k_target must be at least 1, got 0"),
        ("method", None, "method must be a JSON string, got None"),
        ("tool_version", 1, "tool_version must be a JSON string, got 1"),
        ("embedding_location", ["x"], "embedding_location must be a JSON string"),
        ("omega", 5, "omega must lie in [0, 1], got 5"),
        ("omega", -1, "omega must lie in [0, 1], got -1"),
        ("method", "", "method must be one of ('hac_ward', 'kmeans'), got ''"),
        ("method", "spectral", "method must be one of ('hac_ward', 'kmeans'), got 'spectral'"),
    ], ids=["omega-string", "omega-nan", "posenc_base-true", "k_target-float", "k_target-zero",
            "method-null", "tool_version-int", "embedding_location-list", "omega-above-1",
            "omega-negative", "method-empty", "method-unknown"])
    def test_build_meta_rejects_a_wrong_typed_field(self, field, value, problem):
        # an instance exists only if its trailer would read back
        with pytest.raises(ValueError, match=re.escape(f"build metadata: {problem}")):
            make_meta(**{field: value})

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(OSError):
            read_index(tmp_path / "missing.cchk")


class TestEmbeddingDump:
    def test_roundtrip(self, rng, tmp_path):
        psets = [make_pset(rng, doc_id=f"d{i}") for i in range(3)]
        manifest = write_embedding_dump(psets, tmp_path / "dump", location="test-corpus")
        loaded = load_manifest(manifest)
        assert loaded.dim == 8
        assert loaded.location == "test-corpus"
        back = list(ingest_dump(manifest))
        assert [p.doc_id for p in back] == ["d0", "d1", "d2"]
        for orig, got in zip(psets, back):
            assert got.grid == orig.grid
            np.testing.assert_array_equal(
                got.vectors, orig.vectors.astype(np.float32).astype(np.float64)
            )

    def test_duplicate_doc_id_rejected_before_reading_files(self, tmp_path):
        # both entries point at a file that does not exist; the duplicate
        # check must fire first
        manifest = tmp_path / "manifest.json"
        entry = {"doc_id": "d0", "rows": 2, "cols": 2, "n_vectors": 4,
                 "path": "vectors/nope.f32"}
        manifest.write_text(json.dumps({"dim": 8, "entries": [entry, entry]}))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(manifest)

    def test_missing_raw_file_names_doc(self, rng, tmp_path):
        psets = [make_pset(rng, doc_id="keeper")]
        manifest = write_embedding_dump(psets, tmp_path)
        (tmp_path / "vectors" / "keeper.f32").unlink()
        with pytest.raises(ManifestError, match="keeper"):
            load_manifest(manifest)

    def test_size_mismatch_names_doc(self, rng, tmp_path):
        psets = [make_pset(rng, doc_id="short")]
        manifest = write_embedding_dump(psets, tmp_path)
        raw = tmp_path / "vectors" / "short.f32"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(ManifestError, match="short"):
            list(ingest_dump(manifest))

    def test_grid_count_disagreement(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "dim": 8,
            "entries": [{"doc_id": "d", "rows": 2, "cols": 2, "n_vectors": 5,
                         "path": "d.f32"}],
        }))
        with pytest.raises(ManifestError, match="n_vectors"):
            load_manifest(manifest)

    def test_unparseable_json(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(manifest)

    # The empty id breaks the id rule before the file-name rule.
    @pytest.mark.parametrize("bad_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_unsafe_ids_rejected_before_writing(self, rng, tmp_path, bad_id):
        rule = "is empty or holds whitespace" if bad_id == "" else "safe file name"
        psets = [make_pset(rng, doc_id="fine"), make_pset(rng, doc_id=bad_id)]
        with pytest.raises(ValueError, match=rule):
            write_embedding_dump(psets, tmp_path / "dump")
        queries = [QueryEmbeddingSet(query_id=bad_id, dim=8, vectors=rng.normal(size=(2, 8)))]
        with pytest.raises(ValueError, match=rule):
            write_query_dump(queries, tmp_path / "dump")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_doc_ids_rejected_before_writing(self, rng, tmp_path):
        psets = [make_pset(rng, doc_id="same"), make_pset(rng, doc_id="same")]
        with pytest.raises(ValueError, match="duplicate doc_id 'same'"):
            write_embedding_dump(psets, tmp_path / "dump")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_query_ids_rejected_before_writing(self, rng, tmp_path):
        queries = [QueryEmbeddingSet(query_id="same", dim=8, vectors=rng.normal(size=(2, 8)))
                   for _ in range(2)]
        with pytest.raises(ValueError, match="duplicate query_id 'same'"):
            write_query_dump(queries, tmp_path / "dump")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad_path", ["/abs/x.f32", "../x.f32", "vectors/../../x.f32"])
    def test_escaping_paths_rejected(self, tmp_path, bad_path):
        for entry, load in (
            ({"doc_id": "d", "rows": 1, "cols": 1, "n_vectors": 1}, load_manifest),
            ({"query_id": "q", "n_vectors": 1}, lambda m: list(ingest_queries(m))),
        ):
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"dim": 8, "entries": [dict(entry, path=bad_path)]}))
            with pytest.raises(ManifestError, match="leaves the manifest directory"):
                load(manifest)

    def test_nonfinite_vectors_rejected_at_ingest(self, rng, tmp_path):
        psets = [make_pset(rng, doc_id="nan-doc")]
        manifest = write_embedding_dump(psets, tmp_path)
        raw_path = tmp_path / "vectors" / "nan-doc.f32"
        data = np.frombuffer(raw_path.read_bytes(), dtype="<f4").copy()
        data[5] = np.nan
        raw_path.write_bytes(data.astype("<f4").tobytes())
        with pytest.raises(ManifestError, match="nan-doc"):
            list(ingest_dump(manifest))

    def test_zero_norm_vector_rejected_at_ingest(self, rng, tmp_path):
        manifest = write_embedding_dump([make_pset(rng, doc_id="zero-doc")], tmp_path)
        raw_path = tmp_path / "vectors" / "zero-doc.f32"
        data = np.frombuffer(raw_path.read_bytes(), dtype="<f4").copy()
        data[8:16] = 0.0
        raw_path.write_bytes(data.tobytes())
        with pytest.raises(ManifestError, match=r"doc 'zero-doc': vectors\[1\] has zero norm"):
            list(ingest_dump(manifest))


PAGE_ENTRY = {"doc_id": "d", "rows": 2, "cols": 2, "n_vectors": 4, "path": "d.f32"}
QUERY_ENTRY = {"query_id": "q", "n_vectors": 4, "path": "q.f32"}
# Valid JSON of the wrong shape: ``entries`` that is not a list, or a count
# of 1e400, which JSON reads as infinity and int() refuses.
HOSTILE = {
    "entries-int": {"entries": 5},
    "entries-null": {"entries": None},
    "entries-object": {"entries": {"doc_id": "d"}},
    "dim-inf": {"dim": "1e400"},
    "n_vectors-inf": {"n_vectors": "1e400"},
    "rows-inf": {"rows": "1e400"},
    "cols-inf": {"cols": "1e400"},
}


def hostile_manifest(entry: dict, case: str) -> str:
    change = HOSTILE[case]
    top = {"dim": 8, "entries": [dict(entry, **{k: v for k, v in change.items() if k in entry})]}
    top.update({k: v for k, v in change.items() if k in top})
    return json.dumps(top).replace('"1e400"', "1e400")


class TestHostileManifest:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_page_manifest_raises_manifest_error(self, tmp_path, case):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(hostile_manifest(PAGE_ENTRY, case))
        with pytest.raises(ManifestError):
            load_manifest(manifest)

    @pytest.mark.parametrize("case", [c for c in HOSTILE if c not in ("rows-inf", "cols-inf")])
    def test_query_manifest_raises_manifest_error(self, tmp_path, case):
        manifest = tmp_path / "queries.json"
        manifest.write_text(hostile_manifest(QUERY_ENTRY, case))
        with pytest.raises(ManifestError):
            list(ingest_queries(manifest))


class TestManifestIntegers:
    """Counts obey ``check_count``, an integer of at least 1: never truncated or converted."""

    @pytest.mark.parametrize("field,value,problem", [
        ("n_vectors", 2.5, "doc manifest entry 0: n_vectors must be an integer, got 2.5"),
        ("dim", "4", "manifest.json: dim must be an integer, got '4'"),
        ("rows", 2.9, "doc manifest entry 0: rows must be an integer, got 2.9"),
        ("cols", True, "doc manifest entry 0: cols must be an integer, got True"),
        ("n_vectors", 4.0, "doc manifest entry 0: n_vectors must be an integer, got 4.0"),
        ("dim", 0, "manifest.json: dim must be at least 1, got 0"),
        ("rows", -2, "doc manifest entry 0: rows must be at least 1, got -2"),
        ("cols", "2", "doc manifest entry 0: cols must be an integer, got '2'"),
        ("dim", None, "manifest.json: dim must be an integer, got None"),
    ], ids=["n_vectors-2.5", "dim-4", "rows-2.9", "cols-True", "n_vectors-4.0", "dim-0",
            "rows--2", "cols-2", "dim-None"])
    def test_page_manifest_rejects_non_integer_count(self, tmp_path, field, value, problem):
        top = {"dim": 4, "entries": [dict(PAGE_ENTRY)]}
        (top if field == "dim" else top["entries"][0])[field] = value
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(top))
        with pytest.raises(ManifestError, match=re.escape(problem)):
            load_manifest(manifest)

    def test_query_manifest_rejects_fractional_count(self, tmp_path):
        manifest = tmp_path / "queries.json"
        manifest.write_text(json.dumps({"dim": 4, "entries": [dict(QUERY_ENTRY, n_vectors=2.5)]}))
        problem = "query manifest entry 0: n_vectors must be an integer, got 2.5"
        with pytest.raises(ManifestError, match=re.escape(problem)):
            list(ingest_queries(manifest))


class TestManifestStrings:
    """Ids, paths and ``location`` are JSON strings; an id is non-empty, without whitespace."""

    @pytest.fixture
    def dumps(self, tmp_path):
        """A valid one-entry page and query dump: kind -> (entry, manifest path, load)."""
        (tmp_path / "d.f32").write_bytes(np.ones(16, dtype="<f4").tobytes())
        (tmp_path / "q.f32").write_bytes(np.ones(16, dtype="<f4").tobytes())
        return {
            "doc": (PAGE_ENTRY, tmp_path / "manifest.json", load_manifest),
            "query": (QUERY_ENTRY, tmp_path / "queries.json", lambda m: list(ingest_queries(m))),
        }

    def write(self, manifest, entry, **top):
        manifest.write_text(json.dumps({"dim": 4, **top, "entries": [entry]}))
        return manifest

    @pytest.mark.parametrize("kind", ["doc", "query"])
    def test_valid_dump_loads(self, dumps, kind):
        entry, manifest, load = dumps[kind]
        load(self.write(manifest, entry))

    @pytest.mark.parametrize("kind", ["doc", "query"])
    @pytest.mark.parametrize("field,value,problem", [
        ("id", None, "must be a JSON string, got None"),
        ("id", 7, "must be a JSON string, got 7"),
        ("id", {"a": [1]}, "must be a JSON string"),
        ("id", "", "is empty or holds whitespace"),
        ("id", "a b", "'a b' is empty or holds whitespace"),
        ("id", "a\tb", "is empty or holds whitespace"),
        ("id", "a\u3000b", "is empty or holds whitespace"),
        ("path", 5, "must be a JSON string, got 5"),
        ("path", ["d.f32"], "must be a JSON string"),
    ], ids=["id-null", "id-number", "id-object", "id-empty", "id-space", "id-tab",
            "id-ideographic-space", "path-number", "path-list"])
    def test_entry_field_names_entry_and_field(self, dumps, kind, field, value, problem):
        entry, manifest, load = dumps[kind]
        key = f"{kind}_id" if field == "id" else field
        self.write(manifest, dict(entry, **{key: value}))
        with pytest.raises(ManifestError, match=re.escape(f"{kind} manifest entry 0: {key} ")):
            load(manifest)
        with pytest.raises(ManifestError, match=re.escape(problem)):
            load(manifest)

    @pytest.mark.parametrize("value", [3, None, ["synthetic"]])
    def test_non_string_location(self, dumps, value):
        entry, manifest, load = dumps["doc"]
        with pytest.raises(ManifestError, match="location must be a JSON string"):
            load(self.write(manifest, entry, location=value))

    @pytest.mark.parametrize("bad_id", ["a b", "tab\there", "line\n", "\u00a0", 7, None])
    def test_writers_refuse_ids_before_writing(self, rng, tmp_path, bad_id):
        psets = [make_pset(rng, doc_id="fine"), make_pset(rng, doc_id=bad_id)]
        with pytest.raises(ValueError, match="doc dump entry 1: doc_id "):
            write_embedding_dump(psets, tmp_path / "dump")
        queries = [QueryEmbeddingSet(query_id=bad_id, dim=8, vectors=rng.normal(size=(2, 8)))]
        with pytest.raises(ValueError, match="query dump entry 0: query_id "):
            write_query_dump(queries, tmp_path / "dump")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body", [b'{"dim": 4, "entries": []}\xff', b"[" * 100_000,
                                      b'{"dim": ' + b"4" * 5000 + b', "entries": []}'],
                             ids=["not-utf8", "deeply-nested", "over-long-integer"])
    def test_unreadable_manifest_names_file(self, tmp_path, body):
        for name, load in (("manifest.json", load_manifest),
                           ("queries.json", lambda m: list(ingest_queries(m)))):
            manifest = tmp_path / name
            manifest.write_bytes(body)
            with pytest.raises(ManifestError, match=re.escape(str(manifest))):
                load(manifest)


def one_doc_index(doc_id: str, chunks=np.eye(1, 4), sizes=(1,)) -> bytes:
    """An index file image of one dim-4 doc under ``doc_id`` holding a record
    of ``len(chunks)`` chunks and their ``sizes``, however bad."""
    id_bytes = doc_id.encode("utf-8")
    trailer = json.dumps(asdict(make_meta()), sort_keys=True, separators=(",", ":")).encode()
    return (MAGIC + struct.pack("<IIQH", FORMAT_VERSION, 4, 1, len(id_bytes)) + id_bytes
            + struct.pack("<I", len(chunks)) + np.asarray(sizes, dtype="<u4").tobytes()
            + np.asarray(chunks, dtype="<f4").tobytes() + trailer + struct.pack("<Q", len(trailer)))


def id_rule_messages(rng, tmp_path, doc_id) -> dict[str, str]:
    """Entry point -> its error message for one doc under ``doc_id``, each
    entry point raising its own error type."""
    messages = {}

    def catch(name, error, action):
        with pytest.raises(error) as info:
            action()
        assert type(info.value) is error, name
        messages[name] = str(info.value)

    (tmp_path / "d.f32").write_bytes(np.ones(4, dtype="<f4").tobytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"dim": 4, "entries": [dict(PAGE_ENTRY, doc_id=doc_id)]}))
    catch("load_manifest", ManifestError, lambda: load_manifest(manifest))
    catch("write_embedding_dump", ValueError,
          lambda: write_embedding_dump([make_pset(rng, doc_id=doc_id)], tmp_path / "dump"))
    query = QueryEmbeddingSet(query_id=doc_id, dim=4, vectors=np.ones((1, 4)))
    catch("write_query_dump", ValueError, lambda: write_query_dump([query], tmp_path / "dump"))
    doc = CompressedDocument(doc_id=doc_id, k=1, dim=4, chunks=np.eye(1, 4),
                             chunk_sizes=np.array([1]))
    catch("CorpusIndex", ValueError,
          lambda: CorpusIndex(dim=4, docs=(doc,), build_meta=make_meta()))
    if isinstance(doc_id, str):  # an id read from a file is always a string
        (tmp_path / "bad.cchk").write_bytes(one_doc_index(doc_id))
        catch("read_index", IndexFormatError, lambda: read_index(tmp_path / "bad.cchk"))
    return messages


@pytest.mark.parametrize("doc_id", ["a b", "", "a\u3000b", 7],
                         ids=["space", "empty", "ideographic-space", "int"])
def test_one_id_rule_one_message(rng, tmp_path, doc_id):
    messages = id_rule_messages(rng, tmp_path, doc_id)
    assert len(messages) == (5 if isinstance(doc_id, str) else 4)
    rule = (f"{doc_id!r} is empty or holds whitespace" if isinstance(doc_id, str)
            else f"must be a JSON string, got {doc_id!r}")
    for name, message in messages.items():
        field = "query_id" if name == "write_query_dump" else "doc_id"
        assert message.endswith(f": {field} {rule}"), (name, message)


def nan_in_chunk_1():
    chunks = np.eye(2, 4)
    chunks[1, 0] = np.nan
    return chunks


# violation -> (chunks, sizes, message) of one record of doc 'd' in dim 4,
# each breaking one clause of the compressed-document rule
CHUNK_RULE_CASES = {
    "k-0": (np.empty((0, 4)), np.empty(0, dtype=np.int64),
            "doc 'd': k must be at least 1, got 0"),
    "width-3-in-dim-4": (np.eye(2, 3), np.ones(2, dtype=np.int64),
                         "doc 'd': chunks must have shape (2, 4), got (2, 3)"),
    "one-size-for-two-chunks": (np.eye(2, 4), np.ones(1, dtype=np.int64),
                                "doc 'd': sizes must have shape (2,), got (1,)"),
    "column-of-sizes": (np.eye(2, 4), np.ones((2, 1), dtype=np.int64),
                        "doc 'd': sizes must have shape (2,), got (2, 1)"),
    "size-0": (np.eye(2, 4), np.array([1, 0]),
               "doc 'd': chunk 1 must cover at least one patch, got 0"),
    "nan-chunk": (nan_in_chunk_1(), np.ones(2, dtype=np.int64),
                  "doc 'd': chunk 1 is not unit norm (|norm - 1| = nan)"),
    "norm-2-chunk": (np.eye(2, 4) * [[1.0], [2.0]], np.ones(2, dtype=np.int64),
                     "doc 'd': chunk 1 is not unit norm (|norm - 1| = 1)"),
}


@pytest.mark.parametrize("case", list(CHUNK_RULE_CASES))
def test_one_chunk_rule_one_message(tmp_path, case):
    chunks, sizes, message = CHUNK_RULE_CASES[case]
    k = len(chunks)  # declared to CompressedDocument and from_columns; the writer counts rows
    actions = {
        "CompressedDocument": (ValueError, lambda: CompressedDocument(
            doc_id="d", k=k, dim=4, chunks=chunks, chunk_sizes=sizes)),
        "from_columns": (ValueError, lambda: CorpusIndex.from_columns(
            4, ("d",), np.array([0, k]), chunks, sizes, make_meta())),
        "write_records": (ValueError, lambda: write_records(
            tmp_path / "x.cchk", 4, ["d"], make_meta(), [(chunks, sizes)])),
    }
    # A record holds K sizes and K x dim floats, so only a well-shaped one
    # can be put in a file.
    if chunks.shape[1:] == (4,) and sizes.shape == (k,):
        (tmp_path / "bad.cchk").write_bytes(one_doc_index("d", chunks, sizes))
        actions["read_index"] = (IndexFormatError, lambda: read_index(tmp_path / "bad.cchk"))
    assert len(actions) == (3 if "shape" in message else 4)
    for name, (error, action) in actions.items():
        with pytest.raises(error) as info:
            action()
        assert type(info.value) is error, name
        assert str(info.value) == message, name
    assert message.startswith("doc 'd': ")
    # the writer left neither the index nor its temporary file behind
    assert [f.name for f in tmp_path.iterdir()] == (["bad.cchk"] if len(actions) == 4 else [])


class TestQueryDump:
    def test_roundtrip(self, rng, tmp_path):
        queries = [
            QueryEmbeddingSet(query_id=f"q{i}", dim=8,
                              vectors=rng.normal(size=(3 + i, 8)))
            for i in range(2)
        ]
        manifest = write_query_dump(queries, tmp_path)
        back = list(ingest_queries(manifest))
        assert [q.query_id for q in back] == ["q0", "q1"]
        assert [q.n_tokens for q in back] == [3, 4]
        for orig, got in zip(queries, back):
            np.testing.assert_array_equal(
                got.vectors, orig.vectors.astype(np.float32).astype(np.float64)
            )

    def test_parsed_manifest_ingests_as_its_path_does(self, rng, tmp_path):
        queries = [QueryEmbeddingSet(query_id=f"q{i}", dim=8, vectors=rng.normal(size=(2, 8)))
                   for i in range(2)]
        path = write_query_dump(queries, tmp_path)
        manifest = load_query_manifest(path)
        assert [(e.id, e.path, e.grid) for e in manifest.entries] == [
            ("q0", "queries/q0.f32", None), ("q1", "queries/q1.f32", None)]
        by_path, by_manifest = list(ingest_queries(path)), list(ingest_queries(manifest))
        assert [q.query_id for q in by_manifest] == [q.query_id for q in by_path]
        for a, b in zip(by_path, by_manifest):
            assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_missing_query_file(self, rng, tmp_path):
        queries = [QueryEmbeddingSet(query_id="q0", dim=8,
                                     vectors=rng.normal(size=(2, 8)))]
        manifest = write_query_dump(queries, tmp_path)
        (tmp_path / "queries" / "q0.f32").unlink()
        with pytest.raises(ManifestError, match="q0"):
            list(ingest_queries(manifest))
