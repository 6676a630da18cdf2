"""The one output rule: every file colchunk writes goes through ``store.replacing``.

``store.check_output`` refuses a bad output path, a directory, a file in a
missing directory or an input, before any work. A file is replaced only once
its new bytes are complete. A failed write leaves the old file byte-identical
and no temporary file beside it. A symlinked output stays a link whose target
gets the bytes, and a replaced file keeps its permission bits. Any name that
fits the output's directory fits the temporary file too, and a file already at
a temporary name is never written through.
"""

import errno
import itertools
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from colchunk import cli, store
from colchunk.evaluation import Qrels, SyntheticSpec, generate_synthetic
from colchunk.store import (
    BuildMeta,
    CorpusIndex,
    write_embedding_dump,
    write_index,
    write_query_dump,
    write_records,
)
from colchunk.types import CompressedDocument, PatchGrid, QueryEmbeddingSet, unit_rows

from conftest import make_pset

META = BuildMeta(omega=0.2, k_target=4, method="hac_ward", posenc_base=10000.0,
                 tool_version="0.1.0")
SMALL_BENCH = ["bench", "--num-docs", "4", "--num-queries", "2", "--grid-rows", "4",
               "--grid-cols", "4", "--dim", "16", "--signal-patches", "4",
               "--query-tokens", "4"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small synthetic dataset and its K=4 index, outside every test's outputs."""
    root = tmp_path_factory.mktemp("outputs-data")
    spec = SyntheticSpec(num_docs=4, num_queries=2, grid=PatchGrid(rows=4, cols=4), dim=16,
                         signal_patches=4, noise_sigma=0.3, seed=9, query_tokens=4)
    data = generate_synthetic(spec, root)
    index = root / "corpus.cchk"
    assert cli.main(["compress", str(data.doc_manifest), str(index), "--k", "4"]) == 0
    return data, index


def corpus(version: int) -> CorpusIndex:
    rng = np.random.default_rng(version)
    docs = [CompressedDocument(doc_id=f"d{i}", k=4, dim=8, chunk_sizes=[1] * 4,
                               chunks=unit_rows(rng.normal(size=(4, 8))).astype(np.float32))
            for i in range(3)]
    return CorpusIndex(dim=8, docs=docs, build_meta=META)


def records(out, version: int) -> None:
    index = corpus(version)
    bounds = index.offsets.tolist()
    rows = ((index.chunks[lo:hi], index.sizes[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    write_records(out, index.dim, index.ids, META, rows)


def main(argv) -> None:
    """``cli.main``, an exit code other than 0 raised as SystemExit."""
    if code := cli.main([str(arg) for arg in argv]):
        raise SystemExit(code)


# name -> write(dataset, output path, version): one writer of one file each,
# its bytes a function of ``version`` (bench's bar ``wall_ms``, see ``stable``).
FILE_WRITERS = {
    "write_records": lambda data, out, v: records(out, v),
    "qrels-to-file": lambda data, out, v: Qrels({"q": {"d": 1 + v}, "r": {"e": 2}}).to_file(out),
    "compress": lambda data, out, v: main(["compress", data[0].doc_manifest, out, "--k", 2 + v]),
    "query-out": lambda data, out, v: main(["query", data[1], data[0].query_manifest,
                                            "--top-k", 1 + v, "--out", out]),
    "bench-out": lambda data, out, v: main([*SMALL_BENCH, "--sweep-k", 2 + v, "--out", out]),
}


def stable(case: str, blob: bytes) -> bytes:
    """The bytes two runs of one writer share: a bench CSV less its ``wall_ms`` column."""
    if case != "bench-out":
        return blob
    return b"\n".join(line.rpartition(b",")[0] for line in blob.splitlines())


def leftovers(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


@pytest.mark.parametrize("case", list(FILE_WRITERS))
def test_a_255_byte_name_is_written(dataset, tmp_path, capsys, case):
    # the temporary name once added 13 bytes to the target's, so compress
    # failed with 'File name too long' on a name its directory accepts
    write = FILE_WRITERS[case]
    short, long = tmp_path / "out.x", tmp_path / ("n" * 253 + ".x")
    write(dataset, short, 0)
    write(dataset, long, 0)
    capsys.readouterr()
    assert stable(case, long.read_bytes()) == stable(case, short.read_bytes())
    assert leftovers(tmp_path) == []


@pytest.mark.parametrize("case", list(FILE_WRITERS))
def test_a_symlinked_output_stays_a_link(dataset, tmp_path, capsys, case):
    # a symlinked INDEX was once replaced by a regular file, its target left
    # holding the old bytes, while a symlinked --out was written through
    write = FILE_WRITERS[case]
    target, link, direct = tmp_path / "target", tmp_path / "link", tmp_path / "direct"
    target.write_bytes(b"old bytes\n")
    link.symlink_to(target)
    write(dataset, link, 0)
    write(dataset, direct, 0)
    capsys.readouterr()
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert stable(case, target.read_bytes()) == stable(case, direct.read_bytes())
    assert leftovers(tmp_path) == []


class Faulty:
    """A write handle whose first write stores half its bytes, then raises ``fault``."""

    def __init__(self, fh, fault):
        self.fh, self.fault = fh, fault

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        part = data if isinstance(data, str) else memoryview(data).cast("B")
        self.fh.write(part[: len(part) // 2])
        self.fh.flush()
        raise self.fault

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def pages(version: int):
    rng = np.random.default_rng(version)
    return [make_pset(rng, doc_id=f"p{i}") for i in range(3)]


def queries(version: int):
    rng = np.random.default_rng(version)
    return [QueryEmbeddingSet(f"q{i}", 8, rng.normal(size=(2, 8))) for i in range(3)]


# name -> (write(dataset, destination directory, version), the subdirectory of
# the destination whose first handle fails). Every writer's new bytes differ
# from its old ones; the dump's manifest row changes only its location, so its
# raw files, replaced before the manifest fails, keep their bytes.
WRITERS = {
    **{case: (lambda data, dest, v, write=write: write(data, dest / "out.x", v), ".")
       for case, write in FILE_WRITERS.items()},
    "write_index": (lambda data, dest, v: write_index(corpus(v), dest / "out.x"), "."),
    "embedding-dump-raw-file": (lambda data, dest, v: write_embedding_dump(pages(v), dest),
                                "vectors"),
    "embedding-dump-manifest": (
        lambda data, dest, v: write_embedding_dump(pages(0), dest, location=f"v{v}"), "."),
    "query-dump-raw-file": (lambda data, dest, v: write_query_dump(queries(v), dest), "queries"),
}


def tree(root: Path) -> dict:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                   KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
@pytest.mark.parametrize("case", list(WRITERS))
def test_a_failure_mid_write_leaves_the_old_file(dataset, tmp_path, monkeypatch, capsys, case,
                                                 fault):
    write, where = WRITERS[case]
    dest = tmp_path / "dest"
    dest.mkdir()
    write(dataset, dest, 0)
    before = tree(dest)
    failing = (dest / where).resolve()
    faulted = []

    def faulty_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if ("w" in mode or "x" in mode) and Path(file).parent == failing and not faulted:
            faulted.append(Path(file).name)
            return Faulty(fh, fault)
        return fh

    monkeypatch.setattr(store, "open", faulty_open, raising=False)
    capsys.readouterr()
    with pytest.raises((type(fault), SystemExit)) as raised:
        write(dataset, dest, 1)
    if isinstance(raised.value, SystemExit):  # the CLI's one error line, exit 1
        assert raised.value.code == 1
        assert capsys.readouterr().err == f"error: {fault}\n"
    assert len(faulted) == 1 and faulted[0].startswith(".colchunk.")
    assert tree(dest) == before
    assert leftovers(tmp_path) == []
    monkeypatch.undo()
    write(dataset, dest, 1)  # the write the fault stopped changes the destination
    assert tree(dest) != before


@pytest.mark.parametrize("case, mode", [("query-out", 0o600), ("compress", 0o640)],
                         ids=["query-out-0600", "compress-0640"])
def test_a_replaced_output_keeps_its_mode(dataset, tmp_path, capsys, case, mode):
    # a replaced run file once came back 0644: the new inode took the umask's mode
    write, out, fresh = FILE_WRITERS[case], tmp_path / "out.x", tmp_path / "fresh"
    fresh.touch()
    write(dataset, out, 0)
    assert out.stat().st_mode == fresh.stat().st_mode  # a new file's mode is open()'s
    out.chmod(mode)
    before = out.read_bytes()
    write(dataset, out, 1)
    capsys.readouterr()
    assert out.read_bytes() != before
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert leftovers(tmp_path) == []


def test_a_link_planted_at_the_temporary_name_is_not_written_through(tmp_path, monkeypatch):
    # the temporary name is predictable, and was once opened through such a
    # link: its target got the bytes, and out.txt became a link to it
    victim, out = tmp_path / "victim.txt", tmp_path / "out.txt"
    victim.write_text("victim\n")
    monkeypatch.setattr(store, "_TEMP_SERIAL", itertools.count(7))
    (tmp_path / f".colchunk.{os.getpid()}.7.tmp").symlink_to(victim)
    with store.replacing(out) as fh:
        fh.write("payload\n")
    assert victim.read_text() == "victim\n"
    assert not out.is_symlink() and out.read_text() == "payload\n"


# name -> (the output path under a root that holds data/in.txt, the one input, a
# link "alias" to it and a link "dangling" into nodir/, which does not exist; the
# error after the label), ``{real}`` standing for the root's real path.
CHECK_OUTPUT_CASES = {
    "a-directory": (lambda root: root / "data", "{path} is a directory"),
    "a-missing-directory": (lambda root: root / "nodir" / "x.txt",
                            "{path}: directory {root}/nodir does not exist"),
    "a-trailing-separator": (lambda root: f"{root}/nodir/",
                             "{path}: directory {root}/nodir does not exist"),
    "a-dangling-symlink": (lambda root: root / "dangling",
                           "{path}: directory {real}/nodir does not exist"),
    "an-input-by-another-spelling": (lambda root: root / "data" / ".." / "data" / "in.txt",
                                     "{path} names an input, which it would overwrite"),
    "a-symlink-to-an-input": (lambda root: root / "alias",
                              "{path} names an input, which it would overwrite"),
}


@pytest.mark.parametrize("case", list(CHECK_OUTPUT_CASES))
def test_check_output_refuses_a_bad_output(tmp_path, case):
    spell, error = CHECK_OUTPUT_CASES[case]
    source = tmp_path / "data" / "in.txt"
    source.parent.mkdir()
    source.write_text("input\n")
    (tmp_path / "alias").symlink_to(source)
    (tmp_path / "dangling").symlink_to(Path("nodir") / "x.txt")
    path = spell(tmp_path)
    with pytest.raises(ValueError) as raised:
        store.check_output(path, "out:", [source])
    assert str(raised.value) == "out: " + error.format(path=path, root=tmp_path,
                                                       real=tmp_path.resolve())


def test_check_output_returns_the_file_replacing_writes(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    link.symlink_to(target.name)
    assert store.check_output(tmp_path / "new.txt", "out") == str(tmp_path.resolve() / "new.txt")
    assert store.check_output(link, "out", [tmp_path / "other"]) == str(target.resolve())


def spied_rows(drawn: list):
    """``corpus(0)``'s records, each noted in ``drawn`` as it is taken."""
    index = corpus(0)
    bounds = index.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        drawn.append(lo)
        yield index.chunks[lo:hi], index.sizes[lo:hi]


# name -> (write(destination directory, output name, records drawn), its
# output name): each library writer, whose first output is that file.
LIBRARY_WRITERS = {
    "write_records": (lambda dest, name, drawn: write_records(
        dest / name, 8, corpus(0).ids, META, spied_rows(drawn)), "out.x"),
    "write_index": (lambda dest, name, drawn: write_index(corpus(0), dest / name), "out.x"),
    "qrels-to-file": (lambda dest, name, drawn: Qrels({"q": {"d": 1}}).to_file(dest / name),
                      "out.x"),
    "embedding-dump": (lambda dest, name, drawn: write_embedding_dump(pages(0), dest),
                       "manifest.json"),
    "query-dump": (lambda dest, name, drawn: write_query_dump(queries(0), dest), "queries.json"),
}


# name -> (make the bad output at ``out``, the error after its path)
BAD_OUTPUTS = {
    "directory": (lambda out: out.mkdir(), " is a directory"),
    "dangling-link": (lambda out: out.symlink_to(Path("nodir") / "x"),
                      ": directory {nodir} does not exist"),
}


@pytest.mark.parametrize("bad", list(BAD_OUTPUTS))
@pytest.mark.parametrize("case", list(LIBRARY_WRITERS))
def test_a_library_writer_refuses_a_bad_output_before_any_work(tmp_path, case, bad):
    # write_records once drew every record before its rename onto a directory
    # failed, and a missing directory failed naming its temporary file; a dump
    # once wrote its raw files before its manifest failed
    write, name = LIBRARY_WRITERS[case]
    make, error = BAD_OUTPUTS[bad]
    dest = tmp_path / "dest"
    dest.mkdir()
    make(dest / name)
    drawn = []
    error = f"{dest / name}{error.format(nodir=dest.resolve() / 'nodir')}"
    with pytest.raises(ValueError, match=re.escape(error)):
        write(dest, name, drawn)
    assert drawn == []
    assert list(dest.rglob("*")) == [dest / name]  # no vectors/ or queries/ made either
    assert leftovers(tmp_path) == []


@pytest.mark.parametrize("case", ["write_records", "write_index", "qrels-to-file"])
def test_a_library_writer_refuses_a_missing_directory_before_any_work(tmp_path, case):
    write, _ = LIBRARY_WRITERS[case]
    drawn = []
    error = f"output {tmp_path / 'nodir' / 'out.x'}: directory {tmp_path / 'nodir'} does not exist"
    with pytest.raises(ValueError, match=re.escape(error)):
        write(tmp_path, Path("nodir") / "out.x", drawn)
    assert drawn == []
    assert list(tmp_path.iterdir()) == []
