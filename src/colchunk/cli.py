"""Command-line interface: compress, query, eval, bench.

``compress`` reads, compresses and writes one page at a time, so it holds
one page's vectors however long the dump. Each command refuses a bad output
path by ``store.check_output`` before any work (``bench`` makes its ``--workdir``,
so an output under it is checked once that exists). Every output goes through
``store.replacing``, entered before the work and replaced only on success.

Exit codes: 0 on success, 1 on data or runtime errors, 2 on usage errors
(argparse's own convention). Every command runs on one thread: the work is
short numpy calls that hold the GIL, and more threads made compress slower
on a 2-vCPU host. ``compress``, ``query`` and ``bench`` still accept
``--threads N`` (a positive integer) so existing scripts keep working, and
ignore it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from . import __version__, chunker
from .chunker import METHODS, ChunkerConfig
from .evaluation import (
    NDCG_CUTOFF,
    EvalInputError,
    Qrels,
    SweepSpec,
    SyntheticSpec,
    evaluate_run,
    generate_synthetic,
    read_run,
    rows_to_csv,
    run_ablation,
    write_run,
)
from .scorer import retrieve_many
from .store import (
    BuildMeta,
    IndexFormatError,
    ManifestError,
    check_output,
    ingest_dump,
    ingest_queries,
    load_manifest,
    load_query_manifest,
    read_index,
    replacing,
    write_records,
)
from .types import PatchGrid, check_decimal, check_id, check_omega

METHOD_ALIASES = {"hac": ChunkerConfig.method, **{name: name for name in METHODS}}

# ``eval`` names at most this many judged queries that the run leaves out.
MISSING_SHOWN = 5

THREADS_HELP = "accepted for compatibility and has no effect: everything runs on one thread"


def _decimal(parse, expected: str):
    """An argparse type: ``parse`` of text that obeys ``types.check_decimal``. So
    ``--k 1_0`` is a usage error, and ``--seed -1`` parses for its rule to refuse."""
    def read(text: str):
        try:
            return check_decimal(text, "flag", parse)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r:.40}")
    return read


_int = _decimal(int, "an integer")
_number = _decimal(float, "a number")


def _positive_int(text: str) -> int:
    if (value := _int(text)) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r:.40}")
    return value


def _unit_float(text: str) -> float:
    try:
        return check_omega(_number(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _method(text: str) -> str:
    name = text.strip()
    if name not in METHOD_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown method {name!r} (choose from "
                                         f"{', '.join(map(repr, sorted(METHOD_ALIASES)))})")
    return METHOD_ALIASES[name]


def _comma_list(parse):
    """An argparse type: comma-separated values, each read by ``parse``, blanks skipped."""
    return lambda text: tuple(parse(part) for part in text.split(",") if part.strip())


def _output(path, name: str, inputs):
    """Stdout if ``path`` is empty, else its handle through ``replacing`` once checked."""
    return replacing(check_output(path, name, inputs)) if path else nullcontext(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colchunk",
        description="Compress patch-embedding dumps into chunk indexes and query them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="build a chunk index from an embedding dump")
    p_compress.add_argument("manifest", help="embedding dump manifest (JSON)")
    p_compress.add_argument("index", help="output index file")
    p_compress.add_argument(
        "--k", type=_positive_int, default=ChunkerConfig.k, help="chunks per page"
    )
    p_compress.add_argument(
        "--omega", type=_unit_float, default=ChunkerConfig.omega, help="positional weight"
    )
    p_compress.add_argument(
        "--method", type=_method, default=ChunkerConfig.method, help="clustering method"
    )
    p_compress.add_argument("--seed", type=_int, default=ChunkerConfig.seed, help="k-means seed")
    p_compress.add_argument("--threads", type=_positive_int, help=THREADS_HELP)
    p_compress.set_defaults(handler=cmd_compress)

    p_query = sub.add_parser("query", help="run queries against an index")
    p_query.add_argument("index", help="index file")
    p_query.add_argument("queries", help="query dump manifest (JSON)")
    p_query.add_argument("--top-k", type=_positive_int, default=10)
    p_query.add_argument("--out", default=None, help="run file path (default: stdout)")
    p_query.add_argument("--run-tag", default="colchunk")
    p_query.add_argument("--threads", type=_positive_int, help=THREADS_HELP)
    p_query.set_defaults(handler=cmd_query)

    p_eval = sub.add_parser("eval", help="score a run file against qrels")
    p_eval.add_argument("run", help="TREC run file")
    p_eval.add_argument("qrels", help="TREC qrels file")
    p_eval.add_argument("--k", type=_positive_int, default=NDCG_CUTOFF, help="nDCG cutoff")
    p_eval.set_defaults(handler=cmd_eval)

    p_bench = sub.add_parser("bench", help="synthetic benchmark plus ablation table")
    p_bench.add_argument("--num-docs", type=_positive_int, default=100)
    p_bench.add_argument("--num-queries", type=_positive_int, default=20)
    p_bench.add_argument("--grid-rows", type=_positive_int, default=32)
    p_bench.add_argument("--grid-cols", type=_positive_int, default=24)
    p_bench.add_argument("--dim", type=_positive_int, default=128)
    p_bench.add_argument(
        "--signal-patches", type=_positive_int, default=SyntheticSpec.signal_patches
    )
    p_bench.add_argument("--noise-sigma", type=_number, default=SyntheticSpec.noise_sigma)
    p_bench.add_argument("--query-tokens", type=_positive_int, default=SyntheticSpec.query_tokens)
    p_bench.add_argument("--seed", type=_int, default=SyntheticSpec.seed)
    p_bench.add_argument("--sweep-k", type=_comma_list(_positive_int), default=())
    p_bench.add_argument("--sweep-omega", type=_comma_list(_unit_float), default=())
    p_bench.add_argument("--methods", type=_comma_list(_method), default=())
    p_bench.add_argument(
        "--k", type=_positive_int, default=SweepSpec.base_k, help="base k for sweeps"
    )
    p_bench.add_argument(
        "--omega", type=_unit_float, default=SweepSpec.base_omega, help="base omega for sweeps"
    )
    p_bench.add_argument("--workdir", default=None, help="keep generated dumps here")
    p_bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_bench.add_argument("--threads", type=_positive_int, help=THREADS_HELP)
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def cmd_compress(args) -> int:
    cfg = ChunkerConfig(args.k, args.omega, args.method, args.seed)
    manifest = load_manifest(args.manifest)
    check_output(args.index, "compress: INDEX", [args.manifest, *manifest.files()])
    if not manifest.entries:
        raise ManifestError("the dump manifest lists no documents")
    # One page in memory at a time: each page is read, compressed and
    # written before the next is read. The writer checks every id first.
    docs = (chunker.compress(pset, cfg) for pset in ingest_dump(manifest))
    ids = [entry.id for entry in manifest.entries]
    meta = BuildMeta.for_config(cfg, manifest.location)
    total_out = write_records(
        args.index, manifest.dim, ids, meta, ((doc.chunks, doc.chunk_sizes) for doc in docs)
    )
    total_in = sum(entry.n_vectors for entry in manifest.entries)
    payload_out = total_out * manifest.dim * 4
    payload_in = total_in * manifest.dim * 4
    reduction = 100.0 * (1.0 - total_out / total_in)
    print(f"docs: {len(ids)}")
    print(f"mean patch vectors per doc: {total_in / len(ids):.1f}")
    print(f"mean chunks per doc: {total_out / len(ids):.1f}")
    print(f"vector payload: {payload_out} bytes (raw dump payload: {payload_in})")
    print(f"vector-count reduction: {reduction:.1f}%")
    print(f"index written: {args.index} ({Path(args.index).stat().st_size} bytes)")
    return 0


def cmd_query(args) -> int:
    # Refused before any work, so no run file is left behind.
    check_id(args.run_tag, "query: --run-tag")
    manifest = load_query_manifest(args.queries)
    with _output(args.out, "query: --out", [args.index, args.queries, *manifest.files()]) as fh:
        index = read_index(args.index)
        queries = list(ingest_queries(manifest))
        if not queries:
            raise ManifestError("the query manifest lists no queries")
        hits = retrieve_many(queries, index, top_k=args.top_k)
        write_run({q.query_id: h for q, h in zip(queries, hits)}, fh, run_tag=args.run_tag)
    return 0


def cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = Qrels.from_file(args.qrels)
    if not run:
        raise EvalInputError("the run file is empty")
    per_query, mean = evaluate_run({qid: run[qid] for qid in sorted(run)}, qrels, args.k)
    print(f"query_id,ndcg_at_{args.k}")
    for qid, value in per_query.items():
        print(f"{qid},{value:.6f}")
    print(f"all,{mean:.6f}")
    missing = [
        qid for qid in qrels.queries()
        if qid not in run and any(grade > 0 for grade in qrels.judged(qid).values())
    ]
    if missing:
        shown = ", ".join(missing[:MISSING_SHOWN])
        if len(missing) > MISSING_SHOWN:
            shown += ", ..."
        print(
            f"warning: {len(missing)} judged queries have no results in the run "
            f"and are not scored: {shown}",
            file=sys.stderr,
        )
    return 0


def cmd_bench(args) -> int:
    made = args.workdir and os.path.join(os.path.realpath(args.workdir), "")
    if args.out and not (made and os.path.realpath(args.out).startswith(made)):
        check_output(args.out, "bench: --out")
    spec = SyntheticSpec(
        num_docs=args.num_docs,
        num_queries=args.num_queries,
        grid=PatchGrid(rows=args.grid_rows, cols=args.grid_cols),
        dim=args.dim,
        signal_patches=args.signal_patches,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        query_tokens=args.query_tokens,
    )
    sweep = SweepSpec(
        k_values=args.sweep_k,
        omega_values=args.sweep_omega,
        methods=args.methods,
        base_k=args.k,
        base_omega=args.omega,
        seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.workdir) if args.workdir else Path(tmp)
        dataset = generate_synthetic(spec, workdir)
        doc_manifest = load_manifest(dataset.doc_manifest)
        query_manifest = load_query_manifest(dataset.query_manifest)
        inputs = [dataset.doc_manifest, dataset.query_manifest, dataset.qrels_path,
                  *doc_manifest.files(), *query_manifest.files()]
        with _output(args.out, "bench: --out", inputs) as fh:
            docs = list(ingest_dump(doc_manifest))
            queries = list(ingest_queries(query_manifest))
            qrels = Qrels.from_file(dataset.qrels_path)
            rows_to_csv(run_ablation(docs, queries, qrels, sweep), fh)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (IndexFormatError, ManifestError, EvalInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
