"""Spans around the program's public functions, recorded from outside.

A target is named ``module.function`` and resolved by name when tracing
starts. Its wrapper replaces every attribute of every loaded ``colchunk``
module that is bound to the same function object, so calls made through
``from .x import f`` are seen too. A target that no longer exists is listed
as absent and its metrics are reported as ``None``, never as zero.

Spans live in memory: ``[name, start, end, parent index, thread id]``. A span
opened on a worker thread with nothing open on that thread takes the
innermost span open on the tracing thread as its parent, so pages compressed
by a thread pool are children of the ``compress_many`` call that fanned them
out.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import statistics
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "colchunk"


def _hac_facts(bound, result):
    feats = bound["feats"]
    digest = hashlib.blake2b(feats.vectors.tobytes(), digest_size=16).hexdigest()
    return {"merges": len(result[1]), "input": (float(feats.omega), digest)}


def _retrieve_facts(bound, result):
    tokens, dim = bound["query"].vectors.shape
    index = bound["index"]
    docs = index.docs if hasattr(index, "docs") else index
    chunks = sum(doc.chunks.shape[0] for doc in docs)
    return {"sims": tokens * chunks, "bytes": (chunks + tokens) * dim * 8}


def _file_facts(arg):
    return lambda bound, result: {"bytes": os.path.getsize(bound[arg])}


# Target -> observer computing counts from the call's arguments and result.
# Observers run after the span has closed.
TARGETS = {
    "cli.main": None,
    "evaluation.run_ablation": None,
    "evaluation.evaluate_run": None,
    "chunker.compress_many": None,
    "chunker.compress": None,
    "chunker.fuse": None,
    "posenc.encode_batch": None,
    "chunker.cluster_hac": _hac_facts,
    "chunker.cluster_kmeans": None,
    "chunker.pool": None,
    "store.ingest_dump": None,
    "store.write_index": _file_facts("path"),
    "store.read_index": _file_facts("path"),
    "scorer.retrieve": _retrieve_facts,
    "scorer.maxsim": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.facts: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        self.observer_errors: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []

    def install(self, targets=TARGETS) -> None:
        self._local.stack = self._root_stack
        self.absent = []
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for target, observe in targets.items():
            mod_name, _, fn_name = target.rpartition(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    @contextmanager
    def _span(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        root = self._root_stack
        parent = stack[-1] if stack else (root[-1] if root else None)
        rec = [name, 0.0, 0.0, parent, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = perf_counter()
        try:
            yield idx
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn, observe):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name) as idx:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.facts[name].append((idx, observe(bound, result)))
                except Exception:  # a reshaped signature or result: count, keep tracing
                    self.observer_errors[name] += 1
            if inspect.isgenerator(result):
                return self._iterate(name, result)
            return result

        return wrapper

    def _iterate(self, name, gen):
        """Time each resumption of a generator the program returned."""
        while True:
            with self._span(name):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item


def _self_ms(spans, children, i) -> float:
    """Span duration minus the part of it that its children cover."""
    _, start, end, _, _ = spans[i]
    covered, reach = 0.0, start
    for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start - covered) * 1000.0


def layer_metrics(tracer: Tracer, degenerate_fallbacks: int, overhead_pct: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``; ``None`` marks an absent target."""
    spans = tracer.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            children[parent].append(i)

    def dur_ms(i):
        return (spans[i][2] - spans[i][1]) * 1000.0

    def busy(t):
        return sum(dur_ms(i) for i in by_name[t])

    def calls(t):
        return len(by_name[t])

    def per_call(t):
        return statistics.median(dur_ms(i) for i in by_name[t]) if by_name[t] else 0.0

    def self_ms(t):
        return sum(_self_ms(spans, children, i) for i in by_name[t])

    def fact_sum(t, key):
        if tracer.observer_errors[t]:
            return None
        return sum(f[key] for _, f in tracer.facts[t])

    def ratio(num, den):
        if num is None:
            return None
        return num / den if den else 0.0

    # compress_many: pages each call fanned out, and the threads that ran them.
    fanned_busy = fanned_capacity = 0.0
    threads_used = 0
    for i in by_name["chunker.compress_many"]:
        pages = [c for c in children[i] if spans[c][0] == "chunker.compress"]
        n_threads = len({spans[c][4] for c in pages})
        threads_used = max(threads_used, n_threads)
        fanned_busy += sum(dur_ms(c) for c in pages)
        fanned_capacity += dur_ms(i) * n_threads

    def root(i):
        while spans[i][3] is not None:
            i = spans[i][3]
        return i

    # Distinct (page, omega) inputs within each top-level call, so that
    # separate runs of one command over the same pages are not counted as
    # repeats.
    hac_inputs = {(root(i), f["input"]) for i, f in tracer.facts["chunker.cluster_hac"]}
    hac = "chunker.cluster_hac"
    metrics = {
        f"{hac}.busy_ms": (busy(hac), "ms"),
        f"{hac}.ms_per_call": (per_call(hac), "ms"),
        f"{hac}.calls": (calls(hac), "count"),
        f"{hac}.merges": (fact_sum(hac, "merges"), "count"),
        f"{hac}.repeat_ratio": (
            None if tracer.observer_errors[hac] else ratio(calls(hac), len(hac_inputs)),
            "ratio",
        ),
        "chunker.compress_many.busy_ms": (busy("chunker.compress_many"), "ms"),
        "chunker.compress_many.threads": (threads_used, "count"),
        "chunker.compress_many.parallel_efficiency": (ratio(fanned_busy, fanned_capacity), "ratio"),
        "chunker.compress.busy_ms": (busy("chunker.compress"), "ms"),
        "chunker.compress.ms_per_call": (per_call("chunker.compress"), "ms"),
        "chunker.fuse.busy_ms": (busy("chunker.fuse"), "ms"),
        "chunker.fuse.ms_per_call": (per_call("chunker.fuse"), "ms"),
        "posenc.encode_batch.busy_ms": (busy("posenc.encode_batch"), "ms"),
        "chunker.pool.busy_ms": (busy("chunker.pool"), "ms"),
        "chunker.pool.ms_per_call": (per_call("chunker.pool"), "ms"),
        "chunker.pool.degenerate_fallbacks": (degenerate_fallbacks, "count"),
        "chunker.cluster_kmeans.busy_ms": (busy("chunker.cluster_kmeans"), "ms"),
        "store.read_index.busy_ms": (busy("store.read_index"), "ms"),
        "store.read_index.mb_per_s": (
            ratio(fact_sum("store.read_index", "bytes"), busy("store.read_index") * 1000.0),
            "MB/s",
        ),
        "store.ingest_dump.busy_ms": (busy("store.ingest_dump"), "ms"),
        "store.write_index.busy_ms": (busy("store.write_index"), "ms"),
        "store.write_index.bytes": (fact_sum("store.write_index", "bytes"), "bytes"),
        "scorer.retrieve.busy_ms": (busy("scorer.retrieve"), "ms"),
        "scorer.retrieve.self_ms": (self_ms("scorer.retrieve"), "ms"),
        "scorer.retrieve.calls": (calls("scorer.retrieve"), "count"),
        "scorer.retrieve.sims_per_s": (
            ratio(fact_sum("scorer.retrieve", "sims"), busy("scorer.retrieve") / 1000.0),
            "1/s",
        ),
        "scorer.retrieve.bytes_touched": (fact_sum("scorer.retrieve", "bytes"), "bytes"),
        "scorer.maxsim.calls": (calls("scorer.maxsim"), "count"),
        "scorer.maxsim.busy_ms": (busy("scorer.maxsim"), "ms"),
        "evaluation.run_ablation.self_ms": (self_ms("evaluation.run_ablation"), "ms"),
        "evaluation.evaluate_run.busy_ms": (busy("evaluation.evaluate_run"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "trace_overhead_pct": (overhead_pct, "%"),
    }
    # Metrics derived from another target's spans go absent with it.
    derived = {"chunker.compress": ("chunker.compress_many.threads",
                                    "chunker.compress_many.parallel_efficiency")}
    for target in tracer.absent:
        for name in metrics:
            if name.startswith(target + ".") or name in derived.get(target, ()):
                metrics[name] = (None, metrics[name][1])
    return metrics
