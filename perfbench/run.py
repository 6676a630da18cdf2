"""Benchmark of colchunk: ``build``, ``serve`` and ``sweep`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the machine
and shape record and the workload's own named figures. The exit code is 0
when every output check passed, 1 when one failed, and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def load_program():
    """Import colchunk from ``src/`` of this checkout, or return None."""
    pkg = ROOT / "src" / "colchunk"
    if not (pkg / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import colchunk
    import colchunk.cli
    import colchunk.evaluation

    if Path(colchunk.__file__).resolve().parent != pkg.resolve():
        return None
    return colchunk


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = sorted(
        (_read(f"{d}/level"), _read(f"{d}/size"))
        for d in map(str, Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    )
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    head = _read(ROOT / ".git" / "HEAD")
    commit = _read(ROOT / ".git" / head[5:]) if head.startswith("ref: ") else head
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": caches[-1][1] if caches else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("COLCHUNK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(cc, wl, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure (twice when traced: plain, then traced) and check."""
    from perfbench.spans import Tracer, layer_metrics
    from perfbench.workloads import timed_loop

    def setup_once():
        t0 = perf_counter()
        wl.setup()
        return {"setup": [(perf_counter() - t0) * 1000.0]}

    tracer = Tracer() if trace else None
    caught = warnings.catch_warnings(record=True) if trace else contextlib.nullcontext([])
    with caught as recorded:
        if trace:
            warnings.simplefilter("always")
            tracer.install()
        setup = timed_loop(0.0, wl.size.setups, setup_once)
        if trace:
            tracer.uninstall()
            wl.measure(seconds / 2)
            plain_ms = wl.unit_ms()
            tracer.install()
            try:
                wl.measure(seconds / 2)
            finally:
                tracer.uninstall()
            overhead_pct = (wl.unit_ms() / plain_ms - 1.0) * 100.0
        else:
            wl.measure(seconds)
    wl.check()
    extra = {"timings": wl.timing_detail(setup)}
    if trace:
        fallbacks = sum(
            1 for w in recorded
            if issubclass(w.category, RuntimeWarning) and "degenerate" in str(w.message)
        )
        metrics = layer_metrics(tracer, fallbacks, overhead_pct)
        extra.update(absent=tracer.absent, observer_errors=dict(tracer.observer_errors))
    else:
        metrics = wl.end_to_end(setup)
    return metrics, extra


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "serve", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cc = load_program()
    if cc is None:
        print(f"error: no colchunk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    cls, size_cls = WORKLOADS[args.workload]
    size = (sizes or {}).get(args.workload) or size_cls()
    WORKDIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    wl = cls(cc, size, args.seed, work)
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(args.seed)}
    metrics = {}
    try:
        metrics, extra = run_workload(cc, wl, args.seconds, bool(args.trace))
        detail.update(wl.detail(), **extra)
    except Exception:  # the program raised: report the run as failed, not as a crash
        traceback.print_exc()
        wl.fail("the workload raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    attempted = max(wl.attempted, len(wl.failures), 1)
    detail["failed_ratio"] = len(wl.failures) / attempted
    detail["failures"] = wl.failures[:20]
    result = {
        "correct": not wl.failures,
        "attempted": attempted,
        "failed": len(wl.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as a package, never shadowing stdlib names
    sys.exit(main())
