"""Self-test of the benchmark harness at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that each workload completes in both modes and emits exactly the
metrics BENCHMARK.json lists, with valid names and numeric values; that the
traced counts show the workload split; and that a deliberately wrong
expected output makes each workload fail with exit code 1.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int) -> tuple[int, dict, dict]:
    from perfbench import run as bench
    from perfbench.workloads import TINY

    out = io.StringIO()
    with redirect_stdout(out):
        rc = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace)], sizes=TINY)
    detail, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return rc, detail["detail"], result


def expect(cond: bool, message: str, problems: list) -> None:
    if not cond:
        problems.append(message)
        print("FAIL", message)


def main() -> int:
    from perfbench import data

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems: list[str] = []
    for name in wanted[0] + wanted[1] + [w["name"] for w in spec["workloads"]]:
        expect(bool(NAME.fullmatch(name)), f"bad metric or workload name {name!r}", problems)
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, detail, result = run(w["name"], trace)
            tag = f"{w['name']} trace={trace}"
            expect(rc == 0 and result["correct"], f"{tag}: exit {rc}, {detail['failures']}", problems)
            expect(sorted(result["metrics"]) == sorted(wanted[trace]), f"{tag}: metric names differ", problems)
            for metric, v in result["metrics"].items():
                ok = isinstance(v["value"], (int, float)) and (trace or v["value"] > 0)
                expect(ok, f"{tag}: {metric} = {v['value']}", problems)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                hac_calls, ratio = m["chunker.cluster_hac.calls"], m["chunker.cluster_hac.repeat_ratio"]
                if w["name"] == "serve":
                    docs = detail["shape"]["docs"]
                    expect(hac_calls == 0, f"{tag}: HAC ran {hac_calls} times", problems)
                    expect(m["scorer.maxsim.calls"] == docs * m["scorer.retrieve.calls"],
                           f"{tag}: maxsim calls != docs x retrieve calls", problems)
                else:
                    expect(hac_calls > 0, f"{tag}: HAC never ran", problems)
                    want = (lambda r: r == 1.0) if w["name"] == "build" else (lambda r: r > 1.0)
                    expect(want(ratio), f"{tag}: repeat ratio {ratio}", problems)
            print(f"ok   {tag}: {len(result['metrics'])} metrics, attempted {result['attempted']}")

    # A target that no longer exists is reported as absent, its metrics as None.
    from perfbench.spans import TARGETS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install({**TARGETS, "scorer.no_such_function": None})
    tracer.uninstall()
    tracer.absent.append("scorer.maxsim")  # as if it had been renamed away
    m = layer_metrics(tracer, 0, 0.0)
    expect("scorer.no_such_function" in tracer.absent, "a missing target is not listed as absent", problems)
    expect(m["scorer.maxsim.calls"][0] is None, "an absent target's metric is not None", problems)
    print("ok   absent targets are reported as absent")

    wrong = {
        "build": mock.patch.object(data, "cchk_size", lambda *a: 1),
        "sweep": mock.patch.object(data, "cchk_size", lambda *a: 1),
        "serve": mock.patch.object(data.Oracle, "scores", lambda self, t: 0.0 * self.bounds[1:]),
    }
    for workload, patch in wrong.items():
        with patch:
            rc, detail, result = run(workload, 0)
        expect(rc == 1 and not result["correct"] and result["failed"] > 0,
               f"{workload}: a wrong expected output did not fail the run", problems)
        print(f"ok   {workload}: wrong expectation fails ({detail['failures'][0][:60]}...)")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.exit(main())
