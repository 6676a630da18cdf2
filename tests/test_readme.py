"""The README quick start, run as written, prints what the README shows.

This pins the byte-level contract end to end: the ablation CSV (all but the
timing column), the ``compress`` report and the first lines of the run file.
"""

import re
import shlex
from pathlib import Path

from colchunk import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> list[str]:
    text = README.read_text("utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```[a-z]*\n(.*?)```", section, flags=re.S)


def shown_output(block: str, command: str) -> list[str]:
    """The ``# `` lines that follow ``command`` in a README shell block."""
    lines = block.splitlines()
    start = lines.index(command) + 1
    shown = []
    for line in lines[start:]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    return shown


def run(argv, capsys) -> str:
    assert argv[0] == "colchunk"
    assert cli.main(argv[1:]) == 0
    return capsys.readouterr().out


def without_wall_ms(csv_lines):
    return [line.rsplit(",", 1)[0] for line in csv_lines]


def test_quick_start_matches_readme(tmp_path, monkeypatch, capsys):
    bench_block, csv_block, steps_block = quick_start_blocks()[:3]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLCHUNK_THREADS", raising=False)

    bench = shlex.split(bench_block.replace("\\\n", " "))
    assert "--workdir" in bench
    csv = run(bench, capsys).splitlines()
    assert without_wall_ms(csv) == without_wall_ms(csv_block.splitlines())

    steps = steps_block.splitlines()
    compress = next(line for line in steps if line.startswith("colchunk compress"))
    report = run(shlex.split(compress), capsys).splitlines()
    assert report == shown_output(steps_block, compress)

    query = next(line for line in steps if line.startswith("colchunk query"))
    assert run(shlex.split(query), capsys) == ""
    head = next(line for line in steps if line.startswith("head -"))
    count = int(head.split()[1].lstrip("-"))
    run_lines = Path(head.split()[2]).read_text("utf-8").splitlines()[:count]
    assert run_lines == shown_output(steps_block, head)
