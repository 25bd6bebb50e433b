"""Rerun every invocation in manifest.json, print what moved, and rewrite the
manifest's digests and the thinned copies in thinned/ to match.

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves an output on purpose runs this and reports the printed
lines: one per kept cell that moved, with its old and new value, and one per
file whose digest moved. `tests/test_golden.py` runs the same invocations
and fails on any such line.

A thinned copy keeps a CSV's header, its first and last rows and every
THIN_EVERY-th row between, each behind its 1-based row number; `validate`'s
JSON report is kept whole. In an invocation's argv, {out} stands for the
output directory, {bench_configs} for bench/configs and {golden} for this
directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tempfile
from collections.abc import Iterator
from pathlib import Path

from tiernet.cli import main

GOLDEN = Path(__file__).parent
MANIFEST = GOLDEN / "manifest.json"
THINNED = GOLDEN / "thinned"
THIN_EVERY = 3


def run(out_dir: str) -> Iterator[tuple[dict, Path]]:
    """Each manifest entry and the output file it wrote, run in process
    through `cli.main` as the benchmark's worker runs it."""
    dirs = {"out": out_dir, "bench_configs": str(GOLDEN.parents[1] / "bench" / "configs"),
            "golden": str(GOLDEN)}
    for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))["invocations"]:
        argv = [arg.format(**dirs) for arg in entry["argv"]]
        try:
            main.main(args=argv, prog_name="tiernet", standalone_mode=False)
        except SystemExit:  # validate writes its report before exiting 1
            pass
        yield entry, Path(argv[argv.index("--out") + 1])


def thin(name: str, text: str) -> str:
    if name.endswith(".json"):
        return text
    header, *rows = text.splitlines(keepends=True)
    return "row," + header + "".join(
        f"{i + 1},{row}" for i, row in enumerate(rows)
        if i % THIN_EVERY == 0 or i == len(rows) - 1
    )


def _cells(name: str, thinned: str) -> dict[str, str]:
    # each kept value under a label: "row N column", or "check key" in the report
    if name.endswith(".json"):
        report = json.loads(thinned)
        cells = {key: json.dumps(v) for key, v in report.items() if key != "checks"}
        for check in report["checks"]:
            cells.update(
                (f"{check['name']} {key}", json.dumps(v)) for key, v in check.items()
                if key != "name"
            )
        return cells
    header, *rows = csv.reader(io.StringIO(thinned))
    return {f"row {row[0]} {col}": v for row in rows for col, v in zip(header[1:], row[1:])}


def changes(entry: dict, out: Path) -> list[str]:
    """What moved in one output against its thinned copy and its digest:
    each kept cell that moved, with its old and new value, then the file's
    new digest if that moved."""
    data = out.read_bytes()
    kept = THINNED / out.name
    old = _cells(out.name, kept.read_text(encoding="utf-8")) if kept.exists() else {}
    new = _cells(out.name, thin(out.name, data.decode("utf-8")))
    moved = [
        f"{out.name} {key}: {old.get(key, '-')} -> {new.get(key, '-')}"
        for key in {**old, **new} if old.get(key) != new.get(key)
    ]
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        moved.append(f"{out.name} now {digest}")
    return moved


def regenerate() -> list[str]:
    entries, moved = [], []
    THINNED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for entry, out in run(tmp):
            moved += changes(entry, out)
            data = out.read_bytes()
            entries.append({"argv": entry["argv"], "sha256": hashlib.sha256(data).hexdigest()})
            with open(THINNED / out.name, "w", encoding="utf-8", newline="") as fh:
                fh.write(thin(out.name, data.decode("utf-8")))
    lines = ",\n".join(
        f'  {{"argv": {json.dumps(e["argv"])},\n   "sha256": "{e["sha256"]}"}}' for e in entries
    )
    MANIFEST.write_text('{\n "invocations": [\n' + lines + "\n ]\n}\n", encoding="utf-8")
    return moved


if __name__ == "__main__":
    print("\n".join(regenerate()) or "no output moved")
