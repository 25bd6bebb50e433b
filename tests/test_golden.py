"""Byte identity as a check: each invocation in tests/golden/manifest.json,
rerun in process through `cli.main` as the benchmark's worker runs it,
writes a file whose SHA-256 is the one the manifest holds.

The manifest covers every invocation of the three `bench/workloads.py`
workloads at benchmark seed 1 and two FullZF hotspot sweeps (configs next to
the manifest), at one stream per tier and at t_f = t_c = 4, u_f = u_c = 2.
In its argv, {out} stands for the output directory, {bench_configs} for
bench/configs and {golden} for tests/golden. A change that moves an output
on purpose regenerates the manifest and reports which values moved."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from tiernet.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_outputs_match_golden_manifest(tmp_path):
    dirs = {
        "out": str(tmp_path),
        "bench_configs": str(GOLDEN.parents[1] / "bench" / "configs"),
        "golden": str(GOLDEN),
    }
    moved = []
    for entry in json.loads((GOLDEN / "manifest.json").read_text())["invocations"]:
        argv = [arg.format(**dirs) for arg in entry["argv"]]
        try:
            main.main(args=argv, prog_name="tiernet", standalone_mode=False)
        except SystemExit:  # validate writes its report before exiting 1
            pass
        out = Path(argv[argv.index("--out") + 1])
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            moved.append(f"{out.name} now {digest}")
    assert moved == []
