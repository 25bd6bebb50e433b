"""Byte identity as a check: each invocation in tests/golden/manifest.json,
rerun in process through `cli.main` as the benchmark's worker runs it,
writes a file whose SHA-256 is the one the manifest holds, and whose kept
cells are those of its thinned copy in tests/golden/thinned.

The manifest covers every invocation of the three `bench/workloads.py`
workloads at benchmark seed 1, two FullZF hotspot sweeps (configs next to
the manifest), at one stream per tier and at t_f = t_c = 4, u_f = u_c = 2,
and a `Fixed` cell-edge `PcOverPfDb` sweep whose config does not set the
retired `fixed_pc_over_pf_db`.
On a mismatch the check names each kept cell that moved, with its old and
new value, and each file's new digest. A change that moves an output on
purpose runs tests/golden/regenerate.py, which shares this check's
invocation loop, and reports the lines it prints."""

from __future__ import annotations

from golden.regenerate import changes, run


def test_outputs_match_golden_manifest(tmp_path):
    moved = [line for entry, out in run(str(tmp_path)) for line in changes(entry, out)]
    assert not moved, "moved:\n" + "\n".join(moved)
