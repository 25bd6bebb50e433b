"""The benchmark's workloads: which `tiernet` invocations one round runs,
and what each invocation must produce.

A round is the same list of invocations every time, so the number of
operations per round is fixed. An operation is one output row of
`simulate`, `analytic` or `sensing`, or one check of `validate`'s report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# edge-sensed: many drops, few interferers per drop. Drops set the precision
# of the 10-percentile rate: its seed-to-seed spread is about 0.03 b/s/Hz at
# 2000 and 3000 drops, and the tightest paper target (cellular, D = 0.8,
# about 3.07 against 3.21 +- 0.25) sits only 0.11 above its lower edge.
EDGE_DROPS = 4000
EDGE_FADES = 250

# validate's statistical checks (KS at the 1% level, closure outages at a
# fixed size) reject a correct program on some seeds, so the workload runs
# it at the CLI's default seed whatever the benchmark seed is.
VALIDATE_SEED = 42

VALIDATE_CHECKS = (
    "ks_desired_femto",
    "ks_desired_cellular",
    "ks_cross_tier",
    "ks_marks",
    "femto_closure_outage",
    "cellular_closure_outage",
    "power_window_inversion_floor",
    "power_window_inversion_ceiling",
    "detector_cfar_threshold",
    "detector_zero_snr_floor",
)


@dataclass(frozen=True)
class Sweep:
    variable: str
    start: float
    stop: float
    steps: int

    def text(self) -> str:
        return f"{self.variable}:{self.start!r}:{self.stop!r}:{self.steps}"

    def values(self) -> list[float]:
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * h for i in range(self.steps)]


@dataclass(frozen=True)
class Invocation:
    """One `tiernet` command line. `out` is the file name its CSV or JSON
    report is written to; `config` a file under bench/configs."""

    command: str
    out: str
    config: str | None = None
    sweep: Sweep | None = None
    seed: int | None = None
    drops: int | None = None
    fades: int | None = None
    d_norm: float | None = None  # simulate without a sweep: the config's D

    def argv(self, out_dir: str, config_dir: str) -> list[str]:
        argv = [self.command, "--out", f"{out_dir}/{self.out}"]
        if self.config is not None:
            argv += ["--config", f"{config_dir}/{self.config}"]
        if self.sweep is not None:
            argv += ["--sweep", self.sweep.text()]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.drops is not None:
            argv += ["--drops", str(self.drops), "--fades", str(self.fades)]
        return argv

    def expected_ops(self) -> int:
        if self.command == "validate":
            return len(VALIDATE_CHECKS)
        if self.sweep is not None:
            return self.sweep.steps
        return 1


def _edge_sensed(seed: int) -> list[Invocation]:
    sim = dict(seed=seed, drops=EDGE_DROPS, fades=EDGE_FADES)
    return [
        Invocation("simulate", "cellular_sensed.csv", "cellular_sensed.json",
                   Sweep("D", 0.8, 1.0, 2), **sim),
        Invocation("simulate", "hotspot_sensed.csv", "hotspot_sensed.json",
                   Sweep("D", 0.4, 0.8, 3), **sim),
        Invocation("simulate", "baseline_fixed.csv", "baseline_fixed.json",
                   d_norm=1.0, **sim),
    ]


def _validate(seed: int) -> list[Invocation]:
    return [Invocation("validate", "validate.json", seed=VALIDATE_SEED)]


def _closed_form(seed: int) -> list[Invocation]:
    # the seed shifts each sweep's start a little, so no run sees exactly
    # the points another run saw; row counts stay fixed
    rng = random.Random(seed)

    def jitter(scale: float) -> float:
        return round(rng.uniform(0.0, scale), 6)

    cfg = "closed_form.json"
    return [
        Invocation("analytic", "analytic_d.csv", cfg,
                   Sweep("D", 0.05 + jitter(0.01), 1.0, 2000)),
        Invocation("analytic", "analytic_tfuf.csv", cfg, Sweep("TfUf", 1.0, 4.0, 4)),
        Invocation("analytic", "analytic_alpha.csv", cfg,
                   Sweep("AlphaFo", 2.5 + jitter(0.05), 4.5, 81)),
        Invocation("analytic", "analytic_pc.csv", cfg,
                   Sweep("PcOverPfDb", 0.0 + jitter(0.5), 30.0, 121)),
        Invocation("sensing", "sensing_d.csv", cfg,
                   Sweep("D", 0.05 + jitter(0.01), 1.0, 1000)),
        Invocation("sensing", "sensing_tfuf.csv", cfg, Sweep("TfUf", 1.0, 4.0, 4)),
        Invocation("sensing", "sensing_alpha.csv", cfg,
                   Sweep("AlphaFo", 2.5 + jitter(0.05), 4.5, 41)),
        # no jitter: every row after the first fails (see checks.KNOWN_FAULT),
        # and the failed share must not depend on the seed
        Invocation("sensing", "sensing_pc.csv", cfg, Sweep("PcOverPfDb", 10.0, 30.0, 61)),
        Invocation("sensing", "sensing_mtw.csv", cfg,
                   Sweep("Mtw", 100.0 + round(jitter(40.0)), 10000.0, 100)),
    ]


WORKLOADS = {
    "edge-sensed": _edge_sensed,
    "validate": _validate,
    "closed-form": _closed_form,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](seed)
