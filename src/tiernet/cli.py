"""Command-line front end: parameter loading, analytic/sensing sweeps to CSV,
scenario simulation, and a self-validation suite.

Config document: one JSON object {"system": {...}, "scenario": {...}}, both
sections optional; it is the only source of every system and scenario
setting. CSV output uses a header row and 12-significant-digit formatting
so identical (config, seed) runs are byte-identical. Exit codes: 0 success,
1 validation failure, 2 usage or config errors.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import click

from . import analytic, sensing
from .linkmodel import (
    PowerPolicy, Scenario, ScenarioConfig, SystemParams, _check_levels_db, location_coeffs,
)
from .sensing import DETECTOR_M_TW, DETECTOR_P_DETECT, DETECTOR_P_FALSE

__all__ = [
    "SweepVar",
    "SweepSpec",
    "parse_sweep",
    "cmd_analytic",
    "cmd_sensing",
    "cmd_simulate",
    "cmd_validate",
    "main",
]

KS_CRITICAL_1PCT = 1.6276  # asymptotic Kolmogorov critical coefficient


class ConfigError(click.ClickException):
    """Unreadable, malformed, or out-of-range config document."""

    exit_code = 2


class SweepVar(Enum):
    D = "D"
    PC_OVER_PF_DB = "PcOverPfDb"
    ALPHA_FO = "AlphaFo"
    TF_UF = "TfUf"
    M_TW = "Mtw"


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVar
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        # the last point is stop itself: start + (steps-1)·h can overshoot it
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * h for i in range(self.steps - 1)] + [self.stop]


def parse_sweep(text: str) -> SweepSpec:
    """Parse "<var>:<start>:<stop>:<steps>"; finite bounds, steps >= 2 and
    start < stop."""
    parts = text.split(":")
    if len(parts) != 4:
        raise click.BadParameter(f"expected var:start:stop:steps, got {text!r}")
    try:
        var = SweepVar(parts[0])
    except ValueError:
        choices = ", ".join(v.value for v in SweepVar)
        raise click.BadParameter(f"unknown sweep variable {parts[0]!r} (one of {choices})")
    try:
        start, stop, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise click.BadParameter(f"bad sweep range in {text!r}: {exc}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise click.BadParameter(
            f"bounds must be finite, got {start} and {stop}", param_hint="'--sweep'"
        )
    if steps < 2:
        raise click.BadParameter(f"steps must be >= 2, got {steps}")
    if not start < stop:
        raise click.BadParameter(f"need start < stop, got {start} >= {stop}")
    return SweepSpec(variable=var, start=start, stop=stop, steps=steps)


def _fmt(value: float | int | Enum) -> str:
    if type(value) is float:  # most cells: tested first
        return f"{value:.12g}"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _load_config(path: str | None) -> tuple[SystemParams, ScenarioConfig]:
    if path is None:
        return SystemParams(), ScenarioConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        extra = set(raw) - {"system", "scenario"}
        if extra:
            raise ValueError(f"unknown top-level config keys: {sorted(extra)}")
        for name in ("system", "scenario"):
            if not isinstance(raw.get(name, {}), dict):
                raise ValueError(
                    f"the {name} section must be a JSON object, got {type(raw[name]).__name__}"
                )
        p = SystemParams.from_dict(raw.get("system", {}))
        cfg = ScenarioConfig.from_dict(raw.get("scenario", {}))
        _check_scenario_levels(p, cfg.d_norm, cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config {path}: {exc}")
    return p, cfg


def _emit(out_path: str | None, text: str) -> None:
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(out_path: str | None, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _emit(out_path, buf.getvalue())


def _sweep_error(var: SweepVar, value: float, reason: str) -> click.BadParameter:
    return click.BadParameter(f"{var.value} = {value!r}: {reason}", param_hint="'--sweep'")


def _check_scenario_levels(
    p: SystemParams, d_norm: float, cfg: ScenarioConfig | None = None
) -> None:
    """Raise ValueError naming the field whose level, derived with the
    system, lies beyond ±3000 dB, as SystemParams checks its own: the
    reference path loss 10·α_c·log10(d_norm·r_c) (two logs, as d_norm·r_c
    may underflow) and, given the scenario, its ambient femto power
    P_c − fixed_pc_over_pf_db in dBW, its sensing radius squared and its
    hotspot user offset squared (an offset of 0 is valid)."""
    levels = [("d_norm", 10.0 * p.alpha_c * (math.log10(d_norm) + math.log10(p.r_c)))]
    if cfg is not None:
        levels += [
            ("fixed_pc_over_pf_db", p.p_c_dbm - 30.0 - cfg.fixed_pc_over_pf_db),
            ("sensing_radius_m", 20.0 * math.log10(cfg.sensing_radius_m)),
        ]
        if cfg.co_located_user_offset:
            levels.append(
                ("co_located_user_offset", 20.0 * math.log10(cfg.co_located_user_offset))
            )
    _check_levels_db(levels)


def _sweep_d_norm(value: float, p: SystemParams) -> float:
    if not 0.0 < value <= 1.0:
        raise _sweep_error(SweepVar.D, value, "must lie in (0, 1]")
    try:
        _check_scenario_levels(p, value)
    except ValueError as exc:
        raise _sweep_error(SweepVar.D, value, str(exc)) from None
    return value


def _apply_sweep(
    var: SweepVar, value: float, p: SystemParams, d_norm: float, m_tw: int
) -> tuple[SystemParams, float, int]:
    """The parameters at one sweep value; a value outside the model's range
    is a usage error."""
    if var is SweepVar.D:
        return p, _sweep_d_norm(value, p), m_tw
    if var is SweepVar.M_TW:
        if round(value) < 1:
            raise _sweep_error(var, value, "must round to at least 1")
        return p, d_norm, round(value)
    if var is SweepVar.PC_OVER_PF_DB:
        changes = {"p_c_dbm": p.p_f_dbm + value}
    elif var is SweepVar.ALPHA_FO:
        changes = {"alpha_fo": value}
    else:
        t_f = round(value)
        changes = {"t_f": t_f, "u_f": 1 if p.u_f == 1 else t_f}
    try:
        return dataclasses.replace(p, **changes), d_norm, m_tw
    except ValueError as exc:  # SystemParams rejects the swept value
        raise _sweep_error(var, value, str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


@click.group()
def main() -> None:
    """Two-tier network coverage: closed forms, sensing design, simulation."""


@main.command("analytic")
@click.option("--config", "config_path", default=None, help="JSON config document.")
@click.option("--out", "out_path", default=None, help="CSV output path (default stdout).")
@click.option("--sweep", "sweep_text", required=True, help="var:start:stop:steps")
def cmd_analytic(config_path: str | None, out_path: str | None, sweep_text: str) -> None:
    """Closed-form coverage quantities along a parameter sweep."""
    p, cfg = _load_config(config_path)
    spec = parse_sweep(sweep_text)
    lam_scenario = cfg.density(p)
    header = [
        "variable", "value", "d_norm", "t_f", "u_f", "alpha_fo", "pc_over_pf_db",
        "d_f_m", "lambda_star_femto", "regime", "n_f", "n_f_u_f",
        "lambda_star_cellular", "d_c_m", "ase_bps_hz_m2",
        "ratio_su_mu", "ratio_su_single",
    ]
    rows = []
    for value in spec.values():
        p2, dn, _ = _apply_sweep(spec.variable, value, p, cfg.d_norm, DETECTOR_M_TW)
        lam_f, regime = analytic.max_contention_density_femto(dn, p2)
        n_f = lam_f * math.pi * p2.r_c**2
        try:
            r_mu, r_one = analytic.su_mu_radius_ratios(p2)
        except ValueError:
            r_mu = r_one = math.nan
        rows.append([
            spec.variable, value, dn, p2.t_f, p2.u_f, p2.alpha_fo,
            p2.p_c_dbm - p2.p_f_dbm,
            analytic.no_coverage_radius(p2),
            lam_f, regime, n_f, n_f * p2.u_f,
            analytic.max_contention_density_cellular(dn, p2),
            analytic.cellular_coverage_radius(lam_scenario, p2),
            analytic.area_spectral_efficiency(lam_f, p2),
            r_mu, r_one,
        ])
    _write_csv(out_path, header, rows)


@main.command("sensing")
@click.option("--config", "config_path", default=None, help="JSON config document.")
@click.option("--out", "out_path", default=None, help="CSV output path (default stdout).")
@click.option("--sweep", "sweep_text", required=True, help="var:start:stop:steps")
def cmd_sensing(config_path: str | None, out_path: str | None, sweep_text: str) -> None:
    """Sensing radii, power-ratio windows, and detector design along a sweep."""
    p, cfg = _load_config(config_path)
    spec = parse_sweep(sweep_text)
    lam = cfg.density(p)
    header = [
        "variable", "value", "d_norm", "m_tw", "d_sense_m",
        "pc_over_pf_lb_db", "pc_over_pf_ub_db", "blend_db",
        "threshold", "p_false", "p_detect_at_d_sense", "max_range_m",
    ]
    rows = []
    for value in spec.values():
        p2, dn, m_tw = _apply_sweep(spec.variable, value, p, cfg.d_norm, DETECTOR_M_TW)
        d_sense = sensing.min_sensing_radius(dn, p2)
        try:
            lo_db, hi_db = sensing.power_ratio_bounds(dn, lam, p2)
            blend = sensing.blended_power_policy(lo_db, hi_db, cfg.blend_weight)
        except sensing.InfeasiblePlanError:
            lo_db = hi_db = blend = math.nan
        threshold = sensing.solve_threshold(m_tw, DETECTOR_P_FALSE)
        try:
            max_range = sensing.max_sensing_range(m_tw, DETECTOR_P_DETECT, DETECTOR_P_FALSE, p2)
        except sensing.InfeasiblePlanError:
            max_range = math.nan
        rows.append([
            spec.variable, value, dn, m_tw, d_sense, lo_db, hi_db, blend,
            threshold, sensing.false_alarm_probability(m_tw, threshold),
            sensing.detection_probability_sc(
                sensing.pilot_snr(d_sense, p2), m_tw, threshold, p2.t_f
            ),
            max_range,
        ])
    _write_csv(out_path, header, rows)


@main.command("simulate")
@click.option("--config", "config_path", default=None,
              help="JSON config document; scenario.channel_mode picks the channel mode.")
@click.option("--out", "out_path", default=None, help="CSV output path (default stdout).")
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
              help="Non-negative seed of the FullZF draws; FastChi2 echoes it.")
@click.option("--sweep", "sweep_text", default=None,
              help="Optional D:start:stop:steps sweep of the reference location.")
@click.option("--drops", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Drops sampled when scenario.channel_mode is FullZF. FastChi2 (the "
                   "default) integrates the field out and draws none; the CSV echoes it.")
@click.option("--fades", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Fades sampled per drop when scenario.channel_mode is FullZF. FastChi2 "
                   "(the default) integrates them out and draws none; the CSV echoes it.")
def cmd_simulate(
    config_path: str | None,
    out_path: str | None,
    seed: int,
    sweep_text: str | None,
    drops: int,
    fades: int,
) -> None:
    """Monte Carlo outage and rate percentiles for the configured scenario."""
    from . import simulator  # here, not at the top: numpy loads only for the Monte Carlo
    p, cfg = _load_config(config_path)
    if sweep_text is not None:
        spec = parse_sweep(sweep_text)
        if spec.variable is not SweepVar.D:
            raise click.BadParameter("simulate sweeps support only the D variable")
        d_values = [_sweep_d_norm(v, p) for v in spec.values()]
    else:
        d_values = [cfg.d_norm]
    pct_grid = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
    header = (
        ["scenario", "d_norm", "lambda_f", "n_drops", "n_fades", "seed",
         "p_outage", "ci_halfwidth_95"]
        + [f"rate_pct_{int(q)}" for q in pct_grid]
    )

    def row(dn: float) -> list:
        # a point's rate law is freed before the next point builds its own
        cfg_d = dataclasses.replace(cfg, d_norm=dn)
        try:
            res = simulator.simulate(cfg_d, drops, fades, p, seed)
        except sensing.InfeasiblePlanError as exc:
            raise ConfigError(
                f"n_f_target = {cfg.n_f_target:g} femtocells "
                f"(lambda_f = {cfg.density(p):.4g} per m^2) admits no carrier-sensed "
                f"power plan at D = {dn:g}: {exc}"
            ) from None
        return (
            [cfg_d.scenario, dn, cfg_d.density(p), drops, fades, seed,
             res.p_outage, res.ci_halfwidth_95]
            + res.percentiles(pct_grid)
        )

    _write_csv(out_path, header, [row(dn) for dn in d_values])


# ---------------------------------------------------------------------------
# validation suite


@main.command("validate")
@click.option("--config", "config_path", default=None, help="JSON config document.")
@click.option("--out", "out_path", default=None, help="JSON report path (default stdout).")
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
              help="Non-negative seed of the sampled checks.")
def cmd_validate(config_path: str | None, out_path: str | None, seed: int) -> None:
    """Distribution, closure, and inversion checks; exit 1 on any failure."""
    from . import simulator  # here, not at the top: numpy loads only for the Monte Carlo
    p, cfg = _load_config(config_path)
    checks: list[dict] = []

    def record(name: str, passed: bool, value: float, bound: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "value": value, "bound": bound})

    n_ks = 100_000
    crit = KS_CRITICAL_1PCT / math.sqrt(n_ks)
    femto, cellular = (p.t_f, p.u_f), (p.t_c, p.u_c)
    for idx, (name, sampler, (t, u), k) in enumerate((
        ("ks_desired_femto", simulator._zf_desired_batch, femto, p.t_f - p.u_f + 1),
        ("ks_desired_cellular", simulator._zf_desired_batch, cellular, p.t_c - p.u_c + 1),
        ("ks_cross_tier", simulator._zf_leakage_batch, cellular, p.u_c),
        ("ks_marks", simulator._zf_leakage_batch, femto, p.u_f),
    )):
        rng = simulator._drop_rng(seed, idx)
        stat = simulator._ks_statistic_chi2(sampler(rng, n_ks, t, u), k)
        record(name, stat < crit, stat, f"< {crit:.6f}")

    # each tier's closure: a Fixed-power field at its density cap holds the outage at eps
    for name, scenario, d_norm, cap, tol in (
        ("femto_closure_outage", Scenario.REFERENCE_HOTSPOT, 0.5,
         analytic.max_contention_density_femto(0.5, p)[0], 0.03),
        ("cellular_closure_outage", Scenario.REFERENCE_CELLULAR_USER, 0.8,
         analytic.max_contention_density_cellular(0.8, p), 0.02),
    ):
        if cap > 0:
            cfg_cap = ScenarioConfig(
                scenario=scenario, d_norm=d_norm, power_policy=PowerPolicy.FIXED,
                fixed_pc_over_pf_db=p.p_c_dbm - p.p_f_dbm,
                n_f_target=cap * math.pi * p.r_c**2, include_noise=False,
            )
            p_out = simulator.simulate(cfg_cap, 1, 1, p, seed).p_outage
            record(name, abs(p_out - p.eps) <= tol, p_out, f"{p.eps} +- {tol}")

    # the power window at the cell edge: its floor must invert the cellular
    # density cap, its ceiling the femto cap under the worst-case correction
    lam = cfg.density(p)
    try:
        lo_db, hi_db = sensing.power_ratio_bounds(1.0, lam, p)
    except sensing.InfeasiblePlanError as exc:
        record("power_window_inversion", False, math.nan, str(exc))
    else:
        p_lo = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + lo_db)
        p_hi = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + hi_db)
        k_max = analytic.k_correction_bounds(p.t_f, p.u_f, p)[1]
        for name, lam_back in (
            ("floor", analytic.max_contention_density_cellular(1.0, p_lo)),
            ("ceiling", analytic.femto_density_cap(location_coeffs(1.0, p_hi), k_max, p_hi)),
        ):
            err = abs(lam_back / lam - 1.0)
            record(f"power_window_inversion_{name}", err < 1e-9, err, "< 1e-9")

    threshold = sensing.solve_threshold(DETECTOR_M_TW, DETECTOR_P_FALSE)
    p_fa = sensing.false_alarm_probability(DETECTOR_M_TW, threshold)
    record("detector_cfar_threshold", abs(p_fa - DETECTOR_P_FALSE) < 1e-6, p_fa,
           f"{DETECTOR_P_FALSE} +- 1e-6")
    p_zero = sensing.detection_probability_sc(0.0, DETECTOR_M_TW, threshold, 1)
    record("detector_zero_snr_floor", abs(p_zero - p_fa) < 1e-12, p_zero,
           "== p_false")

    passed = all(c["passed"] for c in checks)
    _emit(out_path, json.dumps({"passed": passed, "checks": checks}, indent=2) + "\n")
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
