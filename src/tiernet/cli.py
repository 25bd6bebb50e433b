"""Command-line front end: parameter loading, analytic/sensing sweeps to CSV,
scenario simulation, and a self-validation suite.

Config document: one JSON object, either the system parameters directly or
{"system": {...}, "scenario": {...}}. CSV output uses a header row and
12-significant-digit formatting so identical (config, seed) runs are
byte-identical. Exit codes: 0 success, 1 validation failure, 2 usage or
config errors.
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
import numpy as np

from . import analytic, sensing, simulator
from .linkmodel import SystemParams, location_coeffs
from .sensing import DETECTOR_M_TW, DETECTOR_P_DETECT, DETECTOR_P_FALSE
from .specfun import chi2_cdf, reg_inc_beta
from .simulator import ChannelMode, PowerPolicy, Scenario, ScenarioConfig

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


def _fmt(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
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
        if "system" in raw or "scenario" in raw:
            extra = set(raw) - {"system", "scenario"}
            if extra:
                raise ValueError(f"unknown top-level config keys: {sorted(extra)}")
            p = SystemParams.from_dict(raw.get("system", {}))
            cfg = ScenarioConfig.from_dict(raw.get("scenario", {}))
        else:
            p = SystemParams.from_dict(raw)
            cfg = ScenarioConfig()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config {path}: {exc}")
    return p, cfg


def _write_csv(out_path: str | None, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sweep_error(var: SweepVar, value: float, reason: str) -> click.BadParameter:
    return click.BadParameter(f"{var.value} = {value!r}: {reason}", param_hint="'--sweep'")


def _sweep_d_norm(value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise _sweep_error(SweepVar.D, value, "must lie in (0, 1]")
    return value


def _apply_sweep(
    var: SweepVar, value: float, p: SystemParams, d_norm: float, m_tw: int
) -> tuple[SystemParams, float, int]:
    """The parameters at one sweep value; a value outside the model's range
    is a usage error."""
    if var is SweepVar.D:
        return p, _sweep_d_norm(value), m_tw
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
@click.option("--config", "config_path", default=None)
@click.option("--out", "out_path", default=None)
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
            blend = cfg.blend_weight * hi_db + (1.0 - cfg.blend_weight) * lo_db
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
@click.option("--config", "config_path", default=None)
@click.option("--out", "out_path", default=None)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--mode", type=click.Choice(["full-zf", "fast"]), default=None,
              help="Channel mode override (default: scenario config).")
@click.option("--sweep", "sweep_text", default=None,
              help="Optional D:start:stop:steps sweep of the reference location.")
@click.option("--drops", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Drops sampled in FullZF mode. FastChi2 integrates the femtocell "
                   "field out exactly and draws none; the CSV echoes the value.")
@click.option("--fades", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Fades sampled per drop in FullZF mode. FastChi2 integrates the "
                   "fades out exactly and draws none; the CSV echoes the value.")
def cmd_simulate(
    config_path: str | None,
    out_path: str | None,
    seed: int,
    mode: str | None,
    sweep_text: str | None,
    drops: int,
    fades: int,
) -> None:
    """Monte Carlo outage and rate percentiles for the configured scenario."""
    p, cfg = _load_config(config_path)
    if mode is not None:
        cfg = dataclasses.replace(
            cfg,
            channel_mode=ChannelMode.FULL_ZF if mode == "full-zf" else ChannelMode.FAST_CHI2,
        )
    if sweep_text is not None:
        spec = parse_sweep(sweep_text)
        if spec.variable is not SweepVar.D:
            raise click.BadParameter("simulate sweeps support only the D variable")
        d_values = [_sweep_d_norm(v) for v in spec.values()]
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
            + [res.percentile(q) for q in pct_grid]
        )

    _write_csv(out_path, header, [row(dn) for dn in d_values])


# ---------------------------------------------------------------------------
# validation suite


def _ks_statistic_chi2(samples: np.ndarray, k: int) -> float:
    # empirical KS distance against a dof-2k chi-squared on half scale
    x = np.sort(samples)
    n = len(x)
    cdf = chi2_cdf(2 * k, 2.0 * x)
    up = np.max(np.arange(1, n + 1) / n - cdf)
    down = np.max(cdf - np.arange(0, n) / n)
    return float(max(up, down))


def _lemma_inversion_errors(p: SystemParams, lambda_f: float) -> tuple[float, float]:
    """Relative round-trip error of the two power-window edges at the cell
    edge: the floor must invert the cellular density cap, the ceiling the
    femto cap with the worst-case correction substituted."""
    lo_db, hi_db = sensing.power_ratio_bounds(1.0, lambda_f, p)
    delta = 2.0 / p.alpha_fo
    c_f = analytic.shot_noise_c_f(p)

    p_lo = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + lo_db)
    lam_back_lo = analytic.max_contention_density_cellular(1.0, p_lo)

    p_hi = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + hi_db)
    loc = location_coeffs(1.0, p_hi)
    k_max = analytic.k_correction_bounds(p.t_f, p.u_f, p)[1]
    macro_term = reg_inc_beta(loc.kappa / (loc.kappa + 1.0), p.t_f - p.u_f + 1, p.u_c)
    lam_back_hi = (
        (p.eps - macro_term)
        / (1.0 / k_max - macro_term)
        / (c_f * (loc.q_f * p.gamma_target) ** delta)
    )
    return abs(lam_back_lo / lambda_f - 1.0), abs(lam_back_hi / lambda_f - 1.0)


@main.command("validate")
@click.option("--config", "config_path", default=None)
@click.option("--out", "out_path", default=None, help="JSON report path (default stdout).")
@click.option("--seed", type=int, default=42, show_default=True)
def cmd_validate(config_path: str | None, out_path: str | None, seed: int) -> None:
    """Distribution, closure, and inversion checks; exit 1 on any failure."""
    p, cfg = _load_config(config_path)
    checks: list[dict] = []

    def record(name: str, passed: bool, value: float, bound: str) -> None:
        checks.append({"name": name, "passed": bool(passed),
                       "value": value, "bound": bound})

    n_ks = 100_000
    crit = KS_CRITICAL_1PCT / math.sqrt(n_ks)
    for idx, (name, sampler, k) in enumerate((
        ("ks_desired_femto", simulator._zf_desired_batch, p.t_f - p.u_f + 1),
        ("ks_desired_cellular", simulator._zf_desired_batch, p.t_c - p.u_c + 1),
        ("ks_cross_tier", simulator._zf_leakage_batch, p.u_c),
        ("ks_marks", simulator._zf_leakage_batch, p.u_f),
    )):
        rng = simulator._drop_rng(seed, idx)
        t, u = (p.t_f, p.u_f) if name.endswith(("femto", "marks")) else (p.t_c, p.u_c)
        stat = _ks_statistic_chi2(sampler(rng, n_ks, t, u), k)
        record(name, stat < crit, stat, f"< {crit:.6f}")

    lam_f, _ = analytic.max_contention_density_femto(0.5, p)
    if lam_f > 0:
        cfg_f = ScenarioConfig(
            scenario=Scenario.REFERENCE_HOTSPOT, d_norm=0.5,
            power_policy=PowerPolicy.FIXED,
            n_f_target=lam_f * math.pi * p.r_c**2, include_noise=False,
        )
        p_out = simulator.simulate(cfg_f, 1, 1, p, seed).p_outage
        record("femto_closure_outage",
               abs(p_out - p.eps) <= 0.03, p_out, f"{p.eps} +- 0.03")

    lam_c = analytic.max_contention_density_cellular(0.8, p)
    cfg_c = ScenarioConfig(
        scenario=Scenario.REFERENCE_CELLULAR_USER, d_norm=0.8,
        power_policy=PowerPolicy.FIXED,
        n_f_target=lam_c * math.pi * p.r_c**2, include_noise=False,
    )
    p_out = simulator.simulate(cfg_c, 1, 1, p, seed).p_outage
    record("cellular_closure_outage",
           abs(p_out - p.eps) <= 0.02, p_out, f"{p.eps} +- 0.02")

    try:
        err_lo, err_hi = _lemma_inversion_errors(p, cfg.density(p))
        record("power_window_inversion_floor", err_lo < 1e-9, err_lo, "< 1e-9")
        record("power_window_inversion_ceiling", err_hi < 1e-9, err_hi, "< 1e-9")
    except sensing.InfeasiblePlanError as exc:
        record("power_window_inversion", False, math.nan, str(exc))

    threshold = sensing.solve_threshold(DETECTOR_M_TW, DETECTOR_P_FALSE)
    p_fa = sensing.false_alarm_probability(DETECTOR_M_TW, threshold)
    record("detector_cfar_threshold", abs(p_fa - DETECTOR_P_FALSE) < 1e-6, p_fa,
           f"{DETECTOR_P_FALSE} +- 1e-6")
    p_zero = sensing.detection_probability_ray(0.0, DETECTOR_M_TW, threshold)
    record("detector_zero_snr_floor", abs(p_zero - p_fa) < 1e-12, p_zero,
           "== p_false")

    passed = all(c["passed"] for c in checks)
    report = json.dumps({"passed": passed, "checks": checks}, indent=2)
    if out_path is None:
        click.echo(report)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
