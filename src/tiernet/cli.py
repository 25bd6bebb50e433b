"""Command-line front end: parameter loading, analytic/sensing sweeps to CSV,
scenario simulation, and a self-validation suite.

Config document: one JSON object {"system": {...}, "scenario": {...}}, both
sections optional; it is the only source of every system and scenario
setting. CSV rows are column name -> value records, written under a header
of the first row's names. A sweep builds its interior points in decimal
from the spec's text and rounds each to a float once. A row's point
(value, d_norm, alpha_fo, pc_over_pf_db) is printed as its shortest
round-trip repr, so it reads back as the point run, and every computed
value to 12 significant digits.
Identical (config, seed) runs are byte-identical; `validate` writes strict
JSON, a non-finite value as null. Exit codes: 0 success, 1 a failed
validation check, 2 usage or config errors. An unwritable --out and a
config file that is not UTF-8 are among them, found before any work.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from enum import Enum

import click

from . import analytic, sensing
from .linkmodel import (
    PowerPolicy, Scenario, ScenarioConfig, SystemParams, check_scenario_levels, location_coeffs,
)
from .sensing import DETECTOR_M_TW, DETECTOR_P_DETECT, DETECTOR_P_FALSE

__all__ = ["main"]

KS_CRITICAL_1PCT = 1.6276  # asymptotic Kolmogorov critical coefficient


class ConfigError(click.ClickException):
    """Unreadable, malformed, or out-of-range config document."""

    exit_code = 2


# the --sweep variables, in the order the usage error lists them
_SWEEP_VARS = ("D", "PcOverPfDb", "AlphaFo", "TfUf", "Mtw")


def _sweep(
    text: str, p: SystemParams, cfg: ScenarioConfig
) -> tuple[str, list[tuple[float, SystemParams, float, int]]]:
    """Parse "<var>:<start>:<stop>:<steps>" (finite bounds, steps >= 2,
    start < stop) into the variable and its points, each (value, params,
    d_norm, m_tw) at that value, the config's d_norm where D is not swept.
    A point outside the model's range, or a P_c/P_f point that the
    config's scenario does not admit (check_scenario_levels), is a usage
    error, raised before any point is computed."""
    parts = text.split(":")
    if len(parts) != 4:
        raise click.BadParameter(f"expected var:start:stop:steps, got {text!r}")
    var = parts[0]
    if var not in _SWEEP_VARS:
        choices = ", ".join(_SWEEP_VARS)
        raise click.BadParameter(f"unknown sweep variable {var!r} (one of {choices})")
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
    # each interior point in decimal from the spec's own text, rounded to a
    # float once (D:0.2:1.0:5 runs at 0.6, not at 0.2 + 2·0.2); the last
    # point is stop itself
    from decimal import Decimal  # here, not at the top: only a sweep needs it
    lo = Decimal(parts[1])
    h = (Decimal(parts[2]) - lo) / (steps - 1)
    points = []
    for value in [float(lo + i * h) for i in range(steps - 1)] + [stop]:
        p2, dn, m_tw = p, cfg.d_norm, DETECTOR_M_TW
        try:
            if var == "D":
                if not 0.0 < value <= 1.0:
                    raise ValueError("must lie in (0, 1]")
                check_scenario_levels(p, value)
                dn = value
            elif var == "Mtw":
                m_tw = round(value)
                if m_tw < 1:
                    raise ValueError("must round to at least 1")
            elif var == "PcOverPfDb":
                p2 = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + value)
                check_scenario_levels(p2, dn, cfg)
            elif var == "AlphaFo":
                p2 = dataclasses.replace(p, alpha_fo=value)
            else:
                t_f = round(value)
                p2 = dataclasses.replace(p, t_f=t_f, u_f=1 if p.u_f == 1 else t_f)
        except ValueError as exc:  # SystemParams or the level check rejects the value
            raise click.BadParameter(f"{var} = {value!r}: {exc}", param_hint="'--sweep'") from None
        points.append((value, p2, dn, m_tw))
    return var, points


def _fmt(value: float | int | str | Enum) -> str:
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
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
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
        check_scenario_levels(p, cfg.d_norm, cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config {path}: {exc}")
    return p, cfg


def _writable_out(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """--out's check, made before any work. It creates nothing, so a run
    that fails later still writes nothing."""
    if path is None:
        return None
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "Not a directory" if os.path.exists(parent) else "No such file or directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "Permission denied"
    else:
        return path
    raise click.BadParameter(f"cannot write {path}: {reason}")


def _emit(out_path: str | None, text: str) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # what _writable_out cannot see: a full disk, a path gone since
        raise click.BadParameter(f"cannot write {out_path}: {exc.strerror}", param_hint="'--out'")


def _write_csv(out_path: str | None, rows: list[dict]) -> None:
    """Rows of column name -> value, all with the first row's names in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_fmt(v) for v in row.values()])
    _emit(out_path, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands


# the options that several subcommands share, declared once
_config_option = click.option("--config", "config_path", help="JSON config document.")
_out_option = click.option("--out", "out_path", callback=_writable_out,
                           help="Output file (default stdout).")
_sweep_option = click.option("--sweep", "sweep_text", required=True, help="var:start:stop:steps")


@click.group()
def main() -> None:
    """Two-tier network coverage: closed forms, sensing design, simulation."""


@main.command("analytic")
@_config_option
@_out_option
@_sweep_option
def cmd_analytic(config_path: str | None, out_path: str | None, sweep_text: str) -> None:
    """Closed-form coverage quantities along a parameter sweep."""
    p, cfg = _load_config(config_path)
    var, points = _sweep(sweep_text, p, cfg)
    lam_scenario = cfg.density(p)
    rows = []
    for value, p2, dn, _ in points:
        lam_f, regime = analytic.max_contention_density_femto(dn, p2)
        n_f = lam_f * math.pi * p2.r_c**2
        try:
            r_mu, r_one = analytic.su_mu_radius_ratios(p2)
        except ValueError:
            r_mu = r_one = math.nan
        rows.append({
            "variable": var, "value": repr(value), "d_norm": repr(dn), "t_f": p2.t_f, "u_f": p2.u_f,
            "alpha_fo": repr(p2.alpha_fo), "pc_over_pf_db": repr(p2.p_c_dbm - p2.p_f_dbm),
            "d_f_m": analytic.no_coverage_radius(p2),
            "lambda_star_femto": lam_f, "regime": regime,
            "n_f": n_f, "n_f_u_f": n_f * p2.u_f,
            "lambda_star_cellular": analytic.max_contention_density_cellular(dn, p2),
            "d_c_m": analytic.cellular_coverage_radius(lam_scenario, p2),
            "ase_bps_hz_m2": analytic.area_spectral_efficiency(lam_f, p2),
            "ratio_su_mu": r_mu, "ratio_su_single": r_one,
        })
    _write_csv(out_path, rows)


@main.command("sensing")
@_config_option
@_out_option
@_sweep_option
def cmd_sensing(config_path: str | None, out_path: str | None, sweep_text: str) -> None:
    """Sensing radii, power-ratio windows, and detector design along a sweep."""
    p, cfg = _load_config(config_path)
    var, points = _sweep(sweep_text, p, cfg)
    lam = cfg.density(p)
    rows = []
    for value, p2, dn, m_tw in points:
        d_sense = sensing.min_sensing_radius(dn, p2)
        try:
            lo_db, hi_db = sensing.power_ratio_bounds(dn, lam, p2)
            blend = sensing.blended_power_policy(lo_db, hi_db, cfg.blend_weight)
        except sensing.InfeasiblePlanError:
            lo_db = hi_db = blend = math.nan
        threshold = sensing.solve_threshold(m_tw, DETECTOR_P_FALSE)
        try:
            p_detect = sensing.detection_probability_sc(
                sensing.pilot_snr(d_sense, p2), m_tw, threshold, p2.t_f
            )
        except sensing.InfeasiblePlanError:  # t_f beyond the detector's reach
            p_detect = math.nan
        try:
            max_range = sensing.max_sensing_range(m_tw, DETECTOR_P_DETECT, DETECTOR_P_FALSE, p2)
        except sensing.InfeasiblePlanError:
            max_range = math.nan
        rows.append({
            "variable": var, "value": repr(value), "d_norm": repr(dn), "m_tw": m_tw,
            "d_sense_m": d_sense,
            "pc_over_pf_lb_db": lo_db, "pc_over_pf_ub_db": hi_db, "blend_db": blend,
            "threshold": threshold, "p_false": sensing.false_alarm_probability(m_tw, threshold),
            "p_detect_at_d_sense": p_detect, "max_range_m": max_range,
        })
    _write_csv(out_path, rows)


@main.command("simulate")
@_config_option
@_out_option
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
              help="Non-negative seed of the FullZF draws; FastChi2 echoes it.")
@click.option("--sweep", "sweep_text", default=None,
              help="Optional var:start:stop:steps sweep of D, PcOverPfDb, AlphaFo or TfUf.")
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
    """Monte Carlo outage and rate percentiles for the configured scenario;
    the config's scenario.channel_mode picks the channel mode."""
    from . import simulator  # here, not at the top: numpy loads only for the Monte Carlo
    p, cfg = _load_config(config_path)
    var, points = (_sweep(sweep_text, p, cfg) if sweep_text is not None
                   else ("D", [(cfg.d_norm, p, cfg.d_norm, DETECTOR_M_TW)]))
    if var == "Mtw":
        raise click.BadParameter("cannot sweep Mtw: the detector does not enter simulate",
                                 param_hint="'--sweep'")
    pct_grid = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]

    def row(value: float, p2: SystemParams, dn: float) -> dict:
        # a point's rate law is freed before the next point builds its own
        cfg_d = dataclasses.replace(cfg, d_norm=dn)
        try:
            res = simulator.simulate(cfg_d, drops, fades, p2, seed)
        except sensing.InfeasiblePlanError as exc:
            raise ConfigError(f"n_f_target = {cfg.n_f_target:g} femtocells (lambda_f = "
                              f"{cfg.density(p):.4g} per m^2) admits no carrier-sensed power "
                              f"plan at {var} = {value:g}: {exc}") from None
        return {
            "scenario": cfg_d.scenario, "d_norm": repr(dn), "t_f": p2.t_f, "u_f": p2.u_f,
            "alpha_fo": repr(p2.alpha_fo), "pc_over_pf_db": repr(p2.p_c_dbm - p2.p_f_dbm),
            "lambda_f": cfg_d.density(p), "n_drops": drops, "n_fades": fades, "seed": seed,
            "p_outage": res.p_outage, "ci_halfwidth_95": res.ci_halfwidth_95,
            **{f"rate_pct_{int(q)}": v for q, v in zip(pct_grid, res.percentiles(pct_grid))},
        }

    _write_csv(out_path, [row(value, p2, dn) for value, p2, dn, _ in points])


# ---------------------------------------------------------------------------
# validation suite


@main.command("validate")
@_config_option
@_out_option
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
              help="Non-negative seed of the sampled checks.")
def cmd_validate(config_path: str | None, out_path: str | None, seed: int) -> None:
    """Distribution, closure, and inversion checks; exit 1 on any failure."""
    from . import simulator  # here, not at the top: numpy loads only for the Monte Carlo
    p, cfg = _load_config(config_path)
    checks: list[dict] = []

    def record(name: str, passed: bool, value: float, bound: str) -> None:
        finite = value if math.isfinite(value) else None  # strict JSON has no NaN
        checks.append({"name": name, "passed": bool(passed), "value": finite, "bound": bound})

    n_ks = 100_000
    crit = KS_CRITICAL_1PCT / math.sqrt(n_ks)
    for name, stat in simulator.fade_ks_distances(p, seed, n_ks).items():
        record(name, stat < crit, stat, f"< {crit:.6f}")

    # each tier's closure: a Fixed-power field at its density cap holds the outage at eps
    for name, scenario, d_norm, cap, tol in (
        ("femto_closure_outage", Scenario.REFERENCE_HOTSPOT, 0.5,
         analytic.max_contention_density_femto(0.5, p)[0], 0.03),
        ("cellular_closure_outage", Scenario.REFERENCE_CELLULAR_USER, 0.8,
         analytic.max_contention_density_cellular(0.8, p), 0.02),
    ):
        cfg_cap = ScenarioConfig(
            scenario=scenario, d_norm=d_norm, power_policy=PowerPolicy.FIXED,
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
    # the smallest positive SNR, not 0: at 0 the detector returns P_fa without
    # evaluating its sum, so the check would compare P_fa with itself
    p_zero = sensing.detection_probability_sc(math.ulp(0.0), DETECTOR_M_TW, threshold, 1)
    record("detector_zero_snr_floor", abs(p_zero - p_fa) < 1e-12, p_zero,
           "== p_false")

    passed = all(c["passed"] for c in checks)
    _emit(out_path, json.dumps({"passed": passed, "checks": checks}, indent=2) + "\n")
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
