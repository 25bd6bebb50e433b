"""Sensing design: radii, power windows, and the energy detector."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.special as sp

from tiernet.analytic import max_contention_density_cellular, shot_noise_c_f
from tiernet.linkmodel import SystemParams, linear_to_db, location_coeffs, noise_floor_dbm
from tiernet.sensing import (
    InfeasiblePlanError,
    blended_power_policy,
    detection_probability_sc,
    false_alarm_probability,
    max_sensing_range,
    min_sensing_radius,
    pilot_snr,
    power_ratio_bounds,
    solve_threshold,
)
from tiernet import sensing, simulator
from tiernet.simulator import PowerPolicy, ScenarioConfig
from tiernet.specfun import reg_gamma, reg_inc_beta

P = SystemParams()
LAMBDA_60 = 60.0 / (math.pi * P.r_c**2)


def test_min_sensing_radius_frozen():
    assert min_sensing_radius(1.0, P) == pytest.approx(161.810506715, abs=1e-6)


def test_min_sensing_radius_scales_with_macro_distance():
    # with alpha_c = alpha_fo the radius is linear in D
    assert min_sensing_radius(0.5, P) == pytest.approx(
        min_sensing_radius(1.0, P) / 2.0, rel=1e-12
    )


def test_one_interferer_at_sensing_radius_hits_outage_budget():
    """A single femtocell at exactly the minimum sensing radius from a
    cell-edge user drives that user's outage to eps."""
    d_sense = min_sensing_radius(1.0, P)
    # one femtocell at the nominal 23 dBm, d_sense outward from the user
    cfg = ScenarioConfig(d_norm=1.0, power_policy=PowerPolicy.FIXED, include_noise=False)
    link, weights = simulator._run(cfg, P)
    w = weights(np.array([(d_sense / P.r_c) ** 2]), np.array([0.0]))
    rng = np.random.default_rng(90125)
    n = 1_000_000
    desired = rng.gamma(P.t_c - P.u_c + 1, 1.0, size=n)
    marks = rng.gamma(P.u_f, 1.0, size=(n, 1))
    sir = link.sinr(desired, np.zeros(n), marks, w)
    outage = float(np.mean(sir < P.gamma_target))
    assert outage == pytest.approx(P.eps, abs=0.005)


def test_power_ratio_bounds_frozen_at_cell_edge():
    lo_db, hi_db = power_ratio_bounds(1.0, LAMBDA_60, P)
    assert lo_db == pytest.approx(37.7161749754, abs=1e-6)
    assert hi_db == pytest.approx(57.2650912002, abs=1e-6)


def test_power_ratio_gap_constant_in_distance():
    gaps = []
    for d_norm in (0.3, 0.5, 0.8, 1.0):
        lo_db, hi_db = power_ratio_bounds(d_norm, LAMBDA_60, P)
        gaps.append(hi_db - lo_db)
    assert max(gaps) - min(gaps) < 0.01
    assert gaps[0] == pytest.approx(19.5489162248, abs=1e-6)


def test_power_floor_inverts_cellular_density_cap():
    """Setting P_c/P_f to the window floor makes the cellular-side density
    cap exactly the design density."""
    for d_norm in (0.4, 1.0):
        lo_db, _ = power_ratio_bounds(d_norm, LAMBDA_60, P)
        p_lo = dataclasses.replace(P, p_c_dbm=P.p_f_dbm + lo_db)
        lam_back = max_contention_density_cellular(d_norm, p_lo)
        assert lam_back == pytest.approx(LAMBDA_60, rel=1e-9)


def test_power_ceiling_inverts_femto_cap_with_worst_case_correction():
    delta = 2.0 / P.alpha_fo
    k_max = (P.t_f - P.u_f + 1) ** delta * math.gamma(1.0 - delta)
    for d_norm in (0.4, 1.0):
        _, hi_db = power_ratio_bounds(d_norm, LAMBDA_60, P)
        p_hi = dataclasses.replace(P, p_c_dbm=P.p_f_dbm + hi_db)
        loc = location_coeffs(d_norm, p_hi)
        macro_term = reg_inc_beta(
            loc.kappa / (loc.kappa + 1.0), P.t_f - P.u_f + 1, P.u_c
        )
        lam_back = (
            (P.eps - macro_term)
            / (1.0 / k_max - macro_term)
            / (shot_noise_c_f(P) * (loc.q_f * P.gamma_target) ** delta)
        )
        assert lam_back == pytest.approx(LAMBDA_60, rel=1e-9)


def test_blended_power_policy():
    window = power_ratio_bounds(1.0, LAMBDA_60, P)
    lo_db, hi_db = window
    assert blended_power_policy(*window, 0.0) == pytest.approx(lo_db)
    assert blended_power_policy(*window, 1.0) == pytest.approx(hi_db)
    assert blended_power_policy(*window, 0.7) == pytest.approx(51.4004163328, abs=1e-6)
    with pytest.raises(ValueError):
        blended_power_policy(*window, 1.2)


def test_power_window_infeasible_when_load_too_high():
    with pytest.raises(InfeasiblePlanError):
        power_ratio_bounds(1.0, 0.01, P)  # shot-noise load >= 1
    with pytest.raises(InfeasiblePlanError):
        power_ratio_bounds(1.0, 5e-4, P)  # load eats the whole outage budget


@pytest.mark.parametrize("lambda_f", [0.0, -1e-6])
def test_power_window_infeasible_without_femtocells(lambda_f):
    """No femtocells leave the floor undefined: an infeasible plan, which
    every caller already handles, not a bare ValueError."""
    with pytest.raises(InfeasiblePlanError, match="without femtocells"):
        power_ratio_bounds(1.0, lambda_f, P)


def test_noise_floor_frozen():
    assert noise_floor_dbm(P) == pytest.approx(-111.03089987, abs=1e-6)


def test_pilot_snr_budget():
    # 20 dBm pilot, indoor wall, outdoor slope, referenced to the noise floor
    assert linear_to_db(pilot_snr(1.0, P)) == pytest.approx(98.0, abs=1e-4)
    assert linear_to_db(pilot_snr(10.0, P)) == pytest.approx(98.0 - 38.0, abs=1e-4)
    with pytest.raises(ValueError):
        pilot_snr(0.0, P)


def test_threshold_solves_false_alarm_target():
    for m in (1, 10, 500):
        lam = solve_threshold(m, 0.1)
        assert false_alarm_probability(m, lam) == pytest.approx(0.1, abs=1e-9)
    assert solve_threshold(500, 0.1) == pytest.approx(1040.73430801, abs=1e-4)


@pytest.mark.parametrize("m", [100, 500, 10_000])
def test_threshold_newton_cost_and_accuracy(monkeypatch, m):
    calls = []

    def counted(m_tw, threshold):
        calls.append(threshold)
        return false_alarm_probability(m_tw, threshold)

    monkeypatch.setattr(sensing, "false_alarm_probability", counted)
    lam = solve_threshold.__wrapped__(m, 0.1)
    assert len(calls) <= 8
    # the uniform expansion carries ~1e-15 relative rounding at every m (the
    # continued fraction's prefactor left ~3e-11 at m = 10^4)
    assert abs(false_alarm_probability(m, lam) / 0.1 - 1.0) <= 1e-12


def _oracle_detection_probability(snr_db, m, lam, t_f):
    # Digham-Alouini-Simon selection combining, every incomplete gamma from scipy
    gbar = 10.0 ** (snr_db / 10.0)
    a = 2 * m - 1
    total = 0.0
    for i in range(t_f):
        u = m * gbar / (i + 1)
        ln_p = math.log(sp.gammainc(a, lam * u / (1.0 + u)))
        ln_tail = -lam / (1.0 + u) + a * math.log1p(1.0 / u) + ln_p
        weight = (-1.0) ** i * math.comb(t_f - 1, i) / (i + 1)
        total += weight * (sp.gammaincc(a, lam) + math.exp(ln_tail))
    return t_f * total


@pytest.mark.parametrize("t_f", [1, 2, 4])
@pytest.mark.parametrize("m", [100, 500, 10_000])
def test_detection_snr_newton_cost_and_accuracy(monkeypatch, m, t_f):
    """Newton starts at 8 − 5·log10(m) dB, as the SNR the detector needs
    falls 5 dB per decade of m, and takes at most 8 detector evaluations
    (11 at m = 10⁴, t_f = 4 from 0 dB, where P_d is already 1 − 6·10⁻⁷ and
    the first steps bisect)."""
    lam = solve_threshold(m, 0.1)
    calls, evaluations = [], []

    def counting(fn, log, counted_if=lambda *args: True):
        def counted(*args):
            if counted_if(*args):
                log.append(args)
            return fn(*args)

        return counted

    # one lower incomplete gamma (shape 2m − 1) per branch and evaluation,
    # or below u = 1 its series sum alone
    monkeypatch.setattr(
        sensing, "reg_gamma", counting(reg_gamma, calls, lambda a, x: a == 2 * m - 1)
    )
    monkeypatch.setattr(sensing, "_lower_gamma_sum", counting(sensing._lower_gamma_sum, calls))
    monkeypatch.setattr(sensing, "_excess", counting(sensing._excess, evaluations))
    snr_db = sensing._detection_snr_db.__wrapped__(m, lam, 0.9, t_f)
    assert len(calls) <= 12 * t_f
    assert len(evaluations) <= 8
    assert _oracle_detection_probability(snr_db, m, lam, t_f) == pytest.approx(0.9, abs=1e-9)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: false_alarm_probability(0, 1.0), "m_tw must be >= 1"),
        (lambda: false_alarm_probability(10, -1.0), "threshold must be nonnegative"),
        (lambda: detection_probability_sc(1.0, 10, 20.0, 0), "t_f must be >= 1"),
        (lambda: detection_probability_sc(-1.0, 10, 20.0, 1), "gamma_bar must be nonnegative"),
        (lambda: solve_threshold(10, 1.0), "p_false_target must lie in"),
        (lambda: max_sensing_range(10, 0.0, 0.1, P), "p_detect_target must lie in"),
    ],
    ids=["m_tw", "threshold", "t_f", "gamma_bar", "p_false", "p_detect"],
)
def test_detector_domain_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("t_f", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 100, 500])
def test_detection_floor_meets_false_alarm(m, t_f):
    """The floor Q(2m−1, λ) is added once; as γ̄ → 0 each branch adds the
    Gamma(2m) density at λ and the weights sum to one, giving Q(2m, λ). Near
    0 the bound is `validate`'s, as t_f = 4 alternates four ~1e-2 tails."""
    lam = solve_threshold(m, 0.1)
    p_false = false_alarm_probability(m, lam)
    assert detection_probability_sc(0.0, m, lam, t_f) == pytest.approx(p_false, abs=1e-13)
    assert detection_probability_sc(1e-15, m, lam, t_f) == pytest.approx(p_false, abs=1e-12)


@pytest.mark.parametrize("t_f", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 500, 10_000])
@pytest.mark.parametrize("gamma_bar", [1e-300, 1e-310, 1e-320])
def test_detection_at_vanishing_snr_is_false_alarm(gamma_bar, m, t_f):
    """At an average SNR down to subnormal, where 1/(m·γ̄) overflows, the
    detector still reads the false-alarm probability, and its slope in dB
    is finite and non-negative."""
    lam = solve_threshold(m, 0.1)
    p_false = false_alarm_probability(m, lam)
    assert detection_probability_sc(gamma_bar, m, lam, t_f) == pytest.approx(p_false, abs=1e-12)
    slope = sensing._excess(gamma_bar, m, lam, t_f)[1]
    assert 0.0 <= slope < 1e-12


def test_detection_probability_zero_snr_is_false_alarm():
    lam = solve_threshold(500, 0.1)
    assert detection_probability_sc(0.0, 500, lam, 1) == pytest.approx(
        false_alarm_probability(500, lam), abs=1e-12
    )


def test_detection_probability_limits_and_monotonicity():
    lam = solve_threshold(100, 0.1)
    gbars = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
    vals = [detection_probability_sc(g, 100, lam, 1) for g in gbars]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.97
    assert all(0.0 <= v <= 1.0 for v in vals)
    # tighter threshold detects less; a zero threshold passes every energy
    assert detection_probability_sc(0.01, 100, lam * 1.2, 1) < vals[2]
    assert detection_probability_sc(0.01, 100, 0.0, 2) == 1.0


def test_selection_combining_reduces_to_single_branch():
    """The strongest of two Exp(1) fades has density 2e^(−x) − 2e^(−2x), so
    two branches detect 2·P₁(γ̄) − P₁(γ̄/2), P₁ the single-branch detector,
    and more than one branch does."""
    lam = solve_threshold(200, 0.1)
    for g in (0.01, 0.1):
        one = detection_probability_sc(g, 200, lam, 1)
        two = detection_probability_sc(g, 200, lam, 2)
        assert two == pytest.approx(2.0 * one - detection_probability_sc(g / 2, 200, lam, 1),
                                    rel=1e-12)
        assert two > one


def test_detector_closed_forms_match_monte_carlo():
    """Energy statistic: Gamma(2m,1) under noise only; with a Rayleigh-faded
    pilot, noncentral chi-squared (4m dof, noncentrality 2m*gbar*x) on the
    half scale. Selection combining takes the best of t_f pilot branches."""
    m = 500
    lam = solve_threshold(m, 0.1)
    rng = np.random.default_rng(2026)
    n = 1_000_000
    y0 = rng.gamma(2 * m, 1.0, size=n)
    assert np.mean(y0 > lam) == pytest.approx(0.1, abs=0.005)
    for gbar in (0.012, 0.05):
        x = rng.exponential(1.0, size=n)
        y1 = 0.5 * rng.noncentral_chisquare(4 * m, 2 * m * gbar * x, size=n)
        assert np.mean(y1 > lam) == pytest.approx(
            detection_probability_sc(gbar, m, lam, 1), abs=0.005
        )
    gbar = 0.012
    x_sc = np.maximum(rng.exponential(1.0, size=n), rng.exponential(1.0, size=n))
    y2 = 0.5 * rng.noncentral_chisquare(4 * m, 2 * m * gbar * x_sc, size=n)
    assert np.mean(y2 > lam) == pytest.approx(
        detection_probability_sc(gbar, m, lam, 2), abs=0.005
    )


def test_max_sensing_range_frozen():
    assert max_sensing_range(500, 0.9, 0.1, P) == pytest.approx(544.280045542, abs=1e-3)


def test_max_sensing_range_grows_with_integration_time():
    r100 = max_sensing_range(100, 0.9, 0.1, P)
    r900 = max_sensing_range(900, 0.9, 0.1, P)
    assert r100 < r900


def test_max_sensing_range_detects_at_boundary():
    m, p_d, p_fa = 300, 0.9, 0.1
    r = max_sensing_range(m, p_d, p_fa, P)
    lam = solve_threshold(m, p_fa)
    assert detection_probability_sc(pilot_snr(r, P), m, lam, P.t_f) == pytest.approx(
        p_d, abs=1e-6
    )


def test_max_sensing_range_scales_with_pilot_power():
    """The detector needs one SNR; a pilot Δ dB stronger reaches it
    10^(Δ/(10·alpha_c)) times farther."""
    r = max_sensing_range(500, 0.9, 0.1, P)
    for delta_db in (-7.5, 3.0, 10.0):
        louder = dataclasses.replace(P, p_ut_dbm=P.p_ut_dbm + delta_db)
        assert max_sensing_range(500, 0.9, 0.1, louder) == pytest.approx(
            r * 10.0 ** (delta_db / (10.0 * P.alpha_c)), rel=1e-12
        )


def test_max_sensing_range_infeasible_target():
    # detection probability never drops below the false-alarm floor, so a
    # target at or under it has no finite crossing distance
    with pytest.raises(InfeasiblePlanError):
        max_sensing_range(500, 0.09, 0.1, P)

