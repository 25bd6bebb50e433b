"""Each output check of the benchmark rejects a known-wrong value.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py

Right values are built with the checks' own scipy oracles (or from the
property a check states); each test then breaks one value and expects a
problem back.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from scipy import special

import checks
from checks import SystemParams

P = SystemParams()
LAM = 60.0 / (math.pi * P.r_c**2)


def _simulate_row(**overrides) -> dict:
    # cellular user at D = 0.8 with 10% of 1000 samples in outage
    row = {
        "scenario": "ReferenceCellularUser", "d_norm": 0.8, "seed": 7.0,
        "n_drops": 10.0, "n_fades": 100.0, "p_outage": 0.1,
        "rate_pct_1": 0.5, "rate_pct_5": 1.0, "rate_pct_10": 3.2,
        "rate_pct_25": 3.8, "rate_pct_50": 4.4, "rate_pct_75": 5.0,
        "rate_pct_90": 5.5, "rate_pct_95": 5.8, "rate_pct_99": 6.3,
    }
    row.update(overrides)
    return row


def test_percentiles_out_of_order_rejected():
    assert checks.check_percentiles_ordered(_simulate_row()) == []
    assert checks.check_percentiles_ordered(_simulate_row(rate_pct_50=3.7))


def test_outage_disagreeing_with_rate_cdf_rejected():
    g = P.gamma_target  # log2(1+G) = 2.06: between the 5- and 10-percentile
    assert checks.check_outage_matches_cdf(_simulate_row(), g) == []
    assert checks.check_outage_matches_cdf(_simulate_row(p_outage=0.02), g)
    assert checks.check_outage_matches_cdf(_simulate_row(p_outage=0.3), g)


def test_ten_percentile_off_paper_value_rejected():
    assert checks.check_paper_p10(_simulate_row(rate_pct_10=3.21), 0.8) == []
    assert checks.check_paper_p10(_simulate_row(rate_pct_10=3.21 + 0.3), 0.8)
    assert checks.check_paper_p10(_simulate_row(rate_pct_10=3.21 - 0.3), 0.8)
    # D = 1.0 has its own target, 2.22
    assert checks.check_paper_p10(_simulate_row(rate_pct_10=3.21), 1.0)
    assert checks.check_paper_p10(_simulate_row(rate_pct_10=3.21), 0.7)


def test_baseline_ten_percentile_too_high_rejected():
    assert checks.check_baseline_p10(_simulate_row(rate_pct_10=0.07)) == []
    assert checks.check_baseline_p10(_simulate_row(rate_pct_10=0.75))


def test_simulate_row_not_as_asked_rejected():
    assert checks.check_simulate_row(_simulate_row(), 0.8, 7, 10, 100) == []
    assert checks.check_simulate_row(_simulate_row(), 0.8, 8, 10, 100)
    assert checks.check_simulate_row(_simulate_row(), 0.8, 7, 20, 100)
    assert checks.check_simulate_row(_simulate_row(), 1.0, 7, 10, 100)
    assert checks.check_simulate_row(_simulate_row(p_outage=1.5), 0.8, 7, 10, 100)


@pytest.mark.parametrize("name, good, bad", [
    ("ks_marks", 0.003, 0.006),
    ("femto_closure_outage", 0.118, 0.14),
    ("cellular_closure_outage", 0.098, 0.125),
    ("power_window_inversion_floor", 1e-12, 2e-9),
    ("detector_cfar_threshold", 0.1 + 1e-9, 0.1 + 2e-6),
    ("detector_zero_snr_floor", 0.1, 0.09),
])
def test_validate_entry_outside_its_bound_rejected(name, good, bad):
    assert checks.check_validate_entry(name, good, True) == []
    assert checks.check_validate_entry(name, bad, False)
    # a report whose verdict disagrees with the bound is wrong too
    assert checks.check_validate_entry(name, bad, True)
    assert checks.check_validate_entry("unknown_check", good, True)


def test_sweep_row_off_its_point_rejected():
    row = {"value": 0.5, "d_norm": 0.5, "m_tw": 500.0}
    assert checks.check_sweep_row(row, 0.5, 0.5, 500) == []
    assert checks.check_sweep_row(row, 0.6, 0.5, 500)
    assert checks.check_sweep_row(row, 0.5, 0.6, 500)
    assert checks.check_sweep_row(row, 0.5, 0.5, 501)


def test_threshold_off_by_one_part_per_million_rejected():
    ref = float(special.gammainccinv(1000, 0.1))
    assert checks.check_threshold(500, ref) == []
    assert checks.check_threshold(500, ref * (1 + 1e-6))


def test_p_false_off_rejected():
    th = float(special.gammainccinv(1000, 0.1))
    assert checks.check_p_false(500, th, 0.1) == []
    assert checks.check_p_false(500, th, 0.1 + 1e-6)


def _max_range(m_tw: int, th: float, p: SystemParams) -> float:
    # bisect the scipy detector to P_detect = 0.9
    lo, hi = 1.0, 1e5
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        pd = checks.p_detect_oracle(checks.pilot_snr(mid, p), m_tw, th, p.t_f)
        lo, hi = (mid, hi) if pd >= 0.9 else (lo, mid)
    return lo


def test_max_range_off_rejected():
    th = float(special.gammainccinv(1000, 0.1))
    d = _max_range(500, th, P)
    assert checks.check_max_range(d, 500, th, P) == []
    assert checks.check_max_range(d * 1.01, 500, th, P)
    # NaN only where even a pilot at 1 mm is missed
    assert checks.check_max_range(math.nan, 500, th, P)


def test_p_detect_off_rejected():
    th = float(special.gammainccinv(1000, 0.1))
    ref = checks.p_detect_oracle(checks.pilot_snr(160.0, P), 500, th, P.t_f)
    assert checks.check_p_detect_at(ref, 160.0, 500, th, P) == []
    assert checks.check_p_detect_at(ref - 1e-5, 160.0, 500, th, P)


def test_min_sensing_radius_off_rejected():
    ref = checks.min_sensing_radius_oracle(1.0, P)
    assert checks.check_min_sensing_radius(ref, 1.0, P) == []
    assert checks.check_min_sensing_radius(ref * (1 + 1e-6), 1.0, P)


def test_power_window_off_rejected():
    lo, hi = checks.power_window_oracle(1.0, LAM, P)
    blend = 0.7 * hi + 0.3 * lo
    window = (lo, hi)
    assert checks.check_power_window(lo, hi, blend, 0.7, window) == []
    assert checks.check_power_window(lo + 1e-6, hi, blend, 0.7, window)
    assert checks.check_power_window(lo, hi, 0.5 * (lo + hi), 0.7, window)
    assert checks.check_power_window(math.nan, math.nan, math.nan, 0.7, window)
    # a dense field closes the window: only NaN is right there
    assert checks.power_window_oracle(1.0, 40 * LAM, P) is None
    assert checks.check_power_window(math.nan, math.nan, math.nan, 0.7, None) == []
    assert checks.check_power_window(lo, hi, blend, 0.7, None)


def test_window_width_drifting_with_d_rejected():
    widths = [hi - lo for lo, hi in (checks.power_window_oracle(d, LAM, P)
                                     for d in (0.2, 0.5, 1.0))]
    assert checks.check_window_width_constant(widths) == [[], [], []]
    drifting = [w + 0.01 * i for i, w in enumerate(widths)]
    assert any(checks.check_window_width_constant(drifting))


def test_max_range_not_increasing_rejected():
    assert checks.check_increasing([1.0, 2.0, 3.0], "max_range_m") == [[], [], []]
    assert any(checks.check_increasing([1.0, 2.0, 2.0], "max_range_m"))


def _analytic_row(d_norm: float, p: SystemParams = P) -> dict:
    want = checks.analytic_oracle(d_norm, p, LAM)
    return {
        "d_norm": d_norm, "d_f_m": want["d_f_m"],
        "lambda_star_femto": want["lambda_star_femto"], "regime": want["regime"],
        "lambda_star_cellular": want["lambda_star_cellular"], "d_c_m": want["d_c_m"],
        "ratio_su_mu": 0.57,
    }


def test_analytic_row_off_rejected():
    for d in (0.05, 0.5, 1.0):  # Infeasible, then feasible
        assert checks.check_analytic_row(_analytic_row(d), P, LAM) == []
    row = _analytic_row(0.5)
    for key in ("d_f_m", "lambda_star_femto", "lambda_star_cellular", "d_c_m"):
        assert checks.check_analytic_row({**row, key: row[key] * (1 + 1e-6)}, P, LAM)
    assert checks.check_analytic_row({**row, "regime": "Infeasible"}, P, LAM)
    assert checks.check_analytic_row({**row, "ratio_su_mu": math.nan}, P, LAM)
    # the ratios are NaN by design once the macro serves several users
    p_mu = dataclasses.replace(P, t_c=4, u_c=2)
    row_mu = {**_analytic_row(0.5, p_mu), "ratio_su_mu": math.nan}
    assert checks.check_analytic_row(row_mu, p_mu, LAM) == []


def test_cellular_density_scaling_broken_rejected():
    rows = [_analytic_row(d) for d in (0.3, 0.6, 0.9)]
    assert checks.check_cellular_density_scaling(rows, P) == [[], [], []]
    rows[2]["lambda_star_cellular"] *= 1.001
    assert any(checks.check_cellular_density_scaling(rows, P))


def test_coverage_radius_drifting_rejected():
    assert checks.check_constant([341.8, 341.8], "d_c_m") == [[], []]
    assert any(checks.check_constant([341.8, 341.9], "d_c_m"))
