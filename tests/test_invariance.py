"""Metamorphic checks: the model does not change when every transmit power
moves by the same number of dB. The macrocell's power P_c, the femtocells'
P_f and the user's pilot power p_ut rise by SHIFT_DB; the noise floor is
set from P_c (snr_edge_db of SNR at the cell edge), so it rises with them,
and the Fixed policy's femto power is P_c less a ratio. Every SINR, density
cap, radius and power window is then the same up to rounding, in all three
layers: the closed forms, FastChi2 and FullZF. The check guards any move of
the transmit power between a femtocell's geometry and its pricing."""

from __future__ import annotations

import dataclasses
import math

import pytest

from tiernet.analytic import (
    cellular_coverage_radius,
    max_contention_density_cellular,
    max_contention_density_femto,
    no_coverage_radius,
)
from tiernet.linkmodel import ChannelMode, PowerPolicy, Scenario, ScenarioConfig, SystemParams
from tiernet.sensing import (
    DETECTOR_M_TW,
    DETECTOR_P_DETECT,
    DETECTOR_P_FALSE,
    max_sensing_range,
    min_sensing_radius,
    power_ratio_bounds,
)
from tiernet.simulator import simulate

P = SystemParams()
SHIFTED = dataclasses.replace(
    P, p_c_dbm=P.p_c_dbm + 7.0, p_f_dbm=P.p_f_dbm + 7.0, p_ut_dbm=P.p_ut_dbm + 7.0
)
PCT_GRID = (1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)
# relative tolerances, each well above what the defaults show: the closed
# forms (bit for bit equal), FastChi2's p_outage and nine rate percentiles
# (at most 9.7·10⁻¹⁴ apart), and FullZF's at 20 drops × 50 fades, the same
# draws through the shifted powers (at most 4.1·10⁻¹⁶ apart)
CLOSED_RTOL = 1e-13
FAST_RTOL = 1e-12
FULL_RTOL = 1e-14
# the linear SINR target (30 dB) of the one sampled row whose outage at the
# default target is too rare for 20 × 50 samples: FastChi2 reads 0.124 there
RARE_OUTAGE_GAMMA = 1000.0


def _closed_forms(d_norm: float, p: SystemParams) -> list:
    """The closed forms at d_norm: both density caps (and the femto cap's
    regime), the no-coverage radius D_f, the cellular coverage radius D_c
    at 60 femtocells per cell, the minimum sensing radius, the power window
    in dB and the detector range."""
    lam_60 = 60.0 / (math.pi * p.r_c**2)
    lam_f, regime = max_contention_density_femto(d_norm, p)
    return [
        lam_f, regime, max_contention_density_cellular(d_norm, p), no_coverage_radius(p),
        cellular_coverage_radius(lam_60, p), min_sensing_radius(d_norm, p),
        *power_ratio_bounds(d_norm, lam_60, p),
        max_sensing_range(DETECTOR_M_TW, DETECTOR_P_DETECT, DETECTOR_P_FALSE, p),
    ]


@pytest.mark.parametrize("d_norm", [0.1, 0.3, 0.8, 1.0])
def test_power_shift_leaves_closed_forms(d_norm):
    base, shifted = _closed_forms(d_norm, P), _closed_forms(d_norm, SHIFTED)
    assert shifted[1] == base[1]
    assert shifted[:1] + shifted[2:] == pytest.approx(base[:1] + base[2:], rel=CLOSED_RTOL)


def _row(cfg: ScenarioConfig, p: SystemParams, n_drops: int, n_fades: int) -> list[float]:
    res = simulate(cfg, n_drops, n_fades, p, seed=11)
    return [res.p_outage, *res.percentiles(PCT_GRID)]


@pytest.mark.parametrize("policy", list(PowerPolicy))
@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize(
    ("mode", "rtol"), [(ChannelMode.FAST_CHI2, FAST_RTOL), (ChannelMode.FULL_ZF, FULL_RTOL)],
    ids=["FastChi2", "FullZF"],
)
def test_power_shift_leaves_simulated_rows(mode, rtol, scenario, policy):
    """p_outage and the nine rate percentiles of a row at D = 0.8 with noise,
    exact (FastChi2) or sampled at 20 drops × 50 fades (FullZF). The
    sampled hotspot under Fixed takes a 30 dB target: at the default 5 dB
    its exact outage is 0.0055, which 1000 samples mostly read as 0."""
    cfg = ScenarioConfig(
        scenario=scenario, power_policy=policy, d_norm=0.8, n_f_target=60.0, channel_mode=mode
    )
    p, p_shifted = P, SHIFTED
    if (mode, scenario, policy) == (
        ChannelMode.FULL_ZF, Scenario.REFERENCE_HOTSPOT, PowerPolicy.FIXED
    ):
        p, p_shifted = (
            dataclasses.replace(x, gamma_target=RARE_OUTAGE_GAMMA) for x in (P, SHIFTED)
        )
    base, shifted = _row(cfg, p, 20, 50), _row(cfg, p_shifted, 20, 50)
    assert 0.0 < base[0] < 1.0
    assert shifted == pytest.approx(base, rel=rtol, abs=0.0)
