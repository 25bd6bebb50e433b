"""Closed-form coverage quantities: frozen values, inverses, and regime behavior."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.special as sp

from tiernet.analytic import (
    Regime,
    area_spectral_efficiency,
    cellular_coverage_radius,
    femto_density_cap,
    k_c,
    k_correction_bounds,
    k_f_limit,
    max_contention_density_cellular,
    max_contention_density_femto,
    no_coverage_radius,
    shot_noise_c_f,
    shot_noise_k_f,
    su_mu_radius_ratios,
)
from tiernet.linkmodel import SystemParams, db_to_linear, link_budget, location_coeffs
from tiernet.sensing import InfeasiblePlanError, power_ratio_bounds
from tiernet.specfun import inv_reg_inc_beta

P = SystemParams()
AREA = math.pi * P.r_c**2


def test_shot_noise_coefficient_frozen():
    assert shot_noise_c_f(P) == pytest.approx(5.2123313865, abs=1e-9)
    assert shot_noise_c_f(dataclasses.replace(P, t_f=2, u_f=2)) == pytest.approx(
        5.5238207402, abs=1e-9
    )


def test_shot_noise_coefficient_single_stream_closed_form():
    # u_f = 1 collapses to pi*delta*B(delta, 1-delta) = pi^2*delta/sin(pi*delta)
    delta = 2.0 / P.alpha_fo
    assert shot_noise_c_f(P) == pytest.approx(
        math.pi**2 * delta / math.sin(math.pi * delta), rel=1e-12
    )


@pytest.mark.parametrize("u_f", [1, 2, 3, 4])
def test_shot_noise_coefficient_matches_paper_sum(u_f):
    """The closed form pi·u^(-delta)·Γ(u+delta)·Γ(1-delta)/Γ(u) against the
    paper's sum pi·delta·u^(-delta)·sum_k C(u,k)·B(k+delta, u-k-delta),
    with scipy's beta as the oracle, for alpha_fo across (2, 7)."""
    for alpha_fo in np.linspace(2.02, 6.98, 63):
        p = dataclasses.replace(P, t_f=4, u_f=u_f, alpha_fo=float(alpha_fo))
        delta = 2.0 / p.alpha_fo
        paper = math.pi * delta * u_f**-delta * sum(
            math.comb(u_f, k) * sp.beta(k + delta, u_f - k - delta) for k in range(u_f)
        )
        assert shot_noise_c_f(p) == pytest.approx(paper, rel=1e-13), alpha_fo


def test_cellular_correction_frozen():
    assert k_c(P) == pytest.approx(3.4746707194, abs=1e-9)
    lo, hi = k_correction_bounds(P.t_c, P.u_c, P)
    assert lo == pytest.approx(2.0743100889, abs=1e-9)
    assert hi == pytest.approx(3.8784156930, abs=1e-9)
    assert lo <= k_c(P) <= hi


def test_k_corrections_within_bounds_full_grid():
    """Both limit corrections respect the closed-form sandwich for every
    antenna/user combination up to 8."""
    for t in range(1, 9):
        for u in range(1, t + 1):
            lo, hi = k_correction_bounds(t, u, P)
            kf = k_f_limit(dataclasses.replace(P, t_f=t, u_f=u))
            kc = k_c(dataclasses.replace(P, t_c=t, u_c=u))
            assert lo - 1e-12 <= kf <= hi + 1e-12, (t, u, kf, lo, hi)
            assert kc == pytest.approx(kf, rel=1e-12)  # same (t-u) dependence
    for t, u in ((2, 0), (2, 3)):
        with pytest.raises(ValueError, match="1 <= u <= t"):
            k_correction_bounds(t, u, P)


def test_k_f_interpolates_between_limit_and_one():
    kappas = [0.0, 1e-3, 0.1, 1.0, 10.0, 1e4]
    vals = [shot_noise_k_f(k, P) for k in kappas]
    assert vals[0] == pytest.approx(k_f_limit(P), rel=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)
    assert all(a >= b for a, b in zip(vals, vals[1:]))  # decreasing toward 1
    assert all(1.0 <= v <= k_f_limit(P) + 1e-12 for v in vals)
    with pytest.raises(ValueError, match="kappa"):
        shot_noise_k_f(-1e-9, P)


def test_k_f_equals_one_when_fully_loaded():
    pmu = dataclasses.replace(P, t_f=2, u_f=2)
    for kappa in (0.0, 0.5, 7.0):
        assert shot_noise_k_f(kappa, pmu) == 1.0


def test_no_coverage_radius_frozen():
    assert no_coverage_radius(P) == pytest.approx(103.902906023, abs=1e-6)


def test_no_coverage_radius_matches_density_feasibility():
    # the infeasible regime ends exactly at the no-coverage radius
    d_star = no_coverage_radius(P) / P.r_c
    lam_in, reg_in = max_contention_density_femto(d_star * (1.0 - 1e-9), P)
    lam_out, reg_out = max_contention_density_femto(d_star * (1.0 + 1e-9), P)
    assert reg_in is Regime.INFEASIBLE and lam_in == 0.0
    assert reg_out is not Regime.INFEASIBLE and lam_out > 0.0


def test_su_mu_radius_ratios_frozen():
    r_mu, r_one = su_mu_radius_ratios(P)
    assert r_mu == pytest.approx(0.572531947301, abs=1e-9)
    assert r_one == pytest.approx(0.687097147001, abs=1e-9)
    with pytest.raises(ValueError):
        su_mu_radius_ratios(dataclasses.replace(P, u_c=2))


def test_su_mu_ratio_matches_radius_recursion():
    # the MU ratio equals the SU-vs-single ratio with the power split folded in
    r_mu, r_one = su_mu_radius_ratios(P)
    assert r_mu == pytest.approx(r_one * P.t_f ** (-1.0 / P.alpha_c), rel=1e-12)


def test_femto_density_regime_walk():
    expected = {
        0.05: Regime.INFEASIBLE,
        0.11: Regime.CELLULAR_LIMITED,
        0.3: Regime.HOTSPOT_LIMITED,
        0.9: Regime.HOTSPOT_LIMITED,
    }
    for d_norm, want in expected.items():
        lam, reg = max_contention_density_femto(d_norm, P)
        assert reg is want
        assert (lam == 0.0) == (want is Regime.INFEASIBLE)


def test_regime_boundary_is_half_the_outage_budget():
    """CellularLimited is where the macrocell alone takes at least half the
    outage budget, I(kappa) >= eps/2. kappa falls as D^(-alpha_c), so the
    boundary is the no-coverage radius's formula at eps/2: at the defaults
    the CellularLimited ring runs from D_f = 103.903 m to 117.694 m."""
    assert no_coverage_radius(P) == pytest.approx(103.903, abs=1e-3)
    y = inv_reg_inc_beta(P.eps / 2.0, P.t_f - P.u_f + 1, P.u_c)
    kappa_edge = location_coeffs(1.0, P).kappa
    d_b = P.r_c * (kappa_edge * (1.0 - y) / y) ** (1.0 / P.alpha_c)
    assert d_b == pytest.approx(117.694, abs=1e-3)
    assert max_contention_density_femto(d_b / P.r_c * (1.0 - 1e-9), P)[1] is (
        Regime.CELLULAR_LIMITED
    )
    assert max_contention_density_femto(d_b / P.r_c * (1.0 + 1e-9), P)[1] is (
        Regime.HOTSPOT_LIMITED
    )
    for d_norm, want in (
        (0.1039, Regime.INFEASIBLE),
        (0.1040, Regime.CELLULAR_LIMITED),
        (0.1176, Regime.CELLULAR_LIMITED),
        (0.1178, Regime.HOTSPOT_LIMITED),
    ):
        assert max_contention_density_femto(d_norm, P)[1] is want


def test_femto_density_plateau_near_cell_edge():
    """Far from the macrocell the cap converges to the hotspot-limited
    plateau eps*K_limit / (C_f (q_f Gamma)^delta)."""
    delta = 2.0 / P.alpha_fo
    loc = location_coeffs(1.0, P)
    plateau = (
        P.eps * k_f_limit(P) / (shot_noise_c_f(P) * (loc.q_f * P.gamma_target) ** delta)
    )
    lam, reg = max_contention_density_femto(1.0, P)
    assert reg is Regime.HOTSPOT_LIMITED
    assert lam == pytest.approx(plateau, rel=1e-3)


def test_femto_density_vanishes_at_feasibility_edge():
    d_star = no_coverage_radius(P) / P.r_c
    lam_near, _ = max_contention_density_femto(d_star * (1.0 + 1e-7), P)
    lam_far, _ = max_contention_density_femto(d_star * 1.05, P)
    assert 0.0 < lam_near < lam_far * 1e-4


def test_cellular_density_and_radius_invert():
    for d_norm in (0.15, 0.35, 0.8, 1.0):
        lam = max_contention_density_cellular(d_norm, P)
        assert cellular_coverage_radius(lam, P) == pytest.approx(
            d_norm * P.r_c, rel=1e-9
        )


def test_coverage_radius_power_slope():
    """Log-log slope of D_c against P_f/P_c is exactly -1/alpha_c."""
    lam = 60.0 / AREA
    base = cellular_coverage_radius(lam, P)
    for dbm in (33.0, 38.0, 53.0):
        p2 = dataclasses.replace(P, p_c_dbm=dbm)
        d2 = cellular_coverage_radius(lam, p2)
        dx = math.log10(10 ** ((P.p_f_dbm - dbm) / 10)) - math.log10(
            10 ** ((P.p_f_dbm - P.p_c_dbm) / 10)
        )
        slope = (math.log10(d2) - math.log10(base)) / dx
        assert slope == pytest.approx(-1.0 / P.alpha_c, rel=1e-9)


def test_equal_power_density_caps_su_vs_mu():
    """With equal tier powers at D = 0.1 R_c the cellular-side caps sit near
    62 (single macro user) and 8.6 (four macro users)."""
    p_eq = dataclasses.replace(P, p_c_dbm=P.p_f_dbm)
    n_su = max_contention_density_cellular(0.1, p_eq) * AREA
    p_mu = dataclasses.replace(p_eq, u_c=4)
    n_mu = max_contention_density_cellular(0.1, p_mu) * AREA
    assert n_su == pytest.approx(62.0, rel=0.10)
    assert n_mu == pytest.approx(8.0, rel=0.10)
    assert 7.0 <= n_su / n_mu <= 8.5
    # the ratio is exactly K_c(SU)/K_c(MU) * u_c^delta
    predicted = k_c(p_eq) / k_c(p_mu) * 4 ** (2.0 / P.alpha_fo)
    assert n_su / n_mu == pytest.approx(predicted, rel=1e-12)


def test_coverage_radius_su_vs_mu_at_60_femtocells():
    lam = 60.0 / AREA
    assert cellular_coverage_radius(lam, P) / P.r_c == pytest.approx(0.342, abs=0.005)
    p_mu = dataclasses.replace(P, u_c=4)
    assert cellular_coverage_radius(lam, p_mu) / P.r_c == pytest.approx(0.127, abs=0.005)


def test_spatial_reuse_plateau_su_vs_mu():
    lam_su, _ = max_contention_density_femto(0.9, P)
    p_mu = dataclasses.replace(P, t_f=2, u_f=2)
    lam_mu, _ = max_contention_density_femto(0.9, p_mu)
    assert lam_su * AREA * P.u_f == pytest.approx(1085.0, rel=0.01)
    assert lam_mu * AREA * p_mu.u_f == pytest.approx(672.0, rel=0.01)


def test_area_spectral_efficiency():
    lam = 1e-4
    want = 0.9 * P.u_f * lam * math.log2(1.0 + P.gamma_target)
    assert area_spectral_efficiency(lam, P) == pytest.approx(want, rel=1e-12)
    assert area_spectral_efficiency(0.0, P) == 0.0
    with pytest.raises(ValueError):
        area_spectral_efficiency(-1e-9, P)


def test_density_cap_monotone_in_outage_budget():
    lams = []
    for eps in (0.05, 0.1, 0.2):
        lam, _ = max_contention_density_femto(0.5, dataclasses.replace(P, eps=eps))
        lams.append(lam)
    assert lams[0] < lams[1] < lams[2]


def test_radius_without_femtocells_is_its_limit():
    """lambda_f = 0 is the limit of D_c as the density falls, inf; a
    negative density is still rejected."""
    assert cellular_coverage_radius(0.0, P) == math.inf
    with pytest.raises(ValueError):
        cellular_coverage_radius(-1e-6, P)


# ---------------------------------------------------------------------------
# the inversions as rescalings of location_coeffs, away from the defaults


def _design_grid(n: int = 30) -> list[SystemParams]:
    """Seeded design points with three different path-loss exponents
    (continuous draws), unequal powers (disjoint ranges), and varied walls,
    home radii and antenna counts."""
    rng = np.random.default_rng(20091)
    grid = []
    for _ in range(n):
        t_c, t_f = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        grid.append(SystemParams(
            eps=float(rng.uniform(0.05, 0.2)),
            r_f=float(rng.uniform(10.0, 60.0)),
            t_c=t_c, u_c=int(rng.integers(1, t_c + 1)),
            t_f=t_f, u_f=int(rng.integers(1, t_f + 1)),
            p_c_dbm=float(rng.uniform(35.0, 50.0)), p_f_dbm=float(rng.uniform(5.0, 25.0)),
            wall_db=float(rng.uniform(0.0, 20.0)),
            alpha_c=float(rng.uniform(2.5, 4.5)), alpha_fo=float(rng.uniform(2.2, 5.0)),
            alpha_fi=float(rng.uniform(2.1, 4.0)),
        ))
    return grid


GRID = _design_grid()


def _explicit_no_coverage_radius(p):
    # D_f with the link budget written out
    lb = link_budget(p)
    y = inv_reg_inc_beta(p.eps, p.t_f - p.u_f + 1, p.u_c)
    k = (lb.a_fi / lb.a_fc) * p.r_f ** (-p.alpha_fi)
    pf_over_pc = db_to_linear(p.p_f_dbm - p.p_c_dbm)
    val = (k / p.gamma_target) * (pf_over_pc * p.u_c / p.u_f) * y / (1.0 - y)
    return val ** (-1.0 / p.alpha_c)


def _explicit_coverage_radius(lambda_f, p):
    # D_c with the link budget written out
    delta, lb = 2.0 / p.alpha_fo, link_budget(p)
    pc_over_pf = db_to_linear(p.p_c_dbm - p.p_f_dbm)
    prefix = (pc_over_pf * (lb.a_c / lb.a_cf) / (p.gamma_target * p.u_c)) ** (1.0 / p.alpha_c)
    return prefix * (p.eps * k_c(p) / (lambda_f * shot_noise_c_f(p))) ** (
        1.0 / (delta * p.alpha_c)
    )


def _explicit_window(d_norm, lambda_f, p):
    """(floor, ceiling) as linear P_c/P_f with the link budget written out,
    and kappa* at the effective outage budget."""
    delta, g, lb = 2.0 / p.alpha_fo, p.gamma_target, link_budget(p)
    d, c_f = d_norm * p.r_c, shot_noise_c_f(p)
    floor = (g * (lb.a_cf / lb.a_c) * p.u_c * d**p.alpha_c
             * (c_f * lambda_f / (p.eps * k_c(p))) ** (1.0 / delta))
    load = lambda_f * c_f * (location_coeffs(d_norm, p).q_f * g) ** delta
    k_max = k_correction_bounds(p.t_f, p.u_f, p)[1]
    y = inv_reg_inc_beta((p.eps - load / k_max) / (1.0 - load), p.t_f - p.u_f + 1, p.u_c)
    kappa_star = y / (1.0 - y)
    ceiling = (kappa_star * p.u_c * (lb.a_fi / lb.a_fc) * d**p.alpha_c
               / (g * p.u_f * p.r_f**p.alpha_fi))
    return floor, ceiling, kappa_star


def test_no_coverage_radius_rescales_kappa_at_any_design_point():
    """kappa at D_f is kappa* = y/(1−y), and D_f is the explicit formula."""
    checked = 0
    for p in GRID:
        d_f = no_coverage_radius(p)
        if not 0.0 < d_f <= p.r_c:
            continue
        y = inv_reg_inc_beta(p.eps, p.t_f - p.u_f + 1, p.u_c)
        assert location_coeffs(d_f / p.r_c, p).kappa == pytest.approx(y / (1.0 - y), rel=1e-12)
        assert d_f == pytest.approx(_explicit_no_coverage_radius(p), rel=1e-13)
        checked += 1
    assert checked >= 20


def test_coverage_radius_rescales_cellular_cap_at_any_design_point():
    """The cellular cap at D_c is the density asked for, and D_c is the
    explicit formula."""
    rng = np.random.default_rng(5)
    checked = 0
    for p in GRID:
        lam = float(rng.uniform(5.0, 300.0)) / (math.pi * p.r_c**2)
        d_c = cellular_coverage_radius(lam, p)
        if not 0.0 < d_c <= p.r_c:
            continue
        assert max_contention_density_cellular(d_c / p.r_c, p) == pytest.approx(lam, rel=1e-12)
        assert d_c == pytest.approx(_explicit_coverage_radius(lam, p), rel=1e-13)
        checked += 1
    assert checked >= 10


def test_power_window_rescales_both_caps_at_any_design_point():
    """At the floor the cellular cap is the design density; at the ceiling
    kappa is kappa*; both edges are the explicit formulas."""
    rng = np.random.default_rng(6)
    checked = 0
    for p in GRID:
        d_norm = float(rng.uniform(0.2, 1.0))
        lam = float(rng.uniform(5.0, 100.0)) / (math.pi * p.r_c**2)
        try:
            lo_db, hi_db = power_ratio_bounds(d_norm, lam, p)
        except InfeasiblePlanError:
            continue
        floor, ceiling, kappa_star = _explicit_window(d_norm, lam, p)
        p_lo = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + lo_db)
        p_hi = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + hi_db)
        assert max_contention_density_cellular(d_norm, p_lo) == pytest.approx(lam, rel=1e-12)
        assert location_coeffs(d_norm, p_hi).kappa == pytest.approx(kappa_star, rel=1e-12)
        assert db_to_linear(lo_db) == pytest.approx(floor, rel=1e-13)
        assert db_to_linear(hi_db) == pytest.approx(ceiling, rel=1e-13)
        checked += 1
    assert checked >= 10


def test_femto_density_cap_serves_both_femto_caps_at_any_design_point():
    """Under the location's own correction K_f(kappa) the cap is the femto
    density cap, bit for bit; under the worst-case correction k_max it
    inverts the power window's ceiling back to the design density."""
    rng = np.random.default_rng(8)
    capped = inverted = 0
    for p in GRID:
        d_norm = float(rng.uniform(0.2, 1.0))
        loc = location_coeffs(d_norm, p)
        lam_f, regime = max_contention_density_femto(d_norm, p)
        if regime is not Regime.INFEASIBLE:
            assert femto_density_cap(loc, shot_noise_k_f(loc.kappa, p), p) == lam_f
            capped += 1
        lam = float(rng.uniform(5.0, 100.0)) / (math.pi * p.r_c**2)
        try:
            hi_db = power_ratio_bounds(d_norm, lam, p)[1]
        except InfeasiblePlanError:
            continue
        p_hi = dataclasses.replace(p, p_c_dbm=p.p_f_dbm + hi_db)
        k_max = k_correction_bounds(p.t_f, p.u_f, p)[1]
        lam_back = femto_density_cap(location_coeffs(d_norm, p_hi), k_max, p_hi)
        assert abs(lam_back / lam - 1.0) < 1e-9
        inverted += 1
    assert capped >= 10 and inverted >= 10
