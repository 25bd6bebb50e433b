"""Closed-form coverage results for the two-tier network: the no-coverage
femtocell radius, per-tier maximum contention densities, the cellular
coverage radius, and area spectral efficiency.

All formulas are first-order in the outage target eps (shot-noise Taylor
expansion); the Monte Carlo engine in `tiernet.simulator` validates them.
"""

from __future__ import annotations

import math
from enum import Enum

from .linkmodel import LocationCoefficients, SystemParams, location_coeffs
from .specfun import inv_reg_inc_beta, reg_inc_beta

__all__ = [
    "Regime",
    "no_coverage_radius",
    "su_mu_radius_ratios",
    "shot_noise_c_f",
    "shot_noise_k_f",
    "k_f_limit",
    "k_c",
    "k_correction_bounds",
    "femto_density_cap",
    "max_contention_density_femto",
    "max_contention_density_cellular",
    "cellular_coverage_radius",
    "area_spectral_efficiency",
]


class Regime(Enum):
    CELLULAR_LIMITED = "CellularLimited"
    HOTSPOT_LIMITED = "HotspotLimited"
    INFEASIBLE = "Infeasible"


def _falling_delta_sum(n: int, delta: float) -> float:
    # 1 + sum_{l=1}^{n} (1/l!)·prod_{m<l}(m-delta) = Γ(n+1-delta)/(Γ(1-delta)·n!)
    return math.exp(
        math.lgamma(n + 1 - delta) - math.lgamma(1.0 - delta) - math.lgamma(n + 1)
    )


def _outage_odds(eps: float, a: float, b: float) -> float:
    # y/(1−y), y = I⁻¹_eps(a, b): the kappa at which I_{kappa/(kappa+1)}(a, b) = eps
    y = inv_reg_inc_beta(eps, a, b)
    return y / (1.0 - y)


def no_coverage_radius(p: SystemParams) -> float:
    """Radius D_f around the macrocell inside which no femtocell user can
    meet the outage target, due to macro-tier interference alone: where
    kappa, which falls as D^(−α_c), meets kappa* = y/(1−y) with
    y = I⁻¹_ε(t_f−u_f+1, u_c), so D_f = r_c·(kappa(r_c)/kappa*)^(1/α_c)."""
    kappa_star = _outage_odds(p.eps, p.t_f - p.u_f + 1, p.u_c)
    return p.r_c * (location_coeffs(1.0, p).kappa / kappa_star) ** (1.0 / p.alpha_c)


def su_mu_radius_ratios(p: SystemParams) -> tuple[float, float]:
    """Exact no-coverage-radius reductions from single-user precoding with
    t_f antennas: (D_f,SU / D_f,MU, D_f,SU / D_f,single-antenna).

    Requires u_c = 1 (single macro user), matching the closed forms.
    """
    if p.u_c != 1:
        raise ValueError(f"su_mu_radius_ratios requires u_c = 1, got {p.u_c}")
    # kappa* of a single-antenna link, Gamma(1), over SU's Gamma(t_f)
    gain = _outage_odds(p.eps, 1, 1) / _outage_odds(p.eps, p.t_f, 1)
    # SU vs MU (u_f = t_f), which loses the array gain and splits power; SU
    # vs a single transmit antenna (u_f = 1 both sides, no power split)
    return (gain / p.t_f) ** (1.0 / p.alpha_c), gain ** (1.0 / p.alpha_c)


def shot_noise_c_f(p: SystemParams) -> float:
    """Shot-noise interference coefficient C_f of the femtocell field, the
    paper's pi·delta·u_f^(-delta) · sum_k C(u_f,k)·B(k+delta, u_f-k-delta)
    in closed form: pi·u_f^(-delta)·Γ(u_f+delta)·Γ(1-delta)/Γ(u_f)."""
    delta, u = 2.0 / p.alpha_fo, p.u_f
    return math.pi * u**-delta * math.exp(
        math.lgamma(u + delta) + math.lgamma(1.0 - delta) - math.lgamma(u)
    )


def k_f_limit(p: SystemParams) -> float:
    """kappa -> 0 limit of the shot-noise correction (hotspot-limited
    regime): [1 + sum_{l=1}^{t_f-u_f} (1/l!)·prod_{m<l}(m-delta)]^(-1)."""
    return 1.0 / _falling_delta_sum(p.t_f - p.u_f, 2.0 / p.alpha_fo)


def shot_noise_k_f(kappa: float, p: SystemParams) -> float:
    """Location-dependent shot-noise correction K_f; equals 1 when
    u_f = t_f, and k_f_limit(p) at kappa = 0."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    delta = 2.0 / p.alpha_fo
    ratio = kappa / (kappa + 1.0)
    correction = 0.0
    for j in range(p.t_f - p.u_f):
        inner = _falling_delta_sum(p.t_f - p.u_f - j, delta) - 1.0
        weight = ratio**j * math.comb(p.u_c + j - 1, j) / (1.0 + kappa) ** p.u_c
        correction += weight * inner
    return 1.0 / (1.0 + correction)


def k_correction_bounds(t: int, u: int, p: SystemParams) -> tuple[float, float]:
    """Closed-form sandwich for the shot-noise corrections: both k_f_limit
    and k_c lie in [(t-u+1)^delta, (t-u+1)^delta * Gamma(1-delta)]."""
    if not 1 <= u <= t:
        raise ValueError(f"need 1 <= u <= t, got t={t}, u={u}")
    delta = 2.0 / p.alpha_fo
    base = (t - u + 1) ** delta
    return base, base * math.gamma(1.0 - delta)


def k_c(p: SystemParams) -> float:
    """Cellular-side shot-noise constant K_c =
    [1 + sum_{j=1}^{t_c-u_c} (1/j!)·prod_{k<j}(k-delta)]^(-1)."""
    return 1.0 / _falling_delta_sum(p.t_c - p.u_c, 2.0 / p.alpha_fo)


def _unit_load(q: float, p: SystemParams) -> float:
    # C_f·(q·Γ)^δ, δ = 2/α_fo: the femtocell field's outage per unit density
    return shot_noise_c_f(p) * (q * p.gamma_target) ** (2.0 / p.alpha_fo)


def _macro_outage(kappa: float, p: SystemParams) -> float:
    # I(kappa) = I_{kappa/(kappa+1)}(t_f−u_f+1, u_c): femto outage from the macrocell alone
    return reg_inc_beta(kappa / (kappa + 1.0), p.t_f - p.u_f + 1, p.u_c)


def femto_density_cap(
    loc: LocationCoefficients, k: float, p: SystemParams, macro_term: float | None = None
) -> float:
    """Femtocell density (per m²) at which the first-order femto outage, the
    macro term I(kappa) plus the field's load, meets eps at loc under shot-noise
    correction k: (eps − I(kappa))/(1/k − I(kappa))/(C_f·(q_f·Γ)^δ), δ = 2/α_fo;
    macro_term is I(kappa) where the caller has it already."""
    if macro_term is None:
        macro_term = _macro_outage(loc.kappa, p)
    return 1.0 / _unit_load(loc.q_f, p) * (p.eps - macro_term) / (1.0 / k - macro_term)


def max_contention_density_femto(d_norm: float, p: SystemParams) -> tuple[float, Regime]:
    """Maximum femtocell density (per m²) keeping femto-tier outage at eps
    for a reference femtocell at D = d_norm·r_c, with the regime label: the
    cap under the location's own correction K_f(kappa).

    The label is CellularLimited where the macrocell alone takes at least
    half the outage budget, I(kappa) >= eps/2, and HotspotLimited where it
    takes less.
    Returns density 0 with Regime.INFEASIBLE when the macro-tier
    interference alone already exceeds the outage budget (D below the
    no-coverage radius).
    """
    loc = location_coeffs(d_norm, p)
    macro_term = _macro_outage(loc.kappa, p)
    if macro_term >= p.eps:
        return 0.0, Regime.INFEASIBLE
    lam = femto_density_cap(loc, shot_noise_k_f(loc.kappa, p), p, macro_term)
    regime = Regime.CELLULAR_LIMITED if macro_term >= p.eps / 2.0 else Regime.HOTSPOT_LIMITED
    return lam, regime


def max_contention_density_cellular(d_norm: float, p: SystemParams) -> float:
    """Maximum femtocell density (per m²) keeping the outage of a cellular
    user at D = d_norm·r_c within eps."""
    return p.eps * k_c(p) / _unit_load(location_coeffs(d_norm, p).q_c, p)


def cellular_coverage_radius(lambda_f: float, p: SystemParams) -> float:
    """Largest macro distance D_c at which a cellular user still meets the
    outage target under femtocell density lambda_f; algebraic inverse of
    max_contention_density_cellular, which falls as D^(−δ·α_c) (δ = 2/α_fo):
    D_c = r_c·(lambda*_c(r_c)/lambda_f)^(1/(δ·α_c)), and its limit inf at lambda_f = 0;
    inf too where D_c exceeds the largest float."""
    if not lambda_f >= 0:
        raise ValueError(f"cellular_coverage_radius requires lambda_f >= 0, got {lambda_f}")
    if lambda_f == 0.0:
        return math.inf
    delta = 2.0 / p.alpha_fo
    cap = max_contention_density_cellular(1.0, p)
    try:
        return p.r_c * (cap / lambda_f) ** (1.0 / (delta * p.alpha_c))
    except OverflowError:
        return math.inf


def area_spectral_efficiency(lambda_f: float, p: SystemParams) -> float:
    """Network throughput per Hz and m²: (1-eps)·u_f·lambda_f·log2(1+Γ)."""
    if lambda_f < 0:
        raise ValueError(f"lambda_f must be nonnegative, got {lambda_f}")
    return (1.0 - p.eps) * p.u_f * lambda_f * math.log2(1.0 + p.gamma_target)
