"""Carrier-sensing design for femtocell power control: the minimum sensing
radius protecting nearby cellular users, the feasible window of macro-to-femto
transmit-power ratios, uplink pilot-SNR calibration, and the performance of
the energy detector with selection combining.

Power ratios are handled in dB at the API surface; detector quantities
(threshold, SNR) are linear. The receiver noise floor that calibrates the
pilot SNR is `tiernet.linkmodel.noise_floor_dbm`.
"""

from __future__ import annotations

import functools
import math

from .analytic import (
    _outage_odds, _unit_load, k_correction_bounds, max_contention_density_cellular,
)
from .linkmodel import (
    SystemParams, _losses_db, db_to_linear, linear_to_db, location_coeffs, noise_floor_dbm,
)
from .specfun import _lower_gamma_sum, newton, reg_gamma

__all__ = [
    "DETECTOR_M_TW", "DETECTOR_P_FALSE", "DETECTOR_P_DETECT",
    "InfeasiblePlanError",
    "min_sensing_radius",
    "power_ratio_bounds",
    "blended_power_policy",
    "pilot_snr",
    "false_alarm_probability",
    "detection_probability_sc",
    "solve_threshold",
    "max_sensing_range",
]

# The sensed uplink pilot is transmitted this far below the maximum user
# terminal power.
PILOT_BACKOFF_DB = 3.0

# the energy detector's design point: time-bandwidth product, false-alarm
# target and detection target
DETECTOR_M_TW = 500
DETECTOR_P_FALSE = 0.1
DETECTOR_P_DETECT = 0.9

# steps at which the detector solves stop: relative for the threshold; in
# dB for the SNR, whose root P_d's rounding (~4e-11 at m_tw = 10^4,
# t_f = 4) blurs by ~1e-9 dB
_THRESHOLD_RTOL = 1e-10
_SNR_TOL_DB = 1e-9

# the most selection-combining branches the detector sums: the weights'
# magnitudes add up to 2^t_f − 1, so the alternating sum's rounding error,
# about 2^t_f·2⁻⁵³, exceeds 10⁻¹⁰ from t_f = 20 on
_MAX_SC_BRANCHES = 19


class InfeasiblePlanError(ValueError):
    """No feasible sensing/power plan exists for the requested operating
    point (outage budget already spent, or the power window is empty)."""


def min_sensing_radius(d_norm: float, p: SystemParams) -> float:
    """Smallest radius a femtocell must sense so that a single unsensed
    femtocell at that distance keeps a cellular user at D = d_norm·r_c
    within the outage target."""
    loc = location_coeffs(d_norm, p)
    odds = _outage_odds(p.eps, p.t_c - p.u_c + 1, p.u_f)
    return (loc.q_c * p.gamma_target / p.u_f / odds) ** (1.0 / p.alpha_fo)


def power_ratio_bounds(
    d_norm: float, lambda_f: float, p: SystemParams
) -> tuple[float, float]:
    """Feasible (P_c/P_f) window in dB at D = d_norm·r_c under femtocell
    density lambda_f.

    The floor keeps cellular users at D covered (their outage budget caps
    how weak the macro can be relative to the femto field); the ceiling
    keeps femtocell users covered against macro interference, with the
    worst-case hotspot correction factor substituted for the
    location-dependent one. Both rescale the current ratio R = P_c/P_f:
    the cellular cap lambda*_c grows as R^δ (δ = 2/α_fo), so the floor is
    R·(lambda_f/lambda*_c)^(1/δ); kappa grows as R, so the ceiling is
    R·kappa*/kappa, with kappa* = y/(1−y) at the effective budget.

    Raises:
        InfeasiblePlanError: no femtocells (lambda_f <= 0), an outage budget
            infeasible at this density, or an empty window (floor > ceiling).
    """
    if not lambda_f > 0:
        raise InfeasiblePlanError(f"no power window without femtocells: lambda_f = {lambda_f}")
    delta = 2.0 / p.alpha_fo
    loc = location_coeffs(d_norm, p)
    k_max = k_correction_bounds(p.t_f, p.u_f, p)[1]
    load = lambda_f * _unit_load(loc.q_f, p)
    if load >= 1.0:
        raise InfeasiblePlanError(
            f"femtocell load {load:.4g} >= 1 at lambda_f={lambda_f:.4g}"
        )
    eps_eff = (p.eps - load / k_max) / (1.0 - load)
    if not 0.0 < eps_eff < 1.0:
        raise InfeasiblePlanError(
            f"effective outage budget {eps_eff:.4g} outside (0,1) at "
            f"lambda_f={lambda_f:.4g}, d_norm={d_norm:.4g}"
        )
    kappa_star = _outage_odds(eps_eff, p.t_f - p.u_f + 1, p.u_c)
    cap = max_contention_density_cellular(d_norm, p)
    ratio_db = p.p_c_dbm - p.p_f_dbm
    lo_db = ratio_db + linear_to_db(lambda_f / cap) / delta
    hi_db = ratio_db + linear_to_db(kappa_star / loc.kappa)
    if lo_db > hi_db:
        raise InfeasiblePlanError(
            f"empty power window at d_norm={d_norm:.4g}, "
            f"lambda_f={lambda_f:.4g}: floor {lo_db:.2f} dB > ceiling {hi_db:.2f} dB"
        )
    return lo_db, hi_db


def blended_power_policy(lo_db: float, hi_db: float, weight: float) -> float:
    """Operating P_c/P_f in dB inside the window [lo_db, hi_db] of
    `power_ratio_bounds`: weight·ceiling + (1−weight)·floor."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0,1], got {weight}")
    return weight * hi_db + (1.0 - weight) * lo_db


def _pilot_budget_db(p: SystemParams) -> float:
    # pilot SNR in dB at 1 m: sent PILOT_BACKOFF_DB below the maximum
    # terminal power, through the outdoor-to-indoor fixed loss
    return (p.p_ut_dbm - PILOT_BACKOFF_DB) - _losses_db(p)[1] - noise_floor_dbm(p)


def pilot_snr(d_femto_to_user: float, p: SystemParams) -> float:
    """Average sensed uplink-pilot SNR (linear) at a femtocell a distance
    d_femto_to_user meters from the transmitting cellular user; the pilot
    propagates on the outdoor exponent alpha_c.

    Raises:
        ValueError: if d_femto_to_user <= 0.
    """
    if not d_femto_to_user > 0:
        raise ValueError(f"pilot_snr requires d > 0, got {d_femto_to_user}")
    return db_to_linear(_pilot_budget_db(p) - 10.0 * p.alpha_c * math.log10(d_femto_to_user))


@functools.cache
def false_alarm_probability(m_tw: int, threshold: float) -> float:
    """P_false of the energy detector with time-bandwidth product m_tw.
    Memoised: a sweep reads it at each design point's solved threshold."""
    if m_tw < 1:
        raise ValueError(f"m_tw must be >= 1, got {m_tw}")
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    return reg_gamma(2 * m_tw, threshold)[1]


def _ln_gamma_pdf(a: float, x: float) -> float:
    # ln of the Gamma(a, 1) density at x > 0
    return (a - 1.0) * math.log(x) - x - math.lgamma(a)


def _excess(gamma_bar: float, m_tw: int, threshold: float, t_f: int) -> tuple[float, float]:
    """P_d − P_fa with t_f selection-combined branches at average SNR
    gamma_bar > 0, and its slope in dB.

    P_d is the floor Q(a, λ), a = 2m−1, plus e^L(u) from each branch i at
    u = m·γ̄/(i+1), weighted by t_f·(−1)ⁱC(t_f−1,i)/(i+1); the weights sum
    to one. With z = λu/(1+u) and p_a the Gamma(a) density,
        L(u) = −λ/(1+u) + a·ln(1+1/u) + ln P(a, z),
        dL/du = λ/(1+u)² − a/(u(1+u)) + [p_a(z)/P(a, z)]·λ/(1+u)²,
    and du/ds = u·ln10/10 for s in dB; the slope is summed as
    u·e^L·dL/du = [e^L·(z − a) + e^(L − ln P(a, z))·p_a(z)·z]/(1+u), whose
    terms stay finite. L is formed in log space: for large m the factor
    (1+1/u)^a and P(a, z) over- and underflow separately while e^L stays in
    [0, 1]. The floor is P_fa − p_{2m}(λ), by Q(a, x) = Q(a+1, x) − p_{a+1}(x).

    Below u = 1, where z < a + 1, the factors cancel in closed form: with
    P(a, z) = z^a·e^(−z)·S(z)/Γ(a+1) (S the series sum, _lower_gamma_sum)
    and z·(1+1/u) = λ, e^L = p_{2m}(λ)·S(z) and u·e^L·dL/du =
    p_{2m}(λ)·[z·S + a·(1 − S)]/(1+u). Nothing there grows with −ln u, so
    as γ̄ → 0 (even subnormal, where 1/u overflows) S → 1 and P_d meets P_fa
    to rounding.

    Raises:
        InfeasiblePlanError: t_f > _MAX_SC_BRANCHES, where the sum is not
            accurate to 10⁻¹⁰.
    """
    if t_f > _MAX_SC_BRANCHES:
        raise InfeasiblePlanError(
            f"t_f = {t_f} selection-combining branches, beyond the detector's "
            f"{_MAX_SC_BRANCHES}: its sum would lose {t_f * math.log10(2.0):.1f} digits"
        )
    a = 2 * m_tw - 1
    lam = threshold
    floor_pdf = math.exp(_ln_gamma_pdf(a + 1, lam))
    total = slope = 0.0
    for i in range(t_f):
        u = m_tw * gamma_bar / (i + 1)
        z = lam * u / (1.0 + u)
        weight = t_f * (-1.0) ** i * math.comb(t_f - 1, i) / (i + 1)
        if u < 1.0 and z < a + 1.0:
            s_sum = _lower_gamma_sum(a, z)
            tail = floor_pdf * s_sum
            d_tail = floor_pdf * (z * s_sum + a * (1.0 - s_sum))
        else:
            ln_mid = -lam / (1.0 + u) + a * math.log1p(1.0 / u)
            tail = math.exp(min(ln_mid + reg_gamma(a, z)[0], 0.0))
            d_tail = tail * (z - a) + math.exp(ln_mid + _ln_gamma_pdf(a, z)) * z
        total += weight * tail
        slope += weight * d_tail / (1.0 + u)
    return total - floor_pdf, slope * math.log(10.0) / 10.0


def detection_probability_sc(
    gamma_bar: float, m_tw: int, threshold: float, t_f: int
) -> float:
    """Detection probability with selection combining over t_f antenna
    branches: the detector sees the strongest of t_f i.i.d. Rayleigh fades,
    giving the alternating-sign sum over single-branch detectors at
    gamma_bar/(i+1) (`_excess`).

    Raises:
        InfeasiblePlanError: gamma_bar > 0 and t_f > _MAX_SC_BRANCHES.
    """
    if t_f < 1:
        raise ValueError(f"t_f must be >= 1, got {t_f}")
    if gamma_bar < 0:
        raise ValueError(f"gamma_bar must be nonnegative, got {gamma_bar}")
    p_false = false_alarm_probability(m_tw, threshold)
    if gamma_bar == 0.0 or threshold == 0.0:
        # no signal, or a threshold that every energy passes
        return p_false
    return min(1.0, max(0.0, p_false + _excess(gamma_bar, m_tw, threshold, t_f)[0]))


@functools.cache
def solve_threshold(m_tw: int, p_false_target: float) -> float:
    """Detector threshold achieving the false-alarm target (constant
    false-alarm-rate calibration): Newton on P_false = Q(2m, t), whose slope
    in t is minus the Gamma(2m) density, from t = 2m. The bracket's upper
    end is Cantelli's bound, Q(2m, 2m + √(2m(1/P_fa − 1))) <= P_fa."""
    if not 0.0 < p_false_target < 1.0:
        raise ValueError(f"p_false_target must lie in (0,1), got {p_false_target}")
    a = 2 * m_tw

    def fn(t: float) -> tuple[float, float]:
        return p_false_target - false_alarm_probability(m_tw, t), math.exp(_ln_gamma_pdf(a, t))

    hi = a + math.sqrt(a * (1.0 / p_false_target - 1.0))
    return newton(fn, float(a), 0.0, hi, _THRESHOLD_RTOL * a)


@functools.cache
def _detection_snr_db(m_tw: int, threshold: float, p_detect_target: float, t_f: int) -> float:
    """Average pilot SNR (dB) at which the selection-combining detector
    reaches p_detect_target: Newton in dB, with P_fa computed once. The
    detection probability rises monotonically in SNR from the false-alarm
    floor P_d(0) = P_fa to 1, and between -200 and 200 dB it spans that
    whole range in double precision. The energy detector's deflection grows
    as √m·γ̄, so the SNR it needs falls 5 dB per decade of m: Newton starts
    at 8 − 5·log10(m) dB, near the root (the solved SNR + 5·log10(m) lies in
    [4.5, 14.2] dB for m from 1 to 10⁴ and t_f from 1 to 4).

    Raises:
        InfeasiblePlanError: p_detect_target is at or below the floor.
    """
    p_false = false_alarm_probability(m_tw, threshold)
    if p_detect_target <= p_false:
        raise InfeasiblePlanError(
            f"detect target {p_detect_target} is not above the false-alarm "
            f"floor {p_false:.4g} at m_tw={m_tw}"
        )

    def fn(snr_db: float) -> tuple[float, float]:
        excess, slope = _excess(db_to_linear(snr_db), m_tw, threshold, t_f)
        return excess - (p_detect_target - p_false), slope

    return newton(fn, 8.0 - 5.0 * math.log10(m_tw), -200.0, 200.0, _SNR_TOL_DB)


def max_sensing_range(
    m_tw: int,
    p_detect_target: float,
    p_false_target: float,
    p: SystemParams,
) -> float:
    """Largest distance at which the pilot of a cellular user is still
    detected with probability >= p_detect_target, after calibrating the
    threshold to p_false_target: the distance at which the pilot budget
    falls to the SNR the detector needs.

    Raises:
        InfeasiblePlanError: the detect target is not above the false-alarm
            floor, so no distance meets it, or p.t_f is beyond the
            detector's _MAX_SC_BRANCHES.
    """
    if not 0.0 < p_detect_target < 1.0:
        raise ValueError(f"p_detect_target must lie in (0,1), got {p_detect_target}")
    threshold = solve_threshold(m_tw, p_false_target)
    snr_db = _detection_snr_db(m_tw, threshold, p_detect_target, p.t_f)
    return 10.0 ** ((_pilot_budget_db(p) - snr_db) / (10.0 * p.alpha_c))
