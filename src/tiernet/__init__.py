"""Coverage analysis for a two-tier macro/femto network with multi-antenna
zero-forcing transmitters and carrier-sensing femtocells.

Closed-form quantities (contention density caps, coverage radii, transmit
power windows, sensing radii) live in :mod:`tiernet.analytic` and
:mod:`tiernet.sensing`; the stochastic-geometry Monte Carlo used to validate
them lives in :mod:`tiernet.simulator`. The names re-exported here are the
public surface: parameters, closed forms, sensing design, and the
simulation entry point with its configuration types. The precoder and
link-budget helpers stay in their own modules.
"""

from .analytic import (
    area_spectral_efficiency,
    cellular_coverage_radius,
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
from .linkmodel import SystemParams, location_coeffs
from .sensing import (
    InfeasiblePlanError,
    detection_probability_ray,
    detection_probability_sc,
    false_alarm_probability,
    max_sensing_range,
    min_sensing_radius,
    power_ratio_bounds,
    solve_threshold,
)
from .simulator import (
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    SimulationResult,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelMode",
    "InfeasiblePlanError",
    "PowerPolicy",
    "Scenario",
    "ScenarioConfig",
    "SimulationResult",
    "SystemParams",
    "area_spectral_efficiency",
    "cellular_coverage_radius",
    "detection_probability_ray",
    "detection_probability_sc",
    "false_alarm_probability",
    "k_c",
    "k_correction_bounds",
    "k_f_limit",
    "location_coeffs",
    "max_contention_density_cellular",
    "max_contention_density_femto",
    "max_sensing_range",
    "min_sensing_radius",
    "no_coverage_radius",
    "power_ratio_bounds",
    "shot_noise_c_f",
    "shot_noise_k_f",
    "simulate",
    "solve_threshold",
    "su_mu_radius_ratios",
]
