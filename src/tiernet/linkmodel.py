"""Every setting of the two-tier network, system parameters and simulation
scenario, read from JSON by one loader; the fixed losses of the five link
classes, the noise floor, and per-location interference coefficients.

Conventions: every fixed loss is stored in dB as an attenuation; linear-scale
quantities are gains (10^(-dB/10)). All internal arithmetic is linear — dB
appears only at I/O boundaries. Distances are meters, powers dBm at the API
surface and watts internally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

__all__ = [
    "SystemParams",
    "ScenarioConfig",
    "Scenario",
    "PowerPolicy",
    "ChannelMode",
    "LinkBudget",
    "LocationCoefficients",
    "link_budget",
    "location_coeffs",
    "check_scenario_levels",
    "noise_floor_dbm",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
]


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    if not value > 0:
        raise ValueError(f"linear_to_db requires a positive value, got {value}")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


# the largest decibel magnitude of a derived linear quantity: 10^(±300) and
# its reciprocal are finite, positive floats (10·log10 of the largest float
# is 3082.5 dB)
_MAX_DB = 3000.0


def _check_levels_db(levels) -> None:
    """Raise ValueError naming the first (name, level in dB) pair whose
    derived linear quantity lies beyond ±_MAX_DB, where it or its
    reciprocal overflows or vanishes downstream."""
    for name, level_db in levels:
        if not abs(level_db) < _MAX_DB:
            raise ValueError(
                f"{name} puts a derived level at {level_db:.6g} dB; "
                f"it must lie within ±{_MAX_DB:g} dB"
            )


def check_scenario_levels(
    p: SystemParams, d_norm: float, cfg: ScenarioConfig | None = None
) -> None:
    """Raise ValueError naming the field whose level, derived with the
    system, lies beyond ±_MAX_DB, as SystemParams checks its own: the
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
            offset_db = 20.0 * math.log10(cfg.co_located_user_offset)
            levels.append(("co_located_user_offset", offset_db))
    _check_levels_db(levels)


# the values a field annotated with each of these types takes from JSON: a
# bool is not a number, and an int field takes no float
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _check_fields(params) -> None:
    """Reject a dataclass field value whose JSON type does not match the
    field's annotation (None passes an optional field), and a non-finite
    float.

    Raises:
        TypeError: a value of the wrong type.
        ValueError: a non-finite float.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        kind = f.type.removesuffix(" | None")
        allowed = _JSON_TYPES.get(kind)
        if allowed and (
            not isinstance(value, allowed) or (isinstance(value, bool) and kind != "bool")
        ):
            raise TypeError(f"{f.name} must be of type {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


class _JsonConfig:
    """A frozen config dataclass read from a JSON object: keys are the field
    names, missing keys take the defaults, and Enum fields travel as their
    values."""

    @classmethod
    def from_dict(cls, raw: dict):
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        coerced = dict(raw)
        for f in fields(cls):
            kind = type(f.default)
            if issubclass(kind, Enum) and not isinstance(coerced.get(f.name, f.default), kind):
                coerced[f.name] = kind(coerced[f.name])
        return cls(**coerced)


@dataclass(frozen=True)
class SystemParams(_JsonConfig):
    """Full parameter set of the two-tier network; defaults are the reference
    operating point used throughout (5 dB SIR target, 10% outage, 1 km
    macrocell, 30 m femtocell homes, 4/2 antenna macro/femto arrays,
    43/23/23 dBm transmit powers, 5 dB wall loss, 2000 MHz carrier,
    3.8/3.8/3 path-loss exponents, 12 dB cell-edge SNR).

    gamma_target is the *linear* SIR target Γ.
    """

    gamma_target: float = 10.0 ** 0.5
    eps: float = 0.1
    r_c: float = 1000.0
    r_f: float = 30.0
    t_c: int = 4
    t_f: int = 2
    u_c: int = 1
    u_f: int = 1
    p_c_dbm: float = 43.0
    p_f_dbm: float = 23.0
    p_ut_dbm: float = 23.0
    wall_db: float = 5.0
    f_c_mhz: float = 2000.0
    alpha_c: float = 3.8
    alpha_fo: float = 3.8
    alpha_fi: float = 3.0
    snr_edge_db: float = 12.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not (1 <= self.u_c <= self.t_c):
            raise ValueError(f"need 1 <= u_c <= t_c, got u_c={self.u_c}, t_c={self.t_c}")
        if not (1 <= self.u_f <= self.t_f):
            raise ValueError(f"need 1 <= u_f <= t_f, got u_f={self.u_f}, t_f={self.t_f}")
        for name in ("alpha_c", "alpha_fo", "alpha_fi"):
            if not getattr(self, name) > 2.0:
                raise ValueError(
                    f"{name} must exceed 2 (delta_f < 1 keeps the shot-noise "
                    f"integral finite), got {getattr(self, name)}"
                )
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if not 0.0 < self.r_f < self.r_c:
            raise ValueError(f"need 0 < r_f < r_c, got r_f={self.r_f}, r_c={self.r_c}")
        if not self.gamma_target > 0:
            raise ValueError(f"gamma_target must be positive, got {self.gamma_target}")
        if not self.f_c_mhz > 0:
            raise ValueError(f"f_c_mhz must be positive, got {self.f_c_mhz}")
        a_c_db, a_fc_db, _, _, a_ff_db = _losses_db(self)
        # the linear powers, gains, path losses and the SIR target derived
        # from the fields, in dB
        _check_levels_db((
            ("p_c_dbm", self.p_c_dbm - 30.0),
            ("p_f_dbm", self.p_f_dbm - 30.0),
            ("p_ut_dbm", self.p_ut_dbm - 30.0),
            ("p_c_dbm - p_f_dbm", self.p_c_dbm - self.p_f_dbm),
            ("snr_edge_db", self.snr_edge_db),
            ("f_c_mhz", a_c_db),
            ("f_c_mhz + wall_db", a_fc_db),
            ("wall_db", a_ff_db),  # beyond the bound before a_cf_db = wall_db + 37
            ("r_f", 10.0 * self.alpha_fi * math.log10(self.r_f)),
            ("r_c", 10.0 * self.alpha_c * math.log10(self.r_c)),
            ("gamma_target", 10.0 * math.log10(self.gamma_target)),
            # in dBW: each term above may lie inside the bound while their
            # sum does not
            ("noise floor", noise_floor_dbm(self) - 30.0),
        ))


class ChannelMode(Enum):
    FULL_ZF = "FullZF"
    FAST_CHI2 = "FastChi2"


class Scenario(Enum):
    REFERENCE_CELLULAR_USER = "ReferenceCellularUser"
    REFERENCE_HOTSPOT = "ReferenceHotspot"


class PowerPolicy(Enum):
    FIXED = "Fixed"
    CARRIER_SENSED_BLEND = "CarrierSensedBlend"


@dataclass(frozen=True)
class ScenarioConfig(_JsonConfig):
    """One simulation scenario.

    A reference cellular user sits at D = d_norm·r_c; a reference hotspot is
    a femtocell at that distance whose uplink-active cellular user is placed
    co-linearly outward at co_located_user_offset meters (default: half the
    sensing radius). Under the CarrierSensedBlend policy every femtocell
    whose distance to the active cellular user is within sensing_radius_m
    transmits at P_c(dBm) − blended bound evaluated at its own macro
    distance (never above the nominal femto power); femtocells that do not
    sense the user fall back to the fixed ambient ratio.

    Each drop scatters femtocells at density n_f_target/(π·r_c²) on the
    disc of radius r_c centred on the reference receiver at (D, 0), not on
    the macrocell: the closed forms assume a field that looks the same from
    every receiver, which a macro-centred disc denies a cell-edge receiver.
    """

    scenario: Scenario = Scenario.REFERENCE_CELLULAR_USER
    d_norm: float = 0.8
    power_policy: PowerPolicy = PowerPolicy.CARRIER_SENSED_BLEND
    fixed_pc_over_pf_db: float = 20.0
    blend_weight: float = 0.7
    n_f_target: float = 60.0
    co_located_user_offset: float | None = None
    sensing_radius_m: float = 230.0
    include_noise: bool = True
    channel_mode: ChannelMode = ChannelMode.FAST_CHI2

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0.0 < self.d_norm <= 1.0:
            raise ValueError(f"d_norm must lie in (0,1], got {self.d_norm}")
        if not 0.0 <= self.blend_weight <= 1.0:
            raise ValueError(f"blend_weight must lie in [0,1], got {self.blend_weight}")
        if self.n_f_target < 0:
            raise ValueError(f"n_f_target must be nonnegative, got {self.n_f_target}")
        if self.sensing_radius_m <= 0:
            raise ValueError(
                f"sensing_radius_m must be positive, got {self.sensing_radius_m}"
            )
        if self.co_located_user_offset is not None and self.co_located_user_offset < 0:
            raise ValueError(
                "co_located_user_offset is a distance outward from the hotspot and "
                f"must be nonnegative, got {self.co_located_user_offset}"
            )

    @property
    def user_offset_m(self) -> float:
        if self.co_located_user_offset is not None:
            return self.co_located_user_offset
        return self.sensing_radius_m / 2.0

    def density(self, p: SystemParams) -> float:
        return self.n_f_target / (math.pi * p.r_c**2)


@dataclass(frozen=True)
class LinkBudget:
    """Linear gains of the fixed losses of the five link classes: macro to
    outdoor cellular user (a_c), macro to indoor femtocell user (a_fc),
    femtocell to its own user (a_fi), femtocell to outdoor cellular user
    (a_cf), and femtocell to a user in another home (a_ff)."""

    a_c: float
    a_fc: float
    a_fi: float
    a_cf: float
    a_ff: float


@functools.cache
def link_budget(p: SystemParams) -> LinkBudget:
    """Derive the five fixed losses from carrier frequency and wall loss.

    The outdoor intercept is 30·log10(f_c) − 71 dB; one wall partition adds
    wall_db on the macro-to-indoor link; indoor-to-outdoor and
    indoor-to-other-home links use the 37 dB indoor intercept plus one or
    two wall losses. Memoised per parameter set; the result is frozen.
    """
    return LinkBudget(*(db_to_linear(-loss_db) for loss_db in _losses_db(p)))


def _losses_db(p: SystemParams) -> tuple[float, float, float, float, float]:
    # the five fixed losses in dB, in LinkBudget's field order
    a_c = 30.0 * math.log10(p.f_c_mhz) - 71.0
    return a_c, a_c + p.wall_db, 37.0, p.wall_db + 37.0, 2.0 * p.wall_db + 37.0


def noise_floor_dbm(p: SystemParams) -> float:
    """Receiver noise power N₀W in dBm: a cell-edge macro user sees snr_edge_db
    of average SNR. SystemParams checks it, so it reads no link_budget memo."""
    return p.p_c_dbm - _losses_db(p)[0] - 10.0 * p.alpha_c * math.log10(p.r_c) - p.snr_edge_db


class LocationCoefficients(NamedTuple):
    """Dimensionless interference coefficients at normalized macro distance
    d_norm = D/R_c: kappa (the macro-to-femto interference strength × q_f·Γ/u_c),
    the femto-tier normalization q_f, and the cellular-side q_c."""

    kappa: float
    q_f: float
    q_c: float


def location_coeffs(d_norm: float, p: SystemParams) -> LocationCoefficients:
    """Interference coefficients for a reference location at D = d_norm·R_c.

    The one place where the link budget is composed: kappa ∝ (P_c/P_f)·D^(−α_c)
    is strictly decreasing in D, q_c ∝ (P_f/P_c)·D^(α_c) strictly
    increasing, and every closed form that inverts one of them rescales
    these values along those power laws.

    Raises:
        ValueError: if d_norm is outside (0, 1].
    """
    if not 0.0 < d_norm <= 1.0:
        raise ValueError(f"d_norm must lie in (0, 1], got {d_norm}")
    lb = link_budget(p)
    d = d_norm * p.r_c
    pc_over_pf = db_to_linear(p.p_c_dbm - p.p_f_dbm)
    q_f = (lb.a_ff / lb.a_fi) * p.r_f**p.alpha_fi * p.u_f
    q_c = p.u_c * (1.0 / pc_over_pf) * (lb.a_cf / lb.a_c) * d**p.alpha_c
    # the macro-to-femto interference strength (P_c/P_f)·(a_fc/a_ff)·D^(−α_c), × q_f·Γ/u_c
    kappa = pc_over_pf * (lb.a_fc / lb.a_ff) * d ** (-p.alpha_c) * q_f * p.gamma_target / p.u_c
    return LocationCoefficients(kappa, q_f, q_c)
