"""System parameters, the fixed losses of the five link classes, and
per-location interference coefficients of the two-tier network model.

Conventions: every fixed loss is stored in dB as an attenuation; linear-scale
quantities are gains (10^(-dB/10)). All internal arithmetic is linear — dB
appears only at I/O boundaries. Distances are meters, powers dBm at the API
surface and watts internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields

__all__ = [
    "SystemParams",
    "LinkBudget",
    "LocationCoefficients",
    "link_budget",
    "location_coeffs",
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


@dataclass(frozen=True)
class SystemParams:
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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

    # -- JSON round trip; keys are exactly the field names, missing keys take
    #    the defaults above.

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "SystemParams":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown SystemParams keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, text: str) -> "SystemParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class LinkBudget:
    """Fixed decibel losses of the five link classes: macro to outdoor
    cellular user (a_c), macro to indoor femtocell user (a_fc), femtocell to
    its own user (a_fi), femtocell to outdoor cellular user (a_cf), and
    femtocell to a user in another home (a_ff)."""

    a_c_db: float
    a_fc_db: float
    a_fi_db: float
    a_cf_db: float
    a_ff_db: float

    # linear gains, used by everything downstream
    @property
    def a_c(self) -> float:
        return db_to_linear(-self.a_c_db)

    @property
    def a_fc(self) -> float:
        return db_to_linear(-self.a_fc_db)

    @property
    def a_fi(self) -> float:
        return db_to_linear(-self.a_fi_db)

    @property
    def a_cf(self) -> float:
        return db_to_linear(-self.a_cf_db)

    @property
    def a_ff(self) -> float:
        return db_to_linear(-self.a_ff_db)


def link_budget(p: SystemParams) -> LinkBudget:
    """Derive the five fixed losses from carrier frequency and wall loss.

    The outdoor intercept is 30·log10(f_c) − 71 dB; one wall partition adds
    wall_db on the macro-to-indoor link; indoor-to-outdoor and
    indoor-to-other-home links use the 37 dB indoor intercept plus one or
    two wall losses.
    """
    a_c = 30.0 * math.log10(p.f_c_mhz) - 71.0
    return LinkBudget(
        a_c_db=a_c,
        a_fc_db=a_c + p.wall_db,
        a_fi_db=37.0,
        a_cf_db=p.wall_db + 37.0,
        a_ff_db=2.0 * p.wall_db + 37.0,
    )


@dataclass(frozen=True)
class LocationCoefficients:
    """Dimensionless interference coefficients at normalized macro distance
    d_norm = D/R_c: the macro-to-femto interference strength script_p_f, the
    femto-tier normalization q_f, their combination kappa, and the
    cellular-side q_c."""

    kappa: float
    q_f: float
    script_p_f: float
    q_c: float
    d_norm: float


def location_coeffs(d_norm: float, p: SystemParams) -> LocationCoefficients:
    """Interference coefficients for a reference location at D = d_norm·R_c.

    kappa is strictly decreasing in D, q_c strictly increasing.

    Raises:
        ValueError: if d_norm is outside (0, 1].
    """
    if not 0.0 < d_norm <= 1.0:
        raise ValueError(f"d_norm must lie in (0, 1], got {d_norm}")
    lb = link_budget(p)
    d = d_norm * p.r_c
    pc_over_pf = db_to_linear(p.p_c_dbm - p.p_f_dbm)
    script_p_f = pc_over_pf * (lb.a_fc / lb.a_ff) * d ** (-p.alpha_c)
    q_f = (lb.a_ff / lb.a_fi) * p.r_f**p.alpha_fi * p.u_f
    q_c = p.u_c * (1.0 / pc_over_pf) * (lb.a_cf / lb.a_c) * d**p.alpha_c
    kappa = script_p_f * q_f * p.gamma_target / p.u_c
    return LocationCoefficients(
        kappa=kappa, q_f=q_f, script_p_f=script_p_f, q_c=q_c, d_norm=d_norm
    )
