"""System parameters, the fixed losses of the five link classes, and
per-location interference coefficients of the two-tier network model.

Conventions: every fixed loss is stored in dB as an attenuation; linear-scale
quantities are gains (10^(-dB/10)). All internal arithmetic is linear — dB
appears only at I/O boundaries. Distances are meters, powers dBm at the API
surface and watts internally.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict, field, fields
from typing import NamedTuple

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


# the largest decibel magnitude of a derived linear quantity: 10^(±300) and
# its reciprocal are finite, positive floats (10·log10 of the largest float
# is 3082.5 dB)
_MAX_DB = 3000.0


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
        edge_loss_db = 10.0 * self.alpha_c * math.log10(self.r_c)
        # the linear powers, gains, path losses and the SIR target derived
        # from the fields, in dB: outside ±_MAX_DB one of them or its
        # reciprocal overflows or vanishes downstream
        for name, level_db in (
            ("p_c_dbm", self.p_c_dbm - 30.0),
            ("p_f_dbm", self.p_f_dbm - 30.0),
            ("p_ut_dbm", self.p_ut_dbm - 30.0),
            ("p_c_dbm - p_f_dbm", self.p_c_dbm - self.p_f_dbm),
            ("snr_edge_db", self.snr_edge_db),
            ("f_c_mhz", a_c_db),
            ("f_c_mhz + wall_db", a_fc_db),
            ("wall_db", a_ff_db),  # beyond the bound before a_cf_db = wall_db + 37
            ("r_f", 10.0 * self.alpha_fi * math.log10(self.r_f)),
            ("r_c", edge_loss_db),
            ("gamma_target", 10.0 * math.log10(self.gamma_target)),
            # sensing.noise_floor_dbm in dBW: each term above may lie inside
            # the bound while their sum does not
            ("noise floor", self.p_c_dbm - 30.0 - a_c_db - edge_loss_db - self.snr_edge_db),
        ):
            if not abs(level_db) < _MAX_DB:
                raise ValueError(
                    f"{name} puts a derived power, gain, path loss or SIR target at "
                    f"{level_db:.6g} dB; it must lie within ±{_MAX_DB:g} dB"
                )

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
    # linear gains, used by everything downstream: set once from the losses
    a_c: float = field(init=False)
    a_fc: float = field(init=False)
    a_fi: float = field(init=False)
    a_cf: float = field(init=False)
    a_ff: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("a_c", "a_fc", "a_fi", "a_cf", "a_ff"):
            object.__setattr__(self, name, db_to_linear(-getattr(self, f"{name}_db")))


@functools.cache
def link_budget(p: SystemParams) -> LinkBudget:
    """Derive the five fixed losses from carrier frequency and wall loss.

    The outdoor intercept is 30·log10(f_c) − 71 dB; one wall partition adds
    wall_db on the macro-to-indoor link; indoor-to-outdoor and
    indoor-to-other-home links use the 37 dB indoor intercept plus one or
    two wall losses. Memoised per parameter set; the result is frozen.
    """
    return LinkBudget(*_losses_db(p))


def _losses_db(p: SystemParams) -> tuple[float, float, float, float, float]:
    # the five fixed losses in LinkBudget's field order
    a_c = 30.0 * math.log10(p.f_c_mhz) - 71.0
    return a_c, a_c + p.wall_db, 37.0, p.wall_db + 37.0, 2.0 * p.wall_db + 37.0


class LocationCoefficients(NamedTuple):
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
    script_p_f = pc_over_pf * (lb.a_fc / lb.a_ff) * d ** (-p.alpha_c)
    q_f = (lb.a_ff / lb.a_fi) * p.r_f**p.alpha_fi * p.u_f
    q_c = p.u_c * (1.0 / pc_over_pf) * (lb.a_cf / lb.a_c) * d**p.alpha_c
    kappa = script_p_f * q_f * p.gamma_target / p.u_c
    return LocationCoefficients(kappa, q_f, script_p_f, q_c, d_norm)
