"""Stochastic-geometry Monte Carlo engine: Poisson femtocell drops, Rayleigh
MIMO fading with zero-forcing precoding, per-tier SIR/SINR, and one
simulation pass that yields the outage estimate and the empirical rate CDF,
including the carrier-sensed power-control policy.

Chi-squared bookkeeping: every dof-2k fading variable is stored on half
scale as Gamma(k, 1) (mean k) — the natural normalization for unit-power
complex Gaussian entries; SIR ratios are unaffected because numerator and
denominator share the convention.

Reproducibility contract: trial randomness comes from counter-based Philox
streams, one per drop, spawned as SeedSequence(seed, spawn_key=(drop_index,)).
Within a drop the draw order is fixed (positions, then desired / cross / mark
fades), so serial and parallel runs are bit-identical. The environment
variable TIERNET_THREADS caps worker threads.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .linkmodel import SystemParams, dbm_to_watts, link_budget
from .sensing import blended_power_policy, noise_floor_dbm

__all__ = [
    "ChannelMode",
    "Scenario",
    "PowerPolicy",
    "ChannelDraw",
    "SimulationResult",
    "ScenarioConfig",
    "zf_precoder",
    "femto_sir",
    "cellular_sir",
    "simulate",
]


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
class ChannelDraw:
    """Fading powers for a batch of trials against one drop.

    desired_power: (n_fades,) — serving-link beamforming gain, Gamma(T−U+1, 1).
    cross_tier_power: (n_fades,) — macro-precoder leakage at a femto user,
        zeros when the reference is the macro's own user.
    mark_powers: (n_fades, k) — per-interferer femto leakage.

    In FastChi2 mode all three are direct Gamma draws; in FullZF mode they
    are computed from explicit complex Gaussian matrices and
    pseudoinverse-based precoders.
    """

    desired_power: np.ndarray
    cross_tier_power: np.ndarray
    mark_powers: np.ndarray


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """One Monte Carlo pass over all (drop, fade) pairs: the share whose SINR
    falls below the SIR target, with a binomial normal-approximation 95%
    half-width, and the empirical distribution of log2(1+SINR)."""

    p_outage: float
    ci_halfwidth_95: float
    rates: np.ndarray  # sorted ascending, n_drops·n_fades of them
    n_drops: int
    n_fades: int
    seed: int

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must lie in [0,100], got {q}")
        return float(np.quantile(self.rates, q / 100.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            (self.p_outage, self.ci_halfwidth_95, self.n_drops, self.n_fades, self.seed)
            == (other.p_outage, other.ci_halfwidth_95, other.n_drops, other.n_fades,
                other.seed)
            and np.array_equal(self.rates, other.rates)
        )


@dataclass(frozen=True)
class ScenarioConfig:
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

    @property
    def user_offset_m(self) -> float:
        if self.co_located_user_offset is not None:
            return self.co_located_user_offset
        return self.sensing_radius_m / 2.0

    def density(self, p: SystemParams) -> float:
        return self.n_f_target / (math.pi * p.r_c**2)

    def to_json(self) -> str:
        raw = asdict(self)
        for key in ("scenario", "power_policy", "channel_mode"):
            raw[key] = raw[key].value
        return json.dumps(raw, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown ScenarioConfig keys: {sorted(unknown)}")
        coerced = dict(raw)
        for key, enum_cls in (
            ("scenario", Scenario),
            ("power_policy", PowerPolicy),
            ("channel_mode", ChannelMode),
        ):
            if key in coerced and not isinstance(coerced[key], enum_cls):
                coerced[key] = enum_cls(coerced[key])
        return cls(**coerced)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# random draws


def _drop_rng(seed: int, drop_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(drop_index,))
    return np.random.Generator(np.random.Philox(ss))


def _disc_positions(
    rng: np.random.Generator,
    lambda_f: float,
    p: SystemParams,
    centre: tuple[float, float],
) -> np.ndarray:
    """Poisson field of density lambda_f on the disc of radius r_c about
    centre, in meters from the macrocell: count, then radii, then angles."""
    count = rng.poisson(lambda_f * math.pi * p.r_c**2)
    radii = p.r_c * np.sqrt(rng.random(count))
    angles = 2.0 * math.pi * rng.random(count)
    return np.column_stack(
        (centre[0] + radii * np.cos(angles), centre[1] + radii * np.sin(angles))
    )


def _cn_matrix(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # unit-power complex Gaussian entries (variance 1/2 per real dimension)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def zf_precoder(channel_matrix: np.ndarray) -> np.ndarray:
    """Unit-column zero-forcing precoder: normalized columns of the
    pseudoinverse of the U×T row matrix of channel directions, so that
    row i times column j vanishes for i ≠ j.

    Rows are re-normalized internally (idempotent on unit rows). For U=1
    this is the conjugated normalized channel (maximum-ratio); for
    orthonormal rows with U=T it is the conjugate transpose.

    Raises:
        ValueError: wrong shape, U > T, or a rank-deficient matrix.
    """
    h = np.asarray(channel_matrix, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"channel_matrix must be 2-D, got shape {h.shape}")
    u, t = h.shape
    if u > t:
        raise ValueError(f"need U <= T, got U={u}, T={t}")
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise ValueError("channel_matrix has a zero row")
    try:
        return _zf_precoder_batch((h / norms)[None])[0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"rank-deficient channel matrix: {exc}") from exc


def _zf_precoder_batch(rows: np.ndarray) -> np.ndarray:
    # rows: (n, U, T) unit row directions -> (n, T, U) unit-column precoders
    gram = rows @ rows.conj().transpose(0, 2, 1)
    w = rows.conj().transpose(0, 2, 1) @ np.linalg.inv(gram)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _zf_desired_batch(
    rng: np.random.Generator, n: int, t: int, u: int
) -> np.ndarray:
    # |h0^dag w0|^2 for the served user: raw channels, adjoint row directions
    h = _cn_matrix(rng, (n, u, t))
    rows = h.conj() / np.linalg.norm(h, axis=2, keepdims=True)
    w = _zf_precoder_batch(rows)
    return np.abs(np.einsum("nt,nt->n", h[:, 0, :].conj(), w[:, :, 0])) ** 2


def _zf_leakage_batch(
    rng: np.random.Generator, n: int, t: int, u: int
) -> np.ndarray:
    # ||g^dag W||^2 at a victim with channel g independent of the precoder
    h = _cn_matrix(rng, (n, u, t))
    rows = h.conj() / np.linalg.norm(h, axis=2, keepdims=True)
    w = _zf_precoder_batch(rows)
    g = _cn_matrix(rng, (n, t))
    return (np.abs(np.einsum("nt,ntu->nu", g.conj(), w)) ** 2).sum(axis=1)


def _gamma(rng: np.random.Generator, shape: int, size) -> np.ndarray:
    # Gamma(1, 1) is Exp(1): numpy's gamma draws shape 1 through the same
    # exponential sampler, so the values and the stream state are identical
    if shape == 1:
        return rng.standard_exponential(size)
    return rng.gamma(shape, 1.0, size)


def _sample_draws(
    rng: np.random.Generator,
    n_fades: int,
    n_interferers: int,
    reference_tier: Scenario,
    p: SystemParams,
    mode: ChannelMode,
) -> ChannelDraw:
    """All fading powers for n_fades trials against one drop, in a fixed
    draw order (desired, cross, marks) so results are seed-stable."""
    femto_ref = reference_tier is Scenario.REFERENCE_HOTSPOT
    if mode is ChannelMode.FAST_CHI2:
        if femto_ref:
            desired = _gamma(rng, p.t_f - p.u_f + 1, n_fades)
            cross = _gamma(rng, p.u_c, n_fades)
        else:
            desired = _gamma(rng, p.t_c - p.u_c + 1, n_fades)
            cross = np.zeros(n_fades)
        marks = _gamma(rng, p.u_f, (n_fades, n_interferers))
    else:
        if femto_ref:
            desired = _zf_desired_batch(rng, n_fades, p.t_f, p.u_f)
            cross = _zf_leakage_batch(rng, n_fades, p.t_c, p.u_c)
        else:
            desired = _zf_desired_batch(rng, n_fades, p.t_c, p.u_c)
            cross = np.zeros(n_fades)
        flat = _zf_leakage_batch(rng, n_fades * n_interferers, p.t_f, p.u_f)
        marks = flat.reshape(n_fades, n_interferers)
    return ChannelDraw(desired_power=desired, cross_tier_power=cross, mark_powers=marks)


# ---------------------------------------------------------------------------
# per-tier SIR


def _interference_w(
    positions: np.ndarray,
    point: np.ndarray,
    mark_powers: np.ndarray,
    p_tx_dbm,
    fixed_gain: float,
    p: SystemParams,
) -> np.ndarray:
    # per-trial femtocell interference power at point; p_tx_dbm is a scalar
    # or per-femtocell array, None for the nominal femto power
    if len(positions) == 0:
        return np.zeros(mark_powers.shape[0])
    distances = np.linalg.norm(positions - point, axis=1)
    if p_tx_dbm is None:
        p_tx_dbm = p.p_f_dbm
    p_tx_w = dbm_to_watts(np.asarray(p_tx_dbm, dtype=float))
    with np.errstate(divide="ignore"):  # co-located interferer -> inf power
        per_int = (p_tx_w / p.u_f) * fixed_gain * distances**-p.alpha_fo
    return mark_powers @ per_int


def femto_sir(
    d_norm: float,
    positions: np.ndarray,
    draws: ChannelDraw,
    p: SystemParams,
    *,
    p_f_serving_dbm: float | None = None,
    p_f_interferer_dbm=None,
    noise_w: float = 0.0,
) -> np.ndarray:
    """Per-trial linear SIR (SINR when noise_w > 0) of a femtocell user whose
    home femto sits at D = d_norm·r_c; positions (k, 2), in meters from the
    macrocell, hold the interfering femtos only (the serving one is excluded).

    p_f_interferer_dbm may be a scalar or a per-interferer array; transmit
    powers default to the nominal SystemParams values.
    """
    budget = link_budget(p)
    d = d_norm * p.r_c
    pf_serv_w = dbm_to_watts(p.p_f_dbm if p_f_serving_dbm is None else p_f_serving_dbm)
    pc_w = dbm_to_watts(p.p_c_dbm)

    desired = (
        (pf_serv_w / p.u_f) * budget.a_fi * p.r_f**-p.alpha_fi * draws.desired_power
    )
    cross = (pc_w / p.u_c) * budget.a_fc * d**-p.alpha_c * draws.cross_tier_power
    marks = _interference_w(
        positions, np.array([d, 0.0]), draws.mark_powers, p_f_interferer_dbm,
        budget.a_ff, p,
    )
    with np.errstate(divide="ignore"):
        return desired / (cross + marks + noise_w)


def cellular_sir(
    d_norm: float,
    positions: np.ndarray,
    draws: ChannelDraw,
    p: SystemParams,
    *,
    p_f_interferer_dbm=None,
    noise_w: float = 0.0,
) -> np.ndarray:
    """Per-trial linear SIR (SINR when noise_w > 0) of a cellular user at
    D = d_norm·r_c served by the macrocell; every femto at positions (k, 2)
    interferes. No femtocells and zero noise give infinite SIR."""
    budget = link_budget(p)
    d = d_norm * p.r_c
    pc_w = dbm_to_watts(p.p_c_dbm)

    desired = (pc_w / p.u_c) * budget.a_c * d**-p.alpha_c * draws.desired_power
    marks = _interference_w(
        positions, np.array([d, 0.0]), draws.mark_powers, p_f_interferer_dbm,
        budget.a_cf, p,
    )
    with np.errstate(divide="ignore"):
        return desired / (marks + noise_w)


# ---------------------------------------------------------------------------
# scenario engine


def _policy_powers_dbm(
    cfg: ScenarioConfig,
    positions: np.ndarray,
    user_point: np.ndarray,
    p: SystemParams,
    blend_edge_db: float | None,
) -> np.ndarray:
    """Per-femto transmit power under the configured policy.

    The blended bound in dB is affine in log-distance (both window edges
    scale as D^alpha_c), so it is evaluated once per run at the cell edge
    (blend_edge_db, None without carrier sensing) and shifted per femto.
    """
    n = len(positions)
    ambient_dbm = p.p_c_dbm - cfg.fixed_pc_over_pf_db
    if blend_edge_db is None or n == 0:
        return np.full(n, ambient_dbm)
    d_norm_j = np.linalg.norm(positions, axis=1) / p.r_c
    blend_db = blend_edge_db + 10.0 * p.alpha_c * np.log10(d_norm_j)
    sensed = np.linalg.norm(positions - user_point, axis=1) <= cfg.sensing_radius_m
    powers = np.full(n, ambient_dbm)
    powers[sensed] = np.minimum(p.p_f_dbm, p.p_c_dbm - blend_db[sensed])
    return powers


def _reference_femto_power_dbm(cfg: ScenarioConfig, p: SystemParams) -> float:
    """Transmit power of the reference hotspot femto itself: it senses its
    co-located uplink-active user whenever the offset is within the sensing
    radius."""
    if cfg.power_policy is PowerPolicy.FIXED:
        return p.p_c_dbm - cfg.fixed_pc_over_pf_db
    if cfg.user_offset_m > cfg.sensing_radius_m:
        return p.p_c_dbm - cfg.fixed_pc_over_pf_db
    blend_db = blended_power_policy(cfg.d_norm, cfg.density(p), cfg.blend_weight, p)
    return min(p.p_f_dbm, p.p_c_dbm - blend_db)


def _drop_sinr(
    cfg: ScenarioConfig,
    drop_index: int,
    n_fades: int,
    p: SystemParams,
    seed: int,
    noise_w: float,
    blend_edge_db: float | None,
    serving_dbm: float | None,
) -> np.ndarray:
    """Per-fade SINR of one drop, drawn from its own Philox stream:
    femtocell positions on the disc of radius r_c centred on the receiver
    at (D, 0) (see ScenarioConfig), then the fades. Powers still follow each
    femtocell's own macro distance. noise_w, blend_edge_db and serving_dbm
    (the reference hotspot's own power) are per-run constants computed by
    simulate."""
    rng = _drop_rng(seed, drop_index)
    d = cfg.d_norm * p.r_c
    positions = _disc_positions(rng, cfg.density(p), p, (d, 0.0))
    draws = _sample_draws(
        rng, n_fades, len(positions), cfg.scenario, p, cfg.channel_mode
    )
    if cfg.scenario is Scenario.REFERENCE_CELLULAR_USER:
        user_point = np.array([d, 0.0])
        powers = _policy_powers_dbm(cfg, positions, user_point, p, blend_edge_db)
        return cellular_sir(
            cfg.d_norm, positions, draws, p, p_f_interferer_dbm=powers, noise_w=noise_w
        )
    # hotspot: the sensed uplink user sits co-linearly outward from the femto
    user_point = np.array([d + cfg.user_offset_m, 0.0])
    powers = _policy_powers_dbm(cfg, positions, user_point, p, blend_edge_db)
    return femto_sir(
        cfg.d_norm,
        positions,
        draws,
        p,
        p_f_serving_dbm=serving_dbm,
        p_f_interferer_dbm=powers,
        noise_w=noise_w,
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # honours taskset and cgroup cpusets
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_drops: int) -> int:
    raw = os.environ.get("TIERNET_THREADS", "")
    try:
        requested = int(raw) if raw else _usable_cpus()
    except ValueError:
        requested = _usable_cpus()
    return max(1, min(requested, n_drops))


def simulate(
    cfg: ScenarioConfig, n_drops: int, n_fades: int, p: SystemParams, seed: int
) -> SimulationResult:
    """Outage and rate distribution over all (drop, fade) pairs, from one
    pass over the drops.

    Each drop's SINR row is counted against the SIR target, then stored as
    log2(1+SINR) in one n_drops×n_fades buffer that is sorted in place at
    the end. Rows are independent Philox streams, reduced in drop order
    whatever the completion order.
    """
    if n_drops < 1 or n_fades < 1:
        raise ValueError(f"counts must be >= 1, got {n_drops} drops, {n_fades} fades")
    noise_w = dbm_to_watts(noise_floor_dbm(p)) if cfg.include_noise else 0.0
    blend_edge_db = None
    if cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and cfg.density(p) > 0:
        blend_edge_db = blended_power_policy(1.0, cfg.density(p), cfg.blend_weight, p)
    serving_dbm = None
    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        serving_dbm = _reference_femto_power_dbm(cfg, p)

    def row(i: int) -> np.ndarray:
        return _drop_sinr(cfg, i, n_fades, p, seed, noise_w, blend_edge_db, serving_dbm)

    rates = np.empty((n_drops, n_fades))

    def reduce(rows) -> int:
        outages = 0
        for i, sinr in enumerate(rows):
            outages += int(np.count_nonzero(sinr < p.gamma_target))
            np.add(sinr, 1.0, out=rates[i])
            np.log2(rates[i], out=rates[i])
        return outages

    workers = _worker_count(n_drops)
    if workers == 1:
        outages = reduce(map(row, range(n_drops)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outages = reduce(pool.map(row, range(n_drops)))
    rates = rates.reshape(-1)  # a view: the sort below is in place
    rates.sort()
    n = rates.size
    p_hat = outages / n
    return SimulationResult(
        p_outage=p_hat,
        ci_halfwidth_95=1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n),
        rates=rates,
        n_drops=n_drops,
        n_fades=n_fades,
        seed=seed,
    )


# the acceptance suite still imports the two estimates by their earlier names
estimate_outage = rate_cdf = simulate
