"""Stochastic-geometry Monte Carlo engine: Poisson femtocell drops, Rayleigh
MIMO fading with zero-forcing precoding, per-tier SIR/SINR, and one
simulation pass that yields the outage estimate, its clustered confidence
interval and the rate distribution, including the carrier-sensed
power-control policy. FullZF mode samples the fades; FastChi2 mode
integrates them out (tiernet.laplace).

Chi-squared bookkeeping: every dof-2k fading variable is stored on half
scale as Gamma(k, 1) (mean k) — the natural normalization for unit-power
complex Gaussian entries; SIR ratios are unaffected because numerator and
denominator share the convention.

Reproducibility contract: trial randomness comes from counter-based Philox
streams, one per drop, spawned as SeedSequence(seed, spawn_key=(drop_index,)).
Within a drop the draw order is fixed (femtocell count, radii, angles, then
in FullZF mode the desired / cross / mark fades), and drops are reduced in
drop order, so a seeded run is bit-identical from run to run.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .laplace import ExactLink, MixtureRates, weight_blocks
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
    "conditional_outage",
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

    simulate builds them in FullZF mode, from explicit complex Gaussian
    matrices and pseudoinverse-based precoders.
    """

    desired_power: np.ndarray
    cross_tier_power: np.ndarray
    mark_powers: np.ndarray


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """One Monte Carlo pass over the drops: the mean per-drop outage, its
    95% half-width clustered on drops (NaN for one drop), and the law of
    log2(1+SINR) that percentile(q) reads. FastChi2 only echoes n_fades."""

    p_outage: float
    ci_halfwidth_95: float
    n_drops: int
    n_fades: int
    seed: int
    rate_law: "_SampledRates | MixtureRates"

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must lie in [0,100], got {q}")
        return self.rate_law.quantile(float(q) / 100.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            (self.p_outage, self.ci_halfwidth_95, self.n_drops, self.n_fades, self.seed)
            == (other.p_outage, other.ci_halfwidth_95, other.n_drops, other.n_fades,
                other.seed)
            and self.rate_law == other.rate_law
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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


def _drop_draws(
    cfg: ScenarioConfig, drop_index: int, p: SystemParams, seed: int
) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Drop drop_index's stream, after drawing the femtocell count on the
    disc of radius r_c and then one radius and one angle uniform each."""
    rng = _drop_rng(seed, drop_index)
    count = rng.poisson(cfg.density(p) * math.pi * p.r_c**2)
    return rng, rng.random(count), rng.random(count)


def _disc_positions(
    u_radius: np.ndarray,
    u_angle: np.ndarray,
    p: SystemParams,
    centre: tuple[float, float],
) -> np.ndarray:
    """Points uniform on the disc of radius r_c about centre, in meters
    from the macrocell."""
    radii = p.r_c * np.sqrt(u_radius)
    angles = 2.0 * math.pi * u_angle
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


def _fast_chi2_shapes(reference_tier: Scenario, p: SystemParams) -> tuple[int, int, int]:
    """The FastChi2 laws of one reference user, as Gamma(shape, 1) shapes:
    desired power T−U+1 of its own tier, cross-tier power u_c (0 for a
    cellular user, who has no cross-tier term) and femtocell marks u_f."""
    if reference_tier is Scenario.REFERENCE_HOTSPOT:
        return p.t_f - p.u_f + 1, p.u_c, p.u_f
    return p.t_c - p.u_c + 1, 0, p.u_f


def _sample_draws(
    rng: np.random.Generator,
    n_fades: int,
    n_interferers: int,
    reference_tier: Scenario,
    p: SystemParams,
) -> ChannelDraw:
    """All FullZF fading powers for n_fades trials against one drop, in a
    fixed draw order (desired, cross, marks) so results are seed-stable."""
    if reference_tier is Scenario.REFERENCE_HOTSPOT:
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


def _interferer_weights(
    positions: np.ndarray,
    point: np.ndarray,
    p_tx_dbm,
    fixed_gain: float,
    p: SystemParams,
) -> np.ndarray:
    # received power at point per unit mark of each femtocell; p_tx_dbm is a
    # scalar or per-femtocell array, None for the nominal femto power
    distances = np.linalg.norm(positions - point, axis=1)
    if p_tx_dbm is None:
        p_tx_dbm = p.p_f_dbm
    p_tx_w = dbm_to_watts(np.asarray(p_tx_dbm, dtype=float))
    with np.errstate(divide="ignore"):  # co-located interferer -> inf power
        return (p_tx_w / p.u_f) * fixed_gain * distances**-p.alpha_fo


def _femto_link(
    d_norm: float, p: SystemParams, p_f_serving_dbm: float | None = None
) -> tuple[float, float, float]:
    """Received power per unit fade at a femtocell user whose home femto sits
    at D = d_norm·r_c: from the serving femto, from the macrocell (cross
    tier), and the fixed gain of the femto-to-femto interferer links."""
    budget = link_budget(p)
    d = d_norm * p.r_c
    pf_serv_w = dbm_to_watts(p.p_f_dbm if p_f_serving_dbm is None else p_f_serving_dbm)
    pc_w = dbm_to_watts(p.p_c_dbm)
    return (
        (pf_serv_w / p.u_f) * budget.a_fi * p.r_f**-p.alpha_fi,
        (pc_w / p.u_c) * budget.a_fc * d**-p.alpha_c,
        budget.a_ff,
    )


def _cellular_link(d_norm: float, p: SystemParams) -> tuple[float, float, float]:
    """As _femto_link for a cellular user at D = d_norm·r_c: the macrocell
    serves it, so there is no cross-tier term."""
    budget = link_budget(p)
    d = d_norm * p.r_c
    pc_w = dbm_to_watts(p.p_c_dbm)
    return (pc_w / p.u_c) * budget.a_c * d**-p.alpha_c, 0.0, budget.a_cf


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
    desired_scale, cross_scale, gain = _femto_link(d_norm, p, p_f_serving_dbm)
    d = d_norm * p.r_c

    desired = desired_scale * draws.desired_power
    cross = cross_scale * draws.cross_tier_power
    # per-trial femtocell interference: no femtocells give a (n, 0) @ (0,) = 0
    marks = draws.mark_powers @ _interferer_weights(
        positions, np.array([d, 0.0]), p_f_interferer_dbm, gain, p
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
    desired_scale, _, gain = _cellular_link(d_norm, p)
    d = d_norm * p.r_c

    desired = desired_scale * draws.desired_power
    # per-trial femtocell interference: no femtocells give a (n, 0) @ (0,) = 0
    marks = draws.mark_powers @ _interferer_weights(
        positions, np.array([d, 0.0]), p_f_interferer_dbm, gain, p
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


def _run_constants(
    cfg: ScenarioConfig, p: SystemParams
) -> tuple[float, float | None, float | None]:
    """What a run computes once from the configuration: the noise power in
    watts (0 without noise), the blended bound at the cell edge (None
    without carrier sensing) and the reference hotspot's own power (None
    for a cellular user)."""
    noise_w = dbm_to_watts(noise_floor_dbm(p)) if cfg.include_noise else 0.0
    blend_edge_db = None
    if cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and cfg.density(p) > 0:
        blend_edge_db = blended_power_policy(1.0, cfg.density(p), cfg.blend_weight, p)
    serving_dbm = None
    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        serving_dbm = _reference_femto_power_dbm(cfg, p)
    return noise_w, blend_edge_db, serving_dbm


def _layout(
    cfg: ScenarioConfig,
    p: SystemParams,
    u_radius: np.ndarray,
    u_angle: np.ndarray,
    blend_edge_db: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (about the receiver at (D, 0), see ScenarioConfig) and
    transmit powers of the femtocells of one or more drops."""
    d = cfg.d_norm * p.r_c
    positions = _disc_positions(u_radius, u_angle, p, (d, 0.0))
    user_point = np.array([d, 0.0])
    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        # the sensed uplink user sits co-linearly outward from the femto
        user_point[0] += cfg.user_offset_m
    powers = _policy_powers_dbm(cfg, positions, user_point, p, blend_edge_db)
    return positions, powers


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
    """Per-fade FullZF SINR of one drop, given the constants of
    _run_constants."""
    rng, u_radius, u_angle = _drop_draws(cfg, drop_index, p, seed)
    positions, powers = _layout(cfg, p, u_radius, u_angle, blend_edge_db)
    draws = _sample_draws(rng, n_fades, len(positions), cfg.scenario, p)
    if cfg.scenario is Scenario.REFERENCE_CELLULAR_USER:
        return cellular_sir(
            cfg.d_norm, positions, draws, p, p_f_interferer_dbm=powers, noise_w=noise_w
        )
    return femto_sir(
        cfg.d_norm,
        positions,
        draws,
        p,
        p_f_serving_dbm=serving_dbm,
        p_f_interferer_dbm=powers,
        noise_w=noise_w,
    )


def _exact_run(
    cfg: ScenarioConfig, n_drops: int, p: SystemParams, seed: int
) -> tuple[ExactLink, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """A FastChi2 run's constants, and its drops' interferer weights in
    blocks of whole drops (laplace.weight_blocks), laid out once per block."""
    noise_w, blend_edge_db, serving_dbm = _run_constants(cfg, p)
    if cfg.scenario is Scenario.REFERENCE_CELLULAR_USER:
        desired, cross, gain = _cellular_link(cfg.d_norm, p)
    else:
        desired, cross, gain = _femto_link(cfg.d_norm, p, serving_dbm)
    link = ExactLink(desired, cross, noise_w, _fast_chi2_shapes(cfg.scenario, p))
    receiver = np.array([cfg.d_norm * p.r_c, 0.0])

    def weights(u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
        positions, powers = _layout(cfg, p, u_radius, u_angle, blend_edge_db)
        return _interferer_weights(positions, receiver, powers, gain, p)

    draws = (_drop_draws(cfg, i, p, seed)[1:] for i in range(n_drops))
    return link, weight_blocks(draws, weights)


class _SampledRates:
    """A FullZF run's sorted log2(1+SINR) of every (drop, fade) pair."""

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = rates

    def quantile(self, u: float) -> float:
        return float(np.quantile(self.rates, u))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SampledRates):
            return NotImplemented
        return np.array_equal(self.rates, other.rates)


def _clustered_ci(drop_outage: np.ndarray) -> float:
    # 95% half-width with the drop as the sampling unit
    if len(drop_outage) < 2:
        return math.nan
    return 1.96 * float(np.std(drop_outage, ddof=1)) / math.sqrt(len(drop_outage))


def simulate(
    cfg: ScenarioConfig, n_drops: int, n_fades: int, p: SystemParams, seed: int
) -> SimulationResult:
    """Outage, its clustered CI and the rate law from one pass over the
    drops: exact per drop in FastChi2 mode, which keeps the interferer
    weights for percentiles; sampled in FullZF mode, which sorts one
    n_drops×n_fades buffer of log2(1+SINR)."""
    if n_drops < 1 or n_fades < 1:
        raise ValueError(f"counts must be >= 1, got {n_drops} drops, {n_fades} fades")
    if cfg.channel_mode is ChannelMode.FAST_CHI2:
        link, blocks = _exact_run(cfg, n_drops, p, seed)
        rate_law = MixtureRates(link, tuple(blocks))
        drop_outage = 1.0 - np.concatenate(
            [link.coverage(p.gamma_target, w, c)[0] for w, c in rate_law.blocks]
        )
        p_hat = float(drop_outage.mean())
    else:
        noise_w, blend_edge_db, serving_dbm = _run_constants(cfg, p)
        rates = np.empty((n_drops, n_fades))
        drop_outage = np.empty(n_drops)
        outages = 0
        for i in range(n_drops):
            sinr = _drop_sinr(
                cfg, i, n_fades, p, seed, noise_w, blend_edge_db, serving_dbm
            )
            count = int(np.count_nonzero(sinr < p.gamma_target))
            outages += count
            drop_outage[i] = count / n_fades
            np.add(sinr, 1.0, out=rates[i])
            np.log2(rates[i], out=rates[i])
        rates = rates.reshape(-1)  # a view: the sort below is in place
        rates.sort()
        p_hat = outages / rates.size
        rate_law = _SampledRates(rates)
    return SimulationResult(
        p_outage=p_hat,
        ci_halfwidth_95=_clustered_ci(drop_outage),
        n_drops=n_drops,
        n_fades=n_fades,
        seed=seed,
        rate_law=rate_law,
    )


def conditional_outage(
    cfg: ScenarioConfig, n_drops: int, p: SystemParams, seed: int
) -> np.ndarray:
    """Exact FastChi2 outage of each drop given its femtocells, the values
    whose mean simulate reports; each block is freed once used.

    Raises:
        ValueError: fewer than one drop, or FullZF mode, which stays sampled
            as the oracle for the Gamma laws this relies on.
    """
    if n_drops < 1:
        raise ValueError(f"need at least 1 drop, got {n_drops}")
    if cfg.channel_mode is ChannelMode.FULL_ZF:
        raise ValueError("conditional_outage needs FastChi2 fades; FullZF is sampled")
    link, blocks = _exact_run(cfg, n_drops, p, seed)
    return np.concatenate([1.0 - link.coverage(p.gamma_target, w, c)[0] for w, c in blocks])
