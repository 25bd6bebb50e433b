"""Stochastic-geometry simulation engine: Poisson femtocell fields, Rayleigh
MIMO fading with zero-forcing precoding, the carrier-sensed power-control
policy, and one pass that yields the outage, its precision and the rate
distribution. Both tiers share one SINR,
desired·D / (cross·C + Σⱼ wⱼ·Mⱼ + noise), whose link constants and
interferer weights a run builds once (_run): FullZF mode samples drops and
the fades D, C and M of that link; FastChi2 mode integrates the fades and
the femtocell field out (tiernet.laplace, on the nodes of _field).

Chi-squared bookkeeping: every dof-2k fading variable is stored on half
scale as Gamma(k, 1) (mean k) — the natural normalization for unit-power
complex Gaussian entries; SIR ratios are unaffected because numerator and
denominator share the convention.

Reproducibility contract: FastChi2 draws nothing. FullZF's randomness comes
from counter-based Philox streams, one per drop, spawned as
SeedSequence(seed, spawn_key=(drop_index,)). Within a drop the draw order is
fixed (femtocell count, radii, angles, then the desired / cross / mark
fades), and drops are reduced in drop order, so a seeded run is
bit-identical from run to run.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .laplace import ExactLink, MixtureRates
from .linkmodel import SystemParams, _check_fields, dbm_to_watts, link_budget
from .sensing import blended_power_policy, noise_floor_dbm

__all__ = [
    "ChannelMode",
    "Scenario",
    "PowerPolicy",
    "SimulationResult",
    "ScenarioConfig",
    "zf_precoder",
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


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """One simulation pass: the outage, its precision ci_halfwidth_95, and
    the law of log2(1+SINR) that percentile(q) reads.

    FastChi2: the exact outage averaged over the fades and the Poisson
    field, and as ci_halfwidth_95 its quadrature error, |value on the
    field's nodes − value on nodes refined 2× on both axes|; n_drops,
    n_fades and seed are only echoed. FullZF: the share of sampled
    (drop, fade) pairs in outage, and as ci_halfwidth_95 its 95% half-width
    clustered on drops (NaN for one drop)."""

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


def _sample_draws(
    rng: np.random.Generator,
    n_fades: int,
    n_interferers: int,
    reference_tier: Scenario,
    p: SystemParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All FullZF fading powers for n_fades trials against one drop: the
    desired (n_fades,), cross-tier (n_fades,; zeros for a cellular user)
    and mark (n_fades, n_interferers) powers, drawn in that fixed order so
    results are seed-stable."""
    if reference_tier is Scenario.REFERENCE_HOTSPOT:
        desired = _zf_desired_batch(rng, n_fades, p.t_f, p.u_f)
        cross = _zf_leakage_batch(rng, n_fades, p.t_c, p.u_c)
    else:
        desired = _zf_desired_batch(rng, n_fades, p.t_c, p.u_c)
        cross = np.zeros(n_fades)
    flat = _zf_leakage_batch(rng, n_fades * n_interferers, p.t_f, p.u_f)
    return desired, cross, flat.reshape(n_fades, n_interferers)


# ---------------------------------------------------------------------------
# scenario engine


def _interferer_weights(
    positions: np.ndarray,
    point: np.ndarray,
    p_tx_dbm,
    fixed_gain: float,
    p: SystemParams,
) -> np.ndarray:
    # received power at point per unit mark of each femtocell; p_tx_dbm is a
    # scalar or per-femtocell array
    distances = np.linalg.norm(positions - point, axis=1)
    p_tx_w = dbm_to_watts(p_tx_dbm)
    with np.errstate(divide="ignore"):  # co-located interferer -> inf power
        return (p_tx_w / p.u_f) * fixed_gain * distances**-p.alpha_fo


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


def _layout(
    cfg: ScenarioConfig,
    p: SystemParams,
    u_radius: np.ndarray,
    u_angle: np.ndarray,
    blend_edge_db: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (about the receiver at (D, 0), see ScenarioConfig) and
    transmit powers of femtocells at the given radius and angle uniforms:
    a drop's draws, or the nodes of the field."""
    d = cfg.d_norm * p.r_c
    positions = _disc_positions(u_radius, u_angle, p, (d, 0.0))
    user_point = np.array([d, 0.0])
    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        # the sensed uplink user sits co-linearly outward from the femto
        user_point[0] += cfg.user_offset_m
    powers = _policy_powers_dbm(cfg, positions, user_point, p, blend_edge_db)
    return positions, powers


def _run(
    cfg: ScenarioConfig, p: SystemParams
) -> tuple[ExactLink, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """What a run computes once from the configuration, for both channel
    modes: the link, and the map from radius and angle uniforms (a FullZF
    drop's draws or the FastChi2 field's nodes) to interferer weights
    (received power at the reference receiver per unit mark).

    The link holds the received power per unit fade of the desired link
    (the macrocell for a cellular user; for a hotspot its own femto, priced
    by the policy like every femtocell, with its user user_offset_m
    outward) and of the cross-tier link (the macrocell at a hotspot's user,
    0 for a cellular user), the noise power (0 without noise) and the
    FastChi2 Gamma shapes: desired power T−U+1 of the user's own tier,
    cross-tier power u_c (0 without a cross-tier term) and femtocell marks
    u_f.
    """
    budget = link_budget(p)
    d = cfg.d_norm * p.r_c
    pc_w = dbm_to_watts(p.p_c_dbm)
    noise_w = dbm_to_watts(noise_floor_dbm(p)) if cfg.include_noise else 0.0
    blend_edge_db = None
    if cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and cfg.density(p) > 0:
        blend_edge_db = blended_power_policy(1.0, cfg.density(p), cfg.blend_weight, p)
    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        own_dbm = _policy_powers_dbm(
            cfg, np.array([[d, 0.0]]), np.array([d + cfg.user_offset_m, 0.0]), p, blend_edge_db
        )
        serving_w = dbm_to_watts(own_dbm[0])
        link = ExactLink(
            (serving_w / p.u_f) * budget.a_fi * p.r_f**-p.alpha_fi,
            (pc_w / p.u_c) * budget.a_fc * d**-p.alpha_c,
            noise_w,
            (p.t_f - p.u_f + 1, p.u_c, p.u_f),
        )
        gain = budget.a_ff
    else:
        link = ExactLink(
            (pc_w / p.u_c) * budget.a_c * d**-p.alpha_c,
            0.0,
            noise_w,
            (p.t_c - p.u_c + 1, 0, p.u_f),
        )
        gain = budget.a_cf
    receiver = np.array([d, 0.0])

    def weights(u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
        positions, powers = _layout(cfg, p, u_radius, u_angle, blend_edge_db)
        return _interferer_weights(positions, receiver, powers, gain, p)

    return link, weights


# the FastChi2 field quadrature (_field): Gauss–Legendre nodes in log ρ per
# piece of a ray, rays in angle, and the radius (m) inside which the field,
# of mass λ·π·ρ² there (6·10⁻¹³ at 60 femtocells), is left out
_RADIAL_NODES = 80
_RAYS = 128
_INNER_M = 1e-4


def _field(
    cfg: ScenarioConfig, p: SystemParams, refine: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes of the femtocell field on the disc of radius r_c
    about the receiver, as the radius and angle uniforms that the layout
    takes (u_radius = (ρ/r_c)², u_angle = φ/2π), and each node's mass,
    density × area. refine multiplies the node counts on both axes.

    Polar about the receiver: _RAYS rays at the midpoints in φ, each split
    where it crosses the sensing circle about the sensed user, where the
    policy's power jumps: at ρ = o·cos φ ± √(R_s² − o²·sin² φ), clipped to
    [_INNER_M, r_c], o the user's offset from the receiver (0 for a
    cellular user). Each piece takes Gauss–Legendre nodes in log ρ, where
    the area element is ρ²·d(log ρ)·dφ; a piece that the ray misses is
    empty and weighs 0.
    """
    n_rays = _RAYS * refine
    phi = (np.arange(n_rays) + 0.5) * (2.0 * math.pi / n_rays)
    o = cfg.user_offset_m if cfg.scenario is Scenario.REFERENCE_HOTSPOT else 0.0
    half = np.sqrt(np.maximum(cfg.sensing_radius_m**2 - (o * np.sin(phi)) ** 2, 0.0))
    edges = np.stack([np.zeros(n_rays), o * np.cos(phi) - half, o * np.cos(phi) + half,
                      np.full(n_rays, p.r_c)])
    log_edges = np.log(np.clip(edges, _INNER_M, p.r_c))[..., None]
    mid, half_width = (log_edges[1:] + log_edges[:-1]) / 2, (log_edges[1:] - log_edges[:-1]) / 2
    t, t_weight = np.polynomial.legendre.leggauss(_RADIAL_NODES * refine)
    rho = np.exp(mid + half_width * t)  # (piece, ray, node)
    mass = cfg.density(p) * rho**2 * half_width * t_weight * (2.0 * math.pi / n_rays)
    u_angle = np.broadcast_to((phi / (2.0 * math.pi))[:, None], rho.shape)
    return ((rho / p.r_c) ** 2).ravel(), u_angle.ravel(), mass.ravel()


class _SampledRates:
    """A FullZF run's sorted log2(1+SINR) of every (drop, fade) pair."""

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = rates

    def quantile(self, u: float) -> float:
        return float(np.quantile(self.rates, u))


def simulate(
    cfg: ScenarioConfig, n_drops: int, n_fades: int, p: SystemParams, seed: int
) -> SimulationResult:
    """Outage, its precision and the rate law of the configured scenario.
    FastChi2 mode computes them exactly, averaged over the fades and over
    the Poisson field of the drops (_field), and draws neither drops nor
    fades: n_drops, n_fades and seed are only echoed. FullZF mode samples
    n_drops drops of n_fades fades each in one pass, which sorts one
    n_drops×n_fades buffer of log2(1+SINR)."""
    if n_drops < 1 or n_fades < 1:
        raise ValueError(f"counts must be >= 1, got {n_drops} drops, {n_fades} fades")
    link, weights = _run(cfg, p)
    if cfg.channel_mode is ChannelMode.FAST_CHI2:
        fields = [
            (weights(u_radius, u_angle), mass)
            for u_radius, u_angle, mass in (_field(cfg, p, 1), _field(cfg, p, 2))
        ]
        p_hat, p_fine = (1.0 - link.coverage(p.gamma_target, *f)[0] for f in fields)
        ci = abs(p_hat - p_fine)
        rate_law = MixtureRates(link, *fields[0])
    else:
        rates = np.empty((n_drops, n_fades))
        drop_outage = np.empty(n_drops)
        outages = 0
        for i in range(n_drops):
            rng, u_radius, u_angle = _drop_draws(cfg, i, p, seed)
            w = weights(u_radius, u_angle)
            sinr = link.sinr(*_sample_draws(rng, n_fades, len(w), cfg.scenario, p), w)
            count = int(np.count_nonzero(sinr < p.gamma_target))
            outages += count
            drop_outage[i] = count / n_fades
            np.add(sinr, 1.0, out=rates[i])
            np.log2(rates[i], out=rates[i])
        rates = rates.reshape(-1)  # a view: the sort below is in place
        rates.sort()
        p_hat = outages / rates.size
        # 95% half-width with the drop as the sampling unit
        ci = math.nan if n_drops < 2 else (
            1.96 * float(np.std(drop_outage, ddof=1)) / math.sqrt(n_drops)
        )
        rate_law = _SampledRates(rates)
    return SimulationResult(
        p_outage=p_hat,
        ci_halfwidth_95=ci,
        n_drops=n_drops,
        n_fades=n_fades,
        seed=seed,
        rate_law=rate_law,
    )

