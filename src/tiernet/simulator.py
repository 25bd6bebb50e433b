"""Stochastic-geometry simulation engine: Poisson femtocell fields, Rayleigh
MIMO fading with zero-forcing precoding, the carrier-sensed power-control
policy, and one pass that yields the outage, its precision and the rate
distribution. Both tiers share one SINR,
desired·D / (cross·C + Σⱼ wⱼ·Mⱼ + noise). A run builds its link constants
and its weight map once (_run), which prices femtocell sites (_sites) built
once per FullZF drop or FastChi2 field: FullZF mode samples drops and the
fades D, C and M of that link; FastChi2 mode integrates the fades and the
femtocell field out (tiernet.laplace, on the nodes of _field).

Chi-squared bookkeeping: every dof-2k fading variable is stored on half
scale as Gamma(k, 1) (mean k) — the natural normalization for unit-power
complex Gaussian entries; SIR ratios are unaffected because numerator and
denominator share the convention.

Reproducibility contract: FastChi2 draws nothing. FullZF's randomness comes
from counter-based Philox streams, one per drop, spawned as
SeedSequence(seed, spawn_key=(drop_index,)). Within a drop the draw order is
fixed (femtocell count, radii, angles, then the desired / cross / mark
fades), and drops are reduced in drop order, so a seeded run is
bit-identical from run to run. The single-stream (U = 1) samplers draw a
channel's real block, then its imaginary block, and a victim's two blocks
at most _ROWS rows at a time, in that same order: beside the channel that
a leakage sampler holds, they keep a few arrays of one value per row.
fade_ks_distances's four checks each draw from their own such stream and
run side by side on a thread pool of at most min(4, usable CPUs) threads,
so their distances are the same at any core count.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .laplace import ExactLink, rate_quantiles
from .linkmodel import (
    ChannelMode, PowerPolicy, Scenario, ScenarioConfig, SystemParams, dbm_to_watts,
    link_budget, noise_floor_dbm,
)
from .sensing import blended_power_policy, power_ratio_bounds
from .specfun import chi2_cdf

__all__ = [
    "SimulationResult",
    "simulate",
    "fade_ks_distances",
]


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """One simulation pass: the outage, its precision ci_halfwidth_95, and
    rate_law, the map from probabilities us to the quantiles of
    log2(1+SINR) at them, that percentiles(qs) reads.

    FastChi2: the exact outage averaged over the fades and the Poisson
    field, and as ci_halfwidth_95 its quadrature error, |value on the
    field's nodes − value on nodes refined 2× on both axes|, which builds
    and prices the refined field when it is first read (and only then).
    FullZF: the share of sampled (drop, fade) pairs in outage, and as
    ci_halfwidth_95 its 95% half-width clustered on drops (NaN for one
    drop)."""

    p_outage: float
    _ci_law: Callable[[], float]
    rate_law: Callable[[list[float]], list[float]]

    @functools.cached_property
    def ci_halfwidth_95(self) -> float:
        return self._ci_law()

    def percentiles(self, qs: Sequence[float]) -> list[float]:
        """The rate percentiles at qs (each in [0, 100]), in the order of qs."""
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile q must lie in [0,100], got {q}")
        return self.rate_law([float(q) / 100.0 for q in qs])


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


# rows of normals a single-stream (U = 1) sampler draws at a time
_ROWS = 8192


def _normal_rows(
    rng: np.random.Generator, n: int, t: int, blocks: int
) -> Iterator[tuple[int, slice, np.ndarray]]:
    # `blocks` (n, t) blocks of standard normals in the stream's order, as
    # (block, row slice, its rows) triples of at most _ROWS rows, each
    # refilling one buffer
    buf = np.empty((min(n, _ROWS), t))
    for block in range(blocks):
        for start in range(0, n, _ROWS):
            rows = slice(start, min(start + _ROWS, n))
            x = buf[: rows.stop - start]
            rng.standard_normal(out=x)
            yield block, rows, x


def _cn_parts(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # shape's complex normals, unscaled: its real block, then its imaginary block
    parts = np.empty((2, *shape))
    rng.standard_normal(out=parts[0])
    rng.standard_normal(out=parts[1])
    return parts


def _cn_matrix(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # unit-power complex normals, scaled in place: bit for bit (re + 1j·im)/√2
    z = np.empty(shape, complex)
    z.real, z.imag = _cn_parts(rng, shape)
    z /= math.sqrt(2.0)
    return z


def _zf_precoder_batch(rows: np.ndarray) -> np.ndarray:
    # rows: (n, U, T) unit row directions -> (n, T, U) unit-column precoders;
    # the samplers call it at U > 1 only, as one stream's column is the
    # row's adjoint (maximum ratio)
    adjoint = rows.conj().transpose(0, 2, 1)
    w = adjoint @ np.linalg.inv(rows @ adjoint)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _zf_precoded(
    rng: np.random.Generator, n: int, t: int, u: int
) -> tuple[np.ndarray, np.ndarray]:
    # U > 1: n channels h (n, U, T) and their zero-forcing precoders W (n, T, U)
    h = _cn_matrix(rng, (n, u, t))
    rows = h.conj() / np.linalg.norm(h, axis=2, keepdims=True)
    return h, _zf_precoder_batch(rows)


def _zf_desired_batch(
    rng: np.random.Generator, n: int, t: int, u: int
) -> np.ndarray:
    # |h0^dag w0|^2 for the served user: raw channels, adjoint row directions;
    # one stream's column is h0/||h0|| (maximum ratio), so that is ||h0||^2
    if u == 1:
        if n <= _ROWS:
            # both blocks whole, within the bound: einsum sums a lone row's
            # 2T normals in one run, in an order two row sums do not repeat
            h = _cn_parts(rng, (n, t))
            return np.einsum("knt,knt->n", h, h) / 2.0
        # the real block's row sums, then the imaginary block's
        sq, im_sq = np.empty(n), np.empty(n)
        for block, rows, x in _normal_rows(rng, n, t, 2):
            np.einsum("nt,nt->n", x, x, out=(sq, im_sq)[block][rows])
        sq += im_sq
        sq /= 2.0
        return sq
    h, w = _zf_precoded(rng, n, t, u)
    return np.abs(np.einsum("nt,nt->n", h[:, 0, :].conj(), w[:, :, 0])) ** 2


def _zf_leakage_batch(
    rng: np.random.Generator, n: int, t: int, u: int
) -> np.ndarray:
    # ||g^dag W||^2 at a victim with channel g independent of the precoder;
    # one stream's W is h/||h||, so that is |g^dag h|^2/||h||^2, here from the
    # unscaled parts x + iy of h and g as |g^dag h|^2/(2·||h||^2). h is held
    # whole (both its blocks precede g's); g's two blocks come _ROWS rows at
    # a time, and each row of gᴴh is finished in place once g's second block
    # has passed it
    if u == 1:
        h = _cn_parts(rng, (n, t))
        re, im = np.empty(n), np.empty(n)
        for block, rows, g in _normal_rows(rng, n, t, 2):
            r, i = re[rows], im[rows]
            if block == 0:
                np.einsum("nt,nt->n", g, h[0, rows], out=r)
                np.einsum("nt,nt->n", g, h[1, rows], out=i)
                continue
            r += np.einsum("nt,nt->n", g, h[1, rows])
            i -= np.einsum("nt,nt->n", g, h[0, rows])
            r *= r
            i *= i
            r += i
        norm_sq = np.einsum("knt,knt->n", h, h, out=im)
        norm_sq *= 2.0
        re /= norm_sq
        return re
    _, w = _zf_precoded(rng, n, t, u)
    g = _cn_matrix(rng, (n, t))
    return (np.abs(np.einsum("nt,ntu->nu", g.conj(), w)) ** 2).sum(axis=1)


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says; else all
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fade_ks_distances(p: SystemParams, seed: int, n: int) -> dict[str, float]:
    """Kolmogorov–Smirnov distance of n FullZF samples of each fade, check i
    on drop stream i of seed, to the Gamma law FastChi2 integrates (_run's
    shapes), keyed as `validate` reports them: each tier's desired power,
    Gamma(T−U+1), the cross-tier leakage, Gamma(u_c), and the marks, Gamma(u_f).
    The four checks run side by side on a pool of at most
    min(4, usable CPUs) threads, a bound that holds peak memory: a check
    holds its n samples and at most four more arrays of n values at once,
    and a leakage check, while it samples, also its channel's 2·n·T normals
    (its victim's come _ROWS rows at a time). Each reads only its own
    stream, so the distances do not depend on the thread count; the error
    of the earliest failing check is raised once every thread has finished.

    Raises:
        ValueError: if n < 1.
    """
    # here, not at the top: loading the simulator loads no thread pool (nor logging)
    from concurrent.futures import ThreadPoolExecutor

    if n < 1:
        raise ValueError(f"the KS checks need n >= 1 samples each, got n = {n}")
    checks = (
        ("ks_desired_femto", _zf_desired_batch, p.t_f, p.u_f, p.t_f - p.u_f + 1),
        ("ks_desired_cellular", _zf_desired_batch, p.t_c, p.u_c, p.t_c - p.u_c + 1),
        ("ks_cross_tier", _zf_leakage_batch, p.t_c, p.u_c, p.u_c),
        ("ks_marks", _zf_leakage_batch, p.t_f, p.u_f, p.u_f),
    )
    ecdf = np.arange(n + 1) / n

    def distance(i: int) -> float:
        # the sample's CDF steps against a dof-2k chi-squared on half scale
        _, sampler, t, u, k = checks[i]
        x = sampler(_drop_rng(seed, i), n, t, u)
        x.sort()
        x *= 2.0
        cdf = chi2_cdf(2 * k, x)
        return float(max(np.max(ecdf[1:] - cdf), np.max(cdf - ecdf[:-1])))

    with ThreadPoolExecutor(min(len(checks), _usable_cpus())) as pool:
        distances = list(pool.map(distance, range(len(checks))))
    return {name: d for (name, *_), d in zip(checks, distances)}


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
    results are seed-stable. Each sampler draws its channels' real block,
    then their imaginary block (then the victim's, for leakage) at every U;
    at U = 1 it forms no precoder but reads the maximum-ratio closed forms
    off those same normals, drawn at most _ROWS rows at a time, so every
    later draw stays where it was."""
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


def _layout(cfg: ScenarioConfig, p: SystemParams) -> tuple[float, float, float, float]:
    """What _sites takes from a run besides the uniforms: the sensed user's
    offset o outward from the receiver (0 for a cellular user), R_s, r_c, α_fo."""
    o = cfg.user_offset_m if cfg.scenario is Scenario.REFERENCE_HOTSPOT else 0.0
    return o, cfg.sensing_radius_m, p.r_c, p.alpha_fo


def _sites(
    u_radius: np.ndarray, u_angle: np.ndarray, o: float, r_s: float, r_c: float, alpha_fo: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All that a femtocell's weight takes from its position, built once per
    FullZF drop or FastChi2 field (_polar_field), for any D and policy. It
    lies at ρ = r_c·√u_radius from the receiver, at φ = 2π·u_angle from the
    macrocell–receiver axis (see ScenarioConfig; u_angle broadcasts), and
    senses the user, o outward on the axis, if d_u² = ρ² + o² − 2oρ·cos φ ≤ R_s².
    Returns that mask, ρ² and ρ·cos φ of the sensed femtocells (for their
    d_m² = D² + ρ² + 2Dρ·cos φ), and every path loss ρ^(−α_fo), inf at ρ = 0."""
    rho_sq = r_c**2 * u_radius
    rho_cos = np.sqrt(rho_sq) * np.cos(2.0 * math.pi * u_angle)
    sensed = rho_sq + o * o - 2.0 * o * rho_cos <= r_s**2
    with np.errstate(divide="ignore", over="ignore"):  # co-located or overflowing -> inf power
        path_loss = rho_sq ** (-0.5 * alpha_fo)
    return sensed, rho_sq[sensed], rho_cos[sensed], path_loss


def _run(
    cfg: ScenarioConfig, p: SystemParams
) -> tuple[ExactLink, Callable[[tuple], np.ndarray]]:
    """What a run computes once from the configuration, for both channel
    modes: the link, and the map from _sites (of a FullZF drop or of the
    FastChi2 field, in their shape) to interferer weights (received power at
    the reference receiver per unit mark).

    The link holds the received power per unit fade of the desired link
    (the macrocell for a cellular user; for a hotspot its own femto, priced
    by the policy like every femtocell, with its user user_offset_m
    outward) and of the cross-tier link (the macrocell at a hotspot's user,
    0 for a cellular user), the noise power (0 without noise) and the
    FastChi2 Gamma shapes: desired power T−U+1 of the user's own tier,
    cross-tier power u_c (0 without a cross-tier term) and femtocell marks
    u_f.

    A femtocell's weight is (P_tx/u_f)·gain·ρ^(−α_fo), P_tx the policy's
    power: the ambient P_c/(fixed ratio), or, if it senses the user under
    carrier sensing, min(P_f, P_c·10^(−b/10)·(d_m/r_c)^(−α_c)), b the
    blended bound at the cell edge in dB. That bound is affine in
    log-distance (both window edges scale as D^α_c), so it is solved once
    per run and scaled per femtocell. The map prices only the power of the
    sensed femtocells, and under Fixed takes no power at all.
    """
    budget = link_budget(p)
    d = cfg.d_norm * p.r_c
    o, r_s, *_ = _layout(cfg, p)
    pc_w = dbm_to_watts(p.p_c_dbm)
    noise_w = dbm_to_watts(noise_floor_dbm(p)) if cfg.include_noise else 0.0
    ambient_w = dbm_to_watts(p.p_c_dbm - cfg.fixed_pc_over_pf_db)
    lam_f = cfg.density(p)
    carrier_sensing = cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and lam_f > 0
    if carrier_sensing:
        blend_edge_db = blended_power_policy(*power_ratio_bounds(1.0, lam_f, p), cfg.blend_weight)
        # capped where even at 2·r_c from the macrocell, the farthest a femtocell
        # lies, it would exceed P_f: min(P_f, ·) prices P_f there anyway
        blend_dbm = min(p.p_c_dbm - blend_edge_db, p.p_f_dbm + 10.0 * p.alpha_c * math.log10(2.0))
        blend_w, pf_w = dbm_to_watts(blend_dbm), dbm_to_watts(p.p_f_dbm)

    def sensed_w(macro_sq):
        # the carrier-sensed power of a femtocell that senses the user, at
        # this squared distance from the macrocell
        with np.errstate(divide="ignore"):  # a femtocell on the macrocell -> P_f
            return np.minimum(pf_w, blend_w * (macro_sq / p.r_c**2) ** (-0.5 * p.alpha_c))

    if cfg.scenario is Scenario.REFERENCE_HOTSPOT:
        serving_w = float(sensed_w(d * d)) if carrier_sensing and o * o <= r_s**2 else ambient_w
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

    def weights(sites: tuple) -> np.ndarray:
        sensed, rho_sq, rho_cos, path_loss = sites
        w = (ambient_w * (gain / p.u_f)) * path_loss
        if carrier_sensing:
            macro_sq = d * d + rho_sq + 2.0 * d * rho_cos
            w[sensed] = (sensed_w(macro_sq) * (gain / p.u_f)) * path_loss[sensed]
        return w

    return link, weights


# the FastChi2 field quadrature (_field): Gauss–Legendre nodes in log ρ per
# non-empty piece of a ray (empty pieces are dropped), rays in angle on the
# half-plane above the macrocell–receiver axis (each standing for itself and
# its mirror image), and the radius (m) inside which the field, of mass
# λ·π·ρ² there (6·10⁻¹³ at 60 femtocells), is left out
_RADIAL_NODES = 80
_RAYS = 64
_INNER_M = 1e-4


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss–Legendre rule on [−1, 1] (n even), read-only, built once
    per n without LAPACK by three Newton steps on Pₙ's recurrence from Tricomi's
    nodes. The weights, 2/((1 − x²)·Pₙ′²) moved to first order by the last step,
    are within 5.0·10⁻¹⁴ relative of a 40-digit rule at n ≤ 160, nodes 6.3·10⁻¹⁶."""
    if n % 2:
        raise ValueError(f"the Legendre rule is built for even n only, got {n}")
    x = np.cos(math.pi * (4 * np.arange(n // 2, 0, -1) - 1) / (4 * n + 2))
    x *= 1 - (n - 1) / (8 * n**3)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):  # jPⱼ = (2j − 1)·x·Pⱼ₋₁ − (j − 1)·Pⱼ₋₂
            xp = x * p
            p_prev, p = p, xp + (j - 1) / j * (xp - p_prev)
        one_minus_sq = (1 - x) * (1 + x)
        slope = n * (p_prev - x * p) / one_minus_sq
        x = x - (step := p / slope)
    w = 2 / (one_minus_sq * slope**2) * (1 + 2 * x * step / one_minus_sq)
    t, t_weight = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    t.flags.writeable = t_weight.flags.writeable = False
    return t, t_weight


def _field(
    cfg: ScenarioConfig, p: SystemParams, refine: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Quadrature nodes of the femtocell field on the disc of radius r_c
    about the receiver, as radius and angle uniforms (u_radius = (ρ/r_c)²,
    u_angle = φ/2π), each node's mass, density × area, and the nodes'
    _sites, which the run's weight map prices. refine multiplies the node
    counts on both axes. u_radius and mass are (piece, node) arrays and
    u_angle is (piece, 1), one angle per piece of a ray, which _sites
    broadcasts over the piece's nodes: each angle takes one cosine, not one
    per node. Raveled in C order they are the nodes, piece by piece.

    Polar about the receiver: _RAYS rays at the midpoints in φ ∈ (0, π),
    each split where it crosses the sensing circle about the sensed user,
    where the policy's power jumps: at ρ = o·cos φ ± √(R_s² − o²·sin² φ),
    clipped to [_INNER_M, r_c], o the user's offset from the receiver (0
    for a cellular user). Each piece takes Gauss–Legendre nodes in log ρ,
    where the area element is ρ²·d(log ρ)·dφ. A piece that the ray misses
    weighs 0 and is dropped, and so is every node of an empty field: only
    nodes of positive mass are returned. With o < R_s, as for a cellular
    user and the default hotspot offset R_s/2, every ray starts inside the
    circle, so its first piece is empty and 2·_RAYS·_RADIAL_NODES nodes are
    kept (10 240, and 40 960 refined 2×). The macrocell, the receiver and
    the sensed user all lie on the axis φ = 0, so the layout, the policy
    and the weights are the same at φ and −φ: each node also stands for its
    mirror image and carries twice its own area, which makes this exactly
    the upper half of the 2·_RAYS-ray rule on the full circle. Built once
    per (o, R_s, r_c, α_fo, density, refine), not per D or policy, so a row
    re-prices only the power of the sensed nodes; all of it is read-only.
    """
    return _polar_field(*_layout(cfg, p), cfg.density(p), refine)


@functools.lru_cache(maxsize=8)
def _polar_field(
    o: float, r_s: float, r_c: float, alpha_fo: float, density: float, refine: int
) -> tuple:
    n_rays = _RAYS * refine
    phi = (np.arange(n_rays) + 0.5) * (math.pi / n_rays)
    half = np.sqrt(np.maximum(r_s**2 - (o * np.sin(phi)) ** 2, 0.0))
    edges = np.stack([np.zeros(n_rays), o * np.cos(phi) - half, o * np.cos(phi) + half,
                      np.full(n_rays, r_c)])
    log_edges = np.log(np.clip(edges, _INNER_M, r_c))
    mid, half_width = (log_edges[1:] + log_edges[:-1]) / 2, (log_edges[1:] - log_edges[:-1]) / 2
    # the (piece, ray) pairs of positive mass, in piece-major order
    kept = half_width * density > 0.0
    mid, half_width = mid[kept][:, None], half_width[kept][:, None]
    u_angle = np.broadcast_to(phi / (2.0 * math.pi), kept.shape)[kept][:, None]
    t, t_weight = _legendre(_RADIAL_NODES * refine)
    rho = np.exp(mid + half_width * t)  # (kept piece, node)
    # dφ = π/n_rays on the half-plane, doubled for the mirror image
    mass = density * rho**2 * half_width * t_weight * (2.0 * math.pi / n_rays)
    u_radius = (rho / r_c) ** 2
    sites = _sites(u_radius, u_angle, o, r_s, r_c, alpha_fo)
    for x in (u_radius, u_angle, mass, *sites):
        x.flags.writeable = False
    return u_radius, u_angle, mass, sites


def _sampled_quantiles(rates: np.ndarray, us: list[float]) -> list[float]:
    """np.quantile's linear interpolation of rates at us, between finite
    order statistics only: next to an infinite rate (an empty drop without
    noise) it would form inf − inf or inf·0. Where the upper neighbour is
    infinite the quantile reads inf, where the weight is 0 the lower
    neighbour, and elsewhere numpy's own value."""
    with np.errstate(invalid="ignore"):
        linear = np.quantile(rates, us)
    if np.isfinite(linear).all():
        return linear.tolist()
    lower, upper = (np.quantile(rates, us, method=m) for m in ("lower", "higher"))
    # lower == upper at weight 0 (and where the neighbours tie); else the
    # weight is positive and upper is the upper neighbour
    return np.where(lower == upper, lower, np.where(np.isinf(upper), math.inf, linear)).tolist()


def simulate(
    cfg: ScenarioConfig, n_drops: int, n_fades: int, p: SystemParams, seed: int
) -> SimulationResult:
    """Outage, its precision and the rate law of the configured scenario.
    FastChi2 mode computes them exactly, averaged over the fades and over
    the Poisson field of the drops, and draws neither drops nor fades:
    n_drops, n_fades and seed are not used. p_outage and each percentile's
    coverage sums run over the field's nodes (_field), and the CI, when
    ci_halfwidth_95 is first read, over the same refined 2×; in one process
    each node set and its sites are built once for any D or policy, and a
    row prices only the power of the sensed nodes.
    FullZF mode samples n_drops drops of n_fades fades each in one pass,
    whose percentiles are np.quantile over its n_drops×n_fades buffer of
    log2(1+SINR), unsorted until a percentiles call partitions a copy."""
    if n_drops < 1 or n_fades < 1:
        raise ValueError(f"counts must be >= 1, got {n_drops} drops, {n_fades} fades")
    link, weights = _run(cfg, p)
    if cfg.channel_mode is ChannelMode.FAST_CHI2:

        def field_outage(refine: int) -> tuple[float, np.ndarray, np.ndarray]:
            # the outage on the field refined refine×, and the weights and
            # masses it sums over
            *_, mass, sites = _field(cfg, p, refine)
            w, m = weights(sites).ravel(), mass.ravel()
            return 1.0 - link.coverage(p.gamma_target, w, m)[0], w, m

        p_hat, w, m = field_outage(1)
        rate_law = functools.partial(rate_quantiles, link, w, m)

        def ci() -> float:
            return abs(p_hat - field_outage(2)[0])
    else:
        rates = np.empty((n_drops, n_fades))
        drop_outage = np.empty(n_drops)
        outages, layout = 0, _layout(cfg, p)
        for i in range(n_drops):
            rng, u_radius, u_angle = _drop_draws(cfg, i, p, seed)
            w = weights(_sites(u_radius, u_angle, *layout))
            sinr = link.sinr(*_sample_draws(rng, n_fades, len(w), cfg.scenario, p), w)
            count = int(np.count_nonzero(sinr < p.gamma_target))
            outages += count
            drop_outage[i] = count / n_fades
            np.add(sinr, 1.0, out=rates[i])
            np.log2(rates[i], out=rates[i])
        p_hat = outages / rates.size

        def ci() -> float:
            # 95% half-width with the drop as the sampling unit
            if n_drops < 2:
                return math.nan
            return 1.96 * float(np.std(drop_outage, ddof=1)) / math.sqrt(n_drops)
        rate_law = functools.partial(_sampled_quantiles, rates)
    return SimulationResult(p_hat, ci, rate_law)

