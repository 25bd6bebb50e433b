"""Monte Carlo engine: geometry, precoding, fading laws, and determinism."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from tiernet import simulator
from tiernet.analytic import max_contention_density_cellular, max_contention_density_femto
from tiernet.linkmodel import SystemParams, dbm_to_watts, link_budget
from tiernet.sensing import noise_floor_dbm
from tiernet.simulator import (
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    _drop_rng,
    _zf_desired_batch,
    _zf_leakage_batch,
    simulate,
    zf_precoder,
)
from tiernet.specfun import reg_inc_beta, reg_upper_gamma

P = SystemParams()
# the rate percentiles tiernet simulate writes
PCT_GRID = (1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)


# ---------------------------------------------------------------------------
# geometry


def _scenario_drops(cfg, n_drops, seed):
    """Femtocell positions of the first n_drops drops of a run, as the
    drop's own stream and the layout place them."""
    seen = []
    for i in range(n_drops):
        _, u_radius, u_angle = simulator._drop_draws(cfg, i, P, seed)
        seen.append(simulator._layout(cfg, P, u_radius, u_angle, None)[0])
    return seen


def test_ppp_count_and_uniformity():
    cfg = ScenarioConfig(d_norm=0.5, n_f_target=100.0)
    receiver = np.array([0.5 * P.r_c, 0.0])
    drops = _scenario_drops(cfg, 300, 0)
    counts = [len(pos) for pos in drops]
    radii = np.concatenate([np.linalg.norm(pos - receiver, axis=1) for pos in drops])
    # Poisson mean 100 -> sample mean CI ~ +-1.2; uniform disc mean radius 2R/3
    assert np.mean(counts) == pytest.approx(100.0, abs=2.0)
    assert np.var(counts) == pytest.approx(100.0, rel=0.25)
    assert radii.max() <= P.r_c
    assert np.mean(radii) == pytest.approx(2.0 * P.r_c / 3.0, rel=0.02)


@pytest.mark.parametrize(
    "scenario", [Scenario.REFERENCE_CELLULAR_USER, Scenario.REFERENCE_HOTSPOT]
)
def test_scenario_drop_surrounds_cell_edge_receiver(scenario):
    """A receiver at the cell edge sees the full femtocell density around
    it: drops are centred on the receiver, not on the macrocell (whose disc
    would leave the outer half of the neighbourhood empty)."""
    cfg = ScenarioConfig(scenario=scenario, d_norm=1.0, n_f_target=60.0)
    receiver = np.array([P.r_c, 0.0])
    near, total = [], []
    for pos in _scenario_drops(cfg, 400, 8):
        total.append(len(pos))
        near.append(np.count_nonzero(np.linalg.norm(pos - receiver, axis=1) <= 230.0))
    # Poisson means: 60 per drop, lambda*pi*230^2 = 3.17 nearby (SE 0.09)
    assert np.mean(total) == pytest.approx(60.0, abs=1.6)
    assert np.mean(near) == pytest.approx(cfg.density(P) * math.pi * 230.0**2, abs=0.35)


# ---------------------------------------------------------------------------
# precoder contract


def test_zf_precoder_zero_forces():
    rng = np.random.default_rng(3)
    for u, t in [(1, 2), (2, 2), (2, 4), (4, 4), (3, 8)]:
        h = (rng.standard_normal((u, t)) + 1j * rng.standard_normal((u, t))) / np.sqrt(2)
        w = zf_precoder(h)
        assert w.shape == (t, u)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
        rows = h / np.linalg.norm(h, axis=1, keepdims=True)
        prod = rows @ w
        off = prod - np.diag(np.diag(prod))
        np.testing.assert_allclose(off, 0.0, atol=1e-10)
        assert np.all(np.diag(prod).real > 0.0)


def test_zf_precoder_single_user_is_matched_filter():
    rng = np.random.default_rng(4)
    h = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))) / np.sqrt(2)
    w = zf_precoder(h)
    np.testing.assert_allclose(w[:, 0], h[0].conj() / np.linalg.norm(h[0]), atol=1e-12)


def test_zf_precoder_orthonormal_rows_transpose():
    # unitary channel: the precoder is just the conjugate transpose
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3))
                        + 1j * np.random.default_rng(6).standard_normal((3, 3)))
    w = zf_precoder(q.T)  # rows orthonormal
    np.testing.assert_allclose(w, q.T.conj().T, atol=1e-10)


def test_zf_precoder_rejections():
    with pytest.raises(ValueError):
        zf_precoder(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        zf_precoder(np.ones(4))
    with pytest.raises(ValueError):
        zf_precoder(np.ones((4, 2)))
    dup = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        zf_precoder(dup)


# ---------------------------------------------------------------------------
# fading laws (single-user configs, where the chi-squared forms are exact)


@pytest.mark.parametrize(("t", "u"), [(2, 1), (4, 1)])
def test_full_zf_desired_power_distribution(t, u):
    rng = _drop_rng(314, 0)
    n = 40_000
    sample = _zf_desired_batch(rng, n, t, u)
    stat = scipy.stats.kstest(sample, scipy.stats.gamma(a=t - u + 1).cdf).statistic
    assert stat < 1.6276 / math.sqrt(n)


@pytest.mark.parametrize(("t", "u"), [(2, 1), (4, 1)])
def test_full_zf_leakage_power_distribution(t, u):
    rng = _drop_rng(314, 1)
    n = 40_000
    sample = _zf_leakage_batch(rng, n, t, u)
    stat = scipy.stats.kstest(sample, scipy.stats.gamma(a=u).cdf).statistic
    assert stat < 1.6276 / math.sqrt(n)


# ---------------------------------------------------------------------------
# the run's link and weights against closed forms


def _gamma(rng, shape, size):
    # Gamma(1, 1) is Exp(1), drawn as such
    # (see test_exponential_draws_match_unit_shape_gamma)
    if shape == 1:
        return rng.standard_exponential(size)
    return rng.gamma(shape, 1.0, size)


def _fades(rng, link, n_fades, k):
    """n_fades sampled FastChi2 fades of a drop with k interferers, in the
    engine's draw order: desired, cross-tier (zeros without a cross-tier
    term), marks."""
    m, cross_shape, mark_shape = link.shapes
    desired = _gamma(rng, m, n_fades)
    cross = _gamma(rng, cross_shape, n_fades) if cross_shape else np.zeros(n_fades)
    return desired, cross, _gamma(rng, mark_shape, (n_fades, k))


def _uniforms(offsets):
    """The radius and angle uniforms that the layout turns into femtocells
    at offsets (k, 2), in meters from the receiver."""
    u_radius = (np.hypot(*offsets.T) / P.r_c) ** 2
    u_angle = np.arctan2(offsets[:, 1], offsets[:, 0]) / (2.0 * math.pi) % 1.0
    return u_radius, u_angle


def _fixed_cfg(scenario=Scenario.REFERENCE_CELLULAR_USER, **kw):
    # interferers at P_c − 20 dB = the nominal 23 dBm femto power, no noise
    return ScenarioConfig(
        scenario=scenario, power_policy=PowerPolicy.FIXED, include_noise=False, **kw
    )


def test_femto_outage_with_macro_interference_only():
    """No femto interferers: outage equals the macro-leakage beta term
    (0.121 at D = 0.1, where the macrocell is near enough to matter)."""
    from tiernet.linkmodel import location_coeffs

    d_norm = 0.1
    link, _ = simulator._run(_fixed_cfg(Scenario.REFERENCE_HOTSPOT, d_norm=d_norm), P)
    rng = np.random.default_rng(11)
    n = 400_000
    sir = link.sinr(*_fades(rng, link, n, 0), np.empty(0))
    outage = float(np.mean(sir < P.gamma_target))
    loc = location_coeffs(d_norm, P)
    want = reg_inc_beta(loc.kappa / (loc.kappa + 1.0), P.t_f - P.u_f + 1, P.u_c)
    assert outage == pytest.approx(want, abs=0.004)


def test_empty_drop_infinite_sir_for_cellular_user():
    cfg = _fixed_cfg(d_norm=0.5)
    link, weights = simulator._run(cfg, P)
    no_femtocells = weights(np.empty(0), np.empty(0))
    fades = _fades(np.random.default_rng(12), link, 100, 0)
    assert link.cross == 0.0 and no_femtocells.shape == (0,)
    assert np.all(np.isinf(link.sinr(*fades, no_femtocells)))
    noisy, _ = simulator._run(dataclasses.replace(cfg, include_noise=True), P)
    assert np.all(np.isfinite(noisy.sinr(*fades, no_femtocells)))


def test_sir_scales_with_power_ratio():
    """10 dB more macro power at the same interferer power, or 10 dB less
    interferer power, is 10× the SIR of every fade."""
    cfg = _fixed_cfg(d_norm=0.4)
    u = _uniforms(np.array([[100.0, 100.0]]))  # at (500, 100) m
    link, weights = simulator._run(cfg, P)
    fades = _fades(np.random.default_rng(13), link, 1000, 1)
    base = link.sinr(*fades, weights(*u))
    quieter_cfg = dataclasses.replace(cfg, fixed_pc_over_pf_db=30.0)
    for p in (dataclasses.replace(P, p_c_dbm=P.p_c_dbm + 10.0), P):
        scaled, scaled_weights = simulator._run(quieter_cfg, p)
        np.testing.assert_allclose(
            scaled.sinr(*fades, scaled_weights(*u)), base * 10.0, rtol=1e-12
        )


def test_per_interferer_power_vector_accepted():
    """Interferer weights take one power for all femtocells or one each;
    muting one raises the SIR of every fade."""
    positions = np.array([[450.0, 80.0], [600.0, 0.0]])
    receiver = np.array([400.0, 0.0])
    gain = link_budget(P).a_cf  # femtocell to outdoor cellular user
    link, _ = simulator._run(_fixed_cfg(d_norm=0.4), P)
    fades = _fades(np.random.default_rng(14), link, 500, 2)

    def sir(p_tx_dbm):
        w = simulator._interferer_weights(positions, receiver, p_tx_dbm, gain, P)
        return link.sinr(*fades, w)

    uniform = sir(23.0)
    np.testing.assert_allclose(sir(np.array([23.0, 23.0])), uniform, rtol=1e-12)
    assert np.all(sir(np.array([23.0, -300.0])) >= uniform)


# ---------------------------------------------------------------------------
# scenario engine


def _hotspot_cfg(**kw):
    base = dict(
        scenario=Scenario.REFERENCE_HOTSPOT,
        d_norm=0.5,
        power_policy=PowerPolicy.FIXED,
        n_f_target=200.0,
        include_noise=False,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _summary(res):
    # what tiernet simulate writes of a result
    return (res.p_outage, res.ci_halfwidth_95, res.n_drops, res.n_fades, res.seed,
            [res.percentile(q) for q in PCT_GRID])


def test_outage_estimate_reproducible_and_bounded():
    cfg = _hotspot_cfg()
    a = simulate(cfg, 50, 200, P, seed=99)
    b = simulate(cfg, 50, 200, P, seed=99)
    assert _summary(a) == _summary(b)
    assert 0.0 <= a.p_outage <= 1.0
    assert a.ci_halfwidth_95 > 0.0
    assert (a.n_drops, a.n_fades, a.seed) == (50, 200, 99)


def test_exponential_draws_match_unit_shape_gamma():
    """The sampled FastChi2 oracle (_gamma below) draws Gamma(1, 1) fades as
    standard exponentials: same values and the same stream state afterwards,
    so its seeded draws keep their bits."""
    def rng():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))

    a, b = rng(), rng()
    np.testing.assert_array_equal(a.gamma(1.0, 1.0, (40, 25)), b.standard_exponential((40, 25)))
    assert a.random() == b.random()


@pytest.mark.parametrize(
    "cfg",
    [
        _hotspot_cfg(),
        ScenarioConfig(scenario=Scenario.REFERENCE_CELLULAR_USER, n_f_target=60.0),
        _hotspot_cfg(power_policy=PowerPolicy.CARRIER_SENSED_BLEND, n_f_target=60.0),
    ],
    ids=["hotspot-fixed", "cellular-sensed", "hotspot-sensed"],
)
def test_simulate_one_pass_serves_outage_and_rates(cfg):
    """One pass serves all three: p_outage is one minus the mean coverage
    at Γ over the field's nodes, the CI is its distance to the same on a
    grid refined 2× on both axes (under 1e-8 here), the rate percentile at
    100·p_outage is log2(1+Γ) within the solver's tolerance, and a second
    run gives the same result."""
    res = simulate(cfg, 24, 100, P, seed=5)
    assert _summary(simulate(cfg, 24, 100, P, seed=5)) == _summary(res)
    link, weights = simulator._run(cfg, P)
    coarse, fine = (
        1.0 - link.coverage(P.gamma_target, weights(u_radius, u_angle), mass)[0]
        for u_radius, u_angle, mass in (simulator._field(cfg, P, k) for k in (1, 2))
    )
    assert res.p_outage == coarse
    assert res.ci_halfwidth_95 == abs(coarse - fine) < 1e-8
    r_gamma = math.log2(1.0 + P.gamma_target)
    assert res.percentile(100.0 * res.p_outage) == pytest.approx(r_gamma, rel=1e-10)


def test_cellular_sensed_policy_without_femtocells():
    """With no femtocells there is no power window to blend; the run sees
    the macro link and noise alone."""
    cfg = ScenarioConfig(
        scenario=Scenario.REFERENCE_CELLULAR_USER,
        power_policy=PowerPolicy.CARRIER_SENSED_BLEND,
        n_f_target=0.0,
    )
    res = simulate(cfg, 10, 20, P, seed=2)
    assert 0.0 <= res.p_outage <= 1.0
    assert all(math.isfinite(res.percentile(q)) for q in (1.0, 50.0, 99.0))


def test_fast_and_full_modes_agree_at_single_user_config():
    """Both channel models share the fading laws at U=1, so on the same
    drops the sampled FullZF outage matches sampled Gamma fades through the
    same link within fade-level Monte Carlo noise: 4 sigma, with variance
    2·sum_i q_i(1-q_i) / n_fades / n_drops^2, each drop's outage q_i
    estimated by the Gamma side's share."""
    cfg = _hotspot_cfg(n_f_target=800.0, channel_mode=ChannelMode.FULL_ZF)
    n_drops, n_fades, seed = 150, 150, 21
    full = simulate(cfg, n_drops, n_fades, P, seed).p_outage
    run = simulator._run(cfg, P)
    q = np.array([
        np.count_nonzero(_sampled_fast_chi2_sinr(cfg, i, n_fades, seed, run) < P.gamma_target)
        for i in range(n_drops)
    ]) / n_fades
    sigma = math.sqrt(2.0 * np.sum(q * (1.0 - q)) / n_fades) / n_drops
    assert sigma > 0.0
    assert abs(full - q.mean()) <= 4.0 * sigma


def test_rate_cdf_sorted_and_percentiles():
    """The exact rate percentiles rise strictly with q on a fine grid, from
    0 at q = 0 to inf at q = 100 (the mixture CDF reaches 1 only in the
    limit); FullZF reads its sorted sampled rates."""
    cdf = simulate(_hotspot_cfg(), 20, 50, P, seed=3)
    grid = np.linspace(0.0, 100.0, 201)
    pct = np.array([cdf.percentile(q) for q in grid])
    assert pct[0] == 0.0 and pct[-1] == math.inf
    assert np.all(np.diff(pct) > 0.0)
    full = simulate(_hotspot_cfg(channel_mode=ChannelMode.FULL_ZF), 5, 20, P, seed=3)
    assert full.percentile(10.0) <= full.percentile(50.0) <= full.percentile(90.0)
    for res in (cdf, full):
        with pytest.raises(ValueError):
            res.percentile(100.5)


def test_sensing_policy_reduces_cellular_outage():
    def run(policy):
        cfg = ScenarioConfig(
            scenario=Scenario.REFERENCE_CELLULAR_USER,
            d_norm=0.8,
            power_policy=policy,
            n_f_target=60.0,
            include_noise=False,
        )
        return simulate(cfg, 200, 200, P, seed=17).p_outage

    fixed = run(PowerPolicy.FIXED)
    sensed = run(PowerPolicy.CARRIER_SENSED_BLEND)
    assert sensed < 0.2 * fixed


def test_sensed_policy_rejects_infeasible_density():
    """The carrier-sensed blend needs a nonempty power window; the femto-cap
    density at D=0.8 exceeds what the window supports."""
    from tiernet.sensing import InfeasiblePlanError

    lam_star, _ = max_contention_density_femto(0.8, P)
    cfg = ScenarioConfig(
        scenario=Scenario.REFERENCE_CELLULAR_USER,
        d_norm=0.8,
        power_policy=PowerPolicy.CARRIER_SENSED_BLEND,
        n_f_target=lam_star * math.pi * P.r_c**2,
        include_noise=False,
    )
    with pytest.raises(InfeasiblePlanError):
        simulate(cfg, 5, 10, P, seed=1)


def test_scenario_config_validation_and_round_trip():
    cfg = ScenarioConfig(
        scenario=Scenario.REFERENCE_HOTSPOT,
        d_norm=0.4,
        power_policy=PowerPolicy.CARRIER_SENSED_BLEND,
        blend_weight=0.6,
        n_f_target=45.0,
    )
    back = ScenarioConfig.from_json(cfg.to_json())
    assert back == cfg
    assert ScenarioConfig.from_dict({"scenario": "ReferenceHotspot"}).scenario is (
        Scenario.REFERENCE_HOTSPOT
    )
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError):
        ScenarioConfig(d_norm=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(blend_weight=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(n_f_target=-3.0)
    with pytest.raises(ValueError, match="co_located_user_offset"):
        ScenarioConfig(co_located_user_offset=-500.0)


def test_scenario_config_density_and_offset():
    cfg = ScenarioConfig(n_f_target=60.0, sensing_radius_m=230.0)
    assert cfg.density(P) == pytest.approx(60.0 / (math.pi * P.r_c**2), rel=1e-12)
    assert cfg.user_offset_m == pytest.approx(115.0)
    assert ScenarioConfig(co_located_user_offset=40.0).user_offset_m == 40.0


# ---------------------------------------------------------------------------
# exact FastChi2 engine (fades integrated out) against sampled fades

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def _bench_cfg(name: str) -> ScenarioConfig:
    raw = json.loads((BENCH_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    return ScenarioConfig.from_dict(raw["scenario"])


def _closure_cfg(scenario: Scenario) -> ScenarioConfig:
    """The closure configurations of `tiernet validate` at the defaults:
    a hotspot at the femto density cap at D = 0.5, a cellular user at the
    cellular cap at D = 0.8, fixed powers, no noise."""
    if scenario is Scenario.REFERENCE_HOTSPOT:
        d_norm, (lam, _) = 0.5, max_contention_density_femto(0.5, P)
    else:
        d_norm, lam = 0.8, max_contention_density_cellular(0.8, P)
    return ScenarioConfig(
        scenario=scenario, d_norm=d_norm, power_policy=PowerPolicy.FIXED,
        n_f_target=lam * math.pi * P.r_c**2, include_noise=False,
    )


def _sampled_fast_chi2_sinr(cfg, drop_index, n_fades, seed, run):
    """Sampled FastChi2 fades of one drop: drop drop_index's femtocells as
    simulate lays them out, then n_fades Gamma fades from the same stream
    (desired, cross, marks), through the link's SINR as FullZF computes it.
    run is simulator._run(cfg, P)."""
    link, weights = run
    rng, u_radius, u_angle = simulator._drop_draws(cfg, drop_index, P, seed)
    w = weights(u_radius, u_angle)
    return link.sinr(*_fades(rng, link, n_fades, len(w)), w)


def _sampled_field(cfg, n_drops, n_fades, seed, p=P):
    """The drop oracle of the PGFL: n_drops independent Poisson drops of
    the run's field, each with n_fades sampled FastChi2 fades (Gamma
    desired, cross-tier and mark powers), through the SINR
    A·D / ((c·C + Σⱼ wⱼ·Mⱼ) + N). Returns the (n_fades, n_drops) SINR."""
    link, weights = simulator._run(cfg, p)
    m, cross_shape, mark_shape = link.shapes
    rng = np.random.default_rng(seed)
    counts = rng.poisson(cfg.n_f_target, n_drops)
    k = int(counts.sum())
    w = weights(rng.random(k), rng.random(k))
    drop = np.repeat(np.arange(n_drops), counts)
    interference = np.array([
        np.bincount(drop, weights=marks * w, minlength=n_drops)
        for marks in _gamma(rng, mark_shape, (n_fades, k))
    ])
    cross = _gamma(rng, cross_shape, (n_fades, n_drops)) if cross_shape else 0.0
    desired = _gamma(rng, m, (n_fades, n_drops))
    return link.desired * desired / ((link.cross * cross + interference) + link.noise_w)


@pytest.mark.parametrize("noise", [False, True], ids=["no-noise", "noise"])
@pytest.mark.parametrize(
    ("scenario", "one_antenna"),
    [
        (Scenario.REFERENCE_CELLULAR_USER, {"t_c": 1, "u_c": 1}),
        (Scenario.REFERENCE_HOTSPOT, {"t_f": 1, "u_f": 1}),
    ],
    ids=["cellular", "hotspot"],
)
def test_single_antenna_outage_matches_radial_integral(scenario, one_antenna, noise):
    """One antenna on the served link (m = 1, u_f = 1) and fixed powers,
    where a femtocell's weight w(ρ) depends on its distance alone: the mean
    coverage is the Laplace transform itself,
    e^{−sN}·(1+sc)^{−u_c}·exp(−2πλ ∫₀^{r_c} ρ·sw/(1+sw) dρ), and simulate's
    outage matches scipy's quad of it to 1e-9."""
    p = dataclasses.replace(P, **one_antenna)
    cfg = ScenarioConfig(
        scenario=scenario, d_norm=0.5, power_policy=PowerPolicy.FIXED,
        n_f_target=200.0, include_noise=noise,
    )
    link, weights = simulator._run(cfg, p)
    s = p.gamma_target / link.desired

    def integrand(rho):
        sw = s * weights(np.array([(rho / p.r_c) ** 2]), np.zeros(1))[0]
        return rho / (1.0 + 1.0 / sw)

    field, _ = scipy.integrate.quad(
        integrand, 0.0, p.r_c, epsabs=0.0, epsrel=1e-13, limit=500,
        points=[0.1, 1.0, 10.0, 100.0],
    )
    ln_coverage = (
        -s * link.noise_w - link.shapes[1] * math.log1p(s * link.cross)
        - 2.0 * math.pi * cfg.density(p) * field
    )
    assert link.shapes[0] == 1
    want = -math.expm1(ln_coverage)
    assert simulate(cfg, 1, 1, p, seed=0).p_outage == pytest.approx(want, rel=1e-9)


# two-stream femtocells: Gamma(2, 1) marks; a hotspot's own link has m = 3
TWO_STREAMS = dataclasses.replace(P, t_f=4, u_f=2)


@pytest.mark.parametrize(
    ("cfg", "p", "n_drops", "n_fades"),
    [
        (_bench_cfg("baseline_fixed"), P, 16_000, 4),
        (_bench_cfg("cellular_sensed"), P, 16_000, 4),
        (_bench_cfg("hotspot_sensed"), P, 16_000, 4),
        # ~1084 femtocells per drop
        (_closure_cfg(Scenario.REFERENCE_HOTSPOT), P, 1000, 4),
        (_closure_cfg(Scenario.REFERENCE_CELLULAR_USER), P, 4000, 4),
        (_hotspot_cfg(n_f_target=60.0), TWO_STREAMS, 16_000, 4),
        (_fixed_cfg(d_norm=0.8, n_f_target=60.0), TWO_STREAMS, 16_000, 4),
    ],
    ids=["baseline-fixed", "cellular-sensed", "hotspot-sensed", "femto-closure",
         "cellular-closure", "hotspot-two-streams", "cellular-two-stream-marks"],
)
def test_conditional_outage_matches_simulate(cfg, p, n_drops, n_fades):
    """Multi-antenna links (m = 2 or 3 for a hotspot, 4 for a cellular
    user; one or two streams per femtocell): the mean of the drop oracle's
    outage shares, each conditional on its drop and estimated from sampled
    Gamma fades, matches simulate's outage at a fixed seed within 1.5 of
    the oracle's clustered 95% half-widths (about 3 standard errors).
    Drops are independent, so their outage shares are the independent
    samples."""
    sinr = _sampled_field(cfg, n_drops, n_fades, seed=7, p=p)
    drop_outage = np.mean(sinr < p.gamma_target, axis=0)
    half_width = 1.96 * np.std(drop_outage, ddof=1) / math.sqrt(n_drops)
    assert half_width > 0.0
    assert abs(simulate(cfg, 1, 1, p, seed=0).p_outage - drop_outage.mean()) <= 1.5 * half_width


@pytest.mark.parametrize("d_norm", [0.3, 0.8, 1.0])
def test_conditional_outage_noise_only_is_gamma_tail(d_norm):
    """No femtocells, so every drop is the same: outage is
    P(Gamma(m, 1) < s·N) with s = Γ/A and A the macro link's received power
    per unit fade, and the empty field has no quadrature error."""
    cfg = ScenarioConfig(d_norm=d_norm, n_f_target=0.0, include_noise=True)
    res = simulate(cfg, 3, 1, P, seed=4)
    pc_w = dbm_to_watts(P.p_c_dbm)
    a = (pc_w / P.u_c) * link_budget(P).a_c * (d_norm * P.r_c) ** -P.alpha_c
    s_n = P.gamma_target / a * dbm_to_watts(noise_floor_dbm(P))
    expected = 1.0 - reg_upper_gamma(P.t_c - P.u_c + 1, s_n)
    assert res.p_outage == pytest.approx(expected, rel=1e-9, abs=1e-14)
    assert res.ci_halfwidth_95 == 0.0


@pytest.mark.parametrize("scenario", list(Scenario))
def test_field_nodes_weigh_disc_and_sensing_circle(scenario):
    """The node rule integrates area: the masses sum to λ·π·r_c², and those
    of the nodes inside the sensing circle about the sensed user (the
    receiver for a cellular user, user_offset_m outward for a hotspot) to
    λ·π·R_s², so the split falls on the circle where the policy's power
    jumps."""
    cfg = ScenarioConfig(scenario=scenario, d_norm=0.5, n_f_target=60.0)
    u_radius, u_angle, mass = simulator._field(cfg, P, 1)
    offsets = simulator._disc_positions(u_radius, u_angle, P, (0.0, 0.0))
    user = cfg.user_offset_m if scenario is Scenario.REFERENCE_HOTSPOT else 0.0
    inside = np.hypot(offsets[:, 0] - user, offsets[:, 1]) <= cfg.sensing_radius_m
    lam = cfg.density(P)
    assert mass.sum() == pytest.approx(lam * math.pi * P.r_c**2, rel=1e-12)
    assert mass[inside].sum() == pytest.approx(lam * math.pi * cfg.sensing_radius_m**2, rel=1e-12)


@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed"])
def test_exact_percentiles_inside_dkw_band_of_sampled_drops(name):
    """The exact rate percentiles against 5·10⁴ independent drops with one
    sampled fade each, that is 5·10⁴ independent draws of the rate law: at
    each exact percentile r_q the empirical CDF lies within the DKW band of
    q/100, sup |F_n − F| ≤ eps with probability 1 − 2·exp(−2·n·eps²), at
    α = 1e-3."""
    cfg, n = _bench_cfg(name), 50_000
    res = simulate(cfg, 1, 1, P, seed=0)
    rates = np.sort(np.log2(1.0 + _sampled_field(cfg, n, 1, seed=1)[0]))
    eps = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    for q in PCT_GRID:
        ecdf = np.searchsorted(rates, res.percentile(q), side="right") / n
        assert abs(ecdf - q / 100.0) <= eps, (q, ecdf, eps)


def test_fast_chi2_simulate_draws_no_fades():
    """FastChi2 draws neither drops nor fades: a billion fades per drop
    (5·10¹⁰ in all, which no sampler would finish), other drop counts and
    other seeds give the same result as one drop of one fade, with n_drops,
    n_fades and seed only echoed."""
    cfg = _bench_cfg("cellular_sensed")
    one = simulate(cfg, 1, 1, P, seed=3)
    for n_drops, n_fades, seed in ((50, 10**9, 3), (4000, 1, 3), (1, 1, 42)):
        res = simulate(cfg, n_drops, n_fades, P, seed)
        assert (res.n_drops, res.n_fades, res.seed) == (n_drops, n_fades, seed)
        assert (res.p_outage, res.ci_halfwidth_95) == (one.p_outage, one.ci_halfwidth_95)
        assert [res.percentile(q) for q in PCT_GRID] == [one.percentile(q) for q in PCT_GRID]


def test_full_zf_ci_is_clustered_on_drops():
    """FullZF keeps sampling: p_outage is the share of all (drop, fade)
    pairs, and the CI is 1.96·sd(per-drop sampled outage)/√n_drops, not the
    binomial half-width over pairs; a single drop has no CI."""
    cfg = _hotspot_cfg(n_f_target=60.0, channel_mode=ChannelMode.FULL_ZF)
    n_drops, n_fades = 12, 40
    res = simulate(cfg, n_drops, n_fades, P, seed=6)
    link, weights = simulator._run(cfg, P)

    def drop_sinr(i):
        rng, u_radius, u_angle = simulator._drop_draws(cfg, i, P, 6)
        w = weights(u_radius, u_angle)
        return link.sinr(*simulator._sample_draws(rng, n_fades, len(w), cfg.scenario, P), w)

    frac = np.array([
        np.count_nonzero(drop_sinr(i) < P.gamma_target) / n_fades for i in range(n_drops)
    ])
    assert res.p_outage == pytest.approx(frac.mean(), rel=1e-12)
    assert res.ci_halfwidth_95 == 1.96 * np.std(frac, ddof=1) / math.sqrt(n_drops)
    assert math.isnan(simulate(cfg, 1, n_fades, P, seed=6).ci_halfwidth_95)


def test_simulate_rejects_empty_runs():
    for mode in ChannelMode:
        cfg = ScenarioConfig(channel_mode=mode)
        with pytest.raises(ValueError, match="counts must be >= 1"):
            simulate(cfg, 0, 10, P, seed=0)
        with pytest.raises(ValueError, match="counts must be >= 1"):
            simulate(cfg, 10, 0, P, seed=0)
