"""Monte Carlo engine: geometry, precoding, fading laws, and determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from tiernet import laplace, simulator
from tiernet.analytic import max_contention_density_cellular, max_contention_density_femto
from tiernet.linkmodel import SystemParams, dbm_to_watts, link_budget
from tiernet.sensing import noise_floor_dbm
from tiernet.simulator import (
    ChannelDraw,
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    _drop_rng,
    _zf_desired_batch,
    _zf_leakage_batch,
    cellular_sir,
    femto_sir,
    simulate,
    zf_precoder,
)
from tiernet.specfun import reg_inc_beta, reg_upper_gamma

P = SystemParams()


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
# SIR assembly against closed forms


def _manual_draws(rng, n, shape_desired, shape_cross, k):
    return ChannelDraw(
        desired_power=rng.gamma(shape_desired, 1.0, size=n),
        cross_tier_power=rng.gamma(shape_cross, 1.0, size=n),
        mark_powers=rng.gamma(P.u_f, 1.0, size=(n, k)),
    )


def test_femto_outage_with_macro_interference_only():
    """No femto interferers: outage equals the macro-leakage beta term."""
    from tiernet.linkmodel import location_coeffs

    d_norm = 0.3
    positions = np.empty((0, 2))
    rng = np.random.default_rng(11)
    n = 400_000
    draws = _manual_draws(rng, n, P.t_f - P.u_f + 1, P.u_c, 0)
    sir = femto_sir(d_norm, positions, draws, P)
    outage = float(np.mean(sir < P.gamma_target))
    loc = location_coeffs(d_norm, P)
    want = reg_inc_beta(loc.kappa / (loc.kappa + 1.0), P.t_f - P.u_f + 1, P.u_c)
    assert outage == pytest.approx(want, abs=0.004)


def test_empty_drop_infinite_sir_for_cellular_user():
    positions = np.empty((0, 2))
    rng = np.random.default_rng(12)
    draws = _manual_draws(rng, 100, P.t_c - P.u_c + 1, 0.0 + 1e-12, 0)
    draws = dataclasses.replace(draws, cross_tier_power=np.zeros(100))
    sir = cellular_sir(0.5, positions, draws, P)
    assert np.all(np.isinf(sir))
    sinr = cellular_sir(0.5, positions, draws, P, noise_w=1e-15)
    assert np.all(np.isfinite(sinr))


def test_sir_scales_with_power_ratio():
    positions = np.array([[500.0, 100.0]])
    rng = np.random.default_rng(13)
    draws = _manual_draws(rng, 1000, P.t_c - P.u_c + 1, 0.0, 1)
    draws = dataclasses.replace(draws, cross_tier_power=np.zeros(1000))
    base = cellular_sir(0.4, positions, draws, P)
    boosted = cellular_sir(
        0.4, positions, draws, dataclasses.replace(P, p_c_dbm=P.p_c_dbm + 10.0)
    )
    np.testing.assert_allclose(boosted, base * 10.0, rtol=1e-12)
    quieter = cellular_sir(0.4, positions, draws, P, p_f_interferer_dbm=P.p_f_dbm - 10.0)
    np.testing.assert_allclose(quieter, base * 10.0, rtol=1e-12)


def test_per_interferer_power_vector_accepted():
    positions = np.array([[450.0, 80.0], [600.0, 0.0]])
    rng = np.random.default_rng(14)
    draws = _manual_draws(rng, 500, P.t_c - P.u_c + 1, 0.0, 2)
    draws = dataclasses.replace(draws, cross_tier_power=np.zeros(500))
    uniform = cellular_sir(0.4, positions, draws, P, p_f_interferer_dbm=23.0)
    vector = cellular_sir(
        0.4, positions, draws, P, p_f_interferer_dbm=np.array([23.0, 23.0])
    )
    np.testing.assert_allclose(vector, uniform, rtol=1e-12)
    muted = cellular_sir(
        0.4, positions, draws, P, p_f_interferer_dbm=np.array([23.0, -300.0])
    )
    assert np.all(muted >= uniform)


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


def test_outage_estimate_reproducible_and_bounded():
    cfg = _hotspot_cfg()
    a = simulate(cfg, 50, 200, P, seed=99)
    b = simulate(cfg, 50, 200, P, seed=99)
    assert a == b
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
    """One pass serves all three: p_outage is the mean exact per-drop outage,
    the CI is clustered on drops, the rate percentile at 100·p_outage is
    log2(1+Γ) within the solver's tolerance, and a second run gives the
    same result."""
    res = simulate(cfg, 24, 100, P, seed=5)
    assert simulate(cfg, 24, 100, P, seed=5) == res
    q = simulator.conditional_outage(cfg, 24, P, seed=5)
    assert res.p_outage == q.mean()
    assert res.ci_halfwidth_95 == 1.96 * np.std(q, ddof=1) / math.sqrt(24)
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
    """Both channel models share the fading laws at U=1, so the sampled FullZF
    outage matches FastChi2's exact per-drop outage on the same drops within
    fade-level Monte Carlo noise."""
    fast = simulator.conditional_outage(_hotspot_cfg(n_f_target=800.0), 150, P, seed=21).mean()
    full = simulate(
        _hotspot_cfg(n_f_target=800.0, channel_mode=ChannelMode.FULL_ZF),
        150, 150, P, seed=21,
    )
    assert fast == pytest.approx(full.p_outage, abs=0.015)


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


def _gamma(rng, shape, size):
    # Gamma(1, 1) is Exp(1), drawn as such
    # (see test_exponential_draws_match_unit_shape_gamma)
    if shape == 1:
        return rng.standard_exponential(size)
    return rng.gamma(shape, 1.0, size)


def _sampled_fast_chi2_sinr(cfg, drop_index, n_fades, seed, constants):
    """The brute-force oracle of the exact engine: drop drop_index's
    femtocells as simulate lays them out, then n_fades sampled FastChi2
    fades from the same stream (desired, cross, marks), through the per-tier
    SIR functions. constants are simulator._run_constants(cfg, P)."""
    noise_w, blend_edge_db, serving_dbm = constants
    rng, u_radius, u_angle = simulator._drop_draws(cfg, drop_index, P, seed)
    positions, powers = simulator._layout(cfg, P, u_radius, u_angle, blend_edge_db)
    m, cross_shape, mark_shape = simulator._fast_chi2_shapes(cfg.scenario, P)
    draws = ChannelDraw(
        desired_power=_gamma(rng, m, n_fades),
        cross_tier_power=(
            _gamma(rng, cross_shape, n_fades) if cross_shape else np.zeros(n_fades)
        ),
        mark_powers=_gamma(rng, mark_shape, (n_fades, len(positions))),
    )
    if cfg.scenario is Scenario.REFERENCE_CELLULAR_USER:
        return cellular_sir(
            cfg.d_norm, positions, draws, P, p_f_interferer_dbm=powers, noise_w=noise_w
        )
    return femto_sir(
        cfg.d_norm, positions, draws, P, p_f_serving_dbm=serving_dbm,
        p_f_interferer_dbm=powers, noise_w=noise_w,
    )


@pytest.mark.parametrize(
    ("cfg", "seed", "n_fades", "drops"),
    [
        (_bench_cfg("cellular_sensed"), 1, 200_000, (0, 3)),
        (_bench_cfg("hotspot_sensed"), 1, 200_000, (0, 3)),
        # ~1084 femtocells: 10^4 fades keep the mark matrix under 100 MB
        (_closure_cfg(Scenario.REFERENCE_HOTSPOT), 42, 10_000, (0, 5, 6)),
    ],
    ids=["cellular-sensed", "hotspot-sensed", "femto-closure"],
)
def test_conditional_outage_matches_brute_force_drop(cfg, seed, n_fades, drops):
    """A drop's exact outage against many sampled fades of the very same
    drop (same stream, same positions): within 4 binomial sigma. The drops
    span typical and heavily interfered ones (exact outage 0.0001 to 0.46)."""
    exact = simulator.conditional_outage(cfg, max(drops) + 1, P, seed)
    constants = simulator._run_constants(cfg, P)
    for i in drops:
        q = exact[i]
        sinr = _sampled_fast_chi2_sinr(cfg, i, n_fades, seed, constants)
        sampled = np.count_nonzero(sinr < P.gamma_target) / n_fades
        assert 0.0 < q < 1.0
        assert abs(sampled - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n_fades), i


@pytest.mark.parametrize(
    ("cfg", "seed", "n_drops", "n_fades"),
    [
        (_bench_cfg("baseline_fixed"), 1, 300, 250),
        (_bench_cfg("cellular_sensed"), 1, 300, 250),
        (_bench_cfg("hotspot_sensed"), 1, 300, 250),
        (_closure_cfg(Scenario.REFERENCE_HOTSPOT), 42, 200, 100),
        (_closure_cfg(Scenario.REFERENCE_CELLULAR_USER), 42, 300, 250),
    ],
    ids=["baseline-fixed", "cellular-sensed", "hotspot-sensed", "femto-closure",
         "cellular-closure"],
)
def test_conditional_outage_matches_simulate(cfg, seed, n_drops, n_fades):
    """simulate's FastChi2 outage is the mean exact per-drop outage, with the
    CI clustered on drops; over the same drops, the sampled oracle differs
    from it by fade noise alone: variance sum_i q_i(1-q_i)/n_fades / n_drops^2."""
    q = simulator.conditional_outage(cfg, n_drops, P, seed)
    res = simulate(cfg, n_drops, n_fades, P, seed)
    assert res.p_outage == q.mean()
    assert res.ci_halfwidth_95 == 1.96 * np.std(q, ddof=1) / math.sqrt(n_drops)
    constants = simulator._run_constants(cfg, P)
    sampled = sum(
        np.count_nonzero(_sampled_fast_chi2_sinr(cfg, i, n_fades, seed, constants)
                         < P.gamma_target)
        for i in range(n_drops)
    ) / (n_drops * n_fades)
    sigma = math.sqrt(np.sum(q * (1.0 - q)) / n_fades) / n_drops
    assert sigma > 0.0
    assert abs(sampled - q.mean()) <= 4.0 * sigma


@pytest.mark.parametrize("d_norm", [0.3, 0.8, 1.0])
def test_conditional_outage_noise_only_is_gamma_tail(d_norm):
    """No femtocells: outage is P(Gamma(m, 1) < s·N) with s = Γ/A and A the
    macro link's received power per unit fade."""
    cfg = ScenarioConfig(d_norm=d_norm, n_f_target=0.0, include_noise=True)
    q = simulator.conditional_outage(cfg, 3, P, seed=4)
    pc_w = dbm_to_watts(P.p_c_dbm)
    a = (pc_w / P.u_c) * link_budget(P).a_c * (d_norm * P.r_c) ** -P.alpha_c
    s_n = P.gamma_target / a * dbm_to_watts(noise_floor_dbm(P))
    expected = 1.0 - reg_upper_gamma(P.t_c - P.u_c + 1, s_n)
    np.testing.assert_allclose(q, expected, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_conditional_outage_co_located_interferer_is_certain(monkeypatch, scenario):
    """A femtocell on top of the receiver has infinite interference weight:
    outage exactly 1, with no NaN and no floating-point warning. Its drop
    puts an atom at rate 0, which the percentiles up to its mass read."""
    cfg = ScenarioConfig(scenario=scenario, d_norm=0.6, n_f_target=60.0)
    # femtocells at (300, 40), (0, 0) and (-90, -10) m from the receiver;
    # a zero radius uniform puts the second exactly on it
    offsets = np.array([[300.0, 40.0], [0.0, 0.0], [-90.0, -10.0]])
    u_radius = (np.hypot(*offsets.T) / P.r_c) ** 2
    u_angle = np.arctan2(offsets[:, 1], offsets[:, 0]) / (2.0 * math.pi) % 1.0
    clear = (None, u_radius[[0, 2]], u_angle[[0, 2]])
    monkeypatch.setattr(
        simulator, "_drop_draws",
        lambda cfg, i, p, seed: (None, u_radius, u_angle) if i < 2 else clear,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = simulator.conditional_outage(cfg, 2, P, seed=0)
        res = simulate(cfg, 4, 1, P, seed=0)
    np.testing.assert_array_equal(q, [1.0, 1.0])
    assert res.percentile(50.0) == 0.0 < res.percentile(50.1)


@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed"])
def test_exact_percentiles_inside_dkw_band_of_sampled_drops(name):
    """The exact rate percentiles of four drops against 5·10⁴ sampled fades
    of each of the same drops (2·10⁵ in all): at each exact percentile r_q
    the pooled empirical CDF lies within the DKW band of q/100. The band
    takes the union bound over the drops' own DKW bands, sup |F_n − F| ≤
    eps with probability 1 − 8·exp(−2·n·eps²) for n fades per drop, at
    α = 1e-3."""
    cfg, seed, n_drops, n_fades = _bench_cfg(name), 1, 4, 50_000
    res = simulate(cfg, n_drops, 1, P, seed)
    constants = simulator._run_constants(cfg, P)
    rates = np.sort(np.concatenate([
        np.log2(1.0 + _sampled_fast_chi2_sinr(cfg, i, n_fades, seed, constants))
        for i in range(n_drops)
    ]))
    eps = math.sqrt(math.log(2.0 * n_drops / 1e-3) / (2.0 * n_fades))
    for q in (1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0):
        ecdf = np.searchsorted(rates, res.percentile(q), side="right") / rates.size
        assert abs(ecdf - q / 100.0) <= eps, (q, ecdf, eps)


@pytest.mark.parametrize("block", [1, 150])
def test_blocks_do_not_change_per_drop_outage(monkeypatch, block):
    """How drops are grouped into blocks changes nothing per drop: one drop
    per block, or blocks that close mid-run after about 150 femtocells,
    give the exact outages of the default blocks, empty drops included."""
    cfg = _bench_cfg("hotspot_sensed")
    sparse = dataclasses.replace(cfg, n_f_target=0.5)
    want = [simulator.conditional_outage(c, 40, P, seed=2) for c in (cfg, sparse)]
    monkeypatch.setattr(laplace, "_BLOCK_INTERFERERS", block)
    for c, q in zip((cfg, sparse), want):
        np.testing.assert_array_equal(simulator.conditional_outage(c, 40, P, seed=2), q)
    assert any(len(simulator._drop_draws(sparse, i, P, 2)[1]) == 0 for i in range(40))


def test_fast_chi2_simulate_draws_no_fades():
    """FastChi2 allocates and draws no fades: a billion fades per drop
    (5·10¹⁰ in all, which no sampler would finish) gives the same result
    as one, with n_fades only echoed."""
    cfg = _bench_cfg("cellular_sensed")
    many = simulate(cfg, 50, 10**9, P, seed=3)
    one = simulate(cfg, 50, 1, P, seed=3)
    assert many.n_fades == 10**9
    assert (many.p_outage, many.ci_halfwidth_95) == (one.p_outage, one.ci_halfwidth_95)
    assert many.percentile(10.0) == one.percentile(10.0)


def test_full_zf_ci_is_clustered_on_drops():
    """FullZF keeps sampling: p_outage is the share of all (drop, fade)
    pairs, and the CI is 1.96·sd(per-drop sampled outage)/√n_drops, not the
    binomial half-width over pairs; a single drop has no CI."""
    cfg = _hotspot_cfg(n_f_target=60.0, channel_mode=ChannelMode.FULL_ZF)
    n_drops, n_fades = 12, 40
    res = simulate(cfg, n_drops, n_fades, P, seed=6)
    constants = simulator._run_constants(cfg, P)
    frac = np.array([
        np.count_nonzero(
            simulator._drop_sinr(cfg, i, n_fades, P, 6, *constants) < P.gamma_target
        ) / n_fades
        for i in range(n_drops)
    ])
    assert res.p_outage == pytest.approx(frac.mean(), rel=1e-12)
    assert res.ci_halfwidth_95 == 1.96 * np.std(frac, ddof=1) / math.sqrt(n_drops)
    assert math.isnan(simulate(cfg, 1, n_fades, P, seed=6).ci_halfwidth_95)


def test_conditional_outage_rejects_full_zf_and_empty_runs():
    with pytest.raises(ValueError, match="FullZF"):
        simulator.conditional_outage(
            ScenarioConfig(channel_mode=ChannelMode.FULL_ZF), 10, P, seed=0
        )
    with pytest.raises(ValueError):
        simulator.conditional_outage(ScenarioConfig(), 0, P, seed=0)
