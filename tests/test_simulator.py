"""Monte Carlo engine: geometry, precoding, fading laws, and determinism."""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.stats

from tiernet import simulator
from tiernet.analytic import max_contention_density_femto
from tiernet.linkmodel import SystemParams
from tiernet.simulator import (
    ChannelDraw,
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    _drop_rng,
    _zf_desired_batch,
    _zf_leakage_batch,
    _worker_count,
    cellular_sir,
    femto_sir,
    simulate,
    zf_precoder,
)
from tiernet.specfun import reg_inc_beta

P = SystemParams()


# ---------------------------------------------------------------------------
# geometry


def _scenario_drops(monkeypatch, cfg, n_drops, seed):
    """Femtocell positions of the first n_drops drops of a run, as they
    reach the SIR function."""
    seen = []
    for name in ("cellular_sir", "femto_sir"):
        def spy(d_norm, positions, *args, _sir=getattr(simulator, name), **kwargs):
            seen.append(positions)
            return _sir(d_norm, positions, *args, **kwargs)
        monkeypatch.setattr(simulator, name, spy)
    for i in range(n_drops):
        simulator._drop_sinr(cfg, i, 1, P, seed, 0.0, None, None)
    return seen


def test_ppp_count_and_uniformity(monkeypatch):
    cfg = ScenarioConfig(d_norm=0.5, n_f_target=100.0)
    receiver = np.array([0.5 * P.r_c, 0.0])
    drops = _scenario_drops(monkeypatch, cfg, 300, 0)
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
def test_scenario_drop_surrounds_cell_edge_receiver(monkeypatch, scenario):
    """A receiver at the cell edge sees the full femtocell density around
    it: drops are centred on the receiver, not on the macrocell (whose disc
    would leave the outer half of the neighbourhood empty)."""
    cfg = ScenarioConfig(scenario=scenario, d_norm=1.0, n_f_target=60.0)
    receiver = np.array([P.r_c, 0.0])
    near, total = [], []
    for pos in _scenario_drops(monkeypatch, cfg, 400, 8):
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


def test_parallel_equals_serial(monkeypatch):
    cfg = _hotspot_cfg()
    monkeypatch.setenv("TIERNET_THREADS", "1")
    serial = simulate(cfg, 24, 100, P, seed=5)
    monkeypatch.setenv("TIERNET_THREADS", "4")
    parallel = simulate(cfg, 24, 100, P, seed=5)
    np.testing.assert_array_equal(serial.rates, parallel.rates)


def test_exponential_draws_match_unit_shape_gamma():
    """The fast path draws Gamma(1, 1) fades as standard exponentials: same
    values and the same stream state afterwards, so seeded runs keep their
    bits."""
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
def test_simulate_one_pass_serves_outage_and_rates(monkeypatch, cfg):
    """The outage share is the share of rates below log2(1+Γ), the rates come
    back sorted, and neither depends on the thread count."""
    results = []
    for threads in ("1", "4"):
        monkeypatch.setenv("TIERNET_THREADS", threads)
        results.append(simulate(cfg, 24, 100, P, seed=5))
    res = results[0]
    assert results[1] == res
    assert res.rates.shape == (24 * 100,)
    assert np.all(np.diff(res.rates) >= 0.0)
    below = np.count_nonzero(res.rates < math.log2(1.0 + P.gamma_target))
    assert res.p_outage == below / res.rates.size


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
    assert np.all(np.isfinite(res.rates))


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("TIERNET_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count(100) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(100) == 8
    assert _worker_count(3) == 3
    monkeypatch.setenv("TIERNET_THREADS", "2")
    assert _worker_count(100) == 2


def test_fast_and_full_modes_agree_at_single_user_config():
    """Both channel models share the fading laws at U=1, so outage matches
    within fade-level Monte Carlo noise (drop geometry is seed-identical)."""
    fast = simulate(_hotspot_cfg(n_f_target=800.0), 150, 150, P, seed=21)
    full = simulate(
        _hotspot_cfg(n_f_target=800.0, channel_mode=ChannelMode.FULL_ZF),
        150, 150, P, seed=21,
    )
    assert fast.p_outage == pytest.approx(full.p_outage, abs=0.015)


def test_rate_cdf_sorted_and_percentiles():
    cfg = _hotspot_cfg()
    cdf = simulate(cfg, 20, 50, P, seed=3)
    assert len(cdf.rates) == 20 * 50
    assert np.all(np.diff(cdf.rates) >= 0.0)
    assert cdf.percentile(10.0) <= cdf.percentile(50.0) <= cdf.percentile(90.0)
    with pytest.raises(ValueError):
        cdf.percentile(100.5)


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


def test_scenario_config_density_and_offset():
    cfg = ScenarioConfig(n_f_target=60.0, sensing_radius_m=230.0)
    assert cfg.density(P) == pytest.approx(60.0 / (math.pi * P.r_c**2), rel=1e-12)
    assert cfg.user_offset_m == pytest.approx(115.0)
    assert ScenarioConfig(co_located_user_offset=40.0).user_offset_m == 40.0
