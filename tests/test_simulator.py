"""Monte Carlo engine: geometry, precoding, fading laws, and determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from tiernet import simulator
from tiernet.analytic import max_contention_density_cellular, max_contention_density_femto
from tiernet.linkmodel import (
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    SystemParams,
    db_to_linear,
    link_budget,
    noise_floor_dbm,
)
from tiernet.sensing import blended_power_policy, power_ratio_bounds
from tiernet.simulator import (
    _drop_rng,
    _zf_desired_batch,
    _zf_leakage_batch,
    _zf_precoder_batch,
    simulate,
)
from tiernet.specfun import chi2_cdf, reg_gamma, reg_inc_beta

P = SystemParams()
# the femtocells 10 dB below the default P_f, at P_c/P_f = 30 dB
P13 = dataclasses.replace(P, p_f_dbm=13.0)
# the rate percentiles tiernet simulate writes
PCT_GRID = (1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0)


# ---------------------------------------------------------------------------
# geometry


def _weight_map(cfg, p=P):
    """simulator._run's link, and its weights as a map from radius and angle
    uniforms (in shapes that broadcast): their _sites, as a FullZF drop
    builds them, priced."""
    link, weights = simulator._run(cfg, p)
    layout = simulator._layout(cfg, p)
    return link, lambda u_radius, u_angle: weights(simulator._sites(u_radius, u_angle, *layout))


def _scenario_drops(cfg, n_drops, seed):
    """Femtocell distances to the receiver in the first n_drops drops of a
    run, as the drop's own stream and the run's weight map place them: at
    fixed power a weight falls as ρ^(−α_fo), so ρ = r_c·(w / w(r_c))^(−1/α_fo)."""
    _, weights = _weight_map(dataclasses.replace(cfg, power_policy=PowerPolicy.FIXED), P)
    at_edge = weights(np.ones(1), np.zeros(1))[0]
    seen = []
    for i in range(n_drops):
        _, u_radius, u_angle = simulator._drop_draws(cfg, i, P, seed)
        seen.append(P.r_c * (weights(u_radius, u_angle) / at_edge) ** (-1.0 / P.alpha_fo))
    return seen


def test_ppp_count_and_uniformity():
    cfg = ScenarioConfig(d_norm=0.5, n_f_target=100.0)
    drops = _scenario_drops(cfg, 300, 0)
    counts = [len(rho) for rho in drops]
    radii = np.concatenate(drops)
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
    near, total = [], []
    for rho in _scenario_drops(cfg, 400, 8):
        total.append(len(rho))
        near.append(np.count_nonzero(rho <= 230.0))
    # Poisson means: 60 per drop, lambda*pi*230^2 = 3.17 nearby (SE 0.09)
    assert np.mean(total) == pytest.approx(60.0, abs=1.6)
    assert np.mean(near) == pytest.approx(cfg.density(P) * math.pi * 230.0**2, abs=0.35)


# ---------------------------------------------------------------------------
# precoder contract


def _zf_precoder(rows):
    # the batch precoder on one U×T matrix of unit row directions
    return _zf_precoder_batch(rows[None])[0]


def test_zf_precoder_zero_forces():
    rng = np.random.default_rng(3)
    for u, t in [(1, 2), (2, 2), (2, 4), (4, 4), (3, 8)]:
        h = (rng.standard_normal((u, t)) + 1j * rng.standard_normal((u, t))) / np.sqrt(2)
        rows = h / np.linalg.norm(h, axis=1, keepdims=True)
        w = _zf_precoder(rows)
        assert w.shape == (t, u)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
        prod = rows @ w
        off = prod - np.diag(np.diag(prod))
        np.testing.assert_allclose(off, 0.0, atol=1e-10)
        assert np.all(np.diag(prod).real > 0.0)


def test_zf_precoder_single_user_is_matched_filter():
    rng = np.random.default_rng(4)
    h = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))) / np.sqrt(2)
    w = _zf_precoder(h / np.linalg.norm(h))
    np.testing.assert_allclose(w[:, 0], h[0].conj() / np.linalg.norm(h[0]), atol=1e-12)


def test_zf_precoder_orthonormal_rows_transpose():
    # unitary channel: the precoder is just the conjugate transpose
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3))
                        + 1j * np.random.default_rng(6).standard_normal((3, 3)))
    w = _zf_precoder(q.T)  # rows orthonormal
    np.testing.assert_allclose(w, q.T.conj().T, atol=1e-10)


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


def _general_desired(rng, n, t, u):
    # |h0^H w0|^2 with w0 the first column of the zero-forcing precoder
    h = simulator._cn_matrix(rng, (n, u, t))
    w = _zf_precoder_batch(h.conj() / np.linalg.norm(h, axis=2, keepdims=True))
    return np.abs(np.einsum("nt,nt->n", h[:, 0, :].conj(), w[:, :, 0])) ** 2


def _general_leakage(rng, n, t, u):
    # ||g^H W||^2 for a victim channel g drawn after the precoded channels
    h = simulator._cn_matrix(rng, (n, u, t))
    w = _zf_precoder_batch(h.conj() / np.linalg.norm(h, axis=2, keepdims=True))
    g = simulator._cn_matrix(rng, (n, t))
    return (np.abs(np.einsum("nt,ntu->nu", g.conj(), w)) ** 2).sum(axis=1)


def _row_major_channels(rng, n, t, count):
    # `count` (n, 1, t) unit-power channels off one (n, 2·t·count) draw: each
    # row holds the first channel's t real and t imaginary parts, then the next's
    x = rng.standard_normal((n, 2 * t * count)).reshape(n, count, 2, 1, t)
    return [(z[:, 0] + 1j * z[:, 1]) / np.sqrt(2) for z in x.transpose(1, 0, 2, 3, 4)]


def _single_stream_desired(rng, n, t):
    # the precoded formula of _general_desired on one row-major channel
    (h,) = _row_major_channels(rng, n, t, 1)
    w = _zf_precoder_batch(h.conj() / np.linalg.norm(h, axis=2, keepdims=True))
    return np.abs(np.einsum("nt,nt->n", h[:, 0, :].conj(), w[:, :, 0])) ** 2


def _single_stream_leakage(rng, n, t):
    # the precoded formula of _general_leakage, h and then g in each row
    h, g = _row_major_channels(rng, n, t, 2)
    w = _zf_precoder_batch(h.conj() / np.linalg.norm(h, axis=2, keepdims=True))
    return (np.abs(np.einsum("nt,ntu->nu", g[:, 0, :].conj(), w)) ** 2).sum(axis=1)


@pytest.mark.parametrize("t", [2, 4])
def test_single_stream_samplers_are_the_general_formula(t):
    """At U = 1 the samplers form no precoder, but read ||h||² and
    |gᴴh|²/||h||² off the same normals: each equals the precoded formula
    replayed on a copy of the stream, h (and then g) drawn one row of
    normals per sample, and leaves the stream where the replay does."""
    n = 5000
    rng, replay = _drop_rng(27, 5), _drop_rng(27, 5)
    for sampler, general in (
        (_zf_desired_batch, _single_stream_desired), (_zf_leakage_batch, _single_stream_leakage)
    ):
        np.testing.assert_allclose(sampler(rng, n, t, 1), general(replay, n, t), rtol=1e-12)
        assert rng.random() == replay.random()


def test_cn_matrix_is_scaled_complex_normals():
    """_cn_matrix fills one array in place, bit for bit (re + 1j·im)/√2
    of a real block drawn before an imaginary one."""
    shape = (1000, 3, 4)
    rng = _drop_rng(27, 6)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(simulator._cn_matrix(_drop_rng(27, 6), shape), (re + 1j * im) / np.sqrt(2))


@pytest.mark.parametrize(("t", "u"), [(2, 2), (3, 2), (4, 4)])
def test_multi_stream_desired_power_is_its_replay(t, u):
    n = 2000
    sample = _zf_desired_batch(_drop_rng(27, 7), n, t, u)
    assert np.array_equal(sample, _general_desired(_drop_rng(27, 7), n, t, u))


def _whole_block_desired(rng, n, t):
    # ||h||²/2 off one whole (n, 2t) block, each row h's real and imaginary parts
    x = rng.standard_normal((n, 2 * t))
    return np.einsum("nk,nk->n", x, x) / 2.0


def _whole_block_leakage(rng, n, t):
    # |gᴴh|²/(2·||h||²) off one whole (n, 4t) block, each row h's 2t normals
    # and then g's
    x = rng.standard_normal((n, 4 * t))
    h, g = x[:, : 2 * t], x[:, 2 * t :]
    re = np.einsum("nk,nk->n", g, h)
    im = np.einsum("nt,nt->n", g[:, :t], h[:, t:])
    im -= np.einsum("nt,nt->n", g[:, t:], h[:, :t])
    return (re * re + im * im) / (2.0 * np.einsum("nk,nk->n", h, h))


ROWS = simulator._ROWS


@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("n", [0, 1, 5, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS, 2 * ROWS + 17])
def test_single_stream_samplers_match_whole_blocks(n, t):
    """Drawn _ROWS rows at a time, the U = 1 samplers give the bits of the
    same formulas on one whole row-major block, and leave the stream where
    that draw does; a call of no rows draws nothing."""
    for sampler, whole in (
        (_zf_desired_batch, _whole_block_desired), (_zf_leakage_batch, _whole_block_leakage)
    ):
        rng, replay = _drop_rng(31, t), _drop_rng(31, t)
        sample = sampler(rng, n, t, 1)
        assert sample.shape == (n,)
        assert np.array_equal(sample, whole(replay, n, t))
        after = rng.random()
        assert after == replay.random()
        if n == 0:
            assert after == _drop_rng(31, t).random()


def _traced_peak(call):
    # the most bytes call's allocations held at once, by tracemalloc
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_stream_samplers_hold_no_victim_block():
    """At n = 10⁵, T = 4 neither U = 1 sampler holds as much as one (n, T)
    block of normals: each keeps its (n,) output beside one chunk of at
    most _ROWS rows."""
    n, t = 100_000, 4
    block = 8 * n * t
    for sampler in (_zf_desired_batch, _zf_leakage_batch):
        sampler(_drop_rng(3, 2), ROWS + 1, t, 1)  # a first call's one-off allocations, untraced
    assert _traced_peak(lambda: _zf_desired_batch(_drop_rng(3, 0), n, t, 1)) < block
    assert _traced_peak(lambda: _zf_leakage_batch(_drop_rng(3, 1), n, t, 1)) < block


# ---------------------------------------------------------------------------
# validate's KS checks, run side by side

KS_CHECK_ORDER = ["ks_desired_femto", "ks_desired_cellular", "ks_cross_tier", "ks_marks"]


def _ks_alone(p, seed, n, i):
    """Check i of fade_ks_distances, run on its own: its sampler on drop
    stream i of seed, against its dof-2k chi-squared on half scale."""
    sampler, t, u, k = (
        (_zf_desired_batch, p.t_f, p.u_f, p.t_f - p.u_f + 1),
        (_zf_desired_batch, p.t_c, p.u_c, p.t_c - p.u_c + 1),
        (_zf_leakage_batch, p.t_c, p.u_c, p.u_c),
        (_zf_leakage_batch, p.t_f, p.u_f, p.u_f),
    )[i]
    cdf = chi2_cdf(2 * k, 2.0 * np.sort(sampler(_drop_rng(seed, i), n, t, u)))
    ecdf = np.arange(n + 1) / n
    return float(max(np.max(ecdf[1:] - cdf), np.max(cdf - ecdf[:-1])))


def _count_threads(monkeypatch):
    # the threads started from here on, each recorded as it starts
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _in_step(monkeypatch, parties):
    # each sampler first waits until `parties` checks are drawing at once, so
    # the checks finish only if the pool runs that many side by side
    barrier = threading.Barrier(parties, timeout=30.0)
    for name, sampler in (
        ("_zf_desired_batch", _zf_desired_batch),
        ("_zf_leakage_batch", _zf_leakage_batch),
    ):
        def waiting(rng, n, t, u, sampler=sampler):
            barrier.wait()
            return sampler(rng, n, t, u)

        monkeypatch.setattr(simulator, name, waiting)


@pytest.mark.parametrize("p", [P, SystemParams(t_f=3, u_f=2, t_c=4, u_c=2)], ids=["U=1", "U=2"])
def test_ks_checks_match_alone_at_any_cpu_count(monkeypatch, p):
    """With 1, 2 or 4 usable CPUs the four distances come back bit for bit
    the same, in validate's key order, each equal to its check run alone on
    its own stream. The pool starts exactly min(4, CPUs) threads and runs
    that many checks at once: each sampler waits on a barrier of that size,
    which a pool running fewer side by side never passes."""
    n, seed = 10_000, 11
    alone = {name: _ks_alone(p, seed, n, i) for i, name in enumerate(KS_CHECK_ORDER)}
    started = _count_threads(monkeypatch)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda cpus=cpus: cpus)
        _in_step(monkeypatch, min(4, cpus))
        before = len(started)
        distances = simulator.fade_ks_distances(p, seed, n)
        assert list(distances) == KS_CHECK_ORDER
        assert distances == alone
        assert len(started) - before == min(4, cpus)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_ks_check_error_reaches_the_caller(monkeypatch, cpus):
    """A check that raises makes fade_ks_distances raise the error of the
    earliest failing check, as a loop in check order would, once every
    thread it started has finished."""
    def failing(rng, n, t, u):
        raise RuntimeError(f"leakage sampler failed at T = {t}")

    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulator, "_zf_leakage_batch", failing)
    before = threading.active_count()
    # ks_cross_tier (T = t_c = 4) fails before ks_marks (T = t_f = 2)
    with pytest.raises(RuntimeError, match="at T = 4"):
        simulator.fade_ks_distances(P, 3, 1000)
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [0, -3])
def test_ks_checks_reject_bad_sample_counts(monkeypatch, n):
    """n < 1 samples per check is refused by name before any thread starts."""
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 4)
    started = _count_threads(monkeypatch)
    with pytest.raises(ValueError, match=rf"n = {n}\b"):
        simulator.fade_ks_distances(P, 3, n)
    assert started == []


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
    # interferers at the nominal 23 dBm femto power P_f, no noise
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
    link, weights = _weight_map(cfg, P)
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
    link, weights = _weight_map(cfg, P)
    fades = _fades(np.random.default_rng(13), link, 1000, 1)
    base = link.sinr(*fades, weights(*u))
    for p in (dataclasses.replace(P, p_c_dbm=P.p_c_dbm + 10.0), P13):
        scaled, scaled_weights = _weight_map(cfg, p)
        np.testing.assert_allclose(
            scaled.sinr(*fades, scaled_weights(*u)), base * 10.0, rtol=1e-12
        )


def test_per_interferer_power_vector_accepted():
    """The weight map prices each femtocell on its own: a batch gives the
    weights of its femtocells one at a time, under carrier sensing each at
    its own power (at most the fixed one, and the fixed one outside the
    sensing circle); muting one raises the SIR of every fade."""
    # femtocells at (450, 80), (600, 0) and (700, 0) m, the user at (400, 0) m
    u = _uniforms(np.array([[50.0, 80.0], [200.0, 0.0], [300.0, 0.0]]))
    cfg = _fixed_cfg(d_norm=0.4)
    link, fixed_weights = _weight_map(cfg, P)
    _, sensed_weights = _weight_map(
        dataclasses.replace(cfg, power_policy=PowerPolicy.CARRIER_SENSED_BLEND), P
    )
    fades = _fades(np.random.default_rng(14), link, 500, 3)
    for weights in (fixed_weights, sensed_weights):
        w = weights(*u)
        one_by_one = np.concatenate([weights(u[0][j:j + 1], u[1][j:j + 1]) for j in range(3)])
        np.testing.assert_allclose(w, one_by_one, rtol=1e-12)
        uniform = link.sinr(*fades, w)
        assert np.all(link.sinr(*fades, w * np.array([1.0, 0.0, 1.0])) >= uniform)
    w_fixed, w_sensed = fixed_weights(*u), sensed_weights(*u)
    assert np.all(w_sensed[:2] < w_fixed[:2]) and w_sensed[2] == w_fixed[2]


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
    return (res.p_outage, res.ci_halfwidth_95, res.percentiles(PCT_GRID))


def test_outage_estimate_reproducible_and_bounded():
    cfg = _hotspot_cfg()
    a = simulate(cfg, 50, 200, P, seed=99)
    b = simulate(cfg, 50, 200, P, seed=99)
    assert _summary(a) == _summary(b)
    assert 0.0 <= a.p_outage <= 1.0
    assert a.ci_halfwidth_95 > 0.0


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
    link, weights = _weight_map(cfg, P)
    coarse, fine = (
        1.0 - link.coverage(P.gamma_target, weights(u_radius, u_angle), mass)[0]
        for u_radius, u_angle, mass in (_field_nodes(cfg, P, k) for k in (1, 2))
    )
    assert res.p_outage == coarse
    assert res.ci_halfwidth_95 == abs(coarse - fine) < 1e-8
    r_gamma = math.log2(1.0 + P.gamma_target)
    assert res.percentiles([100.0 * res.p_outage]) == [pytest.approx(r_gamma, rel=1e-10)]


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
    assert all(math.isfinite(r) for r in res.percentiles([1.0, 50.0, 99.0]))


def test_empty_noiseless_field_reads_infinite_rates():
    """No femtocells and no noise: the coverage is 1 at every rate, so each
    percentile in (0, 100) lies at the top of the solver's bracket and
    reads inf, not a finite rate just below it; q = 0 still reads 0."""
    cfg = ScenarioConfig(n_f_target=0.0, include_noise=False)
    res = simulate(cfg, 1, 1, P, seed=0)
    assert res.p_outage == 0.0
    assert res.percentiles([0.0, 1e-9, *PCT_GRID, 100.0 - 1e-9, 100.0]) == [0.0] + [math.inf] * 12


def test_fast_and_full_modes_agree_at_single_user_config():
    """Both channel models share the fading laws at U=1, so on the same
    drops the sampled FullZF outage matches sampled Gamma fades through the
    same link within fade-level Monte Carlo noise: 4 sigma, with variance
    2·sum_i q_i(1-q_i) / n_fades / n_drops^2, each drop's outage q_i
    estimated by the Gamma side's share."""
    cfg = _hotspot_cfg(n_f_target=800.0, channel_mode=ChannelMode.FULL_ZF)
    n_drops, n_fades, seed = 150, 150, 21
    full = simulate(cfg, n_drops, n_fades, P, seed).p_outage
    run = _weight_map(cfg, P)
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
    limit); FullZF reads np.quantile off its sampled rates."""
    cdf = simulate(_hotspot_cfg(), 20, 50, P, seed=3)
    grid = np.linspace(0.0, 100.0, 201)
    pct = np.array(cdf.percentiles(grid))
    assert pct[0] == 0.0 and pct[-1] == math.inf
    assert np.all(np.diff(pct) > 0.0)
    full = simulate(_hotspot_cfg(channel_mode=ChannelMode.FULL_ZF), 5, 20, P, seed=3)
    p10, p50, p90 = full.percentiles([10.0, 50.0, 90.0])
    assert p10 <= p50 <= p90
    for res in (cdf, full):
        with pytest.raises(ValueError):
            res.percentiles([100.5])


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


def test_scenario_config_validation_and_from_json():
    cfg = ScenarioConfig(
        scenario=Scenario.REFERENCE_HOTSPOT,
        d_norm=0.4,
        power_policy=PowerPolicy.CARRIER_SENSED_BLEND,
        blend_weight=0.6,
        n_f_target=45.0,
    )
    text = (
        '{"scenario": "ReferenceHotspot", "d_norm": 0.4, '
        '"power_policy": "CarrierSensedBlend", "blend_weight": 0.6, "n_f_target": 45.0}'
    )
    assert ScenarioConfig.from_dict(json.loads(text)) == cfg
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
    with pytest.raises(ValueError, match="sensing_radius_m"):
        ScenarioConfig(sensing_radius_m=0.0)
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


def _field_nodes(cfg, p, refine):
    """simulator._field's nodes one per element: its (piece, node) u_radius
    and mass raveled in C order, and each piece's angle repeated over the
    piece's nodes."""
    u_radius, u_angle, mass, _ = simulator._field(cfg, p, refine)
    return u_radius.ravel(), np.repeat(u_angle.ravel(), u_radius.shape[1]), mass.ravel()


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
    run is _weight_map(cfg, P)."""
    link, weights = run
    rng, u_radius, u_angle = simulator._drop_draws(cfg, drop_index, P, seed)
    w = weights(u_radius, u_angle)
    return link.sinr(*_fades(rng, link, n_fades, len(w)), w)


def _sampled_field(cfg, n_drops, n_fades, seed, p=P):
    """The drop oracle of the PGFL: n_drops independent Poisson drops of
    the run's field, each with n_fades sampled FastChi2 fades (Gamma
    desired, cross-tier and mark powers), through the SINR
    A·D / ((c·C + Σⱼ wⱼ·Mⱼ) + N). Returns the (n_fades, n_drops) SINR."""
    link, weights = _weight_map(cfg, p)
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
    link, weights = _weight_map(cfg, p)
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
    pc_w = db_to_linear(P.p_c_dbm - 30.0)
    a = (pc_w / P.u_c) * link_budget(P).a_c * (d_norm * P.r_c) ** -P.alpha_c
    s_n = P.gamma_target / a * db_to_linear(noise_floor_dbm(P) - 30.0)
    expected = 1.0 - reg_gamma(P.t_c - P.u_c + 1, s_n)[1]
    assert res.p_outage == pytest.approx(expected, rel=1e-9, abs=1e-14)
    assert res.ci_halfwidth_95 == 0.0


def _cartesian_positions(u_radius, u_angle, p):
    """Points uniform on the disc of radius r_c about the receiver, in
    meters from it, the macrocell at (−D, 0)."""
    radii = p.r_c * np.sqrt(u_radius)
    angles = 2.0 * math.pi * u_angle
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


def _cartesian_map(cfg, p):
    """The oracle of the run's weight map, the layout that it replaced:
    femtocells placed in Cartesian coordinates, priced in dBm by the policy
    (the blended bound at the cell edge shifted by 10·α_c·log10 of each
    normalized macro distance, capped at P_f, for the femtocells within R_s
    of the sensed user) and weighed at their Euclidean distance to the
    receiver. Returns the map from radius and angle uniforms to (weights,
    sensed mask), and the serving power in W of a hotspot's own femtocell,
    which sits on the receiver.

    The coordinates are centred on the receiver, with the macrocell at
    (−D, 0). The layout placed femtocells about the macrocell instead, and
    its receiver distance D + ρ·cos φ − D lost digits at small ρ: 5·10⁻¹⁰
    relative at the field's innermost nodes (ρ = 0.1 mm, D = 200 m), where
    a weight's (1 + s·w)^(−u_f) is 0 to double precision either way."""
    hotspot = cfg.scenario is Scenario.REFERENCE_HOTSPOT
    d = cfg.d_norm * p.r_c
    macrocell = np.array([-d, 0.0])
    user = np.array([cfg.user_offset_m if hotspot else 0.0, 0.0])
    blend_edge_db = None
    if cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and cfg.density(p) > 0:
        window_db = power_ratio_bounds(1.0, cfg.density(p), p)
        blend_edge_db = blended_power_policy(*window_db, cfg.blend_weight)

    def powers_dbm(positions):
        powers = np.full(len(positions), p.p_f_dbm)
        sensed = np.zeros(len(positions), dtype=bool)
        if blend_edge_db is not None:
            blend_db = blend_edge_db + 10.0 * p.alpha_c * np.log10(
                np.linalg.norm(positions - macrocell, axis=1) / p.r_c
            )
            sensed = np.linalg.norm(positions - user, axis=1) <= cfg.sensing_radius_m
            powers[sensed] = np.minimum(p.p_f_dbm, p.p_c_dbm - blend_db[sensed])
        return powers, sensed

    gain = link_budget(p).a_ff if hotspot else link_budget(p).a_cf

    def layout(u_radius, u_angle):
        positions = _cartesian_positions(u_radius, u_angle, p)
        powers, sensed = powers_dbm(positions)
        distances = np.linalg.norm(positions, axis=1)
        with np.errstate(divide="ignore"):  # co-located interferer -> inf power
            return (db_to_linear(powers - 30.0) / p.u_f) * gain * distances**-p.alpha_fo, sensed

    return layout, db_to_linear(powers_dbm(np.zeros((1, 2)))[0][0] - 30.0)


@pytest.mark.parametrize("offset", [None, 400.0], ids=["default-offset", "offset-400"])
@pytest.mark.parametrize("d_norm", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("policy", list(PowerPolicy))
@pytest.mark.parametrize("scenario", list(Scenario))
def test_weight_map_matches_cartesian_layout(scenario, policy, d_norm, offset):
    """The run's weight map prices each femtocell from its polar position
    in linear power. The Cartesian layout in dBm that it replaced gives the
    same weights within rel 1e-12 and the same sensed set, at the draws of
    FullZF drops, at the field's nodes and at a femtocell on the receiver
    (an infinite weight), and the same serving power for a hotspot, with
    the femtocells at P_f = 13 dBm. A femtocell that does not sense the
    user transmits at the cap P_f itself, as under Fixed, and one that
    senses it at most there, so the sensed set is read from the sites."""
    p = P13
    cfg = ScenarioConfig(
        scenario=scenario, power_policy=policy, d_norm=d_norm, n_f_target=60.0,
        co_located_user_offset=offset,
    )
    link, weights = _weight_map(cfg, p)
    oracle, serving_w = _cartesian_map(cfg, p)
    drops = [simulator._drop_draws(cfg, i, p, 5)[1:] for i in range(200)]
    nodes = [_field_nodes(cfg, p, k)[:2] for k in (1, 2)]
    u_radius, u_angle = (
        np.concatenate(x) for x in zip(*drops, *nodes, (np.zeros(1), np.zeros(1)))
    )
    got = weights(u_radius, u_angle)
    want, want_sensed = oracle(u_radius, u_angle)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got[-1] == math.inf
    sensed = simulator._sites(u_radius, u_angle, *simulator._layout(cfg, p))[0]
    sensed &= policy is PowerPolicy.CARRIER_SENSED_BLEND
    np.testing.assert_array_equal(sensed[:-1], want_sensed[:-1])
    _, fixed_weights = _weight_map(dataclasses.replace(cfg, power_policy=PowerPolicy.FIXED), p)
    fixed = fixed_weights(u_radius, u_angle)
    np.testing.assert_array_equal(got[~sensed], fixed[~sensed])
    assert np.all(got[sensed] <= fixed[sensed])
    assert (got[sensed] < fixed[sensed]).any() == (policy is PowerPolicy.CARRIER_SENSED_BLEND)
    if scenario is Scenario.REFERENCE_HOTSPOT:
        budget = link_budget(p)
        assert link.desired == pytest.approx(
            (serving_w / p.u_f) * budget.a_fi * p.r_f**-p.alpha_fi, rel=1e-12
        )


def _reference_weights(cfg, p, u_radius, u_angle):
    """The run's weights as one expression, as the weight map computed them
    before it split a femtocell's position (_sites, once per drop or field)
    from its pricing (per row): every node's distances and both powers on
    every call. Outputs are promised bit for bit, so the split must match
    this exactly."""
    budget = link_budget(p)
    hotspot = cfg.scenario is Scenario.REFERENCE_HOTSPOT
    d, o = cfg.d_norm * p.r_c, cfg.user_offset_m if hotspot else 0.0
    gain = budget.a_ff if hotspot else budget.a_cf
    pf_w = db_to_linear(p.p_f_dbm - 30.0)
    rho_sq = p.r_c**2 * u_radius
    tx_w = pf_w
    if cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND and cfg.density(p) > 0:
        window_db = power_ratio_bounds(1.0, cfg.density(p), p)
        blend_db = blended_power_policy(*window_db, cfg.blend_weight)
        blend_w = db_to_linear(p.p_c_dbm - blend_db - 30.0)
        rho_cos = np.sqrt(rho_sq) * np.cos(2.0 * math.pi * u_angle)
        macro_sq = d * d + rho_sq + 2.0 * d * rho_cos
        user_sq = rho_sq + o * o - 2.0 * o * rho_cos
        with np.errstate(divide="ignore"):
            blended = np.minimum(pf_w, blend_w * (macro_sq / p.r_c**2) ** (-0.5 * p.alpha_c))
        tx_w = np.where(user_sq <= cfg.sensing_radius_m**2, blended, pf_w)
    with np.errstate(divide="ignore"):
        return (tx_w * (gain / p.u_f)) * rho_sq ** (-0.5 * p.alpha_fo)


@pytest.mark.parametrize("name", ["baseline_fixed", "cellular_sensed", "hotspot_sensed",
                                  "closed_form"])
def test_weights_match_reference_formula(name):
    """FastChi2's node weights (sites built once per field, priced per row)
    and FullZF's drop weights (sites built per drop) are bit for bit the
    reference expression's, on the fields refined 1× and 2× and on 20
    seeded drops, at D = 0.2, 0.4, …, 1.0; under carrier sensing so are
    the sensed sets."""
    base = _bench_cfg(name)
    drops = [simulator._drop_draws(base, i, P, 3)[1:] for i in range(20)]
    for d_norm in (0.2, 0.4, 0.6, 0.8, 1.0):
        cfg = dataclasses.replace(base, d_norm=d_norm)
        link, weights = simulator._run(cfg, P)
        for refine in (1, 2):
            u_radius, u_angle, _, sites = simulator._field(cfg, P, refine)
            np.testing.assert_array_equal(
                weights(sites), _reference_weights(cfg, P, u_radius, u_angle)
            )
        layout = simulator._layout(cfg, P)
        for u_radius, u_angle in drops:
            np.testing.assert_array_equal(
                weights(simulator._sites(u_radius, u_angle, *layout)),
                _reference_weights(cfg, P, u_radius, u_angle),
            )


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("offset", [None, 230.0, 400.0], ids=["default", "o=Rs", "o=400"])
@pytest.mark.parametrize("policy", list(PowerPolicy))
def test_weights_match_reference_at_the_edges(scenario, offset, policy):
    """The split weight map against the reference expression, bit for bit
    and without a warning, where it is easiest to get wrong: a femtocell on
    the receiver (u_radius = 0, an infinite weight), exactly on the sensing
    circle about a cellular user (sensed, as d_u² ≤ R_s² is inclusive, at
    9 dBm, below the cap P_f = 13 dBm) and one ulp outside it (not sensed,
    at P_f), on the macrocell at D = 0.2 (which transmits at the cap P_f),
    an empty drop, both policies, and a hotspot whose user lies on or
    beyond the sensing circle (o ≥ R_s), where every ray starts outside it."""
    p = P13
    cfg = ScenarioConfig(
        scenario=scenario, power_policy=policy, d_norm=0.2, n_f_target=60.0,
        co_located_user_offset=offset,
    )
    _, weights = simulator._run(cfg, p)
    layout = simulator._layout(cfg, p)
    on_circle = (cfg.sensing_radius_m / p.r_c) ** 2
    assert p.r_c**2 * on_circle == cfg.sensing_radius_m**2
    u_radius = np.array([0.0, on_circle, np.nextafter(on_circle, 1.0), 0.04, 0.5])
    u_angle = np.array([0.0, 0.2, 0.2, 0.5, 0.1])
    rng = np.random.default_rng(17)
    cases = [(u_radius, u_angle), (np.empty(0), np.empty(0)), tuple(rng.random((2, 500)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in cases:
            sites = simulator._sites(*u, *layout)
            np.testing.assert_array_equal(weights(sites), _reference_weights(cfg, p, *u))
        field_radius, field_angle, _, field_sites = simulator._field(cfg, p, 1)
        w_field = weights(field_sites)
        np.testing.assert_array_equal(
            w_field, _reference_weights(cfg, p, field_radius, field_angle)
        )
        edge_sites = simulator._sites(u_radius, u_angle, *layout)
        w = weights(edge_sites)
    assert w[0] == math.inf and w_field.size > 0
    if scenario is Scenario.REFERENCE_CELLULAR_USER and policy is PowerPolicy.CARRIER_SENSED_BLEND:
        budget = link_budget(p)
        _, fixed = _weight_map(dataclasses.replace(cfg, power_policy=PowerPolicy.FIXED), p)
        assert edge_sites[0].tolist() == [True, True, False, True, False]
        assert w[1] != fixed(u_radius, u_angle)[1] and w[2] == fixed(u_radius, u_angle)[2]
        pf_w = db_to_linear(p.p_f_dbm - 30.0)
        assert w[3] == (pf_w * (budget.a_cf / p.u_f)) * 200.0 ** -p.alpha_fo


@pytest.mark.parametrize("scenario", list(Scenario))
def test_weight_map_without_femtocells(scenario):
    """With no femtocells there is no power window to blend: the carrier-
    sensed map prices every femtocell at P_f, as the
    Cartesian layout does, an empty drop has no weights, and the field has
    no nodes."""
    cfg = ScenarioConfig(scenario=scenario, n_f_target=0.0)
    _, weights = _weight_map(cfg, P13)
    u_radius, u_angle = np.random.default_rng(3).random((2, 500))
    np.testing.assert_allclose(
        weights(u_radius, u_angle), _cartesian_map(cfg, P13)[0](u_radius, u_angle)[0], rtol=1e-12
    )
    assert weights(np.empty(0), np.empty(0)).shape == (0,)
    assert [x.size for x in simulator._field(cfg, P13, 1)[:3]] == [0, 0, 0]


def _fsum_coverage(link, theta, weights, mass):
    """ExactLink.coverage through logarithms, with every sum over the field
    taken by math.fsum, correctly rounded: ln Λ's field term
    Σ massⱼ·expm1(−u_k·log1p(s·wⱼ)) and the sums
    Σ massⱼ·exp(−u_k·log1p(s·wⱼ))·xⱼⁿ, with x = 1/(1 + 1/(s·w)), which
    reads 1 where s·w overflows."""
    m, cross_shape, mark_shape = link.shapes
    s = theta / link.desired
    with np.errstate(over="ignore"):
        sw = s * weights
    x = 1.0 / (1.0 + 1.0 / sw)
    ln_survive = -mark_shape * np.log1p(sw)
    y = s * link.cross / (1.0 + s * link.cross)
    ln_l = (
        -s * link.noise_w - cross_shape * math.log1p(s * link.cross)
        + math.fsum(mass * np.expm1(ln_survive))
    )
    laplace = math.exp(ln_l)
    if laplace == 0.0:
        return 0.0, 0.0
    a, g = [1.0], []
    for n in range(1, m + 1):
        field = math.fsum(mass * np.exp(ln_survive) * x**n)
        g.append(
            cross_shape * y**n + n * math.comb(mark_shape + n - 1, n) * field
            + (s * link.noise_w if n == 1 else 0.0)
        )
        a.append(math.fsum(g[k - 1] * a[n - k] for k in range(1, n + 1)) / n)
    return laplace * math.fsum(a[:m]), -(m / theta) * a[m] * laplace


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize(
    ("cfg", "p"),
    [
        (_bench_cfg("baseline_fixed"), P),
        (_bench_cfg("cellular_sensed"), P),
        (_bench_cfg("hotspot_sensed"), P),
        (_closure_cfg(Scenario.REFERENCE_HOTSPOT), P),
        (_hotspot_cfg(n_f_target=60.0), TWO_STREAMS),
    ],
    ids=["baseline-fixed", "cellular-sensed", "hotspot-sensed", "femto-closure",
         "hotspot-two-streams"],
)
def test_coverage_sums_match_exact_summation(cfg, p, refine):
    """On the field's nodes (10 240, and 40 960 for the error estimate) the
    coverage and its derivative match the log1p/expm1 formula with every
    sum taken exactly by math.fsum within rel 1e-13, from a tenth to ten
    times Γ."""
    link, weights = _weight_map(cfg, p)
    u_radius, u_angle, mass = _field_nodes(cfg, p, refine)
    w = weights(u_radius, u_angle)
    for theta in (0.1 * p.gamma_target, p.gamma_target, 10.0 * p.gamma_target):
        cov, d_cov = link.coverage(theta, w, mass)
        want, d_want = _fsum_coverage(link, theta, w, mass)
        assert cov == pytest.approx(want, rel=1e-13)
        assert d_cov == pytest.approx(d_want, rel=1e-13)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("mark_shape", [1, 2, 3, 4])
@pytest.mark.parametrize(
    ("cross", "cross_shape", "noise_w"),
    [(0.0, 0, 0.0), (1e-150, 2, 0.0), (0.0, 0, 1e-152)],
    ids=["field-only", "cross-tier", "noise"],
)
def test_coverage_kernel_matches_log_formula(m, mark_shape, cross, cross_shape, noise_w):
    """The kernel prices each node by one reciprocal r = 1/(1+sw) and
    products of it, with no log1p, expm1 or exp. Its coverage and
    derivative equal the log1p/expm1 formula (_fsum_coverage) within
    rel 1e-13, at u_k ∈ {1, 2, 3, 4} and m ∈ {1, 2, 4}, from θ = 10⁻³ to
    the top of the rate bracket, 2^512 − 1. The weights reach 10³⁰⁰, so
    near the top s·w overflows at some nodes: there the kernel must read
    x = 1 and r = 0, as the formula does, not NaN. The cross-tier power
    and the noise are small enough that |ln Λ| stays below 200: one ulp of
    ln Λ is then under 3·10⁻¹⁴ of Λ."""
    link = simulator.ExactLink(1.0, cross, noise_w, (m, cross_shape, mark_shape))
    weights = np.geomspace(1e-150, 1e300, 91)
    mass = np.linspace(0.05, 1.0, 91)
    thetas = np.geomspace(1e-3, 2.0**512 - 1.0, 40)
    with np.errstate(over="ignore"):
        assert np.isinf(thetas[-1] * weights).any()
    for theta in thetas:
        cov, d_cov = link.coverage(float(theta), weights, mass)
        want, d_want = _fsum_coverage(link, float(theta), weights, mass)
        assert math.isfinite(cov) and math.isfinite(d_cov), theta
        assert cov == pytest.approx(want, rel=1e-13, abs=0.0), theta
        assert d_cov == pytest.approx(d_want, rel=1e-13, abs=0.0), theta


@pytest.mark.parametrize(
    ("cross", "noise_w", "n_nodes", "covered"),
    [(0.0, 0.0, 0, 1.0), (0.0, 1e-12, 0, 0.0), (1e-3, 0.0, 0, 0.0), (0.0, 0.0, 3, 0.0)],
    ids=["nothing", "noise", "cross-tier", "field"],
)
def test_coverage_at_infinite_s_is_certainty_of_infinite_sinr(cross, noise_w, n_nodes, covered):
    """Where s = θ/desired overflows to inf, the coverage is P(SINR = ∞):
    1 with no noise, no cross-tier power and no field, 0 with any of them,
    and its derivative 0, never NaN (u_x·ln(1+sc) would read 0·NaN for a
    cellular user)."""
    link = simulator.ExactLink(1e-300, cross, noise_w, (2, 1 if cross else 0, 1))
    assert 1e10 / link.desired == math.inf
    assert link.coverage(1e10, np.full(n_nodes, 1e-9), np.full(n_nodes, 0.1)) == (covered, 0.0)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed"])
def test_field_weights_price_each_ray_angle_once(monkeypatch, name, refine):
    """_field hands _sites one angle per piece of a ray, (piece, 1), against
    (piece, node) radii, and keeps the sites: a 5-row `simulate` D sweep
    (reading ci_halfwidth_95 on each row at refine 2) takes one cosine per
    piece per field, 2·64·refine, not one per node or per row, and the
    field's weights, raveled in C order, are bit for bit those of the nodes
    one per element."""
    cfg = _bench_cfg(name)
    simulator._polar_field.cache_clear()
    cosines, building, cos, sites = [], [], np.cos, simulator._sites

    def counted(x, *args, **kwargs):
        if building:
            cosines.append(np.size(x))
        return cos(x, *args, **kwargs)

    def built(*args):
        building.append(True)
        try:
            return sites(*args)
        finally:
            building.pop()

    monkeypatch.setattr(np, "cos", counted)
    monkeypatch.setattr(simulator, "_sites", built)
    for d_norm in (0.2, 0.4, 0.6, 0.8, 1.0):
        res = simulate(dataclasses.replace(cfg, d_norm=d_norm), 1, 1, P, seed=0)
        if refine == 2:
            assert res.ci_halfwidth_95 >= 0.0
    monkeypatch.undo()
    assert cosines == [2 * 64 * k for k in range(1, refine + 1)]
    _, weights = simulator._run(cfg, P)
    u_radius, _, _, field_sites = simulator._field(cfg, P, refine)
    w = weights(field_sites)
    assert w.shape == u_radius.shape
    np.testing.assert_array_equal(w.ravel(), _weight_map(cfg)[1](*_field_nodes(cfg, P, refine)[:2]))


def _counting_powers(powers: list[int]) -> type:
    """An array type whose arrays, and what is computed from them, record
    in powers the size of every power taken of them."""

    class Powers(np.ndarray):
        def __pow__(self, exponent):
            powers.append(self.size)
            return np.asarray(self) ** exponent

    return Powers


@pytest.mark.parametrize("name", ["baseline_fixed", "cellular_sensed", "hotspot_sensed"])
def test_row_raises_only_sensed_nodes_to_a_power(name):
    """Once a field's sites are built, a row prices them: under carrier
    sensing it takes one power, over the sensed nodes only (the ρ^(−α_fo)
    path loss is in the sites), and under Fixed it takes none. Counted on
    the cached sites of both refinements at three D, with the weights
    unchanged by the counting."""
    cfg = _bench_cfg(name)
    powers: list[int] = []
    counting = _counting_powers(powers)
    for refine in (1, 2):
        sites = simulator._field(cfg, P, refine)[3]
        counted = tuple(x.view(counting) for x in sites)
        for d_norm in (0.2, 0.6, 1.0):
            _, weights = simulator._run(dataclasses.replace(cfg, d_norm=d_norm), P)
            powers.clear()
            w = np.asarray(weights(counted))
            sensing = cfg.power_policy is PowerPolicy.CARRIER_SENSED_BLEND
            assert powers == ([np.count_nonzero(sites[0])] if sensing else [])
            np.testing.assert_array_equal(w, weights(sites))
    assert 0 < np.count_nonzero(sites[0]) < sites[0].size


@pytest.mark.parametrize("scenario", list(Scenario))
def test_field_nodes_weigh_disc_and_sensing_circle(scenario):
    """The node rule integrates area: the masses sum to λ·π·r_c², and those
    of the nodes inside the sensing circle about the sensed user (the
    receiver for a cellular user, user_offset_m outward for a hotspot) to
    λ·π·R_s², so the split falls on the circle where the policy's power
    jumps."""
    cfg = ScenarioConfig(scenario=scenario, d_norm=0.5, n_f_target=60.0)
    u_radius, u_angle, mass = _field_nodes(cfg, P, 1)
    offsets = _cartesian_positions(u_radius, u_angle, P)
    user = cfg.user_offset_m if scenario is Scenario.REFERENCE_HOTSPOT else 0.0
    inside = np.hypot(offsets[:, 0] - user, offsets[:, 1]) <= cfg.sensing_radius_m
    lam = cfg.density(P)
    assert mass.sum() == pytest.approx(lam * math.pi * P.r_c**2, rel=1e-12)
    assert mass[inside].sum() == pytest.approx(lam * math.pi * cfg.sensing_radius_m**2, rel=1e-12)


def _full_circle_field(cfg, p, refine):
    """The field rule on the full circle, as _field built it before the
    fold: 128·refine rays at the midpoints in φ ∈ (0, 2π), each node of
    its own area only."""
    n_rays = 128 * refine
    phi = (np.arange(n_rays) + 0.5) * (2.0 * math.pi / n_rays)
    o = cfg.user_offset_m if cfg.scenario is Scenario.REFERENCE_HOTSPOT else 0.0
    half = np.sqrt(np.maximum(cfg.sensing_radius_m**2 - (o * np.sin(phi)) ** 2, 0.0))
    edges = np.stack([np.zeros(n_rays), o * np.cos(phi) - half, o * np.cos(phi) + half,
                      np.full(n_rays, p.r_c)])
    log_edges = np.log(np.clip(edges, 1e-4, p.r_c))[..., None]
    mid, half_width = (log_edges[1:] + log_edges[:-1]) / 2, (log_edges[1:] - log_edges[:-1]) / 2
    t, t_weight = np.polynomial.legendre.leggauss(80 * refine)
    rho = np.exp(mid + half_width * t)
    mass = cfg.density(p) * rho**2 * half_width * t_weight * (2.0 * math.pi / n_rays)
    u_angle = np.broadcast_to((phi / (2.0 * math.pi))[:, None], rho.shape)
    return ((rho / p.r_c) ** 2).ravel(), u_angle.ravel(), mass.ravel()


_MIRROR_CASES = [
    ScenarioConfig(scenario=scenario, power_policy=policy, n_f_target=60.0)
    for scenario in Scenario
    for policy in PowerPolicy
] + [
    ScenarioConfig(
        scenario=Scenario.REFERENCE_HOTSPOT, n_f_target=60.0, co_located_user_offset=400.0
    )
]


@pytest.mark.parametrize(
    "cfg", _MIRROR_CASES,
    ids=lambda c: f"{c.scenario.value}-{c.power_policy.value}-{c.user_offset_m:g}",
)
def test_interferer_weights_mirror_symmetric(cfg):
    """_field integrates the half-plane only and doubles each node's mass,
    which holds because the layout, the policy and the weights are the same
    at φ and −φ: the macrocell, the receiver and the sensed user all lie on
    the axis. A scenario that moves one of them off it fails here, and must
    give up the fold."""
    _, weights = _weight_map(cfg, P)
    rng = np.random.default_rng(13)
    u_radius, u_angle = rng.random(2000), rng.random(2000)
    np.testing.assert_allclose(
        weights(u_radius, 1.0 - u_angle), weights(u_radius, u_angle), rtol=1e-13
    )


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("offset", [None, 400.0], ids=["default-offset", "offset-400"])
@pytest.mark.parametrize("d_norm", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("policy", list(PowerPolicy))
@pytest.mark.parametrize("scenario", list(Scenario))
def test_folded_field_matches_full_circle(scenario, policy, d_norm, offset, refine):
    """The half-plane rule gives the coverage of the full-circle rule that
    it folds, and its masses sum to the full circle's. It keeps only nodes
    of positive mass, half as many as the full circle has."""
    cfg = ScenarioConfig(
        scenario=scenario, power_policy=policy, d_norm=d_norm, n_f_target=60.0,
        co_located_user_offset=offset,
    )
    link, weights = _weight_map(cfg, P)
    folded, full = (
        (weights(u_radius, u_angle), mass)
        for u_radius, u_angle, mass in (
            _field_nodes(cfg, P, refine), _full_circle_field(cfg, P, refine)
        )
    )
    assert np.all(folded[1] > 0.0)
    assert np.count_nonzero(full[1] > 0.0) == 2 * len(folded[1])
    assert folded[1].sum() == pytest.approx(full[1].sum(), rel=1e-12)
    for theta in (P.gamma_target, 0.1 * P.gamma_target, 10.0 * P.gamma_target):
        cov, d_cov = link.coverage(theta, *folded)
        cov_full, d_cov_full = link.coverage(theta, *full)
        assert cov == pytest.approx(cov_full, rel=1e-12)
        assert d_cov == pytest.approx(d_cov_full, rel=1e-12)


def test_field_cost_and_legendre_cache():
    """A FastChi2 run's fixed cost: with the sensed user inside the sensing
    circle about the receiver (o < R_s), every ray's first piece is empty,
    so 2 pieces × 64 rays × 80 radial nodes, refined 2× on both axes for
    its error estimate; each Gauss–Legendre rule is built once per process
    and shared read-only."""
    simulator._legendre.cache_clear()
    cfg = _hotspot_cfg(power_policy=PowerPolicy.CARRIER_SENSED_BLEND, n_f_target=60.0)
    assert cfg.user_offset_m < cfg.sensing_radius_m
    assert [[x.shape for x in simulator._field(cfg, P, k)[:3]] for k in (1, 2)] == [
        [(2 * 64, 80), (2 * 64, 1), (2 * 64, 80)],
        [(2 * 128, 160), (2 * 128, 1), (2 * 128, 160)],
    ]
    for d_norm in (0.4, 0.8):
        simulate(dataclasses.replace(cfg, d_norm=d_norm), 1, 1, P, seed=0)
    assert simulator._legendre.cache_info().misses == 2
    t, t_weight = simulator._legendre(80)
    assert len(simulator._legendre(160)[0]) == 160
    assert simulator._legendre.cache_info().misses == 2  # 80 and 160 were the two built
    for cached in (t, t_weight):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def _mp_legendre(n):
    """The n-point Gauss–Legendre rule by Newton's method at 40 digits."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for k in range(1, n // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(8):
                p_prev, p = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                slope = n * (p_prev - x * p) / (1 - x * x)
                x -= p / slope
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope**2))
    return [-x for x in nodes] + nodes[::-1], weights + weights[::-1]


@pytest.mark.parametrize(("n", "weight_rtol"), [(80, 1e-13), (160, 5e-13)])
def test_legendre_rule_against_exact(n, weight_rtol):
    """_legendre's nodes and weights against a 40-digit rule: nodes within
    10⁻¹⁵ relative and weights within weight_rtol, where numpy's leggauss
    is 1.1·10⁻¹² (n = 80) and 1.5·10⁻¹¹ (n = 160) off; ascending, exactly
    antisymmetric and symmetric, summing to 2, and read-only."""
    t, t_weight = simulator._legendre(n)
    nodes, weights = _mp_legendre(n)
    node_err = max(abs((mpmath.mpf(a) - b) / b) for a, b in zip(t.tolist(), nodes))
    weight_err = max(abs((mpmath.mpf(a) - b) / b) for a, b in zip(t_weight.tolist(), weights))
    assert node_err < 1e-15
    assert weight_err < weight_rtol
    assert np.all(np.diff(t) > 0.0)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(t_weight, t_weight[::-1])
    assert t_weight.sum() == pytest.approx(2.0, rel=1e-14)
    assert not t.flags.writeable and not t_weight.flags.writeable


def test_legendre_rule_small_and_odd():
    """The rule holds from n = 2 (nodes ±1/√3, weights 1), agrees with
    numpy's leggauss wherever that is accurate, and odd n is refused."""
    t, t_weight = simulator._legendre(2)
    np.testing.assert_allclose(t, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-15)
    np.testing.assert_allclose(t_weight, [1.0, 1.0], rtol=1e-15)
    for n in range(4, 42, 2):
        t, t_weight = simulator._legendre(n)
        ref_t, ref_weight = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(t, ref_t, rtol=0, atol=1e-15)
        np.testing.assert_allclose(t_weight, ref_weight, rtol=1e-12)
    with pytest.raises(ValueError, match="even"):
        simulator._legendre(81)


def test_fastchi2_row_calls_no_lapack(monkeypatch):
    """A FastChi2 row, its quadrature-error estimate included, runs with no
    numpy.linalg solver: the Legendre rule is built by recurrence."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eigvalsh", "eigh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = _hotspot_cfg(power_policy=PowerPolicy.CARRIER_SENSED_BLEND, n_f_target=60.0)
    res = simulate(cfg, 1, 1, P, seed=0)
    assert 0.0 < res.p_outage < 1.0
    assert 0.0 <= res.ci_halfwidth_95 < 1e-6
    assert all(math.isfinite(r) for r in res.percentiles([1.0, 50.0, 99.0]))


def test_field_nodes_built_once_per_geometry():
    """The field's nodes and sites depend on the sensed user's offset, R_s,
    r_c, α_fo and the density, not on D or the power policy: a `simulate`
    D sweep that reads only p_outage builds one field, nodes and sites,
    reading ci_halfwidth_95 on each row adds the refined one once, configs
    that differ only in D or policy share the very arrays, another density,
    user offset or α_fo gets new ones, and the shared arrays are
    read-only."""
    simulator._polar_field.cache_clear()
    cfg = _hotspot_cfg(power_policy=PowerPolicy.CARRIER_SENSED_BLEND)
    built, sites = [], simulator._sites
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_sites", lambda *args: built.append(args[0].shape) or sites(*args))
        rows = [simulate(dataclasses.replace(cfg, d_norm=d_norm), 1, 1, P, seed=0)
                for d_norm in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert simulator._polar_field.cache_info().misses == 1
        for res in rows:
            assert res.ci_halfwidth_95 >= 0.0
    assert simulator._polar_field.cache_info().misses == 2
    assert built == [(2 * 64, 80), (2 * 128, 160)]
    cfg = _bench_cfg("hotspot_sensed")
    field = simulator._field(cfg, P, 1)
    for change in ({"d_norm": 0.9}, {"power_policy": PowerPolicy.FIXED}):
        shared = simulator._field(dataclasses.replace(cfg, **change), P, 1)
        assert all(a is b for a, b in zip(shared, field))
    rebuilt = [simulator._field(dataclasses.replace(cfg, **change), P, 1)
               for change in ({"n_f_target": 61.0}, {"co_located_user_offset": 200.0})]
    rebuilt.append(simulator._field(cfg, dataclasses.replace(P, alpha_fo=3.5), 1))
    for other in rebuilt:
        assert not any(a is b for a, b in zip(other, field))
        assert not any(a is b for a, b in zip(other[3], field[3]))
    np.testing.assert_array_equal(rebuilt[-1][0], field[0])
    for x in (*field[:3], *field[3]):
        with pytest.raises(ValueError):
            x[(0,) * x.ndim] = 0


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
    for q, r_q in zip(PCT_GRID, res.percentiles(PCT_GRID)):
        ecdf = np.searchsorted(rates, r_q, side="right") / n
        assert abs(ecdf - q / 100.0) <= eps, (q, ecdf, eps)


@pytest.mark.parametrize("d_norm", [0.4, 0.6, 0.8, 1.0])
@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed", "baseline_fixed"])
def test_percentiles_warm_start_saves_coverage_evaluations(monkeypatch, name, d_norm):
    """The CLI's nine percentiles at the bench rows take at most 45 coverage
    evaluations (31–39 here). Each is solved in t = ln θ, where the coverage
    law is nearly linear, from the last point the solve below evaluated,
    whose coverage it reuses. Newton in r, each from the root below, took
    53–62 per row; each q solved on its own from r = 1, 71–97."""
    res = simulate(dataclasses.replace(_bench_cfg(name), d_norm=d_norm), 1, 1, P, seed=0)
    calls = []
    coverage = simulator.ExactLink.coverage

    def counted(link, *args):
        calls.append(args[0])
        return coverage(link, *args)

    monkeypatch.setattr(simulator.ExactLink, "coverage", counted)
    res.percentiles(PCT_GRID)
    assert len(calls) <= 45


@pytest.mark.parametrize("q", [1e-7, 1e-4])
@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed", "baseline_fixed"])
def test_tiny_rate_percentiles_resolve(name, q):
    """Rate percentiles far below the solver's absolute 10⁻¹² b/s/Hz: the
    solve stops on a step in ln θ, relative in r, so a root of 10⁻¹⁷ is
    still positive and meets its level, F(r) = q/100 to 10⁻⁶ relative (the
    coverage's own rounding near 1 limits F to about 10⁻⁷ at q = 1e-7)."""
    cfg = dataclasses.replace(_bench_cfg(name), d_norm=1.0)
    (r,) = simulate(cfg, 1, 1, P, seed=0).percentiles([q])
    link, weights = _weight_map(cfg, P)
    u_radius, u_angle, mass = _field_nodes(cfg, P, 1)
    cov, _ = link.coverage(math.expm1(r * math.log(2.0)), weights(u_radius, u_angle), mass)
    assert r > 0.0
    assert (1.0 - cov) / (q / 100.0) == pytest.approx(1.0, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("name", ["cellular_sensed", "hotspot_sensed", "baseline_fixed"])
def test_percentiles_any_order_match_cold_solves(name):
    """percentiles(qs) answers in the caller's order, a repeated q included,
    and each value is the one-q solve from r = 1 to within 1e-12."""
    res = simulate(_bench_cfg(name), 1, 1, P, seed=0)
    qs = [50.0, 1.0, 99.0, 25.0, 50.0, 5.0, 95.0, 10.0, 75.0, 90.0]
    cold = [res.percentiles([q])[0] for q in qs]
    assert res.percentiles(qs) == pytest.approx(cold, rel=0.0, abs=1e-12)


@pytest.mark.parametrize(
    ("name", "d_norm", "printed"),
    [
        ("cellular_sensed", 0.8, (0.895170390138, 2.57871573274, 3.07142957535, 3.74213546894,
                                  4.39754495189, 5.0031094355, 5.51649641859, 5.81077980905,
                                  6.33739455572)),
        ("cellular_sensed", 1.0, (0.787316564896, 1.778178127, 2.14770381891, 2.71198205176,
                                  3.30484102921, 3.87393207966, 4.36646085697, 4.65167783911,
                                  5.16581601427)),
        ("baseline_fixed", 0.8, (0.00226307223936, 0.0471495832234, 0.167996768652,
                                 0.775030780125, 1.97369084959, 3.20428651502, 4.16012173259,
                                 4.66254013294, 5.48886702059)),
        ("baseline_fixed", 1.0, (0.00096969482271, 0.0203828225287, 0.0743590835678,
                                 0.383623060248, 1.17243845588, 2.17608723022, 3.04068020817,
                                 3.5133170025, 4.30779891459)),
    ],
)
def test_coverage_vanishes_at_high_rates_with_noise(name, d_norm, printed):
    """With noise, ln Λ falls below the smallest double's log long before
    the rate bracket's top: e^(ln Λ) is 0 while the cumulant terms aₙ
    overflow. The coverage there reads (0, 0), not NaN, and the nine
    percentiles of the bench row are those `simulate` prints (12 digits)."""
    cfg = dataclasses.replace(_bench_cfg(name), d_norm=d_norm)
    link, weights = _weight_map(cfg, P)
    u_radius, u_angle, mass = _field_nodes(cfg, P, 1)
    w = weights(u_radius, u_angle)
    for rate in (300.0, 400.0, 511.0):
        assert link.coverage(math.expm1(rate * math.log(2.0)), w, mass) == (0.0, 0.0)
    res = simulate(cfg, 1, 1, P, seed=0)
    assert res.percentiles(PCT_GRID) == pytest.approx(printed, rel=1e-11)


def test_fast_chi2_simulate_draws_no_fades():
    """FastChi2 draws neither drops nor fades: a billion fades per drop
    (5·10¹⁰ in all, which no sampler would finish), other drop counts and
    other seeds give the same result as one drop of one fade: n_drops,
    n_fades and seed are not used."""
    cfg = _bench_cfg("cellular_sensed")
    one = simulate(cfg, 1, 1, P, seed=3)
    for n_drops, n_fades, seed in ((50, 10**9, 3), (4000, 1, 3), (1, 1, 42)):
        res = simulate(cfg, n_drops, n_fades, P, seed)
        assert (res.p_outage, res.ci_halfwidth_95) == (one.p_outage, one.ci_halfwidth_95)
        assert res.percentiles(PCT_GRID) == one.percentiles(PCT_GRID)


def test_full_zf_ci_is_clustered_on_drops():
    """FullZF keeps sampling: p_outage is the share of all (drop, fade)
    pairs, and the CI is 1.96·sd(per-drop sampled outage)/√n_drops, not the
    binomial half-width over pairs; a single drop has no CI. The rate
    percentiles are np.quantile's, to the bit, of log2(1+SINR) over all
    pairs."""
    cfg = _hotspot_cfg(n_f_target=60.0, channel_mode=ChannelMode.FULL_ZF)
    n_drops, n_fades = 12, 40
    res = simulate(cfg, n_drops, n_fades, P, seed=6)
    link, weights = _weight_map(cfg, P)

    def drop_sinr(i):
        rng, u_radius, u_angle = simulator._drop_draws(cfg, i, P, 6)
        w = weights(u_radius, u_angle)
        return link.sinr(*simulator._sample_draws(rng, n_fades, len(w), cfg.scenario, P), w)

    sinr = np.array([drop_sinr(i) for i in range(n_drops)])
    frac = np.count_nonzero(sinr < P.gamma_target, axis=1) / n_fades
    assert res.p_outage == pytest.approx(frac.mean(), rel=1e-12)
    rates = np.log2(sinr + 1.0)
    assert res.percentiles(PCT_GRID) == [float(np.quantile(rates, q / 100.0)) for q in PCT_GRID]
    assert res.ci_halfwidth_95 == 1.96 * np.std(frac, ddof=1) / math.sqrt(n_drops)
    assert math.isnan(simulate(cfg, 1, n_fades, P, seed=6).ci_halfwidth_95)


def test_sampled_quantiles_step_over_infinite_rates():
    """FullZF's quantiles interpolate only between finite rates: next to an
    infinite upper neighbour at positive weight they read inf, at weight 0
    the finite lower neighbour (np.quantile gives nan at both), and
    np.quantile's own value elsewhere, with no floating-point warning."""
    # sorted: 0, 1, 2, 3.5, inf, inf; q's order statistic sits at 5q
    rates = np.array([[2.0, math.inf, 0.0], [math.inf, 1.0, 3.5]])
    us = [0.0, 0.2, 0.3, 0.6, 0.7, 0.8, 0.9, 1.0]
    got = simulator._sampled_quantiles(rates, us)
    assert got == [0.0, 1.0, 1.5, 3.5] + [math.inf] * 4
    assert got[:3] == np.quantile(rates, us[:3]).tolist()
    with np.errstate(invalid="ignore"):
        # at 5q = 3 the weight is 0 beside an infinite upper neighbour
        assert np.isnan(np.quantile(rates, us[3:])).all()


def test_simulate_rejects_empty_runs():
    for mode in ChannelMode:
        cfg = ScenarioConfig(channel_mode=mode)
        with pytest.raises(ValueError, match="counts must be >= 1"):
            simulate(cfg, 0, 10, P, seed=0)
        with pytest.raises(ValueError, match="counts must be >= 1"):
            simulate(cfg, 10, 0, P, seed=0)
