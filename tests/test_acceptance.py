"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a `[criterion NN] name: PASS/FAIL` line followed by one
line per sub-check (visible with `pytest -s`, or in the captured-output
section when a criterion fails).  Criteria 2 and 3 contain sub-checks
whose recorded targets the closed-form model does not meet; they are
asserted at face value and stay red — see README.md for the
known-discrepancy list.  Everything stochastic is pinned to SEED.
"""

import dataclasses
import math

import numpy as np

from tiernet import simulator
from tiernet.analytic import (
    cellular_coverage_radius,
    k_c,
    k_correction_bounds,
    k_f_limit,
    max_contention_density_cellular,
    max_contention_density_femto,
    shot_noise_k_f,
)
from tiernet.linkmodel import SystemParams, location_coeffs
from tiernet.sensing import (
    max_sensing_range,
    min_sensing_radius,
    power_ratio_bounds,
)
from tiernet.simulator import (
    ChannelMode,
    PowerPolicy,
    Scenario,
    ScenarioConfig,
    simulate,
)
from tiernet.specfun import chi2_cdf, inv_reg_inc_beta, reg_inc_beta

P = SystemParams()
AREA = math.pi * P.r_c**2
SEED = 42


def _report(num, name, checks):
    """checks: list of (label, passed, detail); prints the scoreboard and
    asserts that every sub-check held."""
    failed = [c for c in checks if not c[1]]
    print(f"[criterion {num:02d}] {name}: {'PASS' if not failed else 'FAIL'}")
    for label, ok, detail in checks:
        print(f"    {'ok' if ok else 'XX'} {label}: {detail}")
    assert not failed, f"failed sub-checks: {[c[0] for c in failed]}"


def _within(value, target, tol):
    return abs(value - target) <= tol


def test_criterion_01_shot_noise_constant():
    val = k_c(P)
    _, upper = k_correction_bounds(P.t_c, P.u_c, P)
    _report(1, "cellular shot-noise constant", [
        ("K_c(4,1)", _within(val, 3.47, 0.01), f"{val:.6f} vs 3.47 +/- 0.01"),
        ("upper bound", _within(upper, 3.87, 0.01), f"{upper:.6f} vs 3.87 +/- 0.01"),
    ])


def test_criterion_02_power_ratio_window():
    lam60 = 60.0 / AREA
    lo, hi = power_ratio_bounds(1.0, lam60, P)
    gaps = [
        power_ratio_bounds(d, lam60, P)[1] - power_ratio_bounds(d, lam60, P)[0]
        for d in (0.3, 0.5, 0.7, 0.9, 1.0)
    ]
    spread = max(gaps) - min(gaps)
    _report(2, "feasible power-ratio window at N_f=60", [
        ("floor at cell edge", _within(lo, 40.0, 1.0), f"{lo:.4f} dB vs 40 +/- 1"),
        ("ceiling at cell edge", _within(hi, 55.0, 1.0), f"{hi:.4f} dB vs 55 +/- 1"),
        ("gap constant in D", spread <= 0.01,
         f"gap {gaps[0]:.6f} dB, spread {spread:.2e} over D in [0.3, 1.0]"),
    ])


def test_criterion_03_sensing_ranges():
    d_sense = min_sensing_radius(1.0, P)
    max_range = max_sensing_range(500, 0.9, 0.1, P)
    _report(3, "sensing radius and detector range", [
        ("min sensing radius", _within(d_sense, 160.0, 5.0),
         f"{d_sense:.4f} m vs 160 +/- 5"),
        ("max detector range", _within(max_range, 230.0, 10.0),
         f"{max_range:.4f} m vs 230 +/- 10"),
    ])


def test_criterion_04_contention_density_ratios():
    p_eq = dataclasses.replace(P, p_c_dbm=P.p_f_dbm)
    n_su = max_contention_density_cellular(0.1, p_eq) * AREA
    n_mu = max_contention_density_cellular(0.1, dataclasses.replace(p_eq, u_c=4)) * AREA
    ratio = n_su / n_mu
    _report(4, "equal-power density caps at D=0.1", [
        ("single-user cap", _within(n_su, 62.0, 6.2), f"{n_su:.3f} vs 62 +/- 10%"),
        ("multi-user cap", _within(n_mu, 8.0, 0.8), f"{n_mu:.3f} vs 8 +/- 10%"),
        ("SU/MU ratio", 7.0 <= ratio <= 8.5, f"{ratio:.4f} in [7.0, 8.5]"),
    ])


def test_criterion_05_coverage_radii():
    lam60 = 60.0 / AREA
    r_su = cellular_coverage_radius(lam60, P) / P.r_c
    r_mu = cellular_coverage_radius(lam60, dataclasses.replace(P, u_c=4)) / P.r_c
    _report(5, "cellular coverage radii at N_f=60", [
        ("single-user D_c/R_c", _within(r_su, 0.35, 0.03), f"{r_su:.4f} vs 0.35 +/- 0.03"),
        ("multi-user D_c/R_c", _within(r_mu, 0.13, 0.03), f"{r_mu:.4f} vs 0.13 +/- 0.03"),
    ])


def test_criterion_06_spatial_reuse_plateaus():
    lam_su, reg_su = max_contention_density_femto(0.9, P)
    p_mu = dataclasses.replace(P, u_f=2)
    lam_mu, reg_mu = max_contention_density_femto(0.9, p_mu)
    reuse_su = lam_su * AREA * P.u_f
    reuse_mu = lam_mu * AREA * p_mu.u_f
    _report(6, "hotspot-limited spatial reuse", [
        ("single-stream N_f*U_f", _within(reuse_su, 1080.0, 108.0),
         f"{reuse_su:.2f} vs 1080 +/- 10% ({reg_su.value})"),
        ("two-stream N_f*U_f", _within(reuse_mu, 640.0, 64.0),
         f"{reuse_mu:.2f} vs 640 +/- 10% ({reg_mu.value})"),
    ])


def test_criterion_07_femto_outage_closure():
    checks = []
    for d_norm in (0.2, 0.5, 0.9):
        lam, _ = max_contention_density_femto(d_norm, P)
        cfg = ScenarioConfig(
            scenario=Scenario.REFERENCE_HOTSPOT,
            d_norm=d_norm,
            power_policy=PowerPolicy.FIXED,
            n_f_target=lam * AREA,
            include_noise=False,
        )
        est = simulate(cfg, 1000, 1000, P, seed=SEED)
        checks.append((
            f"outage at D={d_norm}",
            0.07 <= est.p_outage <= 0.13,
            f"{est.p_outage:.4f} in [0.07, 0.13] at max density",
        ))
    _report(7, "femto outage closure at max density", checks)


def test_criterion_08_cellular_outage_closure():
    lam_08 = max_contention_density_cellular(0.8, P)
    cfg_a = ScenarioConfig(
        scenario=Scenario.REFERENCE_CELLULAR_USER,
        d_norm=0.8,
        power_policy=PowerPolicy.FIXED,
        n_f_target=lam_08 * AREA,
        include_noise=False,
    )
    est_a = simulate(cfg_a, 4000, 250, P, seed=SEED)

    # the algebraic inverse: at D_c(lambda) for N_f = 60 the same budget binds
    lam60 = 60.0 / AREA
    d_c_norm = cellular_coverage_radius(lam60, P) / P.r_c
    cfg_b = dataclasses.replace(cfg_a, d_norm=d_c_norm, n_f_target=60.0)
    est_b = simulate(cfg_b, 4000, 250, P, seed=SEED)

    _report(8, "cellular outage closure", [
        ("at max density, D=0.8", _within(est_a.p_outage, 0.10, 0.02),
         f"{est_a.p_outage:.4f} vs 0.10 +/- 0.02"),
        (f"at coverage radius D={d_c_norm:.4f}, N_f=60",
         _within(est_b.p_outage, 0.10, 0.02),
         f"{est_b.p_outage:.4f} vs 0.10 +/- 0.02"),
    ])


def _ks_vs_chi2(samples, k):
    """Two-sided KS distance between samples and the chi-squared law with
    2k degrees of freedom on the half scale (Gamma(k, 1))."""
    s = np.sort(samples)
    n = s.size
    cdf = chi2_cdf(2 * k, 2 * s)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def _ks_vs_uniform(u_values):
    """Two-sided KS distance between samples and Uniform(0, 1)."""
    s = np.sort(u_values)
    n = s.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - s), np.max(s - (i - 1) / n)))


def _replayed_leakage(rng, n, t, u):
    """Replay _zf_leakage_batch on a fresh copy of its stream, keeping the
    precoders: returns (leakage, W) with leakage = ||g^H W||^2 row by row."""
    h = simulator._cn_matrix(rng, (n, u, t))
    rows = h.conj() / np.linalg.norm(h, axis=2, keepdims=True)
    w = simulator._zf_precoder_batch(rows)
    g = simulator._cn_matrix(rng, (n, t))
    return (np.abs(np.einsum("nt,ntu->nu", g.conj(), w)) ** 2).sum(axis=1), w


def _weighted_exp_cdf(x, lam):
    """P(sum_i lam_i E_i <= x) row by row, E_i iid Exp(1), lam > 0 of shape
    (n, U).

    The sum is the absorption time of the phase-type chain 1 -> 2 -> ... ->
    U with exit rates 1/lam_i, so the survival is the first row sum of
    expm(x T) for its bidiagonal generator T. The exponential is taken by
    Taylor series on T scaled to norm <= 1/2 and repeated squaring, which
    stays accurate (to ~4e-8 at eigenvalues down to 1e-9) when eigenvalues
    coincide, where the partial-fraction form cancels catastrophically.
    """
    n, u = lam.shape
    rate = 1.0 / lam
    gen = np.zeros((n, u, u))
    idx = np.arange(u)
    gen[:, idx, idx] = -rate
    gen[:, idx[:-1], idx[:-1] + 1] = rate[:, :-1]
    a = x[:, None, None] * gen
    norm = np.abs(a).sum(axis=1).max(axis=1)
    squarings = np.maximum(0, np.ceil(np.log2(norm / 0.5))).astype(int)
    b = a / (2.0 ** squarings)[:, None, None]
    eye = np.broadcast_to(np.eye(u), a.shape)
    e = eye.copy()
    for k in range(14, 0, -1):  # truncation error < 1e-16 at norm 1/2
        e = eye + (b @ e) / k
    for step in range(int(squarings.max(initial=0))):
        more = squarings > step
        e[more] = e[more] @ e[more]
    return 1.0 - e[:, 0, :].sum(axis=1)


def test_criterion_09_precoder_distribution_oracle():
    n = 100_000
    crit = 1.6276 / math.sqrt(n)  # 1% critical value, large-sample KS
    configs = [(2, 1), (2, 2), (3, 2), (4, 1), (4, 4)]
    checks = []
    stream = 0
    for t, u in configs:
        for kind in ("desired", "cross", "marks"):
            rng = simulator._drop_rng(SEED, stream)
            stream += 1
            if kind != "desired" and u > 1:
                # unit precoder columns are not orthogonal, so given W the
                # leakage is sum_i lam_i E_i over the eigenvalues of W^H W
                # (trace U), not Gamma(U, 1): test F_W(leakage) ~ U(0, 1)
                samples = simulator._zf_leakage_batch(rng, n, t, u)
                replay, w = _replayed_leakage(
                    simulator._drop_rng(SEED, stream - 1), n, t, u
                )
                lam = np.linalg.eigvalsh(w.conj().transpose(0, 2, 1) @ w)
                same = np.array_equal(replay, samples)
                d = _ks_vs_uniform(_weighted_exp_cdf(samples, lam))
                checks.append((
                    f"({t},{u}) {kind} vs sum of eig(W^H W)-weighted Exp(1)",
                    same and d < crit,
                    f"replay {'bit-identical' if same else 'DIFFERS'}, "
                    f"KS {d:.6f} vs {crit:.6f}",
                ))
                continue
            if kind == "desired":
                samples = simulator._zf_desired_batch(rng, n, t, u)
                k = t - u + 1
            else:
                samples = simulator._zf_leakage_batch(rng, n, t, u)
                k = u
            d = _ks_vs_chi2(samples, k)
            checks.append((
                f"({t},{u}) {kind} vs Gamma({k},1)",
                d < crit,
                f"KS {d:.6f} vs {crit:.6f}",
            ))
    _report(9, "zero-forcing power distributions", checks)


def test_criterion_10_rate_cdf_reproduction():
    checks = []

    def sensed(scenario, d_norm):
        return ScenarioConfig(
            scenario=scenario,
            d_norm=d_norm,
            power_policy=PowerPolicy.CARRIER_SENSED_BLEND,
            n_f_target=60.0,
            sensing_radius_m=230.0,
            include_noise=True,
        )

    for d_norm, target in ((0.8, 3.21), (1.0, 2.22)):
        cdf = simulate(sensed(Scenario.REFERENCE_CELLULAR_USER, d_norm), 1000, 1000, P, seed=SEED)
        (p10,) = cdf.percentiles([10])
        checks.append((
            f"cellular sensed D={d_norm}",
            _within(p10, target, 0.25),
            f"10-pct {p10:.4f} b/s/Hz vs {target} +/- 0.25",
        ))

    for d_norm, target in ((0.11, 2.15), (0.4, 3.63), (0.6, 3.56), (0.8, 3.32), (0.9, 3.22)):
        cdf = simulate(sensed(Scenario.REFERENCE_HOTSPOT, d_norm), 1000, 1000, P, seed=SEED)
        (p10,) = cdf.percentiles([10])
        checks.append((
            f"hotspot D={d_norm}",
            _within(p10, target, 0.25),
            f"10-pct {p10:.4f} b/s/Hz vs {target} +/- 0.25",
        ))

    baseline = ScenarioConfig(
        scenario=Scenario.REFERENCE_CELLULAR_USER,
        d_norm=1.0,
        power_policy=PowerPolicy.FIXED,
        fixed_pc_over_pf_db=20.0,
        n_f_target=60.0,
        include_noise=True,
    )
    (p10,) = simulate(baseline, 1000, 1000, P, seed=SEED).percentiles([10])
    checks.append((
        "no-sensing baseline D=1.0",
        p10 < 0.7,
        f"10-pct {p10:.4f} b/s/Hz < 0.7",
    ))

    _report(10, "rate-percentile reproduction", checks)


def test_criterion_11_property_suites():
    checks = []
    rng = np.random.default_rng(7)

    # outage identity: the regularized incomplete beta at integer shapes
    # equals the finite Bernoulli sum it collapses to
    worst = 0.0
    for _ in range(1000):
        a = int(rng.integers(1, 13))
        b = int(rng.integers(1, 13))
        x = float(rng.uniform(0.02, 0.98))
        direct = sum(
            math.comb(a + b - 1, j) * x**j * (1.0 - x) ** (a + b - 1 - j)
            for j in range(a, a + b)
        )
        worst = max(worst, abs(reg_inc_beta(x, a, b) - direct) / direct)
    checks.append(("outage finite-sum identity", worst <= 1e-9, f"max rel err {worst:.2e}"))

    # monotonicity grid: moving outward relaxes the macro-interference term
    # and raises the admissible femto density
    grid = [0.15, 0.3, 0.5, 0.7, 0.9, 1.0]
    kappas = [location_coeffs(d, P).kappa for d in grid]
    terms = [
        reg_inc_beta(k / (1.0 + k), P.t_f - P.u_f + 1, P.u_c) for k in kappas
    ]
    lams = [max_contention_density_femto(d, P)[0] for d in grid]
    mono = all(a > b for a, b in zip(terms, terms[1:])) and all(
        a < b for a, b in zip(lams, lams[1:])
    )
    kf = [shot_noise_k_f(k, P) for k in sorted(kappas)]
    mono_kf = all(a >= b for a, b in zip(kf, kf[1:])) and all(
        1.0 <= v <= k_f_limit(P) for v in kf
    )
    checks.append(("density/outage monotone in D", mono,
                   f"macro term {terms[0]:.3f}->{terms[-1]:.3f}, lam x{lams[-1]/lams[0]:.2f}"))
    checks.append(("K_f within [1, K_f_limit], monotone", mono_kf,
                   f"K_f in [{kf[-1]:.4f}, {kf[0]:.4f}]"))

    # inverse-beta round trip
    worst_rt = 0.0
    for _ in range(300):
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.5, 20.0))
        y = float(rng.uniform(1e-3, 1.0 - 1e-3))
        x = inv_reg_inc_beta(y, a, b)
        worst_rt = max(worst_rt, abs(reg_inc_beta(x, a, b) - y))
    checks.append(("inverse-beta round trip", worst_rt <= 1e-8, f"max err {worst_rt:.2e}"))

    # log-log slope of the coverage radius against P_f/P_c
    lam60 = 60.0 / AREA
    base = cellular_coverage_radius(lam60, P)
    worst_slope = 0.0
    for dbm in (33.0, 38.0, 53.0):
        p2 = dataclasses.replace(P, p_c_dbm=dbm)
        dx = (P.p_f_dbm - dbm) / 10.0 - (P.p_f_dbm - P.p_c_dbm) / 10.0
        slope = (math.log10(cellular_coverage_radius(lam60, p2)) - math.log10(base)) / dx
        worst_slope = max(worst_slope, abs(slope + 1.0 / P.alpha_c) * P.alpha_c)
    checks.append(("coverage-radius power slope -1/alpha_c", worst_slope <= 1e-9,
                   f"max rel dev {worst_slope:.2e}"))

    # density <-> radius round trip
    worst_lam = 0.0
    for d_norm in (0.15, 0.35, 0.8, 1.0):
        lam = max_contention_density_cellular(d_norm, P)
        back = cellular_coverage_radius(lam, P) / P.r_c
        worst_lam = max(worst_lam, abs(back - d_norm) / d_norm)
    checks.append(("density/radius round trip", worst_lam <= 1e-9, f"max rel err {worst_lam:.2e}"))

    # correction-factor sandwich for every antenna/stream split up to 8
    sandwich = True
    for t in range(1, 9):
        for u in range(1, t + 1):
            lo, hi = k_correction_bounds(t, u, P)
            kf_lim = k_f_limit(dataclasses.replace(P, t_f=t, u_f=u))
            kc_val = k_c(dataclasses.replace(P, t_c=t, u_c=u))
            sandwich &= lo <= kf_lim <= hi and lo <= kc_val <= hi
    checks.append(("correction bounds for all (T,U) <= 8", sandwich, "36 configurations"))

    _report(11, "closed-form property suites", checks)
