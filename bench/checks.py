"""Output checks of the benchmark.

Each check is an independent computation (scipy's incomplete gamma and beta
functions in place of `tiernet.specfun`) or a property the method must have.
None compares against a stored copy of the program's output. Every check
returns a list of problems; an empty list means the value passed. Link
budgets and location coefficients come from `tiernet.linkmodel` and
`tiernet.sensing.pilot_snr`: they are plain arithmetic, and the checks aim
at the special functions, the closed forms and the simulator built on them.
"""

from __future__ import annotations

import dataclasses
import math

from scipy import special

from tiernet.linkmodel import SystemParams, link_budget, location_coeffs
from tiernet.sensing import pilot_snr

# the paper's 10-percentile rates (b/s/Hz) with sensing at N_f = 60
PAPER_P10 = {
    ("ReferenceCellularUser", 0.8): 3.21,
    ("ReferenceCellularUser", 1.0): 2.22,
    ("ReferenceHotspot", 0.4): 3.63,
    ("ReferenceHotspot", 0.6): 3.56,
    ("ReferenceHotspot", 0.8): 3.32,
}
P10_TOLERANCE = 0.25
BASELINE_P10_MAX = 0.7  # Fixed 20 dB, no sensing, cell edge

# validate's bounds, derived here and never read from its report
EPS = 0.1  # outage target of the default config
KS_SAMPLES = 100_000
KS_CRITICAL = 1.6276 / math.sqrt(KS_SAMPLES)  # Kolmogorov, 1% level
CLOSURE_TOLERANCE = {"femto_closure_outage": 0.03, "cellular_closure_outage": 0.02}
INVERSION_MAX = 1e-9
P_FALSE_TARGET = 0.1
P_FALSE_TOLERANCE = 1e-6
P_DETECT_TARGET = 0.9

# prefix of a problem that a fault of the program explains: the operation
# counts as failed, but the outputs are not reported incorrect for it
KNOWN_FAULT = "known fault: "

# closed forms: tiernet.specfun converges to 1e-10 absolute; the CSV keeps
# 12 significant digits
REL_TOL = 1e-8
DB_TOL = 1e-8
PROB_TOL = 1e-7


def close(value: float, ref: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= rel * abs(ref) + abs_tol


# ---------------------------------------------------------------------------
# simulate rows


def _percentiles(row: dict) -> list[tuple[float, float]]:
    """(q, rate) pairs of a simulate row, in increasing q."""
    pairs = [(float(k[len("rate_pct_"):]), v) for k, v in row.items()
             if k.startswith("rate_pct_")]
    return sorted(pairs)


def check_percentiles_ordered(row: dict) -> list[str]:
    pairs = _percentiles(row)
    if not pairs:
        return ["no rate percentiles"]
    return [f"rate_pct_{q1:g} = {v1} < rate_pct_{q0:g} = {v0}"
            for (q0, v0), (q1, v1) in zip(pairs, pairs[1:]) if not v1 >= v0]


def check_outage_matches_cdf(row: dict, gamma_target: float) -> list[str]:
    """p_outage is the share of rates below log2(1+gamma): with k = p·n of
    the n sorted rates below it, every quantile at a position <= k-1 lies
    below it and every quantile at a position >= k lies at or above it
    (numpy's linear interpolation between order statistics)."""
    n = int(row["n_drops"]) * int(row["n_fades"])
    k = round(row["p_outage"] * n)
    r_gamma = math.log2(1.0 + gamma_target)
    slack = 1e-11 * r_gamma  # the CSV's 12 significant digits
    problems = []
    for q, v in _percentiles(row):
        pos = q / 100.0 * (n - 1)
        if pos <= k - 1 and not v < r_gamma + slack:
            problems.append(f"rate_pct_{q:g} = {v} not below log2(1+G) = {r_gamma:.6f} "
                            f"with p_outage = {row['p_outage']}")
        if pos >= k and not v >= r_gamma - slack:
            problems.append(f"rate_pct_{q:g} = {v} below log2(1+G) = {r_gamma:.6f} "
                            f"with p_outage = {row['p_outage']}")
    return problems


def check_paper_p10(row: dict, d_norm: float) -> list[str]:
    target = PAPER_P10.get((row["scenario"], round(d_norm, 6)))
    if target is None:
        return [f"no paper 10-percentile for {row['scenario']} at D = {d_norm}"]
    v = row["rate_pct_10"]
    if abs(v - target) <= P10_TOLERANCE:
        return []
    return [f"10-percentile {v:.4f} outside {target} +- {P10_TOLERANCE}"]


def check_baseline_p10(row: dict) -> list[str]:
    v = row["rate_pct_10"]
    return [] if v < BASELINE_P10_MAX else [f"10-percentile {v:.4f} not below {BASELINE_P10_MAX}"]


def check_simulate_row(row: dict, d_norm: float, seed: int, drops: int, fades: int) -> list[str]:
    problems = []
    for key, want in (("seed", seed), ("n_drops", drops), ("n_fades", fades)):
        if int(row[key]) != want:
            problems.append(f"{key} = {row[key]}, asked for {want}")
    if not close(row["d_norm"], d_norm, 1e-9):
        problems.append(f"d_norm = {row['d_norm']}, asked for {d_norm}")
    if not 0.0 <= row["p_outage"] <= 1.0:
        problems.append(f"p_outage = {row['p_outage']} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# validate report


def check_validate_entry(name: str, value: float, passed: bool) -> list[str]:
    """One check of validate's report against the bound derived above."""
    if name.startswith("ks_"):
        ok, bound = value < KS_CRITICAL, f"< {KS_CRITICAL:.6f}"
    elif name in CLOSURE_TOLERANCE:
        tol = CLOSURE_TOLERANCE[name]
        ok, bound = abs(value - EPS) <= tol, f"{EPS} +- {tol}"
    elif name.startswith("power_window_inversion"):
        ok, bound = 0.0 <= value < INVERSION_MAX, f"< {INVERSION_MAX}"
    elif name.startswith("detector_"):
        ok = abs(value - P_FALSE_TARGET) <= P_FALSE_TOLERANCE
        bound = f"{P_FALSE_TARGET} +- {P_FALSE_TOLERANCE}"
    else:
        return [f"{name}: no bound known"]
    problems = [] if ok else [f"{name} = {value} outside {bound}"]
    if passed is not ok:
        problems.append(f"{name}: report says passed={passed}, bound {bound} says {ok}")
    return problems


# ---------------------------------------------------------------------------
# closed forms, recomputed with scipy.special


def sweep_params(variable: str, value: float, p: SystemParams, d_norm: float
                 ) -> tuple[SystemParams, float, int]:
    """System parameters, D and m_tw of one sweep row, as the CLI documents
    its sweep variables (TfUf keeps a single stream unless u_f = t_f)."""
    if variable == "D":
        return p, value, 500
    if variable == "PcOverPfDb":
        return dataclasses.replace(p, p_c_dbm=p.p_f_dbm + value), d_norm, 500
    if variable == "AlphaFo":
        return dataclasses.replace(p, alpha_fo=value), d_norm, 500
    if variable == "TfUf":
        t_f = round(value)
        return dataclasses.replace(p, t_f=t_f, u_f=1 if p.u_f == 1 else t_f), d_norm, 500
    if variable == "Mtw":
        return p, d_norm, round(value)
    raise ValueError(f"unknown sweep variable {variable!r}")


def _delta(p: SystemParams) -> float:
    return 2.0 / p.alpha_fo


def _c_f(p: SystemParams) -> float:
    d = _delta(p)
    total = sum(math.comb(p.u_f, k) * special.beta(k + d, p.u_f - k - d)
                for k in range(p.u_f))
    return math.pi * d * p.u_f ** (-d) * total


def _falling_sum(n: int, d: float) -> float:
    """1 + sum_{l=1}^{n} prod_{k<l}(k - d) / l!, summed in closed form as
    Gamma(n+1-d) / (Gamma(1-d) n!)."""
    return math.exp(special.gammaln(n + 1 - d) - special.gammaln(1 - d)
                    - special.gammaln(n + 1))


def _k_c(p: SystemParams) -> float:
    return 1.0 / _falling_sum(p.t_c - p.u_c, _delta(p))


def _k_f(kappa: float, p: SystemParams) -> float:
    if p.u_f == p.t_f:
        return 1.0
    n, d = p.t_f - p.u_f, _delta(p)
    r = kappa / (kappa + 1.0)
    corr = sum(r**j * math.comb(p.u_c + j - 1, j) / (1.0 + kappa) ** p.u_c
               * (_falling_sum(n - j, d) - 1.0) for j in range(n))
    return 1.0 / (1.0 + corr)


def analytic_oracle(d_norm: float, p: SystemParams, lam_scenario: float) -> dict:
    """No-coverage radius, both density caps with the regime, and the
    cellular coverage radius at the scenario density."""
    lb, loc = link_budget(p), location_coeffs(d_norm, p)
    d, g = _delta(p), p.gamma_target
    pc_over_pf = 10.0 ** ((p.p_c_dbm - p.p_f_dbm) / 10.0)
    y = special.betaincinv(p.t_f - p.u_f + 1, p.u_c, p.eps)
    val = ((lb.a_fi / lb.a_fc) * p.r_f ** (-p.alpha_fi) / g
           * (p.u_c / p.u_f) / pc_over_pf * y / (1.0 - y))
    macro = special.betainc(p.t_f - p.u_f + 1, p.u_c, loc.kappa / (loc.kappa + 1.0))
    c_f = _c_f(p)
    if macro >= p.eps:
        lam_f, regime = 0.0, "Infeasible"
    else:
        lam_f = ((p.eps - macro) / (1.0 / _k_f(loc.kappa, p) - macro)
                 / (c_f * (loc.q_f * g) ** d))
        regime = "CellularLimited" if macro >= p.eps / 2.0 else "HotspotLimited"
    prefix = (pc_over_pf * (lb.a_c / lb.a_cf) / (g * p.u_c)) ** (1.0 / p.alpha_c)
    return {
        "d_f_m": val ** (-1.0 / p.alpha_c),
        "lambda_star_femto": lam_f,
        "regime": regime,
        "macro_term": macro,
        "lambda_star_cellular": p.eps * _k_c(p) / (c_f * (loc.q_c * g) ** d),
        "d_c_m": prefix * (p.eps * _k_c(p) / (lam_scenario * c_f)) ** (1.0 / (d * p.alpha_c)),
    }


def power_window_oracle(d_norm: float, lam: float, p: SystemParams
                        ) -> tuple[float, float] | None:
    """Feasible P_c/P_f window in dB, or None where no plan is feasible."""
    lb, loc = link_budget(p), location_coeffs(d_norm, p)
    d, g = _delta(p), p.gamma_target
    c_f = _c_f(p)
    dist = d_norm * p.r_c
    lo = (g * (lb.a_cf / lb.a_c) * p.u_c * dist**p.alpha_c
          * (c_f * lam / (p.eps * _k_c(p))) ** (1.0 / d))
    k_max = (p.t_f - p.u_f + 1) ** d * special.gamma(1.0 - d)
    load = lam * c_f * (loc.q_f * g) ** d
    if load >= 1.0:
        return None
    eps_eff = (p.eps - load / k_max) / (1.0 - load)
    if not 0.0 < eps_eff < 1.0:
        return None
    y = special.betaincinv(p.t_f - p.u_f + 1, p.u_c, eps_eff)
    hi = (y / (1.0 - y) * p.u_c * (lb.a_fi / lb.a_fc) * dist**p.alpha_c
          / (g * p.u_f * p.r_f**p.alpha_fi))
    lo_db, hi_db = 10.0 * math.log10(lo), 10.0 * math.log10(hi)
    return None if lo_db > hi_db else (lo_db, hi_db)


def min_sensing_radius_oracle(d_norm: float, p: SystemParams) -> float:
    loc = location_coeffs(d_norm, p)
    y = special.betaincinv(p.t_c - p.u_c + 1, p.u_f, p.eps)
    return (loc.q_c * p.gamma_target / p.u_f * (1.0 - y) / y) ** (1.0 / p.alpha_fo)


def _p_detect_rayleigh(gamma_bar: float, m_tw: int, threshold: float) -> float:
    a = 2 * m_tw - 1
    u = m_tw * gamma_bar
    if u == 0.0:
        return float(special.gammaincc(2 * m_tw, threshold))
    lower = special.gammainc(a, threshold * u / (1.0 + u))
    tail = 0.0
    if lower > 0.0:
        ln_mid = -threshold / (1.0 + u) + a * math.log1p(1.0 / u)
        tail = math.exp(min(ln_mid + math.log(lower), 0.0))
    return min(1.0, float(special.gammaincc(a, threshold)) + tail)


def p_detect_oracle(gamma_bar: float, m_tw: int, threshold: float, t_f: int) -> float:
    """Energy detector with selection combining over t_f Rayleigh branches."""
    total = sum((-1.0) ** i * math.comb(t_f - 1, i) / (i + 1)
                * _p_detect_rayleigh(gamma_bar / (i + 1), m_tw, threshold)
                for i in range(t_f))
    return min(1.0, max(0.0, t_f * total))


def check_sweep_row(row: dict, value: float, d_norm: float, m_tw: int | None = None
                    ) -> list[str]:
    """The row sits at the sweep point asked for, at the D that point
    implies and, for sensing rows, at the detector size it implies."""
    problems = [] if close(row["value"], value, 1e-9) else [f"sweep value {row['value']} vs {value}"]
    if not close(row["d_norm"], d_norm, 1e-9):
        problems.append(f"d_norm {row['d_norm']} vs {d_norm}")
    if m_tw is not None and row["m_tw"] != m_tw:
        problems.append(f"m_tw {row['m_tw']} vs {m_tw}")
    return problems


def check_min_sensing_radius(d_sense: float, d_norm: float, p: SystemParams) -> list[str]:
    ref = min_sensing_radius_oracle(d_norm, p)
    return [] if close(d_sense, ref) else [f"d_sense_m {d_sense!r} vs scipy {ref!r}"]


def check_threshold(m_tw: int, threshold: float) -> list[str]:
    ref = float(special.gammainccinv(2 * m_tw, P_FALSE_TARGET))
    if close(threshold, ref):
        return []
    return [f"threshold {threshold!r} at m_tw={m_tw} vs scipy {ref!r}"]


def check_p_false(m_tw: int, threshold: float, p_false: float) -> list[str]:
    ref = float(special.gammaincc(2 * m_tw, threshold))
    return [] if abs(p_false - ref) <= PROB_TOL else [f"p_false {p_false} vs scipy {ref}"]


def check_max_range(max_range: float, m_tw: int, threshold: float, p: SystemParams) -> list[str]:
    """P_detect is 0.9 at max_range_m; NaN only where 0.9 is out of reach
    even as the pilot source nears the femtocell."""
    if math.isnan(max_range):
        near = p_detect_oracle(pilot_snr(1e-3, p), m_tw, threshold, p.t_f)
        return [] if near < P_DETECT_TARGET else [f"max_range_m NaN but P_detect(1 mm) = {near}"]
    got = p_detect_oracle(pilot_snr(max_range, p), m_tw, threshold, p.t_f)
    if abs(got - P_DETECT_TARGET) <= PROB_TOL:
        return []
    return [f"P_detect at max_range_m = {max_range} is {got}, not {P_DETECT_TARGET}"]


def check_p_detect_at(p_detect: float, d_m: float, m_tw: int, threshold: float,
                      p: SystemParams) -> list[str]:
    ref = p_detect_oracle(pilot_snr(d_m, p), m_tw, threshold, p.t_f)
    return [] if abs(p_detect - ref) <= PROB_TOL else [f"P_detect {p_detect} vs scipy {ref}"]


def check_power_window(lo: float, hi: float, blend: float, weight: float,
                       window: tuple[float, float] | None) -> list[str]:
    """The window matches the scipy one, NaN exactly where that one finds
    the plan infeasible, and blend_db = weight·ub + (1-weight)·lb."""
    if window is None:
        if all(math.isnan(v) for v in (lo, hi, blend)):
            return []
        return [f"window [{lo}, {hi}] where scipy finds no feasible plan"]
    if any(math.isnan(v) for v in (lo, hi, blend)):
        return [f"window NaN where scipy finds [{window[0]:.6f}, {window[1]:.6f}] dB"]
    problems = []
    if abs(lo - window[0]) > DB_TOL or abs(hi - window[1]) > DB_TOL:
        problems.append(f"window [{lo}, {hi}] vs scipy [{window[0]!r}, {window[1]!r}]")
    want = weight * hi + (1.0 - weight) * lo
    if abs(blend - want) > DB_TOL:
        problems.append(f"blend_db {blend} vs {weight}·ub + {1 - weight:g}·lb = {want}")
    return problems


def check_window_width_constant(widths: list[float]) -> list[list[str]]:
    """Along a D sweep the window's dB width stays that of the first row."""
    ref = next((w for w in widths if not math.isnan(w)), math.nan)
    return [[] if math.isnan(w) or abs(w - ref) <= DB_TOL
            else [f"window width {w} dB vs {ref} dB at the first D"] for w in widths]


def check_increasing(values: list[float], name: str) -> list[list[str]]:
    return [[] if i == 0 or v > values[i - 1]
            else [f"{name} {v} not above the previous row's {values[i - 1]}"]
            for i, v in enumerate(values)]


def check_analytic_row(row: dict, p: SystemParams, lam_scenario: float) -> list[str]:
    want = analytic_oracle(row["d_norm"], p, lam_scenario)
    problems = []
    for key in ("d_f_m", "lambda_star_cellular", "d_c_m"):
        if not close(row[key], want[key]):
            problems.append(f"{key} {row[key]!r} vs scipy {want[key]!r}")
    if not close(row["lambda_star_femto"], want["lambda_star_femto"], 1e-7, 1e-15):
        problems.append(f"lambda_star_femto {row['lambda_star_femto']!r} "
                        f"vs scipy {want['lambda_star_femto']!r}")
    macro = want["macro_term"]
    at_edge = min(abs(macro - p.eps), abs(macro - p.eps / 2.0)) < 1e-8
    if row["regime"] != want["regime"] and not at_edge:
        problems.append(f"regime {row['regime']} vs scipy {want['regime']}")
    # Infeasible exactly inside the no-coverage radius
    inside = row["d_norm"] * p.r_c <= row["d_f_m"]
    if (row["regime"] == "Infeasible") != inside and not at_edge:
        problems.append(f"regime {row['regime']} at D·r_c = {row['d_norm'] * p.r_c} m "
                        f"with d_f_m = {row['d_f_m']} m")
    for key, value in row.items():
        if isinstance(value, float) and math.isnan(value):
            if not (key.startswith("ratio_su_") and p.u_c != 1):
                problems.append(f"{key} is NaN")
    return problems


def check_cellular_density_scaling(rows: list[dict], p: SystemParams) -> list[list[str]]:
    """lambda_star_cellular · D^(2·alpha_c/alpha_fo) is constant along D."""
    scaled = [r["lambda_star_cellular"] * r["d_norm"] ** (2.0 * p.alpha_c / p.alpha_fo)
              for r in rows]
    return [[] if close(s, scaled[0], 1e-9)
            else [f"lambda_star_cellular·D^(2a_c/a_fo) = {s!r} vs {scaled[0]!r} at the first D"]
            for s in scaled]


def check_constant(values: list[float], name: str) -> list[list[str]]:
    return [[] if v == values[0] else [f"{name} {v!r} differs from {values[0]!r}"]
            for v in values]
