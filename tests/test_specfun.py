"""Special-function kernel vs. scipy oracles and analytic identities."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tiernet import specfun
from tiernet.specfun import chi2_cdf, inv_reg_inc_beta, reg_gamma, reg_inc_beta

GAMMA_GRID_A = [0.5, 1.0, 1.5, 2.0, 3.5, 5.0, 10.0, 100.0, 500.0, 999.5, 1000.0]
GAMMA_GRID_X = [0.0, 0.05, 0.7, 1.0, 4.0, 30.0, 450.0, 950.0, 1200.0]


@pytest.mark.parametrize("a", GAMMA_GRID_A)
@pytest.mark.parametrize("x", GAMMA_GRID_X)
def test_reg_gamma_upper_tail_matches_scipy(a, x):
    assert reg_gamma(a, x)[1] == pytest.approx(sp.gammaincc(a, x), rel=2e-9, abs=1e-290)


@pytest.mark.parametrize("a", GAMMA_GRID_A)
@pytest.mark.parametrize("x", [0.05, 0.7, 1.0, 4.0, 30.0, 450.0, 950.0])
def test_reg_gamma_ln_lower_tail_matches_scipy(a, x):
    ref = sp.gammainc(a, x)
    if ref > 1e-290:  # scipy underflows below this; the log form does not
        assert reg_gamma(a, x)[0] == pytest.approx(math.log(ref), rel=1e-9, abs=1e-9)


LARGE_SHAPE_POINTS = [
    (a, x)
    for a in (4000.0, 1e4, 4e4)
    for x in (0.95 * a, a, a + 1.0, a + math.sqrt(a))
]


@pytest.mark.parametrize(("a", "x"), LARGE_SHAPE_POINTS)
def test_large_shape_gamma_matches_scipy(a, x):
    """Near x = a at large shape: inside the uniform expansion's window."""
    ln_p, q = reg_gamma(a, x)
    assert q == pytest.approx(sp.gammaincc(a, x), rel=1e-8)
    assert ln_p == pytest.approx(math.log(sp.gammainc(a, x)), abs=1e-8)


@pytest.mark.parametrize("a", [4000.0, 4e4])
@pytest.mark.parametrize("dx", [-1.0, 0.0, 0.5])
def test_gamma_series_remainder_near_x_equals_a(a, dx):
    """Near x = a the series' terms shrink slowly, so the sum stops on a
    bound of its remainder rather than on its last term. reg_gamma takes
    the uniform expansion here, so the series is called directly."""
    x = a + dx
    q = -math.expm1(specfun._ln_lower_gamma_series(a, x))
    assert q == pytest.approx(sp.gammaincc(a, x), rel=2e-10)


@pytest.mark.parametrize(
    "call",
    [
        # shape 10 lies below the uniform expansion's window, so these reach
        # the loops; the expansion itself has none, but its lower tail near
        # underflow falls back to the series
        lambda: reg_gamma(10.0, 5.0),  # series
        lambda: reg_gamma(10.0, 20.0),  # continued fraction
        lambda: reg_gamma(2e4, 1.5e4),  # the window's deep-tail fallback
        lambda: reg_inc_beta(0.4, 50.0, 60.0),  # beta continued fraction
    ],
    ids=["series", "cf", "deep-tail-series", "beta-cf"],
)
def test_iteration_cap_raises(monkeypatch, call):
    monkeypatch.setattr(specfun, "_budget", lambda a: 3)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        call()


def _lambert_tan_steps(x, terms_per_step):
    # tan x = x/(1 − x²/(3 − x²/(5 − ...))): the kernel, started at d = 1/1
    # and c = 1/tiny, evaluates tan(x)/x from these (a, b) = (−x², 2j + 1)
    def step(i):
        first = terms_per_step * (i - 1) + 1
        return tuple((-x * x, 2.0 * j + 1.0) for j in range(first, first + terms_per_step))

    return step


@pytest.mark.parametrize("terms_per_step", [1, 2])
def test_continued_fraction_kernel_matches_closed_form(terms_per_step):
    """Lambert's fraction converges faster than geometrically, so the
    kernel's 10⁻¹⁰ stopping step leaves less than 10⁻¹⁴ of tan(1/2), with
    one or two terms a step."""
    x = 0.5
    h = specfun._continued_fraction(
        1.0, 1.0 / specfun._TINY, _lambert_tan_steps(x, terms_per_step), 200
    )
    assert x * h == pytest.approx(math.tan(x), abs=1e-14)


def test_continued_fraction_kernel_tests_convergence_after_a_step():
    """From c·d = 1 + 5·10⁻¹¹, the term (1, −2) moves h by 1 + 5·10⁻¹¹,
    inside the tolerance, and the term (1, 1.001) then by about 1 + 5·10⁻⁸.
    Alone, the first term ends the fraction; as the first of a two-term
    step it does not, and the step's second term leaves it unconverged."""
    c0 = 1.0 + 5e-11
    assert specfun._continued_fraction(1.0, c0, lambda i: ((1.0, -2.0),), 1) == c0
    with pytest.raises(RuntimeError, match="did not converge in 1 steps"):
        specfun._continued_fraction(1.0, c0, lambda i: ((1.0, -2.0), (1.0, 1.001)), 1)


def test_continued_fraction_kernel_stops_at_its_cap():
    """The golden-ratio fraction needs about 25 steps to converge: with a
    budget of 3 the kernel makes 3 steps and raises, naming that count."""
    steps = []

    def step(i):
        steps.append(i)
        return ((1.0, 1.0),)

    with pytest.raises(RuntimeError, match="continued fraction did not converge in 3 steps"):
        specfun._continued_fraction(1.0, 1.0 / specfun._TINY, step, 3)
    assert steps == [1, 2, 3]


def _stirling_coefficients(k_max):
    """g_0..g_k_max of Γ(a) ~ √(2π)·a^(a−1/2)·e^(−a)·Σ g_k·a^(−k), by
    exponentiating ln Γ*(a) ~ Σ_j B_2j/(2j(2j−1)·a^(2j−1))."""
    bern = [Fraction(1)]
    for m in range(1, k_max + 2):
        bern.append(-sum(math.comb(m + 1, i) * bern[i] for i in range(m)) / (m + 1))
    ln_coef = [Fraction(0)] * (k_max + 1)
    for j in range(1, k_max // 2 + 2):
        if 2 * j - 1 <= k_max:
            ln_coef[2 * j - 1] = bern[2 * j] / (2 * j * (2 * j - 1))
    g = [Fraction(1)]
    for n in range(1, k_max + 1):
        g.append(sum(i * ln_coef[i] * g[n - i] for i in range(1, n + 1)) / n)
    return g


def _temme_coefficients(rows, powers):
    """d_{k,n} of Temme's expansion in exact rationals, at least `powers`
    of them per row. s = λ − 1 = Σ c_m·η^m solves s·ds/dη = η·(1+s) (the
    derivative of η²/2 = s − ln(1+s)); d_{0,n} are the coefficients of
    C_0 = 1/s − 1/η, and the rows after it follow DLMF 8.12.12."""
    n0 = powers + 2 * rows
    c = [Fraction(0), Fraction(1)]
    for m in range(2, n0 + 2):
        cross = sum((m + 1 - i) * c[i] * c[m + 1 - i] for i in range(2, m))
        c.append((c[m - 1] - cross) / (m + 1))
    # η/s = 1/(1 + Σ_{j>=1} c_{j+1}·η^j), so C_0 = Σ_n inv_{n+1}·η^n
    inv = [Fraction(1)]
    for n in range(1, n0 + 1):
        inv.append(-sum(c[j + 1] * inv[n - j] for j in range(1, n + 1)))
    d = [inv[1:]]
    g = _stirling_coefficients(rows)
    for k in range(1, rows):
        prev = d[-1]
        d.append([(-1) ** k * g[k] * d[0][n] + (n + 2) * prev[n + 2] for n in range(len(prev) - 2)])
    return d


# rows 0 and 1 of the d table in cephes igam.h, as printed there
CEPHES_IGAM_D = [
    [-3.3333333333333333e-1, 8.3333333333333333e-2, -1.4814814814814815e-2,
     1.1574074074074074e-3, 3.527336860670194e-4, -1.7875514403292181e-4,
     3.9192631785224378e-5, -2.1854485106799922e-6, -1.85406221071516e-6,
     8.296711340953086e-7, -1.7665952736826079e-7, 6.7078535434014986e-9,
     1.0261809784240308e-8, -4.3820360184533532e-9, 9.1476995822367902e-10,
     -2.551419399494625e-11],
    [-1.8518518518518519e-3, -3.4722222222222222e-3, 2.6455026455026455e-3,
     -9.9022633744855967e-4, 2.0576131687242798e-4, -4.0187757201646091e-7,
     -1.8098550334489978e-5, 7.6491609160811101e-6, -1.6120900894563446e-6,
     4.6471278028074343e-9, 1.378633446915721e-7, -5.752545603517705e-8,
     1.1951628599778147e-8, -1.7543241719747648e-11, -1.0091543710600413e-9],
]


def test_temme_table_matches_its_definition():
    """Each embedded d_{k,n} is within 1 ulp of its exact rational; each
    row stops where its terms fall below 10⁻¹⁷ at the window's widest
    point (a = 50, |η| = 0.34); rows 0 and 1 are cephes'."""
    table = specfun._TEMME_D
    g = _stirling_coefficients(3)
    assert g == [1, Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840)]
    exact = _temme_coefficients(len(table), max(map(len, table)))
    for k, row in enumerate(table):
        for lit, ref in zip(row, exact[k]):
            assert abs(lit - float(ref)) <= math.ulp(float(ref))
        rest = sum(abs(v) * Fraction(34, 100) ** n for n, v in enumerate(exact[k]) if n >= len(row))
        assert rest / 50**k < 1e-17
    for row, cephes in zip(table, CEPHES_IGAM_D):
        assert len(row) == len(cephes)
        for lit, ref in zip(row, cephes):
            assert abs(lit - ref) <= math.ulp(ref)


MPMATH_POINTS = [
    (a, a + z * math.sqrt(a))
    for a in (50.0, 999.0, 1000.0, 2e4, 1e6)
    for z in (-3.0, -1.5, -0.5, 0.0, 0.3, 1.0, 1.36, 2.0, 3.0, 5.0)
    if abs(z) <= 0.3 * math.sqrt(a)
]


@pytest.mark.parametrize(("a", "x"), MPMATH_POINTS)
def test_uniform_expansion_matches_mpmath(a, x):
    """Inside the window Q and ln P agree with a 40-digit oracle to 1e-13
    relative, from a = 50 to 10⁶ (the series and fraction left ~1e-9 at
    a = 10⁶)."""
    assert specfun._in_temme_window(a, x)
    with mpmath.workdps(40):
        # the smaller tail directly; mpmath's other tail may not converge
        if x >= a:
            q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            ln_p = mpmath.log1p(-q)
        else:
            p = mpmath.gammainc(a, 0, x, regularized=True)
            q, ln_p = 1 - p, mpmath.log(p)
    got_ln_p, got_q = reg_gamma(a, x)
    assert got_q == pytest.approx(float(q), rel=1e-13, abs=0.0)
    assert got_ln_p == pytest.approx(float(ln_p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(("a", "x"), [(2e4, 1.5e4), (1e6, 7.5e5)])
def test_reg_gamma_in_window_below_underflow(a, x):
    """Where P itself underflows inside the window (a·η²/2 of 754 and
    37 682), ln P comes from the log-space series and stays finite, and Q
    reads 1."""
    assert specfun._in_temme_window(a, x)
    with mpmath.workdps(40):
        p = mpmath.gammainc(a, 0, x, regularized=True)
        ln_p, q = mpmath.log(p), 1 - p
    assert reg_gamma(a, x) == (pytest.approx(float(ln_p), rel=1e-12), float(q))
    assert float(q) == 1.0


@pytest.mark.parametrize(
    ("a", "x"),
    [(10.0, 5.0), (1000.0, 100.0), (10.0, 20.0), (1000.0, 1400.0)],
    ids=["series", "series-deep-tail", "fraction", "fraction-large-shape"],
)
def test_reg_gamma_series_and_fraction_match_mpmath(a, x):
    """Outside the window both tails agree with a 40-digit oracle to the
    loops' stopping tolerance, on either side of the switch at x = a + 1."""
    assert not specfun._in_temme_window(a, x)
    with mpmath.workdps(40):
        p = mpmath.gammainc(a, 0, x, regularized=True)
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        ln_p = mpmath.log(p)
    got_ln_p, got_q = reg_gamma(a, x)
    assert got_ln_p == pytest.approx(float(ln_p), rel=1e-9)
    assert got_q == pytest.approx(float(q), rel=1e-9)


def _series_or_fraction(a, x):
    # ln P and Q as evaluated outside the expansion's window
    if x < a + 1.0:
        ln_p = specfun._ln_lower_gamma_series(a, x)
        return ln_p, -math.expm1(ln_p)
    q = specfun._upper_gamma_cf(a, x)
    return math.log1p(-q), q


def _expansion(a, x):
    # ln P and Q from the expansion's smaller tail
    tail = specfun._temme_tail(a, x)
    if x >= a:
        return math.log1p(-tail), tail
    return math.log(tail), 1.0 - tail


_NEAR_WINDOW_EDGES = st.one_of(
    # either side of |x − a| = 0.3·a
    st.tuples(st.floats(35.0, 4000.0), st.sampled_from([0.7, 1.3]), st.floats(-0.02, 0.02)).map(
        lambda t: (t[0], t[0] * (t[1] + t[2]))
    ),
    # either side of a = 50
    st.tuples(st.floats(45.0, 55.0), st.floats(-0.3, 0.3)).map(lambda t: (t[0], t[0] * (1.0 + t[1]))),
)


@settings(max_examples=300, deadline=None)
@given(point=_NEAR_WINDOW_EDGES)
def test_branches_agree_across_the_window_edges(point):
    """Either side of the window's edges the expansion and the series or
    fraction agree to their stopping tolerance: the series stops at 10⁻¹⁰
    of P, which near x = a (P ≈ 0.55) is up to 1.8·10⁻¹⁰ of Q and of ln P.
    reg_gamma returns its branch's pair bit for bit."""
    a, x = point
    old = _series_or_fraction(a, x)
    new = _expansion(a, x)
    assert new[0] == pytest.approx(old[0], rel=2e-10)
    assert new[1] == pytest.approx(old[1], rel=2e-10)
    expected = new if specfun._in_temme_window(a, x) else old
    assert reg_gamma(a, x) == expected


def test_reg_gamma_deep_tail_finite():
    # far left tail: P(1000, 100) ~ 1e-600, well past double underflow
    val = reg_gamma(1000.0, 100.0)[0]
    assert math.isfinite(val)
    assert val < -700.0
    # cross-check against the log-space series written out longhand
    direct = 1000.0 * math.log(100.0) - 100.0 - sp.gammaln(1001.0)
    assert val == pytest.approx(direct, abs=1.0)


@pytest.mark.parametrize(
    ("a", "x"),
    [(-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0), (2.0, -0.5), (2.0, math.nan), (math.nan, 1.0)],
)
def test_gamma_domain_errors(a, x):
    with pytest.raises(ValueError, match="reg_gamma requires"):
        reg_gamma(a, x)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0, 7.5, 20.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 6.5, 15.0])
@pytest.mark.parametrize("x", [0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0])
def test_reg_inc_beta_matches_scipy(a, b, x):
    assert reg_inc_beta(x, a, b) == pytest.approx(sp.betainc(a, b, x), rel=2e-9, abs=1e-13)


def test_reg_inc_beta_complement_identity():
    # I_x(a,b) + I_{1-x}(b,a) = 1
    for a, b, x in [(2, 5, 0.3), (1, 1, 0.25), (4.5, 0.5, 0.9), (8, 3, 0.05)]:
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)


def test_inc_beta_monotone_in_shape_parameters():
    """Larger first shape pushes mass right (I falls); larger second shape
    pulls it left (I rises). Holds strictly on the interior."""
    for x in (0.3, 0.6):
        for b in range(1, 9):
            vals = [reg_inc_beta(x, a, b) for a in range(1, 9)]
            assert all(u > v for u, v in zip(vals, vals[1:]))
        for a in range(1, 9):
            vals = [reg_inc_beta(x, a, b) for b in range(1, 9)]
            assert all(u < v for u, v in zip(vals, vals[1:]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_terms", [1, 2, 4, 7])
@pytest.mark.parametrize("x", [0.3, 1.0, 1.7, 4.0])
def test_negative_binomial_tail_equals_inc_beta(m, n_terms, x):
    # sum_{k=0}^{K} C(m+k-1,k) (x/(1+x))^k (1+x)^{-m} = I_{1/(1+x)}(m, K+1)
    p = x / (1.0 + x)
    total = sum(math.comb(m + k - 1, k) * p**k for k in range(n_terms)) * (1.0 + x) ** -m
    assert total == pytest.approx(reg_inc_beta(1.0 / (1.0 + x), m, n_terms), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    a=st.floats(min_value=0.5, max_value=50.0),
    b=st.floats(min_value=0.5, max_value=50.0),
)
def test_inv_reg_inc_beta_round_trip(y, a, b):
    x = inv_reg_inc_beta(y, a, b)
    assert 0.0 < x < 1.0
    assert reg_inc_beta(x, a, b) == pytest.approx(y, abs=1e-8)


@pytest.mark.parametrize("y", [1e-300, 1e-6, 1e-4, 0.1, 0.999])
@pytest.mark.parametrize(
    ("a", "b"), [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (4, 1), (1, 4), (5, 5), (50, 2)]
)
def test_inv_reg_inc_beta_relative_accuracy_in_both_tails(y, a, b):
    """The inverse stops on a step relative to x, so a lower-tail root such
    as I_x(2, 1) = x² = 1e-4 keeps its relative digits. At (1e-300, 50, 2)
    one bisection step lands where I_x underflows to 0."""
    assert inv_reg_inc_beta(y, a, b) == pytest.approx(sp.betaincinv(a, b, y), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(("y", "a", "b"), [(0.515, 0.04, 837.0), (0.6, 0.1, 1000.0)])
def test_inv_reg_inc_beta_skewed_root_below_half(y, a, b):
    # y > 1/2 but the root is ~1e-11 and ~4e-6: solved as x, not as 1 − x
    assert inv_reg_inc_beta(y, a, b) == pytest.approx(sp.betaincinv(a, b, y), rel=1e-10, abs=0.0)


def test_newton_bisects_without_a_slope(monkeypatch):
    # a zero slope leaves only bisection, which still meets the tolerance
    root = specfun.newton(lambda x: (x - 0.3, 0.0), 0.9, 0.0, 1.0, 1e-12)
    assert root == pytest.approx(0.3, abs=1e-12)
    monkeypatch.setattr(specfun, "_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match="newton did not converge in 3 steps"):
        specfun.newton(lambda x: (x - 0.3, 0.0), 0.9, 0.0, 1.0, 1e-12)


def test_newton_returns_a_point_inside_its_bracket():
    """A root at the bracket's lower end, and a start within tol above it,
    as where a rate-quantile solve starts next to the root below: on a
    concave f the Newton step lands x²/2 below lo, within tol of x, which
    ends the solve. The result is clamped into [lo, hi], so it reads lo."""
    root = specfun.newton(lambda x: (x - 0.5 * x * x, 1.0 - x), 5e-13, 0.0, 1.0, 1e-12)
    assert root == 0.0


def test_inv_reg_inc_beta_edges_and_errors():
    assert inv_reg_inc_beta(0.0, 3, 2) == 0.0
    assert inv_reg_inc_beta(1.0, 3, 2) == 1.0
    with pytest.raises(ValueError):
        inv_reg_inc_beta(-0.1, 3, 2)
    with pytest.raises(ValueError):
        inv_reg_inc_beta(1.1, 3, 2)
    with pytest.raises(ValueError, match="y=nan"):
        inv_reg_inc_beta(math.nan, 3, 2)
    for a, b in ((0.0, 2), (3, -1.0)):
        with pytest.raises(ValueError, match="a, b > 0"):
            inv_reg_inc_beta(0.5, a, b)
    with pytest.raises(ValueError):
        reg_inc_beta(math.nan, 3, 2)


@pytest.mark.parametrize("k_dof", [2, 4, 8, 16, 1000])
@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 12.0, 980.0])
def test_chi2_cdf_matches_scipy(k_dof, x):
    assert chi2_cdf(k_dof, x) == pytest.approx(scipy.stats.chi2.cdf(x, k_dof), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 9))
def test_chi2_cdf_array_matches_scipy(k):
    """One array call follows the scipy CDF over the bulk and both tails
    (x = 0 included); a scalar gives a float."""
    x = np.concatenate(([0.0], np.geomspace(1e-4, 200.0, 400)))
    cdf = chi2_cdf(2 * k, x)
    assert cdf.shape == x.shape
    np.testing.assert_allclose(cdf, scipy.stats.chi2.cdf(x, 2 * k), rtol=1e-9, atol=1e-12)
    assert chi2_cdf(2 * k, 0.0) == 0.0
    assert type(chi2_cdf(2 * k, 3.0)) is float


def test_chi2_cdf_rejects_odd_dof():
    with pytest.raises(ValueError):
        chi2_cdf(3, 1.0)
    with pytest.raises(ValueError):
        chi2_cdf(0, 1.0)
    with pytest.raises(ValueError):
        chi2_cdf(4, -1.0)
    with pytest.raises(ValueError):
        chi2_cdf(4, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        chi2_cdf(4, math.nan)
    with pytest.raises(ValueError, match="x=nan"):
        chi2_cdf(4, np.array([1.0, np.nan]))


@pytest.mark.parametrize("a", [0.5, 2.0, 4.0, 100.0])
def test_infinite_x_gives_limits(a):
    """x = +inf returns the limit, as scipy does, with no floating-point
    warning, and so does x = 0 for ln P (−inf); an infinite shape of the
    incomplete beta is a domain error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mpmath.workdps(40):
            for x in (0.0, math.inf):
                p = mpmath.gammainc(a, 0, x, regularized=True)
                q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                assert reg_gamma(a, x) == (float(mpmath.log(p)), float(q))
        assert reg_gamma(a, 0.0) == (-math.inf, sp.gammaincc(a, 0.0)) == (-math.inf, 1.0)
        assert reg_gamma(a, math.inf) == (
            math.log(sp.gammainc(a, math.inf)), sp.gammaincc(a, math.inf)
        ) == (0.0, 0.0)
        k_dof = 2 * math.ceil(a)
        assert chi2_cdf(k_dof, math.inf) == scipy.stats.chi2.cdf(math.inf, k_dof) == 1.0
        np.testing.assert_array_equal(
            chi2_cdf(k_dof, np.array([0.0, math.inf])),
            scipy.stats.chi2.cdf([0.0, math.inf], k_dof),
        )
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, math.inf, 2.0)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 2.0, math.inf)

