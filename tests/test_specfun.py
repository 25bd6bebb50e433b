"""Special-function kernel vs. scipy oracles and analytic identities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tiernet import specfun
from tiernet.specfun import (
    beta,
    chi2_cdf,
    inv_reg_inc_beta,
    ln_gamma,
    ln_reg_lower_gamma,
    reg_inc_beta,
    reg_upper_gamma,
)

GAMMA_GRID_A = [0.5, 1.0, 1.5, 2.0, 3.5, 5.0, 10.0, 100.0, 500.0, 999.5, 1000.0]
GAMMA_GRID_X = [0.0, 0.05, 0.7, 1.0, 4.0, 30.0, 450.0, 950.0, 1200.0]


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.7, 10.0, 171.0, 1000.0, 1e5])
def test_ln_gamma_matches_scipy(x):
    assert ln_gamma(x) == pytest.approx(sp.gammaln(x), rel=1e-13)


@pytest.mark.parametrize("a", GAMMA_GRID_A)
@pytest.mark.parametrize("x", GAMMA_GRID_X)
def test_reg_upper_gamma_matches_scipy(a, x):
    assert reg_upper_gamma(a, x) == pytest.approx(sp.gammaincc(a, x), rel=2e-9, abs=1e-290)


@pytest.mark.parametrize("a", GAMMA_GRID_A)
@pytest.mark.parametrize("x", [0.05, 0.7, 1.0, 4.0, 30.0, 450.0, 950.0])
def test_ln_reg_lower_gamma_matches_scipy(a, x):
    ref = sp.gammainc(a, x)
    if ref > 1e-290:  # scipy underflows below this; the log form does not
        assert ln_reg_lower_gamma(a, x) == pytest.approx(math.log(ref), rel=1e-9, abs=1e-9)


LARGE_SHAPE_POINTS = [
    (a, x)
    for a in (4000.0, 1e4, 4e4)
    for x in (0.95 * a, a, a + 1.0, a + math.sqrt(a))
]


@pytest.mark.parametrize(("a", "x"), LARGE_SHAPE_POINTS)
def test_large_shape_gamma_matches_scipy(a, x):
    """Near x = a the series and the continued fraction need O(sqrt(a))
    steps, more than the base cap of 200 once a reaches a few thousand."""
    assert reg_upper_gamma(a, x) == pytest.approx(sp.gammaincc(a, x), rel=1e-8)
    assert ln_reg_lower_gamma(a, x) == pytest.approx(math.log(sp.gammainc(a, x)), abs=1e-8)


@pytest.mark.parametrize("a", [4000.0, 4e4])
@pytest.mark.parametrize("dx", [-1.0, 0.0, 0.5])
def test_gamma_series_remainder_near_x_equals_a(a, dx):
    """Near x = a the series' terms shrink slowly, so the sum stops on a
    bound of its remainder rather than on its last term."""
    x = a + dx
    assert reg_upper_gamma(a, x) == pytest.approx(sp.gammaincc(a, x), rel=2e-10)


@pytest.mark.parametrize(
    "call",
    [
        lambda: reg_upper_gamma(100.0, 90.0),  # series
        lambda: reg_upper_gamma(100.0, 120.0),  # continued fraction
        lambda: ln_reg_lower_gamma(100.0, 90.0),  # log-space series
        lambda: reg_inc_beta(0.4, 50.0, 60.0),  # beta continued fraction
    ],
    ids=["series", "cf", "log-series", "beta-cf"],
)
def test_iteration_cap_raises(monkeypatch, call):
    monkeypatch.setattr(specfun, "_budget", lambda a: 3)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        call()


def test_ln_reg_lower_gamma_deep_tail_finite():
    # far left tail: P(1000, 100) ~ 1e-600, well past double underflow
    val = ln_reg_lower_gamma(1000.0, 100.0)
    assert math.isfinite(val)
    assert val < -700.0
    # cross-check against the log-space series written out longhand
    direct = 1000.0 * math.log(100.0) - 100.0 - sp.gammaln(1001.0)
    assert val == pytest.approx(direct, abs=1.0)


@pytest.mark.parametrize(
    ("a", "x"), [(-1.0, 1.0), (0.0, 1.0), (2.0, -0.5), (2.0, math.nan), (math.nan, 1.0)]
)
def test_gamma_domain_errors(a, x):
    with pytest.raises(ValueError):
        reg_upper_gamma(a, x)
    with pytest.raises(ValueError):
        ln_reg_lower_gamma(a, x)


def test_beta_matches_scipy():
    for a, b in [(1, 1), (2, 3), (0.5, 0.5), (7, 1), (12.5, 3.25)]:
        assert beta(a, b) == pytest.approx(sp.beta(a, b), rel=1e-12)


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


def test_inv_reg_inc_beta_edges_and_errors():
    assert inv_reg_inc_beta(0.0, 3, 2) == 0.0
    assert inv_reg_inc_beta(1.0, 3, 2) == 1.0
    with pytest.raises(ValueError):
        inv_reg_inc_beta(-0.1, 3, 2)
    with pytest.raises(ValueError):
        inv_reg_inc_beta(1.1, 3, 2)
    with pytest.raises(ValueError, match="y=nan"):
        inv_reg_inc_beta(math.nan, 3, 2)
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
    warning; an infinite shape of the incomplete beta is a domain error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reg_upper_gamma(a, math.inf) == sp.gammaincc(a, math.inf) == 0.0
        assert ln_reg_lower_gamma(a, math.inf) == math.log(sp.gammainc(a, math.inf)) == 0.0
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

