"""Exact mean coverage over a Poisson field of femtocells, with the Gamma
fades integrated out through the Laplace transform of interference plus
noise and the field through its probability generating functional (PGFL),
and the rate quantiles of that law.

The field is given at quadrature nodes of its disc: the interference
weight at each node (received power per unit fade of a femtocell there)
and the node's mass (field density × the node's area).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .specfun import newton

__all__ = ["ExactLink", "MixtureRates"]

_LN2 = math.log(2.0)
# the rate-quantile solve (specfun.newton): the step at which it stops, and
# the top of its bracket, beyond which a rate reads as infinite (theta =
# 2^r − 1 over a link gain far below 1 must not overflow)
_RATE_TOL = 1e-12
_MAX_RATE = 512.0


class ExactLink(NamedTuple):
    """What the SINR needs besides the interferer weights: received power
    per unit fade of the desired link and of the cross-tier link (0 when
    there is none), the noise power, and the Gamma shapes (m, u_x, u_k) of
    the desired power, the cross-tier power and each interferer's mark,
    which the exact coverage integrates over."""

    desired: float
    cross: float
    noise_w: float
    shapes: tuple[int, int, int]

    def sinr(
        self, desired: np.ndarray, cross: np.ndarray, marks: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """SINR of n sampled fades of one drop: desired and cross-tier
        powers (n,) and marks (n, k) per unit fade, against the drop's k
        weights. No interferers (an (n, 0) @ (0,) sum of 0) and no noise
        give an infinite SINR."""
        with np.errstate(divide="ignore"):
            return self.desired * desired / (
                (self.cross * cross + marks @ weights) + self.noise_w
            )

    def coverage(
        self, theta: float, weights: np.ndarray, mass: np.ndarray
    ) -> tuple[float, float]:
        """P(SINR ≥ theta) averaged over the fades and the Poisson field
        (theta > 0), and its derivative in theta; the field has mass[j] at
        the node of weight weights[j].

        With s = theta/desired this is Λ(s)·Σ_{n<m} aₙ, Λ the Laplace
        transform of interference plus noise averaged over the field,
        ln Λ(s) = −sN − u_x·ln(1+sc) − Σⱼ massⱼ·[1 − (1+s·wⱼ)^(−u_k)], and
        aₙ = (−s)ⁿ Λ⁽ⁿ⁾(s)/(n! Λ(s)) from the cumulant recursion
        aₙ = (1/n) Σ_{k=1..n} g_k aₙ₋ₖ with g_k = u_x·yᵏ + [k=1]·sN
        + k·C(u_k+k−1, k)·Σⱼ massⱼ·xⱼᵏ·(1+s·wⱼ)^(−u_k), x = sw/(1+sw) and
        y = sc/(1+sc); every term is non-negative. One more step gives the
        derivative −(m/theta)·a_m·Λ(s).

        The mark shape u_k is a positive integer, so the field's terms need
        no logarithm or exponential: with one reciprocal r = 1/(1+sw) per
        node and x = sw·r, 1 − (1+sw)^(−u_k) = x·Σ_{j<u_k} (1+sw)^(−j)
        = x·Σ_{j<u_k} rʲ, whose terms are non-negative, and
        (1+sw)^(−u_k) = r^u_k, both built by multiplication. Where s·w
        overflows, r = 0 and x = 1. At s = ∞ the coverage is P(SINR = ∞):
        1 with no noise, no cross-tier power and no field mass, else 0, and
        its derivative 0.
        """
        m, cross_shape, mark_shape = self.shapes
        s = theta / self.desired
        if s == math.inf:
            # −s·N and u_x·ln(1+sc) would read inf·0 = NaN at N = 0 or c = 0
            return float(not (self.noise_w or self.cross or mass.any())), 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # where s·w overflows, sw·r reads inf·0 = NaN, and fmin takes 1;
            # r and x reuse the buffers of 1 + sw and sw
            sw = s * weights
            r = sw + 1.0
            np.reciprocal(r, out=r)
            x = np.fmin(np.multiply(sw, r, out=sw), 1.0, out=sw)
        # lost = x·Σ_{j<u_k} rʲ by Horner, survive = r^u_k
        lost, survive = x, r
        for _ in range(mark_shape - 1):
            lost = x + r * lost
            survive = survive * r
        # numpy's own sum, not a 1-D @: BLAS splits that over threads above
        # 10⁴ elements, and waking them can cost milliseconds per call
        ln_l = (
            -s * self.noise_w - cross_shape * math.log1p(s * self.cross)
            - float((mass * lost).sum())
        )
        laplace = math.exp(ln_l)
        if laplace == 0.0:
            # ln Λ is convex with ln Λ(0) = 0, so each term aₙ·Λ is at most
            # (2n/e)ⁿ·Λ^(1/2)/n! < 2ⁿ·10⁻¹⁶¹: 0 to within 10⁻¹⁵⁰ for m ≤ 8,
            # where summing would multiply 0 by an aₙ that has overflowed
            return 0.0, 0.0
        y = s * self.cross / (1.0 + s * self.cross)
        a = [1.0]
        g: list[float] = []
        field = mass * survive  # massⱼ·xⱼᵏ·(1+s·wⱼ)^(−u_k), k = 0
        for n in range(1, m + 1):
            field *= x
            g.append(
                cross_shape * y**n + n * math.comb(mark_shape + n - 1, n) * float(field.sum())
                + (s * self.noise_w if n == 1 else 0.0)
            )
            a.append(sum(g[k - 1] * a[n - k] for k in range(1, n + 1)) / n)
        return laplace * sum(a[:m]), -(m / theta) * a[m] * laplace


class MixtureRates(NamedTuple):
    """The rate law of the population of drops, the mixture of their exact
    laws: F(r) = 1 − P(SINR ≥ 2^r − 1) averaged over the field, which has
    mass[j] at the node of weight weights[j]."""

    link: ExactLink
    weights: np.ndarray
    mass: np.ndarray

    def quantiles(self, us: list[float]) -> list[float]:
        """The smallest rates r with F(r) ≥ u, in the order of us: 0 for
        u = 0, inf for u = 1 or beyond _MAX_RATE, else `newton` on
        [0, _MAX_RATE]. The distinct u are solved in increasing order, each
        starting at the root below it, which is also the bracket's lower
        end (the first starts at r = 1)."""
        roots: dict[float, float] = {}
        r = 0.0
        for u in sorted(set(us)):
            r = roots[u] = self._solve(u, r)
        return [roots[u] for u in us]

    def _solve(self, u: float, lo: float) -> float:
        # the root of F(r) − u above lo, with F(lo) ≤ u
        if u <= 0.0:
            return 0.0
        if u >= 1.0 or lo == math.inf:
            return math.inf

        def fn(r: float) -> tuple[float, float]:
            theta = math.expm1(r * _LN2)
            cov, d_cov = self.link.coverage(theta, self.weights, self.mass)
            return (1.0 - u) - cov, -d_cov * _LN2 * (theta + 1.0)

        r = newton(fn, lo if lo > 0.0 else 1.0, lo, _MAX_RATE, _RATE_TOL)
        # F < u on the whole bracket: newton closes in on its top
        return r if r < _MAX_RATE - _RATE_TOL else math.inf
