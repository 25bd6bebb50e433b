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

__all__ = ["ExactLink", "MixtureRates"]

_LN2 = math.log(2.0)
# the rate-quantile solve: relative step at which it stops, the rate read as
# infinite (theta = 2^r − 1 over a link gain far below 1 must not overflow)
# and its iteration cap
_RATE_TOL = 1e-12
_MAX_RATE = 512.0
_MAX_SOLVER_STEPS = 200


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
        """
        m, cross_shape, mark_shape = self.shapes
        s = theta / self.desired
        sw = s * weights
        x = sw / (1.0 + sw)
        ln_survive = -mark_shape * np.log1p(sw)  # ln (1+sw)^(−u_k)
        y = s * self.cross / (1.0 + s * self.cross)
        ln_l = (
            -s * self.noise_w - cross_shape * math.log1p(s * self.cross)
            + float(mass @ np.expm1(ln_survive))
        )
        a = [1.0]
        g: list[float] = []
        field = mass * np.exp(ln_survive)  # massⱼ·xⱼᵏ·(1+s·wⱼ)^(−u_k), k = 0
        for n in range(1, m + 1):
            field *= x
            g.append(
                cross_shape * y**n + n * math.comb(mark_shape + n - 1, n) * float(field.sum())
                + (s * self.noise_w if n == 1 else 0.0)
            )
            a.append(sum(g[k - 1] * a[n - k] for k in range(1, n + 1)) / n)
        laplace = math.exp(ln_l)
        return laplace * sum(a[:m]), -(m / theta) * a[m] * laplace


class MixtureRates(NamedTuple):
    """The rate law of the population of drops, the mixture of their exact
    laws: F(r) = 1 − P(SINR ≥ 2^r − 1) averaged over the field, which has
    mass[j] at the node of weight weights[j]."""

    link: ExactLink
    weights: np.ndarray
    mass: np.ndarray

    def quantile(self, u: float) -> float:
        """The smallest rate r with F(r) ≥ u: 0 for u = 0, inf for u = 1 or
        beyond _MAX_RATE, else safeguarded Newton on a bracket
        F(lo) < u < F(hi), bisecting (doubling while hi is unknown) when a
        step leaves the bracket or fails to halve the step before last.

        Raises:
            RuntimeError: if the iteration does not converge.
        """
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return math.inf
        lo, hi = 0.0, math.inf
        r, step, step_old = 1.0, math.inf, math.inf
        for _ in range(_MAX_SOLVER_STEPS):
            theta = math.expm1(r * _LN2)
            cov, d_cov = self.link.coverage(theta, self.weights, self.mass)
            d_cov *= _LN2 * (theta + 1.0)  # d(coverage)/dr
            f = (1.0 - u) - cov  # increasing in r, F(r) − u
            if f < 0.0:
                lo = r
            else:
                hi = r
            newton = f / d_cov if d_cov < 0.0 else math.inf  # -f / (dF/dr)
            if abs(newton) <= _RATE_TOL * (1.0 + r):
                return r + newton
            # with no upper end yet, no step goes beyond r -> 2r + 1
            if lo < r + newton < min(hi, 2.0 * r + 1.0) and abs(newton) < 0.5 * abs(step_old):
                step_old, step = step, newton
            elif hi < math.inf:
                step_old, step = step, 0.5 * (lo + hi) - r
            else:
                step_old, step = step, r + 1.0
            r += step
            if abs(step) <= _RATE_TOL * (1.0 + r):
                return r
            if r > _MAX_RATE:
                return math.inf
        raise RuntimeError(f"rate quantile at u={u} did not converge; bracket [{lo}, {hi}]")
