"""Exact coverage of a drop given its interferers, with the Gamma fades
integrated out through the Laplace transform of interference plus noise,
and the rate quantiles of a mixture of such drops.

A drop's interferers are given as weights: received power per unit fade.
Drops come in blocks, their weights one drop after another in one flat
array, with counts[i] weights for drop i; per-drop sums are segment sums
(np.add.reduceat), so one block is evaluated with a few array operations
whatever its number of drops.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple

import numpy as np

__all__ = ["ExactLink", "MixtureRates", "weight_blocks"]

# interferers per block: bounds the working set whatever the interferer
# count per drop
_BLOCK_INTERFERERS = 1 << 16
_LN2 = math.log(2.0)
# the rate-quantile solve: relative step at which it stops, the rate read as
# infinite (theta = 2^r − 1 over a link gain far below 1 must not overflow)
# and its iteration cap
_RATE_TOL = 1e-12
_MAX_RATE = 512.0
_MAX_SOLVER_STEPS = 200


def weight_blocks(
    draws: Iterable[tuple[np.ndarray, ...]],
    weights: Callable[..., np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(weights, counts) blocks of whole drops, in drop order. draws yields
    each drop's per-interferer arrays; weights maps a block's concatenated
    arrays to its weights. A block closes once it holds _BLOCK_INTERFERERS
    interferers."""
    pending: list[tuple[np.ndarray, ...]] = []
    size = 0
    for drop in draws:
        pending.append(drop)
        size += len(drop[0])
        if size >= _BLOCK_INTERFERERS:
            yield _block(pending, weights)
            pending, size = [], 0
    if pending:
        yield _block(pending, weights)


def _block(
    drops: list[tuple[np.ndarray, ...]], weights: Callable[..., np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    counts = np.array([len(drop[0]) for drop in drops])
    return weights(*map(np.concatenate, zip(*drops))), counts


def _per_drop_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum over each drop's run of values, drops one after another with
    counts[i] values each; 0 for a drop without interferers."""
    out = np.zeros(len(counts))
    nonempty = counts > 0
    out[nonempty] = np.add.reduceat(values, (np.cumsum(counts) - counts)[nonempty])
    return out


class ExactLink(NamedTuple):
    """What a drop's SINR needs besides its weights: received power per
    unit fade of the desired link and of the cross-tier link (0 when there
    is none), the noise power, and the Gamma shapes (m, u_x, u_k) of the
    desired power, the cross-tier power and each interferer's mark, which
    the exact coverage integrates over."""

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
        self, theta: float, weights: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """P(SINR ≥ theta | positions) of each drop of a block (theta > 0),
        and its derivative in theta; the block holds counts[i] weights of
        drop i, one drop after another.

        With s = theta/desired this is L(s)·Σ_{n<m} aₙ, L the Laplace
        transform of interference plus noise and aₙ = (−s)ⁿ L⁽ⁿ⁾(s)/(n! L(s))
        from the cumulant recursion aₙ = (1/n) Σ_{k=1..n} g_k aₙ₋ₖ, whose
        terms are all non-negative. One more step gives the derivative
        −(m/theta)·a_m·L(s). An infinite weight gives coverage 0.
        """
        m, cross_shape, mark_shape = self.shapes
        s = theta / self.desired
        sw = s * weights
        with np.errstate(divide="ignore"):  # zero weight -> 1/0 -> x = 0
            x = 1.0 / (1.0 + 1.0 / sw)
        y = s * self.cross / (1.0 + s * self.cross)
        ln_l = (
            -s * self.noise_w - cross_shape * math.log1p(s * self.cross)
            - mark_shape * _per_drop_sum(np.log1p(sw), counts)
        )
        a = [np.ones(len(counts))]
        g: list[np.ndarray] = []
        x_k = np.ones_like(x)
        for n in range(1, m + 1):
            x_k *= x
            g.append(
                cross_shape * y**n + mark_shape * _per_drop_sum(x_k, counts)
                + (s * self.noise_w if n == 1 else 0.0)
            )
            a.append(sum(g[k - 1] * a[n - k] for k in range(1, n + 1)) / n)
        laplace = np.exp(ln_l)
        return laplace * sum(a[:m]), -(m / theta) * a[m] * laplace


class MixtureRates:
    """The rate law of a run of drops, the mixture of their exact laws:
    F(r) = 1 − mean_i P_i(SINR ≥ 2^r − 1 | positions_i), over the run's
    (weights, counts) blocks."""

    def __init__(
        self, link: ExactLink, blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    ) -> None:
        self.link = link
        self.blocks = blocks

    def _mean_coverage(self, r: float) -> tuple[float, float]:
        # mean coverage at theta = 2^r - 1 and its derivative in r
        theta = math.expm1(r * _LN2)
        total = slope = 0.0
        n_drops = 0
        for weights, counts in self.blocks:
            cov, d_cov = self.link.coverage(theta, weights, counts)
            total += float(cov.sum())
            slope += float(d_cov.sum())
            n_drops += len(counts)
        return total / n_drops, slope / n_drops * _LN2 * (theta + 1.0)

    def quantile(self, u: float) -> float:
        """The smallest rate r with F(r) ≥ u: 0 up to the mass of the atom
        that co-located interferers put there, inf for u = 1 or beyond
        _MAX_RATE, else safeguarded Newton on a bracket F(lo) < u < F(hi),
        bisecting (doubling while hi is unknown) when a step leaves the
        bracket or fails to halve the step before last.

        Raises:
            RuntimeError: if the iteration does not converge.
        """
        atom = sum(
            int(np.count_nonzero(_per_drop_sum(np.isinf(w), c))) for w, c in self.blocks
        ) / sum(len(c) for _, c in self.blocks)
        if u <= atom:
            return 0.0
        if u >= 1.0:
            return math.inf
        lo, hi = 0.0, math.inf
        r, step, step_old = 1.0, math.inf, math.inf
        for _ in range(_MAX_SOLVER_STEPS):
            cov, d_cov = self._mean_coverage(r)
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

