"""Special-function kernel: gamma, incomplete gamma/beta, and the even-dof
chi-squared distribution built on them.

Every closed-form coverage expression in this package reduces to the
regularized incomplete beta function, its inverse, or the regularized upper
incomplete gamma function, so these are implemented here once, self-contained,
and kept pure. Degrees of freedom are restricted to even integers: the
network model only ever produces chi-squared variables with an integer
number of complex dimensions, which keeps every incomplete-gamma shape
parameter an integer, and every closed form calls the incomplete beta with
positive integer shapes.

Algorithms: `math.lgamma` for ln Γ; power series / continued fraction for
the regularized incomplete gamma (switch at x = a+1); the finite Poisson
sum for the even-dof chi-squared CDF, vectorised over x; Lentz-style
continued fraction with the standard symmetry switch at x > (a+1)/(a+b+2)
for the incomplete beta. `newton` is the one root finder: Newton steps from
a closed-form slope, kept inside a bracket by bisection. It inverts the
incomplete beta here, the energy detector's threshold and SNR in
`sensing`, and the exact rate CDF in `laplace`. The series and continued
fractions may take a number of steps that grows with √a, and raise when
they reach it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "reg_upper_gamma",
    "ln_reg_lower_gamma",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chi2_cdf",
]


# convergence budget of the iterative evaluations: the tolerance at which a
# series, continued fraction or Newton iteration stops, and its step cap
_ABS_TOL = 1e-10
_MAX_ITER = 200
# just below ln of the smallest positive double, 4.9e-324
_LN_TINY = -745.2


def _budget(a: float) -> int:
    # step cap of a series or continued fraction in shape a: near x = a
    # both need O(sqrt(a)) steps
    return _MAX_ITER + 10 * math.ceil(math.sqrt(a))


def newton(fn, x: float, lo: float, hi: float, tol: float) -> float:
    """Root of fn in [lo, hi] by Newton's method, starting at x.

    fn(x) returns (f, slope) with f increasing in x and changing sign in
    [lo, hi]. Each evaluation narrows the bracket; a step that would leave
    it, or an unusable slope, falls back to bisection. Stops once a step
    moves x by at most tol, and returns the stepped x.

    Raises:
        RuntimeError: if that takes more than _MAX_ITER evaluations
            (reports the last bracket).
    """
    for _ in range(_MAX_ITER):
        f, slope = fn(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - f / slope if slope > 0.0 else math.nan
        if not abs(x_new - x) <= tol and not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol:
            return x_new
        x = x_new
    raise RuntimeError(f"newton did not converge in {_MAX_ITER} steps; last bracket [{lo}, {hi}]")


def _lower_gamma_sum(a: float, x: float) -> float:
    """The sum S in the power series of the regularized lower incomplete
    gamma, P(a,x) = x^a e^-x / Γ(a+1) · S, S = Σ_n Π_{k<=n} x/(a+k);
    0 < x < a+1. It stops on a bound of its remainder, term·x/(n+1−x), as
    near x = a the terms shrink slowly."""
    term = total = 1.0
    n = a
    for _ in range(_budget(a)):
        n += 1.0
        term *= x / n
        total += term
        if term * x / (n + 1.0 - x) < total * _ABS_TOL:
            return total
    raise RuntimeError(f"gamma series did not converge in {_budget(a)} steps at a={a}, x={x}")


def _ln_lower_gamma_series(a: float, x: float) -> float:
    """log of P(a,x) by its power series (_lower_gamma_sum), 0 < x < a+1.
    At a = 10⁶ the error left, about 10⁻⁹ relative, is the cancellation in
    the prefactor, not the tail."""
    return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(_lower_gamma_sum(a, x))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a,x) by continued fraction; x >= a+1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _budget(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _ABS_TOL:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"gamma fraction did not converge in {_budget(a)} steps at a={a}, x={x}")


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Γ(a,x)/Γ(a).

    Monotone nonincreasing in x, with Q(a,0) = 1 and Q(a,inf) = 0.

    Raises:
        ValueError: if a <= 0 or x < 0.
    """
    if not a > 0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got a={a}")
    if not x >= 0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a + 1.0:
        return -math.expm1(_ln_lower_gamma_series(a, x))
    return _upper_gamma_cf(a, x)


def ln_reg_lower_gamma(a: float, x: float) -> float:
    """log of the regularized lower incomplete gamma P(a, x).

    Stable deep in the left tail (x << a) where P underflows; used by the
    energy-detector formulas whose product terms are only finite jointly.
    ln P(a,0) = -inf and ln P(a,inf) = 0.
    """
    if not a > 0:
        raise ValueError(f"ln_reg_lower_gamma requires a > 0, got a={a}")
    if not x >= 0:
        raise ValueError(f"ln_reg_lower_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf
    if x == math.inf:
        return 0.0
    if x >= a + 1.0:
        return math.log1p(-_upper_gamma_cf(a, x))
    return _ln_lower_gamma_series(a, x)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _budget(max(a, b)) + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _ABS_TOL:
            return h
    raise RuntimeError(
        f"beta fraction did not converge in {_budget(max(a, b))} steps at x={x}, a={a}, b={b}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) — the Beta(a,b) CDF at x.

    Raises:
        ValueError: if x outside [0,1], or a, b not positive and finite.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


@functools.cache
def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta in x: returns x with I_x(a,b) = y, to a
    relative step of 1e-10.

    Newton on ln I_x against ln x, which is nearly linear in the lower tail
    (I_x ~ x^a), from the mean. A root above 1/2 with y > 1/2, where 1 − y
    is exact, is found as 1 − x from I_{1−x}(b, a) = 1 − y, so that the
    step is relative to 1 − x there. Memoised: the closed forms invert at
    (ε or a window's ε_eff, antenna counts), which a sweep over D repeats.

    Raises:
        ValueError: on domain violations.
        RuntimeError: if the iteration fails to converge (reports the last
            bracket).
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"inv_reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"inv_reg_inc_beta requires 0 <= y <= 1, got y={y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    flip = y > 0.5 and reg_inc_beta(0.5, a, b) < y
    if flip:
        y, a, b = 1.0 - y, b, a
    ln_y = math.log(y)
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def fn(t: float) -> tuple[float, float]:
        # ln I_x − ln y and its slope x·pdf(x)/I_x in t = ln x
        x = math.exp(t)
        i = reg_inc_beta(x, a, b)
        if i == 0.0:  # underflow, far below the root
            return -math.inf, 0.0
        ln_pdf_x = ln_norm + a * t + (b - 1.0) * math.log1p(-x)
        return math.log(i) - ln_y, math.exp(ln_pdf_x) / i

    x = math.exp(newton(fn, math.log(a / (a + b)), _LN_TINY, 0.0, _ABS_TOL))
    return 1.0 - x if flip else x


def chi2_cdf(k_dof: int, x):
    """CDF of the chi-squared distribution with an even number of dof, at a
    scalar or an array x; a scalar returns a float, an array an array.

    With v = x/2 and k = k_dof/2 it is the finite Poisson sum
    1 − Σ_{n<k} e^{−v} vⁿ/n!, whose terms are formed in log space so that
    neither e^{−v} nor vⁿ over- or underflows on its own. Equals
    1 − reg_upper_gamma(k_dof/2, x/2); 1 at x = inf.

    Raises:
        ValueError: if k_dof is not an even integer >= 2, or any x is negative
            or NaN.
    """
    if k_dof < 2 or k_dof % 2 != 0:
        raise ValueError(f"chi2_cdf requires even k_dof >= 2, got {k_dof}")
    v = np.asarray(x, dtype=float) / 2.0
    bad = 2.0 * v[~(v >= 0)]
    if bad.size:
        raise ValueError(f"chi2_cdf requires x >= 0, got x={bad[0]}")
    # v = 0: every n >= 1 term is exp(-inf) = 0; v = inf: inf - inf is NaN,
    # replaced by the limit below
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_v = np.log(v)
        tail = np.exp(-v)
        for n in range(1, k_dof // 2):
            tail += np.exp(n * ln_v - v - math.lgamma(n + 1))
    cdf = np.where(v == math.inf, 1.0, 1.0 - tail)
    return float(cdf) if np.ndim(x) == 0 else cdf
