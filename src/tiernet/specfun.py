"""Special-function kernel: gamma, incomplete gamma/beta, and the even-dof
chi-squared distribution built on them.

Every closed-form coverage expression in this package reduces to the
regularized incomplete beta function, its inverse, or the regularized upper
incomplete gamma function, so these are implemented here once, self-contained,
and kept pure. Degrees of freedom are restricted to even integers: the
network model only ever produces chi-squared variables with an integer
number of complex dimensions, which keeps every incomplete-gamma shape
parameter an integer and every beta parameter a positive integer or an
integer minus delta in (0,1).

Algorithms: Lanczos approximation for ln Γ; power series / continued
fraction for the regularized incomplete gamma (switch at x = a+1); the
finite Poisson sum for the even-dof chi-squared CDF, vectorised over x;
Lentz-style continued fraction with the standard symmetry switch at
x > (a+1)/(a+b+2) for the incomplete beta; bracketed Newton iteration with
bisection fallback for its inverse. The series and continued fractions may
take a number of steps that grows with √a, and raise when they reach it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "reg_upper_gamma",
    "ln_reg_lower_gamma",
    "beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chi2_cdf",
]


# convergence budget of the iterative evaluations: the tolerance at which a
# series, continued fraction or Newton iteration stops, and its step cap
_ABS_TOL = 1e-10
_MAX_ITER = 200


def _budget(a: float) -> int:
    # step cap of a series or continued fraction in shape a: near x = a
    # both need O(sqrt(a)) steps
    return _MAX_ITER + 10 * math.ceil(math.sqrt(a))


# Lanczos coefficients (g=7, n=9), good to ~1e-15 relative over the
# positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Raises:
        ValueError: if x <= 0.
    """
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    s = _LANCZOS_COEF[0]
    for i in range(1, 9):
        s += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(s)


def _ln_lower_gamma_series(a: float, x: float) -> float:
    """log of the regularized lower incomplete gamma P(a,x) by power series,
    P = x^a e^-x / Γ(a+1) · Σ_n Π_{k<=n} x/(a+k); 0 < x < a+1."""
    term = total = 1.0
    n = a
    for _ in range(_budget(a)):
        n += 1.0
        term *= x / n
        total += term
        if term < total * _ABS_TOL:
            return a * math.log(x) - x - ln_gamma(a + 1.0) + math.log(total)
    raise RuntimeError(f"gamma series did not converge in {_budget(a)} steps at a={a}, x={x}")


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
            return h * math.exp(-x + a * math.log(x) - ln_gamma(a))
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


def beta(a: float, b: float) -> float:
    """Beta function B(a,b) = Γ(a)Γ(b)/Γ(a+b), for a, b > 0."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta requires a, b > 0, got a={a}, b={b}")
    return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))


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
    ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta in x: returns x with I_x(a,b) = y.

    Bracketed Newton with bisection fallback; converges for all valid inputs.

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
    lo, hi = 0.0, 1.0
    x = a / (a + b)  # mean of Beta(a,b) as the starting point
    ln_norm = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
    for _ in range(_MAX_ITER):
        f = reg_inc_beta(x, a, b) - y
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) < _ABS_TOL:
            return x
        # Newton step using the Beta density
        ln_pdf = ln_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        step = f * math.exp(-ln_pdf) if ln_pdf > -700 else math.inf
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < _ABS_TOL and abs(f) < math.sqrt(_ABS_TOL):
            return x_new
        x = x_new
    raise RuntimeError(
        f"inv_reg_inc_beta failed to converge for y={y}, a={a}, b={b}; "
        f"last bracket [{lo}, {hi}]"
    )


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
