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
fraction for the regularized incomplete gamma (switch at x = a+1);
Lentz-style continued fraction with the standard symmetry switch at
x > (a+1)/(a+b+2) for the incomplete beta; bracketed Newton iteration with
bisection fallback for its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Accuracy",
    "ln_gamma",
    "reg_upper_gamma",
    "ln_reg_lower_gamma",
    "beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chi2_cdf",
]


@dataclass(frozen=True)
class Accuracy:
    """Convergence budget for the iterative evaluations."""

    abs_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


_DEFAULT_ACC = Accuracy()

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


def _lower_gamma_series(a: float, x: float, acc: Accuracy) -> float:
    """Regularized lower incomplete gamma P(a,x) by power series; x < a+1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    n = a
    for _ in range(acc.max_iter):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * acc.abs_tol:
            break
    return total * math.exp(-x + a * math.log(x) - ln_gamma(a))


def _upper_gamma_cf(a: float, x: float, acc: Accuracy) -> float:
    """Regularized upper incomplete gamma Q(a,x) by continued fraction; x >= a+1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, acc.max_iter + 1):
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
        if abs(delta - 1.0) < acc.abs_tol:
            break
    return h * math.exp(-x + a * math.log(x) - ln_gamma(a))


def reg_upper_gamma(a: float, x: float, acc: Accuracy = _DEFAULT_ACC) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Γ(a,x)/Γ(a).

    Monotone nonincreasing in x, with Q(a,0) = 1.

    Raises:
        ValueError: if a <= 0 or x < 0.
    """
    if not a > 0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got a={a}")
    if x < 0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x, acc)
    return _upper_gamma_cf(a, x, acc)


def ln_reg_lower_gamma(a: float, x: float, acc: Accuracy = _DEFAULT_ACC) -> float:
    """log of the regularized lower incomplete gamma P(a, x).

    Stable deep in the left tail (x << a) where P underflows; used by the
    energy-detector formulas whose product terms are only finite jointly.
    """
    if not a > 0:
        raise ValueError(f"ln_reg_lower_gamma requires a > 0, got a={a}")
    if x < 0:
        raise ValueError(f"ln_reg_lower_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf
    if x >= a + 1.0:
        return math.log1p(-_upper_gamma_cf(a, x, acc))
    # series in log space: P = x^a e^-x / Gamma(a+1) * sum_n prod x/(a+k)
    term = 1.0
    total = 1.0
    n = a
    for _ in range(acc.max_iter):
        n += 1.0
        term *= x / n
        total += term
        if term < total * acc.abs_tol:
            break
    return a * math.log(x) - x - ln_gamma(a + 1.0) + math.log(total)


def beta(a: float, b: float) -> float:
    """Beta function B(a,b) = Γ(a)Γ(b)/Γ(a+b), for a, b > 0."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta requires a, b > 0, got a={a}, b={b}")
    return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))


def _beta_cf(x: float, a: float, b: float, acc: Accuracy) -> float:
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
    for m in range(1, acc.max_iter + 1):
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
        if abs(delta - 1.0) < acc.abs_tol:
            break
    return h


def reg_inc_beta(x: float, a: float, b: float, acc: Accuracy = _DEFAULT_ACC) -> float:
    """Regularized incomplete beta I_x(a, b) — the Beta(a,b) CDF at x.

    Raises:
        ValueError: if x outside [0,1] or a, b <= 0.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b, acc) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a, acc) / b


def inv_reg_inc_beta(y: float, a: float, b: float, acc: Accuracy = _DEFAULT_ACC) -> float:
    """Inverse of reg_inc_beta in x: returns x with I_x(a,b) = y.

    Bracketed Newton with bisection fallback; converges for all valid inputs.

    Raises:
        ValueError: on domain violations.
        RuntimeError: if the iteration fails to converge (reports the last
            bracket).
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"inv_reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if y < 0.0 or y > 1.0:
        raise ValueError(f"inv_reg_inc_beta requires 0 <= y <= 1, got y={y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    x = a / (a + b)  # mean of Beta(a,b) as the starting point
    ln_norm = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
    for _ in range(acc.max_iter):
        f = reg_inc_beta(x, a, b, acc) - y
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) < acc.abs_tol:
            return x
        # Newton step using the Beta density
        ln_pdf = ln_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        step = f * math.exp(-ln_pdf) if ln_pdf > -700 else math.inf
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < acc.abs_tol and abs(f) < math.sqrt(acc.abs_tol):
            return x_new
        x = x_new
    raise RuntimeError(
        f"inv_reg_inc_beta failed to converge for y={y}, a={a}, b={b}; "
        f"last bracket [{lo}, {hi}]"
    )


def chi2_cdf(k_dof: int, x: float, acc: Accuracy = _DEFAULT_ACC) -> float:
    """CDF of the chi-squared distribution with an even number of dof.

    Equals 1 - reg_upper_gamma(k_dof/2, x/2).

    Raises:
        ValueError: if k_dof is not an even integer >= 2, or x < 0.
    """
    if k_dof < 2 or k_dof % 2 != 0:
        raise ValueError(f"chi2_cdf requires even k_dof >= 2, got {k_dof}")
    if x < 0:
        raise ValueError(f"chi2_cdf requires x >= 0, got x={x}")
    return 1.0 - reg_upper_gamma(k_dof / 2.0, x / 2.0, acc)
