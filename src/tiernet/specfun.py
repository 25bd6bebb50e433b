"""Special-function kernel: gamma, incomplete gamma/beta, and the even-dof
chi-squared distribution built on them.

Every closed-form coverage expression in this package reduces to the
regularized incomplete beta function, its inverse, or a tail of the
regularized incomplete gamma function, so these are implemented here once,
self-contained, and kept pure. Degrees of freedom are restricted to even
integers: the network model only ever produces chi-squared variables with
an integer number of complex dimensions, which keeps every incomplete-gamma
shape parameter an integer, and every closed form calls the incomplete beta
with positive integer shapes.

Algorithms: `math.lgamma` for ln Γ. `reg_gamma` returns both tails of the
regularized incomplete gamma, ln P and Q, from one choice of algorithm:
Temme's uniform expansion (DLMF 8.12.3) inside the window a >= 50,
|x − a| <= 0.3·a: a few microseconds at any a, and within 2·10⁻¹⁵ of
mpmath for (x − a)/√a in [−3, 5]. Elsewhere, and for ln P where the lower
tail underflows, it is the power series or continued fraction (switch at
x = a+1). The incomplete beta is a continued fraction with the standard
symmetry switch at x > (a+1)/(a+b+2); both fractions run on one Lentz
kernel. The finite Poisson sum gives the even-dof chi-squared CDF,
vectorised over x with numpy, which it alone imports, and only when
called. `newton` is the one root finder: Newton steps from a closed-form
slope, kept inside a bracket by bisection. It inverts the incomplete beta
here, the energy detector's threshold and SNR in `sensing`, and the exact
rate CDF in `laplace`. The series and continued fractions may take a number of steps
that grows with √a, and raise when they reach it; the expansion has no
loop to cap, as its table is fixed.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "reg_gamma",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "chi2_cdf",
    "newton",
]


# convergence budget of the iterative evaluations: the tolerance at which a
# series, continued fraction or Newton iteration stops, and its step cap
_ABS_TOL = 1e-10
_MAX_ITER = 200
# what a continued fraction's Lentz ratios are held off zero at
_TINY = 1e-300
# just below ln of the smallest positive double, 4.9e-324
_LN_TINY = -745.2


# Temme's uniform expansion of the incomplete gamma (DLMF 8.12.3, 8.12.12):
# row k of _TEMME_D holds d_{k,0..}, the power series in η of C_k(η), from
# the reversion of η²/2 = λ − 1 − ln λ and d_{k,n} = (−1)^k·g_k·d_{0,n} +
# (n+2)·d_{k−1,n+2}, g_k the Stirling coefficients. Each row stops where
# its terms fall below 10⁻¹⁷ at the window's widest point, a = 50 and
# |η| = 0.34 (x = 0.7·a); rows 0 and 1 are those of cephes igam.h.
_TEMME_D = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
     -1.8329116582843375e-05),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731),
)


def _budget(a: float) -> int:
    # step cap of a series or continued fraction in shape a: near x = a
    # both need O(sqrt(a)) steps
    return _MAX_ITER + 10 * math.ceil(math.sqrt(a))


def newton(fn, x: float, lo: float, hi: float, tol: float) -> float:
    """Root of fn in [lo, hi] by Newton's method, starting at x.

    fn(x) returns (f, slope) with f increasing in x and changing sign in
    [lo, hi]. Each evaluation narrows the bracket; a step that would leave
    it, or an unusable slope, falls back to bisection. Stops once a step
    moves x by at most tol, and returns the stepped x clamped into [lo, hi].

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
            return min(max(x_new, lo), hi)
        x = x_new
    raise RuntimeError(f"newton did not converge in {_MAX_ITER} steps; last bracket [{lo}, {hi}]")


def _continued_fraction(d: float, c: float, step, budget: int) -> float:
    """Modified Lentz evaluation of a continued fraction (Thompson & Barnett,
    J. Comput. Phys. 64, 1986) from h = d and c. step(i) gives step i's
    (a, b) terms; each sets d ← 1/(a·d + b) and c ← b + a/c, both held off
    zero at _TINY, and h ← h·d·c. Returns h once a step's last term moves it
    by a factor within _ABS_TOL of 1; raises RuntimeError, naming the count,
    after budget steps."""
    h = d
    for i in range(1, budget + 1):
        for an, bn in step(i):
            d = an * d + bn
            if abs(d) < _TINY:
                d = _TINY
            c = bn + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _ABS_TOL:
            return h
    raise RuntimeError(f"continued fraction did not converge in {budget} steps")


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
    b = x + 1.0 - a

    def step(i: int) -> tuple:
        nonlocal b
        b += 2.0  # kept running: x + 1 − a + 2i can differ in the last bit
        return ((-i * (i - a), b),)

    try:
        h = _continued_fraction(1.0 / b, 1.0 / _TINY, step, _budget(a))
    except RuntimeError as exc:
        raise RuntimeError(f"gamma {exc} at a={a}, x={x}") from None
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _log1pmx(s: float) -> float:
    # ln(1+s) − s for |s| <= 0.3 without cancellation: with r = s/(2+s),
    # ln(1+s) = 2·Σ r^(2j+1)/(2j+1) and s − 2r = s·r
    r = s / (2.0 + s)
    r2 = r * r
    odd = 0.0
    for c in (1 / 21, 1 / 19, 1 / 17, 1 / 15, 1 / 13, 1 / 11, 1 / 9, 1 / 7, 1 / 5, 1 / 3):
        odd = odd * r2 + c
    return r * (2.0 * r2 * odd - s)


def _temme_tail(a: float, x: float) -> float:
    """The smaller tail in the window, Q(a,x) for x >= a and P(a,x) below:
    ½·erfc(|η|·√(a/2)) ± e^(−aη²/2)·Σ_k C_k(η)·a^(−k)/√(2πa), the sign
    that of x − a. Row k is of order 10⁻³·a^(−k) and η-power n of order
    (|η|/2√π)ⁿ; the sum keeps those above about 3·10⁻¹⁷ (5 rows at
    a = 10³, 9 powers at |η| = 0.045)."""
    s = (x - a) / a
    ln_ratio = _log1pmx(s)  # −η²/2
    eta = math.copysign(math.sqrt(-2.0 * ln_ratio), s)
    rows = _TEMME_D[: math.ceil(32.0 / math.log(a))]
    powers = math.ceil(38.0 / math.log(3.55 / max(abs(eta), 1e-300)))
    total = 0.0
    for row in reversed(rows):
        c_k = 0.0
        for d in reversed(row[:powers]):
            c_k = c_k * eta + d
        total = total / a + c_k
    correction = math.exp(a * ln_ratio) * total / math.sqrt(2.0 * math.pi * a)
    half_erfc = 0.5 * math.erfc(math.sqrt(-a * ln_ratio))
    return half_erfc + correction if s >= 0.0 else half_erfc - correction


def _in_temme_window(a: float, x: float) -> bool:
    return a >= 50.0 and abs(x - a) <= 0.3 * a


def reg_gamma(a: float, x: float) -> tuple[float, float]:
    """Both tails of the regularized incomplete gamma, (ln P(a, x), Q(a, x)):
    P = γ(a,x)/Γ(a) and Q = 1 − P = Γ(a,x)/Γ(a), the other tail derived
    from the one evaluated. ln P stays finite deep in the left tail, where
    P underflows (the energy detector's product terms are only finite
    jointly); there Q reads 1. reg_gamma(a, 0) = (−inf, 1) and
    reg_gamma(a, inf) = (0, 0).

    Raises:
        ValueError: if a is not positive and finite, or x < 0.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"reg_gamma requires finite a > 0, got a={a}")
    if not x >= 0:
        raise ValueError(f"reg_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf, 1.0
    if x == math.inf:
        return 0.0, 0.0
    if _in_temme_window(a, x):
        tail = _temme_tail(a, x)
        if x >= a:
            return math.log1p(-tail), tail
        if tail > 1e-300:
            return math.log(tail), 1.0 - tail
        # the lower tail near underflow: ln P by the series
        return _ln_lower_gamma_series(a, x), 1.0
    if x < a + 1.0:
        ln_p = _ln_lower_gamma_series(a, x)
        return ln_p, -math.expm1(ln_p)
    q = _upper_gamma_cf(a, x)
    return math.log1p(-q), q


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta, two terms a step."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY

    def step(m: int) -> tuple:
        m2 = 2 * m
        return ((m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0),
                (-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0))

    try:
        return _continued_fraction(1.0 / d, 1.0, step, _budget(max(a, b)))
    except RuntimeError as exc:
        raise RuntimeError(f"beta {exc} at x={x}, a={a}, b={b}") from None


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
    1 − Q(k_dof/2, x/2) of reg_gamma; 1 at x = inf.

    Raises:
        ValueError: if k_dof is not an even integer >= 2, or any x is negative
            or NaN.
    """
    import numpy as np  # here, not at the top: the scalar special functions need only math
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
