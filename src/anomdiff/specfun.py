"""Special functions used by every other module.

Gamma/Beta wrappers, the two-parameter Mittag-Leffler function, the Wright
function, Bessel J/I/K and zeros of J.  All arguments and results are real;
complex arguments are out of scope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "MLParams",
    "gamma_fn",
    "beta_fn",
    "mittag_leffler",
    "wright_w",
    "bessel_j",
    "bessel_i",
    "bessel_k",
    "bessel_j_zeros",
]


class _LazySpecial:
    """scipy.special, imported at the first attribute read.

    Every module of the package reaches scipy.special through the one
    instance `sp`, so `import anomdiff` loads no SciPy.  Each attribute is
    cached on the instance, so later reads are plain instance lookups.
    """

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


sp = _LazySpecial()

_EPS = np.finfo(float).eps
_LOG_MAX = math.log(sys.float_info.max)
# z^(1/alpha) from which E_{alpha,beta}(z), z > 0, is taken from its
# exponential asymptotic, once it is also at least 2 beta.  There the
# asymptotic is as accurate as the series (2e-13 against mpmath for alpha in
# [0.05, 1] and beta in [-2, 100]), which runs out of its 2000 terms near
# z^(1/alpha) = 100 at alpha = 0.1 and 400 at alpha = 1/2.  Below 2 beta the
# algebraic part cancels the exponential term.
_ML_EXP_ROOT = 50.0


@dataclass(frozen=True)
class MLParams:
    """Index pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x < 0.5 and abs(x - round(x)) <= tol * max(1.0, abs(x))


def gamma_fn(x: float) -> float:
    """Gamma function on the real line; poles at 0, -1, -2, ... are rejected."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return float(sp.gamma(x))


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    for arg in (a, b, a + b):
        if _is_nonpositive_integer(arg):
            raise PoleError(f"beta pole at ({a}, {b})")
    return float(sp.beta(a, b))


def _series(alpha: float, beta: float, z: float, factorial: bool) -> float:
    """sum_{k>=0} z^k / ([k!] Gamma(alpha*k + beta)), the k! only if `factorial`.

    Summation stops once terms have passed their peak and two in a row are
    at most 1e-16 of the partial sum; a peak term whose round-off floor
    exceeds 1e-6 max(1, |sum|) means the sum has cancelled away and raises
    ConvergenceError.
    """
    logz = math.log(abs(z))
    acc = 0.0
    peak = 0.0
    falling = False
    small = 0
    for k in range(2000):
        arg = alpha * k + beta
        rg = float(sp.rgamma(arg))
        if rg == 0.0 and arg <= 0.0:  # 1/Gamma vanishes at the poles of Gamma
            term = 0.0
            mag = 0.0
        else:
            # past arg ~ 171.6 the reciprocal underflows to 0, but its log does not
            log_rg = math.log(abs(rg)) if rg != 0.0 else -float(sp.gammaln(arg))
            log_mag = k * logz - (float(sp.gammaln(k + 1.0)) if factorial else 0.0) + log_rg
            if log_mag > 700.0:
                raise ConvergenceError("power series overflow")
            mag = math.exp(log_mag)
            term = mag if rg >= 0 else -mag
            if z < 0 and k % 2 == 1:
                term = -term
        acc += term
        if mag > peak:
            peak = mag
        elif mag > 0:
            falling = True
        if falling and mag <= 1e-16 * abs(acc):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    else:
        raise ConvergenceError("power series did not converge within 2000 terms")
    if peak * _EPS > 1e-6 * max(1.0, abs(acc)):
        raise ConvergenceError(f"series of index ({alpha}, {beta}) at z={z} loses all precision")
    return acc


def _ml_expansion(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """-sum_{k>=1} z^{-k} / Gamma(beta - alpha*k), the algebraic expansion of
    E_{alpha,beta} as |z| -> inf, and its truncation error.

    Each term is at most the envelope |z|^{-k} Gamma(1 - beta + alpha*k)/pi;
    the sum is truncated at the smallest envelope term, which is returned as
    the error.
    """
    logz = math.log(abs(z))
    acc = 0.0
    err = math.inf
    for k in range(1, 2000):
        x = 1.0 - beta + alpha * k
        bound = math.exp(float(sp.gammaln(x)) - k * logz) / math.pi if x > 0 else math.inf
        if bound > err:
            break
        acc -= float(sp.rgamma(beta - alpha * k)) * z**-k
        err = bound
        if err < 1e-17 * abs(acc):
            break
    return acc, err


def mittag_leffler(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta) for real z.

    The branch is picked from the argument.  For z > 0, alpha <= 1 and
    z^(1/alpha) >= max(50, 2 beta) it is the exponential asymptotic
    (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) - sum_{k>=1} z^-k / Gamma(beta - alpha*k),
    and a value past the float range raises ConvergenceError.  Otherwise it
    is the power series for z >= -1 or alpha > 1; else the algebraic
    expansion where its truncation error is below 1e-15 of its value; else
    the H-function contour of the Mellin kernel
    Gamma(s) Gamma(1 - s) / Gamma(beta - alpha*s) on the strip (0, 1), whose
    inverse transform at -z is E_{alpha,beta}(z).
    """
    alpha, beta = p.alpha, p.beta
    if z == 0.0:
        return float(sp.rgamma(beta))
    if alpha == 1.0 and beta == 1.0 and z <= _LOG_MAX:
        return math.exp(z)
    root = 0.0
    if z > 0.0 and alpha <= 1.0:
        # z^(1/alpha) itself may be past the float range
        root = z ** (1.0 / alpha) if math.log(z) < alpha * _LOG_MAX else math.inf
    if root >= max(_ML_EXP_ROOT, 2.0 * beta):
        log_lead = root + (1.0 - beta) / alpha * math.log(z) - math.log(alpha)
        if log_lead > _LOG_MAX:
            raise ConvergenceError(
                f"E_({alpha}, {beta})({z}) overflows: its exponential term is e^{log_lead:.6g}"
            )
        return math.exp(log_lead) + _ml_expansion(alpha, beta, z)[0]
    if z >= -1.0 or alpha > 1.0:
        return _series(alpha, beta, z, factorial=False)
    value, err = _ml_expansion(alpha, beta, z)
    if err < 1e-15 * abs(value):
        return value
    from .mellin import FoxH, MellinStrip, fox_h_eval  # mellin imports specfun

    return fox_h_eval(FoxH(((0.0, 1.0), (1.0, -1.0)), ((beta, -alpha),), MellinStrip(0.0, 1.0)), -z)


def wright_w(alpha: float, beta: float, z: float) -> float:
    """Wright function W_{alpha,beta}(z) = sum_{k>=0} z^k / (k! Gamma(alpha*k + beta)).

    Requires alpha > -1.  The power series is summed directly; a sum that
    cancels below the round-off floor of its peak term raises ConvergenceError.
    """
    if not alpha > -1.0:
        raise DomainError("wright_w requires alpha > -1")
    if z == 0.0:
        return float(sp.rgamma(beta))
    return _series(alpha, beta, z, factorial=True)


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x), order > -1, x >= 0."""
    if not order > -1.0:
        raise DomainError("bessel_j requires order > -1")
    if x < 0:
        raise DomainError("bessel_j requires x >= 0")
    return float(sp.jv(order, x))


def bessel_i(order: float, x: float) -> float:
    """Modified Bessel function of the first kind I_order(x), x >= 0."""
    if x < 0:
        raise DomainError("bessel_i requires x >= 0")
    return float(sp.iv(order, x))


def bessel_k(order: float, x: float) -> float:
    """Modified Bessel function of the second kind K_order(x), x > 0.

    K_{-order} = K_{order} holds exactly: the order enters through |order|.
    Subnormal orders are taken as 0, where scipy's kv returns NaN.
    """
    if not x > 0:
        raise DomainError("bessel_k requires x > 0")
    order = abs(order)
    return float(sp.kv(order if order >= sys.float_info.min else 0.0, x))


def bessel_j_zeros(order: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_order, strictly increasing.

    Zeros are bracketed by scanning for sign changes in steps of pi/8 and
    refined with Brent's method; every root is validated to |J| <= 1e-10.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not order > -1.0:
        raise DomainError("bessel_j_zeros requires order > -1")

    from scipy.optimize import brentq

    zeros = []
    step = math.pi / 8.0
    x = max(order, 0.0) + 1e-9
    fx = sp.jv(order, x)
    # J_order(0+) has the sign of the leading term; tiny offsets avoid the origin
    budget = int((count + 2) * 16 * (2.0 + abs(order)))
    for _ in range(budget):
        x_next = x + step
        f_next = sp.jv(order, x_next)
        if fx == 0.0:
            zeros.append(x)
        elif np.sign(fx) != np.sign(f_next):
            root = brentq(lambda t: sp.jv(order, t), x, x_next, xtol=1e-14, rtol=4 * _EPS)
            zeros.append(float(root))
        if len(zeros) >= count:
            break
        x, fx = x_next, f_next
    else:
        raise ConvergenceError(f"failed to bracket {count} zeros of J_{order}")

    out = np.array(zeros[:count])
    resid = np.abs(sp.jv(order, out))
    if np.any(resid > 1e-10):
        raise ConvergenceError("Bessel zero refinement exceeded residual 1e-10")
    return out
