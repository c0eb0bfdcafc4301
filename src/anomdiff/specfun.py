"""Special functions used by every other module.

Gamma/Beta wrappers, Bessel J/I/K and zeros of J, and the two-parameter
Mittag-Leffler and the Wright function, which are H-functions: each is one
Gamma-product kernel, summed by `mellin.fox_h_series` or inverted on the
contour.  All arguments and results are real; complex arguments are out of
scope.  scipy.special is read lazily, through `mellin.sp`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mellin
from .errors import ConvergenceError, DomainError, PoleError
from .mellin import _is_nonpositive_integer, sp

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


def gamma_fn(x: float) -> float:
    """Gamma function on the real line; poles at 0, -1, -2, ... are rejected.
    Past x = 171.62 the value overflows to inf, as scipy.special.gamma's does."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    for arg in (a, b, a + b):
        if _is_nonpositive_integer(arg):
            raise PoleError(f"beta pole at ({a}, {b})")
    return float(sp.beta(a, b))


@lru_cache(maxsize=256)
def _ml_fox(alpha: float, beta: float):
    """G(s) G(1 - s) / G(beta - alpha s) on (0, 1): its H-function at -z is E_{alpha,beta}(z)."""
    return mellin.FoxH(((0.0, 1.0), (1.0, -1.0)), ((beta, -alpha),), mellin.MellinStrip(0.0, 1.0))


@lru_cache(maxsize=256)
def _wright_fox(alpha: float, beta: float):
    """G(eta) / G(beta - alpha eta) on (0, inf): its H-function at -z is W_{alpha,beta}(z)."""
    return mellin.FoxH(((0.0, 1.0),), ((beta, -alpha),), mellin.MellinStrip(0.0, math.inf))


def mittag_leffler(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta) for real z.

    Every branch reads the kernel Gamma(s) Gamma(1 - s) / Gamma(beta - alpha*s)
    on (0, 1), whose H-function at -z is E_{alpha,beta}(z), and the branch is
    picked from the argument.  For z > 0, alpha <= 1 and z^(1/alpha) >=
    max(50, 2 beta) it is (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) (past
    the float range: ConvergenceError) plus the right residue series, the
    algebraic expansion -sum_{k>=1} z^-k / Gamma(beta - alpha*k).  Otherwise
    it is the left residue series, the power series, for z >= -1 or
    alpha > 1; else the right one where its error is below 1e-15 of its
    value; else the contour of the kernel.
    """
    alpha, beta = p.alpha, p.beta
    if z == 0.0:
        return float(sp.rgamma(beta))
    if alpha == 1.0 and beta == 1.0 and z <= _LOG_MAX:
        return math.exp(z)
    h = _ml_fox(alpha, beta)
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
        return math.exp(log_lead) + mellin.fox_h_series(h, -z, "right")[0]
    if z >= -1.0 or alpha > 1.0:
        return mellin.fox_h_series(h, -z, "left")[0]
    value, err = mellin.fox_h_series(h, -z, "right")
    return value if err < 1e-15 * abs(value) else mellin.fox_h_eval(h, -z)


def wright_w(alpha: float, beta: float, z: float) -> float:
    """Wright function W_{alpha,beta}(z) = sum_{k>=0} z^k / (k! Gamma(alpha*k + beta)),
    alpha > -1: the left residue series of Gamma(eta) / Gamma(beta - alpha*eta)
    at -z (for (-nu, 1 - nu) the kernel `laws.l_fox(nu)`).  A sum that cancels
    below the round-off floor of its peak term raises ConvergenceError.
    """
    if not alpha > -1.0:
        raise DomainError("wright_w requires alpha > -1")
    if z == 0.0:
        return float(sp.rgamma(beta))
    return mellin.fox_h_series(_wright_fox(alpha, beta), -z, "left")[0]


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

    The zeros are the reciprocals of the largest eigenvalues of the symmetric
    tridiagonal matrix of J's three-term recurrence (Ikebe 1975), with
    off-diagonal 1/(2 sqrt((order+k)(order+k+1))), cut well past the last
    zero sought.  Three Newton steps with J' = (order/z) J - J_{order+1}
    refine each; every root is validated to |J| <= 1e-10.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not order > -1.0:
        raise DomainError("bessel_j_zeros requires order > -1")
    k = np.arange(1.0, int(math.pi * (count + 1) + abs(order)) + 32)
    off = 0.5 / np.sqrt((order + k) * (order + k + 1.0))
    lam = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    z = 1.0 / lam[::-1][:count]
    for _ in range(3):
        j = sp.jv(order, z)
        z = z - j / (order / z * j - sp.jv(order + 1.0, z))
    if np.any(np.abs(sp.jv(order, z)) > 1e-10) or np.any(np.diff(z) <= 0.0):
        raise ConvergenceError(f"zeros of J_{order} failed the residual 1e-10 or the ordering check")
    return z
