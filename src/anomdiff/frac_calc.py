"""Riemann-Liouville (left/right) and Dzhrbashyan-Caputo fractional operators
on the half-line, of order alpha in (0, 1).

Left-sided operators integrate from 0 to x, right-sided ones from x to
infinity.  On sampled grids (GridFunction) both sides integrate the singular
kernel |x-s|^(-a) exactly against the piecewise-linear interpolant (product
integration), so grid inputs never reach adaptive quadrature.  Two
integrations by parts turn the integral over the grid into

  sum_j kappa_j |x-s_j|^(2-a) / ((1-a)(2-a))

over the nodes s_j on the far side of x, where kappa_j is the slope jump of
the interpolant at node j, plus one end term: v_m (X-x)^(1-a)/(1-a) on the
right, v_0 y^(1-a)/(1-a) on the left.  The interpolant is clamped to v_0
below the first node.  Past the last node X the right side continues as the
power law f(X) (s/X)^p in closed form; the left side is defined only up to
X.  The grid kernels take a 1-d array of points and sum the slope jumps for
a block of points at once, or point by point for the few points of the
scalar operators and of rl_left's difference stencil.  Plain callables use
algebraic-weight quadrature; power laws are differentiated by the exact
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentTailError, DomainError
from .mellin import quad, sp
from .specfun import gamma_fn

__all__ = [
    "PowerLaw",
    "GridFunction",
    "rl_left",
    "rl_right",
    "caputo",
    "frac_integral",
]


@dataclass(frozen=True)
class PowerLaw:
    """The function c * x^(exponent - 1) on (0, inf)."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not self.exponent > 0:
            raise DomainError("PowerLaw exponent must be positive")

    def __call__(self, s):
        return self.coefficient * np.asarray(s, dtype=float) ** (self.exponent - 1.0)


class GridFunction:
    """A function sampled on strictly increasing nodes in (0, X_max].

    Evaluation interpolates linearly between nodes, clamps below the first
    node, and extrapolates beyond the last node as
    f(X_max) * (s / X_max)^extrapolation_decay.  A decay of -inf means the
    function is treated as zero past the grid.  The constructor keeps
    read-only copies of nodes and values, so the derivative can be cached,
    and computes once the slope jumps that the grid kernels sum: kappa_j is
    the slope of the interpolant right of node j minus its slope left of it,
    with slope zero below the first node and past the last.
    """

    def __init__(self, nodes, values, extrapolation_decay: float = -np.inf):
        nodes = np.array(nodes, dtype=float)
        values = np.array(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
            raise DomainError("nodes/values must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(nodes) > 0):
            raise DomainError("nodes must be strictly increasing")
        if not nodes[0] > 0:
            raise DomainError("nodes must be positive")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        nodes.setflags(write=False)
        values.setflags(write=False)
        self.nodes = nodes
        self.values = values
        self.extrapolation_decay = float(extrapolation_decay)
        self._derivative = None
        self._slope_jumps = np.diff(np.diff(values) / np.diff(nodes), prepend=0.0, append=0.0)
        self._slope_jumps.setflags(write=False)

    def __call__(self, s):
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.interp(s_arr, self.nodes, self.values)
        beyond = s_arr > self.nodes[-1]
        if np.any(beyond):
            if self.extrapolation_decay == -np.inf:
                out[beyond] = 0.0
            else:
                out[beyond] = (
                    self.values[-1]
                    * (s_arr[beyond] / self.nodes[-1]) ** self.extrapolation_decay
                )
        return float(out[0]) if scalar else out

    def derivative(self) -> "GridFunction":
        """The slopes at the nodes of the not-a-knot cubic spline through the
        samples (its third derivative continuous at the second and the
        second-to-last node), as a GridFunction on the same nodes, built once
        and cached.  Grids of fewer than 4 nodes take np.gradient instead."""
        if self._derivative is None:
            if self.nodes.size >= 4:
                dv = _spline_slopes(self.nodes, self.values)
            else:
                dv = np.gradient(self.values, self.nodes)
            decay = self.extrapolation_decay
            if math.isfinite(decay):
                decay -= 1.0
            self._derivative = GridFunction(self.nodes, dv, decay)
        return self._derivative

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes s of the not-a-knot cubic spline through (x, y), n >= 4
    strictly increasing nodes (de Boor, A Practical Guide to Splines, 2001,
    ch. IV).  On each segment the spline is the cubic Hermite interpolant of
    the values and slopes at its ends.  Continuity of the second derivative
    at the interior nodes gives the rows

      dx_i s_(i-1) + 2 (dx_(i-1) + dx_i) s_i + dx_(i-1) s_(i+1)
        = 3 (dx_i m_(i-1) + dx_(i-1) m_i),

    with dx_i = x_(i+1) - x_i and m_i the chord slopes, and continuity of
    the third derivative at x_1 and x_(n-2) the two end rows; these are the
    rows scipy's CubicSpline assembles.  The system is solved by Gaussian
    elimination without pivoting, in O(n): the interior rows are diagonally
    dominant, and the first end row has the same leading entry as the row
    below it, so eliminating with it leaves that row dominant too, and every
    pivot stays positive."""
    n = x.size
    dx = np.diff(x)
    m = np.diff(y) / dx
    lower, diag, upper, rhs = np.empty((4, n))
    lower[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d
    d = x[-1] - x[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * m[-2] + (2.0 * d + dx[-1]) * dx[-2] * m[-1]) / d
    # elimination on Python floats: per row, a loop step costs less than a
    # numpy call
    lo, di, up, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    pivot, acc = di[0], r[0]
    for i in range(1, n):
        mult = lo[i] / pivot
        pivot = di[i] = di[i] - mult * up[i - 1]
        acc = r[i] = r[i] - mult * acc
    v = r[-1] = acc / pivot
    for i in range(n - 2, -1, -1):
        v = r[i] = (r[i] - up[i] * v) / di[i]
    return np.array(r)


_BLOCK_ROWS = 8  # points per block of the slope-jump sum: a block is 8 x n differences


def _slope_jump_sum(gf: GridFunction, a: float, xs: np.ndarray, side: str) -> np.ndarray:
    """sum_j kappa_j |x-s_j|^(2-a) over the nodes s_j on the `side` of each x,
    for a 1-d array of points in ascending order.  Arrays of _BLOCK_ROWS
    points or more go in blocks of _BLOCK_ROWS rows over the nodes on that
    side of the block's first point ("right") or last point ("left"); a node
    on the near side of a row has a negative difference, which is clipped to
    0 before the power, so it adds nothing.  Shorter arrays, the one point
    of the scalar operators and the difference stencil of rl_left, go point
    by point over each point's own nodes, with no clip.  The power is taken
    in place as exp((2-a) log d), which numpy evaluates faster than a
    general power; a clipped zero gives log 0 = -inf and then
    exp(-inf) = 0, so only the blocked sums pay for the errstate that
    silences it."""
    out = np.empty(xs.size)
    nodes, jumps = gf.nodes, gf._slope_jumps
    if xs.size < _BLOCK_ROWS:
        for k, x in enumerate(xs.tolist()):
            if side == "right":
                i = nodes.searchsorted(x, side="right")
                out[k] = _power_dot(nodes[i:] - x, jumps[i:], 2.0 - a)
            else:
                i = nodes.searchsorted(x)
                out[k] = _power_dot(x - nodes[:i], jumps[:i], 2.0 - a)
        return out
    with np.errstate(divide="ignore"):
        for k in range(0, xs.size, _BLOCK_ROWS):
            block = xs[k:k + _BLOCK_ROWS, None]
            if side == "right":
                i = nodes.searchsorted(block[0, 0], side="right")
                d, kappa = nodes[i:] - block, jumps[i:]
            else:
                i = nodes.searchsorted(block[-1, 0])
                d, kappa = block - nodes[:i], jumps[:i]
            out[k:k + _BLOCK_ROWS] = _power_dot(np.maximum(d, 0.0, out=d), kappa, 2.0 - a)
    return out


def _power_dot(d: np.ndarray, kappa: np.ndarray, q: float):
    """d^q @ kappa for d >= 0, with d^q taken in place as exp(q log d)."""
    np.log(d, out=d)
    d *= q
    return np.exp(d, out=d) @ kappa


def _grid_left_alg_integral(gf: GridFunction, a: float, ys: np.ndarray) -> np.ndarray:
    """int_0^y (y-s)^(-a) gf(s) ds at each point of the ascending 1-d array
    ys, all in (0, X]: exact for the clamped piecewise-linear interpolant, v_0
    y^(1-a)/(1-a) plus the slope-jump sum over the nodes below y."""
    jumps = _slope_jump_sum(gf, a, ys, "left")
    return gf.values[0] * ys ** (1.0 - a) / (1.0 - a) + jumps / ((1.0 - a) * (2.0 - a))


def _grid_right_alg_integral(gf: GridFunction, a: float, xs: np.ndarray) -> np.ndarray:
    """int_x^inf (s-x)^(-a) gf(s) ds at each point of the ascending 1-d array
    xs >= 0, exact for the clamped piecewise-linear interpolant and its
    power-law continuation f(X) (s/X)^p past the last node X.

    Up to X the integral is v_m (X-x)^(1-a)/(1-a) plus the slope-jump sum
    over the nodes above x; both vanish for x >= X.  The continuation
    contributes zero for p = -inf, and otherwise f(X) X^(1-a)
    2F1(a, b; b+1; x/X) / b with b = a - p - 1 when x < X, or f(X) X^(-p)
    x^(-b) B(1-a, b) when x >= X; it needs p < a - 1.
    """
    x_max = gf.x_max
    p = gf.extrapolation_decay
    v_max = float(gf.values[-1])
    jumps = _slope_jump_sum(gf, a, xs, "right")
    body = v_max * np.maximum(x_max - xs, 0.0) ** (1.0 - a) / (1.0 - a) + jumps / ((1.0 - a) * (2.0 - a))
    if p == -np.inf:
        return body
    b = a - p - 1.0
    if not b > 0.0:
        raise DivergentTailError(f"grid tail exponent {p} too weak for a kernel of order {a}")
    inside = xs < x_max
    tail = np.empty(xs.size)
    tail[inside] = v_max * x_max ** (1.0 - a) * sp.hyp2f1(a, b, b + 1.0, xs[inside] / x_max) / b
    tail[~inside] = v_max * x_max ** (-p) * xs[~inside] ** (-b) * sp.beta(1.0 - a, b)
    return body + tail


def _left_alg_integral(f, a: float, y: float) -> float:
    """int_0^y (y-s)^(-a) f(s) ds for a < 1; algebraic-weight quadrature, or the
    exact slope-jump sum when f is a sampled grid."""
    if y <= 0:
        return 0.0
    if isinstance(f, GridFunction):
        return float(_grid_left_alg_integral(f, a, np.array([y]))[0])
    return quad(f, 0.0, y, weight="alg", wvar=(0.0, -a), epsabs=1e-12, epsrel=1e-10, limit=200)


def _right_alg_integral(f, a: float, x: float) -> float:
    """int_x^inf (s-x)^(-a) f(s) ds for a < 1; the exact slope-jump sum when f
    is a sampled grid, otherwise algebraic-weight quadrature near x and plain
    quadrature on the rest of the half-line."""
    if isinstance(f, GridFunction):
        return float(_grid_right_alg_integral(f, a, np.array([x]))[0])
    w0 = max(1.0, 0.5 * abs(x))
    near = quad(lambda w: f(x + w), 0.0, w0, weight="alg", wvar=(-a, 0.0),
                epsabs=1e-12, epsrel=1e-10, limit=200)
    far = quad(lambda w: w ** (-a) * f(x + w), w0, np.inf, limit=200)
    return near + far


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise DomainError("fractional order must lie in (0, 1)")


def _fd_step(x: float) -> float:
    return min(max(1e-4 * x, 1e-8), 0.45 * x)


def rl_left(alpha: float, f, x: float) -> float:
    """Left Riemann-Liouville derivative
    (d/dx) int_0^x (x-s)^(-alpha) f(s) ds / Gamma(1-alpha).

    PowerLaw inputs use the exact rule
    Gamma(b)/Gamma(b-alpha) * c * x^(b-alpha-1); sampled inputs difference the
    regularized integral with a centered step, or, within one step of the
    last node of a GridFunction, where the integral is not defined, with the
    second-order one-sided step (3I(x) - 4I(x-h) + I(x-2h)) / 2h.
    """
    _check_alpha(alpha)
    if x <= 0:
        raise DomainError("x must be positive")
    if isinstance(f, PowerLaw):
        b = f.exponent
        return gamma_fn(b) / gamma_fn(b - alpha) * f.coefficient * x ** (b - alpha - 1.0)
    if isinstance(f, GridFunction) and x > f.x_max:
        raise DomainError("x outside grid coverage")
    h = _fd_step(x)
    c = 1.0 / gamma_fn(1.0 - alpha)
    if not isinstance(f, GridFunction):
        dn, up = _left_alg_integral(f, alpha, x - h), _left_alg_integral(f, alpha, x + h)
    elif x + h > f.x_max:
        dn2, dn, here = _grid_left_alg_integral(f, alpha, np.array([x - 2.0 * h, x - h, x]))
        return float(c * (3.0 * here - 4.0 * dn + dn2) / (2.0 * h))
    else:
        dn, up = _grid_left_alg_integral(f, alpha, np.array([x - h, x + h]))
    return float(c * (up - dn) / (2.0 * h))


def _tail_decay_of(f, tail_decay):
    if tail_decay is not None:
        return float(tail_decay)
    if isinstance(f, GridFunction):
        return f.extrapolation_decay
    if isinstance(f, PowerLaw):
        return f.exponent - 1.0
    return -np.inf


def _derivative_callable(f):
    if isinstance(f, GridFunction):
        return f.derivative()
    if isinstance(f, PowerLaw):
        c, b = f.coefficient, f.exponent
        return lambda s: c * (b - 1.0) * s ** (b - 2.0)

    def num_diff(s):
        h = 1e-6 * max(abs(s), 1.0)
        return (f(s + h) - f(s - h)) / (2.0 * h)

    return num_diff


def rl_right(alpha: float, f, x: float, tail_decay: float | None = None) -> float:
    """Right Riemann-Liouville derivative
    -(d/dx) int_x^inf (s-x)^(-alpha) f(s) ds / Gamma(1-alpha).

    The x-derivative is taken inside the integral (equal by dominated
    convergence), giving -int_x^inf (s-x)^(-alpha) f'(s) ds / Gamma(1-alpha).
    The tail of f must decay like s^p with p < -alpha.  On a GridFunction
    the integral is exact for the piecewise-linear interpolant of the cached
    spline derivative and its power-law tail; plain callables use quadrature.
    """
    _check_alpha(alpha)
    if x < 0:
        raise DomainError("x must be non-negative")
    decay = _tail_decay_of(f, tail_decay)
    if not decay < -alpha:
        raise DivergentTailError(
            f"tail exponent {decay} too weak for right derivative of order {alpha}"
        )
    if isinstance(f, PowerLaw):
        b = f.exponent
        # exact rule, valid when the defining integral converges (b < alpha)
        return gamma_fn(1.0 + alpha - b) / gamma_fn(1.0 - b) * f.coefficient * x ** (
            b - alpha - 1.0
        )
    fp = _derivative_callable(f)
    return -_right_alg_integral(fp, alpha, x) / gamma_fn(1.0 - alpha)


def caputo(alpha: float, f, t: float) -> float:
    """Dzhrbashyan-Caputo derivative
    int_0^t (t-s)^(-alpha) f'(s) ds / Gamma(1-alpha), alpha in (0, 1).

    f' comes from differencing grid samples (or a centered difference for
    plain callables); constants map to zero.
    """
    _check_alpha(alpha)
    if t <= 0:
        raise DomainError("t must be positive")
    if isinstance(f, GridFunction) and t > f.x_max:
        raise DomainError("t outside grid coverage")
    fp = _derivative_callable(f)
    return _left_alg_integral(fp, alpha, t) / gamma_fn(1.0 - alpha)


def frac_integral(side: str, alpha: float, f, x: float, tail_decay: float | None = None) -> float:
    """Fractional integrals used by the Mellin boundary terms:

      left : int_0^x (x-s)^(alpha-1) f(s) ds / Gamma(alpha)
      right: int_x^inf (s-x)^(alpha-1) f(s) ds / Gamma(alpha)

    The right version requires the tail of f to decay like s^p, p < -alpha.
    Both sides are exact for the piecewise-linear interpolant of a
    GridFunction (and, on the right, its power-law tail); the left version of
    a GridFunction is defined up to its last node.  Plain callables use
    quadrature.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if side == "left":
        if x <= 0:
            raise DomainError("x must be positive")
        if isinstance(f, GridFunction) and x > f.x_max:
            raise DomainError("x outside grid coverage")
        return _left_alg_integral(f, 1.0 - alpha, x) / gamma_fn(alpha)
    if side != "right":
        raise DomainError("side must be 'left' or 'right'")
    decay = _tail_decay_of(f, tail_decay)
    if not decay < -alpha:
        raise DivergentTailError(
            f"tail exponent {decay} too weak for the right fractional integral"
        )
    return _right_alg_integral(f, 1.0 - alpha, x) / gamma_fn(alpha)
