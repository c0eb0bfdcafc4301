"""Nested-quadrature oracles for the contour routes of the library.

`compose_density` (n >= 3), `f_nu_beta` and `time_fractional_solution`
evaluate their Gamma-product kernels by one Mellin-Barnes contour.  The
functions here build the same densities from their factors by adaptive
quadrature through `mellin.quad`, so the tests compare two routes that share
no kernel code.  They cover the interior of each domain only; the degenerate
ends are closed forms that the tests check directly.

The grid kernels of `frac_calc` sum slope jumps over the nodes; the
segment-by-segment product rule at the end of this file is their oracle.
"""

import numpy as np

from anomdiff.errors import DomainError
from anomdiff.laws import GGLaw, MuVector, compose_density, gg_density, h_density, l_density
from anomdiff.mellin import quad


def compose_quadrature(gamma, mu, x, t):
    """n-fold composition at composite time t: one tilde-factor is peeled off
    and integrated against the (n-1)-fold core with unit shape index, down to
    the closed forms at n <= 2.  Capped at depth 4, where a point costs about
    one second."""
    mus = mu.as_floats() if isinstance(mu, MuVector) else np.asarray(mu, dtype=float)
    if len(mus) > 4:
        raise DomainError("quadrature composition depth capped at 4")
    if len(mus) <= 2:
        return compose_density(gamma, mus, x, t)
    inner_t = t**gamma
    law0 = GGLaw(gamma, mus[0])
    rest = mus[1:]

    def integrand(s):
        return gg_density(law0, x, s, tilde=True) * compose_quadrature(1.0, rest, s, inner_t)

    return quad(integrand, -60.0, 60.0, log=True)


def f_nu_beta_quadrature(nu, beta, x, t):
    """Mixed law int_0^inf h_nu(x, s) l_beta(s, t) ds over h_density and
    l_density on their auto routes, for nu, beta in (0, 1) and x > 0."""

    def integrand(s):
        return h_density(nu, x, s) * l_density(beta, s, t)

    return quad(integrand, -60.0, 60.0, log=True)


def time_fractional_quadrature(gamma, mu, nu, x, t):
    """Time-fractional solution int_0^inf g~(x, s) l_nu(s, t) ds for nu in
    (0, 1), substituting s = t^nu u so that the nodes do not move with t."""
    law = GGLaw(gamma, mu)
    scale = t**nu

    def integrand(u):
        return gg_density(law, x, scale * u, tilde=True) * l_density(nu, u, 1.0)

    return quad(integrand, -40.0, 12.0, log=True)


def segment_sum(w, v, a):
    """int w^(-a) g(w) dw over [w[0], w[-1]] for the g that is linear between
    the samples (w[i], v[i]); w increasing and >= 0, a < 1.  Each segment is
    integrated on its own, in closed form."""
    w0, w1 = w[:-1], w[1:]
    slope = (v[1:] - v[:-1]) / (w1 - w0)
    p1 = 1.0 - a
    p2 = 2.0 - a
    term1 = (v[:-1] - slope * w0) * (w1**p1 - w0**p1) / p1
    term2 = slope * (w1**p2 - w0**p2) / p2
    return float(np.sum(term1 + term2))


def left_grid_kernel_by_segments(gf, a, y):
    """int_0^y (y-s)^(-a) gf(s) ds for 0 < y <= X, segment by segment over the
    clamped piecewise-linear interpolant of a GridFunction."""
    xs = np.concatenate([[y], gf.nodes[gf.nodes < y][::-1], [0.0]])
    return segment_sum(y - xs, gf(xs), a)


def right_grid_kernel_by_segments(gf, a, x):
    """int_x^X (s-x)^(-a) gf(s) ds for x < X, segment by segment over the
    clamped piecewise-linear interpolant of a GridFunction; the continuation
    past the last node X is left out."""
    inner = gf.nodes > x
    w = np.concatenate([[0.0], gf.nodes[inner] - x])
    v = np.concatenate([[gf(x)], gf.values[inner]])
    return segment_sum(w, v, a)
