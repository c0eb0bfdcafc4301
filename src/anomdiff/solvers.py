"""Solution operators for the fractional diffusion problems.

The Bessel eigenfunction series on the unit interval, the fractional power
of the adjoint generator, and residual checks of the governing
Mellin/Laplace identities.  The time-fractional solution on the half-line
and the mixed space-fractional density are laws of subordinated variates,
so they live in `laws`; this module re-exports their five names.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentTailError, DomainError, StripError
from .frac_calc import GridFunction, _grid_right_alg_integral, _power_dot, _spline_slopes
from .laws import (
    h_density,
    l_density,
    space_fractional_density,
    space_fractional_fox,
    space_fractional_mellin,
    time_fractional_fox,
    time_fractional_solution,
)
from .mellin import quad, sp
from .specfun import MLParams, bessel_j, bessel_j_zeros, gamma_fn, mittag_leffler

__all__ = [
    "BVPSpec",
    "EigenSystem",
    "eigen_system",
    "project_coefficients",
    "sturm_liouville_solution",
    "time_fractional_fox",
    "time_fractional_solution",
    "generator_apply",
    "adjoint_generator_apply",
    "fractional_power_operator",
    "space_fractional_fox",
    "space_fractional_mellin",
    "space_fractional_density",
    "mellin_time_rule_residual",
    "double_laplace_residual",
]

# ---------------------------------------------------------------------------
# eigen system on (0, 1)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenfunctions psi_k(x) = x^(g(1-mu)/2) J_{mu-1}(kappa_k x^(g/2)) on
    (0, 1), orthogonal for the weight w(x) = x^(g mu - 1); eigenvalues are
    -(kappa_k/2)^2 with kappa_k the zeros of J_{mu-1}."""

    gamma: float
    mu: float
    zeros: tuple
    norms: tuple  # squared weighted norms
    coefficients: tuple | None = None

    @property
    def order(self) -> float:
        return self.mu - 1.0

    def weight(self, x):
        return np.asarray(x, dtype=float) ** (self.gamma * self.mu - 1.0)

    def eigenfunction(self, k, x):
        """psi_k(x); an array of mode indices k gives every psi_k at one x."""
        x = np.asarray(x, dtype=float)
        g, mu = self.gamma, self.mu
        return x ** (0.5 * g * (1.0 - mu)) * sp.jv(mu - 1.0, np.asarray(self.zeros)[k] * x ** (0.5 * g))

    def with_coefficients(self, coeffs) -> "EigenSystem":
        return EigenSystem(self.gamma, self.mu, self.zeros, self.norms, tuple(coeffs))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "zeros": list(self.zeros),
            "norms": list(self.norms),
            "coefficients": list(self.coefficients) if self.coefficients else [],
        }


@lru_cache(maxsize=64)
def eigen_system(gamma: float, mu: float, n_modes: int) -> EigenSystem:
    """Zeros, eigenfunctions and weighted norms of the first n_modes modes.

    The squared norm is J'_{mu-1}(kappa)^2 / gamma.  Only gamma > 0 has
    finite norms: with
    y = x^(gamma/2) the squared norm is (2/|gamma|) int y J_{mu-1}(kappa y)^2 dy
    over (0, 1) for gamma > 0, but over (1, inf) for gamma < 0, where it
    diverges.
    """
    if not gamma > 0:
        raise DomainError(
            "eigen_system needs gamma > 0: for gamma < 0 the squared weighted norm "
            "(2/|gamma|) int_1^inf y J_{mu-1}(kappa y)^2 dy diverges"
        )
    if not mu > 0:
        raise DomainError("mu must be positive")
    if n_modes < 1:
        raise DomainError("need at least one mode")
    kappas = bessel_j_zeros(mu - 1.0, n_modes)
    norms = []
    for k in kappas:
        # J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x), with nu = mu - 1
        jp = (mu - 1.0) / k * bessel_j(mu - 1.0, k) - bessel_j(mu, k)
        norms.append(jp * jp / gamma)
    return EigenSystem(gamma, mu, tuple(float(k) for k in kappas), tuple(norms))


def project_coefficients(es: EigenSystem, m0) -> np.ndarray:
    """Coefficients c_k = int_0^1 m0(x) psi_k(x) dx of an initial datum, all
    modes on one adaptive mesh.  A datum with a `nodes` attribute (such as a
    GridFunction) has the nodes inside (0, 1) as break points, so that a
    piecewise-linear datum is integrated panel by panel."""
    modes = np.arange(len(es.zeros))
    nodes = getattr(m0, "nodes", ())
    return quad(lambda x: m0(x) * es.eigenfunction(modes, x), 0.0, 1.0, vector=True, points=nodes,
                epsabs=1e-12, epsrel=1e-10, limit=300 + len(nodes))


@dataclass(frozen=True)
class BVPSpec:
    """Initial-boundary problem data on (0, 1): shape pair (gamma, mu), time
    index nu, continuous initial datum and series truncation order."""

    gamma: float
    mu: float
    nu: float
    initial_datum: object
    n_terms: int = 50

    def __post_init__(self):
        if not self.gamma > 0:
            raise DomainError("gamma must be positive")
        if not self.mu > 0:
            raise DomainError("mu must be positive")
        if not 0 < self.nu <= 1:
            raise DomainError("nu must lie in (0, 1]")
        if self.n_terms < 1:
            raise DomainError("n_terms must be >= 1")


class _SeriesSolution:
    """Truncated eigenfunction series
    w(x) sum_k c_k E_nu(-(kappa_k/2)^2 t^nu) psi_k(x) / ||psi_k||^2."""

    def __init__(self, spec: BVPSpec):
        self.spec = spec
        self.es = eigen_system(spec.gamma, spec.mu, spec.n_terms)
        self.coeffs = project_coefficients(self.es, spec.initial_datum)

    def __call__(self, x, t: float):
        """The series at one time t and a point x, or a 1-d array of points
        with one set of time factors E_nu(.) shared by all of them; each
        entry of an array equals the call at that point."""
        scalar = np.ndim(x) == 0
        x = np.asarray(x, dtype=float)
        if not np.all((0.0 < x) & (x < 1.0)):
            raise DomainError("x must lie in (0, 1)")
        if t < 0:
            raise DomainError("t must be non-negative")
        es, spec = self.es, self.spec
        lam = (np.asarray(es.zeros) / 2.0) ** 2
        acc = np.zeros(x.shape)
        for k in range(spec.n_terms):
            tf = mittag_leffler(MLParams(spec.nu), -float(lam[k]) * t**spec.nu)
            acc += self.coeffs[k] * tf * es.eigenfunction(k, x) / es.norms[k]
        out = es.weight(x) * acc
        return float(out) if scalar else out

    def eigen_system_with_coefficients(self) -> EigenSystem:
        return self.es.with_coefficients(self.coeffs)


@lru_cache(maxsize=32)
def sturm_liouville_solution(spec: BVPSpec) -> _SeriesSolution:
    return _SeriesSolution(spec)


# ---------------------------------------------------------------------------
# generator and its fractional power


def generator_apply(gamma: float, mu: float, f, x: float, h: float = 1e-4) -> float:
    """Second-order generator x^(1-g)/g^2 (x f'' + (g mu - g + 1) f') by
    centered finite differences of step h: the operator whose eigenfunctions
    are the modes of `eigen_system` (eigenvalue -(kappa_1/2)^2 at g = mu = 1)."""
    f1 = (f(x + h) - f(x - h)) / (2.0 * h)
    f2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return x ** (1.0 - gamma) / gamma**2 * (x * f2 + (gamma * mu - gamma + 1.0) * f1)


def adjoint_generator_apply(gamma: float, mu: float, f, x: float, h: float = 1e-3) -> float:
    """Adjoint generator (1/g^2) d/dx [x^(g mu - g + 1) d/dx (f / w)] with
    w(x) = x^(g mu - 1), by nested centered differences: the right side of
    the forward equation that the BVP series solves (acceptance criterion 5)."""
    gm = gamma * mu

    def u(s):
        return f(s) / s ** (gm - 1.0)

    def q(s):
        return s ** (gm - gamma + 1.0) * (u(s + h) - u(s - h)) / (2.0 * h)

    return (q(x + h) - q(x - h)) / (2.0 * h) / gamma**2


_RULE_NODES = 8  # Gauss nodes per mesh segment and on the singular stretch
_GL_T, _GL_W = np.polynomial.legendre.leggauss(_RULE_NODES)
# The cubic Hermite form on a segment of width h, at tau = (t + 1)/2 for the
# Gauss-Legendre nodes t: with chord slope m and end slopes s0, s1, the
# spline is y0 + h [m, s0, s1] @ _HERMITE_VALUE and its derivative
# [m, s0, s1] @ _HERMITE_SLOPE, one column per node.
_TAU = 0.5 * (_GL_T + 1.0)
_HERMITE_VALUE = np.array([_TAU**2 * (3.0 - 2.0 * _TAU), _TAU * (1.0 - _TAU) ** 2, _TAU**2 * (_TAU - 1.0)])
_HERMITE_SLOPE = np.array([6.0 * _TAU * (1.0 - _TAU), (1.0 - _TAU) * (1.0 - 3.0 * _TAU), _TAU * (3.0 * _TAU - 2.0)])


def _mesh_spline(u: np.ndarray, y: np.ndarray):
    """The not-a-knot cubic spline S through (u, y), n >= 4 nodes: S and S'
    at the Gauss-Legendre nodes of every segment (one row per segment, a
    fixed combination of the segment's ends, with no search), and S' on
    segment i as the coefficients (s_i, c1_i, c2_i) of s_i + t (c1_i + t c2_i)
    in t = u - u_i, one row per segment."""
    du = np.diff(u)
    chord = np.diff(y) / du
    slopes = _spline_slopes(u, y)
    s0, s1 = slopes[:-1], slopes[1:]
    hermite = np.stack([chord, s0, s1], axis=1)
    values = y[:-1, None] + du[:, None] * (hermite @ _HERMITE_VALUE)
    poly = np.stack([s0, 2.0 * (3.0 * chord - 2.0 * s0 - s1) / du, 3.0 * (s0 + s1 - 2.0 * chord) / du**2], axis=1)
    return values, hermite @ _HERMITE_SLOPE, poly


@lru_cache(maxsize=32)
def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1-t)^(-a)
    on [-1, 1], by Golub-Welsch on the Jacobi matrix of P^(-a, 0), cached
    as read-only arrays.  It agrees with scipy's roots_jacobi, but numpy's
    eigh does not page in scipy.linalg's LAPACK, which adds about 0.6 MB to
    the resident set (scipy 1.17, x86-64 Linux)."""
    k = np.arange(n)
    c = 2.0 * k - a
    diag = -a * a / (c * (c + 2.0))
    k, c = k[1:], c[1:]
    off = np.sqrt(4.0 * k * k * (k - a) ** 2 / (c * c * (c + 1.0) * (c - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (1.0 - a) / (1.0 - a) * v[0] ** 2
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def fractional_power_operator(mu: float, nu: float, f: GridFunction, n_mesh: int = 192):
    """Callable x -> -(outer left derivative of order nu applied to
    x^(mu-1+nu) times the right derivative of order nu of x^(1-mu) f).

    This is the fractional power of (minus) the adjoint generator for unit
    shape index.  The inner right derivative is tabulated on a geometric
    mesh spanning the grid of f, by one call of the array-valued grid kernel
    after the tail check of `rl_right`.  The kernel integrates the derivative
    of x^(1-mu) f, taken by the product rule from the cached spline
    derivative of f, so no spline of x^(1-mu) f is built.  The inner stage is
    interpolated by the not-a-knot cubic spline S in u = log s whose node
    slopes also give `GridFunction.derivative` (the outer derivative needs a
    C^1 integrand to keep its accuracy as nu -> 1).  The spline continues as
    a power law v0 (s/s0)^p below the mesh and as zero beyond it.

    The outer stage is a fixed product rule on the derivative form
    D^nu m(x) = [m(0+) x^-nu + int_0^x (x-s)^-nu m'(s) ds] / Gamma(1-nu),
    with m'(s) ds = S'(u) du: Gauss-Legendre in u on the whole mesh segments
    below x, Gauss-Jacobi with weight (x-s)^-nu on the last stretch, which
    holds the singular end and starts at least one segment below x, and
    v0 x^-nu 2F1(nu, p; p+1; s0/x) in closed form for the power-law head with
    its m(0+) term (valid for p > -1).  Nodes and weights are built once, and
    no adaptive quadrature runs: S' at the Gauss-Legendre nodes is a fixed
    combination of each segment's end values and slopes, and on the last
    stretch a quadratic per segment.  Past the point where the middle stage
    has decayed, the operator continues with its algebraic tail, whose
    moments come from the same Gauss-Legendre rule.
    """
    if not 0 < nu < 1:
        raise DomainError("nu must lie in (0, 1)")
    if n_mesh < 4:
        raise DomainError("n_mesh must be at least 4")
    inner_decay = f.extrapolation_decay + (1.0 - mu) if math.isfinite(f.extrapolation_decay) else -np.inf
    if not inner_decay < -nu:
        raise DivergentTailError(f"tail exponent {inner_decay} too weak for right derivative of order {nu}")
    # (s^(1-mu) f)' = s^(1-mu) (f' + (1-mu) f / s), with f' the cached spline
    # derivative of f
    nodes = f.nodes
    g1_prime = GridFunction(
        nodes, nodes ** (1.0 - mu) * (f.derivative().values + (1.0 - mu) * f.values / nodes), inner_decay - 1.0
    )
    gam = gamma_fn(1.0 - nu)
    mesh = np.geomspace(nodes[0], nodes[-1] * 0.999, n_mesh)
    inner = -_grid_right_alg_integral(g1_prime, nu, mesh) / gam
    mid_vals = mesh ** (mu - 1.0 + nu) * inner
    u = np.log(mesh)
    spline_q, slope_q, slope_poly = _mesh_spline(u, mid_vals)
    if mid_vals[0] > 0 and mid_vals[1] > 0:
        head_pow = (math.log(mid_vals[1]) - math.log(mid_vals[0])) / (u[1] - u[0])
    else:
        head_pow = 1.0
    if not head_pow > -1.0:
        raise DomainError(f"the middle stage grows like s^{head_pow:.3g} at 0 and is not integrable")

    # Gauss-Legendre nodes in u on every mesh segment (one row per segment)
    half = 0.5 * np.diff(u)[:, None]
    sq = np.exp(u[:-1, None] + half * (_GL_T + 1.0))
    wq = half * _GL_W
    slope_w = wq * slope_q
    # the last stretch runs on Python floats, which for its 8 points cost
    # less than numpy calls
    rule = list(zip(*(a.tolist() for a in _gauss_jacobi(_RULE_NODES, nu))))
    mesh_list, u_list, slope_poly = mesh.tolist(), u.tolist(), slope_poly.tolist()

    # once the middle stage has decayed, the output has the algebraic tail
    #   (1/Gamma(1-nu)) sum_k nu(nu+1)...(nu+k)/k! M_k x^(-nu-k-1),
    # with M_k = int s^k m(s) ds the k-th moment of the middle stage over the
    # mesh; continue with six terms
    n_terms = 6
    peak = float(np.max(np.abs(mid_vals)))
    decayed = np.abs(mid_vals) < 1e-12 * peak
    switch_idx = None
    for i in range(len(mesh) - 1, -1, -1):
        if not decayed[i]:
            switch_idx = i + 1
            break
    x_switch = mesh[switch_idx] if switch_idx is not None and switch_idx < len(mesh) else None
    if x_switch is not None:
        mass_w = wq * spline_q * sq
        coeffs = []
        fac = nu
        for k in range(n_terms):
            coeffs.append(fac * float(np.sum(mass_w * sq**k)) / math.gamma(k + 1))
            fac *= nu + k + 1.0

        def tail(x: float) -> float:
            acc = 0.0
            for k in range(n_terms):
                acc += coeffs[k] * x ** (-nu - k - 1.0)
            return acc / gam

    def apply(x: float) -> float:
        if x_switch is not None and x >= x_switch:
            return tail(x)
        if not mesh_list[0] < x < mesh_list[-1]:
            raise DomainError("x outside the tabulated range of the operator")
        j = bisect.bisect_left(mesh_list, x) - 1  # mesh[j] < x <= mesh[j + 1]
        start = mesh_list[j]
        if j > 0 and x - start < start - mesh_list[j - 1]:
            # the kernel's singularity sits just past segment j - 1, where its
            # Gauss-Legendre rule loses accuracy: the last stretch takes it too
            j -= 1
            start = mesh_list[j]
        head = mid_vals[0] * x**-nu * sp.hyp2f1(nu, head_pow, head_pow + 1.0, mesh_list[0] / x)
        body = _power_dot((x - sq[:j]).ravel(), slope_w[:j].ravel(), -nu)
        # the stretch lies in segment j, or in j and j + 1 after the shift
        hw = 0.5 * (x - start)
        u_next = u_list[j + 1]
        last = 0.0
        for node, weight in rule:
            s = start + hw * (node + 1.0)
            us = math.log(s)
            i = j + 1 if us > u_next else j
            c0, c1, c2 = slope_poly[i]
            t = us - u_list[i]
            last += weight * (c0 + t * (c1 + t * c2)) / s
        last *= hw ** (1.0 - nu)
        return -float(head + body + last) / gam

    return apply


# ---------------------------------------------------------------------------
# identity residuals


def mellin_time_rule_residual(mu: float, nu: float, eta: float, t: float) -> float:
    """Residual of the transformed governing identity of the gamma law:

        d^nu/dt^nu [t^(eta-1) G(eta+mu-1)/G(mu)]
          = G(eta)/G(eta-nu) * G(eta+mu-1)/G(eta+mu-1-nu) * M(eta-nu; t),

    with the fractional time derivative of the power evaluated by the exact
    rule.  Pure gamma arithmetic; should vanish to round-off.
    """
    if not 0 < nu <= 1:
        raise DomainError("nu must lie in (0, 1]")
    if eta <= 1.0 - mu or eta - nu <= 1.0 - mu:
        raise StripError("eta and eta-nu must exceed 1-mu")
    lhs = gamma_fn(eta) / gamma_fn(eta - nu) * t ** (eta - nu - 1.0) * gamma_fn(eta + mu - 1.0) / gamma_fn(mu)
    rhs = (
        gamma_fn(eta)
        / gamma_fn(eta - nu)
        * gamma_fn(eta + mu - 1.0)
        / gamma_fn(eta + mu - 1.0 - nu)
        * (t ** (eta - nu - 1.0) * gamma_fn(eta - nu + mu - 1.0) / gamma_fn(mu))
    )
    return abs(lhs - rhs)


def double_laplace_residual(nu: float, beta: float, xi: float, lam: float) -> float:
    """|numerical double Laplace transform of the mixed time law - closed
    symbol lam^(beta-1) / (lam^beta + xi^nu)|.

    The transform is computed as int_0^inf A(s) B(s) ds with A the space
    Laplace transform of the stable law at time s and B the time Laplace
    transform of the inverse law at space s, both by quadrature.
    """
    if not (xi > 0 and lam > 0):
        raise DomainError("transform variables must be positive")

    def a_of(s):
        # x = s^(1/nu) y keeps the unit-time stable profile fixed for every s
        c = s ** (1.0 / nu)
        return quad(
            lambda y: math.exp(-min(xi * c * y, 700.0)) * h_density(nu, y, 1.0),
            0.0,
            np.inf,
            epsabs=1e-10,
            epsrel=1e-8,
        )

    closed = lam ** (beta - 1.0) / (lam**beta + xi**nu)
    if beta == 1.0:
        num = quad(lambda s: math.exp(-lam * s) * a_of(s), 0.0, np.inf,
                   epsabs=1e-9, epsrel=1e-7, limit=100)
        return abs(num - closed)

    def b_of(s):
        # t = v / lam after self-similar reduction: the integrand keeps the
        # fixed envelope exp(-v) v^(-beta) for every s
        a_arg = s * lam**beta

        def g(v):
            return math.exp(-v) * v**-beta * l_density(beta, max(a_arg * v**-beta, 1e-290), 1.0)

        return lam ** (beta - 1.0) * quad(g, 0.0, np.inf, epsabs=1e-10, epsrel=1e-8)

    num = quad(lambda s: a_of(s) * b_of(s), -16.0, 34.0, log=True, epsabs=1e-8, epsrel=1e-6, limit=120)
    return abs(num - closed)
