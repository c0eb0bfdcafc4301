"""Solution operators for the fractional diffusion problems.

The subordination solution on the half-line (an H-function; its
subordination integral is the tests' quadrature oracle), the Bessel
eigenfunction series on the unit interval, the fractional power of the
adjoint generator, the mixed space-fractional density with its two
evaluation routes and its Mellin transform (both read from the kernel of
`space_fractional_fox`), and residual checks of the governing Mellin/Laplace
identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentTailError, DomainError, StripError, UnsupportedMethodError
from .frac_calc import GridFunction, _grid_right_alg_integral
from .laws import (
    GGLaw,
    _law_density,
    _law_mellin,
    f_nu_beta,
    f_nu_beta_fox,
    gg_density,
    gg_fox,
    h_density,
    l_density,
    l_fox,
    ratio_density,
)
from .mellin import FoxH, fox_power, fox_product, quad
from .specfun import MLParams, bessel_j, bessel_j_zeros, gamma_fn, mittag_leffler, sp

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
# subordination on the half-line


@lru_cache(maxsize=256)
def time_fractional_fox(gamma: float, mu: float, nu: float) -> FoxH:
    """H-function object of the time-fractional solution at unit scale: the
    generalized gamma law (gamma, mu) times the 1/gamma-th power of the
    nu-inverse law; kernel Gamma(s + mu)/Gamma(mu) * Gamma(s + 1)/Gamma(nu s + 1)
    with s = (eta-1)/gamma."""
    return fox_product(gg_fox(gamma, mu), fox_power(l_fox(nu), 1.0 / gamma))


def time_fractional_solution(gamma: float, mu: float, nu: float, x: float, t: float) -> float:
    """Solution of the time-fractional Cauchy problem on (0, inf) with a point
    initial datum: the tilde-scaled generalized gamma law run at the inverse
    subordinator time, int_0^inf g~(x, s) l_nu(s, t) ds.

    Evaluates the H-function of `time_fractional_fox` at x / t^(nu/gamma).
    At nu = 1 the inverse time collapses to the identity and the law itself
    is returned.
    """
    if not 0 < nu <= 1:
        raise DomainError("nu must lie in (0, 1]")
    law = GGLaw(gamma, mu)
    if nu == 1.0:
        return gg_density(law, x, t, tilde=True)
    if not (x > 0 and t > 0):
        raise DomainError("x and t must be positive")
    return _law_density(time_fractional_fox(gamma, mu, nu), nu / gamma, x, t)


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


def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1-t)^(-a)
    on [-1, 1], by Golub-Welsch on the Jacobi matrix of P^(-a, 0).  It agrees
    with scipy's roots_jacobi, but numpy's eigh does not page in
    scipy.linalg's LAPACK, which adds about 0.6 MB to the resident set
    (scipy 1.17, x86-64 Linux)."""
    k = np.arange(n)
    c = 2.0 * k - a
    diag = -a * a / (c * (c + 2.0))
    k, c = k[1:], c[1:]
    off = np.sqrt(4.0 * k * k * (k - a) ** 2 / (c * c * (c + 1.0) * (c - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, 2.0 ** (1.0 - a) / (1.0 - a) * v[0] ** 2


def fractional_power_operator(mu: float, nu: float, f: GridFunction, n_mesh: int = 192):
    """Callable x -> -(outer left derivative of order nu applied to
    x^(mu-1+nu) times the right derivative of order nu of x^(1-mu) f).

    This is the fractional power of (minus) the adjoint generator for unit
    shape index.  The inner right derivative is tabulated on a geometric
    mesh spanning the grid of f, by one call of the array-valued grid kernel
    after the tail check of `rl_right`.  The kernel integrates the derivative
    of x^(1-mu) f, taken by the product rule from the cached spline
    derivative of f, so no spline of x^(1-mu) f is built.  The inner stage is
    interpolated by a cubic spline S in u = log s (the outer derivative needs
    a C^1 integrand to keep its accuracy as nu -> 1).  The spline continues
    as a power law v0 (s/s0)^p below the mesh and as zero beyond it.

    The outer stage is a fixed product rule on the derivative form
    D^nu m(x) = [m(0+) x^-nu + int_0^x (x-s)^-nu m'(s) ds] / Gamma(1-nu),
    with m'(s) ds = S'(u) du: Gauss-Legendre in u on the whole mesh segments
    below x, Gauss-Jacobi with weight (x-s)^-nu on the last stretch, which
    holds the singular end and starts at least one segment below x, and
    v0 x^-nu 2F1(nu, p; p+1; s0/x) in closed form for the power-law head with
    its m(0+) term (valid for p > -1).  Nodes and weights are built once, and
    no adaptive quadrature runs.  Past the point where the middle stage
    has decayed, the operator continues with its algebraic tail, whose
    moments come from the same Gauss-Legendre rule.
    """
    if not 0 < nu < 1:
        raise DomainError("nu must lie in (0, 1)")
    from scipy.interpolate import CubicSpline

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
    spline = CubicSpline(u, mid_vals)
    if mid_vals[0] > 0 and mid_vals[1] > 0:
        head_pow = (math.log(mid_vals[1]) - math.log(mid_vals[0])) / (u[1] - u[0])
    else:
        head_pow = 1.0
    if not head_pow > -1.0:
        raise DomainError(f"the middle stage grows like s^{head_pow:.3g} at 0 and is not integrable")

    # Gauss-Legendre nodes in u on every mesh segment (one row per segment)
    half = 0.5 * np.diff(u)[:, None]
    uq = u[:-1, None] + half * (_GL_T + 1.0)
    sq = np.exp(uq)
    wq = half * _GL_W
    slope_w = wq * spline(uq, 1)
    tj, wj = _gauss_jacobi(_RULE_NODES, nu)

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
        mass_w = wq * spline(uq) * sq
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
        if not mesh[0] < x < mesh[-1]:
            raise DomainError("x outside the tabulated range of the operator")
        j = int(np.searchsorted(mesh, x)) - 1  # mesh[j] < x <= mesh[j + 1]
        if j > 0 and x - mesh[j] < mesh[j] - mesh[j - 1]:
            # the kernel's singularity sits just past segment j - 1, where its
            # Gauss-Legendre rule loses accuracy: the last stretch takes it too
            j -= 1
        head = mid_vals[0] * x**-nu * sp.hyp2f1(nu, head_pow, head_pow + 1.0, mesh[0] / x)
        body = np.sum(slope_w[:j] * (x - sq[:j]) ** -nu)
        hw = 0.5 * (x - mesh[j])
        s = mesh[j] + hw * (tj + 1.0)
        last = hw ** (1.0 - nu) * (wj @ (spline(np.log(s), 1) / s))
        return -float(head + body + last) / gam

    return apply


# ---------------------------------------------------------------------------
# the mixed space-fractional density and its transform


@lru_cache(maxsize=256)
def space_fractional_fox(mu: float, nu: float, beta: float) -> FoxH:
    """H-function object of the self-similar profile of the mixed law at unit
    time: a gamma draw of shape mu times the mixed law of `f_nu_beta_fox`."""
    return fox_product(gg_fox(1.0, mu), f_nu_beta_fox(nu, beta))


def space_fractional_mellin(mu: float, nu: float, beta: float, eta: float, t: float) -> float:
    """Mellin transform of the mixed law at time t: the kernel of
    `space_fractional_fox` times t^(beta (eta-1)/nu).  Outside the kernel's
    strip, (max(1-mu, 1-nu), 1) for nu < 1 and (max(1-mu, 0), inf) at
    nu = 1, it raises StripError."""
    return _law_mellin(space_fractional_fox(mu, nu, beta), beta / nu, t, eta)


def space_fractional_density(
    mu: float, nu: float, beta: float, x: float, t: float, route: str = "foxh"
) -> float:
    """Density of a gamma draw of shape mu run at the mixed subordinated time,
    solving the space-fractional evolution problem.

    Routes: 'foxh' (self-similar profile via the H-function object, at every
    nu and beta) and 'double_integral' (quadrature of the gamma law against
    `f_nu_beta`, or the ratio law at nu = beta; it can fail at nu = 1).
    """
    if route not in ("double_integral", "foxh"):
        raise UnsupportedMethodError(f"unknown route {route!r}")
    if not (x > 0 and t > 0):
        raise DomainError("x and t must be positive")
    if not (0 < nu <= 1 and 0 < beta <= 1):
        raise DomainError("indices must lie in (0, 1]")
    if nu == 1.0 and beta == 1.0:
        return gg_density(GGLaw(1.0, mu), x, t)
    if route == "double_integral":
        law = GGLaw(1.0, mu)
        if nu == beta:

            def mix(s):
                return ratio_density(nu, s / t) / t

        else:

            def mix(s):
                return f_nu_beta(nu, beta, s, t)

        return quad(lambda s: gg_density(law, x, s) * mix(s), -45.0, 45.0, log=True, epsrel=1e-8)
    return _law_density(space_fractional_fox(mu, nu, beta), beta / nu, x, t)


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
