"""Explicit probability laws and their multiplicative-convolution calculus.

Generalized gamma family, the one-sided stable law and its inverse, the
stable ratio law, mixed subordination laws, n-fold multiplicative (Mellin)
convolutions and the integer index sets of shape vectors.

An n-fold composition is fixed by the multiset of its shape indices: it is
invariant under permutation of mu, but two vectors of one product- or
sum-index class are in general different laws.  With gamma = -1 the chain
vector mu_j = j/(n+1) gives the one-sided stable law of index 1/(n+1) (the
'conv' route of h_density); with gamma = 1 it gives its reciprocal, scaled.

Every law here whose Mellin transform is a product of Gamma functions is an
H-function, evaluated by one Mellin-Barnes contour (`fox_h_eval`): the
stable and inverse laws (`h_fox`, `l_fox`), the n-fold composition
(`compose_fox`, for n >= 3) and the mixed law (`f_nu_beta_fox`).  The
nested adaptive quadrature that builds the same densities from their
factors is the tests' independent oracle (tests/quadrature_oracles.py).

`tabulate_density` is the one tabulation loop, for every named density.

Conventions.  The n-fold multiplicative convolution at composite time t is
the law of a product of n independent factors whose time arguments multiply
to t.  Composition chains are normalized so that the closed forms at
nu = 1/2 (one-sided stable and half-Gaussian) and the Bessel-K forms at
nu = 1/3 are reproduced exactly; the stretched times feeding a chain are

    phi_m(t) = (t/m)^m      for subordinator-type chains,
    psi_m(t) = m t^(1/m)    as composite time of inverse-type convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    StripError,
    UnsupportedMethodError,
)
from .mellin import FoxH, MellinStrip, fox_h_eval
from .specfun import bessel_k, gamma_fn, wright_w

__all__ = [
    "GGLaw",
    "MuVector",
    "TimeStretch",
    "gg_density",
    "gg_mellin",
    "gconv",
    "econv",
    "compose_fox",
    "compose_density",
    "compose_mellin",
    "compose_invariance_gap",
    "h_density",
    "h_mellin",
    "h_fox",
    "l_density",
    "l_mellin",
    "l_fox",
    "ratio_density",
    "f_nu_beta",
    "f_nu_beta_fox",
    "index_set",
    "resolve_method",
    "tabulate_density",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GGLaw:
    """Generalized gamma law with shape pair (gamma, mu), gamma != 0, mu > 0."""

    gamma: float
    mu: float

    def __post_init__(self):
        if self.gamma == 0:
            raise DomainError("gamma must be non-zero")
        if not self.mu > 0:
            raise DomainError("mu must be positive")


@dataclass(frozen=True)
class MuVector:
    """A vector of positive rationals upsilon_j / kappa."""

    entries: tuple
    kappa: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))
        if self.kappa < 1:
            raise DomainError("kappa must be a positive integer")
        if not self.entries:
            raise DomainError("entries must be non-empty")
        if any(e <= 0 for e in self.entries):
            raise DomainError("entries must be positive")

    @classmethod
    def from_integers(cls, upsilons, kappa: int) -> "MuVector":
        return cls(tuple(Fraction(int(u), int(kappa)) for u in upsilons), int(kappa))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def upsilons(self) -> tuple:
        ups = tuple(e * self.kappa for e in self.entries)
        if any(u.denominator != 1 for u in ups):
            raise DomainError("entries are not multiples of 1/kappa")
        return tuple(int(u) for u in ups)

    def in_product_set(self, target: int) -> bool:
        prod = 1
        for u in self.upsilons:
            prod *= u
        return prod == target

    def in_sum_set(self, target: int) -> bool:
        return sum(self.upsilons) == target

    def as_floats(self) -> np.ndarray:
        return np.array([float(e) for e in self.entries])

    def serialize(self) -> str:
        return ",".join(f"{u}/{self.kappa}" for u in self.upsilons)

    @classmethod
    def parse(cls, text: str) -> "MuVector":
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            fracs = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse mu vector {text!r}: {exc}") from None
        kappa = 1
        for f in fracs:
            kappa = kappa * f.denominator // math.gcd(kappa, f.denominator)
        return cls(tuple(fracs), kappa)


@dataclass(frozen=True)
class TimeStretch:
    """Time-stretching pair psi_m(s) = m s^(1/m) and its inverse phi_m."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("m must be >= 2")

    def psi(self, s: float) -> float:
        return self.m * s ** (1.0 / self.m)

    def phi(self, t: float) -> float:
        return (t / self.m) ** self.m


# ---------------------------------------------------------------------------
# generalized gamma family


def _check_xt(x: float, t: float):
    if not (x > 0 and t > 0):
        raise DomainError("x and t must be positive")


def gg_density(law: GGLaw, x: float, t: float, tilde: bool = False) -> float:
    """Density |g| z^(g*mu - 1) exp(-z^g) / (t Gamma(mu)) at z = x/t.

    With tilde=True the time argument is rescaled, t -> t^(1/gamma), so that
    the law carries Mellin scale t^((eta-1)/gamma).
    """
    _check_xt(x, t)
    g, mu = law.gamma, law.mu
    if tilde:
        t = t ** (1.0 / g)
    z = x / t
    expo = -(z**g) + (g * mu - 1.0) * math.log(z)
    if expo < -700.0:
        return 0.0
    return abs(g) / (t * gamma_fn(mu)) * math.exp(expo)


def gg_mellin(law: GGLaw, t: float, eta: float, tilde: bool = False) -> float:
    """Mellin transform of the generalized gamma law:

        Gamma((eta-1)/gamma + mu) / Gamma(mu) * t^s,

    with s = eta-1 for the plain law and s = (eta-1)/gamma for the tilde
    variant.  Requires (eta-1)/gamma + mu > 0.
    """
    g, mu = law.gamma, law.mu
    arg = (eta - 1.0) / g + mu
    if arg <= 0:
        raise StripError(f"eta={eta} outside the transform strip of ({g}, {mu})")
    s = (eta - 1.0) / g if tilde else eta - 1.0
    return gamma_fn(arg) / gamma_fn(mu) * t**s


# ---------------------------------------------------------------------------
# closed two-factor convolutions


def gconv(gamma: float, mu1: float, mu2: float, x: float, t: float) -> float:
    """Closed form of the mixed-sign product law (factor shapes (gamma, mu1)
    and (-gamma, mu2)) at composite time t:

        |gamma| / B(mu1, mu2) * x^(gamma mu1 - 1) t^(gamma mu2)
                               / (t^gamma + x^gamma)^(mu1+mu2).
    """
    _check_xt(x, t)
    from .specfun import beta_fn

    g = gamma
    log_val = (
        (g * mu1 - 1.0) * math.log(x)
        + g * mu2 * math.log(t)
        - (mu1 + mu2) * math.log(t**g + x**g)
    )
    return abs(g) / beta_fn(mu1, mu2) * math.exp(log_val)


def econv(gamma: float, mu1: float, mu2: float, x: float, t: float) -> float:
    """Closed form of the equal-sign product law at composite time t:

        2|gamma| (x^g/t^g)^((mu1+mu2)/2) K_{mu2-mu1}(2 sqrt(x^g/t^g))
            / (x Gamma(mu1) Gamma(mu2)).
    """
    _check_xt(x, t)
    g = gamma
    z = (x / t) ** g
    arg = 2.0 * math.sqrt(z)
    if arg > 1400.0:
        return 0.0
    return (
        2.0
        * abs(g)
        * z ** (0.5 * (mu1 + mu2))
        * bessel_k(mu2 - mu1, arg)
        / (x * gamma_fn(mu1) * gamma_fn(mu2))
    )


def compose_fox(gamma: float, mu) -> FoxH:
    """H-function object of the n-fold composition at unit time; kernel
    prod_j Gamma((eta-1)/gamma + mu_j) / Gamma(mu_j).

    For gamma > 0 every factor is a lower pair (mu_j - 1/gamma, 1/gamma) on
    the strip (1 - gamma min mu, inf); for gamma < 0 an upper pair
    (1 - mu_j - 1/|gamma|, 1/|gamma|) on (-inf, 1 + |gamma| min mu).
    """
    mus = mu.as_floats() if isinstance(mu, MuVector) else np.asarray(mu, dtype=float)
    n, g = len(mus), abs(gamma)
    prefactor = 1.0 / math.prod(gamma_fn(m) for m in mus)
    if gamma > 0:
        return FoxH(
            m=n, n=0, p=0, q=n,
            upper=(),
            lower=tuple((m - 1.0 / g, 1.0 / g) for m in mus),
            strip=MellinStrip(1.0 - g * min(mus), math.inf),
            prefactor=prefactor,
        )
    return FoxH(
        m=0, n=n, p=n, q=0,
        upper=tuple((1.0 - m - 1.0 / g, 1.0 / g) for m in mus),
        lower=(),
        strip=MellinStrip(-math.inf, 1.0 + g * min(mus)),
        prefactor=prefactor,
    )


def compose_density(gamma: float, mu, x: float, t: float) -> float:
    """n-fold multiplicative convolution of generalized gamma laws with common
    shape index `gamma` and shape vector `mu`, at composite time t.

    n = 1 is the plain law and n = 2 the closed Bessel-K form.  For n >= 3
    the H-function of `compose_fox` is evaluated at x/t, at any depth.
    """
    mus = mu.as_floats() if isinstance(mu, MuVector) else np.asarray(mu, dtype=float)
    n = len(mus)
    _check_xt(x, t)
    if n == 1:
        return gg_density(GGLaw(gamma, mus[0]), x, t)
    if n == 2:
        return econv(gamma, mus[0], mus[1], x, t)
    return fox_h_eval(compose_fox(gamma, mus), x / t) / t


def compose_mellin(gamma: float, mu, t: float, eta: float) -> float:
    """Mellin transform of the n-fold composition:
    t^(eta-1) prod_j Gamma((eta-1)/gamma + mu_j) / Gamma(mu_j)."""
    mus = mu.as_floats() if isinstance(mu, MuVector) else np.asarray(mu, dtype=float)
    out = t ** (eta - 1.0)
    for m in mus:
        arg = (eta - 1.0) / gamma + m
        if arg <= 0:
            raise StripError(f"eta={eta} outside the composition strip")
        out *= gamma_fn(arg) / gamma_fn(m)
    return out


def compose_invariance_gap(mu1: MuVector, mu2: MuVector, xs, ts, gamma: float = 1.0) -> float:
    """sup over the (x, t) grid of |composition(mu1) - composition(mu2)|.

    Both vectors must have equal length and kappa and lie in the same
    product-index class.  That check is a membership guard, not an
    equivalence: the gap vanishes for permutations of one vector, while
    other members of a class, such as (1,2,3,4)/5 and (24,1,1,1)/5, have
    different laws and a non-zero gap.
    """
    if mu1.n != mu2.n or mu1.kappa != mu2.kappa:
        raise DomainError("vectors must share length and kappa")
    p1 = np.prod(mu1.upsilons)
    if not mu2.in_product_set(int(p1)):
        raise DomainError("vectors lie in different product classes")
    worst = 0.0
    for x in np.atleast_1d(xs):
        for t in np.atleast_1d(ts):
            a = compose_density(gamma, mu1, float(x), float(t))
            b = compose_density(gamma, mu2, float(x), float(t))
            worst = max(worst, abs(a - b))
    return worst


# ---------------------------------------------------------------------------
# one-sided stable law, its inverse, ratio and mixed laws


def _chain_order(nu: float) -> int:
    n = round(1.0 / nu) - 1
    if n < 1 or abs(nu - 1.0 / (n + 1)) > 1e-12:
        raise UnsupportedMethodError(f"nu={nu} is not of the form 1/(n+1)")
    return n


_AUTO_FALLBACK = {"h": "foxh", "l": "wright"}


def resolve_method(law: str, nu: float, method: str = "auto") -> str:
    """The route that h_density (law 'h') or l_density (law 'l') runs for
    `method` at index nu.  'auto' takes 'closed' at nu = 1/2, 'conv' at
    nu = 1/(n+1), and otherwise 'foxh' for h and 'wright' for l; any other
    method is returned as given."""
    if method != "auto":
        return method
    if nu == 0.5:
        return "closed"
    try:
        _chain_order(nu)
        return "conv"
    except UnsupportedMethodError:
        return _AUTO_FALLBACK[law]


def h_fox(nu: float) -> FoxH:
    """H-function object whose evaluation is the one-sided stable density at
    unit time; kernel Gamma((1-eta)/nu) / (nu Gamma(1-eta))."""
    return FoxH(
        m=0,
        n=1,
        p=1,
        q=1,
        upper=((1.0 - 1.0 / nu, 1.0 / nu),),
        lower=((0.0, 1.0),),
        strip=MellinStrip(-math.inf, 1.0),
        prefactor=1.0 / nu,
    )


def l_fox(nu: float) -> FoxH:
    """H-function object for the inverse law at unit time;
    kernel Gamma(eta) / Gamma(eta nu - nu + 1)."""
    return FoxH(
        m=1,
        n=0,
        p=1,
        q=1,
        upper=((1.0 - nu, nu),),
        lower=((0.0, 1.0),),
        strip=MellinStrip(0.0, math.inf),
        prefactor=1.0,
    )


def h_density(nu: float, x: float, t: float, method: str = "auto") -> float:
    """Density of the one-sided (totally positively skewed) stable law of
    index nu with Laplace transform exp(-t lambda^nu).

    Methods: 'closed' (nu = 1/2 only), 'conv' (nu = 1/(n+1), built from the
    inverse-gamma composition at stretched time phi_{n+1}(t), a closed form
    for n <= 2 and the composition contour beyond, at any n), 'foxh'
    (any nu in (0, 1), Mellin-Barnes contour of the stable kernel).
    """
    if not 0 < nu < 1:
        raise DomainError("h_density requires nu in (0, 1)")
    _check_xt(x, t)
    method = resolve_method("h", nu, method)
    if method == "closed":
        if abs(nu - 0.5) > 1e-12:
            raise UnsupportedMethodError("closed form available only for nu=1/2")
        expo = -t * t / (4.0 * x)
        if expo < -700.0:
            return 0.0
        return t / (2.0 * math.sqrt(math.pi)) * x**-1.5 * math.exp(expo)
    if method == "conv":
        n = _chain_order(nu)
        mus = [(j + 1) * nu for j in range(n)]
        return compose_density(-1.0, mus, x, TimeStretch(n + 1).phi(t))
    if method == "foxh":
        scale = t ** (1.0 / nu)
        return fox_h_eval(h_fox(nu), x / scale) / scale
    raise UnsupportedMethodError(f"unknown method {method!r} for h_density")


def h_mellin(nu: float, t: float, eta: float) -> float:
    """Mellin transform Gamma((1-eta)/nu) t^((eta-1)/nu) / (nu Gamma(1-eta))."""
    if eta >= 1.0:
        raise StripError("transform valid for eta < 1")
    return gamma_fn((1.0 - eta) / nu) * t ** ((eta - 1.0) / nu) / (nu * gamma_fn(1.0 - eta))


def l_density(nu: float, x: float, t: float, method: str = "auto") -> float:
    """Density of the inverse (hitting-time) law of the nu-stable subordinator.

    Methods: 'closed' (nu = 1/2), 'conv' (nu = 1/(n+1), gamma-power
    composition at stretched composite time psi_{n+1}(t), a closed form for
    n <= 2 and the composition contour beyond, at any n), 'wright'
    (t^-nu W_{-nu,1-nu}(-x t^-nu)), 'foxh'.
    """
    if not 0 < nu < 1:
        raise DomainError("l_density requires nu in (0, 1)")
    _check_xt(x, t)
    method = resolve_method("l", nu, method)
    if method == "closed":
        if abs(nu - 0.5) > 1e-12:
            raise UnsupportedMethodError("closed form available only for nu=1/2")
        expo = -x * x / (4.0 * t)
        if expo < -700.0:
            return 0.0
        return math.exp(expo) / math.sqrt(math.pi * t)
    if method == "conv":
        n = _chain_order(nu)
        mus = [(j + 1) * nu for j in range(n)]
        return compose_density(n + 1.0, mus, x, TimeStretch(n + 1).psi(t))
    if method == "wright":
        return t**-nu * wright_w(-nu, 1.0 - nu, -x * t**-nu)
    if method == "foxh":
        scale = t**nu
        return fox_h_eval(l_fox(nu), x / scale) / scale
    raise UnsupportedMethodError(f"unknown method {method!r} for l_density")


def l_mellin(nu: float, t: float, eta: float) -> float:
    """Mellin transform Gamma(eta) t^(nu(eta-1)) / Gamma(eta nu - nu + 1)."""
    if eta <= 0.0:
        raise StripError("transform valid for eta > 0")
    return gamma_fn(eta) * t ** (nu * (eta - 1.0)) / gamma_fn(eta * nu - nu + 1.0)


def ratio_density(nu: float, x: float) -> float:
    """Density of the ratio of two independent one-sided stable laws:

        x^(nu-1) sin(pi nu) / (pi (1 + 2 x^nu cos(pi nu) + x^(2 nu))).
    """
    if not 0 < nu < 1:
        raise DomainError("ratio_density requires nu in (0, 1)")
    if x < 0:
        raise DomainError("x must be non-negative")
    if x == 0.0:
        return 0.0
    xn = x**nu
    return (
        x ** (nu - 1.0)
        * math.sin(math.pi * nu)
        / (math.pi * (1.0 + 2.0 * xn * math.cos(math.pi * nu) + xn * xn))
    )


def f_nu_beta_fox(nu: float, beta: float) -> FoxH:
    """H-function object of the mixed law at unit time; kernel

        Gamma((1-eta)/nu) / (nu Gamma(1-eta)) * Gamma((eta-1)/nu + 1)
                                              / Gamma(beta (eta-1)/nu + 1)

    on the strip (1 - nu, 1): the h-kernel times the inverse-law moment of
    order (eta-1)/nu."""
    return FoxH(
        m=1,
        n=1,
        p=2,
        q=2,
        upper=((1.0 - 1.0 / nu, 1.0 / nu), (1.0 - beta / nu, beta / nu)),
        lower=((1.0 - 1.0 / nu, 1.0 / nu), (0.0, 1.0)),
        strip=MellinStrip(1.0 - nu, 1.0),
        prefactor=1.0 / nu,
    )


def f_nu_beta(nu: float, beta: float, x: float, t: float) -> float:
    """Density of the nu-stable subordinator run at an independent
    beta-inverse time: int_0^inf h_nu(x, s) l_beta(s, t) ds.

    Evaluates the H-function of `f_nu_beta_fox` at x / t^(beta/nu).
    Degenerate ends: beta = 1 gives the plain stable law, nu = 1 the plain
    inverse law, which alone is positive at x = 0.
    """
    if not (0 < nu <= 1 and 0 < beta <= 1):
        raise DomainError("indices must lie in (0, 1]")
    if x < 0 or t <= 0:
        raise DomainError("need x >= 0, t > 0")
    if nu == 1.0 and beta == 1.0:
        return math.nan  # point mass at x = t has no density
    if nu == 1.0:
        return l_density(beta, x, t) if x > 0 else l_density(beta, 1e-300, t)
    if x == 0.0:
        return 0.0
    if beta == 1.0:
        return h_density(nu, x, t)
    scale = t ** (beta / nu)
    return fox_h_eval(f_nu_beta_fox(nu, beta), x / scale) / scale


def index_set(kind: str, n: int, kappa: int, target: int) -> list:
    """All vectors (u_1/kappa, ..., u_n/kappa) with positive integer u_j whose
    product ('P') or sum ('S') equals `target`, in lexicographic order."""
    if n < 1 or kappa < 1 or target < 1:
        raise DomainError("n, kappa, target must be positive integers")
    results = []

    def rec_product(prefix, remaining, slots):
        if slots == 0:
            if remaining == 1:
                results.append(tuple(prefix))
            return
        if slots == 1:
            results.append(tuple(prefix + [remaining]))
            return
        for d in range(1, remaining + 1):
            if remaining % d == 0:
                rec_product(prefix + [d], remaining // d, slots - 1)

    def rec_sum(prefix, remaining, slots):
        if slots == 1:
            if remaining >= 1:
                results.append(tuple(prefix + [remaining]))
            return
        for v in range(1, remaining - slots + 2):
            rec_sum(prefix + [v], remaining - v, slots - 1)

    if kind == "P":
        rec_product([], target, n)
    elif kind == "S":
        rec_sum([], target, n)
    else:
        raise DomainError("kind must be 'P' or 'S'")
    return [MuVector.from_integers(ups, kappa) for ups in sorted(results)]


# ---------------------------------------------------------------------------
# tabulation


def _route(name: str, p: dict) -> str:
    """The route a table of density `name` runs, for its method column."""
    if name in ("h", "l"):
        return resolve_method(name, p["nu"], p.get("method", "auto"))
    if name == "g_nu_beta":
        return p.get("route", "double_integral")
    return name


def _solvers():
    from . import solvers  # imported late: solvers imports this module

    return solvers


_DENSITIES = {
    "gg": lambda p, x, t: gg_density(GGLaw(p["gamma"], float(p["mu"])), x, t, tilde=bool(p.get("tilde", 0))),
    "h": lambda p, x, t: h_density(p["nu"], x, t, p.get("method", "auto")),
    "l": lambda p, x, t: l_density(p["nu"], x, t, p.get("method", "auto")),
    "f_ratio": lambda p, x, t: ratio_density(p["nu"], x / t) / t,
    "f_nu_beta": lambda p, x, t: f_nu_beta(p["nu"], p["beta"], x, t),
    "compose": lambda p, x, t: compose_density(p["gamma"], MuVector.parse(str(p["mu"])), x, t),
    "g_nu_beta": lambda p, x, t: _solvers().space_fractional_density(
        float(p.get("mu", 1.0)), p.get("nu", 0.5), p.get("beta", 1.0), x, t, _route("g_nu_beta", p)),
    "u_time_frac": lambda p, x, t: _solvers().time_fractional_solution(
        p.get("gamma", 1.0), float(p.get("mu", 1.0)), p.get("nu", 0.5), x, t),
}


def tabulate_density(name: str, params: dict, xs, ts) -> list:
    """Rows (x, t, value, method) for a named density over a grid, each value
    checked finite and non-negative.  The method column names the route that
    ran for h, l and g_nu_beta, and the density otherwise."""
    if name not in _DENSITIES:
        raise DomainError(f"unknown density {name!r}")
    fn = _DENSITIES[name]
    method = _route(name, params)
    rows = []
    for t in np.atleast_1d(ts):
        for x in np.atleast_1d(xs):
            v = fn(params, float(x), float(t))
            if not (math.isfinite(v) and v >= -1e-12):
                raise ConvergenceError(f"non-finite or negative density at ({x}, {t})")
            rows.append((float(x), float(t), v, method))
    return rows
