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
H-function, evaluated by one Mellin-Barnes contour (`fox_h_eval`).  Each is
the law of a product of powers of independent variates, so its kernel is
built from three primitives, the generalized gamma, stable and inverse laws
(`gg_fox`, `h_fox`, `l_fox`), by `fox_product` and `fox_power`: the n-fold
composition (`compose_fox`, for n >= 3) is a product of generalized gamma
laws, and the mixed law (`f_nu_beta_fox`) the stable law times a power of
the inverse law.  The solutions of the time- and space-fractional problems
are such laws too (`time_fractional_fox`, `space_fractional_fox`).  At nu = 1
the stable law is the point mass at 1, the unit of the product, so the mixed
law at nu = 1 is the inverse law.  A law at time t is t^a X for the unit-time
variate X of its kernel, so its contour density and its Mellin transform
(`gg_mellin`, `compose_mellin`, `h_mellin`, `l_mellin`) both come from the
pair (kernel, a).  The kernel constructors are memoized, so a contour
evaluation reaches the contour cache without building a kernel.  The nested
adaptive quadrature that builds the same densities from their factors, and
the hand-written Gamma-product transforms, are the tests' independent
oracles (tests/quadrature_oracles.py, tests/test_mellin.py).

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
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    UnsupportedMethodError,
)
from .mellin import FoxH, MellinStrip, fox_h_eval, fox_h_mellin, fox_power, fox_product, quad
from .specfun import bessel_k, beta_fn, gamma_fn, wright_w

__all__ = [
    "GGLaw",
    "MuVector",
    "TimeStretch",
    "gg_density",
    "gg_mellin",
    "gconv",
    "econv",
    "gg_fox",
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
    "time_fractional_fox",
    "time_fractional_solution",
    "space_fractional_fox",
    "space_fractional_mellin",
    "space_fractional_density",
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


# A law at time t is t^a X, with X the unit-time variate of its kernel k: its
# density is k's H-function at x/t^a over t^a, and its transform k's kernel
# times t^(a(eta-1)).  Every contour density and transform goes through these.


def _law_density(k: FoxH, a: float, x: float, t: float) -> float:
    scale = t**a
    return fox_h_eval(k, x / scale) / scale


def _law_mellin(k: FoxH, a: float, t: float, eta: float) -> float:
    return fox_h_mellin(k, eta) * t ** (a * (eta - 1.0))


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
    # Gamma(mu) enters the exponent as its log: past mu = 171 it overflows,
    # and so does exp of the rest, where the density itself is finite
    expo = -(z**g) + (g * mu - 1.0) * math.log(z) - math.lgamma(mu)
    if expo < -700.0:
        return 0.0
    return abs(g) / t * math.exp(expo)


def gg_mellin(law: GGLaw, t: float, eta: float, tilde: bool = False) -> float:
    """Mellin transform of the generalized gamma law at time t: the kernel of
    `gg_fox` times t^(eta-1), or t^((eta-1)/gamma) for the tilde variant.
    Outside the strip (eta-1)/gamma + mu > 0 it raises StripError."""
    return _law_mellin(gg_fox(law.gamma, law.mu), 1.0 / law.gamma if tilde else 1.0, t, eta)


# ---------------------------------------------------------------------------
# closed two-factor convolutions


def gconv(gamma: float, mu1: float, mu2: float, x: float, t: float) -> float:
    """Closed form of the mixed-sign product law (factor shapes (gamma, mu1)
    and (-gamma, mu2)) at composite time t:

        |gamma| / B(mu1, mu2) * x^(gamma mu1 - 1) t^(gamma mu2)
                               / (t^gamma + x^gamma)^(mu1+mu2).
    """
    _check_xt(x, t)
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


@lru_cache(maxsize=256)
def gg_fox(gamma: float, mu: float) -> FoxH:
    """H-function object of the generalized gamma law at unit time; kernel
    Gamma((eta-1)/gamma + mu) / Gamma(mu) on the strip where its argument is
    positive.  Gamma(mu) is a constant factor, not a prefactor, so that the
    kernel stays finite past mu = 171, where Gamma(mu) overflows."""
    return FoxH(((mu - 1.0 / gamma, 1.0 / gamma),), ((mu, 0.0),),
                MellinStrip(*sorted((1.0 - gamma * mu, math.copysign(math.inf, gamma)))))


def compose_fox(gamma: float, mu) -> FoxH:
    """H-function object of the n-fold composition at unit time: the product
    of the generalized gamma laws (gamma, mu_j)."""
    mus = mu.as_floats() if isinstance(mu, MuVector) else np.asarray(mu, dtype=float)
    return _compose_fox(float(gamma), tuple(float(m) for m in mus))


@lru_cache(maxsize=256)
def _compose_fox(gamma: float, mus: tuple) -> FoxH:
    return fox_product(*(gg_fox(gamma, m) for m in mus))


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
    return _law_density(compose_fox(gamma, mus), 1.0, x, t)


def compose_mellin(gamma: float, mu, t: float, eta: float) -> float:
    """Mellin transform of the n-fold composition at time t: the kernel of
    `compose_fox` times t^(eta-1)."""
    return _law_mellin(compose_fox(gamma, mu), 1.0, t, eta)


def compose_invariance_gap(mu1: MuVector, mu2: MuVector, xs, ts) -> float:
    """sup over the (x, t) grid of |composition(mu1) - composition(mu2)|, at
    shape index gamma = 1.

    Both vectors must have equal length and kappa and lie in the same
    product-index class.  That check is a membership guard, not an
    equivalence: the gap vanishes for permutations of one vector, while
    other members of a class, such as (1,2,3,4)/5 and (24,1,1,1)/5, have
    different laws and a non-zero gap.
    """
    if mu1.n != mu2.n or mu1.kappa != mu2.kappa:
        raise DomainError("vectors must share length and kappa")
    if not mu2.in_product_set(math.prod(mu1.upsilons)):
        raise DomainError("vectors lie in different product classes")
    worst = 0.0
    for x in np.atleast_1d(xs):
        for t in np.atleast_1d(ts):
            a = compose_density(1.0, mu1, float(x), float(t))
            b = compose_density(1.0, mu2, float(x), float(t))
            worst = max(worst, abs(a - b))
    return worst


# ---------------------------------------------------------------------------
# one-sided stable law, its inverse, ratio and mixed laws


# The named routes of each law, in the order 'auto' tries them: h_density
# ('h'), l_density ('l') and space_fractional_density ('g_nu_beta').
_ROUTES = {
    "h": ("closed", "conv", "foxh"),
    "l": ("closed", "conv", "wright", "foxh"),
    "g_nu_beta": ("foxh", "double_integral"),
}


def _serves(route: str, nu: float) -> bool:
    """Whether `route` answers at index nu: 'closed' at nu = 1/2 and 'conv'
    at nu = 1/(n+1), n >= 1, each to within 1e-12; every other route at every nu.
    'conv' serves no nan, nu <= 0 or nu too small for a finite 1/nu."""
    if route == "closed":
        return abs(nu - 0.5) <= 1e-12
    if route == "conv":
        if not nu > 1e-300:
            return False
        n = round(1.0 / nu) - 1
        return n >= 1 and abs(nu - 1.0 / (n + 1)) <= 1e-12
    return True


@lru_cache(maxsize=256)
def resolve_method(law: str, nu: float, method: str = "auto") -> str:
    """The route that law 'h' (h_density), 'l' (l_density) or 'g_nu_beta'
    (space_fractional_density) runs for `method` at index nu, the one place
    a route is chosen and checked.  'auto' takes the first route of the law's
    `_ROUTES` that serves nu; a named route that does not serve nu, or is not
    in the law's table, raises UnsupportedMethodError.  Memoized, so that a
    density's dispatch costs one cache lookup, not the route tests."""
    routes = _ROUTES[law]
    if method == "auto":
        for route in routes:
            if _serves(route, nu):
                return route
    if method not in routes:
        raise UnsupportedMethodError(f"unknown route {method!r} for {law}")
    if not _serves(method, nu):
        raise UnsupportedMethodError(f"route {method!r} does not serve nu={nu}")
    return method


@lru_cache(maxsize=256)
def h_fox(nu: float) -> FoxH:
    """H-function object whose evaluation is the one-sided stable density at
    unit time; kernel Gamma((1-eta)/nu) / (nu Gamma(1-eta)) on (-inf, 1).
    At nu = 1 the law is the point mass at 1, which has no density: its
    kernel is 1 on the whole line, the unit of `fox_product`, so that a
    product law closes its nu = 1 end without a branch of its own."""
    if nu == 1.0:
        return FoxH((), (), MellinStrip(-math.inf, math.inf))
    return FoxH(((1.0 / nu, -1.0 / nu),), ((1.0, -1.0),), MellinStrip(-math.inf, 1.0), 1.0 / nu)


@lru_cache(maxsize=256)
def l_fox(nu: float) -> FoxH:
    """H-function object for the inverse law at unit time;
    kernel Gamma(eta) / Gamma(eta nu - nu + 1) on (0, inf)."""
    return FoxH(((0.0, 1.0),), ((1.0 - nu, nu),), MellinStrip(0.0, math.inf))


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
        expo = -t * t / (4.0 * x)
        if expo < -700.0:
            return 0.0
        return t / (2.0 * math.sqrt(math.pi)) * x**-1.5 * math.exp(expo)
    if method == "conv":
        n = round(1.0 / nu) - 1
        mus = [(j + 1) * nu for j in range(n)]
        return compose_density(-1.0, mus, x, TimeStretch(n + 1).phi(t))
    return _law_density(h_fox(nu), 1.0 / nu, x, t)


def h_mellin(nu: float, t: float, eta: float) -> float:
    """Mellin transform of the stable law at time t: the kernel of `h_fox`
    times t^((eta-1)/nu), for eta < 1."""
    return _law_mellin(h_fox(nu), 1.0 / nu, t, eta)


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
        expo = -x * x / (4.0 * t)
        if expo < -700.0:
            return 0.0
        return math.exp(expo) / math.sqrt(math.pi * t)
    if method == "conv":
        n = round(1.0 / nu) - 1
        mus = [(j + 1) * nu for j in range(n)]
        return compose_density(n + 1.0, mus, x, TimeStretch(n + 1).psi(t))
    if method == "wright":
        return t**-nu * wright_w(-nu, 1.0 - nu, -x * t**-nu)
    return _law_density(l_fox(nu), nu, x, t)


def l_mellin(nu: float, t: float, eta: float) -> float:
    """Mellin transform of the inverse law at time t: the kernel of `l_fox`
    times t^(nu(eta-1)), for eta > 0."""
    return _law_mellin(l_fox(nu), nu, t, eta)


def ratio_density(nu: float, x: float) -> float:
    """Density of the ratio of two independent one-sided stable laws:

        x^(nu-1) sin(pi nu) / (pi (1 + 2 x^nu cos(pi nu) + x^(2 nu))),

    for x > 0; it is unbounded as x -> 0, so x = 0 raises.
    """
    if not 0 < nu < 1:
        raise DomainError("ratio_density requires nu in (0, 1)")
    if not x > 0:
        raise DomainError("ratio_density needs x > 0: it grows like x^(nu-1) as x -> 0")
    xn = x**nu
    return (
        x ** (nu - 1.0)
        * math.sin(math.pi * nu)
        / (math.pi * (1.0 + 2.0 * xn * math.cos(math.pi * nu) + xn * xn))
    )


@lru_cache(maxsize=256)
def f_nu_beta_fox(nu: float, beta: float) -> FoxH:
    """H-function object of the mixed law at unit time: the nu-stable law
    times the 1/nu-th power of the beta-inverse law.  At nu = 1 it is
    `l_fox(beta)`."""
    return fox_product(h_fox(nu), fox_power(l_fox(beta), 1.0 / nu))


def f_nu_beta(nu: float, beta: float, x: float, t: float) -> float:
    """Density of the nu-stable subordinator run at an independent
    beta-inverse time: int_0^inf h_nu(x, s) l_beta(s, t) ds.

    Evaluates the H-function of `f_nu_beta_fox` at x / t^(beta/nu).
    Degenerate ends: beta = 1 gives the plain stable law, which is 0 at
    x = 0, and nu = 1 the plain inverse law, which is positive there.  For
    nu, beta < 1 the density grows like x^(nu-1) as x -> 0, and x = 0 raises.
    """
    if not (0 < nu <= 1 and 0 < beta <= 1):
        raise DomainError("indices must lie in (0, 1]")
    if x < 0 or t <= 0:
        raise DomainError("need x >= 0, t > 0")
    if nu == 1.0 and beta == 1.0:
        return math.nan  # point mass at x = t has no density
    if nu == 1.0:
        return l_density(beta, x, t) if x > 0 else l_density(beta, 1e-300, t)
    if beta == 1.0:
        return h_density(nu, x, t) if x > 0 else 0.0
    if x == 0.0:
        raise DomainError("f_nu_beta is unbounded at x = 0 for nu, beta < 1: it grows like x^(nu-1)")
    return _law_density(f_nu_beta_fox(nu, beta), beta / nu, x, t)


def index_set(kind: str, n: int, kappa: int, target: int) -> list:
    """All vectors (u_1/kappa, ..., u_n/kappa) with positive integer u_j whose
    product ('P') or sum ('S') equals `target`, in lexicographic order: the
    index classes, e.g. P(4, 5, 24) with criterion 4's (1,2,3,4)/5, (24,1,1,1)/5."""
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
# the time-fractional solution: subordination on the half-line


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
    route = resolve_method("g_nu_beta", nu, route)
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
# tabulation


def _route(name: str, p: dict) -> str:
    """The route a table of density `name` runs, for its method column; h and
    l take theirs from the 'method' parameter, g_nu_beta from 'route'."""
    if name not in _ROUTES:
        return name
    key = "route" if name == "g_nu_beta" else "method"
    return resolve_method(name, p.get("nu", 0.5), p.get(key, "auto"))


_DENSITIES = {
    "gg": lambda p, x, t: gg_density(GGLaw(p["gamma"], float(p["mu"])), x, t, tilde=bool(p.get("tilde", 0))),
    "h": lambda p, x, t: h_density(p["nu"], x, t, p.get("method", "auto")),
    "l": lambda p, x, t: l_density(p["nu"], x, t, p.get("method", "auto")),
    "f_ratio": lambda p, x, t: ratio_density(p["nu"], x / t) / t,
    "f_nu_beta": lambda p, x, t: f_nu_beta(p["nu"], p["beta"], x, t),
    "compose": lambda p, x, t: compose_density(p["gamma"], MuVector.parse(str(p["mu"])), x, t),
    "g_nu_beta": lambda p, x, t: space_fractional_density(
        float(p.get("mu", 1.0)), p.get("nu", 0.5), p.get("beta", 1.0), x, t, p.get("route", "foxh")),
    "u_time_frac": lambda p, x, t: time_fractional_solution(
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
