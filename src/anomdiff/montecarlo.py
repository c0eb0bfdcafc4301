"""Exact marginal samplers and statistical verification helpers.

Gamma and inverse-gamma marginals, the Kanter construction for one-sided
stable variates, inverse-subordinator draws, nested composition chains, and
Kolmogorov-Smirnov distances for acceptance testing.  All samplers take an
explicit generator; identical (seed, stream_id) pairs reproduce identical
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError
from .laws import MuVector

__all__ = [
    "RngSpec",
    "CompositionChain",
    "sample_gamma",
    "sample_inv_gamma",
    "sample_subordinator",
    "sample_inverse_subordinator",
    "sample_chain",
    "ks_distance",
    "ks_two_sample",
    "moment_scaling_slope",
]


@dataclass(frozen=True)
class RngSpec:
    """Reproducible generator handle: a 64-bit seed plus a stream index."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _rng_of(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


def sample_gamma(mu: float, t, rng, size=None) -> np.ndarray | float:
    """Draws with gamma density of shape mu and scale t (the marginal of the
    non-negative squared-radius diffusion started at zero).  `t` may be an
    array, in which case one draw per entry is returned."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    rng = _rng_of(rng)
    t = np.asarray(t, dtype=float)
    if size is None and t.ndim > 0:
        size = t.shape
    return rng.gamma(mu, 1.0, size=size) * t


def sample_inv_gamma(mu: float, t, rng, size=None) -> np.ndarray | float:
    """Draws with inverse-gamma density of shape mu and scale t, realized as
    the reciprocal of a gamma draw with scale 1/t."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    rng = _rng_of(rng)
    t = np.asarray(t, dtype=float)
    if size is None and t.ndim > 0:
        size = t.shape
    return t / rng.gamma(mu, 1.0, size=size)


def sample_subordinator(nu: float, t, rng, size=None) -> np.ndarray | float:
    """One-sided stable draws with E exp(-lam X) = exp(-t lam^nu).

    Kanter construction: X = t^(1/nu) (A(U)/E)^((1-nu)/nu) with U uniform,
    E unit exponential and

        A(u) = [sin(nu pi u)^nu sin((1-nu) pi u)^(1-nu) / sin(pi u)]^(1/(1-nu)).
    """
    if not 0 < nu < 1:
        raise DomainError("nu must lie in (0, 1)")
    rng = _rng_of(rng)
    t = np.asarray(t, dtype=float)
    if size is None and t.ndim > 0:
        size = t.shape
    u = rng.uniform(0.0, 1.0, size=size)
    e = rng.standard_exponential(size=size)
    pu = math.pi * u
    log_a = (
        nu * np.log(np.sin(nu * pu))
        + (1.0 - nu) * np.log(np.sin((1.0 - nu) * pu))
        - np.log(np.sin(pu))
    ) / (1.0 - nu)
    core = np.exp((1.0 - nu) / nu * (log_a - np.log(e)))
    return t ** (1.0 / nu) * core


def sample_inverse_subordinator(nu: float, t, rng, size=None) -> np.ndarray | float:
    """Inverse-subordinator draws via the hitting-time identity
    P(L_t < x) = P(H_x > t) and self-similarity: L_t = (t / H_1)^nu in law."""
    h1 = sample_subordinator(nu, 1.0, rng, size=size)
    t = np.asarray(t, dtype=float)
    return (t / h1) ** nu


@dataclass(frozen=True)
class CompositionChain:
    """A nested composition equivalent in law to a stable or inverse draw.

    For a vector of length n the index is nu = 1/(n+1) and mu_vector must be
    a permutation of (1, ..., n)/(n+1): only those vectors give the stable or
    inverse law.  Other members of the product class P^n_{n+1}(n!), such as
    (1, 1, 6)/4, draw from a different law and are rejected.
    Subordinator chains nest inverse-gamma stages with innermost time
    (nu t)^(1/nu); inverse chains nest gamma stages with innermost time
    (n+1)^(n+1) t and take the nu-th power of the result.
    """

    kind: str
    mu_vector: MuVector
    t: float

    def __post_init__(self):
        if self.kind not in ("subordinator", "inverse"):
            raise DomainError("kind must be 'subordinator' or 'inverse'")
        if not self.t > 0:
            raise DomainError("t must be positive")
        n = self.mu_vector.n
        if sorted(self.mu_vector.entries) != [Fraction(j, n + 1) for j in range(1, n + 1)]:
            raise DomainError("mu_vector must be a permutation of (1, ..., n)/(n+1)")

    @property
    def nu(self) -> float:
        return 1.0 / (self.mu_vector.n + 1)


def sample_chain(chain: CompositionChain, rng, size=None) -> np.ndarray | float:
    """Draws from a nested composition chain (see CompositionChain)."""
    rng = _rng_of(rng)
    n = chain.mu_vector.n
    nu = chain.nu
    mus = chain.mu_vector.as_floats()
    if chain.kind == "subordinator":
        inner = (nu * chain.t) ** (1.0 / nu)
        s = np.full(size if size is not None else (), inner, dtype=float)
        for mu in reversed(mus):
            s = sample_inv_gamma(mu, s, rng)
        return s
    inner = (n + 1.0) ** (n + 1) * chain.t
    s = np.full(size if size is not None else (), inner, dtype=float)
    for mu in reversed(mus):
        s = sample_gamma(mu, s, rng)
    return s**nu


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_emp - F| against a
    monotone CDF callable (vectorized or scalar)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 1:
        raise DomainError("samples must be non-empty")

    def evaluate(points):
        try:
            return np.asarray(cdf(points), dtype=float)
        except (TypeError, ValueError):
            return np.array([cdf(v) for v in points], dtype=float)

    f = evaluate(x)
    # left limits matter when the reference law carries atoms
    f_left = evaluate(np.nextafter(x, -np.inf))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f_left - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def sample_mixed_time(nu: float, beta: float, t, rng, size=None):
    """Draws of the nu-stable subordinator run at an independent beta-inverse
    time (beta = 1 and nu = 1 degenerate to the plain laws)."""
    rng = _rng_of(rng)
    t = np.asarray(t, dtype=float)
    if beta == 1.0:
        s = np.broadcast_to(t, size if size is not None else t.shape).astype(float)
    else:
        s = sample_inverse_subordinator(beta, t, rng, size=size)
    if nu == 1.0:
        return s
    return sample_subordinator(nu, s, rng)


def moment_scaling_slope(
    mu: float,
    nu: float,
    beta: float,
    r: float,
    t_grid,
    rng,
    n_samples: int = 100_000,
) -> float:
    """Least-squares slope of log E[X_t^r] against log t, where X_t is a gamma
    draw of shape mu run at the mixed subordinated time.

    Divergence guard: the moment estimate must stabilize across sample-size
    doublings (n/4, n/2, n); systematic growth beyond 25 percent per doubling
    raises ConvergenceError.
    """
    if not r > 0:
        raise DomainError("r must be positive")
    rng = _rng_of(rng)
    t_grid = np.asarray(t_grid, dtype=float)
    logm = []
    for t in t_grid:
        s = sample_mixed_time(nu, beta, float(t), rng, size=n_samples)
        x = sample_gamma(mu, s, rng) ** r
        quarters = [
            float(np.mean(x[: n_samples // 4])),
            float(np.mean(x[: n_samples // 2])),
            float(np.mean(x)),
        ]
        growth = max(
            quarters[1] / max(quarters[0], 1e-300),
            quarters[2] / max(quarters[1], 1e-300),
        )
        if growth > 1.25:
            raise ConvergenceError(
                f"moment of order {r} appears divergent at t={t} (growth {growth:.2f})"
            )
        logm.append(math.log(quarters[2]))
    slope = np.polyfit(np.log(t_grid), np.array(logm), 1)[0]
    return float(slope)
