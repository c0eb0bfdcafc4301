"""Named verification checks wired to the command-line `verify` command.

Each check recomputes one analytic identity or sampler property and reports
(statistic, threshold); the suite passes when every statistic is at or below
its threshold.  All randomness derives from the configured seed, so reports
are byte-identical across runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import laws, mellin, montecarlo, solvers
from .frac_calc import GridFunction, PowerLaw, caputo, rl_left, rl_right
from .laws import GGLaw, MuVector
from .montecarlo import RngSpec
from .specfun import MLParams, bessel_j, gamma_fn, mittag_leffler, wright_w

__all__ = ["run_suite", "available_suites"]

_VERSION = "0.1.0"
_TOL = 1.49e-8  # scipy's default quad tolerance, with which these checks were set


def _check_ml_exp(seed):
    zs = np.linspace(-20.0, 5.0, 41)
    worst = max(abs(mittag_leffler(MLParams(1.0, 1.0), float(z)) - math.exp(z)) for z in zs)
    return worst, 1e-12


def _check_ml_monotone(seed):
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        ts = np.linspace(0.0, 30.0 if alpha <= 0.75 else 8.0, 200)
        vals = np.array([mittag_leffler(MLParams(alpha, 1.0), -float(t)) for t in ts])
        worst = max(worst, float(np.max(np.diff(vals))), float(-np.min(vals)))
    return worst, 1e-15


def _check_wright_inverse_law(seed):
    worst = 0.0
    for x in (0.3, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            a = t**-0.5 * wright_w(-0.5, 0.5, -x / t**0.5)
            b = laws.l_density(0.5, x, t, "closed")
            worst = max(worst, abs(a - b))
    return worst, 1e-8


def _check_bessel_zero_residuals(seed):
    from .specfun import bessel_j_zeros

    worst = 0.0
    for order in (0.0, 1.0, -0.5, 0.5):
        for z in bessel_j_zeros(order, 5):
            worst = max(worst, abs(bessel_j(order, float(z))))
    return worst, 1e-10


def _check_power_law_rule(seed):
    nodes = np.linspace(1e-6, 2.5, 3001)
    worst = 0.0
    for beta in (1.25, 1.5, 2.0, 3.0):
        gf = GridFunction(nodes, nodes ** (beta - 1.0), extrapolation_decay=beta - 1.0)
        for alpha in (0.25, 0.5, 0.75):
            for x in (0.5, 1.0, 2.0):
                exact = gamma_fn(beta) / gamma_fn(beta - alpha) * x ** (beta - alpha - 1.0)
                worst = max(worst, abs(rl_left(alpha, gf, x) - exact) / abs(exact))
    return worst, 1e-3


def _check_caputo_bridge(seed):
    nodes = np.linspace(1e-7, 1.2, 6001)
    worst = 0.0
    for vals, f0 in ((nodes**2 + 1.0, 1.0), (np.cos(nodes), 1.0)):
        gf = GridFunction(nodes, vals)
        for alpha in (0.3, 0.5, 0.7):
            t = 0.8
            lhs = caputo(alpha, gf, t)
            rhs = rl_left(alpha, gf, t) - f0 * t**-alpha / gamma_fn(1.0 - alpha)
            worst = max(worst, abs(lhs - rhs))
    return worst, 1e-5


def _check_derivative_limits(seed):
    # alpha -> 1 recovers +-f'; the operators differ from the ordinary
    # derivative by O(1-alpha), so the probe sits at 1-alpha = 1e-4
    a = 0.9999
    worst = abs(rl_right(a, lambda s: math.exp(-s), 1.0, tail_decay=-np.inf) - math.exp(-1.0))
    got = rl_left(a, PowerLaw(2.0, 3.0), 1.5)
    worst = max(worst, abs(got - 2.0 * 2.0 * 1.5) / 6.0)
    return worst, 1e-4


def _check_mellin_derivative_rules(seed):
    # right and left transform rules on the shape-2 gamma density, with the
    # boundary terms checked to vanish
    f = lambda s: s * math.exp(-s) if s < 700 else 0.0
    nodes = np.geomspace(1e-5, 50.0, 2500)
    gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
    eta, alpha = 2.0, 0.5
    lhs = mellin.mellin_numeric(lambda x: rl_right(alpha, gf, x), eta, support=(1e-4, 40.0))
    rhs = gamma_fn(eta) / gamma_fn(eta - alpha) * gamma_fn(eta - alpha + 1.0)
    worst = abs(lhs - rhs)
    from .frac_calc import frac_integral

    for x in (1e-5, 35.0):
        worst = max(worst, abs(x ** (eta - 1.0) * frac_integral("right", 1.0 - alpha, f, x, tail_decay=-np.inf)))
    eta2 = 1.25
    op = solvers.fractional_power_operator(2.0, alpha, gf, n_mesh=224)
    lhs2 = mellin.mellin_numeric(op, eta2, support=(2e-5, 1e20), abs_tol=1e-4)
    rhs2 = (
        -gamma_fn(1.0 - eta2 + alpha)
        * gamma_fn(eta2 + 1.0)
        / (gamma_fn(1.0 - eta2) * gamma_fn(eta2 + 1.0 - alpha))
        * gamma_fn(eta2 - alpha + 1.0)
    )
    worst = max(worst, abs(lhs2 - rhs2))
    return worst, 2e-4


def _check_stable_closed_forms(seed):
    xs = np.linspace(0.4, 2.4, 5)
    ts = np.linspace(0.6, 2.2, 5)
    worst = 0.0
    for x in xs:
        for t in ts:
            ref_h = laws.h_density(0.5, float(x), float(t), "closed")
            ref_l = laws.l_density(0.5, float(x), float(t), "closed")
            for m in ("conv", "foxh"):
                worst = max(worst, abs(laws.h_density(0.5, float(x), float(t), m) - ref_h))
            for m in ("conv", "foxh", "wright"):
                worst = max(worst, abs(laws.l_density(0.5, float(x), float(t), m) - ref_l))
    return worst, 1e-6


def _check_laplace_identities(seed):
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0):
        for lam in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                got = mellin.quad(
                    lambda x: math.exp(-lam * x) * laws.h_density(nu, x, t),
                    0, np.inf, epsabs=_TOL, epsrel=_TOL, limit=200,
                )
                worst = max(worst, abs(got - math.exp(-t * lam**nu)))
                got = mellin.quad(
                    lambda x: math.exp(-lam * x) * laws.l_density(nu, x, t),
                    0, np.inf, epsabs=_TOL, epsrel=_TOL, limit=200,
                )
                want = mittag_leffler(MLParams(nu, 1.0), -lam * t**nu)
                worst = max(worst, abs(got - want))
    return worst, 1e-6


def _check_time_laplace(seed):
    worst = 0.0
    nu = 0.5
    for x in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            got = mellin.quad(
                lambda t: math.exp(-lam * t) * laws.h_density(nu, x, t),
                0, np.inf, epsabs=_TOL, epsrel=_TOL, limit=200,
            )
            want = x ** (nu - 1.0) * mittag_leffler(MLParams(nu, nu), -lam * x**nu)
            worst = max(worst, abs(got - want))
    return worst, 1e-6


def _check_conv_closed_forms(seed):
    worst = 0.0
    half, three_q, one, inv_one = GGLaw(1.0, 0.5), GGLaw(1.0, 0.75), GGLaw(1.0, 1.0), GGLaw(-1.0, 1.0)
    for x in np.linspace(0.5, 2.5, 5).tolist():
        for t in np.linspace(0.5, 2.5, 5).tolist():
            ge = laws.econv(1.0, 0.5, 0.75, x, t)
            gq = mellin.mellin_convolve(
                lambda u: laws.gg_density(half, u, t),
                lambda u: laws.gg_density(three_q, u, 1.0),
                x,
            )
            worst = max(worst, abs(ge - gq))
            gm = laws.gconv(1.0, 1.0, 1.0, x, t)
            gq2 = mellin.mellin_convolve(
                lambda u: laws.gg_density(one, u, t),
                lambda u: laws.gg_density(inv_one, u, 1.0),
                x,
            )
            worst = max(worst, abs(gm - gq2))
    return worst, 1e-7


def _check_duality(seed):
    # x h_nu(x, t) = nu t l_nu(t, x)
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0):
        for x in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                worst = max(
                    worst,
                    abs(x * laws.h_density(nu, x, t) - nu * t * laws.l_density(nu, t, x)),
                )
    return worst, 1e-7


def _check_stable_mellin(seed):
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0):
        for eta in (0.3, 0.5, 0.8):
            got = mellin.mellin_numeric(
                lambda x: laws.h_density(nu, x, 1.3), eta, support=(1e-30, 1e15)
            )
            worst = max(worst, abs(got - laws.h_mellin(nu, 1.3, eta)))
            got = mellin.mellin_numeric(
                lambda x: laws.l_density(nu, x, 1.3), eta, support=(1e-30, 60.0)
            )
            worst = max(worst, abs(got - laws.l_mellin(nu, 1.3, eta)))
    return worst, 1e-6


def _check_star_commutativity(seed):
    worst = 0.0
    law1, law2 = GGLaw(2.0, 0.7), GGLaw(-1.0, 1.2)
    for x in (0.5, 1.0, 2.0):
        for t in (0.8, 1.6):
            a = mellin.mellin_convolve(
                lambda u: laws.gg_density(law1, u, t),
                lambda u: laws.gg_density(law2, u, 1.0),
                x,
            )
            b = mellin.mellin_convolve(
                lambda u: laws.gg_density(law2, u, 1.0),
                lambda u: laws.gg_density(law1, u, t),
                x,
            )
            worst = max(worst, abs(a - b))
    return worst, 1e-7


def _check_additive_semigroup(seed):
    # gamma laws with equal scale: additive convolution adds shapes
    worst = 0.0
    mu1, mu2, t = 0.7, 1.4, 1.0
    for x in (0.5, 1.0, 2.0, 3.0):
        conv = mellin.quad(
            lambda y: (
                laws.gg_density(GGLaw(1.0, mu1), x - y, t)
                * laws.gg_density(GGLaw(1.0, mu2), y, t)
                if 0.0 < y < x
                else 0.0
            ),
            0.0, x, epsabs=_TOL, epsrel=_TOL, limit=200,
        )
        worst = max(worst, abs(conv - laws.gg_density(GGLaw(1.0, mu1 + mu2), x, t)))
    return worst, 1e-7


def _check_compose_invariance(seed):
    mu1 = MuVector.from_integers([1, 2], 3)
    mu2 = MuVector.from_integers([2, 1], 3)
    gap = laws.compose_invariance_gap(mu1, mu2, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    return gap, 1e-5


def _check_f_ratio_reduction(seed):
    worst = 0.0
    for x in (0.4, 1.0, 2.2):
        for t in (0.7, 1.3):
            a = laws.f_nu_beta(0.5, 0.5, x, t)
            b = laws.ratio_density(0.5, x / t) / t
            worst = max(worst, abs(a - b))
    return worst, 1e-6


def _check_mellin_roundtrip(seed):
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0):
        lh = laws.l_fox(nu)
        hh = laws.h_fox(nu)
        for eta in (0.3, 0.6, 0.9):
            got = mellin.mellin_numeric(
                lambda x: mellin.fox_h_eval(lh, x), eta, support=(1e-30, 50.0)
            )
            worst = max(worst, abs(got - mellin.fox_h_mellin(lh, eta)))
            got = mellin.mellin_numeric(
                lambda x: mellin.fox_h_eval(hh, x), eta, support=(1e-30, 1e15)
            )
            worst = max(worst, abs(got - mellin.fox_h_mellin(hh, eta)))
    return worst, 1e-6


def _check_mellin_operational_rules(seed):
    # scaling, power shift and tail-integral rules on the shape-2 gamma law
    f = lambda x: x * math.exp(-x) if x < 700 else 0.0
    tail = lambda x: (1.0 + x) * math.exp(-x) if x < 700 else 0.0  # int_x^inf f
    worst = 0.0
    for eta in (0.7, 1.4):
        got = mellin.mellin_numeric(lambda x: f(2.5 * x), eta)
        worst = max(worst, abs(got - 2.5**-eta * gamma_fn(eta + 1.0)))
        got = mellin.mellin_numeric(lambda x: x**0.6 * f(x), eta)
        worst = max(worst, abs(got - gamma_fn(eta + 1.6)))
        got = mellin.mellin_numeric(tail, eta)
        worst = max(worst, abs(got - mellin.mellin_numeric(f, eta + 1.0) / eta))
    return worst, 1e-8


def _check_subordination_degenerate(seed):
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        a = laws.time_fractional_solution(1.0, 1.5, 1.0, x, 1.2)
        b = laws.gg_density(GGLaw(1.0, 1.5), x, 1.2, tilde=True)
        worst = max(worst, abs(a - b))
    mass = mellin.quad(
        lambda x: laws.time_fractional_solution(1.0, 1.0, 0.5, x, 1.0),
        0, np.inf, epsabs=_TOL, epsrel=_TOL, limit=120,
    )
    worst = max(worst, abs(mass - 1.0))
    return worst, 1e-6


def _check_bvp_series(seed):
    es = solvers.eigen_system(1.0, 1.0, 2)
    ortho = mellin.quad(
        lambda x: float(es.eigenfunction(0, x)) * float(es.eigenfunction(1, x)),
        0, 1, epsabs=_TOL, epsrel=_TOL, limit=200,
    )
    worst = abs(ortho)
    m0 = lambda x: 1.0
    spec = solvers.BVPSpec(1.0, 1.0, 0.5, m0, n_terms=50)
    sol = solvers.sturm_liouville_solution(spec)
    boundary = abs(sol(0.999, 0.5))
    peak = float(np.max(np.abs(sol(np.linspace(0.05, 0.95, 19), 0.5))))
    worst = max(worst, boundary / (100.0 * peak))  # scaled into the shared threshold
    return worst, 1e-4


def _check_space_fractional_routes(seed):
    worst = 0.0
    for (nu, beta) in ((0.5, 1.0), (0.5, 0.5)):
        for x in (0.6, 1.0, 1.7):
            for t in (0.7, 1.0, 1.8):
                di = laws.space_fractional_density(1.0, nu, beta, x, t, "double_integral")
                fh = laws.space_fractional_density(1.0, nu, beta, x, t, "foxh")
                worst = max(worst, abs(di - fh))
    return worst, 1e-4


def _check_mellin_time_rule(seed):
    worst = 0.0
    for (mu, nu, eta, t) in ((2.0, 0.5, 2.0, 1.0), (1.0, 1.0 / 3.0, 1.5, 2.0), (1.5, 1.0, 2.0, 1.0)):
        worst = max(worst, solvers.mellin_time_rule_residual(mu, nu, eta, t))
    return worst, 1e-10


def _check_double_laplace(seed):
    worst = max(
        solvers.double_laplace_residual(0.5, 0.5, 1.0, 1.0),
        solvers.double_laplace_residual(1.0 / 3.0, 0.5, 2.0, 1.0),
        solvers.double_laplace_residual(0.5, 1.0, 1.0, 1.0),
    )
    return worst, 1e-4


def _check_moment_slope_formula(seed):
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    worst = 0.0
    for beta in (0.5, 1.0):
        vals = [laws.space_fractional_mellin(1.0, 1.0, beta, 2.0, float(t)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        worst = max(worst, abs(slope - beta))
    return worst, 0.02


def _check_sampler_reproducibility(seed):
    a = montecarlo.sample_gamma(1.5, 1.0, RngSpec(seed, 3), size=64)
    b = montecarlo.sample_gamma(1.5, 1.0, RngSpec(seed, 3), size=64)
    return 0.0 if np.array_equal(a, b) else 1.0, 0.0


def _entrywise(fn, x):
    # a scalar math function over a 1-d array, without an object array
    return np.fromiter(map(fn, x), float, x.size)


def _gamma2_cdf(x):
    """P(2, x) = 1 - e^-x (1 + x), the gamma(2, 1) CDF."""
    return -np.expm1(-x) - x * np.exp(-x)


def _inv_gamma_half_cdf(x):
    """Q(1/2, 1/x) = erfc(1/sqrt(x)), the inverse-gamma(1/2, 1) CDF."""
    return _entrywise(math.erfc, 1.0 / np.sqrt(x))


def _stable_half_cdf(x):
    """erfc(1/(2 sqrt(x))), the CDF of the stable subordinator of index 1/2 at t = 1."""
    return _entrywise(math.erfc, 1.0 / (2.0 * np.sqrt(x)))


def _inverse_stable_half_cdf(x):
    """erf(x/2), the CDF of the inverse stable subordinator of index 1/2 at t = 1."""
    return _entrywise(math.erf, x / 2.0)


def _check_sampler_ks(seed):
    n = 100_000
    worst = 0.0
    g = montecarlo.sample_gamma(2.0, 1.0, RngSpec(seed, 10), size=n)
    worst = max(worst, montecarlo.ks_distance(g, _gamma2_cdf))
    e = montecarlo.sample_inv_gamma(0.5, 1.0, RngSpec(seed, 11), size=n)
    worst = max(worst, montecarlo.ks_distance(e, _inv_gamma_half_cdf))
    h = montecarlo.sample_subordinator(0.5, 1.0, RngSpec(seed, 12), size=n)
    worst = max(worst, montecarlo.ks_distance(h, _stable_half_cdf))
    li = montecarlo.sample_inverse_subordinator(0.5, 1.0, RngSpec(seed, 13), size=n)
    worst = max(worst, montecarlo.ks_distance(li, _inverse_stable_half_cdf))
    return worst, 0.01


def _check_kanter_laplace(seed):
    h = montecarlo.sample_subordinator(0.5, 1.0, RngSpec(seed, 14), size=1_000_000)
    worst = abs(float(np.mean(np.exp(-h))) - math.exp(-1.0))
    h3 = montecarlo.sample_subordinator(1.0 / 3.0, 1.0, RngSpec(seed, 15), size=1_000_000)
    worst = max(worst, abs(float(np.mean(np.exp(-h3))) - math.exp(-1.0)))
    return worst, 3e-3


def _check_composition_chains(seed):
    n = 100_000
    worst = 0.0
    kanter = montecarlo.sample_subordinator(1.0 / 3.0, 1.0, RngSpec(seed, 20), size=n)
    for sid, ups in ((21, [1, 2]), (22, [2, 1])):
        chain = montecarlo.CompositionChain(
            "subordinator", MuVector.from_integers(ups, 3), 1.0
        )
        cs = montecarlo.sample_chain(chain, RngSpec(seed, sid), size=n)
        worst = max(worst, montecarlo.ks_two_sample(cs, kanter))
    linv = montecarlo.sample_inverse_subordinator(1.0 / 3.0, 1.0, RngSpec(seed, 23), size=n)
    for sid, ups in ((24, [1, 2]), (25, [2, 1])):
        chain = montecarlo.CompositionChain("inverse", MuVector.from_integers(ups, 3), 1.0)
        cs = montecarlo.sample_chain(chain, RngSpec(seed, sid), size=n)
        worst = max(worst, montecarlo.ks_two_sample(cs, linv))
    return worst, 0.01


def _check_commutativity_in_law(seed):
    n = 100_000
    r1 = RngSpec(seed, 30).generator()
    r2 = RngSpec(seed, 31).generator()
    a = montecarlo.sample_inv_gamma(0.7, montecarlo.sample_gamma(1.3, 1.0, r1, size=n), r1)
    b = montecarlo.sample_gamma(1.3, montecarlo.sample_inv_gamma(0.7, 1.0, r2, size=n), r2)
    return montecarlo.ks_two_sample(a, b), 0.01


def _check_ratio_law_samples(seed):
    n = 100_000
    rng = RngSpec(seed, 32).generator()
    s = montecarlo.sample_inverse_subordinator(0.5, 1.0, rng, size=n)
    f = montecarlo.sample_subordinator(0.5, s, rng)
    h1 = montecarlo.sample_subordinator(0.5, 1.0, rng, size=n)
    h2 = montecarlo.sample_subordinator(0.5, 1.0, rng, size=n)
    return montecarlo.ks_two_sample(f, 1.0 * h1 / h2), 0.01


def _check_moment_scaling_mc(seed):
    worst = 0.0
    for sid, (nu, beta, r, want) in enumerate(
        ((1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 0.25, 0.5), (1.0, 0.5, 1.0, 0.5))
    ):
        slope = montecarlo.moment_scaling_slope(
            1.0, nu, beta, r, [0.5, 1.0, 2.0, 4.0], RngSpec(seed, 40 + sid), n_samples=100_000
        )
        worst = max(worst, abs(slope - want))
    return worst, 0.05


_CHECKS = [
    ("specfun.mittag_leffler_exp", "specfun", _check_ml_exp),
    ("specfun.mittag_leffler_monotone", "specfun", _check_ml_monotone),
    ("specfun.wright_inverse_law", "specfun", _check_wright_inverse_law),
    ("specfun.bessel_zero_residuals", "specfun", _check_bessel_zero_residuals),
    ("frac.power_law_rule", "frac", _check_power_law_rule),
    ("frac.caputo_rl_bridge", "frac", _check_caputo_bridge),
    ("frac.derivative_limits", "frac", _check_derivative_limits),
    ("frac.mellin_derivative_rules", "frac", _check_mellin_derivative_rules),
    ("laws.stable_closed_forms", "laws", _check_stable_closed_forms),
    ("laws.laplace_identities", "laplace", _check_laplace_identities),
    ("laws.time_laplace", "laplace", _check_time_laplace),
    ("laws.conv_closed_forms", "laws", _check_conv_closed_forms),
    ("laws.duality", "laws", _check_duality),
    ("laws.stable_mellin", "laws", _check_stable_mellin),
    ("laws.star_commutativity", "laws", _check_star_commutativity),
    ("laws.additive_semigroup", "laws", _check_additive_semigroup),
    ("laws.compose_invariance", "invariance", _check_compose_invariance),
    ("laws.f_ratio_reduction", "laws", _check_f_ratio_reduction),
    ("mellin.roundtrip", "mellin", _check_mellin_roundtrip),
    ("mellin.operational_rules", "mellin", _check_mellin_operational_rules),
    ("solvers.subordination_degenerate", "solvers", _check_subordination_degenerate),
    ("solvers.bvp_series", "solvers", _check_bvp_series),
    ("solvers.space_fractional_routes", "solvers", _check_space_fractional_routes),
    ("solvers.mellin_time_rule", "solvers", _check_mellin_time_rule),
    ("solvers.double_laplace", "solvers", _check_double_laplace),
    ("solvers.moment_slope_formula", "solvers", _check_moment_slope_formula),
    ("mc.reproducibility", "montecarlo", _check_sampler_reproducibility),
    ("mc.sampler_ks", "montecarlo", _check_sampler_ks),
    ("mc.kanter_laplace", "montecarlo", _check_kanter_laplace),
    ("mc.composition_chains", "chains", _check_composition_chains),
    ("mc.commutativity_in_law", "montecarlo", _check_commutativity_in_law),
    ("mc.ratio_law_samples", "montecarlo", _check_ratio_law_samples),
    ("mc.moment_scaling", "moments", _check_moment_scaling_mc),
]


def available_suites() -> list:
    return sorted({suite for _, suite, _ in _CHECKS})


def run_suite(suite_filter: str | None = None, seed: int = 0) -> dict:
    """Run all (or a filtered subset of) verification checks.

    Returns {"suite", "tests": [{"name", "statistic", "threshold", "pass"}],
    "seed", "version"}; the overall pass is the conjunction of all rows.
    """
    tests = []
    for name, suite, fn in _CHECKS:
        if suite_filter and suite_filter not in (suite, name):
            continue
        stat, thr = fn(seed)
        tests.append(
            {
                "name": name,
                "statistic": float(stat),
                "threshold": float(thr),
                "pass": bool(stat <= thr),
            }
        )
    return {
        "suite": suite_filter or "all",
        "tests": tests,
        "seed": seed,
        "version": _VERSION,
    }
