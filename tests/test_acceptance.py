"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 was first worded as invariance of the 4-fold composition density
across non-permutation members of one product-index class.  That claim is
false: a product of generalized gamma factors is fixed by the multiset of its
shape indices, not by their product, and the two stated vectors have
different laws (second moments 0.1858 against 0.3849).  The criterion now
asserts what does hold on the same vectors and grid: invariance under
permutation, the one-sided stable identity of the chain vector, and a
measurable separation of the pair.  See the docstring of the test below.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from anomdiff import cli
from anomdiff.frac_calc import GridFunction, caputo, frac_integral, rl_left, rl_right
from anomdiff.laws import (
    GGLaw,
    MuVector,
    compose_density,
    compose_mellin,
    gg_density,
    h_density,
    l_density,
)
from anomdiff.mellin import mellin_numeric
from anomdiff.montecarlo import (
    CompositionChain,
    RngSpec,
    ks_two_sample,
    moment_scaling_slope,
    sample_chain,
    sample_inverse_subordinator,
    sample_subordinator,
)
from anomdiff.solvers import (
    BVPSpec,
    adjoint_generator_apply,
    fractional_power_operator,
    mellin_time_rule_residual,
    space_fractional_density,
    sturm_liouville_solution,
)
from anomdiff.specfun import MLParams, gamma_fn, mittag_leffler

SQRT_PI = math.sqrt(math.pi)


def report(name, stat, threshold, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: statistic={stat:.3e} threshold={threshold:.0e}")


def levy(x, t):
    return t / (2.0 * SQRT_PI) * x**-1.5 * math.exp(-t * t / (4.0 * x))


def half_gaussian(x, t):
    return math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)


def test_criterion_1_closed_form_oracles():
    """Stable and inverse closed forms reproduced by every route, 5x5 grid."""
    xs = np.linspace(0.4, 2.4, 5)
    ts = np.linspace(0.6, 2.2, 5)
    worst = 0.0
    for x in xs:
        for t in ts:
            x, t = float(x), float(t)
            for m in ("closed", "conv", "foxh"):
                worst = max(worst, abs(h_density(0.5, x, t, m) - levy(x, t)))
            for m in ("closed", "conv", "foxh", "wright"):
                worst = max(worst, abs(l_density(0.5, x, t, m) - half_gaussian(x, t)))
    report("criterion 1 (closed-form oracles, all routes)", worst, 1e-6, worst <= 1e-6)
    assert worst <= 1e-6


def test_criterion_2_laplace_identities():
    """Space-Laplace transforms of both laws match their closed symbols."""
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0):
        for lam in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                got = quad(lambda x: math.exp(-lam * x) * h_density(nu, x, t),
                           0, np.inf, limit=200)[0]
                worst = max(worst, abs(got - math.exp(-t * lam**nu)))
                got = quad(lambda x: math.exp(-lam * x) * l_density(nu, x, t),
                           0, np.inf, limit=200)[0]
                want = mittag_leffler(MLParams(nu, 1.0), -lam * t**nu)
                worst = max(worst, abs(got - want))
    report("criterion 2 (Laplace identities)", worst, 1e-6, worst <= 1e-6)
    assert worst <= 1e-6


def test_criterion_3_equivalence_in_law():
    """Composition chains match direct stable/inverse sampling, both orders."""
    n = 100_000
    worst = 0.0
    kanter = sample_subordinator(1.0 / 3.0, 1.0, RngSpec(0, 50), size=n)
    for sid, ups in ((51, [1, 2]), (52, [2, 1])):
        chain = CompositionChain("subordinator", MuVector.from_integers(ups, 3), 1.0)
        worst = max(worst, ks_two_sample(sample_chain(chain, RngSpec(0, sid), size=n), kanter))
    linv = sample_inverse_subordinator(1.0 / 3.0, 1.0, RngSpec(0, 53), size=n)
    for sid, ups in ((54, [1, 2]), (55, [2, 1])):
        chain = CompositionChain("inverse", MuVector.from_integers(ups, 3), 1.0)
        worst = max(worst, ks_two_sample(sample_chain(chain, RngSpec(0, sid), size=n), linv))
    report("criterion 3 (equivalence in law, KS)", worst, 1e-2, worst <= 1e-2)
    assert worst <= 1e-2


def test_criterion_4_composition_class_invariance():
    """Composition invariance within the product-index class of 24, gamma = 1.

    Original wording: the 4-fold composition density is invariant across
    non-permutation vectors of one product-index class, stated for
    (1,2,3,4)/5 and (24,1,1,1)/5 (both have prod upsilon_j = 24) on the grid
    x, t in {0.5, 1, 2} with tolerance 1e-4.  As worded it is false for any
    product of generalized gamma factors.  The transform of the composition,
    t^(eta-1) prod_j Gamma(eta-1+mu_j)/Gamma(mu_j), depends on the multiset
    {mu_j} and not on prod upsilon_j; at eta = 3 it is prod_j mu_j (mu_j + 1),
    0.1858 for the first vector against 0.3849 for the second.  A two-sample
    KS distance between 4e5 draws of each product law is 0.219 (0.216 with
    other seeds; 0.002-0.004 for a permutation pair).  Whether a wider
    equivalence than permutation was meant is not settled by the project
    description; none is assumed.

    Asserted on the stated vectors, grid and depth:

    (a) each vector is invariant under a non-identity permutation (<= 1e-4);
    (b) (1,2,3,4)/5 carries the paper's result.  By Gauss multiplication,
        prod_k Gamma(s+k/5)/Gamma(k/5) = 5^(-5s) Gamma(5s+1)/Gamma(s+1), so
        the composition is the law of 5^-5 t / S with S one-sided stable of
        index 1/5, whose density 5^-5 t/x^2 h_{1/5}(5^-5 t/x, 1) is taken on
        the contour route (<= 1e-4);
    (c) the pair is separated: the closed-form transforms at eta = 3 equal
        prod mu_j (mu_j + 1) and differ, and the density gap is >= 1e-3
        (measured 1.338e-2).
    """
    xs = ts = (0.5, 1.0, 2.0)
    chain_mu = MuVector.from_integers([1, 2, 3, 4], 5)
    lumped_mu = MuVector.from_integers([24, 1, 1, 1], 5)
    assert chain_mu.in_product_set(24) and lumped_mu.in_product_set(24)

    def grid(mu):
        return np.array([[compose_density(1.0, mu, x, t) for t in ts] for x in xs])

    chain, lumped = grid(chain_mu), grid(lumped_mu)

    perm_gap = max(
        np.max(np.abs(chain - grid(MuVector.from_integers([4, 3, 2, 1], 5)))),
        np.max(np.abs(lumped - grid(MuVector.from_integers([1, 1, 1, 24], 5)))),
    )

    c = 5.0**-5
    stable = np.array(
        [[c * t / x**2 * h_density(0.2, c * t / x, 1.0, "foxh") for t in ts] for x in xs]
    )
    stable_gap = np.max(np.abs(chain - stable))

    # at eta = 3 the transform is the second moment, prod_j mu_j (mu_j + 1)
    second = [compose_mellin(1.0, mu, 1.0, 3.0) for mu in (chain_mu, lumped_mu)]
    exact = [float(math.prod(m * (m + 1) for m in mu.entries)) for mu in (chain_mu, lumped_mu)]
    closed_ok = all(abs(g - w) <= 1e-12 * w for g, w in zip(second, exact))
    separation = np.max(np.abs(chain - lumped))
    separated = closed_ok and abs(second[0] - second[1]) >= 1e-3 and separation >= 1e-3

    report("criterion 4a (permutation invariance)", perm_gap, 1e-4, perm_gap <= 1e-4)
    report("criterion 4b (index-1/5 stable identity)", stable_gap, 1e-4, stable_gap <= 1e-4)
    report(
        f"criterion 4c (pair separated, eta=3 transforms {second[0]:.4f} vs {second[1]:.4f})",
        separation, 1e-3, separated,
    )
    assert perm_gap <= 1e-4 and stable_gap <= 1e-4 and separated


def test_criterion_5_bvp_series():
    """Single-mode exactness and the Caputo-in-time evolution residual."""
    from anomdiff.solvers import eigen_system

    es = eigen_system(1.0, 1.0, 8)
    m0 = lambda x: float(es.weight(x)) * float(es.eigenfunction(0, x))
    spec1 = BVPSpec(1.0, 1.0, 0.5, m0, n_terms=8)
    x, t = 0.4, 0.7
    want = m0(x) * mittag_leffler(MLParams(0.5), -((es.zeros[0] / 2.0) ** 2) * t**0.5)
    single_err = abs(sturm_liouville_solution(spec1)(x, t) - want)

    worst_ratio = 0.0
    xv, tv = 0.5, 0.5
    for nu in (0.5, 1.0):
        spec = BVPSpec(1.0, 1.0, nu, lambda x: 1.0, n_terms=50)
        sol = sturm_liouville_solution(spec)
        peak = max(abs(sol(float(xx), tv)) for xx in np.linspace(0.05, 0.95, 19))
        if nu == 1.0:
            h = 1e-5
            dt = (sol(xv, tv + h) - sol(xv, tv - h)) / (2.0 * h)
        else:
            # Caputo by quadrature of the series values; the substitution
            # s = u^2 tames the square-root transient of the truncated sum
            import warnings

            from scipy import integrate

            es = sol.es
            lam = (np.asarray(es.zeros) / 2.0) ** 2
            spatial = np.array(
                [sol.coeffs[k] * float(es.eigenfunction(k, xv)) / es.norms[k] for k in range(spec.n_terms)]
            )
            w = float(es.weight(xv))
            ml = MLParams(nu)

            def m_of_u(u):
                s = u * u
                return w * sum(
                    spatial[k] * mittag_leffler(ml, -float(lam[k]) * s**nu)
                    for k in range(spec.n_terms)
                )

            rt = math.sqrt(tv)

            def g(u):
                h = 5e-7
                lo, hi = max(u - h, 0.0), u + h
                return (m_of_u(hi) - m_of_u(lo)) / (hi - lo) * (rt + u) ** -nu

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val, _ = integrate.quad(
                    g, 0.0, rt, weight="alg", wvar=(0.0, -nu),
                    epsabs=1e-7, epsrel=1e-7, limit=60,
                )
            dt = val / gamma_fn(1.0 - nu)
        gen = adjoint_generator_apply(1.0, 1.0, lambda xx: sol(xx, tv), xv, h=1e-3)
        worst_ratio = max(worst_ratio, abs(dt - gen) / peak)

    ok = single_err <= 1e-10 and worst_ratio <= 1e-2
    report("criterion 5a (single-mode exactness)", single_err, 1e-10, single_err <= 1e-10)
    report("criterion 5b (evolution residual / peak)", worst_ratio, 1e-2, worst_ratio <= 1e-2)
    assert ok


def test_criterion_6_mellin_identities():
    """Transform identities: pure-gamma residuals, the operator transform on
    the shape-2 law, and cross-route agreement of the mixed density."""
    worst_gamma = max(
        mellin_time_rule_residual(2.0, 0.5, 2.0, 1.0),
        mellin_time_rule_residual(1.0, 1.0 / 3.0, 1.5, 2.0),
        mellin_time_rule_residual(1.5, 1.0, 2.0, 1.0),
    )
    nodes = np.geomspace(1e-4, 60.0, 2000)
    f = GridFunction(nodes, np.array([gg_density(GGLaw(1.0, 2.0), float(s), 1.0) for s in nodes]), -np.inf)
    op = fractional_power_operator(2.0, 0.5, f, n_mesh=256)
    eta, nu, mu = 1.25, 0.5, 2.0
    lhs = mellin_numeric(op, eta, support=(2e-4, 1e20), abs_tol=1e-4)
    rhs = (
        -gamma_fn(1.0 - eta + nu)
        * gamma_fn(eta + mu - 1.0)
        / (gamma_fn(1.0 - eta) * gamma_fn(eta + mu - 1.0 - nu))
        * gamma_fn(eta - nu + mu - 1.0)
        / gamma_fn(mu)
    )
    op_resid = abs(lhs - rhs)

    route_gap = 0.0
    for (nu_, beta_) in ((0.5, 1.0), (0.5, 0.5)):
        for x in (0.6, 1.0, 1.7):
            for t in (0.7, 1.0, 1.8):
                di = space_fractional_density(1.0, nu_, beta_, x, t, "double_integral")
                fh = space_fractional_density(1.0, nu_, beta_, x, t, "foxh")
                route_gap = max(route_gap, abs(di - fh))
    report("criterion 6a (pure gamma residual)", worst_gamma, 1e-10, worst_gamma <= 1e-10)
    report("criterion 6b (operator transform residual)", op_resid, 1e-4, op_resid <= 1e-4)
    report("criterion 6c (route cross-agreement)", route_gap, 1e-4, route_gap <= 1e-4)
    assert worst_gamma <= 1e-10 and op_resid <= 1e-4 and route_gap <= 1e-4


def test_criterion_7_fractional_kernel():
    """Power-law rule, Caputo bridge, and both Mellin derivative rules."""
    nodes = np.linspace(1e-6, 2.5, 3001)
    worst_rule = 0.0
    for beta in (1.25, 1.5, 2.0, 3.0):
        gf = GridFunction(nodes, nodes ** (beta - 1.0), extrapolation_decay=beta - 1.0)
        for alpha in (0.25, 0.5, 0.75):
            for x in (0.5, 1.0, 2.0):
                exact = gamma_fn(beta) / gamma_fn(beta - alpha) * x ** (beta - alpha - 1.0)
                worst_rule = max(worst_rule, abs(rl_left(alpha, gf, x) - exact) / abs(exact))

    tn = np.linspace(1e-7, 1.0, 6001)
    gf = GridFunction(tn, tn**2 + 1.0)
    worst_bridge = 0.0
    for alpha in (0.3, 0.5, 0.7):
        t = 0.8
        lhs = caputo(alpha, gf, t)
        rhs = rl_left(alpha, gf, t) - 1.0 * t**-alpha / gamma_fn(1.0 - alpha)
        worst_bridge = max(worst_bridge, abs(lhs - rhs))

    # right-derivative transform rule at eta = 2, alpha = 1/2
    gnodes = np.geomspace(1e-5, 45.0, 6000)
    gf2 = GridFunction(gnodes, gnodes * np.exp(-gnodes), -np.inf)
    got = mellin_numeric(lambda x: rl_right(0.5, gf2, x), 2.0, support=(1e-4, 40.0))
    right_resid = abs(got - gamma_fn(2.0) / gamma_fn(1.5) * gamma_fn(2.5))

    # left-derivative transform rule at eta = 0.3 on a long grid (the output
    # decays algebraically, so the grid carries the tail out to 10^3)
    lnodes = np.geomspace(1e-9, 1.1e3, 5200)
    lvals = lnodes * np.exp(-np.minimum(lnodes, 700.0))
    gf3 = GridFunction(lnodes, lvals, -np.inf)
    eta, alpha = 0.3, 0.5
    got = mellin_numeric(
        lambda x: rl_left(alpha, gf3, x), eta, support=(1e-8, 1.0e3), abs_tol=1e-4
    )
    left_resid = abs(
        got
        - gamma_fn(1.0 + alpha - eta) / gamma_fn(1.0 - eta) * gamma_fn(eta - alpha + 1.0)
    )

    # boundary terms of both rules vanish on the gamma density
    fexp = lambda s: s * math.exp(-s) if s < 700 else 0.0
    bnd = max(
        abs(x**1.0 * frac_integral("right", 0.5, fexp, x, tail_decay=-np.inf))
        for x in (1e-6, 35.0)
    )
    bnd = max(bnd, abs(1e-8 ** (eta - 1.0) * frac_integral("left", 0.5, fexp, 1e-8)))
    # far left end: the kernel is regular away from the integrand support
    x_far = 2.0e4
    far_val = (
        quad(lambda s: (x_far - s) ** (alpha - 1.0) * fexp(s), 0.0, 60.0, limit=200)[0]
        / gamma_fn(alpha)
    )
    bnd = max(bnd, abs(x_far ** (eta - 1.0) * far_val))

    ok = (
        worst_rule <= 1e-3
        and worst_bridge <= 1e-5
        and right_resid <= 1e-5
        and left_resid <= 1e-4
        and bnd <= 1e-5
    )
    report("criterion 7a (power-law rule, rel)", worst_rule, 1e-3, worst_rule <= 1e-3)
    report("criterion 7b (Caputo bridge)", worst_bridge, 1e-5, worst_bridge <= 1e-5)
    report("criterion 7c (right transform rule)", right_resid, 1e-5, right_resid <= 1e-5)
    report("criterion 7d (left transform rule)", left_resid, 1e-4, left_resid <= 1e-4)
    report("criterion 7e (boundary terms)", bnd, 1e-5, bnd <= 1e-5)
    assert ok


def test_criterion_8_anomalous_exponent():
    """Monte Carlo moment scaling slope equals beta r / nu."""
    worst = 0.0
    for sid, (nu, beta, r, want) in enumerate(
        ((1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 0.25, 0.5), (1.0, 0.5, 1.0, 0.5))
    ):
        slope = moment_scaling_slope(
            1.0, nu, beta, r, [0.5, 1.0, 2.0, 4.0], RngSpec(0, 60 + sid), n_samples=100_000
        )
        worst = max(worst, abs(slope - want))
    report("criterion 8 (moment scaling slope)", worst, 5e-2, worst <= 5e-2)
    assert worst <= 5e-2


def test_criterion_9_verify_determinism(tmp_path):
    """Two verify runs under one seed produce byte-identical reports."""
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = cli.main(["--command", "verify", "--seed", "0", "--out", str(out)])
        assert code in (0, 1)
    same = out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    all_pass = all(t["pass"] for t in doc["tests"])
    report("criterion 9 (verify determinism)", 0.0 if same else 1.0, 0.0, same)
    assert same
    assert all_pass
