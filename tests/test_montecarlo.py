import math

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import cumulative_trapezoid

from anomdiff.errors import ConvergenceError, DomainError
from anomdiff.laws import MuVector, gg_density, GGLaw, h_density
from anomdiff.montecarlo import (
    CompositionChain,
    RngSpec,
    ks_distance,
    ks_two_sample,
    moment_scaling_slope,
    sample_chain,
    sample_gamma,
    sample_inv_gamma,
    sample_inverse_subordinator,
    sample_subordinator,
)
from anomdiff.specfun import gamma_fn

N = 100_000


def quadrature_cdf(density, x_grid):
    """CDF oracle built by cumulative quadrature of a density."""
    pdf = np.array([density(float(x)) for x in x_grid])
    cdf = cumulative_trapezoid(pdf, x_grid, initial=0.0)
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
    return lambda x: np.interp(x, x_grid, cdf)


class TestReproducibility:
    def test_identical_spec_identical_stream(self):
        a = sample_gamma(1.5, 1.0, RngSpec(42, 7), size=100)
        b = sample_gamma(1.5, 1.0, RngSpec(42, 7), size=100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_gamma(1.5, 1.0, RngSpec(42, 7), size=100)
        b = sample_gamma(1.5, 1.0, RngSpec(42, 8), size=100)
        assert not np.array_equal(a, b)


class TestGammaSampler:
    def test_mean(self):
        g = sample_gamma(2.0, 1.0, RngSpec(0, 1), size=N)
        assert float(g.mean()) == pytest.approx(2.0, abs=0.02)

    def test_mellin_moment(self):
        g = sample_gamma(2.0, 1.0, RngSpec(0, 2), size=N)
        want = gamma_fn(2.5) / gamma_fn(2.0)
        assert float(np.mean(g**0.5)) == pytest.approx(want, rel=0.01)

    def test_ks_against_quadrature_cdf(self):
        g = sample_gamma(2.0, 1.0, RngSpec(0, 3), size=N)
        grid = np.linspace(1e-6, 40.0, 4000)
        cdf = quadrature_cdf(lambda x: gg_density(GGLaw(1.0, 2.0), x, 1.0), grid)
        assert ks_distance(g, cdf) <= 0.005
        assert ks_distance(g, lambda x: sp.gammainc(2.0, x)) <= 0.005


class TestInvGammaSampler:
    def test_ks(self):
        e = sample_inv_gamma(0.5, 1.0, RngSpec(0, 4), size=N)
        assert ks_distance(e, lambda x: sp.gammaincc(0.5, 1.0 / x)) <= 0.005

    def test_scaling_in_law(self):
        # scale-t inverse-gamma: draws at c*t match c times draws at t
        c = 2.5
        a = sample_inv_gamma(0.5, c * 1.0, RngSpec(1, 5), size=N)
        b = c * sample_inv_gamma(0.5, 1.0, RngSpec(2, 5), size=N)
        assert ks_two_sample(a, b) <= 0.01

    def test_tail_quantile(self):
        e = sample_inv_gamma(0.5, 1.0, RngSpec(0, 6), size=N)
        # q is the analytic 90th percentile: P(X > q) should be ~0.10
        q = 1.0 / sp.gammainccinv(0.5, 0.9)
        frac = float(np.mean(e > q))
        assert frac == pytest.approx(0.10, abs=0.01)
        assert float(np.median(e)) > 0


class TestKanter:
    def test_laplace_transform(self):
        h = sample_subordinator(0.5, 1.0, RngSpec(0, 7), size=1_000_000)
        assert float(np.mean(np.exp(-h))) == pytest.approx(math.exp(-1.0), abs=0.003)

    def test_ks_against_closed_form(self):
        h = sample_subordinator(0.5, 1.0, RngSpec(0, 8), size=1_000_000)
        assert ks_distance(h, lambda x: sp.erfc(1.0 / (2.0 * np.sqrt(x)))) <= 0.003

    def test_self_similarity(self):
        # two-sample threshold 0.005 needs more than 1e5 draws per side to
        # sit below the 99 percent null quantile
        a = sample_subordinator(0.5, 2.0, RngSpec(1, 9), size=4 * N)
        b = 2.0**2 * sample_subordinator(0.5, 1.0, RngSpec(2, 9), size=4 * N)
        assert ks_two_sample(a, b) <= 0.005

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_subordinator(1.2, 1.0, RngSpec(0))


class TestInverseSampler:
    def test_mean(self):
        li = sample_inverse_subordinator(0.5, 1.0, RngSpec(0, 10), size=N)
        assert float(li.mean()) == pytest.approx(1.1283791670955126, abs=0.01)

    def test_ks_against_closed_form(self):
        li = sample_inverse_subordinator(0.5, 1.0, RngSpec(0, 11), size=N)
        assert ks_distance(li, lambda x: sp.erf(x / 2.0)) <= 0.005

    def test_time_scaling(self):
        a = sample_inverse_subordinator(0.5, 3.0, RngSpec(1, 12), size=4 * N)
        b = 3.0**0.5 * sample_inverse_subordinator(0.5, 1.0, RngSpec(2, 12), size=4 * N)
        assert ks_two_sample(a, b) <= 0.005


class TestChains:
    def test_order_one_reduces_to_levy(self):
        chain = CompositionChain("subordinator", MuVector.from_integers([1], 2), 1.0)
        cs = sample_chain(chain, RngSpec(0, 13), size=4 * N)
        hs = sample_subordinator(0.5, 1.0, RngSpec(0, 14), size=4 * N)
        assert ks_two_sample(cs, hs) <= 0.005

    def test_order_two_matches_kanter(self):
        chain = CompositionChain("subordinator", MuVector.from_integers([1, 2], 3), 1.0)
        cs = sample_chain(chain, RngSpec(0, 15), size=N)
        hs = sample_subordinator(1 / 3, 1.0, RngSpec(0, 16), size=N)
        assert ks_two_sample(cs, hs) <= 0.01

    def test_order_swap(self):
        a = sample_chain(
            CompositionChain("subordinator", MuVector.from_integers([1, 2], 3), 1.0),
            RngSpec(0, 17),
            size=N,
        )
        b = sample_chain(
            CompositionChain("subordinator", MuVector.from_integers([2, 1], 3), 1.0),
            RngSpec(0, 18),
            size=N,
        )
        assert ks_two_sample(a, b) <= 0.01

    def test_inverse_chain(self):
        chain = CompositionChain("inverse", MuVector.from_integers([1, 2], 3), 1.0)
        cs = sample_chain(chain, RngSpec(0, 19), size=N)
        ls = sample_inverse_subordinator(1 / 3, 1.0, RngSpec(0, 20), size=N)
        assert ks_two_sample(cs, ls) <= 0.01

    def test_scalar_draw(self):
        v = sample_chain(
            CompositionChain("inverse", MuVector.from_integers([1, 2], 3), 1.0), RngSpec(0)
        )
        assert np.ndim(v) == 0 and float(v) > 0

    def test_membership_guard(self):
        with pytest.raises(DomainError):
            CompositionChain("subordinator", MuVector.from_integers([1, 3], 3), 1.0)
        with pytest.raises(DomainError):
            CompositionChain("subordinator", MuVector.from_integers([1, 2], 4), 1.0)

    def test_guard_accepts_only_permutations(self):
        # (1,1,6)/4 shares the product index 3! but draws from another law
        with pytest.raises(DomainError):
            CompositionChain("subordinator", MuVector.from_integers([1, 1, 6], 4), 1.0)
        with pytest.raises(DomainError):
            CompositionChain("inverse", MuVector.from_integers([1, 1, 6], 4), 1.0)
        for ups in ([1, 2, 3], [3, 2, 1]):
            chain = CompositionChain("subordinator", MuVector.from_integers(ups, 4), 1.0)
            assert chain.nu == pytest.approx(0.25)

    def test_commutativity_in_law(self):
        r1 = RngSpec(0, 21).generator()
        r2 = RngSpec(0, 22).generator()
        a = sample_inv_gamma(0.7, sample_gamma(1.3, 1.0, r1, size=N), r1)
        b = sample_gamma(1.3, sample_inv_gamma(0.7, 1.0, r2, size=N), r2)
        assert ks_two_sample(a, b) <= 0.01

    def test_mixed_time_ratio_law(self):
        rng = RngSpec(0, 23).generator()
        s = sample_inverse_subordinator(0.5, 1.0, rng, size=N)
        f = sample_subordinator(0.5, s, rng)
        h1 = sample_subordinator(0.5, 1.0, rng, size=N)
        h2 = sample_subordinator(0.5, 1.0, rng, size=N)
        assert ks_two_sample(f, h1 / h2) <= 0.01


class TestKsDistance:
    def test_self_consistency(self):
        rng = RngSpec(0, 24).generator()
        u = rng.uniform(size=N)
        assert ks_distance(u, lambda x: np.clip(x, 0, 1)) <= 0.006

    def test_point_mass(self):
        samples = np.full(500, 3.0)
        cdf = lambda x: np.where(np.asarray(x) >= 3.0, 1.0, 0.0)
        assert ks_distance(samples, cdf) == 0.0

    def test_mismatched_rates(self):
        rng = RngSpec(0, 25).generator()
        x = rng.exponential(size=N)  # rate 1
        # analytic sup-difference of the two CDFs is 0.25 at ln 2
        assert ks_distance(x, lambda v: 1.0 - np.exp(-2.0 * v)) >= 0.2

    def test_matches_scipy(self):
        from scipy.stats import kstest

        rng = RngSpec(0, 26).generator()
        x = rng.exponential(size=2000)
        ours = ks_distance(x, lambda v: 1.0 - np.exp(-v))
        theirs = kstest(x, lambda v: 1.0 - np.exp(-v)).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            ks_distance([], lambda x: x)


class TestMomentScaling:
    @pytest.mark.parametrize(
        "nu,beta,r,want",
        [(1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 0.25, 0.5), (1.0, 0.5, 1.0, 0.5)],
    )
    def test_slopes(self, nu, beta, r, want):
        slope = moment_scaling_slope(
            1.0, nu, beta, r, [0.5, 1.0, 2.0, 4.0], RngSpec(0, 27), n_samples=N
        )
        assert slope == pytest.approx(want, abs=0.05)

    def test_divergent_moment_detected(self):
        # the first moment of a 1/2-stable draw is infinite
        with pytest.raises(ConvergenceError):
            moment_scaling_slope(
                1.0, 0.5, 1.0, 1.0, [0.5, 1.0, 2.0, 4.0], RngSpec(3, 28), n_samples=N
            )
