import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from anomdiff.errors import DomainError, PoleError, StripError, UnsupportedMethodError
from anomdiff.frac_calc import GridFunction
from anomdiff.laws import GGLaw, gg_density
from anomdiff.mellin import mellin_numeric
from anomdiff.solvers import (
    BVPSpec,
    adjoint_generator_apply,
    double_laplace_residual,
    eigen_system,
    fractional_power_operator,
    generator_apply,
    mellin_time_rule_residual,
    project_coefficients,
    space_fractional_density,
    space_fractional_mellin,
    sturm_liouville_solution,
    time_fractional_solution,
)
from anomdiff.specfun import MLParams, bessel_j, bessel_k, gamma_fn, mittag_leffler
from quadrature_oracles import time_fractional_quadrature

J0_ZERO_1 = 2.404825557695773


@pytest.fixture(scope="module")
def gamma2_grid():
    nodes = np.geomspace(1e-4, 60.0, 2000)
    vals = np.array([gg_density(GGLaw(1.0, 2.0), float(s), 1.0) for s in nodes])
    return GridFunction(nodes, vals, -np.inf)


class TestEigenSystem:
    def test_first_zero(self):
        es = eigen_system(1.0, 1.0, 3)
        assert es.zeros[0] == pytest.approx(J0_ZERO_1, abs=1e-10)

    def test_norm_closed_form(self):
        es = eigen_system(1.0, 1.0, 2)
        want = bessel_j(1.0, J0_ZERO_1) ** 2
        assert es.norms[0] == pytest.approx(want, rel=1e-8)

    def test_norm_matches_weighted_integral(self):
        es = eigen_system(1.0, 2.0, 2)
        got = quad(
            lambda x: float(es.eigenfunction(0, x)) ** 2 * float(es.weight(x)), 0, 1, limit=200,
            epsrel=1e-13,
        )[0]
        assert got == pytest.approx(es.norms[0], rel=1e-12)

    def test_orthogonality(self):
        es = eigen_system(1.0, 1.0, 3)
        val = quad(
            lambda x: float(es.eigenfunction(0, x))
            * float(es.eigenfunction(1, x))
            * float(es.weight(x)),
            0,
            1,
            limit=200,
        )[0]
        assert abs(val) <= 1e-8

    def test_eigen_relation_residual(self):
        es = eigen_system(1.0, 1.0, 1)
        k1 = es.zeros[0]
        f = lambda x: float(es.eigenfunction(0, x))
        lhs = generator_apply(1.0, 1.0, f, 0.5)
        rhs = -((k1 / 2.0) ** 2) * f(0.5)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-5

    def test_projection_of_unit_datum(self):
        es = eigen_system(1.0, 1.0, 2)
        c = project_coefficients(es, lambda x: 1.0)
        # oracle: direct quadrature, which also equals 2 J_1(k)/k
        want = quad(lambda x: bessel_j(0.0, J0_ZERO_1 * math.sqrt(x)), 0, 1, limit=200)[0]
        assert c[0] == pytest.approx(want, abs=1e-10)
        assert c[0] == pytest.approx(0.4317548070196803, abs=1e-9)
        assert c[0] == pytest.approx(2.0 * bessel_j(1.0, J0_ZERO_1) / J0_ZERO_1, abs=1e-10)


class TestSturmLiouville:
    def test_single_mode_exactness(self):
        es = eigen_system(1.0, 1.0, 8)
        m0 = lambda x: float(es.weight(x)) * float(es.eigenfunction(0, x))
        spec = BVPSpec(1.0, 1.0, 0.5, m0, n_terms=8)
        for (x, t) in ((0.4, 0.7), (0.7, 0.1)):
            want = m0(x) * mittag_leffler(MLParams(0.5), -((es.zeros[0] / 2.0) ** 2) * t**0.5)
            assert sturm_liouville_solution(spec)(x, t) == pytest.approx(want, abs=1e-10)

    def test_single_mode_classical_time_factor(self):
        es = eigen_system(1.0, 1.0, 4)
        m0 = lambda x: float(es.weight(x)) * float(es.eigenfunction(0, x))
        spec = BVPSpec(1.0, 1.0, 1.0, m0, n_terms=4)
        x, t = 0.3, 0.5
        want = m0(x) * math.exp(-((es.zeros[0] / 2.0) ** 2) * t)
        assert sturm_liouville_solution(spec)(x, t) == pytest.approx(want, abs=1e-10)

    def test_boundary_decay(self):
        spec = BVPSpec(1.0, 1.0, 0.5, lambda x: 1.0, n_terms=50)
        sol = sturm_liouville_solution(spec)
        peak = max(abs(sol(x, 0.5)) for x in np.linspace(0.05, 0.95, 19))
        assert abs(sol(0.999, 0.5)) <= 1e-2 * peak

    def test_initial_datum_l2_error_decreases(self):
        # weighted reconstruction error at t=0 shrinks with the mode count
        errs = []
        xs = np.linspace(0.01, 0.99, 99)
        for n in (5, 10, 20, 50):
            spec = BVPSpec(1.0, 1.0, 0.5, lambda x: 1.0, n_terms=n)
            sol = sturm_liouville_solution(spec)
            vals = np.array([sol(float(x), 0.0) for x in xs])
            errs.append(float(np.sqrt(np.mean((vals - 1.0) ** 2))))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_negative_gamma_datum_guard(self):
        with pytest.raises(DomainError, match="gamma must be positive"):
            BVPSpec(-1.0, 1.0, 0.5, lambda x: 1.0, n_terms=3)

    @pytest.mark.parametrize("gamma,mu", [(1.0, 1.0), (0.5, 2.5), (3.0, 0.7)])
    def test_piecewise_linear_datum(self, gamma, mu):
        # the nodes of a tabulated datum are break points; the oracle sums
        # quad over every panel between two kinks
        nodes = np.linspace(0.02, 1.0, 50)
        m0 = GridFunction(nodes, 0.3 + nodes * (1.0 - nodes))
        es = eigen_system(gamma, mu, 50)
        got = project_coefficients(es, m0)
        edges = np.concatenate([[0.0], nodes])
        for k in (0, 10, 49):
            want = sum(
                quad(lambda x: m0(x) * float(es.eigenfunction(k, x)), a, b, epsabs=1e-14, epsrel=1e-12)[0]
                for a, b in zip(edges[:-1], edges[1:])
            )
            assert got[k] == pytest.approx(want, abs=1e-12)

    def test_negative_gamma_norms_diverge(self):
        with pytest.raises(DomainError, match="diverges"):
            eigen_system(-1.0, 1.0, 3)


class TestTimeFractional:
    def test_degenerate_time_index(self):
        got = time_fractional_solution(1.0, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_mass_conservation(self):
        mass = quad(
            lambda x: time_fractional_solution(1.0, 1.0, 0.5, x, 1.0), 0, np.inf, limit=120
        )[0]
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_time_laplace_closed_form(self):
        # time transform equals 2 w(x) lam^(nu(mu+1)/2-1) x^((1-mu)/2)
        #   K_{1-mu}(2 sqrt(x) lam^(nu/2)) / Gamma(mu) for gamma = 1
        mu, nu, x, lam = 2.0, 0.5, 1.0, 1.0
        lhs = quad(
            lambda t: math.exp(-lam * t) * time_fractional_solution(1.0, mu, nu, x, t),
            0,
            np.inf,
            limit=120,
        )[0]
        w = x ** (mu - 1.0)
        rhs = (
            2.0
            * w
            * lam ** (nu * (mu + 1.0) / 2.0 - 1.0)
            * x ** ((1.0 - mu) / 2.0)
            * bessel_k(1.0 - mu, 2.0 * math.sqrt(x) * lam ** (nu / 2.0))
            / gamma_fn(mu)
        )
        assert lhs == pytest.approx(rhs, abs=1e-5)

    @pytest.mark.parametrize("gamma,mu", [(1.0, 1.5), (-1.0, 1.5), (2.0, 0.7), (-2.0, 0.7)])
    def test_contour_matches_quadrature(self, gamma, mu):
        for x, t in ((0.3, 1.3), (1.0, 1.0), (2.5, 0.6)):
            want = time_fractional_quadrature(gamma, mu, 0.5, x, t)
            assert time_fractional_solution(gamma, mu, 0.5, x, t) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("nu", [0.3, 0.4, 0.7, 0.9])
    def test_mass_and_mean_where_the_wright_series_overflows(self, nu):
        # the quadrature route raises 'Wright series overflow' at these nu;
        # mean of the unit exponential law at inverse time: 1/Gamma(1 + nu)
        f = lambda x: time_fractional_solution(1.0, 1.0, nu, x, 1.0)
        mass = quad(f, 0, np.inf, limit=200)[0]
        mean = quad(lambda x: x * f(x), 0, np.inf, limit=200)[0]
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(1.0 / gamma_fn(1.0 + nu), abs=1e-7)


class TestFractionalPower:
    def test_classical_limit(self, gamma2_grid):
        op = fractional_power_operator(2.0, 0.999, gamma2_grid)
        want = adjoint_generator_apply(
            1.0, 2.0, lambda s: gg_density(GGLaw(1.0, 2.0), s, 1.0), 1.0
        )
        assert op(1.0) == pytest.approx(want, rel=1e-3)

    def test_mellin_identity(self, gamma2_grid):
        op = fractional_power_operator(2.0, 0.5, gamma2_grid, n_mesh=256)
        eta, nu, mu = 1.25, 0.5, 2.0
        lhs = mellin_numeric(op, eta, support=(2e-4, 1e20), abs_tol=1e-4)
        rhs = (
            -gamma_fn(1.0 - eta + nu)
            * gamma_fn(eta + mu - 1.0)
            / (gamma_fn(1.0 - eta) * gamma_fn(eta + mu - 1.0 - nu))
            * gamma_fn(eta - nu + mu - 1.0)
            / gamma_fn(mu)
        )
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_linearity(self, gamma2_grid):
        nodes = gamma2_grid.nodes
        f2 = GridFunction(
            nodes,
            np.array([gg_density(GGLaw(1.0, 3.0), float(s), 1.0) for s in nodes]),
            -np.inf,
        )
        comb = GridFunction(nodes, 2.0 * gamma2_grid.values + 0.5 * f2.values, -np.inf)
        a = fractional_power_operator(2.0, 0.5, comb)(1.3)
        b = 2.0 * fractional_power_operator(2.0, 0.5, gamma2_grid)(1.3) + 0.5 * fractional_power_operator(
            2.0, 0.5, f2
        )(1.3)
        assert a == pytest.approx(b, abs=1e-5)

    def test_middle_stage_not_integrable_at_zero(self, gamma2_grid):
        # f ~ s^-1.5 at 0 makes the middle stage grow like s^-1.5: the outer
        # integral diverges, and the build says so
        nodes = gamma2_grid.nodes
        f = GridFunction(nodes, nodes**-1.5 * np.exp(-nodes), -np.inf)
        with pytest.raises(DomainError, match="not integrable"):
            fractional_power_operator(2.0, 0.5, f)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    def test_closed_form(self, nu):
        # on f = x e^-x with mu = 2 the operator is -Gamma(2+nu) x 1F1(2+nu; 2; -x),
        # from the power-law rule applied term by term
        nodes = np.geomspace(1e-5, 50.0, 2500)
        op = fractional_power_operator(2.0, nu, GridFunction(nodes, nodes * np.exp(-nodes), -np.inf))
        xs = np.geomspace(1e-3, 20.0, 40)
        want = -special.gamma(2.0 + nu) * xs * special.hyp1f1(2.0 + nu, 2.0, -xs)
        got = np.array([op(float(x)) for x in xs])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-4


class TestSpaceFractional:
    def test_degenerate_indices(self):
        got = space_fractional_density(1.5, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(gg_density(GGLaw(1.0, 1.5), 1.0, 1.0), rel=1e-13)

    @pytest.mark.parametrize("nu,beta", [(1.0, 0.5), (1.0, 1.0), (0.5, 0.5)])
    def test_unknown_route_is_named(self, nu, beta):
        # the name is checked before the nu = 1 guard of foxh and before the
        # degenerate return at nu = beta = 1
        with pytest.raises(UnsupportedMethodError, match="unknown route 'bogus'"):
            space_fractional_density(1.0, nu, beta, 1.0, 1.0, "bogus")

    @pytest.mark.parametrize("nu,beta", [(0.5, 1.0), (0.5, 0.5)])
    def test_route_agreement(self, nu, beta):
        for x in (0.6, 1.0, 1.7):
            for t in (0.7, 1.0, 1.8):
                di = space_fractional_density(1.0, nu, beta, x, t, "double_integral")
                assert space_fractional_density(1.0, nu, beta, x, t, "foxh") == pytest.approx(di, abs=1e-4)

    @pytest.mark.parametrize("nu,beta", [(0.3, 0.3), (0.8, 1.0), (0.9, 0.5)])
    def test_contour_at_indices_with_a_pole_on_the_strip_edge(self, nu, beta):
        # the pole of Gamma((eta-1)/nu + 1) at eta = 1 - nu sits on the strip
        # end and used to compute one ulp inside the strip (PoleError)
        for x in (0.5, 1.0, 2.0):
            got = space_fractional_density(1.0, nu, beta, x, 1.0, "foxh")
            assert math.isfinite(got)
            want = space_fractional_density(1.0, nu, beta, x, 1.0, "double_integral")
            assert got == pytest.approx(want, rel=1e-8)

    def test_self_similarity(self):
        # profile scaling g(x, t) = t^(-b/n) g(x t^(-b/n), 1)
        mu, nu, beta = 1.0, 0.5, 1.0
        for t in (0.5, 2.0):
            scale = t ** (beta / nu)
            a = space_fractional_density(mu, nu, beta, 1.0, t, "foxh")
            b = space_fractional_density(mu, nu, beta, 1.0 / scale, 1.0, "foxh") / scale
            assert a == pytest.approx(b, rel=1e-10)

    def test_mellin_identity_numeric(self):
        got = mellin_numeric(
            lambda x: space_fractional_density(1.0, 0.5, 0.5, x, 1.0, "double_integral"),
            0.8,
            support=(1e-30, 1e10),
        )
        assert got == pytest.approx(space_fractional_mellin(1.0, 0.5, 0.5, 0.8, 1.0), abs=1e-5)

    def test_transform_pole(self):
        # order-nu moment of the nu-stable factor diverges: eta = 1 + nu is a
        # genuine pole of the transform
        with pytest.raises(PoleError):
            space_fractional_mellin(1.0, 0.5, 0.5, 1.5, 1.0)

    def test_moment_slope_from_transform(self):
        ts = np.array([0.5, 1.0, 2.0, 4.0])
        for beta in (0.5, 1.0):
            vals = [space_fractional_mellin(1.0, 1.0, beta, 2.0, float(t)) for t in ts]
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert slope == pytest.approx(beta, abs=0.02)


class TestConcurrency:
    def test_concurrent_callers_agree(self):
        # eigen-system cache under concurrent readers plus pure evaluators
        import concurrent.futures

        from anomdiff.laws import h_density as hd

        def work(i):
            es = eigen_system(1.0, 1.0, 6)
            return float(es.zeros[0]) + hd(0.5, 1.0 + 0.01 * i, 1.0, "foxh")

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(work, range(16)))
        want = [work(i) for i in range(16)]
        assert got == want


class TestResiduals:
    @pytest.mark.parametrize(
        "mu,nu,eta,t",
        [(2.0, 0.5, 2.0, 1.0), (1.0, 1 / 3, 1.5, 2.0), (1.5, 1.0, 2.0, 1.0)],
    )
    def test_mellin_time_rule(self, mu, nu, eta, t):
        assert mellin_time_rule_residual(mu, nu, eta, t) <= 1e-10

    def test_mellin_time_rule_strip(self):
        with pytest.raises(StripError):
            mellin_time_rule_residual(0.5, 0.5, 0.6, 1.0)

    def test_double_laplace(self):
        assert double_laplace_residual(0.5, 0.5, 1.0, 1.0) <= 1e-4
        assert double_laplace_residual(1 / 3, 0.5, 2.0, 1.0) <= 1e-4
        assert double_laplace_residual(0.5, 1.0, 1.0, 1.0) <= 1e-4

    def test_double_laplace_known_value(self):
        # at nu = beta = 1/2, xi = lam = 1 the closed symbol is 1/2
        res = double_laplace_residual(0.5, 0.5, 1.0, 1.0)
        assert res == pytest.approx(0.0, abs=1e-4)
