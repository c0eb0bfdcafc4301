import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv

from anomdiff.errors import ConvergenceError, DomainError, StripError, UnsupportedMethodError
from anomdiff.laws import (
    _ROUTES,
    GGLaw,
    MuVector,
    TimeStretch,
    compose_density,
    compose_invariance_gap,
    compose_mellin,
    econv,
    f_nu_beta,
    gconv,
    gg_density,
    gg_mellin,
    h_density,
    h_mellin,
    index_set,
    l_density,
    l_mellin,
    ratio_density,
    resolve_method,
    space_fractional_density,
    tabulate_density,
)
from anomdiff.mellin import mellin_numeric
from anomdiff.specfun import MLParams, gamma_fn, mittag_leffler
from quadrature_oracles import compose_quadrature, f_nu_beta_quadrature

SQRT_PI = math.sqrt(math.pi)


def levy_density(x, t):
    return t / (2.0 * SQRT_PI) * x**-1.5 * math.exp(-t * t / (4.0 * x))


def half_gaussian(x, t):
    return math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)


class TestGGLaw:
    def test_unit_exponential(self):
        assert gg_density(GGLaw(1.0, 1.0), 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_inverse_gamma_value(self):
        # x^(-3/2) exp(-t/x) t^(1/2) / Gamma(1/2) at (1, 1)
        want = math.exp(-1.0) / SQRT_PI
        got = gg_density(GGLaw(-1.0, 0.5), 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-13)
        norm = quad(lambda x: gg_density(GGLaw(-1.0, 0.5), x, 1.0), 0, np.inf, limit=200)[0]
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_half_gaussian_member(self):
        want = 2.0 * math.exp(-0.25) / (2.0 * SQRT_PI)
        assert gg_density(GGLaw(2.0, 0.5), 1.0, 2.0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("gamma,mu", [(1.0, 1.0), (2.0, 0.5), (-1.0, 1.5), (3.0, 1.0)])
    def test_normalization(self, gamma, mu):
        val = quad(lambda x: gg_density(GGLaw(gamma, mu), x, 1.3), 0, np.inf, limit=200)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("mu", [0.5, 2.0, 171.0, 180.0, 300.0])
    def test_large_shape_matches_scipy(self, mu):
        # past mu = 171 Gamma(mu) overflows, but the density does not
        from scipy import stats

        for x in (0.3 * mu, mu, 1.7 * mu + 1.0):
            want = stats.gamma(mu).pdf(x)
            assert gg_density(GGLaw(1.0, mu), x, 1.0) == pytest.approx(want, rel=1e-11)

    def test_tilde_rescales_time(self):
        law = GGLaw(2.0, 0.7)
        assert gg_density(law, 1.1, 3.0, tilde=True) == pytest.approx(
            gg_density(law, 1.1, 3.0 ** (1.0 / 2.0)), rel=1e-14
        )

    def test_mellin_values(self):
        assert gg_mellin(GGLaw(1.0, 1.0), 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert gg_mellin(GGLaw(1.0, 2.0), 1.0, 1.75) == pytest.approx(
            gamma_fn(2.75) / gamma_fn(2.0), rel=1e-13
        )
        for g, mu in ((1.0, 1.0), (2.0, 0.5), (-1.0, 1.2)):
            assert gg_mellin(GGLaw(g, mu), 1.7, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_mellin_matches_quadrature(self):
        law = GGLaw(2.0, 0.7)
        for eta in (0.8, 1.4):
            got = mellin_numeric(lambda x: gg_density(law, x, 1.5), eta)
            assert got == pytest.approx(gg_mellin(law, 1.5, eta), abs=1e-8)
            got = mellin_numeric(lambda x: gg_density(law, x, 1.5, tilde=True), eta)
            assert got == pytest.approx(gg_mellin(law, 1.5, eta, tilde=True), abs=1e-8)

    def test_strip_violation(self):
        with pytest.raises(StripError):
            gg_mellin(GGLaw(1.0, 0.5), 1.0, 0.2)

    def test_mirrored_strip_for_negative_shape_index(self):
        with pytest.raises(StripError):
            gg_mellin(GGLaw(-1.0, 0.5), 1.0, 1.8)
        assert gg_mellin(GGLaw(-1.0, 2.0), 1.0, 1.5) == pytest.approx(
            gamma_fn(1.5), rel=1e-13
        )

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            GGLaw(0.0, 1.0)


class TestClosedConvolutions:
    def test_mixed_pair(self):
        assert gconv(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_equal_pair(self):
        want = 2.0 / math.pi * kv(0, 2.0)
        assert econv(1.0, 0.5, 0.5, 1.0, 1.0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x", np.linspace(0.5, 2.5, 5))
    @pytest.mark.parametrize("t", np.linspace(0.5, 2.5, 5))
    def test_closed_forms_match_quadrature(self, x, t):
        # direct product-law quadrature against both closed forms
        from anomdiff.mellin import mellin_convolve

        got = mellin_convolve(
            lambda u: gg_density(GGLaw(1.0, 0.5), u, t),
            lambda u: gg_density(GGLaw(1.0, 0.75), u, 1.0),
            x,
        )
        assert got == pytest.approx(econv(1.0, 0.5, 0.75, x, t), abs=1e-7)
        got = mellin_convolve(
            lambda u: gg_density(GGLaw(1.0, 1.2), u, t),
            lambda u: gg_density(GGLaw(-1.0, 0.8), u, 1.0),
            x,
        )
        assert got == pytest.approx(gconv(1.0, 1.2, 0.8, x, t), abs=1e-7)


class TestStableLaw:
    def test_closed_value(self):
        got = h_density(0.5, 1.0, 1.0, "closed")
        assert got == pytest.approx(math.exp(-0.25) / (2.0 * SQRT_PI), rel=1e-13)
        assert got == pytest.approx(0.21969564473386122, rel=1e-10)

    @pytest.mark.parametrize("method", ["conv", "foxh"])
    def test_routes_match_levy(self, method):
        for x in (0.3, 1.0, 2.5):
            for t in (0.6, 1.0, 1.9):
                assert h_density(0.5, x, t, method) == pytest.approx(
                    levy_density(x, t), abs=1e-8
                )

    def test_one_third_conv_is_bessel_form(self):
        # the order-2 chain at stretched time reduces to a closed Bessel form
        for x, t in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.5)):
            T = (t / 3.0) ** 3
            want = (
                2.0
                * math.sqrt(T / x)
                / (x * gamma_fn(1 / 3) * gamma_fn(2 / 3))
                * kv(1 / 3, 2.0 * math.sqrt(T / x))
            )
            assert h_density(1 / 3, x, t, "conv") == pytest.approx(want, rel=1e-12)
            assert h_density(1 / 3, x, t, "foxh") == pytest.approx(want, abs=1e-10)

    def test_normalization(self):
        for nu in (0.5, 1 / 3):
            val = quad(lambda x: h_density(nu, x, 1.0), 0, np.inf, limit=200)[0]
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_laplace_transform(self):
        for nu in (0.5, 1 / 3):
            for lam in (0.5, 2.0):
                got = quad(
                    lambda x: math.exp(-lam * x) * h_density(nu, x, 1.0), 0, np.inf, limit=200
                )[0]
                assert got == pytest.approx(math.exp(-(lam**nu)), abs=1e-6)

    def test_unsupported_method(self):
        with pytest.raises(UnsupportedMethodError):
            h_density(0.4, 1.0, 1.0, "closed")
        with pytest.raises(UnsupportedMethodError):
            h_density(0.45, 1.0, 1.0, "conv")

    @pytest.mark.parametrize("nu", [0.4, 0.7])
    def test_contour_route_general_index(self, nu):
        # any index in (0, 1) is supported by the contour route
        got = quad(lambda x: math.exp(-x) * h_density(nu, x, 1.0, "foxh"),
                   0, np.inf, limit=300)[0]
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


class TestReciprocalIntegerIndex:
    """Small indices: 'auto' takes the composition route at nu = 1/k, and
    every depth answers; the contour answers at the indices between."""

    @staticmethod
    def series(law, nu, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            nu, x = mp.mpf(nu), mp.mpf(x)
            if law == "h":
                # sum_k (-1)^(k+1) Gamma(nu k + 1)/k! sin(pi nu k) x^(-nu k - 1) / pi
                val = mp.nsum(
                    lambda k: (-1) ** (k + 1) * mp.gamma(nu * k + 1) / mp.factorial(k)
                    * mp.sinpi(nu * k) * x ** (-nu * k - 1),
                    [1, mp.inf],
                ) / mp.pi
            else:
                # M-Wright series sum_k (-x)^k / (k! Gamma(1 - nu - nu k))
                val = mp.nsum(
                    lambda k: (-x) ** k / mp.factorial(k) * mp.rgamma(1 - nu - nu * k),
                    [0, mp.inf],
                )
            return float(val)

    @pytest.mark.parametrize("k", range(6, 21))
    def test_auto_matches_series(self, k):
        nu = 1.0 / k
        assert resolve_method("h", nu) == "conv" and resolve_method("l", nu) == "conv"
        for x in (0.5, 1.0, 2.0):
            for law, fn in (("h", h_density), ("l", l_density)):
                got = fn(nu, x, 1.0)
                assert math.isfinite(got) and got >= 0.0
                assert got == pytest.approx(self.series(law, nu, x), rel=1e-8)


    @pytest.mark.parametrize("nu", [0.1, 0.08, 1 / 13, 0.07, 1 / 16, 0.06])
    def test_contour_at_small_index_matches_series(self, nu):
        # the contour's panel follows the kernel's Stirling phase, which grows
        # like log(1/nu)/nu; a panel set by log x alone was 0.68 off at 1/16
        for x in (0.5, 1.0, 2.0, 3.0):
            assert h_density(nu, x, 1.0, "foxh") == pytest.approx(self.series("h", nu, x), rel=1e-8)


class TestInverseLaw:
    def test_closed_value(self):
        assert l_density(0.5, 1.0, 1.0, "closed") == pytest.approx(
            0.43939128946772243, rel=1e-12
        )

    @pytest.mark.parametrize("method", ["conv", "foxh", "wright"])
    def test_routes_match_half_gaussian(self, method):
        for x in (0.3, 1.0, 2.5):
            for t in (0.6, 1.0, 1.9):
                assert l_density(0.5, x, t, method) == pytest.approx(
                    half_gaussian(x, t), abs=1e-8
                )

    def test_mean(self):
        # first moment t^nu / Gamma(1 + nu)
        assert l_mellin(0.5, 1.0, 2.0) == pytest.approx(1.0 / gamma_fn(1.5), rel=1e-13)
        got = quad(lambda x: x * l_density(0.5, x, 1.0), 0, np.inf, limit=200)[0]
        assert got == pytest.approx(1.1283791670955126, abs=1e-9)

    def test_duality_with_nu_factor(self):
        # x h_nu(x, t) = nu t l_nu(t, x); both sides verified independently
        # against their Laplace transforms
        for nu in (0.5, 1 / 3):
            for x in (0.5, 1.0, 2.0):
                for t in (0.5, 1.0, 2.0):
                    lhs = x * h_density(nu, x, t)
                    rhs = nu * t * l_density(nu, t, x)
                    assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_laplace_is_mittag_leffler(self):
        for nu in (0.5, 1 / 3):
            for lam in (0.5, 1.0, 2.0):
                for t in (0.5, 2.0):
                    got = quad(
                        lambda x: math.exp(-lam * x) * l_density(nu, x, t), 0, np.inf, limit=200
                    )[0]
                    want = mittag_leffler(MLParams(nu, 1.0), -lam * t**nu)
                    assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("nu", [0.4, 0.7])
    def test_contour_matches_wright_general_index(self, nu):
        for x in np.linspace(0.2, 2.5, 6):
            assert l_density(nu, float(x), 1.3, "foxh") == pytest.approx(
                l_density(nu, float(x), 1.3, "wright"), abs=1e-10
            )

    @pytest.mark.parametrize("nu, x, method", [
        (0.4, 10.0, "auto"), (0.5, 10.0, "wright"), (0.7, 5.0, "auto"), (0.9, 2.0, "auto"),
    ])
    def test_wright_route_raises_where_its_sum_cancels(self, nu, x, method):
        # the round-off floor of the peak term exceeds 1e-6 of the sum; with an
        # absolute floor the first two returned 1.145e-7 (true 1.108e-7) and
        # -1.79e-4 (true 7.84e-12)
        assert resolve_method("l", nu, method) == "wright"
        with pytest.raises(ConvergenceError, match="loses all precision"):
            l_density(nu, x, 1.0, method)

    def test_mellin_transform(self):
        for nu in (0.5, 1 / 3):
            for eta in (0.5, 1.0, 1.5):
                got = mellin_numeric(
                    lambda x: l_density(nu, x, 1.3), eta, support=(1e-30, 60.0)
                )
                assert got == pytest.approx(l_mellin(nu, 1.3, eta), abs=1e-7)


class TestRatioLaw:
    def test_value_at_one(self):
        assert ratio_density(0.5, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_normalization(self):
        for nu in (0.3, 0.5, 0.8):
            val = quad(lambda x: ratio_density(nu, x), 0, np.inf, limit=300)[0]
            assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    def test_unbounded_at_origin_raises(self, nu):
        with pytest.raises(DomainError, match="x\\^\\(nu-1\\)"):
            ratio_density(nu, 0.0)
        # x^(1-nu) f(x) -> sin(pi nu)/pi as x -> 0
        for x in (1e-15, 1e-20, 1e-25):
            assert x ** (1.0 - nu) * ratio_density(nu, x) == pytest.approx(
                math.sin(math.pi * nu) / math.pi, rel=1e-3
            )

    @given(st.floats(0.05, 0.95), st.floats(0.05, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_inversion_symmetry(self, nu, x):
        assert x * x * ratio_density(nu, x) == pytest.approx(
            ratio_density(nu, 1.0 / x), rel=1e-10
        )


class TestMixedLaw:
    def test_equal_indices_reduce_to_ratio(self):
        for x, t in ((1.0, 1.0), (0.5, 1.4), (2.0, 0.7)):
            got = f_nu_beta(0.5, 0.5, x, t)
            assert got == pytest.approx(ratio_density(0.5, x / t) / t, abs=1e-6)
        assert f_nu_beta(0.5, 0.5, 1.0, 1.0) == pytest.approx(0.15915494309189535, abs=1e-7)

    def test_beta_one_degenerates_to_stable(self):
        assert f_nu_beta(0.5, 1.0, 1.0, 1.0) == pytest.approx(levy_density(1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("nu,beta", [(0.5, 1.0)])
    def test_zero_at_origin(self, nu, beta):
        # beta = 1 is the stable law, which vanishes at the origin
        assert f_nu_beta(nu, beta, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("nu,beta", [(0.5, 0.5), (0.7, 0.3), (0.7, 0.5)])
    def test_unbounded_at_origin_raises(self, nu, beta):
        # for nu, beta < 1 the density grows like x^(nu-1) as x -> 0
        with pytest.raises(DomainError, match="unbounded"):
            f_nu_beta(nu, beta, 0.0, 1.0)
        xs = (1e-2, 1e-4, 1e-6, 1e-8)
        vals = [f_nu_beta(nu, beta, x, 1.0) for x in xs]
        for x, v in zip(xs, vals):
            assert v * x ** (1.0 - nu) == pytest.approx(vals[-1] * xs[-1] ** (1.0 - nu), rel=0.05)
        assert vals == sorted(vals)

    def test_normalization(self):
        val = quad(lambda x: f_nu_beta(0.5, 0.5, x, 1.0), 0, np.inf, limit=200)[0]
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nu,beta", [(0.7, 0.5), (0.4, 0.5), (0.8, 0.5)])
    def test_contour_matches_quadrature(self, nu, beta):
        for x, t in ((0.3, 1.2), (1.0, 1.0), (2.5, 0.7)):
            want = f_nu_beta_quadrature(nu, beta, x, t)
            assert f_nu_beta(nu, beta, x, t) == pytest.approx(want, rel=1e-7)


class TestIndexSets:
    def test_singleton(self):
        got = index_set("P", 1, 2, 1)
        assert [v.serialize() for v in got] == ["1/2"]

    def test_ordered_pairs(self):
        got = [v.serialize() for v in index_set("P", 2, 3, 2)]
        assert got == ["1/3,2/3", "2/3,1/3"]

    def test_known_members(self):
        got = {v.serialize() for v in index_set("P", 4, 5, 24)}
        assert "1/5,2/5,3/5,4/5" in got
        assert "24/5,1/5,1/5,1/5" in got

    def test_sum_kind(self):
        got = index_set("S", 2, 2, 3)
        assert {v.serialize() for v in got} == {"1/2,2/2", "2/2,1/2"}
        assert all(v.in_sum_set(3) for v in got)

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_membership_invariants(self, n, kappa, target):
        for v in index_set("P", n, kappa, target):
            assert v.in_product_set(target)
        for v in index_set("S", n, kappa, target):
            assert v.in_sum_set(target)

    def test_serialization_roundtrip(self):
        v = MuVector.from_integers([24, 1, 1, 1], 5)
        assert MuVector.parse(v.serialize()) == v
        assert v.entries[0] == Fraction(24, 5)


class TestComposition:
    def test_single_factor(self):
        assert compose_density(1.0, [0.7], 1.2, 0.9) == pytest.approx(
            gg_density(GGLaw(1.0, 0.7), 1.2, 0.9), rel=1e-14
        )

    def test_inverse_law_member(self):
        # shape index 2, single factor 1/2 at stretched time is the nu=1/2
        # inverse law
        ts = TimeStretch(2)
        for x, t in ((0.7, 1.0), (1.3, 2.0)):
            got = compose_density(2.0, [0.5], x, ts.psi(t))
            assert got == pytest.approx(half_gaussian(x, t), rel=1e-12)

    def test_mellin_factorization(self):
        got = mellin_numeric(
            lambda x: compose_density(1.0, [0.5, 0.5], x, 1.0), 1.5, support=(1e-20, 200.0)
        )
        want = compose_mellin(1.0, [0.5, 0.5], 1.0, 1.5)
        assert got == pytest.approx(want, abs=1e-5)

    def test_depth_three_matches_mellin(self):
        got = mellin_numeric(
            lambda x: compose_density(1.0, [0.5, 1.0, 1.5], x, 1.0), 1.5,
            support=(1e-20, 300.0),
        )
        want = compose_mellin(1.0, [0.5, 1.0, 1.5], 1.0, 1.5)
        assert got == pytest.approx(want, abs=1e-5)

    def test_permutation_invariance(self):
        mu1 = MuVector.from_integers([1, 2], 3)
        mu2 = MuVector.from_integers([2, 1], 3)
        gap = compose_invariance_gap(mu1, mu2, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
        assert gap <= 1e-5

    def test_identical_vectors_zero_gap(self):
        mu = MuVector.from_integers([1, 2], 3)
        assert compose_invariance_gap(mu, mu, [1.0], [1.0]) == 0.0

    def test_products_past_int64(self):
        # the product 2^96 + ... of the upsilons wrapped around in np.prod,
        # which put two permutations of one vector in different classes
        big = 2**32
        mu1 = MuVector.from_integers([big - 1, big + 1, big + 3], big)
        mu2 = MuVector.from_integers([big + 3, big + 1, big - 1], big)
        assert compose_invariance_gap(mu1, mu2, [1.0], [1.0]) <= 1e-14

    def test_membership_guard(self):
        mu1 = MuVector.from_integers([1, 2], 3)
        mu3 = MuVector.from_integers([1, 3], 3)
        with pytest.raises(DomainError):
            compose_invariance_gap(mu1, mu3, [1.0], [1.0])

    def test_quadrature_depth_cap(self):
        with pytest.raises(DomainError):
            compose_quadrature(1.0, [0.2] * 5, 1.0, 1.0)

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 2.0])
    def test_contour_matches_quadrature_depth_three(self, gamma):
        for mu in ([0.25, 0.5, 0.75], [0.5, 1.0, 1.5]):
            for x in (0.3, 1.0, 2.5):
                want = compose_quadrature(gamma, mu, x, 1.3)
                assert compose_density(gamma, mu, x, 1.3) == pytest.approx(want, rel=1e-8)

    def test_contour_matches_quadrature_depth_four(self):
        # a left-tail and a central point; each quadrature point costs about 1 s
        mu = MuVector.from_integers([1, 2, 3, 4], 5)
        for x in (0.05, 1.0):
            want = compose_quadrature(1.0, mu, x, 1.0)
            assert compose_density(1.0, mu, x, 1.0) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n", [5, 6])
    def test_gauss_multiplication_beyond_quadrature_depth(self, n):
        # (1,...,n)/(n+1) is the law of c t / S, S one-sided stable of index
        # 1/(n+1), c = (n+1)^-(n+1) (acceptance criterion 4(b) at depth 4)
        mu = MuVector.from_integers(range(1, n + 1), n + 1)
        c = float(n + 1) ** -(n + 1)
        for x in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                want = c * t / x**2 * h_density(1.0 / (n + 1), c * t / x, 1.0, "foxh")
                assert compose_density(1.0, mu, x, t) == pytest.approx(want, rel=1e-9)


class TestResolveMethod:
    """`resolve_method` is the one place a route is chosen and checked."""

    DENSITY = {
        "h": lambda nu, method: h_density(nu, 1.0, 1.0, method),
        "l": lambda nu, method: l_density(nu, 1.0, 1.0, method),
        "g_nu_beta": lambda nu, method: space_fractional_density(1.0, nu, 0.5, 1.0, 1.0, method),
    }

    @pytest.mark.parametrize("law", sorted(_ROUTES))
    @pytest.mark.parametrize("route, nu", [("closed", 0.4), ("conv", 0.45)])
    def test_route_outside_its_domain_is_named(self, law, route, nu):
        with pytest.raises(UnsupportedMethodError, match=f"'{route}'"):
            resolve_method(law, nu, route)
        with pytest.raises(UnsupportedMethodError, match=f"'{route}'"):
            self.DENSITY[law](nu, route)

    @pytest.mark.parametrize("law", sorted(_ROUTES))
    def test_unknown_route(self, law):
        with pytest.raises(UnsupportedMethodError, match="unknown route 'bogus'"):
            resolve_method(law, 0.5, "bogus")
        with pytest.raises(UnsupportedMethodError, match="unknown route 'bogus'"):
            self.DENSITY[law](0.5, "bogus")

    @pytest.mark.parametrize("law, picks", [
        ("h", ("closed", "conv", "foxh")),
        ("l", ("closed", "conv", "wright")),
        ("g_nu_beta", ("foxh", "foxh", "foxh")),
    ])
    def test_auto_takes_the_first_route_that_serves(self, law, picks):
        assert tuple(resolve_method(law, nu) for nu in (0.5, 0.25, 0.3)) == picks

    @pytest.mark.parametrize("nu", [0.0, -0.5, math.nan, 1e-320])
    def test_conv_does_not_serve_an_index_without_a_finite_reciprocal(self, nu):
        # auto falls through to the route that serves every nu; the densities
        # then reject nu <= 0 and nan themselves
        assert resolve_method("h", nu) == "foxh" and resolve_method("l", nu) == "wright"

    @pytest.mark.parametrize("method", ["auto", "foxh"])
    def test_index_whose_reciprocal_overflows_is_named(self, method):
        # it raised "the strip (-inf, nan) is empty", which names no cause
        with pytest.raises(DomainError, match=re.escape("1/nu, which overflows at nu=1e-320")):
            h_density(1e-320, 1.0, 1.0, method)

    def test_closed_within_round_off_of_one_half(self):
        nu = 0.5 + 1e-13
        for law, want in (("h", levy_density(1.0, 1.0)), ("l", half_gaussian(1.0, 1.0))):
            assert resolve_method(law, nu) == "closed" and resolve_method(law, nu, "closed") == "closed"
            assert self.DENSITY[law](nu, "auto") == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("call,scale", [
    (lambda: h_density(0.25, 1.0, 1e-300, "foxh"), "time scale t^a"),
    (lambda: h_density(0.25, 1.0, 1e300, "foxh"), "time scale t^a"),
    (lambda: f_nu_beta(0.3, 0.9, 1.0, 1e300), "time scale t^a"),
    (lambda: compose_density(1.0, [0.5, 1.0, 1.5], 1.0, 1e-320), "time scale t^a"),
    (lambda: h_density(0.001, 1.0, 1.0), "stretched time"),
    (lambda: h_density(0.25, 1.0, 1e-300), "stretched time"),
    (lambda: h_density(0.02, 1.0, 1e10), "stretched time"),
    (lambda: h_density(0.5, 1e-300, 1e10, "foxh"), "argument x/t^a"),
], ids=["h-t1e-300", "h-t1e300", "f_nu_beta-t1e300", "compose-t1e-320", "h-nu0.001", "h-conv-t1e-300",
        "h-conv-t1e10", "h-x1e-300"])
def test_scale_outside_the_float_range_raises_convergence_error(call, scale):
    # valid inputs at extreme t, which raised ZeroDivisionError, OverflowError,
    # a bare ValueError or DomainError("x and t must be positive")
    with pytest.raises(ConvergenceError, match=re.escape(scale)):
        call()


class TestTimeStretch:
    def test_pair_inverse(self):
        ts = TimeStretch(3)
        assert ts.psi(ts.phi(2.0)) == pytest.approx(2.0, rel=1e-13)
        assert ts.phi(2.0) == pytest.approx((2.0 / 3.0) ** 3, rel=1e-14)


class TestTabulate:
    def test_rows_and_value(self):
        rows = tabulate_density("l", {"nu": 0.5}, np.linspace(0.1, 3.0, 30), [1.0])
        assert len(rows) == 30
        at_one = [r for r in rows if abs(r[0] - 1.0) < 1e-12]
        assert at_one and at_one[0][2] == pytest.approx(0.43939128946772243, abs=1e-8)

    def test_gg_value(self):
        rows = tabulate_density("gg", {"gamma": 1.0, "mu": 1.0}, [1.0], [1.0])
        assert rows[0][2] == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_unknown_density(self):
        with pytest.raises(DomainError):
            tabulate_density("nope", {}, [1.0], [1.0])

    def test_solver_densities(self):
        from anomdiff.solvers import space_fractional_density, time_fractional_solution

        xs, ts = [0.5, 1.0], [1.0, 2.0]
        for route in ("double_integral", "foxh"):
            rows = tabulate_density("g_nu_beta", {"nu": 0.7, "beta": 0.5, "route": route}, xs, ts)
            assert [r[:2] for r in rows] == [(x, t) for t in ts for x in xs]
            assert all(r[3] == route for r in rows)
            want = [space_fractional_density(1.0, 0.7, 0.5, x, t, route) for t in ts for x in xs]
            assert [r[2] for r in rows] == pytest.approx(want, rel=1e-12)
        rows = tabulate_density("u_time_frac", {"nu": 0.7}, xs, ts)
        assert all(r[3] == "u_time_frac" for r in rows)
        want = [time_fractional_solution(1.0, 1.0, 0.7, x, t) for t in ts for x in xs]
        assert [r[2] for r in rows] == pytest.approx(want, rel=1e-12)
