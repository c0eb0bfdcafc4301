import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from anomdiff.errors import ConvergenceError, DomainError, PoleError
from anomdiff.specfun import (
    MLParams,
    bessel_i,
    bessel_j,
    bessel_j_zeros,
    bessel_k,
    beta_fn,
    gamma_fn,
    mittag_leffler,
    wright_w,
)


def stirling_gamma(x, shift=25):
    """Independent oracle: Stirling series at x+shift, walked down by the
    recurrence Gamma(x+1) = x Gamma(x).  Accurate to ~1e-13 relative."""
    z = x + shift
    series = (
        1.0
        + 1.0 / (12.0 * z)
        + 1.0 / (288.0 * z**2)
        - 139.0 / (51840.0 * z**3)
        - 571.0 / (2488320.0 * z**4)
        + 163879.0 / (209018880.0 * z**5)
        + 5246819.0 / (75246796800.0 * z**6)
    )
    val = math.sqrt(2.0 * math.pi / z) * (z / math.e) ** z * series
    for k in range(shift):
        val /= x + k
    return val


class TestGamma:
    def test_at_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_stirling_cross_check(self):
        for x in (1.75, 0.3, 2.5, 7.25, -0.5, -1.5):
            assert gamma_fn(x) == pytest.approx(stirling_gamma(x), rel=1e-12)

    def test_relative_accuracy_window(self):
        # oracle itself is good to ~1e-13; the implementation is tighter still
        for x in np.linspace(0.05, 50.0, 97):
            assert gamma_fn(float(x)) == pytest.approx(stirling_gamma(float(x)), rel=5e-13)

    def test_matches_scipy_on_the_real_line(self):
        xs = np.arange(-170.5, 171.5 + 1e-9, 0.07)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-6]  # skip the poles
        got = np.array([gamma_fn(float(x)) for x in xs])
        want = sp.gamma(xs)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_overflow_is_inf(self):
        assert gamma_fn(172.0) == math.inf
        assert gamma_fn(171.5) < math.inf

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -170.0])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_beta(self):
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)


class TestMittagLeffler:
    def test_exp_reduction(self):
        p = MLParams(1.0, 1.0)
        assert mittag_leffler(p, 1.0) == pytest.approx(math.e, abs=1e-13)
        for z in np.linspace(-20.0, 5.0, 51):
            assert mittag_leffler(p, float(z)) == pytest.approx(math.exp(z), abs=1e-12)

    def test_value_at_zero(self):
        assert mittag_leffler(MLParams(0.5, 1.0), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_erfcx_oracle(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z); scipy's erfcx is the oracle.  Steps
        # of 0.01 cross every branch switch of the negative axis
        p = MLParams(0.5, 1.0)
        for z in np.arange(-3000, 201) / 100.0:
            want = float(sp.erfcx(-z)) if z <= 0 else math.exp(z * z) * float(sp.erfc(-z))
            assert mittag_leffler(p, float(z)) == pytest.approx(want, rel=1e-12)

    def test_moderate_positive_arguments(self):
        # z = 6 is summed as a series of positive terms; from z^2 = 50 on, the
        # exponential asymptotic answers, where at z = 20 the series would run
        # out of its terms.  E_{1/2,1/2}(z) = 1/sqrt(pi) + z E_{1/2}(z)
        for z in (6.0, 10.0, 20.0, 25.0):
            want = math.exp(z * z) * float(sp.erfc(-z))
            assert mittag_leffler(MLParams(0.5), z) == pytest.approx(want, rel=1e-12)
            want = 1.0 / math.sqrt(math.pi) + z * want
            assert mittag_leffler(MLParams(0.5, 0.5), z) == pytest.approx(want, rel=1e-12)
        # E_a(z) = exp(z^(1/a)) / a - 1/(z Gamma(1 - a)) + ...; the correction is
        # below the round-off of the leading term
        want = math.exp(40.0 ** (1.0 / 0.9)) / 0.9
        assert mittag_leffler(MLParams(0.9), 40.0) == pytest.approx(want, rel=1e-12)
        # E_2(z) = cosh(sqrt(z)) stays on the series, which runs past the
        # underflow of 1/Gamma(2k + 1)
        assert mittag_leffler(MLParams(2.0), 300.0**2) == pytest.approx(math.cosh(300.0), rel=1e-12)

    def test_overflow_raises(self):
        # E_{1/2}(27) = e^729 erfc(-27) and E_1(710) = e^710 are past the
        # float range, and so is z^(1/alpha) itself at E_{0.01}(1e10)
        for alpha, z in ((0.5, 27.0), (1.0, 710.0), (0.01, 1e10)):
            with pytest.raises(ConvergenceError, match="overflows"):
                mittag_leffler(MLParams(alpha), z)

    @pytest.mark.parametrize("alpha", [0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0])
    def test_completely_positive_grid(self, alpha):
        hi = 30.0 if alpha <= 0.75 else 8.0
        vals = [mittag_leffler(MLParams(alpha, 1.0), -float(t)) for t in np.linspace(0, hi, 240)]
        arr = np.array(vals)
        assert np.all(arr >= 0.0)
        assert np.all(np.diff(arr) <= 1e-15)
        assert arr[0] == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.2, 1.0), st.floats(0.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_reciprocal_gamma_beta_one(self, alpha, t):
        val = mittag_leffler(MLParams(alpha, 1.0), -t)
        assert 0.0 < val <= 1.0 + 1e-12

    def test_invalid_alpha(self):
        with pytest.raises(DomainError):
            MLParams(0.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("same_beta", [True, False])
    def test_against_high_precision_series(self, alpha, same_beta):
        # oracle: the power series in mpmath at 40 + |z|^(1/alpha)/2.3 digits,
        # enough to carry its cancellation; alpha and beta enter as the
        # binary floats the function sees
        mp = pytest.importorskip("mpmath")
        beta = alpha if same_beta else 1.0
        a, b = mp.mpf(alpha), mp.mpf(beta)
        for z in -np.logspace(math.log10(0.05), math.log10(150.0**alpha), 50):
            with mp.workdps(int(40 + abs(z) ** (1.0 / alpha) / 2.3)):
                x, acc, k = mp.mpf(float(z)), mp.mpf(0), 0
                while True:
                    term = x**k * mp.rgamma(a * k + b)
                    acc += term
                    if k > 10 and abs(term) < abs(acc) * mp.mpf(10) ** (5 - mp.mp.dps):
                        break
                    k += 1
                want = float(acc)
            assert mittag_leffler(MLParams(alpha, beta), float(z)) == pytest.approx(want, rel=1e-11)


class TestWright:
    def test_k0_term(self):
        for beta in (0.5, 1.0, 1.7):
            assert wright_w(-0.25, beta, 0.0) == pytest.approx(1.0 / gamma_fn(beta), rel=1e-14)

    def test_half_gaussian_value(self):
        # equals the inverse-law closed form at (x, t) = (1, 1)
        want = math.exp(-0.25) / math.sqrt(math.pi)
        assert wright_w(-0.5, 0.5, -1.0) == pytest.approx(want, abs=1e-12)

    def test_exp_reduction(self):
        assert wright_w(0.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-13)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            wright_w(-1.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "alpha, beta, z, factorial",
    [(1.0, 30.0, 20.0, False), (0.5, 20.0, 1.0, False), (0.5, 30.0, 2.0, True)],
)
def test_series_of_small_terms_keeps_relative_precision(alpha, beta, z, factorial):
    # every term lies below 1e-14, so only a stop relative to the partial sum
    # sums them in full; oracle: the series in mpmath at 40 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        want = float(mp.nsum(lambda k: mp.mpf(z) ** k * mp.rgamma(alpha * k + beta)
                             / (mp.factorial(k) if factorial else 1), [0, mp.inf]))
    got = wright_w(alpha, beta, z) if factorial else mittag_leffler(MLParams(alpha, beta), z)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestBessel:
    def test_j_at_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_j_half_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in (0.5, 1.0, math.pi, 7.0):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(want, abs=1e-13)

    def test_j_abs_accuracy_window(self):
        for x in np.linspace(0.0, 100.0, 41):
            want = math.sqrt(2.0 / (math.pi * max(x, 1e-300))) * math.sin(x) if x > 0 else 0.0
            assert abs(bessel_j(0.5, float(x)) - want) < 1e-12

    def test_k_half_closed_form(self):
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k(0.5, 1.0) == pytest.approx(want, rel=1e-13)

    def test_k0_integral_oracle(self):
        # K_0(x) = int_0^inf exp(-x cosh u) du by quadrature
        from scipy.integrate import quad

        want = quad(lambda u: math.exp(-2.0 * math.cosh(u)), 0, 20)[0]
        assert bessel_k(0.0, 2.0) == pytest.approx(want, abs=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_k_symmetry_exact(self, order, x):
        assert bessel_k(order, x) == bessel_k(-order, x)

    def test_k_positive_decreasing(self):
        xs = np.linspace(0.2, 8.0, 40)
        vals = [bessel_k(0.7, float(x)) for x in xs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_k_subnormal_order(self):
        # scipy's kv is NaN at subnormal orders; they are taken as order 0
        for order in (2.2250738585e-313, -2.2250738585e-313, 5e-324):
            assert bessel_k(order, 1.0) == bessel_k(0.0, 1.0)

    def test_k_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)

    def test_i_series_cross_check(self):
        # direct series oracle for the first-kind modified function
        def i_series(a, z):
            return sum((z / 2.0) ** (a + 2 * k) / (math.gamma(k + 1) * math.gamma(a + k + 1)) for k in range(60))

        for a, z in ((0.3, 1.0), (1.7, 2.5)):
            assert bessel_i(a, z) == pytest.approx(i_series(a, z), rel=1e-12)

    def test_k_from_i_difference_formula(self):
        # K_a = pi (I_{-a} - I_a) / (2 sin a pi) for non-integer order
        for a, z in ((0.3, 1.2), (0.5, 2.0), (1.25, 0.8)):
            want = math.pi * (bessel_i(-a, z) - bessel_i(a, z)) / (2.0 * math.sin(a * math.pi))
            assert bessel_k(a, z) == pytest.approx(want, rel=1e-10)


class TestBesselZeros:
    def bisect_oracle(self, order, lo, hi):
        f = lambda x: sp.jv(order, x)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sign(f(lo)) == np.sign(f(mid)):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_first_zero_j0(self):
        want = self.bisect_oracle(0.0, 2.0, 3.0)
        got = bessel_j_zeros(0.0, 1)
        assert got[0] == pytest.approx(want, abs=1e-9)
        assert got[0] == pytest.approx(2.404825557695773, abs=1e-9)

    def test_second_zero_j0(self):
        got = bessel_j_zeros(0.0, 2)
        assert got[1] == pytest.approx(5.520078110286311, abs=1e-9)

    @pytest.mark.parametrize("order", [-0.99, -0.5, 0.0, 0.5, 1.0, 2.5, 10.0, 60.0])
    def test_strictly_increasing_and_small_residual(self, order):
        zs = bessel_j_zeros(order, 8)
        assert np.all(np.diff(zs) > 0)
        assert np.all(np.abs(sp.jv(order, zs)) <= 1e-10)

    def test_large_order(self):
        # the first zero of J_200 lies near 211, past the order: the matrix
        # must reach beyond it; each zero is a sign change of J
        zs = bessel_j_zeros(200.0, 40)
        assert zs[0] == pytest.approx(self.bisect_oracle(200.0, 205.0, 215.0), rel=1e-14)
        assert np.all(np.diff(zs) > 0)
        assert np.all(np.abs(sp.jv(200.0, zs)) <= 1e-10)
        assert np.all(np.sign(sp.jv(200.0, zs - 1e-6)) != np.sign(sp.jv(200.0, zs + 1e-6)))

    def test_half_order_zeros_are_sine_zeros(self):
        zs = bessel_j_zeros(-0.5, 4)
        want = (np.arange(4) + 0.5) * math.pi
        assert np.allclose(zs, want, atol=1e-10)

    def test_count_domain(self):
        with pytest.raises(DomainError):
            bessel_j_zeros(0.0, 0)
