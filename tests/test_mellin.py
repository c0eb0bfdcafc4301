import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.integrate
from scipy.integrate import IntegrationWarning
from scipy.special import gamma as sp_gamma, gammaln, kv, loggamma as sp_loggamma

from anomdiff.errors import ConvergenceError, DomainError, PoleError, StripError, UnsupportedMethodError
from anomdiff import mellin
from anomdiff.frac_calc import GridFunction, rl_left
from anomdiff.laws import (
    GGLaw,
    MuVector,
    compose_fox,
    compose_mellin,
    f_nu_beta_fox,
    gg_fox,
    gg_mellin,
    h_density,
    h_fox,
    h_mellin,
    l_fox,
    l_mellin,
)
from anomdiff.mellin import (
    FoxH,
    fox_h_eval,
    fox_h_mellin,
    fox_h_series,
    fox_power,
    fox_product,
    mellin_convolve,
    mellin_inverse,
    mellin_numeric,
)
from anomdiff.solvers import space_fractional_fox, space_fractional_mellin, time_fractional_fox
from anomdiff.specfun import _ml_fox, _wright_fox, gamma_fn, wright_w

SQRT_PI = math.sqrt(math.pi)


def gamma_density(mu, t=1.0):
    def f(x):
        if x <= 0 or x > 700 * t:
            return 0.0
        return (x / t) ** (mu - 1.0) * math.exp(-x / t) / (t * gamma_fn(mu))

    return f


class TestMellinNumeric:
    def test_exponential_mean(self):
        assert mellin_numeric(gamma_density(1.0), 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_normalization(self):
        for mu in (0.5, 1.0, 2.0):
            assert mellin_numeric(gamma_density(mu), 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_ratio(self):
        got = mellin_numeric(gamma_density(2.0), 1.75)
        assert got == pytest.approx(gamma_fn(2.75) / gamma_fn(2.0), abs=1e-9)
        assert got == pytest.approx(1.6083594219855455, abs=1e-7)

    def test_strip_violation(self):
        # eta = -0.5 lies left of the gamma law's strip (0, inf): x^eta f(x)
        # grows at the window's lower end
        with pytest.raises(StripError):
            mellin_numeric(gamma_density(1.0), -0.5)

    def test_divergent_transform_raises(self):
        # no strip and no support: x^eta f(x) grows at the window's upper end,
        # where the parent returned 4.7e17 and 1.56e34
        with pytest.raises(StripError):
            mellin_numeric(lambda s: 1.0 / (1.0 + s), 1.5)
        with pytest.raises(StripError):
            mellin_numeric(lambda s: h_density(0.5, s, 1.0), 2.5)
        # inside the strip (-inf, 1 + nu) of the stable law: Gamma(1 + 1.4) / Gamma(1.7)
        got = mellin_numeric(lambda s: h_density(0.5, s, 1.0), 0.3)
        assert got == pytest.approx(gamma_fn(2.4) / gamma_fn(1.7), abs=1e-9)

    def test_support_cut_is_not_checked(self):
        # the caller owns a support cut: at x = 1e4, x^0.5/(1 + x) is 1e-2, far
        # above abs_tol, yet no StripError, and the transform is truncated there
        f = lambda x: 1.0 / (1.0 + x)
        got = mellin_numeric(f, 0.5, support=(1e-30, 1e4))
        assert got == pytest.approx(2.0 * math.atan(100.0), abs=1e-9)  # int_0^1e4 x^-0.5/(1+x) dx
        assert mellin_numeric(f, 0.5) == pytest.approx(math.pi, abs=1e-9)

    def test_scaling_and_shift_rules(self):
        f = gamma_density(2.0)
        for eta in (0.8, 1.3):
            got = mellin_numeric(lambda x: f(2.5 * x), eta)
            assert got == pytest.approx(2.5**-eta * gamma_fn(eta + 1.0), abs=1e-8)
            got = mellin_numeric(lambda x: x**0.6 * f(x), eta)
            assert got == pytest.approx(gamma_fn(eta + 1.6), abs=1e-8)

    def test_tail_integral_rule(self):
        # M[int_x^inf f](eta) = M[f](eta+1)/eta on the shape-2 gamma law
        f = gamma_density(2.0)
        tail = lambda x: (1.0 + x) * math.exp(-x) if x < 700 else 0.0
        for eta in (0.7, 1.2):
            assert mellin_numeric(tail, eta) == pytest.approx(
                mellin_numeric(f, eta + 1.0) / eta, abs=1e-7
            )


class TestMellinConvolve:
    def test_point_mass_recovers_identity(self):
        # a gamma spike at 1 approximates the unit of the convolution; the
        # tolerance is the smoothing bias of the finite spike width
        mu = 150.0

        def spike(s):
            if s <= 0:
                return 0.0
            lg = (mu - 1.0) * math.log(s * mu) - s * mu - math.lgamma(mu) + math.log(mu)
            return math.exp(lg) if lg > -700 else 0.0

        f = gamma_density(2.0)
        assert mellin_convolve(f, spike, 1.3) == pytest.approx(f(1.3), abs=5e-3)

    def test_mixed_pair_closed_form(self):
        f1 = gamma_density(1.0)
        f2 = lambda s: s**-2.0 * math.exp(-1.0 / s) if s > 0 else 0.0
        assert mellin_convolve(f1, f2, 1.0) == pytest.approx(0.25, abs=1e-9)

    def test_equal_pair_bessel_form(self):
        fh = lambda s: s**-0.5 * math.exp(-s) / SQRT_PI if 0 < s < 700 else 0.0
        want = 2.0 / math.pi * kv(0, 2.0)
        got = mellin_convolve(fh, fh, 1.0)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.07250709134387024, abs=1e-9)

    def test_factorization(self):
        f1 = gamma_density(0.7)
        f2 = gamma_density(1.9)
        for eta in (0.8, 1.2):
            lhs = mellin_numeric(lambda x: mellin_convolve(f1, f2, x), eta, support=(1e-30, 200.0))
            rhs = mellin_numeric(f1, eta) * mellin_numeric(f2, eta)
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestFoxH:
    def test_inverse_law_kernel_values(self):
        lh = l_fox(0.5)
        assert fox_h_mellin(lh, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert fox_h_mellin(lh, 0.5) == pytest.approx(gamma_fn(0.5) / gamma_fn(0.75), rel=1e-13)
        assert fox_h_mellin(lh, 0.5) == pytest.approx(1.4464090846320772, rel=1e-9)

    def test_stable_kernel_value(self):
        hh = h_fox(0.5)
        assert fox_h_mellin(hh, 0.5) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_eval_closed_forms(self):
        assert fox_h_eval(l_fox(0.5), 1.0) == pytest.approx(
            math.exp(-0.25) / SQRT_PI, abs=1e-10
        )
        assert fox_h_eval(h_fox(0.5), 1.0) == pytest.approx(
            math.exp(-0.25) / (2.0 * SQRT_PI), abs=1e-10
        )

    def test_shift_property(self):
        # shifting every factor (c, d) to (c + d, d) turns the kernel into
        # kernel(eta + 1) and multiplies the function by x; equivalently
        # the original equals x^-1 times the shifted evaluation
        lh = l_fox(0.5)
        shifted = FoxH(tuple((c + d, d) for c, d in lh.num), tuple((c + d, d) for c, d in lh.den))
        assert (shifted.strip.a, shifted.strip.b) == (lh.strip.a - 1.0, lh.strip.b)
        for eta in (1.2, 1.8):
            assert fox_h_mellin(shifted, eta) == pytest.approx(
                fox_h_mellin(lh, eta + 1.0), rel=1e-12
            )
        for x in (0.5, 1.0, 2.0):
            assert (1.0 / x) * mellin_inverse(shifted, x, 0.5) == pytest.approx(
                fox_h_eval(lh, x), abs=1e-8
            )

    @pytest.mark.parametrize("nu", [0.5, 1 / 3])
    def test_roundtrip(self, nu):
        lh, hh = l_fox(nu), h_fox(nu)
        for eta in (0.3, 0.6, 0.9):
            got = mellin_numeric(lambda x: fox_h_eval(lh, x), eta, support=(1e-30, 50.0))
            assert got == pytest.approx(fox_h_mellin(lh, eta), abs=1e-6)
            got = mellin_numeric(lambda x: fox_h_eval(hh, x), eta, support=(1e-30, 1e15))
            assert got == pytest.approx(fox_h_mellin(hh, eta), abs=1e-6)

    def test_pole_error_and_strip_error(self):
        lh = l_fox(0.5)
        with pytest.raises(StripError):
            fox_h_mellin(lh, -0.5)
        hh = h_fox(0.5)
        with pytest.raises(PoleError):
            fox_h_mellin(hh, 0.99999999999)  # Gamma(1-eta) argument hits 0

    def test_pole_on_strip_edge_lies_outside(self):
        # kernels whose edge pole computed one ulp inside a strip written out by hand
        for nu in (0.3, 0.8, 0.9):
            for beta in (0.3, 0.5, 1.0):
                assert math.isfinite(fox_h_eval(space_fractional_fox(1.0, nu, beta), 1.0))
        assert math.isfinite(fox_h_eval(f_nu_beta_fox(0.9, 0.5), 1.0))
        assert math.isfinite(fox_h_eval(compose_fox(-1.0, [k / 6 for k in range(1, 6)]), 1.0))

    def test_contour_cache_evicts_least_recently_used(self):
        samples = mellin._contour_samples
        samples.cache_clear()
        size = samples.cache_info().maxsize

        def key(k):
            # kernel (1 + k) Gamma(eta), which inverts to (1 + k) exp(-x): one
            # distinct kernel per prefactor
            return FoxH(((0.0, 1.0),), (), 1.0 + k)

        def hit(k):
            hits = samples.cache_info().hits
            mellin_inverse(key(k), 1.0, 1.0)
            return samples.cache_info().hits > hits

        for k in range(size):
            assert mellin_inverse(key(k), 1.0, 1.0) == pytest.approx((1.0 + k) * math.exp(-1.0), rel=1e-12)
        mellin_inverse(key(0), 1.0, 1.0)  # 0 becomes the most recent
        mellin_inverse(key(size), 1.0, 1.0)
        assert samples.cache_info().currsize == size
        assert hit(0) and hit(size) and not hit(1)

    def test_pole_tolerance_is_relative(self):
        # a Gamma argument within 1e-9 max(1, |x|) of 0, -1, -2, ... is a pole
        def fox(b):
            return FoxH(((0.0, 1.0), (b, 0.0)), ())

        for b in (-1.0000000005, -3.0000000025):
            with pytest.raises(PoleError):
                fox(b)
        for b in (-1.0000000015, -3.0000000035):
            assert math.isfinite(fox_h_mellin(fox(b), 0.5))

    def test_constant_factor_at_negative_argument(self):
        # kernel Gamma(eta) Gamma(-1.5) inverts to e^-x Gamma(-1.5); the real
        # log-Gamma of -1.5 is NaN, so the constant factor needs the complex one
        h = FoxH(((0.0, 1.0), (-1.5, 0.0)), ())
        assert h.kernel(0.5) == pytest.approx(SQRT_PI * gamma_fn(-1.5), rel=1e-14)
        assert fox_h_eval(h, 1.0) == pytest.approx(0.8693991095643895, rel=1e-13)

    def test_disjoint_strips_raise(self):
        # G(eta) needs eta > 0 and G(-1 - eta) needs eta < -1: their product has no strip
        with pytest.raises(DomainError, match="empty"):
            fox_product(l_fox(0.5), FoxH(((-1.0, -1.0),), ()))

    def test_equality_and_hash_read_the_fields(self):
        a, b = space_fractional_fox(1.5, 0.7, 0.8), space_fractional_fox(1.5, 0.7, 0.8)
        assert a == b and hash(a) == hash(b)
        assert a != space_fractional_fox(1.5, 0.7, 0.9)


_FACTORS = st.lists(
    st.tuples(st.floats(-50.0, 50.0), st.one_of(st.floats(-200.0, -0.1), st.floats(0.1, 200.0))),
    min_size=1, max_size=4,
)


class TestStripPoles:
    @settings(max_examples=300, deadline=None)
    @given(num=_FACTORS)
    def test_derived_strip_holds_no_numerator_pole(self, num):
        # G(c + d eta) has its poles at -(c + k)/d, k = 0, 1, ...; they move
        # away from the strip as k grows, so the first 64 of each factor suffice
        a = max((-c / d for c, d in num if d > 0.0), default=-math.inf)
        b = min((-c / d for c, d in num if d < 0.0), default=math.inf)
        if not a < b:
            with pytest.raises(DomainError):
                FoxH(num, ())
            return
        strip = FoxH(num, ()).strip
        poles = np.array([-(c + k) / d for c, d in num for k in range(64)])
        assert not np.any((strip.a < poles) & (poles < strip.b))
        for end in (strip.a, strip.b):
            if math.isfinite(end):
                assert min(abs(c + d * end) for c, d in num) <= 1e-9 * max(1.0, abs(end))

    @pytest.mark.parametrize("num,abscissa", [(((0.0, 1.0),), 1e-9), (((1.0, -1.0),), 1.0 - 1e-9)])
    def test_contour_abscissa_on_a_pole_raises(self, num, abscissa):
        # the pole sits on the strip end (0 or 1), so the strip is valid, but
        # the contour runs within 1e-9 of it
        h = FoxH(num, ())
        assert fox_h_eval(h, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        with pytest.raises(PoleError):
            mellin_inverse(h, 1.0, abscissa)

    def test_abscissa_is_checked_once_per_contour(self, monkeypatch):
        calls = []
        check = mellin._gamma_pole
        monkeypatch.setattr(mellin, "_gamma_pole", lambda *args: calls.append(args) or check(*args))
        mellin._contour_samples.cache_clear()
        h = FoxH(((0.0, 1.0),), ())
        for x in (0.5, 1.0, 2.0):  # one panel length, so one contour
            mellin_inverse(h, x, 0.3125)
        assert len(calls) == 1


# Hand-written Gamma-product transforms of the laws at time t.  The library
# derives each transform from its law's kernel, so these formulas are the
# independent oracles of the kernels and of the public transforms.


class TestResidueSeries:
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
    def test_stable_right_series_matches_contour(self, nu):
        # Delta = 1 - 1/nu < 0, so the right series of the stable kernel
        # converges: an oracle that shares no code with the contour
        for x in (0.5, 1.0, 3.0):
            value, _ = fox_h_series(h_fox(nu), x, "right")
            assert value == pytest.approx(h_density(nu, x, 1.0, "foxh"), rel=1e-10, abs=0.0)
            if nu == 0.5:
                want = x**-1.5 * math.exp(-0.25 / x) / (2.0 * SQRT_PI)
                assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_side_needs_exactly_one_pole_carrying_factor(self):
        with pytest.raises(UnsupportedMethodError, match="has 0"):
            fox_h_series(h_fox(0.5), 1.0, "left")
        two = FoxH(((0.0, 1.0), (0.5, 1.0)), ())
        with pytest.raises(UnsupportedMethodError, match="has 2"):
            fox_h_series(two, 1.0, "left")

    def test_shared_pole_raises(self):
        # G(eta) G(-eta) has a double pole at eta = 0, where its strip is empty
        with pytest.raises(DomainError, match="empty"):
            FoxH(((0.0, 1.0), (0.0, -1.0)), ((1.0, 0.5),))

    def test_cancelling_slopes_raise(self):
        k = FoxH(((0.0, 1.0),), ((0.5, 1.0),))
        with pytest.raises(DomainError, match="finite radius"):
            fox_h_series(k, 1.0, "left")

    def test_negative_argument_needs_integer_poles(self):
        with pytest.raises(DomainError, match="integer poles"):
            fox_h_series(h_fox(0.5), -1.0, "right")
        # the poles of G(eta) are the integers -k, so x < 0 is summed: the
        # series of l_fox(1/2) is exp(-x^2/4)/sqrt(pi) on the whole line
        assert fox_h_series(l_fox(0.5), -2.0, "left")[0] == pytest.approx(
            math.exp(-1.0) / SQRT_PI, rel=1e-13
        )

    def test_wright_kernel_is_the_inverse_law_kernel(self):
        nu = 0.55
        k = _wright_fox(-nu, 1.0 - nu)
        assert (k.num, k.den, k.strip, k.prefactor) == (l_fox(nu).num, l_fox(nu).den, l_fox(nu).strip, 1.0)
        assert k == l_fox(nu) and hash(k) == hash(l_fox(nu))
        value = fox_h_series(l_fox(nu), 1.0, "left")[0]
        before = mellin._residue_terms.cache_info()
        assert wright_w(-nu, 1.0 - nu, -1.0) == value
        after = mellin._residue_terms.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _time_fractional_mellin(gamma, mu, nu):
    # the product formula of time_fractional_fox, s = (eta - 1)/gamma
    def f(eta):
        s = (eta - 1.0) / gamma
        return gamma_fn(s + mu) / gamma_fn(mu) * gamma_fn(s + 1.0) / gamma_fn(nu * s + 1.0)

    return f


def _gg_mellin(gamma, mu, t, eta, tilde=False):
    # Gamma((eta-1)/gamma + mu) / Gamma(mu) t^s, s = eta - 1, or (eta-1)/gamma for tilde
    s = (eta - 1.0) / gamma if tilde else eta - 1.0
    return gamma_fn((eta - 1.0) / gamma + mu) / gamma_fn(mu) * t**s


def _compose_mellin(gamma, mus, t, eta):
    # t^(eta-1) prod_j Gamma((eta-1)/gamma + mu_j) / Gamma(mu_j)
    out = t ** (eta - 1.0)
    for m in mus:
        out *= gamma_fn((eta - 1.0) / gamma + m) / gamma_fn(m)
    return out


def _h_mellin(nu, t, eta):
    return gamma_fn((1.0 - eta) / nu) * t ** ((eta - 1.0) / nu) / (nu * gamma_fn(1.0 - eta))


def _l_mellin(nu, t, eta):
    return gamma_fn(eta) * t ** (nu * (eta - 1.0)) / gamma_fn(eta * nu - nu + 1.0)


def _space_fractional_mellin(mu, nu, beta, eta, t):
    # G(eta+mu-1)/G(mu) * G((1-eta)/nu)/(nu G(1-eta))
    #   * G((eta-1)/nu + 1)/G(beta (eta-1)/nu + 1) * t^(beta (eta-1)/nu),
    # with the stable ratio, which is 1 at nu = 1, left out there
    out = gamma_fn(eta + mu - 1.0) / gamma_fn(mu)
    if nu != 1.0:
        out *= gamma_fn((1.0 - eta) / nu) / (nu * gamma_fn(1.0 - eta))
    out *= gamma_fn((eta - 1.0) / nu + 1.0) / gamma_fn(beta * (eta - 1.0) / nu + 1.0)
    return out * t ** (beta * (eta - 1.0) / nu)


# each library constructor against its hand-written transform, at three eta
# inside its strip; together they hold numerator and denominator factors
# with slopes of both signs, and constant factors
_FACTOR_CASES = {
    "gg": (gg_fox(-2.0, 1.3), lambda e: _gg_mellin(-2.0, 1.3, 1.0, e), (-1.0, 1.0, 2.5)),
    "h": (h_fox(0.6), lambda e: _h_mellin(0.6, 1.0, e), (-1.5, 0.2, 0.8)),
    "l": (l_fox(0.4), lambda e: _l_mellin(0.4, 1.0, e), (0.3, 1.0, 2.5)),
    "compose+": (compose_fox(1.0, [0.5, 1.2, 2.0]),
                 lambda e: _compose_mellin(1.0, [0.5, 1.2, 2.0], 1.0, e), (0.6, 1.3, 3.0)),
    "compose-": (compose_fox(-1.0, [0.5, 1.2, 2.0]),
                 lambda e: _compose_mellin(-1.0, [0.5, 1.2, 2.0], 1.0, e), (-1.0, 0.5, 1.4)),
    "space": (space_fractional_fox(1.5, 0.7, 0.8),
              lambda e: _space_fractional_mellin(1.5, 0.7, 0.8, e, 1.0), (0.35, 0.6, 0.9)),
    "space nu=1": (space_fractional_fox(1.5, 1.0, 0.8),
                   lambda e: _space_fractional_mellin(1.5, 1.0, 0.8, e, 1.0), (0.35, 1.0, 2.5)),
    "time+": (time_fractional_fox(2.0, 1.3, 0.6), _time_fractional_mellin(2.0, 1.3, 0.6),
              (-0.5, 1.0, 3.0)),
    "time-": (time_fractional_fox(-2.0, 1.3, 0.6), _time_fractional_mellin(-2.0, 1.3, 0.6),
              (-1.0, 1.0, 2.5)),
}


@pytest.mark.parametrize("case", list(_FACTOR_CASES))
def test_factor_mapping_matches_hand_written_transforms(case):
    h, want, etas = _FACTOR_CASES[case]
    for eta in etas:
        assert fox_h_mellin(h, eta) == pytest.approx(want(eta), rel=1e-13, abs=0.0)


# each public transform at t = 1.7 against its hand-written formula: the
# kernel of the law times the time scaling t^(a(eta-1))
_TRANSFORM_CASES = {
    "gg": (lambda e, t: gg_mellin(GGLaw(-2.0, 1.3), t, e), lambda e, t: _gg_mellin(-2.0, 1.3, t, e),
           (-1.0, 1.0, 2.5)),
    "gg tilde": (lambda e, t: gg_mellin(GGLaw(2.0, 1.3), t, e, tilde=True),
                 lambda e, t: _gg_mellin(2.0, 1.3, t, e, tilde=True), (-0.5, 1.0, 3.0)),
    "h": (lambda e, t: h_mellin(0.6, t, e), lambda e, t: _h_mellin(0.6, t, e), (-1.5, 0.2, 0.8)),
    "l": (lambda e, t: l_mellin(0.4, t, e), lambda e, t: _l_mellin(0.4, t, e), (0.3, 1.0, 2.5)),
    "compose": (lambda e, t: compose_mellin(-1.0, MuVector.parse("1/2,6/5,2"), t, e),
                lambda e, t: _compose_mellin(-1.0, [0.5, 1.2, 2.0], t, e), (-1.0, 0.5, 1.4)),
    "space": (lambda e, t: space_fractional_mellin(1.5, 0.7, 0.8, e, t),
              lambda e, t: _space_fractional_mellin(1.5, 0.7, 0.8, e, t), (0.35, 0.6, 0.9)),
    "space nu=1": (lambda e, t: space_fractional_mellin(1.5, 1.0, 0.8, e, t),
                   lambda e, t: _space_fractional_mellin(1.5, 1.0, 0.8, e, t), (0.35, 1.0, 2.5)),
}


@pytest.mark.parametrize("case", list(_TRANSFORM_CASES))
def test_transforms_match_hand_written_formulas(case):
    got, want, etas = _TRANSFORM_CASES[case]
    for eta in etas:
        assert got(eta, 1.7) == pytest.approx(want(eta, 1.7), rel=1e-13, abs=0.0)


def test_transforms_raise_outside_the_kernel_strip():
    with pytest.raises(StripError):
        h_mellin(0.6, 1.0, 1.0)
    with pytest.raises(StripError):
        l_mellin(0.4, 1.0, 0.0)
    with pytest.raises(StripError):
        compose_mellin(1.0, [0.5, 1.2], 1.0, 0.4)


def _same_kernel(a, b, tol=1e-15):
    # factor by factor, to tol relative to max(1, |value|); strip ends and prefactor too
    for fa, fb in ((a.num, b.num), (a.den, b.den)):
        assert len(fa) == len(fb)
        for pa, pb in zip(fa, fb):
            assert pa == pytest.approx(pb, rel=tol, abs=tol)
    assert (a.strip.a, a.strip.b) == pytest.approx((b.strip.a, b.strip.b), rel=tol, abs=tol)
    assert a.prefactor == pytest.approx(b.prefactor, rel=tol)


class TestKernelAlgebra:
    @pytest.mark.parametrize("gamma", [1.0, -2.0])
    @pytest.mark.parametrize("r", [2.0, 0.5, -1.0])
    def test_power_of_generalized_gamma(self, gamma, r):
        # X ~ (gamma, mu) is G^(1/gamma) for a gamma variate G, so X^r ~ (gamma/r, mu)
        _same_kernel(fox_power(gg_fox(gamma, 1.3), r), gg_fox(gamma / r, 1.3))

    @pytest.mark.parametrize("r", [3.0, 0.4, -0.5, -2.0])
    def test_power_round_trip(self, r):
        for k in (h_fox(0.6), l_fox(0.4), compose_fox(-1.0, [0.5, 1.2]),
                  space_fractional_fox(1.5, 0.7, 0.8)):
            _same_kernel(fox_power(fox_power(k, r), 1.0 / r), k, tol=1e-14)

    def test_zero_power_raises(self):
        with pytest.raises(DomainError):
            fox_power(l_fox(0.5), 0.0)

    def test_product_kernel_and_strip(self):
        ks = (h_fox(0.6), fox_power(l_fox(0.4), 1.0 / 0.6), gg_fox(1.0, 0.9))
        prod = fox_product(*ks)
        assert (prod.strip.a, prod.strip.b) == (0.4, 1.0)  # (-inf, 1), (0.4, inf), (0.1, inf)
        etas = np.array([0.5 + 0.0j, 0.7 + 2.5j, 0.45 - 11.0j, 0.9 + 40.0j])
        want = ks[0].kernel(etas) * ks[1].kernel(etas) * ks[2].kernel(etas)
        np.testing.assert_allclose(prod.kernel(etas), want, rtol=1e-13, atol=0.0)

    def test_constructor_strips_match_hand_derived(self):
        # the strips each constructor's docstring states, which FoxH derives
        # from the numerator factors
        cases = [(h_fox(0.6), (-math.inf, 1.0)), (h_fox(1.0), (-math.inf, math.inf)),
                 (l_fox(0.4), (0.0, math.inf)), (_ml_fox(0.7, 1.3), (0.0, 1.0)),
                 (_wright_fox(-0.4, 0.6), (0.0, math.inf)), (_wright_fox(0.5, 1.5), (0.0, math.inf))]
        for g, mu in ((2.0, 1.3), (0.5, 0.7), (-1.0, 0.5), (-2.0, 1.3)):
            cases.append((gg_fox(g, mu), tuple(sorted((1.0 - g * mu, math.copysign(math.inf, g))))))
        for nu, beta in ((0.7, 0.5), (0.9, 0.5), (0.3, 1.0)):
            cases.append((f_nu_beta_fox(nu, beta), (1.0 - nu, 1.0)))
            for mu in (0.4, 1.5):
                cases.append((space_fractional_fox(mu, nu, beta), (max(1.0 - mu, 1.0 - nu), 1.0)))
                cases.append((space_fractional_fox(mu, 1.0, beta), (max(1.0 - mu, 0.0), math.inf)))
        mus = [0.5, 1.2, 2.0]
        for g in (1.0, 2.5):
            cases.append((compose_fox(g, mus), (1.0 - g * min(mus), math.inf)))
            cases.append((compose_fox(-g, mus), (-math.inf, 1.0 + g * min(mus))))
            for mu in (0.7, 1.3):
                cases.append((time_fractional_fox(g, mu, 0.6), (1.0 - g * min(mu, 1.0), math.inf)))
                cases.append((time_fractional_fox(-g, mu, 0.6), (-math.inf, 1.0 + g * min(mu, 1.0))))
        for h, want in cases:
            assert (h.strip.a, h.strip.b) == pytest.approx(want, rel=1e-15, abs=1e-15)


class TestQuad:
    def test_log_axis(self):
        # int_0^inf s e^-s ds = 1 over s = e^u
        got = mellin.quad(lambda s: s * math.exp(-s), -40.0, 6.0, log=True)
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_unmet_budget_raises(self):
        with pytest.raises(ConvergenceError, match="error estimate"):
            mellin.quad(lambda x: math.sin(1.0 / x) / x, 1e-8, 1.0, limit=10)

    def test_no_integration_warning_escapes_a_library_call(self):
        # quad warns on both integrands: the kinked one still meets its
        # budget; sin(1/s)/s oscillates without bound at 0 and does not
        nodes = np.geomspace(1e-3, 20.0, 10)
        gf = GridFunction(nodes, nodes * np.exp(-nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            assert math.isfinite(mellin_numeric(gf, 1.5, support=(1e-3, 20.0)))
            with pytest.raises(ConvergenceError):
                rl_left(0.5, lambda s: math.sin(1.0 / s) / s, 1.0)

    def test_acceptance_budgets(self, monkeypatch):
        # quad is asked for 1e-12 and abs_tol/10, but mellin_convolve accepts
        # an error estimate up to 1e-9 and mellin_numeric up to abs_tol; the
        # transform of e^-x converges, so mellin_numeric's window check passes
        calls = {
            1e-9: lambda: mellin_convolve(math.exp, math.exp, 1.0),
            1e-4: lambda: mellin_numeric(lambda x: math.exp(-x), 0.5, abs_tol=1e-4),
        }
        for budget, call in calls.items():
            monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (1e-3, 0.5 * budget))
            assert call() == 1e-3
            monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (1e-3, 2.0 * budget))
            with pytest.raises(ConvergenceError):
                call()

    def test_only_the_helper_calls_quad(self):
        src = Path(mellin.__file__).parent
        calls = re.compile(r"integrate\.quad|integrate import .*\bquad|IntegrationWarning")
        offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "mellin.py" and calls.search(p.read_text())]
        assert offenders == []


def _per_panel_samples(kernel, abscissa, panel, tol=mellin._CONTOUR_TOL, max_height=mellin._MAX_HEIGHT):
    # two kernel calls per panel, each panel's nodes concatenated: the sampling
    # the merged-panel rule of mellin._contour_samples must reproduce bit for bit
    scale = abs(complex(np.asarray(kernel(complex(abscissa, 0.0))).ravel()[0]))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    nodes, weighted, t0 = [], [], 0.0
    while t0 < max_height:
        s = t0 + 0.5 * panel * (mellin._GL_NODES + 1.0)
        nodes.append(s)
        weighted.append(0.5 * panel * mellin._GL_WEIGHTS * np.asarray(kernel(abscissa + 1j * s)))
        t0 += panel
        if abs(complex(np.asarray(kernel(complex(abscissa, t0))).ravel()[0])) < tol * scale:
            return np.concatenate(nodes), np.concatenate(weighted)
    raise ConvergenceError("no decay")


# kernels of the contour routes of the benchmark's direct and nested operations
_ROUTE_KERNELS = (
    [h_fox(nu) for nu in (0.2, 0.3, 0.5, 0.7, 0.8, 0.9)]
    + [l_fox(nu) for nu in (0.2, 0.3, 0.5, 0.7, 0.9)]
    + [space_fractional_fox(*p) for p in ((1.0, 0.5, 0.5), (1.0, 0.7, 0.5), (1.5, 0.6, 1.0))]
    + [compose_fox(g, [0.25, 0.5, 0.75]) for g in (1.0, -1.0, 4.0)]
    + [compose_fox(g, [0.2, 0.4, 0.6, 0.8]) for g in (1.0, -1.0, 5.0)]
    + [compose_fox(g, [0.5, 1.0, 1.5]) for g in (-1.0, 2.0)]
    + [f_nu_beta_fox(0.7, 0.5), f_nu_beta_fox(0.4, 0.5)]
    + [time_fractional_fox(1.0, 1.5, 0.5), time_fractional_fox(2.0, 0.7, 0.5)]
)


class TestContourSum:
    @pytest.mark.parametrize("panel", [4.0, 2.0, 1.0])
    def test_merged_panels_equal_per_panel_sampling(self, panel):
        for k in _ROUTE_KERNELS:
            c = k.strip.default_abscissa()
            t0, h, w = mellin._contour_samples(k, c, panel)
            s, wk = _per_panel_samples(k.kernel, c, panel)
            assert np.array_equal(t0, panel * np.arange(len(t0)))
            assert np.array_equal((t0[:, None] + h).ravel(), s)
            assert np.array_equal(w.ravel(), wk)

    @pytest.mark.parametrize("kernel", [
        h_fox(0.3), l_fox(0.7), compose_fox(-1.0, (1 / 4, 2 / 4, 3 / 4)),
        space_fractional_fox(1.0, 0.7, 0.5),
    ])
    def test_separable_sum_equals_per_sample_sum(self, kernel):
        c = kernel.strip.default_abscissa()
        for x in (1e-3, 0.5, 1.0, 30.0, 1e3):
            lx = math.log(x)
            t0, h, w = mellin._contour_samples(kernel, c, mellin._panel_length(lx))
            want = float(np.real(np.exp(-1j * (t0[:, None] + h).ravel() * lx) @ w.ravel()))
            got = fox_h_eval(kernel, x) * math.pi * x**c
            assert abs(got - want) <= 1e-14 * np.abs(w).sum()

    def test_constructors_are_memoized(self):
        mus = (0.25, 0.5, 0.75)
        same = [
            (gg_fox(2.0, 1.3), gg_fox(2.0, 1.3)),
            (h_fox(0.3), h_fox(0.3)),
            (l_fox(0.7), l_fox(0.7)),
            (f_nu_beta_fox(0.7, 0.5), f_nu_beta_fox(0.7, 0.5)),
            (time_fractional_fox(2.0, 1.3, 0.6), time_fractional_fox(2.0, 1.3, 0.6)),
            (space_fractional_fox(1.0, 0.7, 0.5), space_fractional_fox(1.0, 0.7, 0.5)),
            (compose_fox(-1.0, mus), compose_fox(-1, list(mus))),
            (compose_fox(-1.0, mus), compose_fox(-1.0, np.array(mus))),
            (compose_fox(-1.0, mus), compose_fox(-1.0, MuVector.from_integers((1, 2, 3), 4))),
        ]
        for a, b in same:
            assert a is b
        assert compose_fox(-1.0, mus) is not compose_fox(1.0, mus)

    def test_hash_is_computed_once_from_the_fields(self):
        # the memoized constructor returns one object, so build an equal one apart
        a = space_fractional_fox(1.5, 0.7, 0.8)
        b = FoxH(a.num, a.den, a.prefactor)
        assert a is not b and a == b
        assert hash(a) == hash(b) == a._hash == hash((a.num, a.den, a.prefactor))


def _scipy_kernel(h, eta):
    # the kernel summed from SciPy's complex log-Gamma, one factor at a time
    eta = np.asarray(eta, dtype=complex)
    log_k = sum(sp_loggamma(c + d * eta) for c, d in h.num) - sum(sp_loggamma(c + d * eta) for c, d in h.den)
    return h.prefactor * np.exp(log_k + np.zeros_like(eta))


def _exp_gap(z):
    # |exp(ours - scipy's) - 1|: the logarithms may differ by 2 pi i k
    return np.abs(np.expm1(mellin._loggamma(z) - sp_loggamma(z)))


class TestLogGamma:
    def test_matches_scipy_up_to_contour_heights(self):
        # the error is the phase round-off eps |Im log G(z)|, which SciPy's has
        # too; one call shifts every entry by the 72 that Re z = -60 needs
        im = np.geomspace(1e-3, 900.0, 60)
        z = (np.linspace(-60.0, 60.0, 241)[:, None] + 0.137 + 1j * np.concatenate([-im[::-1], [0.0], im])).ravel()
        assert np.max(_exp_gap(z)) <= 5e-12

    def test_matches_scipy_at_small_modulus(self):
        re, im = np.meshgrid(np.linspace(-30.0, 30.0, 241) + 0.0371, np.linspace(-30.0, 30.0, 241))
        z = (re + 1j * im).ravel()
        assert np.max(_exp_gap(z[np.abs(z) < 30.0])) <= 1e-13
        assert np.max(_exp_gap(z[np.abs(z) < 3.0])) <= 1e-14

    def test_negative_reals_keep_the_sign_of_gamma(self):
        x = -(np.arange(60.0)[:, None] + np.array([0.1, 0.5, 0.9])).ravel()
        ratio = np.exp(mellin._loggamma(x.astype(complex))) / sp_gamma(x)
        assert np.max(np.abs(ratio - 1.0)) <= 1.5e-13

    def test_reflection_far_left_of_the_origin(self):
        # Re z < -64 reflects, one call per point instead of one chunk per 8
        # of -Re z.  |log G| reaches 1e6 at Re z = -1e5, where doubles are
        # 2.3e-10 apart, so the bound is 1e-12 or two spacings of SciPy's
        # value, whichever is larger; the shift was 4e-9 off there
        z = (np.array([-1e2, -1e3, -1e4, -1e5])[:, None] + 0.37 + 1j * np.array([0.3, 50.0])).ravel()
        want = sp_loggamma(z)
        spacing = np.maximum(np.spacing(np.abs(want.real)), np.spacing(np.abs(want.imag)))
        assert np.all(_exp_gap(z) <= np.maximum(1e-12, 2.0 * spacing))
        # at a negative integer log|G| is +inf, as SciPy's real gammaln gives
        poles = np.array([-65.0, -1e3, -1e5])
        assert mellin._loggamma(poles.astype(complex)).real.tolist() == [math.inf] * 3
        assert gammaln(poles).tolist() == [math.inf] * 3

    def test_pole_gives_inf_and_its_reciprocal_zero(self):
        lg = mellin._loggamma(np.array([0.0, -3.0, 2.0], dtype=complex))
        assert lg[0].real == lg[1].real == math.inf
        # G(eta) / G(eta - 3) vanishes at eta = 3, where SciPy's kernel is NaN
        h = FoxH(((0.0, 1.0),), ((-3.0, 1.0),))
        assert h.kernel(np.array([0.5, 3.0])).tolist() == [pytest.approx(_scipy_kernel(h, 0.5), rel=1e-14), 0.0]

    def test_constant_factors_ride_along(self):
        h = FoxH(((0.0, 1.0), (-1.5, 0.0), (2.5, 0.0)), ((0.3, 0.0), (1.0, 0.5)), 0.7)
        eta = 0.5 + 1j * np.linspace(-40.0, 40.0, 81)
        assert np.max(np.abs(h.kernel(eta) / _scipy_kernel(h, eta) - 1.0)) <= 1e-13
        only = FoxH((), ((-1.5, 0.0), (0.3, 0.0)), 2.0)
        assert only.kernel(0.25) == pytest.approx(2.0 / (sp_gamma(-1.5) * sp_gamma(0.3)), rel=1e-14)
        empty = FoxH((), (), 3.0)
        assert np.array_equal(empty.kernel(eta), np.full(eta.shape, 3.0 + 0j))
        assert h.kernel(eta.reshape(9, 9)).shape == (9, 9)

    @pytest.mark.parametrize("kernel", [
        h_fox(0.3), h_fox(0.8), l_fox(0.3), l_fox(0.9), gg_fox(2.0, 1.3), gg_fox(-1.0, 0.5),
        compose_fox(1.0, (0.25, 0.5, 0.75)), compose_fox(-1.0, (0.2, 0.4, 0.6, 0.8)),
        f_nu_beta_fox(0.7, 0.5), space_fractional_fox(1.5, 0.6, 1.0), time_fractional_fox(2.0, 0.7, 0.5),
    ])
    def test_kernel_matches_scipy_on_contour_nodes(self, kernel):
        c = kernel.strip.default_abscissa()
        for panel in (4.0, 1.0):
            t0, h, _ = mellin._contour_samples(kernel, c, panel)
            eta = c + 1j * (t0[:, None] + np.append(h, panel)).ravel()
            assert np.max(np.abs(kernel.kernel(eta) / _scipy_kernel(kernel, eta) - 1.0)) <= 1e-12
