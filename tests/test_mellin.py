import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy import special as sp
from scipy.integrate import IntegrationWarning
from scipy.special import kv

from anomdiff.errors import ConvergenceError, DomainError, PoleError, StripError
from anomdiff import mellin
from anomdiff.frac_calc import GridFunction, rl_left
from anomdiff.laws import (
    compose_fox,
    compose_mellin,
    f_nu_beta_fox,
    gg_fox,
    h_density,
    h_fox,
    h_mellin,
    l_fox,
    l_mellin,
)
from anomdiff.mellin import (
    FoxH,
    MellinStrip,
    fox_h_eval,
    fox_h_mellin,
    fox_power,
    fox_product,
    mellin_convolve,
    mellin_inverse,
    mellin_numeric,
)
from anomdiff.solvers import space_fractional_fox, space_fractional_mellin, time_fractional_fox
from anomdiff.specfun import gamma_fn

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
        with pytest.raises(StripError):
            mellin_numeric(gamma_density(1.0), 2.0, strip=MellinStrip(0.0, 1.5))

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
        shifted = FoxH(
            tuple((c + d, d) for c, d in lh.num),
            tuple((c + d, d) for c, d in lh.den),
            MellinStrip(lh.strip.a - 1.0, lh.strip.b),
        )
        for eta in (1.2, 1.8):
            assert fox_h_mellin(shifted, eta) == pytest.approx(
                fox_h_mellin(lh, eta + 1.0), rel=1e-12
            )
        for x in (0.5, 1.0, 2.0):
            assert (1.0 / x) * fox_h_eval(shifted, x, abscissa=0.5) == pytest.approx(
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

    def test_pole_free_strip_enforced(self):
        with pytest.raises(PoleError):
            FoxH(((0.0, 1.0),), ((0.5, 0.5),), MellinStrip(-1.0, 1.0))

    def test_pole_on_strip_edge_lies_outside(self):
        # Gamma(eta) has its pole at 0: a strip end within 1e-12 of it is
        # taken as lying on the pole, a strip end 1e-6 below it is not
        FoxH(((0.0, 1.0),), (), MellinStrip(-1e-14, 1.0))
        with pytest.raises(PoleError):
            FoxH(((0.0, 1.0),), (), MellinStrip(-1e-6, 1.0))
        # kernels whose edge pole computes one ulp inside their strip
        for nu in (0.3, 0.8, 0.9):
            for beta in (0.3, 0.5, 1.0):
                assert math.isfinite(fox_h_eval(space_fractional_fox(1.0, nu, beta), 1.0))
        assert math.isfinite(fox_h_eval(f_nu_beta_fox(0.9, 0.5), 1.0))
        assert math.isfinite(fox_h_eval(compose_fox(-1.0, [k / 6 for k in range(1, 6)]), 1.0))

    def test_contour_cache_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(mellin, "_CONTOUR_CACHE", type(mellin._CONTOUR_CACHE)())
        cache, size = mellin._CONTOUR_CACHE, mellin._CONTOUR_CACHE_SIZE
        kernel = sp.gamma  # inverts to exp(-x)
        for key in range(size):
            assert mellin_inverse(kernel, 1.0, 1.0, cache_key=key) == pytest.approx(
                math.exp(-1.0), rel=1e-12
            )
        mellin_inverse(kernel, 1.0, 1.0, cache_key=0)  # 0 becomes the most recent
        mellin_inverse(kernel, 1.0, 1.0, cache_key=size)
        assert len(cache) == size
        keys = {k[0] for k in cache}
        assert 0 in keys and size in keys and 1 not in keys

    def test_pole_tolerance_is_relative(self):
        # a Gamma argument within 1e-9 max(1, |x|) of 0, -1, -2, ... is a pole
        def fox(b):
            return FoxH(((0.0, 1.0), (b, 0.0)), (), MellinStrip(0.0, 1.0))

        for b in (-1.0000000005, -3.0000000025):
            with pytest.raises(PoleError):
                fox(b)
        for b in (-1.0000000015, -3.0000000035):
            assert math.isfinite(fox_h_mellin(fox(b), 0.5))

    def test_constant_factor_at_negative_argument(self):
        # kernel Gamma(eta) Gamma(-1.5) inverts to e^-x Gamma(-1.5); the real
        # log-Gamma of -1.5 is NaN, so the constant factor needs the complex one
        h = FoxH(((0.0, 1.0), (-1.5, 0.0)), (), MellinStrip(0.0, 1.0))
        assert h.kernel(0.5) == pytest.approx(SQRT_PI * gamma_fn(-1.5), rel=1e-14)
        assert fox_h_eval(h, 1.0) == pytest.approx(0.8693991095643895, rel=1e-13)

    def test_equality_and_hash_read_the_fields(self):
        a, b = space_fractional_fox(1.5, 0.7, 0.8), space_fractional_fox(1.5, 0.7, 0.8)
        assert a == b and hash(a) == hash(b)
        assert a != space_fractional_fox(1.5, 0.7, 0.9)


def _time_fractional_mellin(gamma, mu, nu):
    # the product formula of time_fractional_fox, s = (eta - 1)/gamma
    def f(eta):
        s = (eta - 1.0) / gamma
        return gamma_fn(s + mu) / gamma_fn(mu) * gamma_fn(s + 1.0) / gamma_fn(nu * s + 1.0)

    return f


# each library constructor against its hand-written transform, at three eta
# inside its strip; together they hold numerator and denominator factors
# with slopes of both signs, and constant factors
_FACTOR_CASES = {
    "h": (h_fox(0.6), lambda e: h_mellin(0.6, 1.0, e), (-1.5, 0.2, 0.8)),
    "l": (l_fox(0.4), lambda e: l_mellin(0.4, 1.0, e), (0.3, 1.0, 2.5)),
    "compose+": (compose_fox(1.0, [0.5, 1.2, 2.0]),
                 lambda e: compose_mellin(1.0, [0.5, 1.2, 2.0], 1.0, e), (0.6, 1.3, 3.0)),
    "compose-": (compose_fox(-1.0, [0.5, 1.2, 2.0]),
                 lambda e: compose_mellin(-1.0, [0.5, 1.2, 2.0], 1.0, e), (-1.0, 0.5, 1.4)),
    "space": (space_fractional_fox(1.5, 0.7, 0.8),
              lambda e: space_fractional_mellin(1.5, 0.7, 0.8, e, 1.0), (0.35, 0.6, 0.9)),
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
        # the strips each constructor wrote out by hand before it became a
        # product of primitives
        cases = [(h_fox(0.6), (-math.inf, 1.0)), (l_fox(0.4), (0.0, math.inf))]
        for nu, beta in ((0.7, 0.5), (0.9, 0.5), (0.3, 1.0)):
            cases.append((f_nu_beta_fox(nu, beta), (1.0 - nu, 1.0)))
            for mu in (0.4, 1.5):
                cases.append((space_fractional_fox(mu, nu, beta), (max(1.0 - mu, 1.0 - nu), 1.0)))
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
