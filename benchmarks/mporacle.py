"""High-precision reference values computed with mpmath, apart from anomdiff.

Every function takes plain floats and a decimal precision `dps`, and returns
an mpmath number.  `two_precisions` runs one of them at a base precision and
again 20 digits higher, and raises unless the two agree to 1e-20 relative;
the base precision scales with the largest term of a series.
"""

from __future__ import annotations

import mpmath as mp

AGREE = mp.mpf("1e-20")


def _series_dps(log10_terms, base: int = 30) -> int:
    """Working precision for an alternating series: the base plus the decimal
    exponent of its largest term, so cancellation cannot eat the base."""
    return base + max(0, int(mp.ceil(max(log10_terms))))


def stable_density(nu, x, t, extra: int = 0):
    """One-sided stable density h_nu(x, t) with Laplace transform
    exp(-t lambda^nu), from its convergent series in y = x t^(-1/nu):

        h_nu(y, 1) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(nu k + 1)/k!
                         sin(pi nu k) y^(-nu k - 1).
    """
    nu, x, t = mp.mpf(nu), mp.mpf(x), mp.mpf(t)
    y = x * t ** (-1 / nu)

    def log_term(k):
        return (mp.loggamma(nu * k + 1) - mp.loggamma(k + 1) - (nu * k + 1) * mp.log(y)) / mp.ln(10)

    logs, kmax = _log10_terms(log_term, 1, extra)
    with mp.workdps(_series_dps(logs) + extra):
        nu_ = +nu
        y_ = x * t ** (-1 / nu_)
        acc = mp.mpf(0)
        for k in range(1, kmax):
            acc += (-1) ** (k + 1) * mp.gamma(nu_ * k + 1) / mp.factorial(k) * mp.sinpi(nu_ * k) * y_ ** (-nu_ * k - 1)
        return +(acc / mp.pi * t ** (-1 / nu_))


def _log10_terms(log_term, kmin, extra):
    """log10 |term_k| for k = kmin, kmin+1, ... until the terms have fallen
    60 + extra orders below their largest value (and keep falling)."""
    kmax = 64
    while True:
        with mp.workdps(20):
            logs = [log_term(k) for k in range(kmin, kmax)]
        top = max(logs)
        if max(logs[-8:]) < top - 60 - extra:
            return logs, kmax
        kmax *= 2
        if kmax > 20000:
            raise ArithmeticError("series terms still growing at k = 20000")


def inverse_stable_density(nu, x, t, extra: int = 0):
    """Density l_nu(x, t) of the inverse stable subordinator, from the Wright
    series t^(-nu) sum_{k>=0} (-z)^k / (k! Gamma(1 - nu - nu k)), z = x t^(-nu)."""
    nu, x, t = mp.mpf(nu), mp.mpf(x), mp.mpf(t)
    z = x * t ** (-nu)

    def log_term(k):
        rg = mp.rgamma(1 - nu - nu * k)
        if rg == 0:
            return -mp.inf
        return (k * mp.log(z) - mp.loggamma(k + 1) + mp.log(abs(rg))) / mp.ln(10)

    logs, kmax = _log10_terms(log_term, 0, extra)
    with mp.workdps(_series_dps(logs) + extra):
        nu_ = +nu
        z_ = x * t ** (-nu_)
        acc = mp.mpf(0)
        for k in range(kmax):
            acc += (-z_) ** k / mp.factorial(k) * mp.rgamma(1 - nu_ - nu_ * k)
        return +(acc * t ** (-nu_))


def mellin_barnes(log_kernel, x, c, extra: int = 0, dps: int = 30):
    """(1/2 pi i) int K(eta) x^(-eta) d eta along Re(eta) = c, as
    (1/pi) int_0^inf Re[K(c + i s) x^(-c - i s)] ds, with K = exp(log_kernel).

    The line is cut at 1, 2, 4, ... until |K| has dropped 60 orders below
    |K(c)|, and each piece is integrated by tanh-sinh quadrature.
    """
    with mp.workdps(dps + extra):
        x = mp.mpf(x)
        c = mp.mpf(c)
        lx = mp.log(x)
        ref = mp.re(log_kernel(mp.mpc(c, 0)))
        cuts = [mp.mpf(0)]
        h = mp.mpf(1)
        while True:
            cuts.append(h)
            if mp.re(log_kernel(mp.mpc(c, h))) < ref - 60 * mp.ln(10) - extra * mp.ln(10):
                break
            h *= 2
            if h > 1e5:
                raise ArithmeticError("Mellin-Barnes kernel does not decay")
        # split long pieces so that each holds a bounded number of oscillations
        pts = [cuts[0]]
        period = 2 * mp.pi / max(abs(lx), mp.mpf("0.5"))
        for a, b in zip(cuts[:-1], cuts[1:]):
            n = max(1, int(mp.ceil((b - a) / period)))
            pts.extend(a + (b - a) * j / n for j in range(1, n + 1))

        def f(s):
            eta = mp.mpc(c, s)
            return mp.re(mp.exp(log_kernel(eta) - eta * lx))

        return +(mp.quad(f, pts) / mp.pi)


def two_precisions(fn, *args, step: int = 20):
    """Run fn(*args, extra=e) and fn(*args, extra=e + step) and return the
    second value with the relative gap between the two.  If the gap exceeds
    1e-20, the result has cancelled below the working precision: raise e and
    try again, up to 1000 extra digits."""
    extra = 0
    while extra <= 1000:
        a = fn(*args, extra=extra)
        b = fn(*args, extra=extra + step)
        gap = abs(a - b) / abs(b) if b != 0 else abs(a - b)
        if gap <= AGREE:
            return b, gap
        extra = 3 * extra + 50
    raise ArithmeticError(f"{fn.__name__}{args}: precisions disagree by {mp.nstr(gap, 3)}")


# ---------------------------------------------------------------------------
# Mellin transforms E[X^(eta-1)] of the laws, as logarithms, derived from the
# representation of each law as a product of independent factors


def _lg(z):
    return mp.loggamma(z)


def log_gg_moment(gamma, mu, t, eta):
    """Generalized gamma factor of shape (gamma, mu) and scale t:
    t^(eta-1) Gamma((eta-1)/gamma + mu) / Gamma(mu)."""
    return (eta - 1) * mp.log(t) + _lg((eta - 1) / gamma + mu) - _lg(mu)


def log_stable_moment(nu, t, eta):
    """One-sided nu-stable law at time t: Gamma((1-eta)/nu) t^((eta-1)/nu) / (nu Gamma(1-eta))."""
    return _lg((1 - eta) / nu) - _lg(1 - eta) - mp.log(nu) + (eta - 1) / nu * mp.log(t)


def log_inverse_moment(beta, t, r):
    """E[L^r] for the inverse beta-stable law at time t: Gamma(r+1) t^(beta r) / Gamma(beta r + 1)."""
    return _lg(r + 1) - _lg(beta * r + 1) + beta * r * mp.log(t)


def composition(gamma, mus, x, t, extra: int = 0):
    """n-fold product of independent generalized gamma factors (gamma, mu_j)
    whose scales multiply to t."""
    def lk(eta):
        return (eta - 1) * mp.log(t) + mp.fsum(_lg((eta - 1) / gamma + m) - _lg(m) for m in mus)
    return mellin_barnes(lk, x, 1, extra)


def mixed_density(nu, beta, x, t, extra: int = 0):
    """nu-stable subordinator run at an independent inverse beta-stable time t."""
    def lk(eta):
        return log_stable_moment(nu, 1, eta) + log_inverse_moment(beta, t, (eta - 1) / nu)
    return mellin_barnes(lk, x, 1 - mp.mpf(nu) / 2, extra)


def space_fractional(mu, nu, beta, x, t, extra: int = 0):
    """Gamma(mu) law with unit shape index scaled by a mixed-time draw."""
    def lk(eta):
        return (_lg(eta + mu - 1) - _lg(mu) + log_stable_moment(nu, 1, eta)
                + log_inverse_moment(beta, t, (eta - 1) / nu))
    return mellin_barnes(lk, x, 1 - min(mp.mpf(mu), mp.mpf(nu)) / 2, extra)


def time_fractional(gamma, mu, nu, x, t, extra: int = 0):
    """Generalized gamma law (gamma, mu) in the tilde scaling, run at an
    inverse nu-stable time t."""
    def lk(eta):
        r = (eta - 1) / gamma
        return _lg(r + mu) - _lg(mu) + log_inverse_moment(nu, t, r)
    return mellin_barnes(lk, x, 1, extra)


def gg_product(law1, t1, law2, x, extra: int = 0):
    """Density at x of the product of a generalized gamma draw of shape law1
    and scale t1 with one of shape law2 and unit scale."""
    def lk(eta):
        return log_gg_moment(law1[0], law1[1], t1, eta) + log_gg_moment(law2[0], law2[1], 1, eta)
    return mellin_barnes(lk, x, 1, extra)


def stable_left_tail_log10(nu, x, t):
    """log10 of the leading factor exp(-(1-nu) (y/nu)^(-nu/(1-nu))),
    y = x t^(-1/nu), of the one-sided stable density as y -> 0 (Zolotarev);
    the Chernoff bound P(H_t <= x) <= exp(lambda x - t lambda^nu) has the same
    exponent.  Used where the series cannot be summed, to show the density
    lies far below the smallest double."""
    with mp.workdps(30):
        nu, x, t = mp.mpf(nu), mp.mpf(x), mp.mpf(t)
        y = x * t ** (-1 / nu)
        return -(1 - nu) * (y / nu) ** (-nu / (1 - nu)) / mp.ln(10)
