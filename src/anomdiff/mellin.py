"""Mellin transform machinery.

Numerical Mellin transforms on (0, inf), the multiplicative (Mellin)
convolution, and H-functions defined through a ratio of Gamma products:
the transform kernel is evaluated directly and the function itself is
recovered by quadrature along a vertical contour inside the fundamental
strip, which each kernel derives from its numerator factors.
Kernels of products and powers of variates are formed from their factors'
kernels (`fox_product`, `fox_power`).  The kernel's complex log-Gamma is
the module's own (`_loggamma`, Stirling's series after an upward shift,
or after a reflection far left of the origin), so the contour route loads
no SciPy module.  The contour samples of a kernel are memoized on
(kernel, abscissa, panel), so an evaluation on a known contour costs one
short phase sum.  `fox_h_series` sums a kernel's
residues instead, left or right of the contour, from coefficients
memoized on (kernel, side).  `quad` is the one
adaptive-quadrature helper of the library: it checks every error estimate.

It imports nothing from the package but `errors`, and holds the package's
one lazy handle on scipy.special (`sp`) and the pole test `specfun` shares.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, StripError, UnsupportedMethodError

__all__ = [
    "MellinStrip",
    "FoxH",
    "mellin_numeric",
    "mellin_convolve",
    "fox_product",
    "fox_power",
    "fox_h_mellin",
    "fox_h_eval",
    "fox_h_series",
    "mellin_inverse",
]


class _LazySpecial:
    """scipy.special, imported at the first attribute read.

    Every module of the package reaches scipy.special through the one
    instance `sp`, so `import anomdiff` loads no SciPy, and neither does a
    command whose work reads no attribute of it: the contour route has its
    own complex log-Gamma (`_loggamma`), and the closed forms, the
    samplers and verify's Monte Carlo checks use `math`.  Each attribute is
    cached on the instance, so later reads are plain instance lookups.
    """

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


sp = _LazySpecial()

_EPS = np.finfo(float).eps


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x < 0.5 and abs(x - round(x)) <= tol * max(1.0, abs(x))


@dataclass(frozen=True)
class MellinStrip:
    """Open vertical strip a < Re(eta) < b; either end may be infinite."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"the strip ({self.a}, {self.b}) is empty: it requires a < b")

    def contains(self, eta: float) -> bool:
        return self.a < eta < self.b

    def default_abscissa(self) -> float:
        if math.isfinite(self.a) and math.isfinite(self.b):
            return 0.5 * (self.a + self.b)
        if math.isfinite(self.b):
            return self.b - 0.5
        if math.isfinite(self.a):
            return self.a + 0.5
        return 0.0


_POLE_TOL = 1e-9  # a Gamma argument this close to 0, -1, -2, ... is a pole


def _gamma_pole(factors, eta: float):
    """The first Gamma argument c + d eta of `factors` at a pole, or None."""
    return next((c + d * eta for c, d in factors if _is_nonpositive_integer(c + d * eta, _POLE_TOL)), None)


# B_2k / (2k (2k - 1)), k = 1..8: the coefficients of Stirling's series in 1/z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_MIN_RE = 8.0  # where eight terms reach round-off: the ninth is below 1e-16 at |z| = 8


def _log(z):
    # principal log as log|z| + i arg z, cheaper than numpy's complex log; near
    # |z| = 1 it keeps the absolute accuracy that a sum of logs needs
    out = np.empty_like(z)
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


_REFLECT_RE = -64.0  # reflect z with Re z below this ...
_REFLECT_IM = 200.0  # ... and |Im z| up to this, where |sin(pi z)| <= e^(200 pi) stays finite


def _loggamma(z):
    """A logarithm of Gamma(z) at complex z (an array), up to an added 2 pi i k.

    The one caller, `FoxH.kernel`, takes exp of a sum of these, so no branch
    of the logarithm needs tracking.  z is shifted up in whole chunks of
    eight, G(z) = G(w) / prod_{k < 8n} (z + k) with w = z + 8n, until
    Re w >= 8, where Stirling's series with eight Bernoulli terms is at
    round-off.  Each chunk's eight factors are multiplied and divided by w^8
    before one log, so that the shift and the 8n log w inside
    (w - 1/2) log w cancel before rounding: the error at |z| < 3 is SciPy's,
    about 4e-15.  No product overflows below |z| ~ 1e38.  Far left of the
    origin, at Re z < -64 with |Im z| <= 200, the reflection
    G(z) = pi / (sin(pi z) G(1 - z)) replaces the shift, so the cost stays
    bounded; higher up sin(pi z) overflows, and the shift is kept.  The
    kernels of the laws keep their arguments near or right of 0 inside
    their strips and never reflect.  At a pole (z = 0, -1, ...) the value is
    +inf, so exp gives G = inf and 1/G = 0.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    lowest = np.fmin.reduce(z.real, initial=_STIRLING_MIN_RE)
    if lowest < _REFLECT_RE:
        far = (z.real < _REFLECT_RE) & (np.abs(z.imag) <= _REFLECT_IM)
        if far.any():
            out = np.empty_like(z)
            near = z[~far]
            out[~far] = _loggamma_shifted(near, np.fmin.reduce(near.real, initial=_STIRLING_MIN_RE))
            out[far] = _loggamma_reflected(z[far])
            return out.reshape(shape)
    return _loggamma_shifted(z, lowest).reshape(shape)


def _loggamma_reflected(z):
    """log pi - log sin(pi z) - log G(1 - z) for Re z < -64.  sin(pi z) is
    (-1)^n sin(pi (z - n)) with n the nearest integer, so that pi z is never
    rounded at large |z|; (-1)^n adds i pi (n mod 2)."""
    n = np.round(z.real)
    with np.errstate(divide="ignore"):  # sin(0) = 0 at a pole
        out = math.log(math.pi) - _log(np.sin(np.pi * (z - n)))
    out.imag -= np.pi * np.fmod(n, 2.0)
    out -= _loggamma_shifted(1.0 - z, _STIRLING_MIN_RE)  # Re (1 - z) > 65: no chunks
    return out


def _loggamma_shifted(z, lowest: float):
    """`_loggamma` of the 1-d array z by the chunked shift; `lowest` is
    min(8, min Re z), which sets the number of chunks."""
    chunks = max(0, math.ceil((_STIRLING_MIN_RE - lowest) / 8.0))
    # log(0) = -inf at a pole; a NaN entry gives NaN, as SciPy's does, in silence
    with np.errstate(divide="ignore", invalid="ignore"):
        w = z + 8.0 * chunks
        out = (z - 0.5) * _log(w)  # (w - 1/2) log w, less the 8n log w the chunks bring back
        if chunks:
            w8 = w * w
            w8 *= w8
            w8 *= w8
            for start in range(0, 8 * chunks, 8):
                prod = z + start
                for k in range(start + 1, start + 8):
                    prod *= z + k
                prod /= w8
                out -= _log(prod)
        inv = 1.0 / w
        inv2 = inv * inv
        series = inv2 * _STIRLING[-1]
        for coef in _STIRLING[-2:0:-1]:
            series += coef
            series *= inv2
        series += _STIRLING[0]
        series *= inv
        out -= w
        out += series
        out += 0.5 * math.log(2.0 * math.pi)
    return out


def _factor_stack(num, den):
    """The factors of a kernel in the layout `_log_gamma_sum` takes: c and d
    of the factors with d != 0, those of `num` first, and how many are from
    `num`; then c of the constant factors, ordered alike, and that count."""
    var = [f for f in num if f[1]], [f for f in den if f[1]]
    const = [c for c, d in num if not d], [c for c, d in den if not d]
    c, d = np.array(var[0] + var[1], dtype=float).reshape(-1, 2).T
    return c, d, len(var[0]), np.array(const[0] + const[1], dtype=float), len(const[0])


def _log_gamma_sum(stack, eta):
    """sum_num log G(c + d eta) - sum_den log G(c + d eta) at every point of
    `eta`, up to 2 pi i k, in one `_loggamma` call: one row of points per
    factor with d != 0, and one value per constant factor riding along after
    them.
    The rows are summed, not weighted by +-1, so that a pole of a `den`
    factor (log G = +inf) gives exp(-inf) = 0."""
    c, d, n_num, c0, n0_num = stack
    rows = (c[:, None] + d[:, None] * eta.ravel()).ravel()
    lg = _loggamma(np.concatenate((rows, c0)))
    var, const = lg[: rows.size].reshape(c.size, eta.size), lg[rows.size :]
    out = var[:n_num].sum(axis=0) - var[n_num:].sum(axis=0) + (const[:n0_num].sum() - const[n0_num:].sum())
    return out.reshape(eta.shape)


@dataclass(frozen=True)
class FoxH:
    """An H-function identified by its Mellin kernel

        prefactor * prod_{(c, d) in num} G(c + d eta) / prod_{(c, d) in den} G(c + d eta)

    A pair with d = 0 is a constant Gamma factor.  The fundamental strip is
    derived from the numerator, never declared: G(c + d eta) needs
    c + d eta > 0, so `strip` runs from the largest -c/d over the factors
    with d > 0 to the smallest over those with d < 0, and holds no numerator
    pole.  An empty strip raises DomainError, and a constant numerator
    factor on a pole PoleError.  The law of a product of independent
    variates has the product of their kernels (`fox_product`), and the law
    of a power X^r the kernel of X at 1 + r(eta - 1) (`fox_power`).
    `strip`, `_stack` (the factors as the arrays `kernel` evaluates) and
    `_phase` (the kernel's phase rate, see `mellin_inverse`) are derived
    from the fields, so equality and hashing ignore them.  The hash is
    computed once, for the contour cache.
    """

    num: tuple  # ((c, d), ...), each G(c + d eta)
    den: tuple
    prefactor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "num", tuple((float(c), float(d)) for c, d in self.num))
        object.__setattr__(self, "den", tuple((float(c), float(d)) for c, d in self.den))
        for c, d in self.num:
            if not d and _is_nonpositive_integer(c, _POLE_TOL):  # infinite at every eta
                raise PoleError(f"the constant factor G({c}) sits on a pole")
        strip = MellinStrip(max((-c / d for c, d in self.num if d > 0.0), default=-math.inf),
                            min((-c / d for c, d in self.num if d < 0.0), default=math.inf))
        object.__setattr__(self, "strip", strip)
        object.__setattr__(self, "_stack", _factor_stack(self.num, self.den))
        object.__setattr__(self, "_hash", hash((self.num, self.den, self.prefactor)))
        phase = [sum(d * math.log(abs(d)) for _, d in fs if d) for fs in (self.den, self.num)]
        object.__setattr__(self, "_phase", phase[0] - phase[1])

    def __hash__(self):
        return self._hash

    def kernel(self, eta):
        """Mellin kernel at complex eta (scalar or array)."""
        eta = np.asarray(eta, dtype=complex)
        return self.prefactor * np.exp(_log_gamma_sum(self._stack, eta))


def fox_product(*ks: FoxH) -> FoxH:
    """Kernel of the product of independent variates with kernels `ks`: the
    factor lists joined and the prefactors multiplied; the strip, derived
    from the joined numerator, is the intersection of theirs."""
    return FoxH(
        tuple(f for k in ks for f in k.num),
        tuple(f for k in ks for f in k.den),
        math.prod(k.prefactor for k in ks),
    )


def fox_power(k: FoxH, r: float) -> FoxH:
    """Kernel of X^r for X with kernel `k`: k(1 + r(eta - 1)), so each
    G(c + d eta) becomes G(c + d(1 - r) + d r eta), which moves each strip
    end e to 1 + (e - 1)/r, the ends swapping for r < 0."""
    if r == 0.0:
        raise DomainError("the power r must be non-zero")
    return FoxH(
        tuple((c + d * (1.0 - r), d * r) for c, d in k.num),
        tuple((c + d * (1.0 - r), d * r) for c, d in k.den),
        k.prefactor,
    )


def fox_h_mellin(h: FoxH, eta: float) -> float:
    """The Gamma-product kernel of `h` at a real eta strictly inside the strip."""
    if not h.strip.contains(eta):
        raise StripError(f"eta={eta} outside strip ({h.strip.a}, {h.strip.b})")
    y = _gamma_pole(h.num + h.den, eta)
    if y is not None:
        raise PoleError(f"gamma pole at argument {y}")
    return float(np.real(h.kernel(eta)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _panel_length(lx: float) -> float:
    # keep at most ~4 oscillation periods of exp(-i s ln x) per 48-node panel,
    # quantized to powers of two so contour samples can be reused across x
    raw = min(6.0, 24.0 / max(abs(lx), 3.0))
    return 2.0 ** math.floor(math.log2(raw))


_CONTOUR_TOL = 1e-13  # the line ends where |K| falls below this, relative to |K(c)|
_MAX_HEIGHT = 800.0  # a line that has not decayed by this height raises


# Gamma arguments one kernel call takes, at most: enough panels to outweigh a
# call's fixed cost, few enough that its temporaries stay small
_BLOCK_POINTS = 800


@lru_cache(maxsize=256)
def _contour_samples(h: FoxH, abscissa: float, panel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel starts t0_p, node offsets h_j and weighted kernel values
    W_pj = w_j K(c + i (t0_p + h_j)) of the kernel of `h`, the offsets and
    weights the same on every panel.

    The line is extended panel by panel until |K| at a panel's upper end
    drops below _CONTOUR_TOL relative to |K(c)|.  One kernel call takes the
    nodes and upper ends of as many panels below the maximum height as keep
    its Gamma arguments within _BLOCK_POINTS; the panels past the one that
    decays are dropped.  The samples depend only on (h, abscissa, panel) and
    serve any argument x afterwards, so they are memoized on that key (an LRU
    of 256 contours; `cache_info()` counts its hits and misses).  An abscissa
    on a pole of a numerator factor raises PoleError, once per contour.
    """
    y = _gamma_pole(h.num, abscissa)
    if y is not None:
        raise PoleError(f"contour abscissa {abscissa} sits on a kernel pole (Gamma argument {y})")
    scale = abs(complex(np.asarray(h.kernel(complex(abscissa, 0.0))).ravel()[0]))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    offsets = 0.5 * panel * (_GL_NODES + 1.0)
    weights = 0.5 * panel * _GL_WEIGHTS
    ends = np.append(offsets, panel)  # a panel's nodes, then its upper end
    block = max(1, _BLOCK_POINTS // (ends.size * max(1, h._stack[0].size)))
    rows = []
    while len(rows) * panel < _MAX_HEIGHT:
        starts = panel * np.arange(len(rows), len(rows) + block)
        starts = starts[starts < _MAX_HEIGHT]
        vals = np.asarray(h.kernel(abscissa + 1j * (starts[:, None] + ends)))
        for row in vals:
            rows.append(weights * row[:-1])
            if abs(row[-1]) < _CONTOUR_TOL * scale:
                return panel * np.arange(len(rows)), offsets, np.array(rows)
    raise ConvergenceError("Mellin inversion contour did not decay within its maximum height")


def mellin_inverse(h: FoxH, x: float, abscissa: float) -> float:
    """(1/2 pi i) int K(eta) x^(-eta) d eta along Re(eta) = abscissa, for the
    kernel K of `h`.

    The kernel satisfies K(conj(eta)) = conj(K(eta)), so the integral is
    real, and must decay along the vertical line; not decaying by the
    maximum height raises ConvergenceError.  Every node is a panel start plus
    one of the shared offsets, so the phase x^(-i s) splits:
    sum_pj e^(-i lx (t0_p + h_j)) W_pj = e^(-i lx t0) . (W e^(-i lx h)).
    By Stirling's formula G(c + d eta) turns like |d|^(i d s) along the line,
    so the panel is set by lx + sum_den d log|d| - sum_num d log|d|.
    """
    if not x > 0:
        raise DomainError("x must be positive")
    lx = math.log(x)
    t0, offsets, w = _contour_samples(h, abscissa, _panel_length(lx + h._phase))
    acc = float(np.real(np.exp(-1j * lx * t0) @ (w @ np.exp(-1j * lx * offsets))))
    return (x**-abscissa) / math.pi * acc


def fox_h_eval(h: FoxH, x: float) -> float:
    """Evaluate the H-function at x > 0 by contour integration of its kernel
    at its strip's default abscissa."""
    return mellin_inverse(h, x, h.strip.default_abscissa())


_TERMS = 2000  # residues a series may sum
_BLOCK = 64  # terms whose magnitudes one exp call computes


def _is_pole(y):
    # elementwise and exact, unlike the scalar `_is_nonpositive_integer`: 1/G(y)
    # vanishes only at these points, and is a tiny non-zero term next to them
    return (y <= 0.0) & (y == np.round(y))


@lru_cache(maxsize=64)
def _residue_terms(h: FoxH, side: str):
    """The parts of `fox_h_series` that do not depend on x: log|a_k|, eta_k,
    the signs of the terms at x > 0 and at x < 0 (None unless every eta_k is
    an integer), and, for an asymptotic series, the log envelope of |a_k|,
    each 1/|G(y)| bounded by G(1 - y)/pi (None for a convergent series)."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', not {side!r}")
    on_side = [(c, d) for c, d in h.num if d != 0.0 and (d > 0.0) == (side == "left")]
    if len(on_side) != 1:
        raise UnsupportedMethodError(
            f"a {side} residue series needs one pole-carrying numerator factor; the kernel has {len(on_side)}"
        )
    delta = sum(d for _, d in h.num) - sum(d for _, d in h.den)
    if abs(delta) <= 1e-12 * sum(abs(d) for _, d in h.num + h.den):
        raise DomainError("the kernel's slopes cancel, so its residue series has a finite radius")
    (c, d), rest = on_side[0], list(h.num)
    rest.remove((c, d))
    k = np.arange(_TERMS, dtype=float)
    eta = -(c + k) / d
    log_a = math.log(abs(h.prefactor / d)) - sp.gammaln(k + 1.0)
    sign = math.copysign(1.0, h.prefactor) * (-1.0) ** k
    for cj, dj in rest:
        y = cj + dj * eta  # never a pole: the strip lies between the two sides' poles
        log_a = log_a + sp.gammaln(y)
        sign = sign * sp.gammasgn(y)
    log_env = log_a
    for cj, dj in h.den:
        y = cj + dj * eta
        log_a = log_a - sp.gammaln(y)  # -inf at a pole of G(y), where 1/G(y) vanishes
        sign = np.where(_is_pole(y), 0.0, sign * sp.gammasgn(y))
        log_env = log_env + np.where(y < 1.0, sp.gammaln(1.0 - y) - math.log(math.pi), np.inf)
    sign_neg = sign * (-1.0) ** eta if np.all(eta == np.round(eta)) else None
    converges = (delta > 0.0) == (side == "left")
    return log_a, eta, sign, sign_neg, None if converges else log_env


def fox_h_series(h: FoxH, x: float, side: str) -> tuple[float, float]:
    """The H-function of `h` at real x != 0, and its error, as the residue
    series at the poles eta_k of the one numerator factor G(c + d eta) with
    d > 0 ("left") or d < 0 ("right"): the term k is (-1)^k / (k! |d|) times
    the rest of the kernel at eta_k times x^(-eta_k); x < 0 needs integer
    poles.  With Delta = sum of d over `num` minus sum over `den`, the left
    series converges for Delta > 0 and the right one for Delta < 0.

    A convergent series stops once two terms past its peak are at most
    1e-16 of the sum; a term past 1e304 raises ConvergenceError, and so does
    a round-off floor eps * peak (the error returned) above 1e-6 |sum|.  An
    asymptotic series stops at the smallest term of its envelope, which is
    the error returned.  The coefficients are memoized per (kernel, side).
    """
    log_a, eta, sign, sign_neg, log_env = _residue_terms(h, side)
    if x == 0.0 or (x < 0.0 and sign_neg is None):
        raise DomainError(f"x={x}: a residue series needs x != 0, and integer poles for x < 0")
    if x < 0.0:
        sign = sign_neg
    lx = math.log(abs(x))
    acc = peak = 0.0
    err = math.inf
    falling = False
    small = 0
    for start in range(0, _TERMS, _BLOCK):
        part = slice(start, start + _BLOCK)
        shift = eta[part] * lx
        # clipped so that exp cannot overflow; a convergent sum raises at such a term
        mags = np.exp(np.minimum(log_a[part] - shift, 701.0))
        if log_env is None:
            for mag, s in zip(mags.tolist(), sign[part].tolist()):
                if mag > 1e304:
                    raise ConvergenceError("power series overflow")
                acc += s * mag
                if mag > peak:
                    peak = mag
                elif mag > 0.0:
                    falling = True
                small = small + 1 if falling and mag <= 1e-16 * abs(acc) else 0
                if small == 2:
                    if peak * _EPS > 1e-6 * abs(acc):
                        raise ConvergenceError(f"residue series at x={x} loses all precision")
                    return acc, peak * _EPS
        else:
            bounds = np.exp(np.minimum(log_env[part] - shift, 701.0))
            for mag, s, bound in zip(mags.tolist(), sign[part].tolist(), bounds.tolist()):
                if bound > err:
                    return acc, err
                acc += s * mag
                err = bound
                if err < 1e-17 * abs(acc):
                    return acc, err
    if log_env is None:
        raise ConvergenceError(f"power series did not converge within {_TERMS} terms")
    return acc, err


def quad(fn, a: float, b: float, *, log: bool = False, vector: bool = False,
         epsabs: float = 1e-11, epsrel: float = 1e-9, limit: int = 300,
         budget: float | None = None, **quad_kw):
    """int_a^b fn(s) ds by adaptive QUADPACK quadrature; with log=True,
    int fn(s) ds over s = e^u for u in [a, b].  With vector=True, fn returns
    an array and every entry is integrated on one adaptive mesh (scipy's
    quad_vec, max norm).  Further keywords (points, weight, wvar) go to scipy.

    Every adaptive quadrature of the library runs here.  The value is
    returned only when it is finite and the error estimate is at most
    max(budget, 1e-6 |value|), with |value| the largest entry and budget
    defaulting to epsabs; otherwise ConvergenceError names both.
    """
    from scipy import integrate

    g = fn
    if log:

        def g(u):
            s = math.exp(u)
            return fn(s) * s

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if vector:
            val, err = integrate.quad_vec(g, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                                          norm="max", **quad_kw)
        else:
            val, err = integrate.quad(g, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **quad_kw)
    size = float(np.max(np.abs(val)))
    if not math.isfinite(size) or err > max(epsabs if budget is None else budget, 1e-6 * size):
        raise ConvergenceError(
            f"quadrature over ({a}, {b}){' on the log axis' if log else ''} failed: "
            f"value {size:.6g}, error estimate {err:.2e}"
        )
    return val


def mellin_numeric(f, eta: float, *, abs_tol: float = 1e-9,
                   support: tuple[float, float] | None = None) -> float:
    """int_0^inf x^(eta-1) f(x) dx by adaptive quadrature on the log axis.

    `support` restricts integration to (x_min, x_max); use it when f carries
    numerical noise in a tail that x^(eta-1) would amplify.  The caller owns
    that truncation: its ends are not checked, and the part of the transform
    beyond them is dropped (the stable density of index 1/3 at t = 1.3, cut
    at x = 1e15, still has x^0.8 f(x) = 3.2e-9 there).  Without `support`,
    the log-axis integrand x^eta f(x) must be within abs_tol of zero at both
    ends of the default window; otherwise the transform diverges there (eta
    lies outside the fundamental strip of f) and StripError is raised.
    """
    # the default log-axis window covers x in [1.8e-35, 5.5e34]; integrands of
    # strip-interior transforms are below tolerance outside it
    lo, hi = -80.0, 80.0
    if support is not None:
        lo, hi = math.log(support[0]), math.log(support[1])

    def g(u):
        if abs(u) > 345.0:  # x beyond double range; a convergent transform is zero here
            return 0.0
        x = math.exp(u)
        fx = f(x)
        if fx == 0.0:
            return 0.0
        log_mag = eta * u + math.log(abs(fx))
        if log_mag > 700.0:
            return math.inf  # divergent transform: let quadrature report it
        return math.copysign(math.exp(log_mag), fx)

    if support is None:
        for end in (lo, hi):
            edge = g(end)
            if not abs(edge) <= abs_tol:
                raise StripError(
                    f"eta={eta}: x^eta f(x) is {edge:.3g} at x = e^{end:g}, the end of the "
                    "integration window, so the transform diverges (eta outside the fundamental strip)"
                )
    return quad(g, lo, hi, points=[0.0] if lo < 0.0 < hi else None,
                epsabs=abs_tol * 0.1, epsrel=1e-10, limit=400, budget=abs_tol)


def mellin_convolve(f1, f2, x: float) -> float:
    """Multiplicative convolution int_0^inf f1(x/s) f2(s) ds/s at x > 0."""
    if not x > 0:
        raise DomainError("x must be positive")

    def g(u):
        if abs(u) > 345.0:
            return 0.0
        s = math.exp(u)
        r = x / s
        if not (0.0 < r < math.inf):
            return 0.0
        v2 = f2(s)
        if v2 == 0.0:
            return 0.0
        return f1(r) * v2

    return quad(g, -80.0, 80.0, points=[0.0], epsabs=1e-12, epsrel=1e-10, limit=400, budget=1e-9)
