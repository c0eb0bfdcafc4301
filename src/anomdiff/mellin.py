"""Mellin transform machinery.

Numerical Mellin transforms on (0, inf), the multiplicative (Mellin)
convolution, and H-functions defined through a ratio of Gamma products:
the transform kernel is evaluated directly and the function itself is
recovered by quadrature along a vertical contour inside the fundamental
strip.  Kernels of products and powers of variates are formed from their
factors' kernels (`fox_product`, `fox_power`).  The contour samples of a
kernel are memoized on (kernel, abscissa, panel), so an evaluation on a
known contour costs one short phase sum.  `fox_h_series` sums a kernel's
residues instead, left or right of the contour, from coefficients memoized
on (kernel, side).  `quad` is the one adaptive-quadrature helper of the
library: it checks every error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, StripError, UnsupportedMethodError
from .specfun import _EPS, _is_nonpositive_integer, sp

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


@dataclass(frozen=True)
class MellinStrip:
    """Open vertical strip a < Re(eta) < b; either end may be infinite."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError("strip requires a < b")

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


def _on_edge(eta: float, end: float) -> bool:
    # a pole computed one ulp inside a strip end it sits on lies on that end
    return math.isfinite(end) and abs(eta - end) <= 1e-12 * max(abs(end), 1.0)


def _log_gamma_sum(factors, eta):
    # a constant factor (d = 0) is one complex log-Gamma, not one per point
    out = np.zeros_like(eta)
    for c, d in factors:
        out = out + sp.loggamma(c + d * eta if d else complex(c))
    return out


def _numerator_poles(num, strip: MellinStrip) -> tuple:
    """Real eta where a factor G(c + d eta) of `num` has a pole: eta = -(c + k)/d
    for k = 0, 1, ... up to the strip end the poles run towards (the left one
    for d > 0, the right one for d < 0).  A singular constant factor gives inf."""
    poles = []
    for c, d in num:
        if d == 0.0:
            if _is_nonpositive_integer(c, _POLE_TOL):
                poles.append(math.inf)
            continue
        end = strip.a if d > 0 else strip.b
        for k in range(10001):
            eta = -(c + k) / d
            if (eta - end) * d <= 0.0:
                break
            poles.append(eta)
    return tuple(poles)


@dataclass(frozen=True)
class FoxH:
    """An H-function identified by its Mellin kernel

        prefactor * prod_{(c, d) in num} G(c + d eta) / prod_{(c, d) in den} G(c + d eta)

    together with a fundamental strip on which the kernel is pole free.  A
    pair with d = 0 is a constant Gamma factor.  The law of a product of
    independent variates has the product of their kernels (`fox_product`),
    and the law of a power X^r the kernel of X at 1 + r(eta - 1)
    (`fox_power`).  `_poles` holds the real eta where a numerator factor has
    a pole; it is derived from the fields, so equality and hashing ignore it.
    The hash is computed once, since every contour-cache lookup takes it.
    """

    num: tuple  # ((c, d), ...), each G(c + d eta)
    den: tuple
    strip: MellinStrip
    prefactor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "num", tuple((float(c), float(d)) for c, d in self.num))
        object.__setattr__(self, "den", tuple((float(c), float(d)) for c, d in self.den))
        object.__setattr__(self, "_poles", _numerator_poles(self.num, self.strip))
        object.__setattr__(self, "_hash", hash((self.num, self.den, self.strip, self.prefactor)))
        a, b = self.strip.a, self.strip.b
        bad = [
            eta
            for eta in self._poles
            if not math.isfinite(eta)
            or (a < eta < b and not _on_edge(eta, a) and not _on_edge(eta, b))
        ]
        if bad:
            raise PoleError(f"kernel pole(s) inside the strip: {bad}")

    def __hash__(self):
        return self._hash

    def kernel(self, eta):
        """Mellin kernel at complex eta (scalar or array)."""
        eta = np.asarray(eta, dtype=complex)
        return self.prefactor * np.exp(_log_gamma_sum(self.num, eta) - _log_gamma_sum(self.den, eta))


def fox_product(*ks: FoxH) -> FoxH:
    """Kernel of the product of independent variates with kernels `ks`: the
    factor lists joined, the prefactors multiplied, the strips intersected."""
    return FoxH(
        tuple(f for k in ks for f in k.num),
        tuple(f for k in ks for f in k.den),
        MellinStrip(max(k.strip.a for k in ks), min(k.strip.b for k in ks)),
        math.prod(k.prefactor for k in ks),
    )


def fox_power(k: FoxH, r: float) -> FoxH:
    """Kernel of X^r for X with kernel `k`: k(1 + r(eta - 1)), so each
    G(c + d eta) becomes G(c + d(1 - r) + d r eta) and the strip end e
    becomes 1 + (e - 1)/r, the ends swapping for r < 0."""
    if r == 0.0:
        raise DomainError("the power r must be non-zero")
    ends = sorted(1.0 + (e - 1.0) / r for e in (k.strip.a, k.strip.b))
    return FoxH(
        tuple((c + d * (1.0 - r), d * r) for c, d in k.num),
        tuple((c + d * (1.0 - r), d * r) for c, d in k.den),
        MellinStrip(*ends),
        k.prefactor,
    )


def fox_h_mellin(h: FoxH, eta: float) -> float:
    """The Gamma-product kernel of `h` at a real eta strictly inside the strip."""
    if not h.strip.contains(eta):
        raise StripError(f"eta={eta} outside strip ({h.strip.a}, {h.strip.b})")
    for c, d in h.num + h.den:
        if _is_nonpositive_integer(c + d * eta, _POLE_TOL):
            raise PoleError(f"gamma pole at argument {c + d * eta}")
    return float(np.real(h.kernel(eta)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _panel_length(lx: float) -> float:
    # keep at most ~4 oscillation periods of exp(-i s ln x) per 48-node panel,
    # quantized to powers of two so contour samples can be reused across x
    raw = min(6.0, 24.0 / max(abs(lx), 3.0))
    return 2.0 ** math.floor(math.log2(raw))


_CONTOUR_TOL = 1e-13  # the line ends where |K| falls below this, relative to |K(c)|
_MAX_HEIGHT = 800.0  # a line that has not decayed by this height raises


@lru_cache(maxsize=256)
def _contour_samples(h: FoxH, abscissa: float, panel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel starts t0_p, node offsets h_j and weighted kernel values
    W_pj = w_j K(c + i (t0_p + h_j)) of the kernel of `h`, the offsets and
    weights the same on every panel.

    The line is extended panel by panel until |K| drops below _CONTOUR_TOL
    relative to |K(c)|; one kernel call per panel takes its nodes and its
    upper end.  The samples depend only on (h, abscissa, panel) and serve any
    argument x afterwards, so they are memoized on that key (an LRU of 256
    contours; `cache_info()` counts its hits and misses).
    """
    scale = abs(complex(np.asarray(h.kernel(complex(abscissa, 0.0))).ravel()[0]))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    offsets = 0.5 * panel * (_GL_NODES + 1.0)
    weights = 0.5 * panel * _GL_WEIGHTS
    rows = []
    t0 = 0.0
    while t0 < _MAX_HEIGHT:
        vals = np.asarray(h.kernel(abscissa + 1j * np.append(t0 + offsets, t0 + panel)))
        rows.append(weights * vals[:-1])
        t0 += panel
        if abs(vals[-1]) < _CONTOUR_TOL * scale:
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
    """
    if not x > 0:
        raise DomainError("x must be positive")
    lx = math.log(x)
    t0, offsets, w = _contour_samples(h, abscissa, _panel_length(lx))
    acc = float(np.real(np.exp(-1j * lx * t0) @ (w @ np.exp(-1j * lx * offsets))))
    return (x**-abscissa) / math.pi * acc


def fox_h_eval(h: FoxH, x: float, *, abscissa: float | None = None) -> float:
    """Evaluate the H-function at x > 0 by contour integration of its kernel."""
    c = h.strip.default_abscissa() if abscissa is None else float(abscissa)
    if not h.strip.contains(c):
        raise StripError(f"abscissa {c} outside strip")
    for eta in h._poles:
        if math.isfinite(eta) and abs(eta - c) < 1e-8:
            raise PoleError(f"contour abscissa {c} sits on a kernel pole")
    return mellin_inverse(h, x, c)


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
        y = cj + dj * eta
        if np.any(_is_pole(y)):
            raise UnsupportedMethodError("two numerator factors share a pole, so a residue is not simple")
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


def mellin_numeric(f, eta: float, *, strip: MellinStrip | None = None,
                   abs_tol: float = 1e-9,
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
    if strip is not None and not strip.contains(eta):
        raise StripError(f"eta={eta} outside declared strip")
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
