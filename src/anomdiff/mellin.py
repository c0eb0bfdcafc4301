"""Mellin transform machinery.

Numerical Mellin transforms on (0, inf), the multiplicative (Mellin)
convolution, and H-functions defined through a ratio of Gamma products:
the transform kernel is evaluated directly and the function itself is
recovered by quadrature along a vertical contour inside the fundamental
strip.  Kernels of products and powers of variates are formed from their
factors' kernels (`fox_product`, `fox_power`).  `quad` is the one
adaptive-quadrature helper of the library: it checks every error estimate.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, StripError
from .specfun import _is_nonpositive_integer, sp

__all__ = [
    "MellinStrip",
    "FoxH",
    "mellin_numeric",
    "mellin_convolve",
    "fox_product",
    "fox_power",
    "fox_h_mellin",
    "fox_h_eval",
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


def _numerator_poles(num, strip: MellinStrip) -> list:
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
    return poles


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
    """

    num: tuple  # ((c, d), ...), each G(c + d eta)
    den: tuple
    strip: MellinStrip
    prefactor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "num", tuple((float(c), float(d)) for c, d in self.num))
        object.__setattr__(self, "den", tuple((float(c), float(d)) for c, d in self.den))
        object.__setattr__(self, "_poles", _numerator_poles(self.num, self.strip))
        a, b = self.strip.a, self.strip.b
        bad = [
            eta
            for eta in self._poles
            if not math.isfinite(eta)
            or (a < eta < b and not _on_edge(eta, a) and not _on_edge(eta, b))
        ]
        if bad:
            raise PoleError(f"kernel pole(s) inside the strip: {bad}")

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


def _contour_samples(kernel, abscissa: float, panel: float, tol: float,
                     max_height: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_i >= 0 and weighted kernel values w_i K(c + i s_i).

    The line is extended panel by panel until |K| drops below tol relative to
    |K(c)|; the samples depend only on (kernel, abscissa, panel) and serve any
    argument x afterwards.
    """
    scale = abs(complex(np.asarray(kernel(complex(abscissa, 0.0))).ravel()[0]))
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    nodes = []
    weighted = []
    t0 = 0.0
    while t0 < max_height:
        s = t0 + 0.5 * panel * (_GL_NODES + 1.0)
        vals = np.asarray(kernel(abscissa + 1j * s))
        nodes.append(s)
        weighted.append(0.5 * panel * _GL_WEIGHTS * vals)
        t0 += panel
        edge = abs(complex(np.asarray(kernel(complex(abscissa, t0))).ravel()[0]))
        if edge < tol * scale:
            return np.concatenate(nodes), np.concatenate(weighted)
    raise ConvergenceError("Mellin inversion contour did not decay within max_height")


_CONTOUR_CACHE: OrderedDict = OrderedDict()  # least recently used first
_CONTOUR_CACHE_SIZE = 256


def mellin_inverse(kernel, x: float, abscissa: float, *, tol: float = 1e-13,
                   max_height: float = 800.0, cache_key=None) -> float:
    """(1/2 pi i) int kernel(eta) x^(-eta) d eta along Re(eta) = abscissa.

    The kernel must satisfy kernel(conj(eta)) = conj(kernel(eta)) so the
    integral is real, and must decay along the vertical line; exceeding
    `max_height` before decaying raises ConvergenceError.
    """
    if not x > 0:
        raise DomainError("x must be positive")
    lx = math.log(x)
    panel = _panel_length(lx)
    if cache_key is not None:
        key = (cache_key, abscissa, panel, tol)
        entry = _CONTOUR_CACHE.get(key)
        if entry is None:
            entry = _contour_samples(kernel, abscissa, panel, tol, max_height)
            if len(_CONTOUR_CACHE) >= _CONTOUR_CACHE_SIZE:
                _CONTOUR_CACHE.popitem(last=False)
            _CONTOUR_CACHE[key] = entry
        else:
            _CONTOUR_CACHE.move_to_end(key)
        s, wk = entry
    else:
        s, wk = _contour_samples(kernel, abscissa, panel, tol, max_height)
    acc = float(np.real(np.exp(-1j * s * lx) @ wk))
    return (x**-abscissa) / math.pi * acc


def fox_h_eval(h: FoxH, x: float, *, abscissa: float | None = None, tol: float = 1e-13) -> float:
    """Evaluate the H-function at x > 0 by contour integration of its kernel."""
    c = h.strip.default_abscissa() if abscissa is None else float(abscissa)
    if not h.strip.contains(c):
        raise StripError(f"abscissa {c} outside strip")
    for eta in h._poles:
        if math.isfinite(eta) and abs(eta - c) < 1e-8:
            raise PoleError(f"contour abscissa {c} sits on a kernel pole")
    return mellin_inverse(h.kernel, x, c, tol=tol, cache_key=h)


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
    numerical noise in a tail that x^(eta-1) would amplify.  Without it, the
    log-axis integrand x^eta f(x) must be within abs_tol of zero at both ends
    of the default window; otherwise the transform diverges there (eta lies
    outside the fundamental strip of f) and StripError is raised.
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
