"""Mellin transform machinery.

Numerical Mellin transforms on (0, inf), the multiplicative (Mellin)
convolution, and H-functions defined through a ratio of Gamma products:
the transform kernel is evaluated directly and the function itself is
recovered by quadrature along a vertical contour inside the fundamental
strip.  `quad` is the one adaptive-quadrature helper of the library: it
checks every error estimate.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as sp

from .errors import ConvergenceError, DomainError, PoleError, StripError
from .specfun import _is_nonpositive_integer

__all__ = [
    "MellinStrip",
    "FoxH",
    "mellin_numeric",
    "mellin_convolve",
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


@dataclass(frozen=True)
class FoxH:
    """An H-function identified by its Mellin kernel

        prefactor * prod_{j<=m} G(b_j + eta B_j) prod_{i<=n} G(1 - a_i - eta A_i)
                  / [prod_{j>m} G(1 - b_j - eta B_j) prod_{i>n} G(a_i + eta A_i)]

    together with a fundamental strip on which the kernel is pole free.
    Pairs with a zero slope contribute constant Gamma factors.
    """

    m: int
    n: int
    p: int
    q: int
    upper: tuple  # ((a_i, A_i), ...), length p
    lower: tuple  # ((b_j, B_j), ...), length q
    strip: MellinStrip
    prefactor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(be)) for b, be in self.lower))
        if len(self.upper) != self.p or len(self.lower) != self.q:
            raise DomainError("upper/lower lengths must match p and q")
        if not (0 <= self.n <= self.p and 0 <= self.m <= self.q):
            raise DomainError("need 0 <= n <= p and 0 <= m <= q")
        if any(al < 0 for _, al in self.upper) or any(be < 0 for _, be in self.lower):
            raise DomainError("slopes must be non-negative")
        bad = self._poles_in_strip()
        if bad:
            raise PoleError(f"kernel pole(s) inside the strip: {bad}")

    def _numerator_pole_positions(self):
        """Real eta where a numerator Gamma factor has a pole."""
        poles = []
        for j, (b, be) in enumerate(self.lower):
            if j < self.m:
                if be == 0.0:
                    if _is_nonpositive_integer(b, _POLE_TOL):
                        poles.append(-math.inf)  # constant factor is itself singular
                    continue
                # Gamma(b + eta*be): poles at eta = -(b + k)/be, descending
                k = 0
                while True:
                    eta = -(b + k) / be
                    if eta <= self.strip.a:
                        break
                    poles.append(eta)
                    k += 1
                    if k > 10000:
                        break
        for i, (a, al) in enumerate(self.upper):
            if i < self.n:
                if al == 0.0:
                    if _is_nonpositive_integer(1.0 - a, _POLE_TOL):
                        poles.append(math.inf)
                    continue
                # Gamma(1 - a - eta*al): poles at eta = (1 - a + k)/al, ascending
                k = 0
                while True:
                    eta = (1.0 - a + k) / al
                    if eta >= self.strip.b:
                        break
                    poles.append(eta)
                    k += 1
                    if k > 10000:
                        break
        return poles

    def _poles_in_strip(self):
        a, b = self.strip.a, self.strip.b
        return [
            eta
            for eta in self._numerator_pole_positions()
            if not math.isfinite(eta)
            or (a < eta < b and not _on_edge(eta, a) and not _on_edge(eta, b))
        ]

    def kernel(self, eta):
        """Mellin kernel at complex eta (scalar or array)."""
        eta = np.asarray(eta, dtype=complex)
        num = np.zeros_like(eta)
        den = np.zeros_like(eta)
        for j, (b, be) in enumerate(self.lower):
            term = sp.loggamma(b + eta * be) if be != 0.0 else complex(sp.loggamma(b))
            if j < self.m:
                num = num + term
            else:
                den = den + (sp.loggamma(1.0 - b - eta * be) if be != 0.0 else complex(sp.loggamma(1.0 - b)))
        for i, (a, al) in enumerate(self.upper):
            if i < self.n:
                num = num + (sp.loggamma(1.0 - a - eta * al) if al != 0.0 else complex(sp.loggamma(1.0 - a)))
            else:
                den = den + (sp.loggamma(a + eta * al) if al != 0.0 else complex(sp.loggamma(a)))
        return self.prefactor * np.exp(num - den)

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "upper": [[a, al] for a, al in self.upper],
            "lower": [[b, be] for b, be in self.lower],
            "strip": [self.strip.a, self.strip.b],
            "prefactor": self.prefactor,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FoxH":
        doc = json.loads(text)
        return cls(
            m=doc["m"],
            n=doc["n"],
            p=doc["p"],
            q=doc["q"],
            upper=tuple(tuple(pair) for pair in doc["upper"]),
            lower=tuple(tuple(pair) for pair in doc["lower"]),
            strip=MellinStrip(float(doc["strip"][0]), float(doc["strip"][1])),
            prefactor=float(doc.get("prefactor", 1.0)),
        )


def fox_h_mellin(h: FoxH, eta: float) -> float:
    """The Gamma-product kernel of `h` at a real eta strictly inside the strip."""
    if not h.strip.contains(eta):
        raise StripError(f"eta={eta} outside strip ({h.strip.a}, {h.strip.b})")

    def term(val):
        if _is_nonpositive_integer(val, _POLE_TOL):
            raise PoleError(f"gamma pole at argument {val}")
        return val

    log_mag = 0.0
    sign = 1.0
    for j, (b, be) in enumerate(h.lower):
        arg = term(b + eta * be) if j < h.m else term(1.0 - b - eta * be)
        contrib = float(sp.gammaln(arg))
        s = float(sp.gammasgn(arg))
        if j < h.m:
            log_mag += contrib
            sign *= s
        else:
            log_mag -= contrib
            sign /= s
    for i, (a, al) in enumerate(h.upper):
        arg = term(1.0 - a - eta * al) if i < h.n else term(a + eta * al)
        contrib = float(sp.gammaln(arg))
        s = float(sp.gammasgn(arg))
        if i < h.n:
            log_mag += contrib
            sign *= s
        else:
            log_mag -= contrib
            sign /= s
    return h.prefactor * sign * math.exp(log_mag)


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
    for eta in h._numerator_pole_positions():
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
