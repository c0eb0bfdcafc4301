import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.integrate
from scipy.integrate import IntegrationWarning, quad

from anomdiff import frac_calc, solvers
from anomdiff.errors import DivergentTailError, DomainError
from anomdiff.frac_calc import (
    GridFunction,
    PowerLaw,
    _grid_left_alg_integral,
    _grid_right_alg_integral,
    caputo,
    frac_integral,
    rl_left,
    rl_right,
)
from anomdiff.solvers import fractional_power_operator
from anomdiff.specfun import gamma_fn
from quadrature_oracles import left_grid_kernel_by_segments, right_grid_kernel_by_segments

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def fine_nodes():
    return np.linspace(1e-6, 2.5, 4001)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridFunction([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            GridFunction([1.0, 2.0], [0.0, np.inf])

    def test_interp_and_tail(self):
        gf = GridFunction([1.0, 2.0], [1.0, 2.0], extrapolation_decay=-2.0)
        assert gf(1.5) == pytest.approx(1.5)
        assert gf(4.0) == pytest.approx(2.0 * (4.0 / 2.0) ** -2.0)
        zero_tail = GridFunction([1.0, 2.0], [1.0, 2.0])
        assert zero_tail(5.0) == 0.0

    def test_derivative_cached_and_arrays_read_only(self):
        nodes = np.linspace(0.1, 2.0, 10)
        values = nodes**2
        gf = GridFunction(nodes, values)
        assert gf.derivative() is gf.derivative()
        with pytest.raises(ValueError):
            gf.values[0] = 1.0
        with pytest.raises(ValueError):
            gf.nodes[0] = 1.0
        values[0] = 99.0  # the constructor copied the caller's array
        assert gf.values[0] == pytest.approx(0.01)


class TestRlLeft:
    def test_power_law_exact_rule(self):
        got = rl_left(0.5, PowerLaw(1.0, 2.0), 1.0)
        assert got == pytest.approx(gamma_fn(2.0) / gamma_fn(1.5), rel=1e-13)
        assert got == pytest.approx(1.1283791670955126, rel=1e-10)

    def test_power_law_alpha_to_one(self):
        # recovers (beta-1) c x^(beta-2); the operator differs from the plain
        # derivative by O(1-alpha), so probe at 1-alpha = 1e-4
        got = rl_left(0.9999, PowerLaw(2.0, 3.0), 1.5)
        assert got == pytest.approx(2.0 * 2.0 * 1.5, rel=1e-4)

    def test_grid_matches_power_rule(self, fine_nodes):
        gf = GridFunction(fine_nodes, fine_nodes, extrapolation_decay=1.0)
        assert rl_left(0.5, gf, 1.0) == pytest.approx(1.1283791670955126, abs=1e-4)

    @pytest.mark.parametrize("beta", [1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_grid_power_rule_tolerance(self, fine_nodes, beta, alpha):
        gf = GridFunction(fine_nodes, fine_nodes ** (beta - 1.0), extrapolation_decay=beta - 1.0)
        for x in (0.5, 1.0, 2.0):
            exact = gamma_fn(beta) / gamma_fn(beta - alpha) * x ** (beta - alpha - 1.0)
            assert rl_left(alpha, gf, x) == pytest.approx(exact, rel=1e-3)

    def test_out_of_coverage(self, fine_nodes):
        gf = GridFunction(fine_nodes, fine_nodes)
        with pytest.raises(DomainError):
            rl_left(0.5, gf, 10.0)

    @pytest.mark.parametrize("decay", [-np.inf, 2.0])
    def test_last_node_reads_no_continuation(self, decay):
        # within one step of X the difference is one-sided, so the value does
        # not depend on the continuation past X; it is the exact derivative
        # v_0 y^-a + int_0^y (y-s)^-a g'(s) ds of the interpolant's integral
        nodes = np.linspace(0.1, 1.0, 10)
        gf = GridFunction(nodes, nodes**2, decay)
        a, y = 0.5, gf.x_max
        slopes = np.diff(gf.values) / np.diff(nodes)
        w = (y - nodes) ** (1.0 - a) / (1.0 - a)
        exact = (gf.values[0] * y**-a + slopes @ (w[:-1] - w[1:])) / gamma_fn(1.0 - a)
        assert exact == pytest.approx(1.4905, abs=1e-4)
        assert rl_left(a, gf, y) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("decay", [-np.inf, 0.5])
    def test_last_node_matches_power_rule(self, decay):
        nodes = np.linspace(1e-6, 2.5, 3001)
        gf = GridFunction(nodes, nodes**0.5, decay)
        a = 0.75
        for x in (gf.x_max, gf.x_max - 1e-4):
            exact = gamma_fn(1.5) / gamma_fn(1.5 - a) * x ** (0.5 - a)
            assert rl_left(a, gf, x) == pytest.approx(exact, rel=1e-5)


class TestRlRight:
    def test_exponential_at_origin(self):
        # (1/Gamma(1/2)) int_0^inf s^(-1/2) e^(-s) ds = 1
        got = rl_right(0.5, lambda s: math.exp(-s), 1e-12, tail_decay=-np.inf)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_alpha_to_one_sign_rule(self):
        got = rl_right(0.9999, lambda s: math.exp(-s), 1.0, tail_decay=-np.inf)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_mellin_rule_on_gamma_density(self):
        # transform of the right derivative matches G(eta)/G(eta-a) M[f](eta-a)
        from anomdiff.mellin import mellin_numeric

        nodes = np.geomspace(1e-5, 45.0, 6000)
        gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
        eta, alpha = 2.0, 0.5
        lhs = mellin_numeric(lambda x: rl_right(alpha, gf, x), eta, support=(1e-4, 40.0))
        rhs = gamma_fn(eta) / gamma_fn(eta - alpha) * gamma_fn(eta - alpha + 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_divergent_tail_rejected(self):
        gf = GridFunction([0.5, 1.0, 2.0], [1.0, 1.0, 1.0], extrapolation_decay=-0.1)
        with pytest.raises(DivergentTailError):
            rl_right(0.5, gf, 1.0)

    @pytest.mark.parametrize("x", [0.5, 2.0])
    @pytest.mark.parametrize("alpha,b", [(0.25, 0.3), (0.25, 0.6), (0.5, 0.3)])
    def test_power_law_exact_rule_matches_quadrature(self, alpha, b, x):
        # the exact rule, with the tail decay read off the PowerLaw, against
        # the quadrature of the same function passed as a plain callable
        pl = PowerLaw(1.7, b)
        want = rl_right(alpha, lambda s: pl(s), x, tail_decay=b - 1.0)
        assert rl_right(alpha, pl, x) == pytest.approx(want, rel=1e-10)

    def test_power_law_tail_too_weak(self):
        # s^(b-1) with b - 1 = -0.4 does not decay faster than s^(-1/2)
        with pytest.raises(DivergentTailError):
            rl_right(0.5, PowerLaw(1.7, 0.6), 1.0)


def _right_kernel_by_quad(a, gf, x):
    """int_x^inf (s-x)^(-a) gf(s) ds by quad in u = (s-x)^(1-a)/(1-a), which
    removes the singularity at s = x; every node inside is a break point."""
    p = 1.0 - a

    def h(u):
        return gf(x + (p * u) ** (1.0 / p))

    def u_of(s):
        return (s - x) ** p / p

    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=500)
    total = 0.0
    if x < gf.x_max:
        breaks = [u_of(s) for s in gf.nodes if x < s < gf.x_max]
        total += quad(h, 0.0, u_of(gf.x_max), points=breaks, **kw)[0]
    if math.isfinite(gf.extrapolation_decay):
        total += quad(h, u_of(max(x, gf.x_max)), np.inf, **kw)[0]
    return total


def _right_kernel_old_quad(a, gf, x):
    """The adaptive-quadrature formula the grid operators used before product
    integration: algebraic weight on [x, x + w0], plain quad beyond."""
    w0 = max(1.0, 0.5 * abs(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        near, _ = quad(lambda w: gf(x + w), 0.0, w0, weight="alg", wvar=(-a, 0.0),
                       epsabs=1e-12, epsrel=1e-10, limit=200)
        far, _ = quad(lambda w: w ** (-a) * gf(x + w), w0, np.inf,
                      epsabs=1e-11, epsrel=1e-9, limit=200)
    return near + far


class TestRightGridKernel:
    """Product integration of the right-sided kernel on GridFunction inputs."""

    @pytest.fixture(scope="class")
    def small_grids(self):
        nodes = np.geomspace(0.2, 6.0, 20)
        values = (1.0 + nodes) ** -2.5 * (1.0 + 0.3 * np.sin(3.0 * nodes))
        return GridFunction(nodes, values, -2.5), GridFunction(nodes, values)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_matches_quad_on_small_grid(self, small_grids, alpha):
        for gf in small_grids:
            nodes = gf.nodes
            # below the first node, on a node, between nodes, at and past X
            for x in (0.0, 0.05, float(nodes[7]), 1.1, gf.x_max, 1.4 * gf.x_max):
                want = -_right_kernel_by_quad(alpha, gf.derivative(), x) / gamma_fn(1.0 - alpha)
                assert rl_right(alpha, gf, x) == pytest.approx(want, rel=1e-10, abs=1e-12)
                want = _right_kernel_by_quad(1.0 - alpha, gf, x) / gamma_fn(alpha)
                got = frac_integral("right", alpha, gf, x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_finite_tail_past_the_grid_is_nonzero(self, small_grids):
        power_tail, zero_tail = small_grids
        x = 1.4 * power_tail.x_max
        assert frac_integral("right", 0.5, zero_tail, x) == 0.0
        assert frac_integral("right", 0.5, power_tail, x) > 0.0

    def test_weak_grid_tail_rejected(self):
        gf = GridFunction([0.5, 1.0, 2.0], [1.0, 1.0, 1.0], extrapolation_decay=-0.1)
        with pytest.raises(DivergentTailError):
            frac_integral("right", 0.5, gf, 1.0, tail_decay=-1.0)
        with pytest.raises(DivergentTailError):
            _grid_right_alg_integral(gf, 0.5, np.array([0.7, 1.0, 3.0]))

    def test_matches_old_quadrature_on_verify_grid(self):
        nodes = np.geomspace(1e-5, 50.0, 2500)
        gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
        alpha = 0.5
        xs = np.concatenate([[0.0], np.geomspace(1e-5, 49.0, 24)])
        gp = gf.derivative()
        rl = np.array([
            (rl_right(alpha, gf, x), -_right_kernel_old_quad(alpha, gp, x) / gamma_fn(1.0 - alpha))
            for x in xs
        ])
        fi = np.array([
            (frac_integral("right", alpha, gf, x), _right_kernel_old_quad(1.0 - alpha, gf, x) / gamma_fn(alpha))
            for x in xs
        ])
        for got, want in (rl.T, fi.T):
            big = np.abs(want) > 1e-8 * np.max(np.abs(want))
            assert np.count_nonzero(big) >= 15
            assert np.max(np.abs(got[big] - want[big]) / np.abs(want[big])) <= 1e-5

    def test_grid_inputs_never_reach_quad(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("quad called on a grid input")

        nodes = np.geomspace(1e-5, 50.0, 2500)
        gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
        power_tail = GridFunction(nodes[:2000], nodes[:2000] * np.exp(-nodes[:2000]), -2.5)
        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        for f in (gf, power_tail):
            for x in (1e-6, 1.0, 60.0):
                assert math.isfinite(rl_right(0.5, f, x))
                assert math.isfinite(frac_integral("right", 0.5, f, x))
        assert math.isfinite(rl_left(0.5, gf, 1.0))
        assert math.isfinite(caputo(0.5, gf, 1.0))
        assert math.isfinite(frac_integral("left", 0.5, gf, 1.0))
        op = fractional_power_operator(2.0, 0.5, gf)
        for x in (0.25, 1.0, 2.0, 5.0):
            assert math.isfinite(op(x))


def _left_kernel_by_quad(a, gf, y):
    """int_0^y (y-s)^(-a) gf(s) ds by quad in u = (y-s)^(1-a)/(1-a), which
    removes the singularity at s = y; every node below y is a break point."""
    p = 1.0 - a

    def h(u):
        return gf(y - (p * u) ** (1.0 / p))

    breaks = [(y - s) ** p / p for s in gf.nodes if s < y]
    return quad(h, 0.0, y**p / p, points=breaks or None, epsabs=1e-15, epsrel=1e-13, limit=500)[0]


@pytest.fixture(scope="module")
def bench_grids():
    """The benchmark's operator grids with its points, and no continuation
    past X, which the right-hand oracle leaves out."""
    exp_nodes = np.geomspace(1e-5, 50.0, 2500)
    pow_nodes = np.linspace(1e-6, 2.5, 3001)
    sq_nodes = np.linspace(1e-7, 1.2, 6001)
    return {
        "exp": (GridFunction(exp_nodes, exp_nodes * np.exp(-exp_nodes)), (0.25, 1.0, 2.0)),
        "pow": (GridFunction(pow_nodes, np.sqrt(pow_nodes)), (0.5, 1.0, 2.0)),
        "sq": (GridFunction(sq_nodes, sq_nodes**2 + 1.0), (0.4, 0.8, 1.2)),
    }


@pytest.mark.parametrize("name", ["exp", "pow", "sq", "4 nodes", "5 nodes"])
def test_derivative_is_the_spline_slope_at_the_nodes(bench_grids, name):
    # the node slopes of the not-a-knot spline: SciPy's CubicSpline as the
    # oracle, and the spline's defining equations from the slopes alone
    from scipy.interpolate import CubicSpline

    if name in bench_grids:
        gf = bench_grids[name][0]
    else:
        nodes = np.array([0.3, 0.7, 1.6, 2.0, 3.1])[: int(name[0])]
        gf = GridFunction(nodes, np.sin(nodes))
    x, y, s = gf.nodes, gf.values, gf.derivative().values
    want = CubicSpline(x, y)(x, 1)
    assert np.max(np.abs(s - want)) <= 1e-14 * np.max(np.abs(want))
    # on a segment of width h, with chord slope m and end slopes s0, s1, the
    # cubic has S'' = (6m - 4s0 - 2s1)/h at its left end, (-6m + 2s0 + 4s1)/h
    # at its right end, and S''' = 6(s0 + s1 - 2m)/h^2; each residual is
    # measured against the sum of the magnitudes of its terms
    eps = np.finfo(float).eps
    h = np.diff(x)
    m = np.diff(y) / h
    s0, s1 = s[:-1], s[1:]
    at_left, left_scale = (6 * m - 4 * s0 - 2 * s1) / h, (6 * abs(m) + 4 * abs(s0) + 2 * abs(s1)) / h
    at_right, right_scale = (-6 * m + 2 * s0 + 4 * s1) / h, (6 * abs(m) + 2 * abs(s0) + 4 * abs(s1)) / h
    assert np.all(np.abs(at_right[:-1] - at_left[1:]) <= 4 * eps * (right_scale[:-1] + left_scale[1:]))
    third, third_scale = (s0 + s1 - 2 * m) / h**2, (abs(s0) + abs(s1) + 2 * abs(m)) / h**2
    for i, k in ((0, 1), (-1, -2)):
        assert abs(third[i] - third[k]) <= 4 * eps * (third_scale[i] + third_scale[k])


@st.composite
def _spline_data(draw):
    """Strictly increasing nodes, with adjacent spacings up to 1e3 apart, and
    values at them."""
    n = draw(st.integers(4, 40))
    widths = 10.0 ** np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n - 1, max_size=n - 1)))
    nodes = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return nodes, values


@given(_spline_data(), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_spline_agrees_with_cubic_spline(data, offset):
    # the node slopes, and S and S' inside every segment: at the
    # Gauss-Legendre nodes of the operator's outer rule, and from the
    # per-segment quadratic of S' at a drawn offset.  The oracle's slopes are
    # read from its coefficients, where c[2] holds each piece's slope at its
    # left node, and the last one from the mirrored spline: evaluating its
    # power-basis cubic at the far end of a long piece can lose more digits
    # than the solve.  The bound is 1e-12 of the largest magnitude, or
    # eps rho^2 with rho the largest ratio of adjacent spacings: the
    # condition of the system grows like rho^2, and both solutions' rounding
    # with it (at 4 nodes the spline is the one cubic through them, and
    # spacings of 27.6, 0.055 and 31.6 put SciPy's slopes 2.4e-11 and ours
    # 3.6e-11 from the exact solution).
    from scipy.interpolate import CubicSpline

    x, y = data
    oracle = CubicSpline(x, y)
    h = np.diff(x)
    rho = np.max(np.maximum(h[1:] / h[:-1], h[:-1] / h[1:]))
    tol = max(1e-12, np.finfo(float).eps * rho**2)

    def close(got, want):
        return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    last = -CubicSpline(-x[::-1], y[::-1]).c[2, 0]
    assert close(frac_calc._spline_slopes(x, y), np.append(oracle.c[2], last))
    values, slopes, poly = solvers._mesh_spline(x, y)
    at_gauss = x[:-1, None] + h[:, None] * solvers._TAU
    assert close(values, oracle(at_gauss))
    assert close(slopes, oracle(at_gauss, 1))
    t = offset * h
    assert close(poly[:, 0] + t * (poly[:, 1] + t * poly[:, 2]), oracle(x[:-1] + t, 1))


class TestLeftGridKernel:
    """Product integration of the left-sided kernel on GridFunction inputs."""

    @pytest.fixture(scope="class")
    def small_grid(self):
        nodes = np.geomspace(0.2, 6.0, 20)
        return GridFunction(nodes, (1.0 + nodes) ** -2.5 * (1.0 + 0.3 * np.sin(3.0 * nodes)))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_matches_quad_on_small_grid(self, small_grid, alpha):
        gf = small_grid
        # below the first node, on a node, between nodes and at X
        for y in (0.05, float(gf.nodes[7]), 1.1, gf.x_max):
            want = _left_kernel_by_quad(alpha, gf.derivative(), y) / gamma_fn(1.0 - alpha)
            assert caputo(alpha, gf, y) == pytest.approx(want, rel=1e-10)
            want = _left_kernel_by_quad(1.0 - alpha, gf, y) / gamma_fn(alpha)
            assert frac_integral("left", alpha, gf, y) == pytest.approx(want, rel=1e-10)

    def test_past_the_grid_rejected(self, small_grid):
        with pytest.raises(DomainError, match="outside grid coverage"):
            frac_integral("left", 0.5, small_grid, 1.5 * small_grid.x_max)
        assert math.isfinite(frac_integral("left", 0.5, small_grid, small_grid.x_max))

    @pytest.mark.parametrize("name", ["exp", "pow", "sq"])
    def test_slope_jump_sum_matches_segment_sum(self, bench_grids, name):
        gf, xs = bench_grids[name]
        for alpha in (0.3, 0.5, 0.8):
            c = gamma_fn(alpha)
            for x in xs:
                want = left_grid_kernel_by_segments(gf, 1.0 - alpha, x) / c
                assert frac_integral("left", alpha, gf, x) == pytest.approx(want, rel=1e-12)
                if x < gf.x_max:
                    want = right_grid_kernel_by_segments(gf, 1.0 - alpha, x) / c
                    assert frac_integral("right", alpha, gf, x) == pytest.approx(want, rel=1e-12)

    def test_derivative_kernels_match_segment_sum(self, bench_grids):
        # the benchmark takes rl_right of x e^-x and caputo of x^2 + 1
        gf, xs = bench_grids["exp"]
        for x in xs:
            want = -right_grid_kernel_by_segments(gf.derivative(), 0.5, x) / gamma_fn(0.5)
            assert rl_right(0.5, gf, x) == pytest.approx(want, rel=1e-12)
        gf, xs = bench_grids["sq"]
        for alpha in (0.3, 0.5, 0.7):
            for x in xs:
                want = left_grid_kernel_by_segments(gf.derivative(), alpha, x) / gamma_fn(1.0 - alpha)
                assert caputo(alpha, gf, x) == pytest.approx(want, rel=1e-12)


class TestArrayKernels:
    """One kernel call on a whole array of points agrees, point by point, with
    the segment-by-segment oracle."""

    def test_operator_mesh(self):
        # the inner stage of fractional_power_operator(2, nu, x e^-x): the
        # right kernel of (x^-1 f)' = -e^-x at every point of its mesh
        nodes = np.geomspace(1e-5, 50.0, 2500)
        gd = GridFunction(nodes, np.exp(-nodes), -np.inf).derivative()
        mesh = np.geomspace(nodes[0], nodes[-1] * 0.999, 192)
        for a in (0.3, 0.5, 0.8):
            got = _grid_right_alg_integral(gd, a, mesh)
            want = np.array([right_grid_kernel_by_segments(gd, a, x) for x in mesh])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("name", ["pow", "sq"])
    def test_bench_points_both_sides(self, bench_grids, name):
        # the benchmark's points among others up to X, in three blocks
        gf, xs = bench_grids[name]
        xs = np.sort(np.concatenate([xs, np.linspace(0.05, gf.x_max, 17)]))
        for a in (0.3, 0.5, 0.8):
            got = _grid_left_alg_integral(gf, a, xs)
            want = [left_grid_kernel_by_segments(gf, a, x) for x in xs]
            assert list(got) == pytest.approx(want, rel=1e-13)
            got = _grid_right_alg_integral(gf, a, xs)
            want = [right_grid_kernel_by_segments(gf, a, x) for x in xs]  # 0 at and past X
            assert list(got) == pytest.approx(want, rel=1e-13)

    def test_finite_decay_tail_inside_and_past_the_grid(self):
        # points below X take the 2F1 tail, points at and past X the Beta
        # tail, in one array; mpmath integrates the tail
        # v_m int_max(x,X)^inf (s-x)^-a (s/X)^p ds in u = (s-x)^(1-a)/(1-a),
        # which removes the singularity at s = x
        import mpmath

        nodes = np.geomspace(0.2, 6.0, 20)
        values = (1.0 + nodes) ** -2.5 * (1.0 + 0.3 * np.sin(3.0 * nodes))
        gf = GridFunction(nodes, values, -2.5)
        x_max, v_max = gf.x_max, float(values[-1])
        xs = np.array([0.0, 0.05, nodes[7], 1.1, 5.9, x_max, 1.4 * x_max, 3.0 * x_max])
        with mpmath.workdps(30):
            for a in (0.3, 0.5, 0.8):
                got = _grid_right_alg_integral(gf, a, xs)
                q = 1.0 - a
                for x, g in zip(xs, got):
                    u0 = mpmath.mpf(max(x, x_max) - x) ** q / q
                    tail = mpmath.quad(
                        lambda u: ((x + (q * u) ** (1 / q)) / x_max) ** -2.5, [u0, u0 + 1, mpmath.inf]
                    )
                    body = right_grid_kernel_by_segments(gf, a, x) if x < x_max else 0.0
                    assert g == pytest.approx(body + v_max * float(tail), rel=1e-13)


def test_fractional_power_operator_calls_no_scalar_kernel(monkeypatch):
    # the inner stage is one array kernel call, not one rl_right per mesh point
    def no_rl_right(*args, **kwargs):
        raise AssertionError("rl_right called during the build")

    monkeypatch.setattr(frac_calc, "rl_right", no_rl_right)
    monkeypatch.setattr(solvers, "rl_right", no_rl_right, raising=False)
    nodes = np.geomspace(1e-5, 50.0, 2500)
    op = fractional_power_operator(2.0, 0.5, GridFunction(nodes, nodes * np.exp(-nodes), -np.inf))
    assert math.isfinite(op(1.0))


def test_fractional_power_operator_builds_only_its_mesh_spline(monkeypatch):
    # once f's spline derivative is cached, the inner stage reuses it: a build
    # solves for the node slopes of the 192-point spline of the middle stage
    # and of nothing else
    nodes = np.geomspace(1e-5, 50.0, 2500)
    gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
    gf.derivative()
    built = []
    slopes = frac_calc._spline_slopes

    def counting_slopes(x, y):
        built.append(len(x))
        return slopes(x, y)

    monkeypatch.setattr(frac_calc, "_spline_slopes", counting_slopes)
    monkeypatch.setattr(solvers, "_spline_slopes", counting_slopes)
    op = fractional_power_operator(2.0, 0.5, gf)
    assert built == [192]
    assert math.isfinite(op(1.0))


def test_fractional_power_operator_build_memory():
    # the kernel works in blocks of 8 rows, so a build peaks near 0.6 MB
    # (0.4 MB with one rl_right call per mesh point); one 192 x 2500
    # difference matrix alone would be 3.8 MB
    import tracemalloc

    nodes = np.geomspace(1e-5, 50.0, 2500)
    gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
    fractional_power_operator(2.0, 0.5, gf)  # imports and caches
    tracemalloc.start()
    try:
        fractional_power_operator(2.0, 0.5, gf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_fractional_power_operator_values_pinned():
    # the operator on the benchmark's x e^-x grid, its inner stage built from
    # the cached spline derivative of f by the product rule
    nodes = np.geomspace(1e-5, 50.0, 2500)
    gf = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
    pinned = {
        0.3: (-0.21838425978040918, -0.3560939526961543, -0.19046967531930808, 0.03825720098901942),
        0.5: (-0.24229955659631777, -0.355140440118416, -0.14000490147763373, 0.06882160508792862),
        0.8: (-0.2934931064666315, -0.3609039709784035, -0.06036826369604687, 0.09513002496263286),
        0.95: (-0.3277538874078988, -0.3659837252399249, -0.01586823025513045, 0.10044168360067356),
    }
    for nu, want in pinned.items():
        op = fractional_power_operator(2.0, nu, gf)
        got = [op(x) for x in (0.25, 1.0, 2.0, 5.0)]
        assert got == pytest.approx(want, rel=1e-10)


class TestCaputo:
    def test_constant_annihilated(self):
        tn = np.linspace(1e-7, 1.2, 2001)
        got = caputo(0.5, GridFunction(tn, np.ones_like(tn)), 1.0)
        assert abs(got) <= 1e-8

    def test_linear_function(self):
        tn = np.linspace(1e-9, 1.2, 2001)
        got = caputo(0.5, GridFunction(tn, tn), 1.0)
        assert got == pytest.approx(2.0 / SQRT_PI, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_power_law(self, alpha):
        # the exact derivative of x^(b-1), b = 2.5: Gamma(b)/Gamma(b-alpha) t^(b-alpha-1)
        b = 2.5
        for t in (0.5, 1.0, 2.0):
            want = gamma_fn(b) / gamma_fn(b - alpha) * t ** (b - alpha - 1.0)
            assert caputo(alpha, PowerLaw(1.0, b), t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_rl_bridge(self, alpha):
        tn = np.linspace(1e-7, 1.0, 6001)
        gf = GridFunction(tn, tn**2 + 1.0)
        t = 0.8
        lhs = caputo(alpha, gf, t)
        rhs = rl_left(alpha, gf, t) - 1.0 * t**-alpha / gamma_fn(1.0 - alpha)
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestFracIntegral:
    def test_left_identity_limit(self):
        # the kernel (x-s)^(alpha-1)/Gamma(alpha) is an approximate identity
        # as alpha -> 0, and the plain integral as alpha -> 1
        f = lambda s: math.sin(s) + 2.0
        got = frac_integral("left", 1e-4, f, 1.3)
        assert got == pytest.approx(f(1.3), rel=2e-3)
        got = frac_integral("left", 0.9999, f, 1.3)
        assert got == pytest.approx(-math.cos(1.3) + 1.0 + 2.0 * 1.3, rel=1e-3)

    def test_left_constant_value(self):
        got = frac_integral("left", 0.5, lambda s: 1.0, 1.0)
        assert got == pytest.approx(2.0 / SQRT_PI, rel=1e-12)
        assert got == pytest.approx(1.1283791670955126, rel=1e-8)

    def test_exponential_family_invariance(self):
        # on k(x) = exp(-x/t0) t0^(-mu) / Gamma(mu) the right integral returns
        # t0^alpha k (derived by direct calculus; cross-checked by quadrature)
        mu, t0, alpha = 2.0, 1.3, 0.4
        k = lambda s: math.exp(-s / t0) / (gamma_fn(mu) * t0**mu)
        for x in (0.4, 0.7, 1.5):
            got = frac_integral("right", alpha, k, x, tail_decay=-np.inf)
            assert got == pytest.approx(t0**alpha * k(x), rel=1e-10)

    def test_boundary_term_vanishes_on_gamma_density(self):
        # x^(eta-1) (I f)(x) -> 0 at both ends for eta = 2
        f = lambda s: s * math.exp(-s)
        for x in (1e-6, 35.0):
            val = x**1.0 * frac_integral("right", 0.5, f, x, tail_decay=-np.inf)
            assert abs(val) < 1e-5

    def test_tail_condition(self):
        with pytest.raises(DivergentTailError):
            frac_integral("right", 0.5, lambda s: 1.0, 1.0, tail_decay=0.0)


def test_alpha_range_enforced():
    with pytest.raises(DomainError):
        rl_left(1.5, PowerLaw(1.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        caputo(0.0, lambda s: s, 1.0)
