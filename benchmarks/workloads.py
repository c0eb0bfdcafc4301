"""The four workloads as lists of checked operations.

A workload is a list whose items are operations, or lists of operations that
must run in their given order (an operator and its evaluations).

An operation is one public call and the check of its output.  The check
returns the number of correct significant digits of a deterministic output
(None for a random one), raises `NoAnswer` when the call gave no usable value
(it counts as failed), or raises `Wrong` when the value misses its tolerance
(the run is then not correct).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special as sp

import points as P

HERE = Path(__file__).resolve().parent
DIGITS_CAP = -math.log10(2.0**-53)  # agreement to the last bit
UNDERFLOW = 1e-300  # a reference stored as 0 lies far below this

# relative tolerances, by workload (see README)
RTOL_DIRECT = 1e-8
RTOL_NESTED = 1e-5
RTOL_OPERATORS = 1e-3
RTOL_CLI_TABLE = 1e-8


class NoAnswer(Exception):
    """The operation gave no usable value: it counts as failed."""


class Wrong(Exception):
    """The value misses its tolerance: the run is not correct."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], float | None]
    fault: str | None = None  # the known fault, for operations that fail today
    command: str | None = None  # the CLI command, for the cli workload


class Outcome:
    """Counts and digits over the checked operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.min_digits = float("inf")
        self.failures: dict[str, str] = {}
        self.wrong: dict[str, str] = {}
        self.unexpected: set[str] = set()

    def record(self, op, ok: bool, value):
        self.attempted += 1
        if ok:
            try:
                d = op.check(value)
            except NoAnswer as exc:
                ok, value = False, exc
            except Wrong as exc:
                self.correct = False
                self.wrong[op.name] = str(exc)
                return
            else:
                if d is not None:
                    self.min_digits = min(self.min_digits, d)
                return
        self.failed += 1
        self.failures[op.name] = f"{type(value).__name__}: {value}"
        if op.fault is None:
            self.unexpected.add(op.name)


def load_oracles() -> dict:
    doc = json.loads((HERE / "oracles.json").read_text())
    return {key: float(rec["value"]) for key, rec in doc["values"].items()}


def digits(value: float, ref: float) -> float:
    """Correct significant digits of value against a non-zero reference."""
    rel = abs(value - ref) / abs(ref)
    return min(DIGITS_CAP, -math.log10(rel)) if rel > 0 else DIGITS_CAP


def check_value(value, ref: float, rtol: float, density: bool = True) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NoAnswer(f"non-finite value {value}")
    if density and value < 0:
        raise NoAnswer(f"negative density {value:.3e}")
    if ref == 0.0:  # the true density underflows the double range
        if abs(value) <= UNDERFLOW:
            return DIGITS_CAP
        raise NoAnswer(f"{value:.3e} where the true density is below 1e-300")
    d = digits(value, ref)
    if d <= 0:
        raise NoAnswer(f"no correct digit: {value:.6e} against {ref:.6e}")
    if abs(value - ref) > rtol * abs(ref):
        raise Wrong(f"{value:.15e} against {ref:.15e} ({d:.2f} digits)")
    return d


def _density_op(name, fn, ref, rtol, fault=None):
    return Op(name, fn, lambda v: check_value(v, ref, rtol), fault)


# ---------------------------------------------------------------------------
# direct


# Operations look the library's functions up on the package at call time, as
# a caller does, so that the tracer's wrappers see them.


def direct_ops(oracles) -> list[Op]:
    import anomdiff as ad

    ops = []

    def law_op(law, nu, x, t, method, fault=None):
        ref = oracles[P.oracle_key(law, (nu, x, t))]
        fn = f"{law}_density"
        return _density_op(
            f"{fn}({nu:.4g}, {x:.4g}, {t:.4g}, {method})",
            lambda: getattr(ad, fn)(nu, x, t, method), ref, RTOL_DIRECT, fault,
        )

    for law, nu, x, t, method in P.direct_points():
        ops.append(law_op(law, nu, x, t, method))
    for (law, nu, x, t, method), fault in P.DIRECT_FAULTS:
        ops.append(law_op(law, nu, x, t, method, fault))
    for mu, nu, beta in P.SFD_CASES:
        for x in P.SFD_X:
            for t in P.SFD_T:
                ref = oracles[P.oracle_key("sfd", (mu, nu, beta, x, t))]
                ops.append(_density_op(
                    f"space_fractional_density({mu}, {nu}, {beta}, {x}, {t}, foxh)",
                    lambda a=(mu, nu, beta, x, t): ad.space_fractional_density(*a, "foxh"),
                    ref, RTOL_DIRECT,
                ))
    return ops


# ---------------------------------------------------------------------------
# nested


def nested_ops(oracles) -> list[Op]:
    import anomdiff as ad

    ops = []
    for gamma, mu, x, t in P.NESTED_COMPOSE:
        vec = ad.MuVector.parse(mu)
        ref = oracles[P.oracle_key("compose", (gamma, P.mu_floats(mu), x, t))]
        ops.append(_density_op(f"compose_density({gamma}, ({mu}), {x}, {t})",
                               lambda a=(gamma, vec, x, t): ad.compose_density(*a), ref, RTOL_NESTED))
    for law, nu, x, t in P.NESTED_AUTO:
        ref = oracles[P.oracle_key(law, (nu, x, t))]
        fn = f"{law}_density"
        ops.append(_density_op(f"{fn}({nu}, {x}, {t}, auto)",
                               lambda fn=fn, a=(nu, x, t): getattr(ad, fn)(*a), ref, RTOL_NESTED))
    for args in P.NESTED_MIXED:
        ref = oracles[P.oracle_key("mixed", args)]
        ops.append(_density_op(f"f_nu_beta{args}", lambda a=args: ad.f_nu_beta(*a), ref, RTOL_NESTED))
    tfs = [(a, None) for a in P.NESTED_TFS] + [P.NESTED_TFS_FAULT]
    for args, fault in tfs:
        ref = oracles[P.oracle_key("tfs", args)]
        ops.append(_density_op(f"time_fractional_solution{args}",
                               lambda a=args: ad.time_fractional_solution(*a), ref, RTOL_NESTED, fault))
    for args in P.NESTED_SFD:
        ref = oracles[P.oracle_key("sfd", args)]
        ops.append(_density_op(f"space_fractional_density{args + ('double_integral',)}",
                               lambda a=args: ad.space_fractional_density(*a, "double_integral"),
                               ref, RTOL_NESTED))
    for law1, t1, law2, x in P.NESTED_MCONV:
        ref = oracles[P.oracle_key("ggprod", (law1, t1, law2, x))]
        g1, g2 = ad.GGLaw(*law1), ad.GGLaw(*law2)

        def conv(g1=g1, g2=g2, t1=t1, x=x):
            return ad.mellin_convolve(lambda u: ad.gg_density(g1, u, t1), lambda u: ad.gg_density(g2, u, 1.0), x)

        ops.append(_density_op(f"mellin_convolve(gg{law1} at {t1}, gg{law2}, {x})", conv, ref, RTOL_NESTED))
    return ops


# ---------------------------------------------------------------------------
# operators: GridFunction grids of the sizes `verify` uses


def operators_ops() -> list:
    import anomdiff as ad
    from anomdiff import GridFunction

    alpha = 0.5
    nodes = np.geomspace(1e-5, 50.0, 2500)  # x e^-x, as in frac.mellin_derivative_rules
    g_exp = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)
    beta = 1.5
    nodes_pow = np.linspace(1e-6, 2.5, 3001)  # as in frac.power_law_rule
    g_pow = GridFunction(nodes_pow, nodes_pow ** (beta - 1.0), beta - 1.0)
    nodes_sq = np.linspace(1e-7, 1.2, 6001)  # as in frac.caputo_rl_bridge
    g_sq = GridFunction(nodes_sq, nodes_sq**2 + 1.0)

    def signed(ref):
        return lambda v: check_value(v, ref, RTOL_OPERATORS, density=False)

    ops = []
    for x in (0.25, 1.0, 2.0):
        # right derivative and right integral of x e^-x: (x - a) e^-x and (x + a) e^-x
        ops.append(Op(f"rl_right({alpha}, x e^-x, {x})", lambda x=x: ad.rl_right(alpha, g_exp, x),
                      signed((x - alpha) * math.exp(-x))))
        ops.append(Op(f"frac_integral(right, {alpha}, x e^-x, {x})",
                      lambda x=x: ad.frac_integral("right", alpha, g_exp, x),
                      signed((x + alpha) * math.exp(-x))))
    for a in (0.25, 0.75):
        for x in (0.5, 1.0, 2.0):
            ref = math.gamma(beta) / math.gamma(beta - a) * x ** (beta - a - 1.0)
            ops.append(Op(f"rl_left({a}, x^{beta - 1}, {x})", lambda a=a, x=x: ad.rl_left(a, g_pow, x), signed(ref)))
    t = 0.8
    for a in (0.3, 0.5, 0.7):
        ref = 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a)  # Caputo derivative of x^2 + 1
        ops.append(Op(f"caputo({a}, x^2 + 1, {t})", lambda a=a: ad.caputo(a, g_sq, t), signed(ref)))

    # -(D_left^a [x^(1+a) D_right^a (x^-1 f)]) for f = x e^-x and mu = 2 is
    # -Gamma(2+a) x 1F1(2+a; 2; -x), from the power-law rule term by term
    built = {}

    def build():
        built.clear()
        built["op"] = ad.fractional_power_operator(2.0, alpha, g_exp)
        return built["op"]

    def is_callable(op):
        if not callable(op):
            raise NoAnswer("fractional_power_operator did not return a callable")
        return None

    group = [Op(f"fractional_power_operator(2, {alpha}, x e^-x)", build, is_callable)]
    for x in (0.25, 1.0, 2.0, 5.0):
        ref = float(-sp.gamma(2.0 + alpha) * x * sp.hyp1f1(2.0 + alpha, 2.0, -x))

        def apply(x=x):
            if "op" not in built:
                raise NoAnswer("the operator was not built")
            return built["op"](x)

        group.append(Op(f"fractional_power_operator(...)({x})", apply, signed(ref)))
    ops.append(group)  # the evaluations follow their build within a pass
    return ops


# ---------------------------------------------------------------------------
# cli: one command per subprocess


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float


def ks_bound(n: int, p: float = 1e-7) -> float:
    """One-sample KS distance exceeded with probability below p (DKW)."""
    return math.sqrt(math.log(2.0 / p) / (2.0 * n))


def parse_table(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and ln[0] in "0123456789.-"]
    return np.array([[float(v) for v in ln.split(",")[:3]] for ln in lines])


def check_table(res: CliResult, xs, refs, rtol, density=True) -> float:
    if res.returncode != 0:
        raise NoAnswer(f"exit {res.returncode}: {res.stderr.strip()[-200:]}")
    rows = parse_table(res.stdout)
    if rows.shape[0] != len(refs) or not np.allclose(rows[:, 0], xs, rtol=1e-11, atol=0):
        raise Wrong(f"unexpected grid in output ({rows.shape[0]} rows)")
    return min(check_value(v, r, rtol, density) for v, r in zip(rows[:, 2], refs))


def check_ks(res: CliResult, cdf, n: int) -> None:
    if res.returncode != 0:
        raise NoAnswer(f"exit {res.returncode}: {res.stderr.strip()[-200:]}")
    draws = np.array([float(v) for v in res.stdout.splitlines()[2:]])
    if draws.size != n:
        raise Wrong(f"{draws.size} draws, expected {n}")
    x = np.sort(draws)
    f = cdf(x)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    if d > ks_bound(n):
        raise Wrong(f"KS distance {d:.4f} above {ks_bound(n):.4f}")
    return None


N_DRAWS = 20_000
VERIFY_SEED = 0  # the CLI default: every verify run compares against one report
VERIFY_SUITES = ("montecarlo", "laws")


def cli_ops(seed: int, runner, verify_reports: dict) -> list[Op]:
    """`runner(argv)` runs one anomdiff command in a fresh interpreter and
    returns a CliResult; `verify_reports` maps suite -> the report bytes the
    same command wrote in-process."""
    ops = []

    def grid_args(grid):
        return ["--param", f"xmin={grid['xmin']}", "--param", f"xmax={grid['xmax']}",
                "--param", f"nx={grid['nx']}", "--param", f"t={grid['t']}"]

    def tab(params, grid):
        argv = ["--command", "tabulate"] + [a for p in params for a in ("--param", p)] + grid_args(grid)
        return lambda: runner(argv)

    g = P.CLI_L_GRID
    xs = P.grid_x(g)
    refs = [math.exp(-x * x / (4.0 * g["t"])) / math.sqrt(math.pi * g["t"]) for x in xs]
    ops.append(Op("tabulate l nu=0.5", tab(["density=l", "nu=0.5"], g),
                  lambda r, xs=xs, refs=refs: check_table(r, xs, refs, RTOL_CLI_TABLE), command="tabulate"))

    oracles = load_oracles()
    g = P.CLI_H_GRID
    xs = P.grid_x(g)
    refs = [oracles[P.oracle_key("h", (P.CLI_H_NU, x, g["t"]))] for x in xs]
    ops.append(Op(f"tabulate h nu={P.CLI_H_NU} foxh",
                  tab(["density=h", f"nu={P.CLI_H_NU}", "method=foxh"], g),
                  lambda r, xs=xs, refs=refs: check_table(r, xs, refs, RTOL_CLI_TABLE), command="tabulate"))

    g, p = P.CLI_G_GRID, P.CLI_G_PARAMS
    xs = P.grid_x(g)
    refs = [oracles[P.oracle_key("sfd", (p["mu"], p["nu"], p["beta"], x, g["t"]))] for x in xs]
    ops.append(Op("tabulate g_nu_beta foxh",
                  tab(["density=g_nu_beta", f"mu={p['mu']}", f"nu={p['nu']}", f"beta={p['beta']}",
                       "route=foxh"], g),
                  lambda r, xs=xs, refs=refs: check_table(r, xs, refs, RTOL_CLI_TABLE), command="tabulate"))

    g = P.CLI_COMPOSE_GRID
    xs = P.grid_x(g)
    refs = [oracles[P.oracle_key("compose", (1.0, P.mu_floats(P.CLI_COMPOSE_MU), x, g["t"]))] for x in xs]
    ops.append(Op("tabulate compose", tab(["density=compose", "gamma=1", f"mu={P.CLI_COMPOSE_MU}"], g),
                  lambda r, xs=xs, refs=refs: check_table(r, xs, refs, RTOL_NESTED),
                  fault=P.CLI_COMPOSE_FAULT, command="tabulate"))

    n = N_DRAWS
    ops.append(Op("sample subordinator nu=0.5",
                  lambda: runner(["--command", "sample", "--seed", str(seed), "--param", "dist=subordinator",
                                  "--param", "nu=0.5", "--param", f"n={n}"]),
                  lambda r: check_ks(r, lambda x: sp.erfc(1.0 / (2.0 * np.sqrt(x))), n), command="sample"))
    ops.append(Op("sample chain inverse 1/2",
                  lambda: runner(["--command", "sample", "--seed", str(seed + 1), "--param", "dist=chain",
                                  "--param", "kind=inverse", "--param", "mu_vector=1/2", "--param", f"n={n}"]),
                  lambda r: check_ks(r, lambda x: sp.erf(x / 2.0), n), command="sample"))

    def check_bvp(r: CliResult) -> float:
        if r.returncode != 0:
            raise NoAnswer(f"exit {r.returncode}: {r.stderr.strip()[-200:]}")
        rows = parse_table(r.stdout.split("{", 1)[0])
        kappa0 = float(sp.jn_zeros(0, 1)[0])
        refs = sp.j0(kappa0 * np.sqrt(rows[:, 0])) * sp.erfcx((kappa0 / 2.0) ** 2 * np.sqrt(rows[:, 1]))
        if rows.shape[0] != 19:
            raise Wrong(f"{rows.shape[0]} rows, expected 19")
        return min(check_value(v, float(ref), RTOL_CLI_TABLE) for v, ref in zip(rows[:, 2], refs))

    ops.append(Op("solve-bvp first-mode nu=0.5",
                  lambda: runner(["--command", "solve-bvp", "--param", "m0=first-mode", "--param", "nu=0.5"]),
                  check_bvp, command="solve-bvp"))

    # nu = 1, beta = 1/2: a gamma draw at an inverse-stable time has light
    # tails, so the slope's sampling error (about 0.003) is far inside 0.05
    # on every seed; with a stable time, E[X^r] has infinite variance.
    def check_moments(r: CliResult):
        if r.returncode != 0:
            raise NoAnswer(f"exit {r.returncode}: {r.stderr.strip()[-200:]}")
        doc = json.loads(r.stdout)
        want = 0.5 * 1.0 / 1.0  # beta r / nu
        if abs(doc["slope"] - want) > 0.05:
            raise Wrong(f"moment slope {doc['slope']:.4f}, expected {want} +- 0.05")
        return None

    ops.append(Op("moments nu=1 beta=0.5 r=1",
                  lambda: runner(["--command", "moments", "--seed", str(seed), "--param", "nu=1",
                                  "--param", "beta=0.5", "--param", "r=1"]),
                  check_moments, command="moments"))

    for suite in VERIFY_SUITES:
        def check_verify(r: CliResult, suite=suite):
            if r.returncode != 0:
                raise NoAnswer(f"verify {suite} exit {r.returncode}")
            if r.stdout != verify_reports[suite]:
                raise Wrong(f"verify {suite} report differs from the in-process report of the same seed")
            return None

        ops.append(Op(f"verify {suite}",
                      lambda suite=suite: runner(["--command", "verify", "--seed", str(VERIFY_SEED),
                                                  "--param", f"suite={suite}"]),
                      check_verify, command="verify"))
    return ops


def make_runner(src: Path, traced: bool):
    """A function that runs one anomdiff command in a fresh interpreter."""
    if traced:
        prefix = [sys.executable, str(HERE / "traced_cli.py")]
    else:
        prefix = [sys.executable, "-m", "anomdiff.cli"]
    env = child_env(src)

    def runner(argv) -> CliResult:
        t0 = time.perf_counter()
        proc = subprocess.run(prefix + list(argv), capture_output=True, text=True, env=env, timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0)

    return runner


def child_env(src: Path) -> dict:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
