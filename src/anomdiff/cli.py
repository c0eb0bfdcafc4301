"""Command-line front end.

A single entry point dispatching on --command:

  tabulate   write a density table as CSV (x, t, value, method)
  solve-bvp  evaluate the eigenfunction series on a grid; with --out, the
             eigen-system also goes to the JSON sidecar <out>.eigen.json
  sample     dump draws from one of the samplers, one value per line
  verify     run the verification suite, JSON report, non-zero exit on failure
  moments    Monte Carlo scaling exponent of a subordinated moment

Exit status: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import montecarlo, solvers, verify
from .errors import ConvergenceError, DomainError, UnsupportedMethodError
from .laws import MuVector, tabulate_density
from .montecarlo import CompositionChain, RngSpec

_FLOAT_KEYS = {"gamma", "nu", "beta", "xmin", "xmax", "r"}
_INT_KEYS = {"nx", "n", "n_terms", "stream", "tilde"}
# "t" stays a string: grid commands accept semicolon-separated lists; so does
# "mu", a number for most commands and a MuVector ("1/4,2/4,3/4") for compose


def _mu(params) -> float:
    return float(params.get("mu", 1.0))


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise DomainError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key in _FLOAT_KEYS:
            params[key] = float(value)
        elif key in _INT_KEYS:
            params[key] = int(value)
        else:
            params[key] = value.strip()
    return params


@contextmanager
def _output(path):
    """The file at `path` opened for writing, or stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _emit(path, text):
    """Write text to the file at `path`, or to stdout when path is None."""
    with _output(path) as fh:
        fh.write(text)


def _write_rows(path, header, rows, fmt="csv"):
    if fmt == "json":
        doc = {"columns": list(header), "rows": [list(r) for r in rows]}
        _write_json(path, doc)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, doc):
    _emit(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _times(params, default):
    """The semicolon-separated list of times in --param t."""
    return [float(v) for v in str(params.get("t", default)).split(";") if v]


def _grid(params, xmin, xmax, nx, t):
    """The x grid and the times of a command, with its own defaults."""
    xmin = params.get("xmin", xmin)
    xmax = params.get("xmax", xmax)
    nx = params.get("nx", nx)
    if nx < 1 or xmax < xmin or xmin <= 0:
        raise DomainError("invalid grid: need xmin > 0, xmax >= xmin, nx >= 1")
    return np.linspace(xmin, xmax, nx), _times(params, t)


def cmd_tabulate(params, seed, out, fmt):
    name = params.get("density")
    if name is None:
        raise DomainError("tabulate requires --param density=<name>")
    xs, ts = _grid(params, 0.1, 3.0, 30, "1.0")
    _write_rows(out, ("x", "t", "value", "method"), tabulate_density(name, params, xs, ts), fmt)
    return 0


_BVP_PRESETS = {
    "one": lambda es: (lambda x: 1.0),
    "first-mode": lambda es: (lambda x: float(es.weight(x)) * float(es.eigenfunction(0, x))),
    "bump": lambda es: (lambda x: x * (1.0 - x)),
}


class _CsvDatum:
    """Piecewise-linear datum through the (x, m0) rows of a CSV file; its
    `nodes` are the break points of project_coefficients."""

    def __init__(self, data):
        self.nodes, self.values = data[:, 0], data[:, 1]

    def __call__(self, x):
        return float(np.interp(x, self.nodes, self.values))


def cmd_solve_bvp(params, seed, out, fmt):
    xs, ts = _grid(params, 0.05, 0.95, 19, "0.5")
    gamma = params.get("gamma", 1.0)
    mu = _mu(params)
    nu = params.get("nu", 1.0)
    n_terms = params.get("n_terms", 50)
    preset = params.get("m0", "one")
    es = solvers.eigen_system(gamma, mu, n_terms)
    if preset in _BVP_PRESETS:
        m0 = _BVP_PRESETS[preset](es)
    elif preset.endswith(".csv"):
        m0 = _CsvDatum(np.loadtxt(preset, delimiter=","))
    else:
        raise UnsupportedMethodError(f"unknown initial datum preset {preset!r}")
    spec = solvers.BVPSpec(gamma, mu, nu, m0, n_terms=n_terms)
    sol = solvers.sturm_liouville_solution(spec)
    rows = [(float(x), t, v) for t in ts for x, v in zip(xs, sol(xs, t).tolist())]
    _write_rows(out, ("x", "t", "value"), rows, fmt)
    if out is not None:
        _write_json(out + ".eigen.json", sol.es.to_json_dict(sol.coeffs))
    return 0


_SAMPLE_BLOCK = 1 << 16  # draws formatted per write by `sample`


def cmd_sample(params, seed, out, fmt):
    dist = params.get("dist")
    n = params.get("n", 1000)
    t = float(params.get("t", 1.0))
    rng = RngSpec(seed, params.get("stream", 0))
    if dist == "G":
        draws = montecarlo.sample_gamma(_mu(params), t, rng, size=n)
    elif dist == "E":
        draws = montecarlo.sample_inv_gamma(_mu(params), t, rng, size=n)
    elif dist == "subordinator":
        draws = montecarlo.sample_subordinator(params.get("nu", 0.5), t, rng, size=n)
    elif dist == "inverse":
        draws = montecarlo.sample_inverse_subordinator(params.get("nu", 0.5), t, rng, size=n)
    elif dist == "chain":
        chain = CompositionChain(
            params.get("kind", "subordinator"), MuVector.parse(params["mu_vector"]), t
        )
        draws = montecarlo.sample_chain(chain, rng, size=n)
    else:
        raise DomainError("sample requires --param dist=G|E|subordinator|inverse|chain")
    draws = np.atleast_1d(draws)
    with _output(out) as fh:
        fh.write(f"# dist={dist} n={n} t={t:g} seed={seed}\nvalue\n")
        # a block of draws at a time, not one string per draw for all n
        for i in range(0, draws.size, _SAMPLE_BLOCK):
            fh.write("".join(f"{v:.12g}\n" for v in draws[i:i + _SAMPLE_BLOCK].tolist()))
    return 0


def cmd_verify(params, seed, out, fmt):
    report = verify.run_suite(params.get("suite"), seed=seed)
    _write_json(out, report)
    return 0 if all(t["pass"] for t in report["tests"]) else 1


def cmd_moments(params, seed, out, fmt):
    t_grid = _times(params, "0.5;1;2;4")
    slope = montecarlo.moment_scaling_slope(
        _mu(params),
        params.get("nu", 1.0),
        params.get("beta", 1.0),
        params.get("r", 1.0),
        t_grid,
        RngSpec(seed, params.get("stream", 0)),
        n_samples=params.get("n", 100_000),
    )
    expected = params.get("beta", 1.0) * params.get("r", 1.0) / params.get("nu", 1.0)
    _write_json(out, {"slope": slope, "expected": expected, "t_grid": t_grid, "seed": seed})
    return 0


_COMMANDS = {
    "tabulate": cmd_tabulate,
    "solve-bvp": cmd_solve_bvp,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "moments": cmd_moments,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anomdiff", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--command", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--param", action="append", metavar="key=value",
                        help="command parameter, repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (stdout if omitted)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        params = _parse_params(args.param)
        return _COMMANDS[args.command](params, args.seed, args.out, args.format)
    except (DomainError, UnsupportedMethodError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
