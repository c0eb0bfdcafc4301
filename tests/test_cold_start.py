"""Cold start: SciPy submodules load at first use, not at `import anomdiff`.

Each check runs in a fresh interpreter, since the test process has SciPy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomdiff

_SRC = str(Path(anomdiff.__file__).resolve().parents[1])


def scipy_modules_after(code):
    """Names of the scipy modules loaded after running `code` in a fresh
    interpreter that has anomdiff on its path."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules_after("import anomdiff") == []


def test_contour_route_needs_no_quadrature():
    loaded = scipy_modules_after("from anomdiff import h_density\nassert h_density(0.3, 1.0, 1.0, 'foxh') > 0")
    assert loaded == []


def public_subpackages(modules):
    """The public subpackages (scipy.X with X not private) among modules."""
    return {".".join(m.split(".")[:2]) for m in modules if m.count(".") and not m.split(".")[1].startswith("_")}


def test_grid_operators_load_only_special():
    # the grids and operators of the benchmark's `operators` workload: the
    # spline is the package's own, so only scipy.special loads, for the 2F1
    # and Beta tails of the right kernel and the operator's head
    code = (
        "import numpy as np\n"
        "from anomdiff import GridFunction, caputo, frac_integral, fractional_power_operator, rl_left, rl_right\n"
        "nodes = np.geomspace(1e-5, 50.0, 2500)\n"
        "g_exp = GridFunction(nodes, nodes * np.exp(-nodes), -np.inf)\n"
        "nodes = np.linspace(1e-6, 2.5, 3001)\n"
        "g_pow = GridFunction(nodes, nodes**0.5, 0.5)\n"
        "nodes = np.linspace(1e-7, 1.2, 6001)\n"
        "g_sq = GridFunction(nodes, nodes**2 + 1.0)\n"
        "values = [rl_right(0.5, g_exp, 1.0), frac_integral('right', 0.5, g_exp, 1.0), rl_left(0.25, g_pow, 1.0),\n"
        "          caputo(0.5, g_sq, 0.8), fractional_power_operator(2.0, 0.5, g_exp)(1.0)]\n"
        "assert all(np.isfinite(values))"
    )
    assert public_subpackages(scipy_modules_after(code)) == {"scipy.special", "scipy.version"}


def test_bessel_zeros_load_only_special():
    # the zeros are eigenvalues found by numpy; scipy.special checks them
    code = "from anomdiff.specfun import bessel_j_zeros\nassert len(bessel_j_zeros(0.5, 20)) == 20"
    assert public_subpackages(scipy_modules_after(code)) == {"scipy.special", "scipy.version"}


_GRID = ["xmin=0.2", "xmax=3.0", "nx=8", "t=1.0"]
# What scipy.integrate loads with it (scipy 1.17): a command that integrates
# may load these subpackages and no others.
_QUADRATURE = {"scipy.constants", "scipy.fft", "scipy.integrate", "scipy.linalg", "scipy.optimize",
               "scipy.sparse", "scipy.spatial", "scipy.special", "scipy.version"}

# The ten commands of the benchmark's `cli` workload, each with the public
# scipy subpackages it may load; an empty set means no scipy module at all.
COMMANDS = {
    "tabulate-l": (["tabulate", "density=l", "nu=0.5"] + _GRID, set()),
    "tabulate-h-foxh": (["tabulate", "density=h", "nu=0.3", "method=foxh"] + _GRID, set()),
    "tabulate-g_nu_beta-foxh": (["tabulate", "density=g_nu_beta", "mu=1.0", "nu=0.7", "beta=0.5", "route=foxh"]
                                + _GRID, set()),
    "tabulate-compose": (["tabulate", "density=compose", "gamma=1", "mu=1/4,2/4,3/4"] + _GRID, set()),
    "sample-subordinator": (["sample", "dist=subordinator", "nu=0.5", "n=2000"], set()),
    "sample-chain": (["sample", "dist=chain", "kind=inverse", "mu_vector=1/2", "n=2000"], set()),
    "moments": (["moments", "nu=1", "beta=0.5", "r=1"], set()),
    "verify-montecarlo": (["verify", "suite=montecarlo"], set()),
    "solve-bvp": (["solve-bvp", "m0=first-mode", "nu=0.5"], _QUADRATURE),
    "verify-laws": (["verify", "suite=laws"], _QUADRATURE),
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_only_its_scipy_subpackages(name):
    # the command as `python -m anomdiff.cli` runs it, its output discarded
    (command, *params), allowed = COMMANDS[name]
    argv = ["anomdiff", "--command", command, "--seed", "0"] + [a for p in params for a in ("--param", p)]
    run_cli = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runpy.run_module('anomdiff.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code"
    )
    loaded = scipy_modules_after(run_cli)
    if not allowed:
        assert loaded == []
    assert public_subpackages(loaded) <= allowed
