"""Cold start: SciPy submodules load at first use, not at `import anomdiff`.

Each check runs in a fresh interpreter, since the test process has SciPy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_closed_form_table_loads_no_scipy():
    # the command as `python -m anomdiff.cli` runs it; nu = 1/2 is one closed form
    run_cli = (
        "import runpy, sys\n"
        "sys.argv = ['anomdiff', '--command', 'tabulate', '--param', 'density=l', '--param', 'nu=0.5']\n"
        "try:\n"
        "    runpy.run_module('anomdiff.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code"
    )
    assert scipy_modules_after(run_cli) == []


def test_contour_route_needs_no_quadrature():
    loaded = scipy_modules_after("from anomdiff import h_density\nassert h_density(0.3, 1.0, 1.0, 'foxh') > 0")
    assert "scipy.special" in loaded
    assert "scipy.integrate" not in loaded
