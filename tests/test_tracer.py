"""The benchmark's tracer wraps library functions by name: every name it lists
must resolve after `import anomdiff`, or `run.py --trace 1` fails at install."""

import importlib.util
import sys
from pathlib import Path

import pytest

import anomdiff  # noqa: F401  (the tracer reads the modules this import loads)

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_tables():
    if not _TRACER.is_file():
        pytest.skip("benchmarks/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_anomdiff_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


def test_traced_names_resolve():
    functions, methods = _tracer_tables()
    missing = []
    for span, (modname, attr) in functions.items():
        module = sys.modules.get(modname)
        if module is None or not callable(getattr(module, attr, None)):
            missing.append(f"{span}: {modname}.{attr}")
    for span, (modname, cls, attr) in methods.items():
        klass = getattr(sys.modules.get(modname), cls, None)
        if klass is None or attr not in vars(klass):
            missing.append(f"{span}: {modname}.{cls}.{attr}")
    assert missing == []
