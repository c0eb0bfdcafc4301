"""The package's modules import one another without a cycle.

Every relative import in `src/anomdiff/*.py` counts, including those made
inside a function body, since a late import only hides a cycle from the
interpreter's load order.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anomdiff"


def _import_graph() -> dict:
    """Module name -> set of package modules it imports, relatively."""
    modules = {path.stem: path for path in _PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module:  # from .mellin import quad
                edges.add(node.module.split(".")[0])
            else:  # from . import mellin
                edges.update(alias.name for alias in node.names)
        graph[name] = edges & modules.keys() - {name}
    return graph


def _find_cycle(graph: dict):
    """One import cycle as a list of modules, first repeated last, or None."""
    state = {}  # module -> "open" while on the current path, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_finder_names_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert _find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_imports_are_acyclic():
    cycle = _find_cycle(_import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_lower_layers_import_no_upper_module():
    graph = _import_graph()
    assert graph["mellin"] == {"errors"}
    assert not graph["laws"] & {"solvers", "frac_calc", "montecarlo", "verify", "cli"}
