"""The import graph of the package's modules, read from their source.

Run as a script, it prints each module's line count and ``invlearn``
imports, then the line total (CI's summary step).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "invlearn"

# each module with the package modules it imports, in layer order: a module
# imports only modules above it
LAYERS = {
    "errors": set(),
    "operators": {"errors"},
    "stochastics": {"errors", "operators"},
    "hypotheses": {"errors", "operators"},
    "risk": {"errors", "hypotheses", "stochastics"},
    "bounds": {"errors"},
    "experiment": {"bounds", "errors", "hypotheses", "operators", "risk",
                   "stochastics"},
    "cli": {"bounds", "errors", "experiment", "risk", "stochastics"},
}


def invlearn_imports(path) -> set:
    """The package modules that the module at ``path`` imports, relatively
    (``from .risk import ...``, ``from . import bounds``) or by name."""
    found = set()
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "invlearn":
                    continue
                module = module.removeprefix("invlearn").lstrip(".")
            found.update([module.split(".")[0]] if module
                         else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("invlearn."))
    return found


def test_the_import_graph_is_layered():
    modules = {p.stem: invlearn_imports(p) for p in SRC.glob("*.py")}
    # the package exports the public names of every layer below the CLI
    assert modules.pop("__init__") == set(LAYERS) - {"errors", "cli"}
    assert modules == LAYERS
    order = list(LAYERS)
    for i, name in enumerate(order):
        assert LAYERS[name] <= set(order[:i]), name


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        imports = ", ".join(sorted(invlearn_imports(path))) or "-"
        print(f"{lines:5d} {path.name:15s} imports: {imports}")
    print(f"{total:5d} total")
