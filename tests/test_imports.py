"""No dead imports in the package: a stand-in for a linter's F401.

Every name a module of ``coupled_ricci`` imports at module level is used
in that module or listed in its ``__all__``.  The exceptions are the
bindings that only the benchmark's tracer reads: their import line
carries the marker below, and they are exactly ``WRAP_TARGETS``, the
imports a change to the benchmark may delete.
"""

import ast
import pathlib

import coupled_ricci

PACKAGE = pathlib.Path(coupled_ricci.__file__).parent
MARKER = "noqa: F401  perfbench"
WRAP_TARGETS = {
    "monge_ampere.spsolve",
    "functionals.is_admissible",
    "iteration.cke_residual",
}


def _unused_imports(path):
    """(module.name, marked) of each module-level import the module never
    reads and does not export."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [target.id for target in node.targets] == ["__all__"]
        ):
            used.update(ast.literal_eval(node.value))
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = MARKER in lines[node.lineno - 1]
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield f"{path.stem}.{bound}", marked


def test_every_module_level_import_is_used_or_a_wrap_target():
    dead, marked = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, is_marked in _unused_imports(path):
            (marked if is_marked else dead).add(name)
    assert dead == set(), f"unused imports: {sorted(dead)}"
    assert marked == WRAP_TARGETS
