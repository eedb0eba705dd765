"""No dead imports or dead definitions in the package.

Every name a module of ``coupled_ricci`` imports at module level is used
in that module or listed in its ``__all__`` (a stand-in for a linter's
F401).  The exceptions are the bindings that only the benchmark's tracer
reads: their import line carries the marker below, and they are exactly
``WRAP_TARGETS``, the imports a change to the benchmark may delete.

Every function, class and name a module defines at module level, dunder
names such as ``__version__`` apart, is read somewhere in the package or
listed in an ``__all__``.  The one exception
is ``UNREAD_DEFINITIONS``: the tests' assembled Jacobian in
``_sparse_reference``, which ``monge_ampere`` binds on first use and the
benchmark's tracer wraps there.

A run imports no scipy, and nothing at all once ``coupled_ricci.cli`` is
imported: each is checked in a fresh interpreter.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import coupled_ricci

PACKAGE = pathlib.Path(coupled_ricci.__file__).parent
MARKER = "noqa: F401  perfbench"
WRAP_TARGETS = {
    "_sparse_reference.spsolve",
    "functionals.is_admissible",
    "iteration.cke_residual",
}
UNREAD_DEFINITIONS = {"_sparse_reference.log_ma_linearization"}


def _exported(tree):
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [target.id for target in node.targets] == ["__all__"]
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    """(module.name, marked) of each module-level import the module never
    reads and does not export."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
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


def _definitions(tree):
    """Each name a module binds at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_definition_is_read_or_exported():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= _exported(tree)
        read |= {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    unread = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in read and not name.startswith("__")
    }
    assert unread == UNREAD_DEFINITIONS


def _fresh_interpreter(script, *args):
    """Run ``script`` in a new interpreter that imports this package, and
    return the JSON its last line of standard output holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


NO_SCIPY = """
import json, sys
from coupled_ricci import cli, config
from coupled_ricci.scenarios import get_preset
config.build_run_config(get_preset("neg-k2-2d")).geometry()
code = cli.main(["run", "neg-k2-2d", "--out", sys.argv[1]])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_a_run_imports_no_scipy(tmp_path):
    assert _fresh_interpreter(NO_SCIPY, tmp_path) == [0, []]


RUN_IMPORTS = """
import json, sys
from coupled_ricci import cli
added = {}
for name, out in zip(sys.argv[1::2], sys.argv[2::2]):
    before = set(sys.modules)
    code = cli.main(["run", name, "--out", out])
    added[name] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(added))
"""


def test_a_run_imports_nothing_after_the_cli(tmp_path):
    # numpy.fft and argparse's locale are imported with coupled_ricci.cli,
    # not inside cli.main.
    presets = ["neg-k2-2d", "pos-k2-mild"]
    args = [x for name in presets for x in (name, tmp_path / name)]
    assert _fresh_interpreter(RUN_IMPORTS, *args) == {
        name: [0, []] for name in presets
    }
