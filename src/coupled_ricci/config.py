"""Run configuration: JSON schema, density expressions, validation.

Validation is collect-all: every problem in a config is reported in a
single ValidationError instead of failing at the first one.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError, ValidationError
from .grid import PeriodicGrid, read_field
from .iteration import IterationConfig
from .monge_ampere import BackgroundGeometry, class_matrix_problem

SCHEMA_VERSION = 1

# The keys of the outer-iteration settings are the IterationConfig fields.
_SETTINGS = tuple(setting.name for setting in fields(IterationConfig))
_KNOWN_KEYS = {
    "cri_config", "name", "lambda", "n", "N", "k", "A", "f", "init", "out",
    *_SETTINGS,
}

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

_BIN_OPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


def eval_field_expr(expr: str, grid: PeriodicGrid) -> np.ndarray:
    """Evaluate a density expression on the grid.

    The language is deliberately tiny: numbers, pi, the coordinates
    x_1..x_n, the four arithmetic operators, unary sign, and the
    functions sin, cos, exp.  Anything else raises ParseError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"expression {expr!r}: {exc.msg}") from exc

    names = {"pi": np.pi}
    for axis, coord in enumerate(grid.coords()):
        names[f"x_{axis + 1}"] = coord

    def visit(node):
        if isinstance(node, ast.Expression):
            return visit(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return float(node.value)
            raise ParseError(f"expression {expr!r}: bad literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ParseError(f"expression {expr!r}: unknown name {node.id!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](visit(node.left), visit(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            value = visit(node.operand)
            return value if isinstance(node.op, ast.UAdd) else -value
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS
                and len(node.args) == 1
                and not node.keywords
            ):
                return _FUNCTIONS[node.func.id](visit(node.args[0]))
            raise ParseError(
                f"expression {expr!r}: only sin/cos/exp of one argument"
            )
        raise ParseError(
            f"expression {expr!r}: unsupported syntax "
            f"{ast.dump(node, annotate_fields=False)[:60]}"
        )

    value = visit(tree)
    return np.broadcast_to(np.asarray(value, dtype=float), grid.shape).copy()


@dataclass
class RunConfig:
    """A fully validated run description."""

    name: str
    lam: int
    n: int
    N: int
    k: int
    A: np.ndarray
    f: np.ndarray
    f_spec: str
    init: np.ndarray | None
    iteration: IterationConfig = field(default_factory=IterationConfig)
    out: str | None = None

    @property
    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(n=self.n, N=self.N)

    def geometry(self) -> BackgroundGeometry:
        return BackgroundGeometry(grid=self.grid, lam=self.lam, A=self.A, f=self.f)


def load_config_file(path) -> dict:
    """Read a JSON config file; malformed JSON raises ParseError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return data


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; JSON true/false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _has_bool(entry) -> bool:
    """Whether a JSON true/false sits at any depth of ``entry``."""
    if isinstance(entry, (list, tuple)):
        return any(_has_bool(item) for item in entry)
    return isinstance(entry, (bool, np.bool_))


def _number_array(entry) -> np.ndarray:
    """``entry`` as a float array; ValueError unless it nests only numbers.

    numpy would read a boolean mixed with numbers as 0.0 or 1.0.
    """
    try:
        arr = np.asarray(entry)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or _has_bool(entry):
        raise ValueError("must be a rectangular array of numbers")
    return arr.astype(float)


def _coerce_class_matrix(entry, n):
    """Accept a scalar (n=1), a nested row-major list, or reject."""
    arr = _number_array(entry)
    if n == 1 and arr.shape == ():
        return arr.reshape(1, 1)
    if arr.shape == (n, n):
        return arr
    raise ValueError(f"expected a {n}x{n} row-major matrix, got shape {arr.shape}")


def _load_field_entry(entry, grid, label, problems):
    """Resolve one field given as expr dict, file dict, or flat array."""
    if isinstance(entry, dict):
        if set(entry) not in ({"expr"}, {"file"}):
            problems.append(
                f"{label}: dict form must be {{'expr': ...}} or {{'file': ...}}"
            )
            return None
        [(form, value)] = entry.items()
        if not isinstance(value, str):
            # open() would take an integer as a file descriptor
            problems.append(f"{label}: {form} must be a string, got {value!r}")
            return None
        try:
            if form == "expr":
                return eval_field_expr(value, grid)
            fgrid, values = read_field(value)
        except (OSError, ParseError) as exc:
            problems.append(f"{label}: {exc}")
            return None
        if (fgrid.n, fgrid.N) != (grid.n, grid.N):
            problems.append(
                f"{label}: field file grid n={fgrid.n} N={fgrid.N} does "
                f"not match config n={grid.n} N={grid.N}"
            )
            return None
        return values
    if isinstance(entry, list):
        try:
            arr = _number_array(entry)
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
            return None
        if arr.ndim != 1 or arr.size != grid.num_points:
            problems.append(
                f"{label}: flat array must have {grid.num_points} values, "
                f"got {arr.size}"
            )
            return None
        return arr.reshape(grid.shape)
    problems.append(f"{label}: unsupported field specification {type(entry).__name__}")
    return None


def build_run_config(data: dict, name: str = "config") -> RunConfig:
    """Validate a config dict and build a RunConfig.

    All violations are collected and raised together as a
    ValidationError.
    """
    problems = []
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    version = data.get("cri_config")
    if not _is_int(version) or version != SCHEMA_VERSION:
        problems.append(f"cri_config must be {SCHEMA_VERSION}, got {version!r}")

    lam = data.get("lambda")
    if not _is_int(lam) or lam not in (-1, 1):
        problems.append(f"lambda must be -1 or 1, got {lam!r}")
        lam = -1

    n = data.get("n")
    N = data.get("N")
    k = data.get("k")
    if not _is_int(n) or n not in (1, 2):
        problems.append(f"n must be 1 or 2, got {n!r}")
        n = None
    if not _is_int(N) or N < 4 or N % 2:
        problems.append(f"N must be an even integer >= 4, got {N!r}")
        N = None
    if not _is_int(k) or k < 1:
        problems.append(f"k must be an integer >= 1, got {k!r}")
        k = None

    grid = PeriodicGrid(n=n, N=N) if (n is not None and N is not None) else None

    a_mats = None
    if n is not None and k is not None:
        entries = data.get("A")
        if not isinstance(entries, list) or len(entries) != k:
            problems.append(f"A must be a list of {k} class matrices")
        else:
            a_mats = np.zeros((k, n, n))
            for i, entry in enumerate(entries):
                try:
                    mat = _coerce_class_matrix(entry, n)
                except ValueError as exc:
                    problems.append(f"A_{i + 1}: {exc}")
                    continue
                problem = class_matrix_problem(mat)
                if problem:
                    problems.append(f"A_{i + 1} {problem}")
                else:
                    a_mats[i] = mat

    f_values = None
    f_spec = ""
    if grid is not None:
        f_entry = data.get("f")
        if f_entry is None:
            problems.append("f is required")
        elif isinstance(f_entry, str):
            f_spec = f_entry
            try:
                f_values = eval_field_expr(f_entry, grid)
            except ParseError as exc:
                problems.append(str(exc))
        else:
            f_spec = "<data>"
            f_values = _load_field_entry(f_entry, grid, "f", problems)
        if f_values is not None:
            if not np.all(np.isfinite(f_values)):
                problems.append("f evaluates to non-finite values")
            elif f_values.min() <= 0.0:
                worst = np.unravel_index(np.argmin(f_values), grid.shape)
                problems.append(
                    f"f must be strictly positive; min {f_values.min():.6g} "
                    f"at grid index {tuple(int(w) for w in worst)}"
                )
    elif "f" not in data:
        problems.append("f is required")

    init_values = None
    init_entry = data.get("init", "zero")
    if init_entry != "zero" and grid is not None and k is not None:
        if not isinstance(init_entry, list) or len(init_entry) != k:
            problems.append(f"init must be \"zero\" or a list of {k} fields")
        else:
            init_values = np.zeros((k,) + grid.shape)
            for i, entry in enumerate(init_entry):
                loaded = _load_field_entry(entry, grid, f"init_{i + 1}", problems)
                if loaded is not None:
                    if not np.all(np.isfinite(loaded)):
                        problems.append(f"init_{i + 1} has non-finite values")
                    else:
                        init_values[i] = loaded

    try:
        iteration = IterationConfig(
            **{key: data[key] for key in _SETTINGS if key in data}
        )
    except ValidationError as exc:
        problems.extend(exc.violations)

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        problems.append(f"out must be a string path, got {out!r}")
        out = None

    if problems:
        raise ValidationError(problems)

    return RunConfig(
        name=str(data.get("name", name)),
        lam=lam,
        n=n,
        N=N,
        k=k,
        A=a_mats,
        f=f_values,
        f_spec=f_spec,
        init=init_values,
        iteration=iteration,
        out=out,
    )
