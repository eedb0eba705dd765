"""The benchmark workloads and their seeded configs.

Each workload loads a different solver layer:

- ``gs2d-n128``: the sparse linear solve (about nine tenths of the run).
- ``stiff1d-n64``: the outer sweep count and per-call overhead
  (Jacobian assembly, Hessian, density, ledger).
- ``pos2d-n48``: the bordered, mean-constrained solve and the lambda=+1
  continuity path.

A seed translates the whole problem (``f`` and ``init``) by a whole number
of grid cells along each axis.  The stencils are translation invariant on
the periodic grid, so the discrete solution is the stored reference rolled
by the same number of cells, and sweep and Newton counts do not change.
Seed 0 gives the configs below unchanged.
"""

from __future__ import annotations

import random
import re

_A_2D = [[2.0, 0.5], [0.5, 1.0]]
_I_2D = [[1.0, 0.0], [0.0, 1.0]]

WORKLOADS = {
    "gs2d-n128": {
        "cri_config": 1,
        "lambda": -1,
        "n": 2,
        "N": 128,
        "k": 2,
        "A": [_I_2D, _A_2D],
        "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
    },
    "stiff1d-n64": {
        "cri_config": 1,
        "lambda": -1,
        "n": 1,
        "N": 64,
        "k": 2,
        "A": [1000.0, 1300.0],
        "f": "1 + 0.5*sin(2*pi*x_1)",
        # 212 sweeps are needed; the default budget of 200 would end the
        # run with exit code 2 and hide the sweep cost as a failure.
        "max_outer": 400,
    },
    "pos2d-n48": {
        "cri_config": 1,
        "lambda": 1,
        "n": 2,
        "N": 48,
        "k": 2,
        "A": [
            [[15.0 * v for v in row] for row in _I_2D],
            [[15.0 * v for v in row] for row in _A_2D],
        ],
        "f": "1 + 0.5*sin(2*pi*x_1)*cos(2*pi*x_2)",
        # Class 1 starts outside the cone, so step 1 walks the continuity path.
        "init": [{"expr": "cos(2*pi*x_1)"}, {"expr": "0"}],
    },
}

WHY = {
    "gs2d-n128": "2-d lambda=-1 at N=128: the sparse linear solve is about "
                 "90% of the run; few sweeps, little ledger work",
    "stiff1d-n64": "1-d lambda=-1 with A scaled by 1e3: 212 sweeps, so sweep "
                   "count, Jacobian/Hessian/density calls and the ledger "
                   "dominate; the linear solve is small",
    "pos2d-n48": "2-d lambda=+1 from a start outside the cone: bordered "
                 "mean-constrained solves and the continuity path",
}

_COORD = re.compile(r"\bx_([12])\b")


def shifts(name: str, seed: int) -> tuple:
    """Grid-cell offsets per axis for ``seed``; all zero for seed 0."""
    base = WORKLOADS[name]
    if seed == 0:
        return (0,) * base["n"]
    rng = random.Random(f"{name}:{seed}")
    return tuple(rng.randrange(base["N"]) for _ in range(base["n"]))


def _shift_expr(expr: str, offsets, N: int) -> str:
    def repl(match):
        m = offsets[int(match.group(1)) - 1]
        return match.group(0) if m == 0 else f"(x_{match.group(1)} + {m / N!r})"

    return _COORD.sub(repl, expr)


def make_config(name: str, seed: int) -> tuple:
    """Return (config dict, per-axis grid-cell offsets) for one workload."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    data = {"name": name, **WORKLOADS[name]}
    offsets = shifts(name, seed)
    N = data["N"]
    data["f"] = _shift_expr(data["f"], offsets, N)
    if "init" in data:
        data["init"] = [{"expr": _shift_expr(e["expr"], offsets, N)}
                        for e in data["init"]]
    return data, offsets
