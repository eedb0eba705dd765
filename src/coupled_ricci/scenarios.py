"""Built-in scenario presets runnable by name from the CLI."""

from __future__ import annotations

import copy

_BASE_SINE = {
    "cri_config": 1,
    "lambda": -1,
    "n": 1,
    "N": 64,
    "k": 2,
    "A": [1.0, 1.0],
    "f": "1 + 0.5*sin(2*pi*x_1)",
}

PRESETS = {
    "neg-k2-sine": dict(_BASE_SINE),
    "neg-k2-sine-n8": {**_BASE_SINE, "N": 8},
    "neg-k1-sine": {**_BASE_SINE, "N": 32, "k": 1, "A": [1.0]},
    "jacobi-k2-sine": {**_BASE_SINE, "mode": "jacobi"},
    "neg-k2-stiff": {**_BASE_SINE, "A": [1000.0, 1300.0]},
    "const-k2": {
        "cri_config": 1,
        "lambda": -1,
        "n": 1,
        "N": 16,
        "k": 2,
        "A": [1.0, 2.0],
        "f": "1",
    },
    "neg-k2-2d": {
        "cri_config": 1,
        "lambda": -1,
        "n": 2,
        "N": 16,
        "k": 2,
        "A": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]],
        "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
    },
    "pos-k2-mild": {
        "cri_config": 1,
        "lambda": 1,
        "n": 1,
        "N": 32,
        "k": 2,
        "A": [1.0, 1.0],
        "f": "1 + 0.05*sin(2*pi*x_1)",
    },
    "pos-k2-steep": {
        "cri_config": 1,
        "lambda": 1,
        "n": 1,
        "N": 32,
        "k": 2,
        "A": [50.0, 50.0],
        "f": "1 + 0.9*sin(2*pi*x_1)",
    },
}

DESCRIPTIONS = {
    "neg-k2-sine": "two classes, lambda=-1, N=64, sine-perturbed density",
    "neg-k2-sine-n8": "coarse N=8 variant used for reference cross-checks",
    "neg-k1-sine": "single class, lambda=-1, degenerates to one solve",
    "jacobi-k2-sine": "neg-k2-sine swept in Jacobi mode (no descent guarantee)",
    "neg-k2-stiff": "neg-k2-sine with A scaled by 1e3; the plain sweep needs "
                    "over 200 steps",
    "const-k2": "constant density, converged at step zero",
    "neg-k2-2d": "two classes on the 2-d torus with an anisotropic background",
    "pos-k2-mild": "lambda=+1 with a gentle density, continuity path cruises",
    "pos-k2-steep": "lambda=+1 with a steep density; the continuity path "
                    "stops at the Newton residual floor",
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    """A deep copy of the named preset config dict."""
    if name not in PRESETS:
        raise KeyError(f"no preset named {name!r}")
    data = copy.deepcopy(PRESETS[name])
    data.setdefault("name", name)
    return data
