"""Span tracing of the solver layers, installed from outside the program.

Modules import their collaborators by name (``from .grid import hessian``),
so each caller's binding is wrapped separately: ``monge_ampere.hessian``
and ``functionals.hessian`` both record ``grid.hessian`` spans.  Spans are
kept in memory as ``[name, start, end, parent index, attrs]`` lists and
written out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _sweeps(_args, result):
    return {"sweeps": int(result.step)}


def _slice(_args, result):
    report = result[1]
    damping = list(report.damping_factors)
    return {
        "newton": int(report.newton_iterations),
        "steps": len(damping),
        "full_steps": sum(1 for a in damping if a == 1.0),
    }


def _path(_args, result):
    return {"rungs": len(result[1].continuity_trace)}


def _nnz(_args, result):
    return {"nnz": int(result.nnz)}


def _unknowns(args, _result):
    return {"unknowns": int(args[0].shape[0])}


# (module, attribute, span name, attrs taken from the call).  Every
# binding a caller looks up at call time is listed; a target that no longer
# exists is reported as missing instead of failing the run.
TARGETS = [
    ("cli", "run", "iteration.run", _sweeps),
    ("cli", "build_run_config", "config.build", None),
    ("config", "build_run_config", "config.build", None),
    ("iteration", "solve_tke", "monge_ampere.slice", _slice),
    ("iteration", "cke_residual", "functionals.residual", None),
    ("functionals", "EnergyLedger.record_state", "functionals.ledger", None),
    ("monge_ampere", "continuity_solve", "monge_ampere.path", _path),
    ("monge_ampere", "log_ma_linearization", "monge_ampere.jacobian", _nnz),
    ("monge_ampere", "hessian", "grid.hessian", None),
    ("functionals", "hessian", "grid.hessian", None),
    ("monge_ampere", "ma_density", "monge_ampere.density", None),
    ("functionals", "ma_density", "monge_ampere.density", None),
    ("monge_ampere", "is_admissible", "monge_ampere.admissible", None),
    ("functionals", "is_admissible", "monge_ampere.admissible", None),
]

LINSOLVE = "monge_ampere.linsolve"
LINSOLVE_PACKAGE = "scipy.sparse.linalg"


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: list = []
        self.installed: set = set()
        self.missing: list = []
        self._stack: list = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, owner, attr, name, attrs=None) -> bool:
        """Replace ``owner.attr`` by a traced version; False if it is gone."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        setattr(owner, attr, traced)
        self.installed.add(name)
        return True

    def install(self) -> None:
        """Wrap every target in ``TARGETS`` and each sparse solver binding."""
        for module_name, path, name, attrs in TARGETS:
            try:
                owner = importlib.import_module(f"coupled_ricci.{module_name}")
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not self.wrap(owner, attr, name, attrs):
                self.missing.append(f"{module_name}.{path}")
        try:
            ma = importlib.import_module("coupled_ricci.monge_ampere")
        except ImportError:
            return
        for attr, value in list(vars(ma).items()):
            module = getattr(value, "__module__", None) or ""
            if callable(value) and module.startswith(LINSOLVE_PACKAGE):
                self.wrap(ma, attr, LINSOLVE, _unknowns)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "installed": sorted(self.installed),
                 "missing": self.missing},
                fh,
            )
