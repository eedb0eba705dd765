"""Per-layer metrics of one traced repetition, computed from its spans.

Kernel times (``linsolve_s``, ``jacobian_s``, ``hessian_s``, ``density_s``,
``admissible_s``, ``cli.self_s``) are self times: the span's duration minus
the part its child spans cover, so a Jacobian that evaluates the density
does not count that density twice.  Phase times (``slice_s``, ``path_s``,
``ledger_s``, ``residual_s``, ``iteration.run_s``, ``config.build_s``) are
inclusive: what the caller waits for.  A metric whose spans had no wrap
target left in the program is ``None`` (missing).
"""

from __future__ import annotations

import statistics

from tracer import LINSOLVE


def _times(spans):
    """Duration and self time of every span."""
    dur = [end - start for _name, start, end, _parent, _attrs in spans]
    self_time = list(dur)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            self_time[span[3]] -= dur[idx]
    return dur, self_time


def layer_metrics(dump: dict) -> dict:
    """Map each per-layer metric name to its value for one traced run."""
    spans = dump["spans"]
    installed = set(dump["installed"]) | {"cli.main", "setup"}
    dur, self_time = _times(spans)
    by_name: dict = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(idx)

    def pick(name, value):
        return value if name in installed else None

    def calls(name):
        return pick(name, len(by_name.get(name, ())))

    def self_s(name):
        return pick(name, sum(self_time[i] for i in by_name.get(name, ())))

    def inclusive_s(name, parent_name=None):
        return pick(name, sum(
            dur[i] for i in by_name.get(name, ())
            if parent_name is None
            or (spans[i][3] is not None and spans[spans[i][3]][0] == parent_name)
        ))

    def attr_values(name, key):
        return [spans[i][4][key] for i in by_name.get(name, ()) if spans[i][4]]

    def attr_sum(name, key):
        return pick(name, sum(attr_values(name, key)))

    def attr_median(name, key):
        values = attr_values(name, key)
        return pick(name, statistics.median_low(values) if values else 0)

    main_s = inclusive_s("cli.main")
    linsolve_s = self_s(LINSOLVE)
    steps = attr_sum("monge_ampere.slice", "steps")
    full = attr_sum("monge_ampere.slice", "full_steps")
    return {
        "monge_ampere.linsolve_calls": calls(LINSOLVE),
        "monge_ampere.linsolve_s": linsolve_s,
        "monge_ampere.linsolve_share": (
            None if linsolve_s is None or not main_s else linsolve_s / main_s
        ),
        "monge_ampere.linsolve_unknowns": attr_median(LINSOLVE, "unknowns"),
        "monge_ampere.jacobian_calls": calls("monge_ampere.jacobian"),
        "monge_ampere.jacobian_s": self_s("monge_ampere.jacobian"),
        "monge_ampere.jacobian_nnz": attr_median("monge_ampere.jacobian", "nnz"),
        "grid.hessian_calls": calls("grid.hessian"),
        "grid.hessian_s": self_s("grid.hessian"),
        "monge_ampere.density_s": self_s("monge_ampere.density"),
        "monge_ampere.admissible_s": self_s("monge_ampere.admissible"),
        "monge_ampere.slice_solves": calls("monge_ampere.slice"),
        "monge_ampere.slice_s": inclusive_s("monge_ampere.slice"),
        "monge_ampere.newton_iters": attr_sum("monge_ampere.slice", "newton"),
        "monge_ampere.full_step_frac": (
            None if steps is None or not steps else full / steps
        ),
        "iteration.sweeps": attr_sum("iteration.run", "sweeps"),
        "iteration.run_s": inclusive_s("iteration.run"),
        "functionals.ledger_rows": calls("functionals.ledger"),
        "functionals.ledger_s": inclusive_s("functionals.ledger"),
        "functionals.residual_s": inclusive_s("functionals.residual"),
        "monge_ampere.path_calls": calls("monge_ampere.path"),
        "monge_ampere.path_rungs": attr_sum("monge_ampere.path", "rungs"),
        "monge_ampere.path_s": inclusive_s("monge_ampere.path"),
        "cli.self_s": self_s("cli.main"),
        "config.build_s": inclusive_s("config.build", parent_name="setup"),
        "traced_run_s": main_s,
    }
