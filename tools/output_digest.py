"""Digest the outputs of every preset and the seed-0 benchmark workloads.

Usage: OPENBLAS_NUM_THREADS=1 python3 tools/output_digest.py.  One line per
config: exit code, sweeps / Newton steps (one per GMRES solve, failed ones
included) / Arnoldi steps, a SHA-256 of the output files without their
``wall_ms``, and the stop reason.  A last line gives the total line count
of ``src/coupled_ricci/*.py``.
"""

import contextlib
import glob
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from coupled_ricci import cli, monge_ampere  # noqa: E402
from coupled_ricci.scenarios import preset_names  # noqa: E402

krylov = []  # Arnoldi steps of each Newton linear solve


def _counted(*args, solve=monge_ampere._krylov_solve):
    krylov.append((result := solve(*args))[2])
    return result


def run(name, ref, tmp):
    out = os.path.join(tmp, name)
    krylov.clear()
    with contextlib.redirect_stdout(None):  # print() skips a None stdout
        code = cli.main(["run", ref, "--out", out])
    sha = hashlib.sha256()
    for entry in sorted(os.listdir(out)):
        with open(os.path.join(out, entry), "rb") as fh:
            data = fh.read()
        if entry == "summary.json":
            summary = {**json.loads(data), "wall_ms": None}
            data = json.dumps(summary).encode()
        if entry == "ledger.csv":  # wall_ms is the last column
            data = b"\n".join(r.rsplit(b",", 1)[0] for r in data.split(b"\n"))
        sha.update(entry.encode() + b"\0" + data + b"\0")
    counts = f"{summary['steps']}/{len(krylov)}/{sum(krylov)}"
    print(f"{name:15} exit {code} {counts:10} {sha.hexdigest()[:16]} "
          f"{summary['reason']}", flush=True)


if __name__ == "__main__":
    monge_ampere._krylov_solve = _counted
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            run(name, name, tmp)
        for name in workloads.WORKLOADS:
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(workloads.make_config(name, 0)[0], fh)
            run(name, path, tmp)
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "coupled_ricci", "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    print(f"src/coupled_ricci/*.py {lines} lines")
