"""Store the reference potentials the correctness gate compares against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every workload at seed 0 and writes ``reference/<workload>.npz``
holding ``psi`` with shape (k, *grid).  The stored files were made at
commit 5d3fc47, before any solver change; regenerate them only from a
commit whose outputs are trusted, or the gate checks nothing.
"""

import json
import os
import shutil
import sys

import numpy as np

from run import HERE, SRC, WORK

sys.path.insert(0, SRC)

from coupled_ricci import cli  # noqa: E402
from coupled_ricci.grid import read_field  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def main() -> int:
    for name in sorted(WORKLOADS):
        data, _offsets = make_config(name, 0)
        out = os.path.join(WORK, f"reference-{name}")
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, f"{name}.json")
        with open(config, "w") as fh:
            json.dump(data, fh)
        if cli.main(["run", config, "--out", out]) != 0:
            print(f"{name}: run failed; no reference written", file=sys.stderr)
            return 1
        psi = np.stack([
            read_field(os.path.join(out, f"psi_{i + 1}.field"))[1]
            for i in range(data["k"])
        ])
        np.savez_compressed(os.path.join(HERE, "reference", f"{name}.npz"), psi=psi)
        shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
