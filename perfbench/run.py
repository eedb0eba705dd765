"""Benchmark of ``cri run`` on three workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload gs2d-n128 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 1

Every repetition is a fresh interpreter (``child.py``), because every
``cri run`` user pays for imports and lazy caches.  Repetitions run one at a
time with BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the run
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics.  Each repetition's outputs pass ``gate.check_run``; failed runs
are counted, never dropped.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

MIN_REPS = 3
MIN_SETUPS = 5
# A whole run, set-up and top-ups included, must end within 180 s.
TIME_LIMIT_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **PINNED,
    }


class Runner:
    """Runs the repetitions of one workload and gates their outputs."""

    def __init__(self, name, seed, deadline):
        self.name = name
        self.data, self.offsets = make_config(name, seed)
        self.deadline = deadline
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, f"{name}.json")
        with open(self.config, "w") as fh:
            json.dump(self.data, fh, indent=1)
        import gate  # needs src/ on sys.path, which main() checks and adds

        self.gate = gate
        self.reference = gate.load_reference(
            os.path.join(HERE, "reference", f"{name}.npz")
        )
        self.env = child_env()
        self.count = 0

    def child(self, trace=False, setup_only=False):
        """One repetition; returns (record or None, problems)."""
        self.count += 1
        out = os.path.join(self.dir, f"out-{self.count}")
        job = {"config": self.config, "out": out, "trace": trace,
               "setup_only": setup_only,
               "spans": os.path.join(self.dir, "spans.json")}
        job_path = os.path.join(self.dir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, [f"repetition timed out after {timeout:.0f} s"]
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, [f"child exited {proc.returncode}: {tail[0]}"]
        record = json.loads(lines[-1])
        if setup_only:
            return record, []
        problems = self.gate.check_run(out, self.data, self.offsets,
                                       record["exit_code"], self.reference)
        if trace:
            with open(job["spans"]) as fh:
                dump = json.load(fh)
            record["layers"] = layer_metrics(dump)
            record["missing"] = dump["missing"]
            shutil.copyfile(job["spans"], os.path.join(WORK, f"{self.name}-spans.json"))
        shutil.rmtree(out, ignore_errors=True)
        return record, problems


def measure(name, seed, seconds, trace, deadline):
    """Run one workload; returns (summary dict, per-repetition records)."""
    runner = Runner(name, seed, deadline)
    warm, problems = runner.child(setup_only=True)
    if warm is None:
        raise RuntimeError(f"{name}: the program cannot be set up: {problems}")

    plain, traced, failures = [], [], []
    stop = time.monotonic() + seconds
    while True:
        want_trace = trace and len(traced) < len(plain)
        record, problems = runner.child(trace=want_trace)
        if problems:
            failures.append(problems)
            print(f"# {name}: repetition failed: {'; '.join(problems)}")
        if record is not None and not problems:
            (traced if want_trace else plain).append(record)
        enough = len(plain) >= (1 if trace else MIN_REPS) and (traced or not trace)
        now = time.monotonic()
        if now >= deadline or (now >= stop and (enough or len(failures) >= MIN_REPS)):
            break

    setups = [r["setup_s"] for r in plain]
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        record, _ = runner.child(setup_only=True)
        if record is None:
            break
        setups.append(record["setup_s"])

    metrics = {}
    if plain:
        metrics["run_s"] = (statistics.median(r["run_s"] for r in plain), len(plain))
        metrics["setup_s"] = (statistics.median(setups), len(setups))
        metrics["peak_rss_mb"] = (
            statistics.median(r["peak_rss_mb"] for r in plain), len(plain)
        )
    if trace and plain and traced:
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            value = None if None in values else statistics.median(values)
            if all(isinstance(v, int) for v in values) and value == int(value):
                value = int(value)
            metrics[key] = (value, len(traced))
        metrics["cli.output_bytes"] = (traced[-1]["output_bytes"], len(traced))
        traced_run = metrics.pop("traced_run_s")[0]
        metrics["trace.overhead_s"] = (
            traced_run - statistics.median(r["run_s"] for r in plain),
            len(traced) + len(plain),
        )
    attempted = len(plain) + len(traced) + len(failures)
    metrics["fail_frac"] = (len(failures) / attempted, attempted)
    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "offsets": list(runner.offsets),
        "metrics": metrics,
        "missing": sorted({m for r in traced for m in r["missing"]}),
    }
    shutil.rmtree(runner.dir, ignore_errors=True)
    return summary, plain + traced


def load_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def report(name, summary, catalog) -> dict:
    """Print every catalogued metric with its unit and sample count."""
    out = {}
    for entry in catalog:
        value, samples = summary["metrics"].get(entry["name"], (None, 0))
        shown = ("missing" if value is None
                 else str(value) if isinstance(value, int) else f"{value:.6g}")
        print(f"{name:<12} {entry['name']:<32} {shown:>14} {entry['unit']:<8} "
              f"n={samples}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coupled_ricci", "__init__.py")):
        print(f"error: no coupled_ricci package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    end_to_end, per_layer = load_catalog()
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))
    os.makedirs(WORK, exist_ok=True)

    results, printed, attempted, failed = {}, {}, 0, 0
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            summary, reps = measure(name, args.seed, args.seconds,
                                    bool(args.trace), deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"# {name} seed={args.seed} offsets={summary['offsets']} "
              f"attempted={summary['attempted']} failed={summary['failed']}")
        printed[name] = report(name, summary, end_to_end)
        if args.trace:
            printed[name] = report(name, summary, per_layer)
        if summary["missing"]:
            print(f"# {name}: wrap targets missing: {', '.join(summary['missing'])}")
        attempted += summary["attempted"]
        failed += summary["failed"]
        results[name] = {"summary": summary, "repetitions": reps}
    results_name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, results_name), "w") as fh:
        json.dump({"environment": env, "seed": args.seed, "seconds": args.seconds,
                   "workloads": results}, fh, indent=1)

    metrics = printed[names[0]] if len(names) == 1 else printed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
