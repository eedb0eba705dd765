"""One measured repetition of ``cri run`` in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the config file, the output directory, whether to trace and
where to write the spans.  The last line of standard output is a JSON
record with ``setup_s`` (import, ``build_run_config``, ``geometry()``),
``run_s`` (``cli.main`` for one ``run``), ``run_cpu_s`` (its process CPU
time, kept with the samples to tell slow execution from time not scheduled),
``exit_code``, ``peak_rss_mb`` and ``output_bytes``.  With
``"setup_only": true`` the run is skipped.
"""

import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()

    t0 = time.perf_counter()
    from coupled_ricci import cli, config

    def set_up():
        with open(job["config"]) as fh:
            data = json.load(fh)
        config.build_run_config(data, name=data["name"]).geometry()

    if tracer is None:
        set_up()
    else:
        tracer.install()
        tracer.call("setup", set_up)
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s}

    if not job.get("setup_only"):
        argv = ["run", job["config"], "--out", job["out"]]
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is None:
            exit_code = cli.main(argv)
        else:
            exit_code = tracer.call("cli.main", cli.main, argv)
        record["run_s"] = time.perf_counter() - t1
        record["run_cpu_s"] = time.process_time() - c1
        record["exit_code"] = exit_code
        record["output_bytes"] = sum(
            entry.stat().st_size for entry in os.scandir(job["out"])
            if entry.is_file()
        )
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        tracer.dump(job["spans"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
