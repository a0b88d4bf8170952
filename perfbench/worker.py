"""One fresh interpreter that answers a query list through symcube.cli.run.

Usage: PYTHONPATH=src python3 perfbench/worker.py JOB.json

Set-up imports symcube and reads the job's input files into memory,
then prints "ready".  The worker then runs the query list once per pass,
one query at a time, and prints one JSON line with every query's exit
status, output and wall time, and its own peak resident set size.
Before every query and after the last one of a pass it times the
calibration kernel (calibrate.py) a few times, and while a query runs it
times it on a timer signal; the harness scales the query times by these
to the machine's reference speed.  A query's time leaves out the kernel
runs inside it.  A traced worker does not time the kernel during a
query, so that the spans hold only the library's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    from symcube import cli

    for path in job["inputs"]:
        Path(path).read_bytes()
    out = sys.stdout
    out.write("ready\n")
    out.flush()

    tracer = None
    if job.get("trace_to"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = cli.run
    sampler = calibrate.Sampler(active=tracer is None)

    passes = []
    for _ in range(job["passes"]):
        results = []
        for query in job["queries"]:
            before = calibrate.block()
            stdout, stderr = io.StringIO(), io.StringIO()
            with sampler:
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        status = run(query)
                    error = None
                except Exception:  # a crash is an answer to check, not a stop
                    status = None
                    error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            seconds = time.perf_counter() - t0 - sum(sampler.samples)
            results.append(
                {
                    "status": status,
                    "stdout": stdout.getvalue(),
                    "error": error,
                    "seconds": seconds,
                    "before": before,
                    "during": sampler.samples,
                }
            )
        passes.append({"queries": results, "after": calibrate.block()})
    if tracer is not None:
        tracer.save(Path(job["trace_to"]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(
        json.dumps({"passes": passes, "peak_rss_mb": peak_kb / 1024}) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
