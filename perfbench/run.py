"""Benchmark of the symcube command line, one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convolve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load shape: a closed loop with one client.  Each worker is a fresh
interpreter, as every command-line call is, that answers the workload's
query list through symcube.cli.run one query at a time.  Workers run one
after another, never side by side.  Every answer is checked against its
reference.

With --trace 0 the run makes one cold pass per worker for --seconds, and
the last line of standard output is a JSON object with the end-to-end
metrics, each the median over the workers.  Times are scaled to the
machine's reference speed: each query's wall time is multiplied by
calibrate.REFERENCE_S over the mean kernel time around it: the mean of
the kernel's times taken during the query and of the means of the blocks
taken just before and just after it.  A worker's set-up time is scaled
by REFERENCE_S over the mean of the first block, taken right after it.
The report lines also give the raw wall times.  With --trace 1 an untraced
worker makes a cold and a warm pass and a traced worker one cold pass,
and the metrics are the per-layer counts and self times of the traced
pass.  The lines before the JSON object are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER = HERE / "worker.py"
HARD_LIMIT = 170  # seconds; a hung worker is killed so the run still ends


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def spawn(job: Path, deadline: float):
    """Start a worker; return its set-up time and its result."""
    argv = [sys.executable, str(WORKER), str(job)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        fd = proc.stdout.fileno()
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in buf:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise RuntimeError("worker set-up did not finish in time")
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buf += chunk
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = (buf + rest).decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.decode()[-2000:]}")
    return setup, json.loads(lines[-1])


def known_defects(defects, deadline: float) -> list[str]:
    """Run each known defect once, untimed, and describe what it did."""
    out = []
    for d in defects:
        line = "symcube " + " ".join(d["argv"])
        if not d["run"]:
            out.append(f"known defect (not run): {line}: {d['seen']}")
            continue
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "symcube.cli", *d["argv"]],
                cwd=ROOT, env=_env(), capture_output=True, text=True,
                timeout=min(30.0, max(0.0, deadline - time.perf_counter())),
            )
        except subprocess.TimeoutExpired:
            out.append(f"known defect: {line}: still running after 30 s, stopped")
            continue
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        out.append(f"known defect: {line}: exit {proc.returncode} {tail}")
    return out


def tail_percentile(values) -> str:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    v = sorted(values)
    n = len(v)
    text = f"median {statistics.median(v):.4f} n={n}"
    if n >= 11:
        text += f" p{100 * (n - 10) / n:.0f} {v[n - 11]:.4f}"
    return text


def scaled(pass_) -> list[float]:
    """The pass's query times at the reference speed.

    The mean of kernel times is the mean slowness of the machine, which
    is what stretches a query's wall time; each block just before and
    after a query counts as one sample, so that a long query is scaled
    mostly by the samples taken while it ran.
    """
    queries = pass_["queries"]
    after = [q["before"] for q in queries[1:]] + [pass_["after"]]
    return [
        q["seconds"] * REFERENCE_S
        / statistics.fmean([statistics.fmean(q["before"]), *q["during"], statistics.fmean(a)])
        for q, a in zip(queries, after)
    ]


def check(queries, passes) -> list[str]:
    """What is wrong with each answer that does not match its reference."""
    failures = []
    for p, result in enumerate(passes):
        for q, r in zip(queries, result["queries"]):
            why = q.check(r["status"], r["stdout"], r["error"])
            if why is not None:
                failures.append(f"pass {p}: {' '.join(q.argv)}: {why}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, say) -> dict:
    import workloads
    from tracer import summarize

    start = time.perf_counter()
    deadline = start + HARD_LIMIT
    # one directory per workload, so a later run replaces the last one's files
    workdir = ROOT / ".perfbench_work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    queries, inputs = workloads.build(name, seed, workdir)
    job = workdir / "job.json"
    trace_to = workdir / "spans"
    rng = random.Random(seed)
    setups, raw_setups, workers = [], [], []
    attempted = failed = 0

    def worker(order, **job_args) -> dict:
        """One fresh worker answering the queries in the given order."""
        nonlocal attempted, failed
        job.write_text(json.dumps(dict(job_args, inputs=inputs,
                                       queries=[q.argv for q in order])))
        setup, result = spawn(job, deadline)
        raw_setups.append(setup)
        first = result["passes"][0]["queries"][0]["before"]
        setups.append(setup * REFERENCE_S / statistics.fmean(first))
        why = check(order, result["passes"])
        attempted += sum(len(p["queries"]) for p in result["passes"])
        failed += len(why)
        for line in why:
            say(f"MISMATCH {line}")
        return result

    for line in known_defects(workloads.KNOWN_DEFECTS, deadline):
        say(line)

    # Each worker answers in its own seeded order, so a metric that
    # depends on the order (peak memory left by earlier queries) varies
    # within a run rather than between seeds.  A trace run adds a warm
    # pass to its untraced worker and compares its cold pass with one
    # traced cold pass in the same order.  A measuring run gives the whole
    # measuring time to cold passes, one per fresh worker, because the
    # median over workers is the steadier the more workers it has.
    measuring = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        order = rng.sample(queries, len(queries))
        workers.append(worker(order, passes=2 if trace else 1))
        if trace:
            traced = worker(order, passes=1, trace_to=str(trace_to))
            break
        # stop before a worker that would end past the measuring time
        now = time.perf_counter()
        if now - measuring + (now - t0) > seconds:
            break

    cold_queries = [scaled(w["passes"][0]) for w in workers]
    cold = [sum(q) for q in cold_queries]
    raw = [sum(q["seconds"] for q in w["passes"][0]["queries"]) for w in workers]
    speed = [REFERENCE_S / statistics.fmean(q["before"]) for w in workers
             for p in w["passes"] for q in p["queries"]]
    frozen = sum(q.frozen for q in queries)
    say(f"{name} seed={seed}: {len(workers)} worker(s), {len(queries)} queries "
        f"({frozen} with frozen references), "
        f"{attempted} answers checked, {failed} wrong, "
        f"error_rate {failed / attempted:.4f}, {time.perf_counter() - start:.1f} s")
    if trace:
        metrics = summarize(trace_to)
        metrics["warm_s"] = sum(scaled(workers[0]["passes"][1]))
        metrics["trace.overhead_ratio"] = sum(scaled(traced["passes"][0])) / cold[0]
        for key in sorted(metrics):
            say(f"  {key:40} {metrics[key]:.6g}")
    else:
        samples = {
            "setup_s": setups,
            "cold_s": cold,
            "query_max_s": [max(q) for q in cold_queries],
            "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        # the peak over every order tried, not the order of one worker
        metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
        metrics["ok_rate"] = 1 - failed / attempted
        for key, v in samples.items():
            say(f"  {key:12} {tail_percentile(v)}")
        per_query = [t for q in cold_queries for t in q]
        say(f"  {'query_s':12} {tail_percentile(per_query)}")
        say(f"  {'raw cold_s':12} {tail_percentile(raw)}")
        say(f"  {'raw setup_s':12} {tail_percentile(raw_setups)}")
        say(f"  {'speed':12} {tail_percentile(speed)} (reference 1)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symcube" / "__init__.py").is_file():
        print("run from the root of a symcube checkout (src/symcube not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    meta = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    unit = {m["name"]: m["unit"] for m in meta[group]}

    def say(line):
        print(line, flush=True)

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), say)
               for n in names}
    out = {"correct": all(r["correct"] for r in results.values()),
           "attempted": sum(r["attempted"] for r in results.values()),
           "failed": sum(r["failed"] for r in results.values()),
           "metrics": {}}
    for n, r in results.items():
        prefix = "" if len(names) == 1 else f"{n}."
        for key in unit:
            out["metrics"][prefix + key] = {"value": r["metrics"][key], "unit": unit[key]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
