"""Benchmark for meanspec: four seeded closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py): ``search`` (truncated-kernel extremal
searches: hundreds of small solver marches), ``envelopes`` (series
envelopes: convolution powers), ``sieve`` (the segmented sieve at 1e6 and
1e7), ``desk`` (the README's CLI examples and the small library calls of
the acceptance criteria).

With ``--trace 0`` the run reports the end-to-end metrics.  It starts a
fresh worker process for the workload, so memory and set-up time belong to
that workload, plus two more processes that only set up, and reports the
median set-up time of the three.  The worker runs the workload's fixed,
seeded job list, whole, and repeats it until ``--seconds`` have passed.

With ``--trace 1`` the worker runs the job list twice, first untraced and
then with every traced library function wrapped (tracing.py), and reports
the per-layer metrics; their counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``perfbench/results/BENCH_*.json``.

Seed 9001 is held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("search", "envelopes", "sieve", "desk")

#: Processes that only set up, on top of the measuring worker; set-up time
#: is the median over all of them.
SETUP_PROBES = 2

#: The whole run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Jobs that must lie beyond the reported tail latency.
TAIL_JOBS_BEYOND = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    """Environment for workers: the checkout's src first, thread pools pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    n = nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(n, int(current))) if current.isdigit() and int(current) > 0 else str(n)
    # The sieve's segment length must not depend on the caller's environment.
    env.pop("SPECTRUM_BUDGET_MB", None)
    return env


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ------------------------------------------------------------------ worker


def check_error(job, out):
    """None if the job's output passes its check, else a one-line reason."""
    try:
        job.check(out)
    except Exception as exc:  # a failed job is counted, and the run goes on
        return f"{job.kind}: check failed: {type(exc).__name__}: {exc}"
    return None


def run_job(job, check: bool = True, recorder=None, job_id: int = 0):
    """(latency_s, output, error) with the library call timed, the check not.

    With a recorder, spans are recorded under job_id during the call only.
    """
    if recorder is not None:
        recorder.job = job_id
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a failed job is counted, and the run goes on
        return time.perf_counter() - t0, None, f"{job.kind}: {type(exc).__name__}: {exc}"
    finally:
        if recorder is not None:
            recorder.job = None
    latency = time.perf_counter() - t0
    return latency, out, check_error(job, out) if check else None


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.ok_latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.search_values: list[float] = []
        self.log: list[dict] = []

    def add(self, job, latency, out, error):
        self.attempted += 1
        self.latencies.append(latency)
        entry = {"kind": job.kind, "s": latency, "ok": error is None}
        self.log.append(entry)
        if error is not None:
            self.failures.append(error)
            return
        self.ok_latencies.append(latency)
        if job.kind == "search":
            self.search_values.append(float(out.value))
            entry["evaluations"] = out.diagnostics["evaluations"]

    def jobs_per_s(self) -> float:
        spent = sum(self.latencies)
        return len(self.ok_latencies) / spent if spent > 0 else 0.0


def tail_percentile(list_jobs: int) -> float:
    """Highest percentile of one job list with TAIL_JOBS_BEYOND jobs beyond it.

    It depends on the list length only, so a run that repeats the list
    reports the same percentile.  A list of TAIL_JOBS_BEYOND jobs or fewer
    has no such rank, and its fastest job (percentile 0) is reported.
    """
    if list_jobs <= TAIL_JOBS_BEYOND + 1:
        return 0.0
    return 100.0 * (list_jobs - 1 - TAIL_JOBS_BEYOND) / (list_jobs - 1)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of the values."""
    xs = sorted(values)
    return xs[round(pct / 100.0 * (len(xs) - 1))]


def worker(args) -> dict:
    t0 = time.perf_counter()
    import numpy
    import scipy

    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        warm = [(job, *run_job(job, check=False)) for job in wl.warmup]
        setup_s = time.perf_counter() - t0
        record = {"setup_s": setup_s}
        if args.role == "setup":
            return record
        tally = Tally()
        for job, _latency, out, error in warm:
            error = error or check_error(job, out)
            tally.attempted += 1
            if error is not None:
                tally.failures.append("warm-up " + error)
        if args.role == "measure":
            record.update(measure(wl, tally, args.seconds))
        else:
            record.update(trace(wl, tally, args))
        record.update({
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "failures": tally.failures[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": {"nproc": nproc(), "python": sys.version.split()[0],
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "threads": {v: os.environ.get(v) for v in THREAD_VARS}},
        })
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, tally: Tally, seconds: float) -> dict:
    """Closed loop over the whole job list, repeated until `seconds` have passed."""
    jobs = wl.jobs
    start = time.perf_counter()
    repeats = 0
    while True:
        for job in jobs:
            tally.add(job, *run_job(job))
        repeats += 1
        if time.perf_counter() - start >= seconds:
            break
    pct = tail_percentile(len(jobs))
    ok = tally.ok_latencies or [float("nan")]
    return {
        "wall_s": time.perf_counter() - start,
        "repeats": repeats,
        "jobs": len(tally.latencies),
        "jobs_per_s": tally.jobs_per_s(),
        "job_s_p50": statistics.median(ok),
        "job_s_tail": percentile(ok, pct),
        "tail_percentile": pct,
        "search_min_value": (statistics.fmean(tally.search_values)
                             if tally.search_values else None),
        "job_log": tally.log,
    }


def trace(wl, tally: Tally, args) -> dict:
    """The fixed job list untraced, then traced; per-layer metrics from the spans."""
    import tracing

    fixed = wl.jobs
    untraced = Tally()
    for job in fixed:
        untraced.add(job, *run_job(job))
    traced = Tally()
    recorder = tracing.SpanRecorder()
    with recorder:
        bindings = {name: recorder.binding_count(name)
                    for name in ("solve_sigma", "sieve_sums", "truncated_kernel_min_mean")}
        for i, job in enumerate(fixed):
            traced.add(job, *run_job(job, recorder=recorder, job_id=i))
    for t in (untraced, traced):
        tally.attempted += t.attempted
        tally.failures.extend(t.failures)
    layers = tracing.layer_metrics(recorder.spans)
    layers["trace.jobs_per_s"] = (traced.jobs_per_s(), "1/s")
    layers["trace.overhead_jobs_per_s"] = (traced.jobs_per_s() - untraced.jobs_per_s(), "1/s")
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for s in recorder.spans:
            fh.write(json.dumps({"name": s.name, "layer": s.layer, "start": s.start,
                                 "end": s.end, "parent": s.parent, "job": s.job,
                                 "counts": s.counts}) + "\n")
    return {"jobs": len(fixed), "untraced_jobs_per_s": untraced.jobs_per_s(),
            "layers": layers, "bindings": bindings}


# ------------------------------------------------------------------ parent


def run_worker(args, role: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args) -> int:
    if not (SRC / "meanspec" / "__init__.py").is_file():
        print(f"error: no meanspec sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = worker_env()
    if args.trace:
        rec = run_worker(args, "trace", env, deadline)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in rec["layers"].items()}
        extra = {"bindings": rec["bindings"], "jobs": rec["jobs"],
                 "untraced_jobs_per_s": rec["untraced_jobs_per_s"]}
    else:
        setups = [run_worker(args, "setup", env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        rec = run_worker(args, "measure", env, deadline)
        setups.append(rec["setup_s"])
        metrics = {
            "jobs_per_s": {"value": rec["jobs_per_s"], "unit": "1/s"},
            "job_s_p50": {"value": rec["job_s_p50"], "unit": "s"},
            "job_s_tail": {"value": rec["job_s_tail"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
        extra = {"jobs": rec["jobs"], "repeats": rec["repeats"], "wall_s": rec["wall_s"],
                 "tail_percentile": rec["tail_percentile"], "setup_samples": setups,
                 "search_min_value": rec["search_min_value"], "job_log": rec["job_log"]}
    attempted, failed = rec["attempted"], rec["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, failed_frac=failed / attempted if attempted else 0.0,
                failures=rec["failures"], env=dict(rec["env"], src_lines=src_line_count()),
                **extra)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {extra['jobs']} jobs, "
          f"failed {failed}/{attempted}, nproc {full['env']['nproc']}, "
          f"src lines {full['env']['src_lines']}")
    if not args.trace:
        print(f"job_s_tail is the p{extra['tail_percentile']:.1f} latency "
              f"of {extra['jobs']} jobs")
    for failure in rec["failures"][:5]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role is None:
        return parent(args)
    print(json.dumps(worker(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
