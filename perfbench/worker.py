"""Run one workload's jobs in this process and record their wall times.

Started by ``run.py`` with inputs that already exist, so that the peak
resident memory of this process belongs to the jobs alone. Each job is a
complete CLI invocation through ``abusekit.cli.main(argv)`` writing into
its own directory; ``run.py`` checks the artifacts afterwards. One
untimed warm-up job runs first. With ``--trace 1`` untraced and traced
jobs alternate, so that both medians come from the same conditions.

The main thread moves to the next CPU after each job of a kind (BLAS
threads stay free). The CPUs of a small virtual machine can change speed
independently of one another for tens of seconds, and a process left to
the scheduler stays on one CPU for long stretches, so without this a
run's median would follow whichever CPU it happened to land on. On a
2-CPU virtual machine, pinning moved no workload's median job time by
more than 3%.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_JOBS = 3  # measured jobs of each kind, whatever --seconds says, within --stop-after


def blas_record() -> dict:
    """BLAS library name, version and thread count as loaded here."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["threads"] = fn()
                return record
    return record


def run(meta: dict, seconds: float, traced: bool, stop_after: float, work: Path) -> dict:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import abusekit
    import abusekit.cli as cli
    import numpy
    import scipy

    source = Path(abusekit.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"abusekit imported from {source}, not from {ROOT / 'src'}")

    import workloads
    from tracing import Tracer, write_spans

    warnings.simplefilter("ignore")  # LinAlgWarning on the twin designs
    inputs = workloads.Inputs(meta["workload"], meta["seed"],
                              {k: Path(v) for k, v in meta["files"].items()}, meta["rows"])
    tracer = Tracer() if traced else None
    jobs, spans = [], []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def job(index: int, with_trace: bool) -> None:
        out = work / f"job-{index:03d}"
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # every job starts from the same heap, not the last job's garbage
        cpu = None
        if len(cpus) > 1:
            cpu = cpus[sum(1 for j in jobs if j["traced"] == with_trace) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
        if with_trace:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            rc = cli.main(inputs.argv(out))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed job, not a failed run
            traceback.print_exc()
            rc = 1
        seconds_taken = time.perf_counter() - start
        record = {"index": index, "dir": str(out), "rc": rc, "traced": with_trace,
                  "cpu": cpu, "seconds": seconds_taken}
        if with_trace:
            tracer.remove()
            record["layers"] = tracer.job_metrics(seconds_taken)
            spans.append((index, list(tracer.spans)))
        jobs.append(record)

    hard_stop = started + stop_after
    job(0, False)
    jobs[0]["warmup"] = True
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        plain = sum(1 for j in jobs[1:] if not j["traced"])
        with_trace = sum(1 for j in jobs[1:] if j["traced"])
        least = min(plain, with_trace) if traced else plain
        now = time.perf_counter()
        if least >= MIN_JOBS and now >= deadline or least >= 1 and now >= hard_stop:
            break
        job(index, traced and index % 2 == 0)
        index += 1

    if traced:
        write_spans(work / "spans.jsonl", spans)

    return {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_record(),
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--meta", required=True, help="inputs record written by run.py")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--stop-after", type=float, required=True,
                   help="stop once every kind of job ran once, even before MIN_JOBS")
    p.add_argument("--result", required=True)
    args = p.parse_args()
    meta = json.loads(Path(args.meta).read_text(encoding="utf-8"))
    work = Path(args.result).parent
    result = run(meta, args.seconds, bool(args.trace), args.stop_after, work)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
