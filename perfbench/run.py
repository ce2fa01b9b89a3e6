"""Benchmark of the abusekit CLI: runs of one workload (or all), one seed each.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipeline-twins --seed 1 --seconds 22 --trace 0

Workloads: pipeline-population, pipeline-twins, simulate, table-fit (see
``workloads.py`` for why each exists); ``--workload all`` runs each in
turn and names the metrics of the last line ``<workload>/<metric>``. A run

1. generates the workload's inputs from ``--seed`` (same seed, same bytes),
2. starts three fresh interpreters that only ``import abusekit.cli`` and
   takes the median of their wall times as ``setup_s``,
3. starts a worker process that runs one untimed warm-up job and then
   complete CLI jobs, in-process through ``abusekit.cli.main(argv)``, for
   ``--seconds`` seconds (at least three jobs, unless a job is so slow
   that the run would overrun its deadline),
4. checks every job's artifacts (``check.py``); a job fails if it exits
   non-zero or its artifacts are wrong,
5. prints one line per metric (name, value, unit, samples), an
   environment line, and as the last line one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``setup_s``, ``job_s``
(median untraced job), ``rows_per_s`` (input rows of one job over
``job_s``) and ``peak_rss_mb`` (peak RSS of the worker). Timings are
medians; no higher percentile is reported, because a run has fewer than
ten samples beyond any of them. ``fail_ratio`` (failed over attempted
jobs, warm-up included) is printed but left out of the last line, which
carries it as ``attempted`` and ``failed``. With
``--trace 1`` untraced and traced jobs alternate in the worker, and the
metrics are the per-layer ones of ``tracing.py``: the median over traced
jobs of each layer's self time and work counts, ``cli.self_s``,
``trace.job_s`` and ``trace.overhead_s`` (traced minus untraced median).
The full record, with every job time, goes to
``.perfbench-work/<workload>/result.json`` and the spans to
``spans.jsonl`` beside it.

Exit status 0 when a result was printed, 2 when the run could not be
made (no ``src/abusekit`` beside this directory, a worker that failed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")  # relative to ROOT, ignored by git
SETUP_PROBES = 3
DEADLINE_S = 170.0  # one workload's run, worker and checks included
CHECK_MARGIN_S = 30.0  # left for the output checks after the worker stops


def source_record() -> dict:
    """Commit, when the checkout is a git repository, and a digest of src/.

    The ceiling keeps git from reporting the commit of a repository that
    merely contains the checkout.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "abusekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              stdin=subprocess.DEVNULL,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"src_sha256": digest.hexdigest(), "commit": commit}


def setup_seconds(env: dict) -> list[float]:
    """Wall time of fresh interpreters from start to ``import abusekit.cli``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import abusekit.cli"], env=env, check=True,
                       timeout=60, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(inputs, setup: list[float], plain: list[float], rss: float) -> dict:
    job_s = statistics.median(plain)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "job_s": (job_s, "s", len(plain)),
        "rows_per_s": (inputs.rows / job_s, "rows/s", len(plain)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def per_layer(plain: list[float], traced_jobs: list[dict]) -> dict:
    out = {}
    for name, unit, _ in tracing.METRICS:
        if name == "trace.overhead_s":
            continue
        values = [j["layers"][name] for j in traced_jobs]
        out[name] = (statistics.median(values), unit, len(values))
    traced_median = out["trace.job_s"][0]
    out["trace.overhead_s"] = (traced_median - statistics.median(plain), "s", len(traced_jobs))
    return out


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Make one run; print its report lines and return its result object."""
    started = time.perf_counter()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs = workloads.prepare(workload, seed, work / "inputs")
    digests = {str(path): check.sha256_file(path) for path in inputs.files.values()}
    # setup_s is an end-to-end metric; a traced run reports per-layer ones only.
    setup = [] if trace else setup_seconds(dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    meta = work / "inputs.json"
    meta.write_text(json.dumps({"workload": workload, "seed": seed,
                                "files": {k: str(v) for k, v in inputs.files.items()},
                                "rows": inputs.rows}), encoding="utf-8")
    result_path = work / "worker.json"
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("worker.py")),
                 "--meta", str(meta), "--seconds", str(seconds), "--trace", str(int(trace)),
                 "--stop-after", str(budget - CHECK_MARGIN_S), "--result", str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, timeout=budget,
            )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker still running after {budget:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise RunError(f"worker exited {proc.returncode}; see {work / 'worker.log'}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    reference = check.load_reference(workload) if seed == workloads.DEFAULT_SEED else None
    failures = {}
    for job in result["jobs"]:
        errors = [f"exit status {job['rc']}"] if job["rc"] != 0 else []
        if not errors:
            errors = check.check_job(inputs, Path(job["dir"]), digests, reference)
        if errors:
            failures[job["index"]] = errors
    jobs = result["jobs"][1:]
    plain = [j["seconds"] for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(inputs, setup, plain, result["peak_rss_mb"])

    attempted = len(result["jobs"])
    env_record = dict(result["env"], nproc=os.cpu_count(), **source_record())
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rows": inputs.rows, "env": env_record, "setup_s": setup, "jobs": result["jobs"],
        "failures": failures, "fail_ratio": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    for index, errors in sorted(failures.items()):
        for error in errors:
            print(f"{workload} job {index} failed: {error}")
    print(f"# env {json.dumps(env_record, sort_keys=True)}")
    print(f"# {workload} seed {seed}: {attempted} jobs ({len(plain)} timed, "
          f"{len(traced)} traced, 1 warm-up), {inputs.rows} input rows per job")
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload:20s} {name:22s} {value:14.6g} {unit:7s} samples={samples}")
    print(f"{workload:20s} {'fail_ratio':22s} {len(failures) / attempted:14.6g} {'ratio':7s} "
          f"samples={attempted}")
    if trace:
        worst = max(
            abs(sum(j["layers"][m] for m in tracing.SELF_TIME_METRICS + ("cli.self_s",))
                - j["layers"]["trace.job_s"])
            for j in traced
        )
        print(f"# {workload}: layer self times + cli.self_s = trace.job_s "
              f"within {worst:.3g} s on every traced job")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description="abusekit CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0, help="measuring time of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args()

    if not (ROOT / "src" / "abusekit" / "cli.py").is_file():
        print(f"perfbench: no abusekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
