"""Layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the abusekit
modules by a wrapper that records a span (name, layer metric, parent,
start, end) and a few work counts, and rebinds each name that other
modules imported with ``from .glm import ...``, so that a call through
``cli.fit_poisson`` or ``sim.build_design`` is seen as well. ``remove``
puts the original objects back. Spans stay in memory until the caller
writes them.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap. Self times of
one job add up to the sum of its top-level spans, and the rest of the job
is ``cli.self_s``: argument parsing, dataset rebuilds in ``cli`` and
glue. A layer's ``_s`` metric is the self time of the functions mapped
to it.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: Function -> layer time metric, per abusekit module.
LAYERS = {
    "features": {
        "load_allocations": "features.load_s",
        "load_observations": "features.load_s",
        "load_abuse": "features.load_s",
        "load_enrichment": "features.load_s",
        "build_provider_table": "features.build_s",
        "pct_shared": "features.build_s",
        "attribute_abuse": "features.build_s",
        "merge_enrichment": "features.merge_s",
    },
    "ingest": {
        "load_table": "ingest.load_s",
        "write_table": "ingest.write_s",
        "describe": "ingest.describe_s",
    },
    "twins": {
        "distance_matrix": "twins.distance_s",
        "match_twins": "twins.match_s",
        "sample_seed_ids": "twins.match_s",
        "listwise_exclude": "twins.listwise_s",
    },
    "glm": {
        "build_design": "glm.design_s",
        "fit_poisson": "glm.fit_s",
        "log_likelihood": "glm.fit_s",
        "aic": "glm.fit_s",
        "score_vector": "glm.fit_s",
        "wald_tests": "glm.tests_s",
        "predict": "glm.tests_s",
    },
    "diagnostics": {
        "dispersion": "diagnostics.s",
        "deviance": "diagnostics.s",
        "pseudo_r2": "diagnostics.s",
        "rank_providers": "diagnostics.s",
    },
    "scenarios": {
        "partial_effect": "scenarios.s",
        "scenario_table": "scenarios.s",
        "median_scenario": "scenarios.s",
        "builtin_scenarios": "scenarios.s",
    },
    "report": {
        "sha256_file": "report.s",
        "build_manifest": "report.s",
        "json_document_text": "report.s",
        "write_json_document": "report.s",
        "write_text_document": "report.s",
        "render_describe": "report.s",
        "describe_document": "report.s",
        "scenarios_document": "report.s",
        "render_fit_table": "report.s",
        "fit_document": "report.s",
        "render_rankings": "report.s",
        "render_scenarios": "report.s",
        "render_simulation_samples": "report.s",
        "simulation_summary_document": "report.s",
    },
    "sim": {
        "gen_population": "sim.gen_s",
        "run_monte_carlo": "sim.run_s",
        "summarize": "sim.summarize_s",
        "nearest_rank_quantile": "sim.summarize_s",
    },
}

#: Public helpers called once per row or per coefficient. Wrapping them
#: would make the trace cost more than the work; their time stays in the
#: caller's span.
UNWRAPPED = {
    "features": {"parse_ip", "classify_shared_ip", "popularity_index"},
    "ingest": {"log10_transform"},
    "twins": {"twin_label"},
    "glm": {"dummy_name", "star_label"},
    "report": {"label_for"},
}


def _count_features(name, args, result, c):
    if name == "load_observations":
        c["features.obs_rows"] += len(result)
    elif name == "build_provider_table":
        report = result[1]
        c["features.providers"] += report.n_providers
        c["features.skipped_obs"] += report.skipped_observations


def _count_ingest(name, args, result, c):
    if name == "load_table":
        c["ingest.load_rows"] += len(result)
    elif name == "write_table":
        c["ingest.write_rows"] += len(args[0])


def _count_twins(name, args, result, c):
    if name == "distance_matrix":
        cells = result.matrix.shape[0] * result.matrix.shape[1]
        c["twins.distance_cells"] += cells
        c["twins.distance_bytes"] += cells * len(result.variables) * 8
    elif name == "listwise_exclude":
        c["twins.pairs"] += len(args[0])
        c["twins.kept"] += len({r.twin_id for r in result})


def _count_glm(name, args, result, c):
    if name == "build_design":
        c["glm.design_calls"] += 1
        c["glm.design_cols"] += len(result.columns)
        c["glm.dropped_cols"] += len(result.dropped)
    elif name == "fit_poisson":
        c["glm.fits"] += 1
        c["glm.irls_iters"] += result.iterations
        c["glm.converged"] += int(result.converged)
        c["glm.separated_fits"] += int(result.separated)
        c["glm.max_p"] = max(c["glm.max_p"], len(result.coefficients))


def _count_report(name, args, result, c):
    if name in ("write_json_document", "write_text_document"):
        c["report.bytes"] += os.path.getsize(args[0])


def _count_sim(name, args, result, c):
    if name == "run_monte_carlo":
        c["sim.replicates"] += len(result.dispersion_samples)
        c["sim.failed_replicates"] += len(result.failures)


COUNTERS = {
    "features": _count_features,
    "ingest": _count_ingest,
    "twins": _count_twins,
    "glm": _count_glm,
    "report": _count_report,
    "sim": _count_sim,
}

#: Every per-layer metric, with its unit and the direction that is better.
METRICS = (
    ("features.load_s", "s", "lower"),
    ("features.build_s", "s", "lower"),
    ("features.merge_s", "s", "lower"),
    ("features.obs_rows", "count", "higher"),
    ("features.providers", "count", "higher"),
    ("features.skipped_obs", "count", "lower"),
    ("ingest.load_s", "s", "lower"),
    ("ingest.load_rows", "count", "higher"),
    ("ingest.write_s", "s", "lower"),
    ("ingest.write_rows", "count", "higher"),
    ("ingest.describe_s", "s", "lower"),
    ("twins.distance_s", "s", "lower"),
    ("twins.match_s", "s", "lower"),
    ("twins.listwise_s", "s", "lower"),
    ("twins.distance_cells", "count", "lower"),
    ("twins.distance_bytes", "B", "lower"),
    ("twins.kept_ratio", "ratio", "higher"),
    ("glm.design_s", "s", "lower"),
    ("glm.design_calls", "count", "lower"),
    ("glm.design_cols", "count", "lower"),
    ("glm.dropped_cols", "count", "lower"),
    ("glm.fit_s", "s", "lower"),
    ("glm.fits", "count", "lower"),
    ("glm.irls_iters", "count", "lower"),
    ("glm.converged_ratio", "ratio", "higher"),
    ("glm.separated_fits", "count", "lower"),
    ("glm.max_p", "count", "lower"),
    ("glm.tests_s", "s", "lower"),
    ("diagnostics.s", "s", "lower"),
    ("scenarios.s", "s", "lower"),
    ("report.s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("sim.gen_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.summarize_s", "s", "lower"),
    ("sim.replicates", "count", "higher"),
    ("sim.failed_replicates", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Time metrics of the layers; with cli.self_s they sum to trace.job_s.
SELF_TIME_METRICS = tuple(sorted({m for fns in LAYERS.values() for m in fns.values()}))


class Tracer:
    """Records spans of wrapped abusekit functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, metric, parent, start, end]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, metric: str, fn, counter):
        spans, stack = self.spans, self._stack
        short = qualname.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, metric, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(short, args, result, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every mapped function and rebind every module-level alias."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for mod_name, functions in LAYERS.items():
            module = sys.modules[f"abusekit.{mod_name}"]
            for fn_name, metric in functions.items():
                original = getattr(module, fn_name)
                wrappers[id(original)] = original, self._wrap(
                    f"{mod_name}.{fn_name}", metric, original, COUNTERS.get(mod_name)
                )
        for name, module in list(sys.modules.items()):
            if name != "abusekit" and not name.startswith("abusekit."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, pair[1])

    def remove(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def bound_names(self) -> list[str]:
        """Every rebound ``module.attribute`` while installed."""
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._bindings)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def job_metrics(self, job_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for name, metric, parent, start, end in spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        out = {m: 0.0 for m in SELF_TIME_METRICS}
        for i, (name, metric, parent, start, end) in enumerate(spans):
            out[metric] += end - start - child[i]
        c = self.counts
        for name, unit, _ in METRICS:
            if unit in ("count", "B"):
                out[name] = float(c.get(name, 0))
        out["twins.kept_ratio"] = c["twins.kept"] / c["twins.pairs"] if c.get("twins.pairs") else 0.0
        out["glm.converged_ratio"] = c["glm.converged"] / c["glm.fits"] if c.get("glm.fits") else 0.0
        out["cli.self_s"] = job_s - top
        out["trace.job_s"] = job_s
        return out


def write_spans(path, jobs: list[tuple[int, list[list]]]) -> None:
    """Write the spans of each (job index, spans) as JSON lines.

    Times are seconds from the job's first span.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for job, spans in jobs:
            t0 = min((s[3] for s in spans), default=0.0)
            for i, (name, metric, parent, start, end) in enumerate(spans):
                record = {"job": job, "id": i, "parent": parent, "name": name,
                          "layer": metric, "start_s": start - t0, "end_s": end - t0}
                fh.write(json.dumps(record) + "\n")
