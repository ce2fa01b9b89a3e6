"""Tests of the benchmark itself: generator, output check and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import abusekit.cli as cli
import check
import gen
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
SMALL = gen.PipelineSize(providers=60, observations=3000, abuse=300, seeds=8)


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_pipeline_generator_is_deterministic(tmp_path):
    a = gen.gen_pipeline(tmp_path / "a", SMALL, 5)
    gen.gen_pipeline(tmp_path / "b", SMALL, 5)
    gen.gen_pipeline(tmp_path / "c", SMALL, 6)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    lines = lambda name: a[name].read_text().count("\n") - 1  # noqa: E731
    assert lines("observations") == SMALL.observations
    assert lines("abuse") == SMALL.abuse
    assert lines("allocations") == lines("enrichment") == SMALL.providers
    assert a["seeds"].read_text().count("\n") == SMALL.seeds


def test_table_generator_is_deterministic(tmp_path):
    a = gen.gen_table(tmp_path / "a", 500, 5).read_bytes()
    assert a == gen.gen_table(tmp_path / "b", 500, 5).read_bytes()
    assert a != gen.gen_table(tmp_path / "c", 500, 6).read_bytes()
    assert a.count(b"\n") == 501
    assert a.count(b",,") == 5  # exactly 1 % of the rows miss a cell


@pytest.fixture(scope="module")
def twins_job(tmp_path_factory):
    """One pipeline-twins job on the default seed, and its input digests."""
    directory = tmp_path_factory.mktemp("twins")
    inputs = workloads.prepare("pipeline-twins", workloads.DEFAULT_SEED, directory / "inputs")
    out = directory / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(inputs.argv(out)) == 0
    digests = {str(p): check.sha256_file(p) for p in inputs.files.values()}
    return inputs, out, digests


def _copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def test_check_accepts_the_reference_outputs(twins_job):
    inputs, out, digests = twins_job
    assert check.check_job(inputs, out, digests, check.load_reference("pipeline-twins")) == []


def test_check_rejects_a_perturbed_coefficient(twins_job, tmp_path):
    inputs, out, digests = twins_job
    copy = _copy(out, tmp_path)
    doc = json.loads((copy / "fit.json").read_text())
    doc["models"][0]["coefficients"][1]["estimate"] *= 1 + 1e-6
    (copy / "fit.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    errors = check.check_job(inputs, copy, digests, check.load_reference("pipeline-twins"))
    assert any("coefficients[1].estimate" in e for e in errors)


def test_check_rejects_a_dropped_ranking_row(twins_job, tmp_path):
    inputs, out, digests = twins_job
    copy = _copy(out, tmp_path)
    path = copy / "rankings.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    with_reference = check.check_job(inputs, copy, digests, check.load_reference("pipeline-twins"))
    assert any("rankings.csv" in e and "lines" in e for e in with_reference)
    # Without a reference (any other seed) the row-count identity catches it.
    assert any("rankings.csv" in e for e in check.check_job(inputs, copy, digests, None))


def test_check_rejects_wrong_manifest_digest(twins_job, tmp_path):
    inputs, out, digests = twins_job
    wrong = dict(digests, **{next(iter(digests)): "0" * 64})
    assert any("manifest inputs" in e for e in check.check_job(inputs, out, wrong, None))


def test_every_public_function_is_wrapped_or_listed():
    for module_name in tracing.LAYERS:
        module = importlib.import_module(f"abusekit.{module_name}")
        public = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        }
        mapped = set(tracing.LAYERS[module_name])
        skipped = tracing.UNWRAPPED.get(module_name, set())
        assert public == mapped | skipped, module_name


def test_install_rebinds_imported_names_and_remove_restores():
    import abusekit
    import abusekit.glm as glm
    import abusekit.sim as sim

    originals = (glm.fit_poisson, cli.build_design, sim.build_design, abusekit.load_table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = set(tracer.bound_names())
        for name in ("abusekit.cli.fit_poisson", "abusekit.cli.build_design",
                     "abusekit.sim.fit_poisson", "abusekit.sim.build_design",
                     "abusekit.sim.dispersion", "abusekit.report.wald_tests",
                     "abusekit.load_table", "abusekit.glm.fit_poisson"):
            assert name in bound
        assert cli.fit_poisson is glm.fit_poisson is sim.fit_poisson
        assert cli.fit_poisson.__wrapped__ is originals[0]
    finally:
        tracer.remove()
    assert (glm.fit_poisson, cli.build_design, sim.build_design, abusekit.load_table) == originals


#: Per workload: a count that must be non-zero, and the layers whose self
#: times, taken together, must be the largest and more than half the job.
DOMINANT = {
    "pipeline-population": ("features.obs_rows", ("features.",)),
    "pipeline-twins": ("glm.design_calls", ("glm.",)),
    "simulate": ("sim.replicates", ("sim.gen_s",)),
    "table-fit": ("ingest.load_rows", ("ingest.load_s", "glm.")),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_job_sees_the_dominant_layer(workload, tmp_path):
    inputs = workloads.prepare(workload, 3, tmp_path / "inputs")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(inputs.argv(tmp_path / "out")) == 0
    finally:
        tracer.remove()
    total = sum(s[4] - s[3] for s in tracer.spans if s[2] < 0)
    metrics = tracer.job_metrics(total)
    counter, prefixes = DOMINANT[workload]
    assert metrics[counter] > 0
    assert metrics["glm.fits"] > 0 and metrics["glm.design_calls"] > 0
    layers = {}
    for name in tracing.SELF_TIME_METRICS:
        key = next((p for p in prefixes if name.startswith(p)), name.split(".")[0])
        layers[key] = layers.get(key, 0.0) + metrics[name]
    top = max(layers, key=layers.get)
    assert top in prefixes, layers
    assert sum(layers[p] for p in prefixes) > 0.5 * total, layers
    assert sum(metrics[m] for m in tracing.SELF_TIME_METRICS) == pytest.approx(total)
    if workload == "simulate":
        assert metrics["glm.fits"] == metrics["sim.replicates"] == workloads.SIM_REPLICATES


def test_run_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
