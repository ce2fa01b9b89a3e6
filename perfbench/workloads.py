"""The benchmark's workloads: sizes, generated inputs and CLI arguments.

Each workload is one ``abusekit`` command on inputs generated from the
workload seed, sized so that one job takes about a second on a 2-core
machine and a run measures several jobs. Why each one exists:

- ``pipeline-population``: many providers and observations, few seeds.
  Feature construction (raw load, the per-provider allocation scan,
  per-observation lookups) dominates; twins and glm are nearly idle.
- ``pipeline-twins``: fewer providers, many seeds. About 185 of the 200
  twins survive exclusion, so the fixed-effects design has about 185
  ``twin_id`` dummies and ``build_design``/``fit_poisson`` dominate.
- ``simulate``: the Monte Carlo study at n = 10,000 with measured noise.
  No file inputs; population generation, design and fit per replicate.
- ``table-fit``: ``fit --stepwise`` on a large provider table with the
  four structural predictors and a ``country`` fixed effect. The only
  workload that reads a provider table (``load_table``), and large-n glm
  with few columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

PIPELINE_PREDICTORS = "price_per_year,wordpress_use"

PIPELINE_SIZES = {
    "pipeline-population": gen.PipelineSize(
        providers=3000, observations=80_000, abuse=6_000, seeds=24
    ),
    "pipeline-twins": gen.PipelineSize(
        providers=1500, observations=16_000, abuse=3_000, seeds=200
    ),
}
SIM_N = 10_000
SIM_REPLICATES = 15
TABLE_ROWS = 20_000

#: Seed whose artifacts are compared with the stored reference.
DEFAULT_SEED = 1

NAMES = ("pipeline-population", "pipeline-twins", "simulate", "table-fit")


@dataclass
class Inputs:
    """Generated inputs of one workload and seed."""

    workload: str
    seed: int
    files: dict[str, Path]  # input name -> path, relative to the checkout
    rows: int  # input rows one job processes

    def argv(self, out_dir: Path) -> list[str]:
        """Arguments of one job, for ``abusekit.cli.main``."""
        f = {k: str(v) for k, v in self.files.items()}
        if self.workload.startswith("pipeline-"):
            return [
                "pipeline",
                "--allocations", f["allocations"],
                "--observations", f["observations"],
                "--abuse", f["abuse"],
                "--enrichment", f["enrichment"],
                "--seeds", f["seeds"],
                "--predictors", PIPELINE_PREDICTORS,
                "--out-dir", str(out_dir),
            ]
        if self.workload == "simulate":
            return [
                "simulate",
                "--preset", "measured",
                "--n", str(SIM_N),
                "--replicates", str(SIM_REPLICATES),
                "--seed", str(self.seed),
                "--out-dir", str(out_dir),
            ]
        return [
            "fit",
            "--input", f["table"],
            "--stepwise",
            "--predictors", ",".join(gen.TABLE_PREDICTORS),
            "--fixed-effects", "country",
            "--out-dir", str(out_dir),
        ]


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def prepare(workload: str, seed: int, directory: Path) -> Inputs:
    """Generate the inputs of ``workload`` for ``seed`` under ``directory``."""
    if workload in PIPELINE_SIZES:
        files = gen.gen_pipeline(directory, PIPELINE_SIZES[workload], seed)
        rows = sum(
            _data_rows(files[k]) for k in ("allocations", "observations", "abuse", "enrichment")
        )
        return Inputs(workload, seed, files, rows)
    if workload == "simulate":
        return Inputs(workload, seed, {}, SIM_N * SIM_REPLICATES)
    if workload == "table-fit":
        return Inputs(workload, seed, {"table": gen.gen_table(directory, TABLE_ROWS, seed)}, TABLE_ROWS)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
