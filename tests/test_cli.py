import configparser
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import abusekit
from abusekit import cli, ingest, sim
from abusekit.cli import load_sim_config, main
from abusekit.diagnostics import DispersionReport, FitAssessment
from abusekit.features import FeatureReport
from abusekit.glm import INTERCEPT, ModelSpec, WaldTest, build_design
from abusekit.report import ModelColumn, _jsonable, json_document_text, render_fit_table
from abusekit.scenarios import ScenarioRow

from conftest import country_table, traced_peak

FIXTURE = Path(__file__).parent / "data" / "fixture"
GOLDEN = Path(__file__).parent / "data" / "golden"


def fixture_args():
    return [
        "--allocations", str(FIXTURE / "allocations.csv"),
        "--observations", str(FIXTURE / "observations.csv"),
        "--abuse", str(FIXTURE / "abuse.csv"),
        "--enrichment", str(FIXTURE / "enrichment.csv"),
    ]


def golden_pipeline_argv(out_dir):
    """The pipeline run whose artifacts are stored under ``GOLDEN``."""
    return [
        "pipeline", *fixture_args(),
        "--abuse-alt", str(FIXTURE / "abuse_alt.csv"),
        "--seeds", str(FIXTURE / "seeds.txt"),
        "--predictors", "price_per_year,wordpress_use",
        "--stepwise",
        "--out-dir", str(out_dir),
    ]


GOLDEN_COMMANDS = Path(__file__).parent / "data" / "golden_commands"
STRUCTURAL = "assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,pct_shared"
TWIN_PREDICTORS = "price_per_year,wordpress_use"

#: A provider table whose ``price_per_year`` has one non-missing value.
SINGLE_VALUE_TABLE = Path(__file__).parent / "data" / "single_value.csv"

#: A simulation config that sets a value in every section.
SIM_CONFIG_FILE = Path(__file__).parent / "data" / "sim_config.ini"

#: Single-command runs, by case name: (command, input table or None,
#: further arguments). A relative table name is a file under ``GOLDEN``,
#: so the table commands read the golden pipeline tables; ``features``
#: reads the fixture's raw inputs and ``simulate`` reads no table. Their
#: artifacts are stored under ``GOLDEN_COMMANDS / case``.
GOLDEN_COMMAND_CASES = {
    "features": (
        "features", None,
        ["--allocations", str(FIXTURE / "allocations.csv"),
         "--observations", str(FIXTURE / "observations.csv"),
         "--abuse", str(FIXTURE / "abuse.csv")],
    ),
    "describe_csv": ("describe", "providers.csv", ["--format", "csv"]),
    "describe_md": ("describe", "providers.csv", ["--format", "md"]),
    "describe_json_single_value": (
        "describe", SINGLE_VALUE_TABLE,
        ["--format", "json", "--columns", "assigned_ips_log10,price_per_year,abuse_count"],
    ),
    "twins_sampled": ("twins", "providers.csv", ["--sample-seeds", "5", "--seed", "2"]),
    "twins_no_reuse": (
        "twins", "providers.csv", ["--no-reuse", "--sample-seeds", "20", "--seed", "2"],
    ),
    "simulate_measured": (
        "simulate", None,
        ["--n", "400", "--replicates", "4", "--preset", "measured", "--seed", "3"],
    ),
    "simulate_config": ("simulate", None, ["--config", str(SIM_CONFIG_FILE)]),
    "fit_stepwise": ("fit", "providers.csv", ["--predictors", STRUCTURAL, "--stepwise"]),
    "fit_stepwise_fe_baseline": (
        "fit", "providers.csv",
        ["--stepwise", "--predictors", "assigned_ips_log10,price_per_year",
         "--fixed-effects", "country"],
    ),
    "fit_two_factors_csv": (
        "fit", "twin_dataset.csv",
        ["--predictors", TWIN_PREDICTORS, "--fixed-effects", "twin_id,country",
         "--format", "csv"],
    ),
    "diagnostics_fe": (
        "diagnostics", "twin_dataset.csv",
        ["--predictors", TWIN_PREDICTORS, "--fixed-effects", "twin_id", "--baseline", "fe"],
    ),
    "scenarios_json": (
        "scenarios", "providers.csv", ["--predictors", STRUCTURAL, "--format", "json"],
    ),
    "scenarios_csv": (
        "scenarios", "providers.csv", ["--predictors", STRUCTURAL, "--format", "csv"],
    ),
    "rank_rows_excluded": ("rank", "providers.csv", ["--predictors", "price_per_year"]),
    "rank_twin_fe": (
        "rank", "twin_dataset.csv",
        ["--predictors", TWIN_PREDICTORS, "--fixed-effects", "twin_id"],
    ),
}


def golden_command_argv(case, out_dir):
    """The single-command run whose artifacts are stored under ``GOLDEN_COMMANDS``."""
    command, table, extra = GOLDEN_COMMAND_CASES[case]
    table_args = ["--input", str(GOLDEN / table)] if table else []
    return [command, *table_args, *extra, "--out-dir", str(out_dir)]


def strip_manifest(path):
    """Artifact bytes without the run manifest (it embeds input paths)."""
    data = Path(path).read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        del doc["manifest"]
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    first, rest = data.split(b"\n", 1)
    assert first.startswith(b"# manifest ")
    return rest


def fit_structure(models):
    """What the models of a fit document must share exactly: names, sizes, terms, drops."""
    return [(m["model"], m["n"], m["k"], [c["term"] for c in m["coefficients"]],
             m["dropped_columns"], m["separated"]) for m in models]


def fit_numbers(models):
    """The numbers the models of a fit document identify, in document order.

    The estimate, SE, z and p of each spec predictor, the log-likelihood,
    AIC and dispersion, and the deviances and pseudo-R2 of each assessment;
    not the intercept or a fixed-effect dummy, which a separated twin fit
    leaves unidentified.
    """
    out = []
    for m in models:
        for c in m["coefficients"]:
            if c["term"] in m["spec"]["predictors"]:
                out += [c["estimate"], c["se"], c["z"], c["p"]]
        out += [m["log_likelihood"], m["aic"]]
        if "dispersion" in m:  # a fit document leaves out a missing one
            out.append(m["dispersion"]["phi_hat"])
        for a in m.get("assessments", []):
            out += [a["deviance_model"], a["deviance_baseline"], a["pseudo_r2"]]
    return out


@pytest.fixture(scope="module")
def providers_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    assert main(["features", *fixture_args(), "--out-dir", str(out)]) == 0
    return out / "providers.csv"


def golden_table_variant(directory, column=None, value=None, rows=None):
    """The golden providers table: its first ``rows`` rows, ``column`` set to ``value``."""
    with open(GOLDEN / "providers.csv", newline="", encoding="utf-8") as fh:
        header, *body = csv.reader(fh)
    body = body[:rows]
    if column:
        for row in body:
            row[header.index(column)] = value
    path = directory / "variant.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *body])
    return path


class TestDescribe:
    def test_stdout_csv(self, providers_csv, capsys):
        assert main(["describe", "--input", str(providers_csv)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# manifest ")
        assert "abuse_count" in out

    def test_markdown_file(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "describe", "--input", str(providers_csv),
                    "--format", "md", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        text = (tmp_path / "describe.md").read_text()
        assert "| variable | min | mean | median | max | sd |" in text

    def test_unknown_column_exits_2(self, providers_csv, capsys):
        code = main(
            ["describe", "--input", str(providers_csv), "--columns", "nope"]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_cell_beyond_csv_field_limit_exits_2(self, tmp_path, capsys):
        # the quoted cell starts on line 4 and spans two lines
        path = tmp_path / "table.csv"
        cell = "x" * 70_000 + "\n" + "x" * 70_000
        header = ",".join(ingest.REQUIRED_COLUMNS + ("country",))
        path.write_text(f'{header}\na,1,1,1,10,3,NL\n# note\nb,1,1,1,10,3,"{cell}"\n')
        assert main(["describe", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"abusekit: error: {path}: row 4: field larger than field limit (131072)\n"

    def test_json_format(self, providers_csv, capsys):
        assert main(["describe", "--input", str(providers_csv), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "manifest" in doc
        assert any(c["name"] == "abuse_count" for c in doc["columns"])


class TestFeatures:
    def test_artifacts_written(self, providers_csv):
        report = json.loads((providers_csv.parent / "features_report.json").read_text())
        assert report["n_providers"] == 48
        assert "manifest" in report
        text = providers_csv.read_text()
        assert text.startswith("# manifest ")

    def test_header_only_allocations_skip_every_record(self, tmp_path):
        allocations = tmp_path / "allocations.csv"
        allocations.write_text("provider_id,ip_start,ip_end\n")
        out = tmp_path / "out"
        argv = [
            "features", "--allocations", str(allocations),
            "--observations", str(FIXTURE / "observations.csv"),
            "--abuse", str(FIXTURE / "abuse.csv"), "--out-dir", str(out),
        ]
        assert main(argv) == 0
        data_rows = lambda name: len((FIXTURE / name).read_text().splitlines()) - 1  # noqa: E731
        report = json.loads(strip_manifest(out / "features_report.json"))
        assert report == {
            "n_providers": 0,
            "skipped_observations": data_rows("observations.csv"),
            "skipped_abuse_records": data_rows("abuse.csv"),
            "zero_domain_providers": 0,
        }
        assert strip_manifest(out / "providers.csv") == (
            b"provider_id,assigned_ips_log10,hosting_ips_log10,"
            b"hosted_domains_log10,pct_shared,abuse_count\n"
        )

    @pytest.mark.parametrize(
        "option, text, column",
        [("--allocations", "provider_id,ip_start,ip_end\na,0,99\n,100,199\n", "provider_id"),
         ("--abuse", "domain,ip\na.example,7\n,150\n", "domain")],
        ids=["allocations", "abuse"],
    )
    def test_empty_key_cell_is_a_usage_error(self, tmp_path, capsys, option, text, column):
        # read as a key, the empty cell would make a provider "" (whose
        # providers.csv describe rejects) or count an abused domain ""
        path = tmp_path / "input.csv"
        path.write_text(text)
        inputs = {"--allocations": FIXTURE / "allocations.csv", "--abuse": FIXTURE / "abuse.csv",
                  "--observations": FIXTURE / "observations.csv", option: path}
        argv = ["features", *(str(a) for item in inputs.items() for a in item),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"abusekit: error: {path}: row 3: no value in column {column!r}\n"
        assert not (tmp_path / "out").exists()

    def test_short_observation_row_is_a_usage_error(self, tmp_path, capsys):
        observations = tmp_path / "observations.csv"
        observations.write_text("domain,ip\na.example,1\nb.example\n")
        argv = [
            "features", "--allocations", str(FIXTURE / "allocations.csv"),
            "--observations", str(observations),
            "--abuse", str(FIXTURE / "abuse.csv"), "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{observations}: row 3: no value in column 'ip'" in err
        assert "Traceback" not in err


class TestTwins:
    def test_pairings_from_seed_file(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "twins", "--input", str(providers_csv),
                    "--seeds", str(FIXTURE / "seeds.txt"),
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        lines = [
            l for l in (tmp_path / "pairings.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[0] == "twin_id,seed_id,match_id,distance"
        assert len(lines) == 13  # header + 12 seeds

    def test_sampled_seeds_deterministic(self, providers_csv, tmp_path):
        for sub in ("a", "b"):
            assert (
                main(
                    [
                        "twins", "--input", str(providers_csv),
                        "--sample-seeds", "5", "--seed", "3",
                        "--out-dir", str(tmp_path / sub),
                    ]
                )
                == 0
            )
        assert (tmp_path / "a" / "pairings.csv").read_bytes() == (
            tmp_path / "b" / "pairings.csv"
        ).read_bytes()

    def test_seed_file_with_byte_order_mark(self, providers_csv, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text((FIXTURE / "seeds.txt").read_text(), encoding="utf-8-sig")
        for sub, path in (("plain", FIXTURE / "seeds.txt"), ("bom", seeds)):
            argv = ["twins", "--input", str(providers_csv), "--seeds", str(path),
                    "--out-dir", str(tmp_path / sub)]
            assert main(argv) == 0
        assert strip_manifest(tmp_path / "bom" / "pairings.csv") == strip_manifest(
            tmp_path / "plain" / "pairings.csv"
        )

    def test_unknown_seed_id(self, providers_csv, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("zz99\n")
        code = main(
            [
                "twins", "--input", str(providers_csv),
                "--seeds", str(seeds), "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "zz99" in capsys.readouterr().err

    def test_seed_without_a_matching_value_exits_2(self, tmp_path, capsys):
        # hp00 and hp30 have no price in the golden table
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("hp00\nhp30\n")
        argv = ["twins", "--input", str(GOLDEN / "providers.csv"), "--seeds", str(seeds),
                "--match-vars", "price_per_year", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "abusekit: error: seed 'hp00' has no value for matching variable 'price_per_year'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["twins", "pipeline"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--sample-seeds", "0"], "cannot sample 0 seeds from "),
            (["--sample-seeds", "3", "--seed", "-1"], "--seed -1: seed must be >= 0"),
        ],
        ids=["zero-seeds", "negative-seed"],
    )
    def test_seed_sample_it_cannot_draw_exits_2(
        self, providers_csv, tmp_path, capsys, command, options, message
    ):
        if command == "twins":
            inputs = ["--input", str(providers_csv)]
        else:
            inputs = [*fixture_args(), "--predictors", TWIN_PREDICTORS]
        assert main([command, *inputs, *options, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        prefix = "error: " if command == "twins" else "[stage:twins] ValueError: "
        assert err.startswith(f"abusekit: {prefix}{message}"), err


class TestFit:
    def test_stepwise_structural_table(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "fit", "--input", str(providers_csv),
                    "--predictors",
                    "assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,pct_shared",
                    "--stepwise", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        table = (tmp_path / "fit_table.md").read_text()
        assert "| (1) | (2) | (3) | (4) | (5) |" in table
        assert "Significance: * p<0.05; ** p<0.01; *** p<0.001" in table
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert len(doc["models"]) == 5
        assert doc["models"][0]["k"] == 0
        assert doc["models"][4]["k"] == 4
        lls = [m["log_likelihood"] for m in doc["models"]]
        assert lls[4] >= lls[0]  # likelihood dominance along the nest
        assert (tmp_path / "assessment.json").exists()

    @pytest.mark.parametrize(
        "table, extra, sequence",
        [
            ("providers.csv", [], [["pct_shared"], ["pct_shared", "assigned_ips_log10"]]),
            ("twin_dataset.csv", ["--fixed-effects", "twin_id"],
             [[], ["price_per_year"], ["price_per_year", "wordpress_use"]]),
        ],
        ids=["no-factor", "factor"],
    )
    def test_stepwise_without_intercept_starts_where_a_model_has_a_column(
        self, tmp_path, table, extra, sequence
    ):
        # without an intercept or a factor, the empty first model would have no column
        predictors = ",".join(sequence[-1])
        argv = ["fit", "--input", str(GOLDEN / table), "--predictors", predictors, *extra,
                "--no-intercept", "--stepwise", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        models = json.loads((tmp_path / "fit.json").read_text())["models"]
        assert [m["spec"]["predictors"] for m in models] == sequence
        assert [m["model"] for m in models] == [f"({i})" for i in range(1, len(sequence) + 1)]

    @pytest.mark.xfail(
        strict=True,
        reason="without an intercept the factor's reference level is still dropped; "
        "ROADMAP item 2 decides the fixed-effect coding",
    )
    def test_no_intercept_keeps_every_level_of_the_factor(self, tmp_path):
        # as R's y ~ 0 + x + f: the first factor takes the intercept's place
        argv = ["fit", "--input", str(GOLDEN / "twin_dataset.csv"), "--predictors",
                "price_per_year", "--fixed-effects", "twin_id", "--no-intercept",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        (model,) = json.loads((tmp_path / "fit.json").read_text())["models"]
        twins = [c["term"] for c in model["coefficients"] if c["term"].startswith("twin_id[")]
        assert len(twins) == 8

    def test_fixed_effects_baseline_counts_kept_predictors(self, tmp_path):
        # an all-zero wordpress_use is dropped, so the conservative penalty is price alone
        table = golden_table_variant(tmp_path, "wordpress_use", "0")
        argv = ["fit", "--input", str(table), "--predictors", TWIN_PREDICTORS,
                "--fixed-effects", "country", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        (model,) = json.loads((tmp_path / "out" / "fit.json").read_text())["models"]
        assert model["dropped_columns"] == [["wordpress_use", "all-zero column"]]
        penalties = {a["baseline_kind"]: a["k_penalty"] for a in model["assessments"]}
        assert penalties == {"fixed_effects_only": 1, "intercept_only": model["k"]}

    def test_no_residual_df_leaves_out_dispersion_and_assessments(self, tmp_path):
        # two rows, an intercept and one slope: the dispersion's df is 0
        table = golden_table_variant(tmp_path, rows=2)
        argv = ["fit", "--input", str(table), "--predictors", "pct_shared",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        (model,) = json.loads((tmp_path / "out" / "fit.json").read_text())["models"]
        assert (model["n"], model["n_parameters"]) == (2, 2)
        assert "dispersion" not in model and "assessments" not in model

    def test_no_intercept_dispersion_df_is_n_minus_p(self, providers_csv, tmp_path):
        argv = ["fit", "--input", str(providers_csv), "--predictors", STRUCTURAL,
                "--no-intercept", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        model = json.loads((tmp_path / "fit.json").read_text())["models"][0]
        assert model["k"] == model["n_parameters"] == 4
        assert model["dispersion"]["df"] == model["n"] - 4

    def test_stepwise_with_both_baselines_builds_one_design(
        self, providers_csv, tmp_path, monkeypatch
    ):
        built, build_design = [], cli.build_design

        def counting_build_design(d, spec):
            built.append(spec)
            return build_design(d, spec)

        monkeypatch.setattr(cli, "build_design", counting_build_design)
        argv = ["fit", "--input", str(providers_csv), "--predictors", STRUCTURAL,
                "--fixed-effects", "country", "--stepwise", "--baseline", "both",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert len(built) == 1
        models = json.loads((tmp_path / "fit.json").read_text())["models"]
        assert len(models) == 5
        assert len({m["n"] for m in models}) == 1
        # model (1) is its own fixed-effects baseline
        assert [len(m["assessments"]) for m in models] == [1, 2, 2, 2, 2]

    def test_stepwise_columns_keep_stepwise_order(self, providers_csv, monkeypatch):
        fitted, fit_poisson = [], cli.fit_poisson

        def recording_fit_poisson(dm):
            fitted.append(dm.spec)
            return fit_poisson(dm)

        monkeypatch.setattr(cli, "fit_poisson", recording_fit_poisson)
        predictors = tuple(STRUCTURAL.split(","))
        spec = ModelSpec("abuse_count", predictors, ("country",))
        d = ingest.load_table(providers_csv)
        columns, _excluded = cli._run_fits(build_design(d, spec), d.source_label,
                                           stepwise=True, baseline_mode="both")
        assert [c.label for c in columns] == ["(1)", "(2)", "(3)", "(4)", "(5)"]
        assert [c.fit.spec.predictors for c in columns] == [predictors[:k] for k in range(5)]
        # fitted widest first; then the intercept-only baseline
        assert [len(s.predictors) for s in fitted] == [4, 3, 2, 1, 0, 0]
        assert fitted[-1] == ModelSpec("abuse_count")

    def test_stepwise_fits_peak_memory(self):
        # each design's X lives only through its own fit, beside its work buffer
        spec = ModelSpec("abuse_count", STRUCTURAL.split(","), ("country",))
        d = country_table()
        design = len(d) * 28 * 8  # the widest design: intercept, 4 predictors, 23 dummies
        peak = traced_peak(
            lambda: cli._run_fits(build_design(d, spec), d.source_label, True, "both")
        )
        assert peak <= 2.8 * design, peak / design

    @pytest.mark.parametrize("command, freed", [("fit", True), ("diagnostics", True),
                                                ("scenarios", False), ("rank", False)])
    def test_table_freed_before_fitting(self, providers_csv, tmp_path, monkeypatch,
                                        command, freed):
        tables, alive = [], []
        load_table, fit_poisson = ingest.load_table, cli.fit_poisson

        def loading(*args):
            d = load_table(*args)
            tables.append(weakref.ref(d))
            return d

        def fitting(dm):
            alive.append(tables[0]() is not None)
            return fit_poisson(dm)

        monkeypatch.setattr(ingest, "load_table", loading)
        monkeypatch.setattr(cli, "fit_poisson", fitting)
        argv = [command, "--input", str(providers_csv), "--predictors", STRUCTURAL,
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert len(tables) == 1 and alive
        assert alive == [not freed] * len(alive)

    def test_fixed_effects_table_structure(self, tmp_path):
        # build the twin dataset through the pipeline, then refit via `fit`
        run = tmp_path / "run"
        assert (
            main(
                [
                    "pipeline", *fixture_args(),
                    "--seeds", str(FIXTURE / "seeds.txt"),
                    "--predictors", "price_per_year,wordpress_use",
                    "--out-dir", str(run),
                ]
            )
            == 0
        )
        out = tmp_path / "fit"
        assert (
            main(
                [
                    "fit", "--input", str(run / "twin_dataset.csv"),
                    "--predictors", "price_per_year,wordpress_use",
                    "--fixed-effects", "twin_id,country",
                    "--out-dir", str(out),
                ]
            )
            == 0
        )
        table = (out / "fit_table.md").read_text()
        assert "| twin_id fixed effects | Yes |" in table
        assert "| country fixed effects | Yes |" in table
        assert "Total pseudo R2" in table
        assert "Pseudo R2 baseline(s): fixed_effects_only, intercept_only." in table

    def test_unavailable_standard_error_renders_na(self, providers_csv):
        d = ingest.load_table(providers_csv)
        spec = ModelSpec("abuse_count", ("pct_shared",))
        (column,), _ = cli._run_fits(build_design(d, spec), d.source_label,
                                     baseline_mode="intercept")
        fit = column.fit
        fit = replace(fit, standard_errors={**fit.standard_errors, "pct_shared": math.inf})
        column = ModelColumn(column.label, fit, column.dispersion, column.assessments)
        estimate = fit.coefficients["pct_shared"]
        r2 = column.assessments["intercept_only"].pseudo_r2
        md = render_fit_table([column])
        assert f"| Domains on shared IPs (%) | {estimate:,.3f} (SE unavailable) |" in md
        assert f"| Pseudo R2 | {r2:,.3f} |" in md
        assert "Total pseudo R2" not in md
        text = render_fit_table([column], fmt="csv")
        assert f"(1),pct_shared,{estimate!r},NA,,,\n" in text
        assert f"(1),pseudo_r2,{r2!r},,,,\n" in text

    @pytest.mark.parametrize("command", ["fit", "diagnostics", "scenarios", "rank"])
    def test_table_without_rows_exits_2(self, command, tmp_path, capsys):
        table = tmp_path / "providers.csv"
        table.write_text(",".join(ingest.REQUIRED_COLUMNS) + "\n")
        argv = [command, "--input", str(table), "--predictors", "pct_shared",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "abusekit: error: empty design: the table has no rows\n"

    def test_missing_response_exits_2(self, providers_csv, tmp_path, capsys):
        code = main(
            [
                "fit", "--input", str(providers_csv),
                "--response", "not_a_column", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "not_a_column" in capsys.readouterr().err

    def test_csv_format_lists_all_terms(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "fit", "--input", str(providers_csv),
                    "--predictors", "hosted_domains_log10",
                    "--format", "csv", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        text = (tmp_path / "fit_table.csv").read_text()
        assert "model,term,estimate,se,z,p,stars" in text
        assert "log_likelihood" in text and "dispersion" in text

    def test_schema_maps_alternative_feed_column(self, providers_csv, tmp_path):
        # same table with abuse_count renamed: --schema selects the feed
        renamed = tmp_path / "renamed.csv"
        lines = providers_csv.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[header_at] = lines[header_at].replace("abuse_count", "alt_feed")
        renamed.write_text("\n".join(lines) + "\n")
        assert (
            main(
                [
                    "fit", "--input", str(renamed),
                    "--schema", "abuse_count=alt_feed",
                    "--predictors", "hosted_domains_log10",
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            == 0
        )

    def test_json_format_skips_rendered_table(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "fit", "--input", str(providers_csv),
                    "--predictors", "hosted_domains_log10",
                    "--format", "json", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "fit.json").exists()
        assert not list(tmp_path.glob("fit_table.*"))


class TestDiagnosticsCommand:
    def test_assessment_document(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "diagnostics", "--input", str(providers_csv),
                    "--predictors", "hosted_domains_log10,pct_shared",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "assessment.json").read_text())
        assert doc["dispersion"]["phi_hat"] > 0
        kinds = {a["baseline_kind"] for a in doc["assessments"]}
        assert kinds == {"intercept_only"}


class TestScenariosCommand:
    def test_structural_presets_render(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "scenarios", "--input", str(providers_csv),
                    "--predictors",
                    "assigned_ips_log10,hosting_ips_log10,hosted_domains_log10,pct_shared",
                    "--format", "csv", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        text = (tmp_path / "scenarios.csv").read_text()
        assert "median-provider" in text
        assert "small-shared-provider" in text
        assert "large-dedicated-provider" in text

    def test_json_document(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "scenarios", "--input", str(providers_csv),
                    "--predictors", "hosted_domains_log10,pct_shared",
                    "--format", "json", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "scenarios.json").read_text())
        for row in doc["rows"]:
            assert row["incremented_lambda"] == pytest.approx(
                row["baseline_lambda"] * row["multiplier"]
            )

    def test_dropped_predictor_gets_no_rows(self, tmp_path):
        # the design drops an all-zero wordpress_use: it has no effect to report
        table = golden_table_variant(tmp_path, "wordpress_use", "0")
        argv = ["scenarios", "--input", str(table), "--predictors", TWIN_PREDICTORS,
                "--format", "json", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "out" / "scenarios.json").read_text())["rows"]
        assert [(r["scenario"], r["variable"]) for r in rows] == [
            ("median-provider", "price_per_year")
        ]


class TestRankCommand:
    def test_rankings_sorted(self, providers_csv, tmp_path):
        assert (
            main(
                [
                    "rank", "--input", str(providers_csv),
                    "--predictors", "hosted_domains_log10",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        lines = [
            l for l in (tmp_path / "rankings.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(lines) == 49
        residuals = [float(l.split(",")[5]) for l in lines[1:]]
        assert residuals == sorted(residuals)


SIM_CONFIG = """\
[population]
n = 400
true_size_mean = 2.0
true_size_sd = 0.9

[link]
slope = 1.0
target_mean = 2.8

[noise]
preset = measured

[run]
replicates = 4
rng_seed = 17
"""


class TestSimulate:
    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replicates"] == 4
        assert summary["config"]["rng_seed"] == 17
        # the config's "preset = measured" is the --preset measured table
        flags = tmp_path / "flags"
        argv = ["simulate", "--preset", "measured", "--n", "400", "--replicates", "4",
                "--seed", "17", "--out-dir", str(flags)]
        assert main(argv) == 0
        for name in ("summary.json", "samples.csv"):
            assert strip_manifest(flags / name) == strip_manifest(out / name), name

    def test_flag_overrides_and_determinism(self, tmp_path):
        for sub in ("a", "b"):
            assert (
                main(
                    [
                        "simulate", "--preset", "zero", "--n", "300",
                        "--replicates", "2", "--seed", "42",
                        "--out-dir", str(tmp_path / sub),
                    ]
                )
                == 0
            )
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (
            tmp_path / "b" / "samples.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_single_replicate(self, tmp_path):
        assert (
            main(
                [
                    "simulate", "--preset", "zero", "--n", "200",
                    "--replicates", "1", "--seed", "1", "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        rows = [
            l for l in (tmp_path / "samples.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(rows) == 2

    def test_config_parse_error_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("replicates = 4\n")  # key before any section header
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_CONFIG, encoding="utf-8-sig")
        parsed, _reference = load_sim_config(cfg)
        assert parsed.replicates == 4
        assert parsed.rng_seed == 17

    def test_reference_section_parsed(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        text = SIM_CONFIG.replace("target_mean = 2.8", "intercept = -0.5").replace(
            "preset = measured", "preset = measured\nhosting_ips_log10 = 0.5, 0.25"
        )
        cfg.write_text(text + "\n[reference]\nintercept = -1.0\nassigned_ips_log10 = 1.0\n")
        parsed, reference = load_sim_config(cfg)
        assert parsed.replicates == 4
        assert reference == {"intercept": -1.0, "assigned_ips_log10": 1.0}
        assert parsed.link_intercept == -0.5
        # a per-proxy pair replaces that proxy's preset pair only
        assert parsed.noise == {**sim.MEASURED_NOISE, "hosting_ips_log10": (0.5, 0.25)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[population]\nsize_mean = 9\n[run]\nreplicate = 3\n[bogus]\n",
             "[population] unknown key 'size_mean'"),
            ("[run]\nreplicate = 3\n", "[run] unknown key 'replicate'"),
            ("[run]\nreplicates = 3\n[bogus]\n", "unknown section [bogus]"),
            ("[noise]\npct_shared = 0, 1\n", "[noise] unknown key 'pct_shared'"),
            ("[reference]\npct_shared = 1\n", "[reference] unknown key 'pct_shared'"),
            ("[noise]\npreset = loud\n", "unknown noise preset 'loud'"),
            ("[noise]\nhosting_ips_log10 = 1\n",
             "[noise] hosting_ips_log10: expected 'mu, sigma', got '1'"),
            ("[population]\nn = abc\n",
             "[population] n: invalid literal for int() with base 10: 'abc'"),
            ("[noise]\nhosting_ips_log10 = a, b\n",
             "[noise] hosting_ips_log10: could not convert string to float: 'a'"),
            ("[reference]\nintercept = x\n",
             "[reference] intercept: could not convert string to float: 'x'"),
            ("[run]\nreplicates = 2.5\n",
             "[run] replicates: invalid literal for int() with base 10: '2.5'"),
            ("[population]\nn = 0\n", "population size must be positive"),
            ("[noise]\nhosting_ips_log10 = 0, -1\n", "noise sd must be >= 0"),
            ("[link]\nslope = nan\n", "[link] slope: not a finite number: 'nan'"),
            ("[population]\ntrue_size_mean = -inf\n",
             "[population] true_size_mean: not a finite number: '-inf'"),
            ("[DEFAULT]\nn = 50\n[link]\nslope = 1\n", "unknown section [DEFAULT]"),
            ("[DEFAULT]\nn = 50\n[population]\n", "unknown section [DEFAULT]"),
            ("[link]\ntarget_mean = 0\n", "target_mean must be > 0"),
            ("[run]\nrng_seed = -1\n", "rng_seed must be >= 0"),
        ],
        ids=["first-of-three", "key", "section", "noise-column", "reference-term",
             "preset", "malformed-pair", "int", "pair-number", "reference-number",
             "int-not-float", "config-n", "config-noise-sd", "nan", "inf",
             "default-beside-link", "default-beside-population", "config-target-mean",
             "config-rng-seed"],
    )
    def test_config_name_or_value_it_cannot_use_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"abusekit: error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "0", "population size must be positive"),
            ("--replicates", "0", "replicates must be >= 1"),
            ("--seed", "-1", "rng_seed must be >= 0"),
        ],
    )
    def test_flag_value_it_cannot_use_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert main(["simulate", flag, value, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"abusekit: error: {flag} {value}: {message}\n"
        assert not out.exists()


class TestPipeline:
    def test_seven_artifacts_and_determinism(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert (
                main(
                    [
                        "pipeline", *fixture_args(),
                        "--seeds", str(FIXTURE / "seeds.txt"),
                        "--predictors", "price_per_year,wordpress_use",
                        "--out-dir", str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == [
            "fit.json",
            "fit_table.md",
            "pairings.csv",
            "providers.csv",
            "rankings.csv",
            "scenarios.md",
            "twin_dataset.csv",
        ]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_alternative_feed_adds_second_table(self, tmp_path):
        assert (
            main(
                [
                    "pipeline", *fixture_args(),
                    "--abuse-alt", str(FIXTURE / "abuse_alt.csv"),
                    "--seeds", str(FIXTURE / "seeds.txt"),
                    "--predictors", "price_per_year,wordpress_use",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "fit_alt.json").exists()
        assert (tmp_path / "fit_table_alt.md").exists()
        main_doc = json.loads((tmp_path / "fit.json").read_text())
        alt_doc = json.loads((tmp_path / "fit_alt.json").read_text())
        assert main_doc["models"][0]["n"] == alt_doc["models"][0]["n"]
        assert main_doc["models"][0]["log_likelihood"] != alt_doc["models"][0]["log_likelihood"]

    def test_artifacts_match_golden_bytes(self, tmp_path):
        # Regenerate with tests/data/make_golden.py after an intended change.
        assert main(golden_pipeline_argv(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(p.name for p in GOLDEN.iterdir())
        assert len(names) == 9
        for name in names:
            assert strip_manifest(tmp_path / name) == (GOLDEN / name).read_bytes(), name

    def test_rankings_name_the_fitted_providers(self, tmp_path):
        # --required wordpress_use keeps twins whose price_per_year is
        # missing, so the fit excludes rows of the twin dataset.
        assert (
            main(
                [
                    "pipeline", *fixture_args(),
                    "--seeds", str(FIXTURE / "seeds.txt"),
                    "--predictors", "price_per_year,wordpress_use",
                    "--required", "wordpress_use",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert json.loads((tmp_path / "fit.json").read_text())["rows_excluded_for_missing"] > 0

        def body(name):
            lines = (tmp_path / name).read_text().splitlines()
            return list(csv.DictReader(l for l in lines if not l.startswith("#")))

        abuse = {r["provider_id"]: int(r["abuse_count"]) for r in body("twin_dataset.csv")}
        rankings = body("rankings.csv")
        assert rankings
        for row in rankings:
            assert int(row["observed"]) == abuse[row["provider_id"]], row["provider_id"]

    @pytest.mark.parametrize(
        "stage, option, value",
        [
            ("features", "--allocations", "provider_id,ip_start,ip_end\nhp00,1.2.3,9\n"),
            ("twins", "--seeds", "doesnotexist\n"),
            ("listwise-exclusion", "--required", "no_such_column"),
            ("fit", "--predictors", "country"),
            ("fit-alt", "--abuse-alt", "domain,ip\nbad.example,1.2.3\n"),
        ],
        ids=["features", "twins", "listwise-exclusion", "fit", "fit-alt"],
    )
    def test_each_stage_labels_its_error(self, tmp_path, capsys, stage, option, value):
        path, text = tmp_path / "input.csv", value
        if value.endswith("\n"):  # the text of an input file
            path.write_text(value)
            value = str(path)
        argv = [
            "pipeline", *fixture_args(),
            "--seeds", str(FIXTURE / "seeds.txt"),
            "--predictors", TWIN_PREDICTORS,
            option, value,
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"abusekit: [stage:{stage}] "), err
        assert "Traceback" not in err
        if "1.2.3\n" in text:  # a bad IP cell names its file and row
            assert f"{path}: row 2: invalid IP address '1.2.3'" in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("diagnostics", ["--format", "json"]),
        ("rank", ["--format", "csv"]),
        ("scenarios", ["--baseline", "intercept"]),
        ("rank", ["--baseline", "intercept"]),
    ],
)
def test_option_the_command_ignores_is_rejected(command, option, providers_csv, tmp_path, capsys):
    argv = [command, "--input", str(providers_csv), "--predictors", "pct_shared",
            *option, "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, rewrite, extra, message",
    [
        ("fit", None, ["--schema", "abuse_count"],
         "--schema entries must be canonical=column, got 'abuse_count'"),
        ("fit", None, ["--schema", "foo=bar"], "schema maps unknown canonical columns: ['foo']"),
        ("twins", None, ["--seeds", "SEEDS"], "SEEDS: no seed provider ids"),
        ("twins", None, [], "provide --seeds FILE or --sample-seeds N"),
        ("fit", None, ["--baseline", "fe"], "--baseline fe requires --fixed-effects"),
        ("fit", None, ["--fixed-effects", "twin_id,twin_id"], "duplicate fixed-effect names"),
        ("fit", ("wordpress_use", "0"), ["--no-intercept", "--predictors", "wordpress_use"],
         "empty design: all columns dropped"),
        ("fit", ("price_per_year", ""), ["--predictors", "price_per_year"],
         "empty design: every row has a missing value in a used column"),
        ("fit", None, ["--response", "pct_shared"],
         "response 'pct_shared' must hold non-negative integers"),
        ("describe", ("price_per_year", ""), ["--columns", "price_per_year"],
         "column 'price_per_year' has no non-missing values"),
        ("twins", ("pct_shared", "50.0"), ["--sample-seeds", "3", "--match-vars", "pct_shared"],
         "every matching variable has zero variance in T"),
    ],
    ids=["schema-entry", "schema-column", "seeds-file", "no-seeds", "fe-baseline",
         "duplicate-factor", "all-dropped", "all-missing", "non-count-response",
         "describe-no-values", "zero-variance"],
)
def test_input_it_cannot_use_exits_2(command, rewrite, extra, message, tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# a comment and a blank line name no provider\n\n")
    table = golden_table_variant(tmp_path, *rewrite) if rewrite else GOLDEN / "providers.csv"
    extra = [str(seeds) if arg == "SEEDS" else arg for arg in extra]
    argv = [command, "--input", str(table), *extra, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"abusekit: error: {message.replace('SEEDS', str(seeds))}\n"


@pytest.mark.parametrize("delimiter", [";;", "", '"', "\n"])
@pytest.mark.parametrize("command", ["features", "pipeline", "fit"])
def test_delimiter_is_one_plain_character(command, delimiter, providers_csv, tmp_path, capsys):
    inputs = {
        "features": fixture_args()[:6],
        "pipeline": [*fixture_args(), "--predictors", TWIN_PREDICTORS],
        "fit": ["--input", str(providers_csv)],
    }[command]
    argv = [command, *inputs, "--delimiter", delimiter, "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --delimiter: must be exactly one character" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def assert_golden_artifacts(out_dir, expected):
    """``out_dir`` holds the files of ``expected``, equal to them after ``strip_manifest``."""
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(p.name for p in expected.iterdir())
    for name in names:
        assert strip_manifest(out_dir / name) == (expected / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(GOLDEN_COMMAND_CASES))
def test_single_command_matches_golden_bytes(case, tmp_path):
    # Regenerate with tests/data/make_golden.py after an intended change.
    assert main(golden_command_argv(case, tmp_path)) == 0
    assert_golden_artifacts(tmp_path, GOLDEN_COMMANDS / case)


def artifact_manifests(path):
    """Every run manifest ``path`` carries: a JSON document's key, a text file's ``# manifest`` lines."""
    data = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return [json.loads(data)["manifest"]]
    prefix = "# manifest "
    return [json.loads(line[len(prefix):]) for line in data.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("case", ["pipeline", *sorted(GOLDEN_COMMAND_CASES)])
def test_manifest_records_the_command_line(case, tmp_path):
    # goldens are stored without manifests; this holds each one to its argv
    out = tmp_path / "out"
    if case == "pipeline":
        argv = golden_pipeline_argv(out)
    else:
        argv = golden_command_argv(case, out)
    assert main(argv) == 0
    flags = {}
    for i, token in enumerate(argv):
        if token.startswith("--") and token != "--out-dir":
            value = argv[i + 1] if i + 1 < len(argv) else None
            bare = value is None or value.startswith("--")
            flags[token[2:].replace("-", "_")] = True if bare else value
    files = [Path(token) for token in argv if Path(token).is_file()]
    if "seed" in flags:
        rng_seed = int(flags["seed"])
    elif "config" in flags:
        parser = configparser.ConfigParser()
        parser.read(flags["config"])
        rng_seed = parser.getint("run", "rng_seed")
    else:
        rng_seed = None
    artifacts = sorted(out.iterdir())
    assert artifacts
    for path in artifacts:
        (manifest,) = artifact_manifests(path)
        assert manifest["command"] == argv[0], path.name
        assert manifest["inputs"] == {
            str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files
        }, path.name
        options = manifest["options"]
        assert "out_dir" not in options
        for name, value in flags.items():
            shown = options[name] if value is True else str(options[name])
            assert shown == value, name
        assert manifest["rng_seed"] == rng_seed, path.name
        assert manifest["tool_version"] == abusekit.__version__


def test_quoted_crlf_table_matches_golden_bytes(tmp_path):
    # the csv.reader side of the table reader, end to end: every cell of
    # the golden table quoted, every line ended by CRLF
    with open(GOLDEN / "providers.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    table = tmp_path / "providers.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
    assert b'"\r\n"' in table.read_bytes()
    command, _, extra = GOLDEN_COMMAND_CASES["fit_stepwise"]
    out = tmp_path / "out"
    assert main([command, "--input", str(table), *extra, "--out-dir", str(out)]) == 0
    assert_golden_artifacts(out, GOLDEN_COMMANDS / "fit_stepwise")


def _make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", Path(__file__).parent / "data" / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_check_diffs_numbers_and_text():
    diff_text = _make_golden().diff_text
    old = "term,estimate\nprice,1.5\nwordpress,-2\nnote,a\n"
    new = "term,estimate\nprice,1.50000003\nwordpress,-2\nnote,b\nextra,0\n"
    assert diff_text(old, old) == []
    assert diff_text(old, new) == [
        "line 2: 1.5 -> 1.50000003 (rel 2.0e-08)",
        "line 4 old: note,a",
        "line 4 new: note,b",
        "line 5 new: extra,0",
    ]
    assert diff_text("x 0\n", "x 1e-300\n") == ["line 1: 0 -> 1e-300 (rel inf)"]


@pytest.mark.parametrize(
    "term, verdict",
    [("twin_id[twin:hp11]", "identified quantities agree at rel 1e-8"),
     ("price_per_year", "identified quantities differ beyond rel 1e-8")],
    ids=["twin-dummy", "spec-slope"],
)
def test_golden_check_says_whether_identified_quantities_agree(
    term, verdict, tmp_path, monkeypatch, capsys
):
    # a twin dummy is not identified in a separated fit; a spec slope is
    make_golden = _make_golden()
    stored = tmp_path / "golden"
    stored.mkdir()
    (stored / "fit.json").write_bytes((GOLDEN / "fit.json").read_bytes())
    doc = json.loads((GOLDEN / "fit.json").read_text())
    (coefficient,) = [c for c in doc["models"][-1]["coefficients"] if c["term"] == term]
    coefficient["estimate"] *= 1 + 1e-6
    moved = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    monkeypatch.setattr(make_golden, "GOLDEN", stored)
    assert make_golden._check(stored, {"fit.json": moved}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "golden/fit.json:"
    assert len(out) == 3  # the one moved number, then the verdict
    assert out[-1] == f"  {verdict}"


def test_jsonable_writes_arrays_as_lists():
    assert _jsonable({"a": np.array([1.0, np.nan])}) == {"a": [1.0, None]}
    assert _jsonable(np.array(2.5)) == 2.5
    assert _jsonable(np.array(np.nan)) is None
    three = _jsonable(np.int64(3))
    assert three == 3 and type(three) is int
    assert _jsonable(np.float64("nan")) is None
    assert _jsonable(np.bool_(True)) is True
    with pytest.raises(TypeError):  # no type is written as its str
        json_document_text({"p": Path("x")}, {})


@pytest.mark.parametrize(
    "record",
    [
        ModelSpec("abuse_count", ("price_per_year", "wordpress_use"), ("twin_id",), False),
        WaldTest("price_per_year", 0.25, 0.05, 5.0, 5.7e-7, "***"),
        WaldTest("wordpress_use", 1.5, math.inf, None, None, "", available=False),
        DispersionReport(phi_hat=np.float64(1.75), chi_square=61.25, df=35),
        FitAssessment(40.0, 52.5, 0.2380952380952381, "fixed_effects_only", 1.75, 3),
        ingest.ColumnSummary("price_per_year", 48, 2, 0.0, 12.5, 10.0, 40.0, 9.75),
        ingest.ColumnSummary("wordpress_use", 1, 0, 1.0, 1.0, 1.0, 1.0, np.nan, True),
        FeatureReport(n_providers=48, skipped_observations=3, skipped_abuse_records=1,
                      zero_domain_providers=0),
        ScenarioRow("large", "price_per_year", 10.0, 1.5, 2.0, 3.0, 1.0),
        ScenarioRow("overflow", "assigned_ips_log10", 1e6, math.inf, 2.0, math.inf, math.inf),
        sim.SimulationConfig(n=200, noise=sim.MEASURED_NOISE, replicates=3),
        sim.CoefficientSummary("hosted_domains_log10", 3, 0.5, 0.4, 0.6),
        sim.CoefficientSummary(INTERCEPT, 3, -1.0, -1.2, -0.8, -1.1, -0.1),
    ],
    ids=lambda record: type(record).__name__,
)
def test_jsonable_writes_a_dataclass_as_asdict_did(record):
    # dataclasses.asdict, the route every document took before, is the oracle
    assert _jsonable(record) == _jsonable(asdict(record))


def _child_env():
    """Environment in which a child imports the abusekit this process imported."""
    src = str(Path(abusekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; the CLI needs none of it
    code = "import sys, abusekit.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: Prints the thread timeout of every OpenBLAS mapped into the process
#: after importing abusekit, numpy and scipy's linear algebra, in that order.
OPENBLAS_TIMEOUTS = """
import ctypes, abusekit, numpy, scipy.linalg
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for lib in libs:
    handle = ctypes.CDLL(lib)
    if hasattr(handle, "openblas_thread_timeout"):
        timeout = handle.openblas_thread_timeout
        timeout.restype = ctypes.c_int
        timeout.argtypes = []
        print(timeout())
"""


@pytest.mark.parametrize("given,expected", [(None, 16), ("20", 20)])
def test_import_shortens_openblas_thread_timeout(given, expected):
    # numpy's and scipy's OpenBLAS pools would otherwise spin beside each
    # other between calls; a timeout the user set is kept
    env = _child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_TIMEOUTS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    timeouts = [int(line) for line in proc.stdout.split()]
    if not timeouts:
        pytest.skip("no loaded library exports openblas_thread_timeout")
    assert timeouts == [expected] * len(timeouts)


def test_console_pipeline_matches_golden_bytes(tmp_path):
    # the golden pipeline as the console runs it: a fresh interpreter, with
    # no OpenBLAS thread timeout set outside, where abusekit loads first
    env = _child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "abusekit.cli", *golden_pipeline_argv(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert_golden_artifacts(tmp_path, GOLDEN)


#: A line of a fit document that holds a standard error, z or p value.
UNCERTAINTY_LINE = re.compile(r'\s*"(?:se|z|p)": (.+?),?')


def test_pipeline_artifacts_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits some work by thread count. At 1 and 2 threads the
    # fit's arithmetic is bit-equal on the golden pipeline; only the
    # inverse of the Fisher matrix moves in its last bit, so every artifact
    # is byte-equal but for the se, z and p lines of a fit document.
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / threads  # the same relative --out-dir, so the manifests match
        run.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "abusekit.cli", *golden_pipeline_argv("out")],
            capture_output=True,
            text=True,
            cwd=run,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(run / "out")

    one, two = outputs
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert names == sorted(p.name for p in GOLDEN.iterdir())
    for name in names:
        single, threaded = (one / name).read_bytes(), (two / name).read_bytes()
        if not (name.startswith("fit") and name.endswith(".json")):
            assert single == threaded, name
            continue
        for a, b in zip(single.decode().splitlines(), threaded.decode().splitlines(),
                        strict=True):
            number_a, number_b = UNCERTAINTY_LINE.fullmatch(a), UNCERTAINTY_LINE.fullmatch(b)
            if a != b and number_a and number_b:
                assert float(number_a[1]) == pytest.approx(float(number_b[1]), rel=1e-12, abs=0), name
            else:
                assert a == b, name


def test_console_invocation_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "abusekit.cli", "--version"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "abusekit" in proc.stdout
