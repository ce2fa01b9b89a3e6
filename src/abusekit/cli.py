"""Command-line entry point for the abuse count-data modeling pipeline.

Subcommands: describe, features, twins, fit, diagnostics, scenarios,
rank, simulate, pipeline. Every command is deterministic in its inputs,
flags and seed; each artifact embeds a run manifest with the digests of
all inputs. Exit codes: 0 = all requested artifacts written, 2 = invalid
input or options, 1 = unexpected failure.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__, diagnostics, features, ingest, scenarios, sim, twins
from .glm import (
    INTERCEPT,
    DesignMatrix,
    FitResult,
    ModelSpec,
    SeparationError,
    build_design,
    fit_poisson,
)
from .report import (
    ModelColumn,
    _cells,
    _csv_text,
    _manifest_line,
    _names,
    build_manifest,
    describe_document,
    fit_document,
    json_document_text,
    render_describe,
    render_fit_table,
    render_rankings,
    render_scenarios,
    render_simulation_samples,
    scenarios_document,
    simulation_summary_document,
    write_json_document,
    write_text_document,
)

USAGE_ERRORS = (ValueError, KeyError, OSError, SeparationError, configparser.Error)

#: The options that name an input file, in the order a manifest digests them.
_INPUT_OPTIONS = (
    "input", "allocations", "observations", "abuse", "enrichment", "seeds", "abuse_alt", "config"
)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage label."""


def _parse_schema(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"--schema entries must be canonical=column, got {part!r}")
        canonical, col = part.split("=", 1)
        out[canonical.strip()] = col.strip()
    return out


def _split(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _run_fits(widest: DesignMatrix, source_label: str, stepwise: bool = False,
              baseline_mode: str = "") -> tuple[list[ModelColumn], int]:
    """Fit the model of ``widest`` (or its stepwise models) and pseudo-R2 baselines.

    ``widest`` is the design of the widest specification, from
    ``build_design`` on a table labelled ``source_label``. All models and
    baselines are estimated on its rows, so their likelihoods, AICs and
    pseudo-R2 values stay comparable; each fit's ``row_index`` holds
    positions in that table. Returns one column per model and the number of
    rows excluded for missing values. The ``X`` of ``widest`` is never
    read: each fit gets a design of its own, restricted from it, whose
    ``X`` lives only through that fit. Each distinct spec is fitted once: a
    stepwise model equal to a baseline shares its fit. The stepwise specs
    are fitted widest first, so each design's ``X`` fits in the memory that
    the wider one before it freed; narrowest first, no freed block would be
    big enough for the next one and the peak memory of the run would grow.
    """
    spec = widest.spec
    # fit.json reports the exclusions once, as rows_excluded_for_missing
    excluded = widest.excluded_rows
    widest = replace(widest, excluded_rows=0)
    fits: dict[ModelSpec, FitResult] = {}

    def fit(s: ModelSpec) -> FitResult:
        if s not in fits:
            fits[s] = fit_poisson(widest.restrict(s))
        return fits[s]

    first = 0 if spec.include_intercept or spec.fixed_effects else 1  # 0 would fit no column
    steps = range(first, len(spec.predictors) + 1) if stepwise else [len(spec.predictors)]
    specs = [replace(spec, predictors=spec.predictors[:k]) for k in steps]
    for s in reversed(specs):
        fit(s)
    columns = []
    for j, s in enumerate(specs, 1):
        f = fit(s)
        column = ModelColumn(label=f"({j})", fit=f, source_label=source_label)
        try:
            column.dispersion = diagnostics.dispersion(f.y, f.fitted, f.k, f.has_intercept)
        except diagnostics.DiagnosticsError:
            pass
        baselines = []
        if s.fixed_effects and baseline_mode in ("fe", "both"):
            baselines.append(ModelSpec(s.response, (), s.fixed_effects))
        if baseline_mode in ("intercept", "both"):
            baselines.append(ModelSpec(s.response))
        for b in baselines:
            if b == s:
                continue  # the model is its own baseline; R2 is 0 by construction
            try:
                a = diagnostics.pseudo_r2(f, fit(b))
                column.assessments[a.baseline_kind] = a
            except diagnostics.DiagnosticsError:
                pass
        columns.append(column)
    return columns, excluded


def _manifest(args: argparse.Namespace, rng_seed: int | None = None) -> dict:
    """The run manifest: a digest of each input file given, and every option given.

    Files are digested in ``_INPUT_OPTIONS`` order, so an unreadable one
    is reported before those after it; ``--out-dir`` is not echoed.
    """
    inputs = [getattr(args, name) for name in _INPUT_OPTIONS if getattr(args, name, None)]
    skip = ("out_dir", "func", "command")
    options = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    return build_manifest(args.command, inputs, options, rng_seed)


def _outputs(args: argparse.Namespace, rng_seed: int | None = None):
    """The run manifest and the created ``--out-dir``, None if none is given."""
    manifest = _manifest(args, rng_seed)
    out = None if args.out_dir is None else Path(args.out_dir)
    if out:
        out.mkdir(parents=True, exist_ok=True)
    return manifest, out


# ---------------------------------------------------------------- describe


def cmd_describe(args) -> int:
    d = _load_input(args)
    columns = _split(args.columns) or ingest.REQUIRED_COLUMNS[1:]  # all but provider_id
    summaries = ingest.describe(d, columns)
    manifest, out = _outputs(args)
    if args.format == "json":
        text = json_document_text(describe_document(summaries), manifest)
    else:
        text = f"# {_manifest_line(manifest)}\n" + render_describe(
            summaries, fmt=args.format, delimiter=args.delimiter
        )
    if args.out_dir:
        (out / f"describe.{args.format}").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- features


def _build_features(
    args,
) -> tuple[ingest.Dataset, features.FeatureReport, features.AllocationIndex]:
    index = features.load_allocations(args.allocations, args.delimiter)
    observations = features.load_observations(args.observations, args.delimiter)
    abuse = features.load_abuse(args.abuse, args.delimiter)
    table, rep = features.build_provider_table(
        index, observations, abuse, source_label=args.source_label
    )
    if args.enrichment:
        enrichment = features.load_enrichment(args.enrichment, args.delimiter)
        merge_cols = [c for c in ingest.OPTIONAL_COLUMNS if c != "twin_id"]
        table = features.merge_enrichment(table, enrichment, merge_cols)
    return table, rep, index


def cmd_features(args) -> int:
    table, rep, _index = _build_features(args)
    manifest, out = _outputs(args)
    ingest.write_table(table, out / "providers.csv", args.delimiter, [_manifest_line(manifest)])
    write_json_document(out / "features_report.json", rep, manifest)
    return 0


# ---------------------------------------------------------------- twins


def _read_seed_ids(path) -> list[str]:
    out = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    if not out:
        raise ValueError(f"{path}: no seed provider ids")
    return out


def _resolve_seeds(args, d: ingest.Dataset) -> list[str]:
    if args.seeds:
        return _read_seed_ids(args.seeds)
    if args.sample_seeds is not None:
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed {args.seed}: seed must be >= 0")
        return twins.sample_seed_ids(d, args.sample_seeds, args.seed or 0)
    raise ValueError("provide --seeds FILE or --sample-seeds N")


def _write_pairings(out: Path, pairings: list[twins.TwinPairing], args, manifest) -> None:
    rows = map(_cells(twins.TwinPairing), pairings)
    text = _csv_text(_names(twins.TwinPairing), rows, args.delimiter)
    write_text_document(out / "pairings.csv", text, manifest)


def _match(args, d: ingest.Dataset) -> list[twins.TwinPairing]:
    seed_ids = _resolve_seeds(args, d)
    known = set(d.provider_ids())
    unknown = [s for s in seed_ids if s not in known]
    if unknown:
        raise ValueError(f"seed ids not in dataset: {unknown[:5]}")
    seed_set = set(seed_ids)
    S = d.take([pid in seed_set for pid in d.provider_ids()])
    cfg = twins.MatchingConfig(
        variables=_split(args.match_vars) or twins.DEFAULT_MATCH_VARIABLES,
        standardize=args.standardize,
        allow_reuse=not args.no_reuse,
    )
    return twins.match_twins(S, d, cfg)


def cmd_twins(args) -> int:
    d = _load_input(args)
    pairings = _match(args, d)
    manifest, out = _outputs(args, args.seed)
    _write_pairings(out, pairings, args, manifest)
    return 0


# ---------------------------------------------------------------- fit / diagnostics


def _model_spec(args) -> ModelSpec:
    return ModelSpec(
        response=args.response,
        predictors=_split(args.predictors),
        fixed_effects=_split(args.fixed_effects),
        include_intercept=not args.no_intercept,
    )


def _load_input(args) -> ingest.Dataset:
    return ingest.load_table(args.input, _parse_schema(args.schema), args.delimiter)


def _input_design(args) -> tuple[DesignMatrix, str]:
    """The design of the model of a ``--baseline`` command on its input, and the table's label.

    The table itself is freed on return, so a command that needs only the
    fits holds no table while it fits.
    """
    d = _load_input(args)
    spec = _model_spec(args)
    if args.baseline == "fe" and not spec.fixed_effects:
        raise ValueError("--baseline fe requires --fixed-effects")
    return build_design(d, spec), d.source_label


def _write_fits(out: Path, columns: list[ModelColumn], excluded: int, args, manifest,
                suffix: str = "", **extra) -> None:
    """``fit{suffix}.json`` and, unless the format is json, the rendered table.

    ``extra`` adds top-level keys to the JSON document.
    """
    write_json_document(
        out / f"fit{suffix}.json",
        {**extra, "rows_excluded_for_missing": excluded,
         "models": [fit_document(c) for c in columns]},
        manifest,
    )
    if args.format != "json":  # fit.json above already carries everything
        text = render_fit_table(columns, fmt=args.format, delimiter=args.delimiter)
        write_text_document(out / f"fit_table{suffix}.{args.format}", text, manifest)


def _write_scenarios(out: Path, fit: FitResult, d: ingest.Dataset, args, manifest) -> None:
    """Built-in scenarios of ``fit``, with medians taken over ``d``."""
    table = scenarios.scenario_table(fit, scenarios.builtin_scenarios(d, fit.kept_predictors))
    if args.format == "json":
        write_json_document(out / "scenarios.json", scenarios_document(table), manifest)
    else:
        text = render_scenarios(table, fmt=args.format, delimiter=args.delimiter)
        write_text_document(out / f"scenarios.{args.format}", text, manifest)


def _write_rankings(out: Path, d: ingest.Dataset, fit: FitResult, args, manifest) -> None:
    """Observed-vs-predicted ranking; ``d`` is the table ``fit`` was fitted on."""
    text = render_rankings(diagnostics.rank_providers(d, fit), args.delimiter)
    write_text_document(out / "rankings.csv", text, manifest)


def cmd_fit(args) -> int:
    columns, excluded = _run_fits(*_input_design(args), args.stepwise, args.baseline)
    manifest, out = _outputs(args)
    _write_fits(out, columns, excluded, args, manifest)
    write_json_document(
        out / "assessment.json",
        {"models": [{"model": c.label, **c.assessment_document()} for c in columns]},
        manifest,
    )
    return 0


def cmd_diagnostics(args) -> int:
    columns, excluded = _run_fits(*_input_design(args), False, args.baseline)
    manifest, out = _outputs(args)
    column = columns[0]
    write_json_document(
        out / "assessment.json",
        {
            "model": column.label,
            "rows_excluded_for_missing": excluded,
            "n": column.fit.n,
            "deviance_model": column.fit.deviance,
            **column.assessment_document(),
        },
        manifest,
    )
    return 0


# ---------------------------------------------------------------- scenarios / rank


def cmd_scenarios(args) -> int:
    d = _load_input(args)
    fit = fit_poisson(build_design(d, _model_spec(args)))
    manifest, out = _outputs(args)
    _write_scenarios(out, fit, d, args, manifest)
    return 0


def cmd_rank(args) -> int:
    d = _load_input(args)
    fit = fit_poisson(build_design(d, _model_spec(args)))
    manifest, out = _outputs(args)
    _write_rankings(out, d, fit, args, manifest)
    return 0


# ---------------------------------------------------------------- simulate


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _noise_pair(text: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'mu, sigma', got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


#: Each key of a simulation config, by section, with the name it is read
#: under (a ``SimulationConfig`` field in population, link and run) and
#: the function that reads its value.
_SIM_CONFIG_KEYS = {
    "population": {"n": ("n", int), "true_size_mean": ("true_size_mean", _finite),
                   "true_size_sd": ("true_size_sd", _finite)},
    "link": {"slope": ("link_slope", _finite), "intercept": ("link_intercept", _finite),
             "target_mean": ("target_mean", _finite)},
    "noise": {"preset": ("preset", str), **{c: (c, _noise_pair) for c in sim.PROXY_COLUMNS}},
    "run": {"replicates": ("replicates", int), "rng_seed": ("rng_seed", int)},
    "reference": {"intercept": (INTERCEPT, _finite),
                  **{c: (c, _finite) for c in sim.PROXY_COLUMNS}},
}


def load_sim_config(path) -> tuple[sim.SimulationConfig, dict[str, float] | None]:
    """Parse a simulation config (INI-style key = value sections); reject unknown names."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8-sig") as fh:
        parser.read_file(fh, source=str(path))
    if parser.defaults():  # its keys would show up in every section
        raise ValueError(f"{path}: unknown section [DEFAULT]")
    read: dict[str, dict] = {}
    for section in parser.sections():
        keys = _SIM_CONFIG_KEYS.get(section)
        if keys is None:
            raise ValueError(f"{path}: unknown section [{section}]")
        read[section] = {}
        for key, text in parser[section].items():
            if key not in keys:
                raise ValueError(f"{path}: [{section}] unknown key {key!r}")
            name, parse = keys[key]
            try:
                read[section][name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    kwargs = {**read.get("population", {}), **read.get("link", {}), **read.get("run", {})}
    if "noise" in read:
        preset = read["noise"].pop("preset", "zero")
        if preset not in sim.NOISE_PRESETS:
            raise ValueError(f"{path}: unknown noise preset {preset!r}")
        kwargs["noise"] = {**sim.NOISE_PRESETS[preset], **read["noise"]}
    try:
        return sim.SimulationConfig(**kwargs), read.get("reference")
    except sim.SimulationError as exc:
        raise sim.SimulationError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    if args.config:
        cfg, reference = load_sim_config(args.config)
    else:
        cfg, reference = sim.SimulationConfig(), None
    for flag, name, value in [("--preset", "noise", sim.NOISE_PRESETS.get(args.preset)),
                              ("--replicates", "replicates", args.replicates),
                              ("--seed", "rng_seed", args.seed), ("--n", "n", args.n)]:
        try:  # the flag names the value its error is about
            cfg = cfg if value is None else replace(cfg, **{name: value})
        except sim.SimulationError as exc:
            raise sim.SimulationError(f"{flag} {value}: {exc}") from None

    result = sim.run_monte_carlo(cfg, reference)
    summary = sim.summarize(result)
    manifest, out = _outputs(args, cfg.rng_seed)
    write_text_document(out / "samples.csv", render_simulation_samples(result), manifest)
    write_json_document(
        out / "summary.json", simulation_summary_document(summary, result), manifest
    )
    return 0


# ---------------------------------------------------------------- pipeline


@contextmanager
def _stage(name: str):
    """Label an exception raised inside with the pipeline stage ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(f"[stage:{name}] {type(exc).__name__}: {exc}") from exc


def cmd_pipeline(args) -> int:
    manifest, out = _outputs(args, args.seed)
    comment = [_manifest_line(manifest)]

    with _stage("features"):
        table, _rep, index = _build_features(args)
        ingest.write_table(table, out / "providers.csv", args.delimiter, comment)
    with _stage("twins"):
        pairings = _match(args, table)
        _write_pairings(out, pairings, args, manifest)
    spec = _model_spec(args)
    required = list(_split(args.required) or spec.predictors)
    with _stage("listwise-exclusion"):
        twin_data = twins.listwise_exclude(pairings, table, required)
        ingest.write_table(twin_data, out / "twin_dataset.csv", args.delimiter, comment)

    def fit_and_write(data: ingest.Dataset, suffix: str):
        columns, excluded = _run_fits(build_design(data, spec), data.source_label,
                                      args.stepwise, "both")
        _write_fits(out, columns, excluded, args, manifest, suffix,
                    source_label=data.source_label)
        return columns[-1].fit

    with _stage("fit"):
        fit = fit_and_write(twin_data, "")
    if args.abuse_alt:
        with _stage("fit-alt"):
            alt_records = features.load_abuse(args.abuse_alt, args.delimiter)
            counts, _skipped = features.attribute_abuse(alt_records, index)
            # every twin provider comes from the index, so each is found
            pos = index.provider_ids.searchsorted(twin_data.column("provider_id"))
            alt = twin_data.with_columns({"abuse_count": counts[pos]}, source_label="alt-feed")
            fit_and_write(alt, "_alt")
    with _stage("scenarios"):
        _write_scenarios(out, fit, twin_data, args, manifest)
    with _stage("rank"):
        _write_rankings(out, twin_data, fit, args, manifest)
    return 0


# ---------------------------------------------------------------- parser


def _delimiter(text: str) -> str:
    """Argument type of ``--delimiter``: one character that csv can split on."""
    if len(text) != 1 or text in '"\r\n':
        raise argparse.ArgumentTypeError(
            f"must be exactly one character other than '\"', CR and LF, got {text!r}"
        )
    return text


def _add_table_args(p, with_out_dir=True):
    p.add_argument("--input", required=True, help="provider table (delimited text)")
    p.add_argument("--schema", help="canonical=column mappings, comma separated")
    p.add_argument(
        "--delimiter", type=_delimiter, default=",", help="cell separator (default ,)"
    )
    if with_out_dir:
        p.add_argument("--out-dir", required=True, help="directory for artifacts")


def _add_raw_args(p):
    p.add_argument("--allocations", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--abuse", required=True)
    p.add_argument("--source-label", default="abuse")
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--out-dir", required=True)


def _add_model_args(p):
    p.add_argument("--response", default="abuse_count", help="response column")
    p.add_argument("--predictors", help="comma-separated predictor columns")
    p.add_argument("--fixed-effects", help="comma-separated factor columns")
    p.add_argument("--no-intercept", action="store_true")


def _add_baseline_arg(p):
    p.add_argument(
        "--baseline",
        choices=["intercept", "fe", "both"],
        default="both",
        help="baseline(s) for pseudo-R2 (default: both where applicable)",
    )


def _add_format_arg(p):
    p.add_argument(
        "--format",
        choices=["md", "csv", "json"],
        default="md",
        help="table rendering; json emits structured documents only",
    )


def _add_matching_args(p):
    p.add_argument("--seeds", help="file with one seed provider_id per line")
    p.add_argument("--sample-seeds", type=int, help="sample N seeds uniformly instead")
    p.add_argument("--match-vars", help="matching variables (default: structural four)")
    p.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="z-score matching variables on the population (default on)",
    )
    p.add_argument("--no-reuse", action="store_true", help="forbid match reuse")
    p.add_argument("--seed", type=int, help="seed for --sample-seeds")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abusekit",
        description="Count-data modeling of abuse concentrations across hosting providers.",
    )
    parser.add_argument("--version", action="version", version=f"abusekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive statistics of a provider table")
    _add_table_args(p, with_out_dir=False)
    p.add_argument("--columns", help="columns to summarize (default: the model columns)")
    p.add_argument("--format", choices=["md", "csv", "json"], default="csv")
    p.add_argument("--out-dir", help="write describe.{csv,md,json} here instead of stdout")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("features", help="build the provider table from raw inputs")
    _add_raw_args(p)
    p.add_argument("--enrichment", help="optional per-provider enrichment table")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("twins", help="nearest-neighbor statistical twins")
    _add_table_args(p)
    _add_matching_args(p)
    p.set_defaults(func=cmd_twins)

    p = sub.add_parser("fit", help="fit Poisson GLM(s), render a regression table")
    _add_table_args(p)
    _add_model_args(p)
    _add_baseline_arg(p)
    _add_format_arg(p)
    p.add_argument("--stepwise", action="store_true", help="fit the nested sequence")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnostics", help="dispersion, deviance and pseudo-R2")
    _add_table_args(p)
    _add_model_args(p)
    _add_baseline_arg(p)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("scenarios", help="baseline scenarios and partial effects")
    _add_table_args(p)
    _add_model_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("rank", help="observed-vs-predicted provider ranking")
    _add_table_args(p)
    _add_model_args(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", help="noisy size-proxy Monte Carlo study")
    p.add_argument("--config", help="INI config (population/link/noise/run sections)")
    p.add_argument("--preset", choices=list(sim.NOISE_PRESETS), help="noise preset override")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, help="population size override")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="end-to-end run on raw inputs")
    _add_raw_args(p)
    p.add_argument("--abuse-alt", help="alternative abuse feed for cross-validation")
    p.add_argument("--enrichment", required=True)
    _add_matching_args(p)
    p.add_argument("--required", help="columns forcing twin-level list-wise exclusion")
    p.add_argument("--response", default="abuse_count")
    p.add_argument("--predictors", required=True)
    p.add_argument("--fixed-effects", default="twin_id")
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--stepwise", action="store_true")
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"abusekit: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return 2 if isinstance(cause, USAGE_ERRORS) else 1
    except USAGE_ERRORS as exc:
        if isinstance(exc, configparser.Error):
            message = str(exc)  # keeps the offending line numbers
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"abusekit: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
