"""Rendering and serialization: run manifests, tables, result documents.

Every emitted document embeds a run manifest (command, input digests,
resolved options, tool version, seed) so outputs are auditable and
byte-identical across reruns with identical inputs. Tables render as
Markdown for humans and delimited text for machines; structured results
serialize as JSON with full float precision.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import chain, count
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .diagnostics import DispersionReport, FitAssessment, ProviderScore
from .glm import INTERCEPT, STAR_THRESHOLDS, FitResult, WaldTest, wald_tests
from .ingest import ColumnSummary, _write_rows
from .scenarios import ScenarioRow
from .sim import SimulationResult, SimulationSummary

STAR_FOOTNOTE = (
    "Significance: * p<0.05; ** p<0.01; *** p<0.001 "
    "(fixed convention; the 0.1/0.05/0.01 variant is not used). "
    "Standard errors in brackets."
)

#: Human labels for rendered tables.
COLUMN_LABELS = {
    "assigned_ips_log10": "Assigned IPs (log10)",
    "hosting_ips_log10": "IPs hosting domains (log10)",
    "hosted_domains_log10": "Hosted domains (log10)",
    "pct_shared": "Domains on shared IPs (%)",
    "abuse_count": "Abuse count",
    "price_per_year": "Price per year (USD)",
    "popularity_index": "Popularity index",
    "time_in_business": "Time in business (years)",
    "ict_dev_index": "ICT development index",
    "wordpress_use": "WordPress use",
    INTERCEPT: "Constant",
}


def label_for(column: str) -> str:
    return COLUMN_LABELS.get(column, column)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: str,
    input_paths: Sequence[str],
    options: Mapping[str, object],
    rng_seed: int | None = None,
) -> dict:
    """The provenance record embedded in every output document.

    Inputs are digested in the order given and listed sorted by path.
    """
    inputs = {str(p): sha256_file(p) for p in input_paths}
    return {
        "command": command,
        "inputs": dict(sorted(inputs.items())),
        "options": _jsonable(options),
        "tool_version": __version__,
        "rng_seed": rng_seed,
    }


def _manifest_line(manifest: dict) -> str:
    """The manifest as one comment line's text, without its ``# ``."""
    return "manifest " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    """The JSON form of ``value``: a dict's keys become str, a list or tuple a list,
    a numpy array or scalar its ``tolist()``, a dataclass instance its fields in
    declaration order, a non-finite float None. Other values pass unchanged, and
    ``json.dumps`` raises ``TypeError`` on any but str, int, bool and None.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    if is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonable(getattr(value, name)) for name in _names(value)}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def json_document_text(doc, manifest: dict) -> str:
    """``doc``, a dict or a result dataclass, and ``manifest`` as JSON text by
    ``_jsonable``'s rule: a value of any other type raises ``TypeError``.
    """
    payload = {"manifest": manifest, **_jsonable(doc)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json_document(path, doc, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_document_text(doc, manifest))


def write_text_document(path, text: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_manifest_line(manifest)}\n")
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _fmt(value: float, decimals: int = 3) -> str:
    if value is None or not math.isfinite(value):
        return "NA"
    return f"{value:,.{decimals}f}"


def _full(value) -> str:
    """One delimited cell: floats at full precision, booleans as 1/0."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else "NA"
    return str(value)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]], delimiter: str = ",") -> str:
    """A delimited table: ``header``, then ``rows`` with every cell through ``_full``."""
    out = io.StringIO()
    _write_rows(out, chain([header], ([_full(v) for v in row] for row in rows)), delimiter)
    return out.getvalue()


def _md_table(header: Sequence[str], rows: Iterable[Sequence[str]], left: int = 1) -> str:
    """A Markdown table; its first ``left`` columns align left, the others right."""
    rule = ["---"] * left + ["---:"] * (len(header) - left)
    return "".join("| " + " | ".join(cells) + " |\n" for cells in chain([header, rule], rows))


def _names(record_type) -> list[str]:
    """The field names of a result dataclass, in declaration order."""
    return [f.name for f in fields(record_type)]


def _cells(record_type) -> Callable[[object], tuple]:
    """A getter of a record's field values in declaration order.

    It gives the cells ``dataclasses.astuple`` gives, without its deep copy
    of every value; ``record_type`` has at least two fields.
    """
    return attrgetter(*_names(record_type))


def render_describe(
    summaries: Sequence[ColumnSummary], fmt: str = "csv", delimiter: str = ","
) -> str:
    """Render descriptive statistics in min/mean/median/max/sd layout."""
    if fmt == "md":
        rows = (
            [label_for(s.name), _fmt(s.min), _fmt(s.mean), _fmt(s.median), _fmt(s.max),
             _fmt(s.sd) + (" (single value)" if s.single_value else ""), f"{s.n:,}"]
            for s in summaries
        )
        return _md_table(["variable", "min", "mean", "median", "max", "sd", "n"], rows)
    # the csv names the ``name`` column "variable", as the Markdown layout does
    header = ["variable", *_names(ColumnSummary)[1:]]
    return _csv_text(header, map(_cells(ColumnSummary), summaries), delimiter)


def describe_document(summaries: Sequence[ColumnSummary]) -> dict:
    return {"columns": summaries}


def scenarios_document(rows: Sequence[ScenarioRow]) -> dict:
    return {"rows": rows}


@dataclass
class ModelColumn:
    """One fitted model plus its diagnostics, ready for side-by-side tables.

    ``assessments`` holds the pseudo-R2 against each baseline, by its
    ``baseline_kind``, in the order the baselines were fitted. ``tests``
    holds the Wald test of each coefficient, by term, computed once when
    the column is built.
    """

    label: str
    fit: FitResult
    dispersion: DispersionReport | None = None
    assessments: dict[str, FitAssessment] = field(default_factory=dict)
    source_label: str = ""
    tests: dict[str, WaldTest] = field(init=False)

    def __post_init__(self):
        self.tests = {t.term: t for t in wald_tests(self.fit)}

    def assessment_document(self) -> dict:
        """Dispersion estimate and pseudo-R2 assessments, JSON-shaped."""
        return {
            "dispersion": self.dispersion,
            "assessments": list(self.assessments.values()),
        }


def _coefficient_cell(column: ModelColumn, term: str) -> str:
    if term not in column.fit.coefficients:
        return ""
    test = column.tests[term]
    if not test.available:
        return f"{_fmt(test.estimate)} (SE unavailable)"
    return f"{test.estimate:,.3f}{test.stars} ({test.se:,.3f})"


def render_fit_table(columns: Sequence[ModelColumn], fmt: str = "md", delimiter: str = ",") -> str:
    """Side-by-side regression table in the stepwise journal layout.

    Coefficient rows carry stars and bracketed standard errors; fixed
    effects appear as Yes/No rows rather than per-dummy coefficients
    (those stay available in the JSON documents and delimited output).
    """
    terms: list[str] = []
    factors: list[str] = []
    for col in columns:
        for name in col.fit.spec.predictors:
            if name not in terms:
                terms.append(name)
        for factor in col.fit.spec.fixed_effects:
            if factor not in factors:
                factors.append(factor)
    has_intercept = any(c.fit.has_intercept for c in columns)

    if fmt == "md":
        def pseudo_r2(column: ModelColumn, kind: str) -> str:
            a = column.assessments.get(kind)
            return _fmt(a.pseudo_r2) if a else ""

        rows = [[label_for(t), *(_coefficient_cell(c, t) for c in columns)]
                for t in terms + ([INTERCEPT] if has_intercept else [])]
        rows += [[f"{factor} fixed effects",
                  *("Yes" if factor in c.fit.spec.fixed_effects else "No" for c in columns)]
                 for factor in factors]
        stat_rows = [
            ("Observations", lambda c: f"{c.fit.n:,}"),
            ("Log likelihood", lambda c: _fmt(c.fit.log_likelihood)),
            ("AIC", lambda c: _fmt(c.fit.aic)),
            ("Dispersion", lambda c: _fmt(c.dispersion.phi_hat) if c.dispersion else ""),
            # Models with fixed effects report the conservative (fixed-effects
            # baseline) value here; the intercept-only value moves to "Total".
            ("Pseudo R2", lambda c: pseudo_r2(
                c, "fixed_effects_only" if c.fit.spec.fixed_effects else "intercept_only")),
            ("Total pseudo R2", lambda c: pseudo_r2(c, "intercept_only")
             if c.fit.spec.fixed_effects else ""),
        ]
        for name, getter in stat_rows:
            cells = [getter(c) for c in columns]
            if any(cells):
                rows.append([name, *cells])
        header = ["", *(f"({i})" for i in range(1, len(columns) + 1))]
        table = _md_table(header, rows).replace("|  |", "| |", 1)  # the corner cell is "| |"
        footer = [f"\n{STAR_FOOTNOTE}"]
        kinds = sorted({kind for c in columns for kind in c.assessments})
        if kinds:
            footer.append(f"Pseudo R2 baseline(s): {', '.join(kinds)}.")
        return table + "\n".join(footer) + "\n"

    test_fields = [name for name in _names(WaldTest) if name != "available"]
    pad = [""] * (len(test_fields) - 2)  # a statistic fills the estimate cell
    rows: list[list[object]] = []
    for col in columns:
        for test in col.tests.values():
            rows.append([col.label, *(getattr(test, name) for name in test_fields)])
        stats: list[tuple[str, object]] = [
            ("n_observations", col.fit.n),
            ("log_likelihood", col.fit.log_likelihood),
            ("aic", col.fit.aic),
            ("converged", col.fit.converged),
        ]
        if col.dispersion:
            stats.append(("dispersion", col.dispersion.phi_hat))
        for kind, a in col.assessments.items():
            key = "pseudo_r2" if kind == "intercept_only" else "pseudo_r2_fixed_effects_baseline"
            stats.append((key, a.pseudo_r2))
        rows.extend([col.label, name, value, *pad] for name, value in stats)
    rows.append(["#", STAR_FOOTNOTE, "", *pad])
    return _csv_text(["model", *test_fields], rows, delimiter)


def fit_document(column: ModelColumn) -> dict:
    """JSON-shaped fit result consumed by downstream tooling."""
    fit = column.fit
    doc = {
        "model": column.label,
        "source_label": column.source_label,
        "n": fit.n,
        "k": fit.k,
        "n_parameters": fit.n_parameters,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "separated": fit.separated,
        "messages": fit.messages,
        "excluded_rows": fit.excluded_rows,
        "dropped_columns": fit.dropped,
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "spec": fit.spec,
        "coefficients": list(column.tests.values()),
        "star_thresholds": STAR_THRESHOLDS,
    }
    # fit.json leaves out a missing dispersion and an empty assessment list
    doc.update({k: v for k, v in column.assessment_document().items() if v})
    return doc


def render_rankings(scores: ProviderScore, delimiter: str = ",") -> str:
    """Plot-ready observed-vs-predicted rows, best relative performers first."""
    rows = zip(count(1), *(column.tolist() for column in _cells(ProviderScore)(scores)))
    return _csv_text(["rank", *_names(ProviderScore)], rows, delimiter)


def render_scenarios(rows: Sequence[ScenarioRow], fmt: str = "csv", delimiter: str = ",") -> str:
    if fmt == "md":
        header = ["scenario", "variable", "delta", "multiplier", "baseline", "incremented",
                  "change"]
        cells = (
            [r.scenario, label_for(r.variable), _fmt(r.delta, 2), _fmt(r.multiplier),
             _fmt(r.baseline_lambda), _fmt(r.incremented_lambda), _fmt(r.absolute_change)]
            for r in rows
        )
        return _md_table(header, cells, left=2)
    return _csv_text(_names(ScenarioRow), map(_cells(ScenarioRow), rows), delimiter)


def render_simulation_samples(res: SimulationResult) -> str:
    """Per-replicate dispersion, coefficient and SE samples as comma-separated rows."""
    header = (
        ["replicate", "dispersion"]
        + [f"coef:{n}" for n in res.coefficient_names]
        + [f"se:{n}" for n in res.coefficient_names]
    )
    samples = np.column_stack(
        [res.dispersion_samples, res.coefficient_samples, res.se_samples]
    ).tolist()
    # a sample a replicate did not produce is an empty cell
    rows = (
        [rep, *(None if math.isnan(v) else v for v in values)]
        for rep, values in enumerate(samples)
    )
    return _csv_text(header, rows)


def simulation_summary_document(summary: SimulationSummary, res: SimulationResult) -> dict:
    return {
        "replicates": len(res.dispersion_samples),
        "n_successful": summary.n_successful,
        "n_failed": summary.n_failed,
        "failures": res.failures,
        "dispersion": {
            "mean": summary.dispersion_mean,
            "q025": summary.dispersion_q025,
            "q975": summary.dispersion_q975,
            "histogram_edges": summary.histogram_edges,
            "histogram_counts": summary.histogram_counts,
        },
        "coefficients": summary.coefficients,
        "config": replace(res.config, link_intercept=res.config.resolved_intercept),
    }
