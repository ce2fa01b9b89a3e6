"""Output checks: a job whose artifacts fail any of them counts as failed.

- For the workload's default seed, every artifact matches the stored
  reference once its manifest line or key is removed: numbers agree to a
  relative 1e-8, everything else exactly.
- Every manifest lists exactly the job's input files, with their SHA-256
  digests.
- For any seed, identities that hold whatever the data: the intercept
  score identity (sum of fitted = sum of y), and conservation of row
  counts (providers, seeds, twins, replicates, excluded rows).
"""
from __future__ import annotations

import bisect
import csv
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

import gen
import workloads

REL_TOL = 1e-8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PIPELINE_ARTIFACTS = (
    "providers.csv", "pairings.csv", "twin_dataset.csv", "fit.json",
    "fit_table.md", "scenarios.md", "rankings.csv",
)
ARTIFACTS = {
    "pipeline-population": PIPELINE_ARTIFACTS,
    "pipeline-twins": PIPELINE_ARTIFACTS,
    "simulate": ("samples.csv", "summary.json"),
    "table-fit": ("fit.json", "assessment.json", "fit_table.md"),
}

MANIFEST_PREFIX = "# manifest "
_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


class CheckError(Exception):
    """An artifact is missing, malformed or wrong."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_artifact(path: Path) -> tuple[object, dict]:
    """Split an artifact into its content without manifest, and the manifest."""
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        if "manifest" not in doc:
            raise CheckError(f"{path.name}: no manifest key")
        manifest = doc.pop("manifest")
        return doc, manifest
    lines = text.split("\n")
    if not lines[0].startswith(MANIFEST_PREFIX):
        raise CheckError(f"{path.name}: first line is not a manifest")
    return lines[1:], json.loads(lines[0][len(MANIFEST_PREFIX):])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _compare_line(ref: str, got: str) -> bool:
    ref_parts, got_parts = _NUMBER.split(ref), _NUMBER.split(got)
    ref_nums, got_nums = _NUMBER.findall(ref), _NUMBER.findall(got)
    if ref_parts != got_parts or len(ref_nums) != len(got_nums):
        return False
    for r, g in zip(ref_nums, got_nums):
        if r == g:
            continue
        if not any(ch in r + g for ch in ".eE") or not _close(float(r), float(g)):
            return False
    return True


def _compare_json(ref, got, where: str, out: list[str]) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        if ref != got or type(ref) is not type(got):
            out.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not _close(float(ref), float(got)):
            out.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{where}: keys {sorted(got)} != reference {sorted(ref)}")
            return
        for key in ref:
            _compare_json(ref[key], got[key], f"{where}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)} != reference {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_json(r, g, f"{where}[{i}]", out)
    elif ref != got:
        out.append(f"{where}: {got!r} != reference {ref!r}")


def compare_to_reference(name: str, ref, got) -> list[str]:
    """Differences between an artifact's content and its reference content."""
    out: list[str] = []
    if name.endswith(".json"):
        _compare_json(ref, got, name, out)
        return out
    if len(ref) != len(got):
        return [f"{name}: {len(got)} lines != reference {len(ref)}"]
    for lineno, (r, g) in enumerate(zip(ref, got), start=2):
        if not _compare_line(r, g):
            out.append(f"{name}:{lineno}: {g!r} != reference {r!r}")
    return out


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: str, out_dir: Path) -> Path:
    """Store the artifacts of ``out_dir``, without manifests, as the reference."""
    content = {name: read_artifact(out_dir / name)[0] for name in ARTIFACTS[workload]}
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
    return path


def _csv_rows(lines: list[str]) -> list[dict]:
    return list(csv.DictReader([line for line in lines if line]))


def _expect(cond: bool, message: str, out: list[str]) -> None:
    if not cond:
        out.append(message)


def _attributable_abuse(files: dict[str, Path]) -> int:
    """Distinct (provider, domain) abuse pairs on allocated addresses."""
    with open(files["allocations"], encoding="utf-8") as fh:
        ranges = sorted(
            (int(r["ip_start"]), int(r["ip_end"]), r["provider_id"]) for r in csv.DictReader(fh)
        )
    starts = [r[0] for r in ranges]
    pairs = set()
    with open(files["abuse"], encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ip = int(row["ip"])
            pos = bisect.bisect_right(starts, ip) - 1
            if pos >= 0 and ip <= ranges[pos][1]:
                pairs.add((ranges[pos][2], row["domain"]))
    return len(pairs)


def _pipeline_identities(inputs, docs: dict, out: list[str]) -> None:
    files = inputs.files
    with open(files["allocations"], encoding="utf-8") as fh:
        allocated = {r["provider_id"] for r in csv.DictReader(fh)}
    seeds = [s for s in files["seeds"].read_text(encoding="utf-8").split() if s]
    providers = _csv_rows(docs["providers.csv"])
    _expect(len(providers) == len(allocated),
            f"providers.csv: {len(providers)} rows for {len(allocated)} allocated providers", out)
    abuse_total = sum(int(r["abuse_count"]) for r in providers)
    expected_abuse = _attributable_abuse(files)
    _expect(abuse_total == expected_abuse,
            f"providers.csv: abuse counts sum to {abuse_total}, "
            f"{expected_abuse} attributable abuse domains", out)
    pairings = _csv_rows(docs["pairings.csv"])
    _expect(sorted(p["seed_id"] for p in pairings) == sorted(seeds),
            f"pairings.csv: {len(pairings)} pairings for {len(seeds)} seeds", out)
    twin_rows = _csv_rows(docs["twin_dataset.csv"])
    twin_ids = {r["twin_id"] for r in twin_rows}
    _expect(len(twin_rows) == 2 * len(twin_ids),
            f"twin_dataset.csv: {len(twin_rows)} rows for {len(twin_ids)} twins", out)
    _expect(twin_ids <= {p["twin_id"] for p in pairings},
            "twin_dataset.csv: twin ids absent from pairings.csv", out)
    rankings = _csv_rows(docs["rankings.csv"])
    fit_n = docs["fit.json"]["models"][-1]["n"]
    _expect(len(rankings) == len(twin_rows) == fit_n,
            f"rankings.csv: {len(rankings)} rows, twin dataset {len(twin_rows)}, fit n {fit_n}", out)
    fitted = math.fsum(float(r["predicted"]) for r in rankings)
    observed = math.fsum(int(r["observed"]) for r in rankings)
    _expect(_close(fitted, observed),
            f"rankings.csv: sum of predicted {fitted!r} != sum of observed {observed}", out)


def _simulate_identities(inputs, docs: dict, out: list[str]) -> None:
    summary = docs["summary.json"]
    samples = _csv_rows(docs["samples.csv"])
    reps = workloads.SIM_REPLICATES
    _expect(summary["replicates"] == reps and len(samples) == reps,
            f"summary.json/samples.csv: {summary['replicates']}/{len(samples)} replicates, "
            f"{reps} requested", out)
    _expect(summary["n_successful"] + summary["n_failed"] == reps,
            f"summary.json: {summary['n_successful']} successful + "
            f"{summary['n_failed']} failed != {reps}", out)


def _table_identities(inputs, docs: dict, out: list[str]) -> None:
    with open(inputs.files["table"], encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    complete = [r for r in table if all(r[c] != "" for c in gen.TABLE_PREDICTORS)]
    fit = docs["fit.json"]
    excluded = fit["rows_excluded_for_missing"]
    _expect(excluded == len(table) - len(complete),
            f"fit.json: {excluded} rows excluded, {len(table) - len(complete)} incomplete", out)
    for model in fit["models"]:
        _expect(model["n"] + excluded == len(table),
                f"fit.json model {model['model']}: n {model['n']} + {excluded} != {len(table)}", out)
    # Intercept-only fit: lambda = mean(y) exactly when sum(fitted) = sum(y).
    y = [int(r["abuse_count"]) for r in complete]
    mean = math.fsum(y) / len(y)
    deviance = 2.0 * math.fsum(v * math.log(v / mean) for v in y if v > 0)
    baselines = [
        a["deviance_baseline"]
        for m in docs["assessment.json"]["models"]
        for a in m["assessments"]
        if a["baseline_kind"] == "intercept_only"
    ]
    _expect(bool(baselines) and all(_close(b, deviance) for b in baselines),
            f"assessment.json: intercept-only deviance {baselines[:1]} != {deviance!r}", out)
    # The generating slopes lie within 6 standard errors of the estimates.
    coefs = {c["term"]: c for c in fit["models"][-1]["coefficients"]}
    for name, truth in zip(gen.TABLE_PREDICTORS, gen.TABLE_SLOPES):
        c = coefs.get(name)
        _expect(c is not None and abs(c["estimate"] - truth) <= 6 * c["se"],
                f"fit.json: {name} estimate {c and c['estimate']} far from true slope {truth}", out)


IDENTITIES = {
    "pipeline-population": _pipeline_identities,
    "pipeline-twins": _pipeline_identities,
    "simulate": _simulate_identities,
    "table-fit": _table_identities,
}


def check_job(inputs, out_dir: Path, digests: dict[str, str], reference: dict | None) -> list[str]:
    """Every problem found in one job's artifacts; empty when they are right."""
    errors: list[str] = []
    docs = {}
    try:
        for name in ARTIFACTS[inputs.workload]:
            content, manifest = read_artifact(out_dir / name)
            docs[name] = content
            _expect(manifest.get("inputs") == digests,
                    f"{name}: manifest inputs {manifest.get('inputs')} != {digests}", errors)
            if reference is not None:
                errors += compare_to_reference(name, reference[name], content)[:5]
        IDENTITIES[inputs.workload](inputs, docs, errors)
    except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    return errors
