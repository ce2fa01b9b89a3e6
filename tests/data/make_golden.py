"""Regenerate, or check, the golden artifacts under tests/data/golden{,_commands}/.

Runs ``pipeline`` on the fixture (with the alternative abuse feed) and
stores each of the nine artifacts in ``golden/``. Then runs each case of
``GOLDEN_COMMAND_CASES`` (``features`` on the fixture's raw inputs; single
``describe``, ``twins``, ``fit``, ``diagnostics``, ``scenarios`` and
``rank`` commands on the golden ``providers.csv`` and ``twin_dataset.csv``
or on ``single_value.csv``; and two small ``simulate`` runs, one of them
from ``sim_config.ini``) and stores its artifacts in
``golden_commands/<case>/``. Every artifact is stored without
its run manifest, which holds input paths. ``tests/test_cli.py`` compares fresh
runs against these bytes. Run from the repository root after an
intended output change:

    PYTHONPATH=src python3 tests/data/make_golden.py

With ``--check`` it reruns every case into a temporary directory and
writes nothing. It prints each number that changed as old -> new with its
relative difference, and any other differing text verbatim, with its line
number, and exits 1 on any difference; the single commands then read the
stored golden tables. For a differing ``fit*.json`` it also says whether
the quantities its models identify still agree: the structure exactly,
and the numbers of ``test_cli.fit_numbers`` at rel 1e-8. Run it before a
regeneration, to see what the regeneration would change:

    PYTHONPATH=src python3 tests/data/make_golden.py --check
"""
from __future__ import annotations

import argparse
import difflib
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_cli import (  # noqa: E402
    GOLDEN,
    GOLDEN_COMMAND_CASES,
    GOLDEN_COMMANDS,
    fit_numbers,
    fit_structure,
    golden_command_argv,
    golden_pipeline_argv,
    strip_manifest,
)

from abusekit.cli import main as cli_main  # noqa: E402

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _line_diff(number: int, old: str, new: str) -> list[str]:
    """Differences of two lines that stand at the same place."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return [f"line {number} old: {old}", f"line {number} new: {new}"]
    out = []
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if a != b:
            x, y = float(a), float(b)
            rel = abs(y - x) / abs(x) if x else math.inf
            out.append(f"line {number}: {a} -> {b} (rel {rel:.1e})")
    return out


def diff_text(old: str, new: str) -> list[str]:
    """Every difference between two artifact texts, one line each.

    Lines are aligned by ``difflib``. An aligned pair whose text outside
    its numbers is equal gives one line per changed number; any other
    changed, removed or added line is given verbatim with its line number
    in the old (``old:``) or new (``new:``) text. Equal texts give [].
    """
    a, b = old.splitlines(), new.splitlines()
    out: list[str] = []
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        if tag == "replace" and i2 - i1 == j2 - j1:
            for k in range(i2 - i1):
                out += _line_diff(i1 + k + 1, a[i1 + k], b[j1 + k])
            continue
        out += [f"line {i + 1} old: {a[i]}" for i in range(i1, i2)]
        out += [f"line {j + 1} new: {b[j]}" for j in range(j1, j2)]
    return out


def identified_verdict(old: str, new: str) -> str:
    """Whether two fit documents agree on what their models identify, as one line."""
    a, b = json.loads(old)["models"], json.loads(new)["models"]
    if fit_structure(a) != fit_structure(b):
        return "identified quantities differ: the structure moved"
    if fit_numbers(a) == pytest.approx(fit_numbers(b), rel=1e-8, abs=1e-12):
        return "identified quantities agree at rel 1e-8"
    return "identified quantities differ beyond rel 1e-8"


def _runs():
    """(target directory, argv builder) of every golden case, pipeline first.

    The pipeline goes first: the single commands read its tables.
    """
    yield GOLDEN, golden_pipeline_argv
    for case in sorted(GOLDEN_COMMAND_CASES):
        yield GOLDEN_COMMANDS / case, lambda out, case=case: golden_command_argv(case, out)


def _artifacts(argv) -> dict[str, bytes]:
    """Run one command in a temporary directory; its stripped artifacts by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if cli_main(argv(out)) != 0:
            raise SystemExit(f"{argv(out)[0]} failed")
        return {path.name: strip_manifest(path) for path in sorted(out.iterdir())}


def _store(target: Path, artifacts: dict[str, bytes]) -> None:
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    for name, data in artifacts.items():
        (target / name).write_bytes(data)
        print(f"wrote {target / name}")


def _check(target: Path, artifacts: dict[str, bytes]) -> int:
    """Print how ``artifacts`` differ from those stored in ``target``; the count."""
    stored = {path.name: path.read_bytes() for path in sorted(target.glob("*"))}
    differing = 0
    for name in sorted(stored.keys() | artifacts.keys()):
        label = target.relative_to(GOLDEN.parent) / name
        if name not in artifacts:
            print(f"{label}: stored but no longer written")
        elif name not in stored:
            print(f"{label}: written but not stored")
        elif artifacts[name] != stored[name]:
            print(f"{label}:")
            old, new = stored[name].decode("utf-8"), artifacts[name].decode("utf-8")
            for line in diff_text(old, new) or ["bytes differ outside the lines"]:
                print(f"  {line}")
            if re.fullmatch(r"fit.*\.json", name):
                print(f"  {identified_verdict(old, new)}")
        else:
            continue
        differing += 1
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh runs with the stored artifacts; write nothing",
    )
    args = parser.parse_args(argv)
    differing = 0
    for target, argv_of in _runs():
        artifacts = _artifacts(argv_of)
        if args.check:
            differing += _check(target, artifacts)
        else:
            _store(target, artifacts)
    if args.check:
        print(f"{differing} artifacts differ" if differing else "no differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
