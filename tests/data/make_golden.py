"""Regenerate the golden artifacts under tests/data/golden{,_commands}/.

Runs ``pipeline`` on the fixture (with the alternative abuse feed) and
stores each of the nine artifacts in ``golden/``. Then runs each case of
``GOLDEN_COMMAND_CASES`` (``features`` on the fixture's raw inputs; single
``describe``, ``twins``, ``fit``, ``diagnostics``, ``scenarios`` and
``rank`` commands on the golden ``providers.csv`` and ``twin_dataset.csv``
or on ``single_value.csv``; and a small ``simulate`` run) and stores its
artifacts in ``golden_commands/<case>/``. Every artifact is stored without
its run manifest, which holds input paths. ``tests/test_cli.py`` compares fresh
runs against these bytes. Run from the repository root after an
intended output change:

    PYTHONPATH=src python3 tests/data/make_golden.py
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_cli import (  # noqa: E402
    GOLDEN,
    GOLDEN_COMMAND_CASES,
    GOLDEN_COMMANDS,
    golden_command_argv,
    golden_pipeline_argv,
    strip_manifest,
)

from abusekit.cli import main as cli_main  # noqa: E402


def _store(argv, target: Path) -> None:
    """Run one command and store its stripped artifacts in ``target``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if cli_main(argv(out)) != 0:
            raise SystemExit(f"{argv(out)[0]} failed")
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        for path in sorted(out.iterdir()):
            (target / path.name).write_bytes(strip_manifest(path))
            print(f"wrote {target / path.name}")


def main():
    # The pipeline goes first: the single commands read its tables.
    _store(golden_pipeline_argv, GOLDEN)
    for case in sorted(GOLDEN_COMMAND_CASES):
        _store(lambda out: golden_command_argv(case, out), GOLDEN_COMMANDS / case)


if __name__ == "__main__":
    main()
