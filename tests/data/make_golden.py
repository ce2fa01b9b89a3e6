"""Regenerate the golden pipeline artifacts under tests/data/golden/.

Runs ``pipeline`` on the fixture (with the alternative abuse feed) and
stores each of the nine artifacts without its run manifest, which holds
input paths. ``tests/test_cli.py`` compares fresh runs against these
bytes. Run from the repository root after an intended output change:

    PYTHONPATH=src python3 tests/data/make_golden.py
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_cli import GOLDEN, golden_pipeline_argv, strip_manifest  # noqa: E402

from abusekit.cli import main as cli_main  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if cli_main(golden_pipeline_argv(out)) != 0:
            raise SystemExit("pipeline failed")
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for old in GOLDEN.iterdir():
            old.unlink()
        for path in sorted(out.iterdir()):
            (GOLDEN / path.name).write_bytes(strip_manifest(path))
            print(f"wrote {GOLDEN / path.name}")


if __name__ == "__main__":
    main()
