"""Regenerate the stored reference artifacts of each workload's default seed.

Run from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

The references (``reference/<workload>.json.gz``) hold each artifact
without its manifest; ``check.py`` compares later runs against them.
"""
from __future__ import annotations

import shutil
import sys
import warnings
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import abusekit.cli as cli

    warnings.simplefilter("ignore")
    work = ROOT / ".perfbench-work" / "reference"
    for name in workloads.NAMES:
        shutil.rmtree(work / name, ignore_errors=True)
        inputs = workloads.prepare(name, workloads.DEFAULT_SEED, work / name / "inputs")
        out = work / name / "out"
        if cli.main(inputs.argv(out)) != 0:
            print(f"{name}: job failed", file=sys.stderr)
            return 1
        digests = {str(p): check.sha256_file(p) for p in inputs.files.values()}
        errors = check.check_job(inputs, out, digests, None)
        if errors:
            print(f"{name}: {errors}", file=sys.stderr)
            return 1
        print(f"{name}: wrote {check.write_reference(name, out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
