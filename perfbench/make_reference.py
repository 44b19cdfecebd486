"""Regenerate the committed output reference of every workload.

Run from the repository root::

    python3 perfbench/make_reference.py [--dest DIR]

Only overwrite the committed reference when a change is meant to alter the
outputs, and say so in the change: it is what every benchmark run is checked
against. ``--dest`` writes the records elsewhere, for instance to compare the
outputs under another BLAS kernel with ``reference.compare``.
"""

from __future__ import annotations

import argparse
import os
import shutil
from pathlib import Path

import harness
import reference


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dest", type=Path, default=harness.REFERENCE_DIR)
    args = p.parse_args()
    root = Path.cwd()
    work = root / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, workload in harness.WORKLOADS.items():
            config = harness.seeded_config(root, workload, 0, work / f"{name}.json")
            run = harness.run_child(root, work, name, config,
                                     [*workload.argv, "--config", str(config)])
            if run.result is None:
                raise SystemExit(f"{name}: child failed (exit {run.exit_code}):\n{run.stderr[-2000:]}")
            record = reference.capture(run.out_dir, run.exit_code, run.stderr)
            record["argv"] = [*workload.argv, "--config", workload.config]
            reference.save(record, args.dest / f"{name}.json.gz")
            print(f"{name}: exit {run.exit_code}, {len(record['files'])} files, "
                  f"{run.wall_s:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
