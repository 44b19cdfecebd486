"""Workloads, the child-process runner and the environment block.

Each child is a fresh interpreter started from the repository root with
``PYTHONPATH=src`` and ``SVFREE_OUT`` pointing into the caller's work directory
(``.perfbench_work/`` under the root, removed when the run ends), so a run
leaves no output in the tree. Children run one at a time; the harness starts
no threads, pins no CPU, drops no cache and changes no machine setting.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    config: str  # repository-relative path of the shipped config
    argv: tuple  # cli.main argv before "--config <file>"


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "simulate-canonical": Workload("configs/canonical.json", ("simulate",)),
    "sweep-canonical": Workload("configs/canonical.json", ("sweep", "T=0.01:0.2:8")),
    "verify-canonical": Workload("configs/canonical.json", ("verify",)),
    "simulate-sine-both": Workload("configs/sine_compatible.json", ("simulate",)),
}

# run once per invocation: must exit 2 with summary.json converged=false
BREAKDOWN = Workload("configs/breakdown_probe.json", ("simulate",))


def seeded_config(root: Path, workload: Workload, seed: int, dest: Path) -> Path:
    """The workload's config with its keys in a seed-chosen order.

    The shipped configs pin the problem so that outputs can be checked against
    the committed reference; the seed varies only the input bytes, and the
    outputs must not depend on it.
    """
    data = json.loads((root / workload.config).read_text())
    keys = list(data)
    random.Random(seed).shuffle(keys)
    dest.write_text(json.dumps({k: data[k] for k in keys}, indent=1) + "\n")
    return dest


@dataclass
class ChildRun:
    wall_s: float
    exit_code: int
    result: dict | None  # None when the child harness did not finish
    stderr: str
    out_dir: Path

    def rounds(self) -> list[tuple[Path, int, str]]:
        """(output directory, exit code, stderr) of each round of cli.main.

        A round's stderr is what the child logged before the first round
        (set-up) followed by that round's own lines.
        """
        if self.result is None:
            return []
        head, *parts = self.stderr.split(child.ROUND_MARK)
        texts = [head + part.partition("\n")[2] for part in parts]
        return [(Path(child.round_dir(str(self.out_dir), k)), code, text)
                for k, (code, text) in enumerate(zip(self.result["round_exit_codes"], texts))]


def run_child(root: Path, work: Path, tag: str, warm_config: Path, argv, *,
              run_seconds: float = 0.0, trace: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Start one child that warms up on warm_config and runs cli.main(argv).

    The child calls cli.main again while the next call, taking the median
    time of the calls so far, would end within run_seconds of the first.

    A child still running after timeout seconds is killed and counts as failed.
    """
    out_dir = work / f"out-{tag}"
    out_dir.mkdir(parents=True)
    result_path = work / f"result-{tag}.json"
    cmd = [sys.executable, str(CHILD), "--result", str(result_path),
           "--warm-config", str(warm_config), "--run-seconds", str(run_seconds)]
    if trace:
        cmd += ["--trace", str(work / f"spans-{tag}.jsonl")]
    cmd += ["--", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SVFREE_OUT"] = str(out_dir)
    env["TMPDIR"] = str(work)
    stdout_path, stderr_path = work / f"stdout-{tag}.txt", work / f"stderr-{tag}.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    # a killed child has a negative exit code, which no reference accepts
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return ChildRun(wall, proc.returncode, result, stderr_path.read_text(errors="replace"),
                    out_dir)


def calibration_s() -> float:
    """Time of a fixed CPU kernel (numpy and pure Python) to tell host drift apart."""
    import numpy as np

    a = np.arange(160 * 160, dtype=float).reshape(160, 160) / 1e4
    start = time.perf_counter()
    for _ in range(200):
        a = np.tanh(a @ a.T / 160.0)
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def steal_ticks() -> int | None:
    """Host steal ticks summed over CPUs, read from /proc/stat (read-only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    import numpy as np

    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "versions": versions,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": src_lines(root),
        "machine_settings": "the harness pins no CPU, drops no cache and changes no machine setting",
    }
