"""Benchmark of svfree's simulate, sweep and verify runs, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload simulate-canonical --seed 1 --seconds 20 --trace 0

One invocation first runs ``configs/breakdown_probe.json`` once (it must exit
with code 2 and write a summary with ``converged=false``), then measures the
workload in one fresh child process, which sets up once and then calls
``cli.main`` again and again (rounds) while the next round, taking the median
time of the rounds so far, would end within ``--seconds`` (at least one
round); every round's outputs are checked against the committed reference in
``perfbench/reference``. The breakdown and measured children run one at a
time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (the time of a process that calls ``cli.main`` once, as the
parent sees it: the median over the breakdown and the measured child of the
time each spent outside ``cli.main``, plus ``run_s``), ``setup_s`` (``import
svfree`` plus the warm-up ``jet.initial_jet`` that fills the sympy cache; the
median over the same two children), ``run_s`` (one call of ``cli.main`` after
set-up; the median over the rounds) and ``peak_rss_mb`` (the measured
child's peak up to the end of its first round).
With ``--trace 1`` one untraced child is followed by one traced child, each
calling ``cli.main`` once; the traced child's per-layer span totals are
reported, and ``trace.overhead_s`` is its wall time minus the untraced one's.
Earlier stdout lines record the environment, the calibration kernel and steal
ticks, the breakdown check and every child.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import reference
import tracing

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
SELF_TIME_SLACK_S = 1e-6
# children are killed once an invocation has run this long, so it ends within 180 s
DEADLINE_S = 165.0


def _parse(argv):
    p = argparse.ArgumentParser(description="svfree end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _missing(root: Path, name: str) -> list[str]:
    needed = [root / "src" / "svfree" / "cli.py",
              root / harness.WORKLOADS[name].config,
              root / harness.BREAKDOWN.config,
              harness.REFERENCE_DIR / f"{name}.json.gz"]
    return [str(p) for p in needed if not p.is_file()]


def _check_breakdown(run: harness.ChildRun) -> dict:
    try:
        converged = json.loads((run.out_dir / "summary.json").read_text()).get("converged")
    except (OSError, ValueError, AttributeError):  # missing or malformed summary
        converged = None
    ok = run.result is not None and run.exit_code == 2 and converged is False
    return {"passed": ok, "exit_code": run.exit_code, "converged": converged,
            "wall_s": run.wall_s, "setup_s": run.result["setup_s"] if run.result else None}


def _check_rep(run: harness.ChildRun, ref: dict) -> dict:
    rec = {"wall_s": run.wall_s, "exit_code": run.exit_code}
    if run.result is None:
        rec["errors"] = [f"child did not finish: {run.stderr.strip()[-500:]}"]
        return rec
    rec.update({k: run.result[k] for k in ("import_s", "setup_s", "run_s", "round_run_s",
                                            "setup_cpu_s", "run_cpu_s", "peak_rss_mb",
                                            "peak_rss_all_rounds_mb")})
    errors, got = [], None
    for k, (out_dir, code, stderr) in enumerate(run.rounds()):
        try:
            got = reference.capture(out_dir, code, stderr)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output files
            errors.append(f"round {k}: outputs unreadable: {type(exc).__name__}: {exc}")
            continue
        errors += [f"round {k}: {e}" if k else e for e in reference.compare(ref, got)]
    if not run.rounds():
        errors.append("child reported no rounds")
    if run.result.get("leftover_wrappers"):
        errors.append(f"wrappers left installed: {run.result['leftover_wrappers']}")
    layers = run.result.get("layers")
    if layers and layers["trace.self_sum_s"] > layers["trace.run_s"] + SELF_TIME_SLACK_S:
        errors.append("summed self times exceed the traced run_s")
    rec["errors"] = errors[:5] + ([f"... {len(errors) - 5} more"] if len(errors) > 5 else [])
    rec["sha256_changed"] = reference.digest_changes(ref, got) if got else None
    return rec


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool):
    deadline = time.perf_counter() + DEADLINE_S

    def child(tag, warm_config, cli_argv, run_seconds=0.0, traced=False):
        return harness.run_child(root, work, tag, warm_config, cli_argv, run_seconds=run_seconds,
                                 trace=traced, timeout=deadline - time.perf_counter())

    workload = harness.WORKLOADS[name]
    ref = reference.load(harness.REFERENCE_DIR / f"{name}.json.gz")
    config = harness.seeded_config(root, workload, seed, work / "config.json")
    b_config = harness.seeded_config(root, harness.BREAKDOWN, seed, work / "breakdown.json")
    argv = [*workload.argv, "--config", str(config)]

    steal0, calib0 = harness.steal_ticks(), harness.calibration_s()
    # the breakdown child warms up on the workload's problem: one more set-up sample
    b_run = child("breakdown", config, [*harness.BREAKDOWN.argv, "--config", str(b_config)])
    breakdown = _check_breakdown(b_run)

    # one measured child, which repeats cli.main for the run's seconds; the
    # traced run compares one untraced call of cli.main with one traced call
    runs = [child("rep0", config, argv, 0.0 if trace else seconds)]
    traced = child("traced", config, argv, traced=True) if trace else None

    reps = [_check_rep(r, ref) for r in runs + ([traced] if traced else [])]
    steal1, calib1 = harness.steal_ticks(), harness.calibration_s()
    failed = sum(1 for r in reps if r["errors"]) + (0 if breakdown["passed"] else 1)
    attempted = len(reps) + 1
    record = {
        "workload": name, "seed": seed, "breakdown_probe": breakdown, "children": reps,
        "calibration_s": [calib0, calib1],
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
    }

    good = [r for r, rec in zip(runs, reps) if not rec["errors"]]
    if trace:
        if traced.result is None or "layers" not in traced.result or not good:
            return record, None
        metrics = dict(traced.result["layers"])
        metrics["trace.overhead_s"] = traced.wall_s - good[0].wall_s
        metrics["harness.error_rate"] = failed / attempted
        metrics = {k: _metric(metrics[k], u) for k, u in tracing.LAYER_METRICS.items()}
    else:
        if not good:
            return record, None
        started = [r for r in [b_run, *good] if r.result is not None]
        run_s = statistics.median(t for r in good for t in r.result["round_run_s"])
        # a user's process calls cli.main once: the time a process spends outside
        # cli.main (start, set-up, exit) plus one median call
        outside = [r.wall_s - sum(r.result["round_run_s"]) for r in started]
        values = {
            "wall_s": statistics.median(outside) + run_s,
            "setup_s": statistics.median(r.result["setup_s"] for r in started),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in good),
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    # a terminated benchmark still kills and waits for its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    root = Path.cwd()
    missing = _missing(root, args.workload)
    if missing:
        print(f"perfbench: not a complete svfree checkout, missing: {missing}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("perfbench env " + json.dumps(harness.environment(root)), flush=True)
        record, result = measure(root, work, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
        print("perfbench record " + json.dumps(record), flush=True)
        if result is None:
            print("perfbench: no child produced timings", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
