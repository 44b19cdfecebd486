"""One measured process: import svfree, warm up, call ``svfree.cli.main(argv)``.

Usage (run from the repository root with ``PYTHONPATH=src``)::

    python3 perfbench/child.py --result R.json --warm-config CFG [--run-seconds S] [--trace SPANS.jsonl] -- <cli argv>

Set-up is the import of svfree plus one call to the public ``jet.initial_jet``
on the workload's own problem, which fills the sympy derivation and lambdify
cache that every process pays for. ``cli.main`` then runs once, and again
while the next call (round), taking the median time of the rounds so far,
would end within S seconds of the first; round k writes into ``round_dir(SVFREE_OUT, k)`` and its log follows a
``ROUND_MARK`` line on stderr, so that every round's outputs can be checked.
The process exits with the code the first round returned; the result file is
written only when the harness part of the child ran to the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

T0 = time.perf_counter()
ROUND_MARK = "perfbench: round "


def round_dir(out: str, k: int) -> str:
    """Output directory of round k: SVFREE_OUT itself for the first round."""
    return out if k == 0 else f"{out}-round{k}"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--warm-config", required=True)
    p.add_argument("--run-seconds", type=float, default=0.0,
                   help="call cli.main again while the next call would end in this time")
    p.add_argument("--trace", default=None, help="write spans here and trace the run")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.trace and args.run_seconds > 0:
        p.error("a traced child calls cli.main once")

    from svfree import cli, jet

    import_s = time.perf_counter() - T0

    tracer = undo = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        setup_root = tracer.open("setup")

    cfg = cli.load_config(args.warm_config)
    _, profile, u0 = cli.build_problem(cfg)
    jet.initial_jet(profile, u0)
    setup_s = time.perf_counter() - T0
    setup_cpu_s = time.process_time()

    if tracer is not None:
        tracer.close(setup_root)
        run_root = tracer.open("run")
    out = os.environ["SVFREE_OUT"]
    codes, round_s = [], []
    while not round_s or sum(round_s) + statistics.median(round_s) <= args.run_seconds:
        k = len(round_s)
        os.environ["SVFREE_OUT"] = round_dir(out, k)
        print(f"{ROUND_MARK}{k}", file=sys.stderr, flush=True)
        t_run = time.perf_counter()
        codes.append(cli.main(argv))
        round_s.append(time.perf_counter() - t_run)
        sys.stderr.flush()
        if k == 0:  # the peak of a process that calls cli.main once
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    code = codes[0]
    result = {"import_s": import_s, "setup_s": setup_s, "run_s": statistics.median(round_s),
              "round_run_s": round_s, "round_exit_codes": codes, "exit_code": code,
              "setup_cpu_s": setup_cpu_s, "run_cpu_s": time.process_time() - setup_cpu_s}
    if tracer is not None:
        tracer.close(run_root)
        tracing.uninstall(undo)
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        result["layers"] = tracing.layer_metrics(tracer.spans, setup_root, run_root)
        with open(args.trace, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs]) + "\n")
    result["peak_rss_mb"] = peak_rss_mb
    result["peak_rss_all_rounds_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
