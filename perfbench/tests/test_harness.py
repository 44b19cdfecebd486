"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import subprocess
import sys

import pytest

import harness
import reference
import tracing


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 3] and d [4, 5.5]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    root = tr.open("root")
    a = tr.open("a")
    c = tr.open("c")
    tr.close(c)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(root)
    own = tracing.self_times(tr.spans)
    assert [s.parent for s in tr.spans] == [-1, root, a, a, root]
    assert own == pytest.approx([10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2])
    assert sum(own) == pytest.approx(tr.spans[root].duration)


def test_layer_metrics_count_outermost_spans_of_a_group():
    # picard.solve_nonlinear [1, 9] -> solve_linearized [2, 5] -> assemble_stiffness [3, 4],
    # and contraction_metrics [6, 8] -> assemble_mass [6.5, 7]
    tr = tracing.Tracer(clock=FakeClock([0, 0.5, 0.5, 1, 2, 3, 4, 5, 6, 6.5, 7, 8, 9, 10]))
    setup = tr.open("setup")
    tr.close(setup)
    run = tr.open("run")
    names = ["picard.solve_nonlinear", "galerkin.solve_linearized",
             "galerkin.assemble_stiffness"]
    idx = [tr.open(n) for n in names]
    for i in reversed(idx[1:]):
        tr.close(i)
    tr.spans[idx[1]].attrs["steps"] = 7
    contraction = tr.open("picard.contraction_metrics")
    mass = tr.open("galerkin.assemble_mass")
    tr.close(mass)
    tr.close(contraction)
    tr.close(idx[0])
    tr.spans[idx[0]].attrs["iterations"] = 3
    tr.close(run)
    m = tracing.layer_metrics(tr.spans, setup, run)
    assert m["picard.solve_s"] == pytest.approx(8)
    assert m["picard.self_s"] == pytest.approx(8 - 3 - 2)
    assert m["galerkin.march_s"] == pytest.approx(3) and m["galerkin.steps"] == 7
    assert m["galerkin.assemble_s"] == pytest.approx(1.5)
    assert m["galerkin.assemble_calls"] == 2
    assert m["picard.iterations"] == 3 and m["picard.converged_ratio"] == 1.0
    assert m["trace.run_s"] == pytest.approx(9.5)
    assert m["trace.self_sum_s"] == pytest.approx(8)
    assert set(m) | {"trace.overhead_s", "harness.error_rate"} == set(tracing.LAYER_METRICS)


@pytest.fixture(scope="module")
def canonical_ref():
    return reference.load(harness.REFERENCE_DIR / "simulate-canonical.json.gz")


def _energy_cell(record):
    table = record["tables"]["energy.csv"]
    return table["rows"][-1], table["columns"].index("E_total")


def test_comparator_flags_value_beyond_tolerance(canonical_ref):
    assert reference.compare(canonical_ref, copy.deepcopy(canonical_ref)) == []
    within = copy.deepcopy(canonical_ref)
    row, col = _energy_cell(within)
    row[col] *= 1 + 0.1 * reference.RTOL
    assert reference.compare(canonical_ref, within) == []
    beyond = copy.deepcopy(canonical_ref)
    row, col = _energy_cell(beyond)
    row[col] *= 1 + 10 * reference.RTOL
    errors = reference.compare(canonical_ref, beyond)
    assert len(errors) == 1 and "energy.csv" in errors[0]


def test_comparator_is_exact_on_flags_counts_and_nan(canonical_ref):
    def changed(edit):
        got = copy.deepcopy(canonical_ref)
        edit(got)
        return reference.compare(canonical_ref, got)

    energy = canonical_ref["tables"]["energy.csv"]["columns"]
    within = energy.index("within_apriori")
    assert changed(lambda r: r["tables"]["energy.csv"]["rows"][7].__setitem__(within, False))
    assert changed(lambda r: r["tables"]["contraction.csv"]["rows"][2].__setitem__(0, 4))
    assert changed(lambda r: r["tables"]["contraction.csv"]["rows"][0].__setitem__(3, 0.0))
    assert changed(lambda r: r["tables"]["boundary.csv"]["rows"].pop())
    assert changed(lambda r: r["tables"]["boundary.csv"]["rows"][0].pop())
    assert changed(lambda r: r["warnings"].pop())
    assert changed(lambda r: r.__setitem__("exit_code", 1))
    assert changed(lambda r: r["summary"].__setitem__("iterations", 4))
    assert changed(lambda r: r["sha256"].__setitem__("energy.csv", "0" * 64)) == []


def test_sine_reference_keeps_the_ceiling_defect():
    ref = reference.load(harness.REFERENCE_DIR / "simulate-sine-both.json.gz")
    table = ref["tables"]["energy.csv"]
    within = [row[table["columns"].index("within_apriori")] for row in table["rows"]]
    e_total = [row[table["columns"].index("E_total")] for row in table["rows"]]
    assert within[0] is True and within[1:] == [False] * 125
    assert e_total[0] == pytest.approx(5.0e6, rel=0.05)
    assert e_total[2] == pytest.approx(4.6e7, rel=0.05)


def test_wrappers_cover_every_binding_and_are_removed():
    import svfree
    from svfree import cli, galerkin, picard

    originals = (galerkin.solve_linearized, galerkin.assemble_stiffness, cli.emit_report)
    undo = tracing.install(tracing.Tracer())
    try:
        assert picard.solve_linearized is galerkin.solve_linearized
        assert getattr(picard.solve_linearized, tracing.WRAPPER_MARK)
        assert getattr(picard.assemble_stiffness, tracing.WRAPPER_MARK)
        assert getattr(cli.assemble_stiffness, tracing.WRAPPER_MARK)
        assert getattr(cli.fd_oracle_solve, tracing.WRAPPER_MARK)
        assert "svfree.picard.solve_linearized" in tracing.leftover_wrappers()
    finally:
        tracing.uninstall(undo)
    assert tracing.leftover_wrappers() == []
    assert (galerkin.solve_linearized, galerkin.assemble_stiffness, cli.emit_report) == originals
    assert svfree.cli.emit_report is originals[2]


def test_traced_child_removes_wrappers_on_the_exit_path(tmp_path):
    root = harness.HERE.parent
    config = harness.seeded_config(root, harness.BREAKDOWN, 0, tmp_path / "b.json")
    (tmp_path / "w").mkdir()
    run = harness.run_child(root, tmp_path / "w", "t", config,
                            ["simulate", "--config", str(config)], trace=True)
    assert run.exit_code == 2, run.stderr
    assert run.result["leftover_wrappers"] == []
    layers = run.result["layers"]
    assert layers["picard.solves"] == 1 and layers["picard.converged_ratio"] == 0.0
    assert layers["trace.self_sum_s"] <= layers["trace.run_s"]
    spans = (tmp_path / "w" / "spans-t.jsonl").read_text().splitlines()
    assert json.loads(spans[0])[0] == "setup"


def test_repeating_child_checks_every_round(tmp_path):
    root = harness.HERE.parent
    config = harness.seeded_config(root, harness.BREAKDOWN, 0, tmp_path / "b.json")
    (tmp_path / "w").mkdir()
    run = harness.run_child(root, tmp_path / "w", "r", config,
                            ["simulate", "--config", str(config)], run_seconds=2.0)
    rounds = run.rounds()
    n = len(rounds)
    assert n >= 2 and run.result["round_exit_codes"] == [2] * n, run.stderr
    # the rounds stop before the next one would end after run_seconds
    assert sum(run.result["round_run_s"]) <= 2.0
    assert [d.name for d, _, _ in rounds] == ["out-r"] + [f"out-r-round{k}" for k in range(1, n)]
    for out_dir, code, stderr in rounds:
        assert code == 2
        assert json.loads((out_dir / "summary.json").read_text())["converged"] is False
        assert "perfbench: round" not in stderr
    # each round sees the set-up log and its own lines, not the other round's
    assert rounds[0][2].count("\n") == rounds[1][2].count("\n")


def test_empty_directory_exits_nonzero(tmp_path):
    proc = subprocess.run([sys.executable, str(harness.HERE / "run.py"), "--workload",
                           "verify-canonical", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_harness_reports():
    import run

    spec = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
