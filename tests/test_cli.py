import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svfree import checks, cli, eulerian, jet, picard, weighted_calculus as wc
from svfree.cli import (
    ENERGY_COLUMNS,
    RunConfig,
    RunSummary,
    build_problem,
    config_from_dict,
    emit_report,
    load_config,
    main,
    parse_sweep_range,
    run_simulation,
    run_verification_suite,
)
from svfree._series import N_TERMS
from svfree.errors import ConfigurationError, NonConvergenceError, SvfreeError
from svfree.galerkin import n_steps_for, stored_index
from svfree.picard import ContractionReport, PicardSettings
from svfree.profile import AnalyticField, build_grid

SMALL = {
    "profile": {"kind": "parabolic", "amplitude": 1.0},
    "u0": {"kind": "zero"},
    "n_nodes": 101,
    "n_modes": 8,
    "dt": 5e-4,
    "t_final": 5e-3,
    "emit": {"energy": True, "contraction": True, "snapshots": 2, "boundary": False},
}


def _write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, {}))
        assert cfg.n_modes == 32
        assert cfg.dt == 1e-4
        assert cfg.t_final == 0.05
        assert cfg.picard_tol == 1e-10
        assert cfg.max_iter == 50
        assert cfg.scheme == "implicit-euler"
        assert cfg.profile["kind"] == "parabolic"

    def test_zero_dt_names_field(self, tmp_path):
        with pytest.raises(ConfigurationError, match="'dt'"):
            load_config(_write_config(tmp_path, {"dt": 0}))

    def test_canonical_step_count(self, tmp_path):
        cfg = load_config(_write_config(tmp_path, {"t_final": 0.05, "dt": 1e-4}))
        assert cfg.n_steps() == 500

    def test_nonuniform_step_split_rejected(self):
        with pytest.raises(ConfigurationError, match="t_final"):
            config_from_dict({"t_final": 0.05, "dt": 3e-4})

    def test_config_and_solver_share_one_step_count_rule(self):
        # 500 steps of 1e-4 miss this t_final by 3e-10: the times a solver stores
        # for it do not hold its own step time 500 * dt = 0.05
        t_final = 0.05 + 3e-10
        with pytest.raises(ConfigurationError, match="'t_final'/'dt'"):
            n_steps_for(t_final, 1e-4)
        with pytest.raises(ConfigurationError, match="'t_final'/'dt'"):
            config_from_dict({"t_final": t_final, "dt": 1e-4})

    def test_every_solver_setting_is_a_config_field(self):
        # a PicardSettings field that RunConfig lacks is a knob no run can set
        settings = {f.name for f in dataclasses.fields(PicardSettings)}
        assert settings <= {f.name for f in dataclasses.fields(RunConfig)}

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_dict({"dt": 1e-4, "length": 2.0})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(p)

    def test_bad_scheme(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            config_from_dict({"scheme": "rk4"})


class TestEmitReport:
    def test_energy_header(self, tmp_path):
        path = emit_report("energy", [], tmp_path / "energy.csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(ENERGY_COLUMNS)
        assert header.startswith("t,")
        assert header.endswith("E_total,lowE_total,within_apriori")

    def test_empty_contraction_header_only(self, tmp_path):
        path = emit_report("contraction", [], tmp_path / "c.csv")
        assert path.read_text() == "iteration,sup_diff,grad_diff,ratio\n"

    def test_contraction_rows(self, tmp_path):
        reps = [ContractionReport(1, 1e-3, 2e-3, float("nan"))]
        path = emit_report("contraction", reps, tmp_path / "c.csv")
        lines = path.read_text().splitlines()
        assert lines[1].startswith("1,0.001")

    def test_summary_round_trip(self, tmp_path):
        s = RunSummary(True, 3, 0.5, 0.9, 1.1, 2.0, 0.1)
        path = emit_report("summary", s, tmp_path / "s.json")
        data = json.loads(path.read_text())
        assert data["converged"] is True
        assert data["iterations"] == 3
        assert data["eta_x_min"] == 0.9
        assert data["schema_version"] == 1

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report("plot", [], tmp_path / "x")


def _fmt_rule(x) -> str:
    """The text of one CSV cell: true/false for a flag, str(int) for an integer, else %.17g."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


_FLOATS = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0 and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072e-308]),
)
_INTS = st.integers(-(2**53), 2**53)
_NUMBERS = st.one_of(_FLOATS, _FLOATS.map(np.float64), _INTS, _INTS.map(np.int64))


@given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(st.tuples(*[_NUMBERS] * width), max_size=4)))
def test_csv_cells_follow_the_cell_rule(rows):
    # one row format per table prints every number as the cell rule does
    width = len(rows[0]) if rows else 1
    columns = [f"c{i}" for i in range(width)]
    lines = "".join(cli._csv(columns, rows)).splitlines()
    assert lines[0] == ",".join(columns)
    assert [line.split(",") for line in lines[1:]] == [[_fmt_rule(x) for x in row] for row in rows]


@given(rows=st.lists(st.tuples(_FLOATS, st.booleans(), st.one_of(_INTS, _INTS.map(np.int64)),
                               _FLOATS, _FLOATS, _FLOATS, st.booleans()), max_size=4),
       flags=st.lists(st.booleans(), max_size=4))
def test_flag_columns_follow_the_cell_rule(rows, flags):
    # sweep.csv and energy.csv hold the three flag columns
    lines = "".join(cli._WRITERS["sweep"](rows)).splitlines()[1:]
    assert [line.split(",") for line in lines] == [[_fmt_rule(x) for x in row] for row in rows]
    summands = dict.fromkeys([*jet.E_SUMMAND_WEIGHTS, *jet.LOW_SUMMAND_WEIGHTS], 0.5)
    reps = [jet.EnergyReport(0.25, summands, 1.5, -0.0, 1.0, flag, False) for flag in flags]
    lines = "".join(cli._WRITERS["energy"](reps)).splitlines()[1:]
    assert [line.split(",")[-1] for line in lines] == [_fmt_rule(flag) for flag in flags]


class TestRunSimulation:
    def test_small_run_emits_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SVFREE_OUT", raising=False)
        cfg = config_from_dict({**SMALL, "out_dir": str(tmp_path / "out")})
        summary = run_simulation(cfg)
        assert summary.converged
        assert summary.eta_x_min >= 0.5
        out = tmp_path / "out"
        for name in ("energy.csv", "contraction.csv", "summary.json",
                     "snapshot_000.csv", "snapshot_000.json", "trajectory.csv"):
            assert (out / name).exists(), name

    def test_csv_outputs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SVFREE_OUT", raising=False)
        outs = []
        for sub in ("a", "b"):
            cfg = config_from_dict({**SMALL, "out_dir": str(tmp_path / sub)})
            run_simulation(cfg)
            outs.append(tmp_path / sub)
        for name in ("energy.csv", "contraction.csv", "snapshot_001.csv", "trajectory.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv("SVFREE_OUT", str(target))
        cfg = config_from_dict({**SMALL, "out_dir": str(tmp_path / "ignored")})
        run_simulation(cfg)
        assert (target / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_both_solvers_emit_diff(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SVFREE_OUT", raising=False)
        cfg = config_from_dict(
            {**SMALL, "solver": "both", "out_dir": str(tmp_path / "out")}
        )
        run_simulation(cfg)
        out = tmp_path / "out"
        assert (out / "trajectory_galerkin.csv").exists()
        assert (out / "trajectory_fd.csv").exists()
        diff = json.loads((out / "diff.json").read_text())
        assert diff["final_weighted_l2_diff"] < 1e-3


VERIFY_CHECK_ORDER = [
    "grid-uniformity", "physical-vacuum", "quadrature-cubic-exactness",
    "spectral-derivative-consistency", "basis-orthonormality",
    "assembly-mass-closed-form", "assembly-stiffness-closed-form", "forcing-zero-mode",
    "weighted-sobolev-family", "h-half-weighted-family", "interpolation-inequality-family",
    "sobolev-embedding-quarter", "interpolation-identity-gap", "identity-refinement-rate",
    "norm-homogeneity", "energy-identity-residual", "contraction-monotonicity", "eta-bound",
    "mass-conservation", "roundtrip-inverse-map", "boundary-neumann-spectral",
    "apriori-ceiling", "embedding-constants",
]


class TestVerificationSuite:
    def test_default_config_all_pass(self, tmp_path):
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})
        rows = run_verification_suite(cfg)
        failed = [c.name for c in rows if not c.passed]
        assert failed == []
        assert [c.name for c in rows] == VERIFY_CHECK_ORDER

    def test_one_energy_pass(self):
        # embedding-constants reads E(T) from the apriori-ceiling sample, which ends at T
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})
        with mock.patch.object(jet, "energy_reports", wraps=jet.energy_reports) as reports:
            run_verification_suite(cfg)
        assert reports.call_count == 1

    def test_roundtrip_row_catches_an_inverse_without_newton(self):
        # the piecewise-linear start alone is O(h^2) off between the nodes
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})

        def linear_start(flow, y):
            return np.interp(y, flow.row, flow.nodes)

        with mock.patch.object(eulerian._FlowMap, "inverse", linear_start):
            rows = {c.name: c for c in run_verification_suite(cfg)}
        assert not rows["roundtrip-inverse-map"].passed

    def test_small_run_keeps_a_high_cosine_mode(self):
        # a cosine u0 of mode 20 lives on the 21 modes of the small run: it is
        # not projected away, so the run judges the configured problem
        base = json.loads((Path(__file__).parents[1] / "configs" / "canonical.json").read_text())
        details = {}
        for label, u0 in (("zero", {"kind": "zero"}),
                          ("mode 20", {"kind": "cosine", "amplitude": 0.5, "mode": 20})):
            rows = {c.name: c for c in run_verification_suite(config_from_dict({**base, "u0": u0}))}
            details[label] = rows["embedding-constants"].detail
        assert details["mode 20"] != details["zero"]

    def test_small_run_keeps_a_custom_velocity_whole(self):
        # an expression's mode content is not known, so a nonzero custom u0
        # runs on every configured mode; at 16 it would read as u0 = 0
        base = json.loads((Path(__file__).parents[1] / "configs" / "canonical.json").read_text())
        details = {}
        for label, u0 in (("zero", {"kind": "zero"}),
                          ("custom", {"kind": "custom", "expr": "cos(20*pi*x)/2"})):
            rows = {c.name: c for c in run_verification_suite(config_from_dict({**base, "u0": u0}))}
            details[label] = rows["embedding-constants"].detail
        assert details["custom"] != details["zero"]

    def test_closed_form_rows_pass_on_a_coarse_config(self):
        # the closed-form rows judge the assembly on their own 401-node grid,
        # not Simpson's error on the config's 101 nodes
        rows = {c.name: c for c in run_verification_suite(config_from_dict({"n_nodes": 101, "n_modes": 16}))}
        assert rows["assembly-stiffness-closed-form"].passed, rows["assembly-stiffness-closed-form"].detail

    def test_corrupted_profile_fails_by_name(self):
        from svfree.profile import sample_height_profile

        corrupted = sample_height_profile("parabolic", {"amplitude": 1.0}, build_grid(201))
        corrupted.values[0] = 0.05  # boundary vacuum broken
        row = checks.physical_vacuum(corrupted)
        assert row.name == "physical-vacuum" and not row.passed

    def test_nonvanishing_boundary_fails_physical_vacuum(self):
        from svfree.profile import HeightProfile

        lifted = HeightProfile("custom", "x*(1-x) + 1/10", build_grid(201), c1=0.1, c2=1.0)
        row = checks.physical_vacuum(lifted)
        assert not row.passed and "vanish" in row.detail

    def test_refinement_rate_fails_when_it_measures_nothing(self):
        # no family member has a gap above 1e-14 at n=101: no rate is measured
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})
        with mock.patch.object(wc, "interpolation_identity_gaps", return_value=np.zeros(10)):
            rows = {c.name: c for c in run_verification_suite(cfg)}
        assert rows["interpolation-identity-gap"].passed
        assert not rows["identity-refinement-rate"].passed

    def test_failed_nonlinear_run_keeps_the_static_rows(self):
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})
        stalled = NonConvergenceError("no fixed point in 50 iterations")
        with mock.patch.object(picard, "solve_nonlinear", side_effect=stalled):
            rows = run_verification_suite(cfg)
        assert [c.name for c in rows] == VERIFY_CHECK_ORDER[:16] + ["nonlinear-run"]
        assert all(c.passed for c in rows[:16])
        assert not rows[-1].passed
        assert rows[-1].detail == "small nonlinear run failed: no fixed point in 50 iterations"

    def test_failed_energy_pass_keeps_the_solution_rows(self):
        cfg = config_from_dict({**SMALL, "n_nodes": 201, "n_modes": 16})
        with mock.patch.object(jet, "energy_reports", side_effect=SvfreeError("pole")):
            rows = run_verification_suite(cfg)
        assert [c.name for c in rows] == VERIFY_CHECK_ORDER[:21] + ["nonlinear-run"]
        assert all(c.passed for c in rows[:21])
        assert rows[-1].detail == "small nonlinear run failed: pole"


class TestSweep:
    def test_parse_range(self):
        vals = parse_sweep_range("T=0.01:0.03:3")
        assert np.allclose(vals, [0.01, 0.02, 0.03])

    def test_bad_specs(self):
        for spec in ("x=1:2:3", "T=1:2", "T=2:1:3", "T=0:1:2", "T=nan:nan:2", "T=0.01:inf:2",
                     "T=0.01:0.02:1000000000000"):
            with pytest.raises(ConfigurationError):
                parse_sweep_range(spec)


class TestMainExitCodes:
    def test_config_error_is_3(self, tmp_path, capsys):
        bad = _write_config(tmp_path, {"dt": -1})
        assert main(["simulate", "--config", str(bad)]) == 3

    @pytest.mark.parametrize("patch, field", [
        ({"n_nodes": 21.0}, "n_nodes"),
        ({"n_modes": 4.0}, "n_modes"),
        ({"dt": True, "t_final": 2.0}, "dt"),
        ({"max_iter": True}, "max_iter"),
        ({"windows": 1}, "windows"),
        ({"emit": {"snapshots": True}}, "snapshots"),
        ({"emit": 5}, "emit"),
        ({"out_dir": 5}, "out_dir"),
        ({"u0": {"kind": "cosine", "mode": 1.5}}, "mode"),
        ({"u0": {"kind": "cosine", "mode": True}}, "mode"),
        ({"u0": {"kind": "cosine", "amplitude": "big"}}, "amplitude"),
        ({"profile": {"kind": "parabolic", "amplitude": "big"}}, "amplitude"),
        ({"profile": {"kind": "sine", "amplitude": True}}, "amplitude"),
        ({"profile": {"kind": "parabolic", "amplitud": 5.0}}, "amplitud"),
        ({"u0": {"kind": "cosine", "amplitude": 0.5, "modes": 2}}, "modes"),
        ({"profile": {"kind": "custom", "expr": "x*(1-x"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "__import__('os')"}}, "expr"),
        ({"n_nodes": 21, "n_modes": 40}, "n_modes"),
        ({"profile": {"kind": "custom", "expr": "10**10**10"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "2**(10**10)"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "(" * 9 + "10**10" + ")**10" * 9}}, "expr"),
        ({"dt": 1e-300, "t_final": 0.05}, "dt"),
        ({"u0": {"kind": "custom", "expr": "1/(x-x)"}}, "expr"),
        ({"u0": {"kind": "custom", "expr": "sqrt(x)"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "x*(1-x)*(sqrt(x)+2)"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "x*(1-x)*(tan(pi*x/2)+2)"}}, "expr"),
        ({"profile": {"kind": "distance"}}, "profile"),
        ({"profile": {"kind": "sine", "amplitude": True}}, "profile"),
        ({"u0": {"kind": "cosine", "amplitude": "big"}}, "velocity"),
        ({"n_nodes": 21, "n_modes": 4, "u0": {"kind": "cosine", "mode": 4}}, "u0"),
        ({"max_iter": 1}, "max_iter"),
        ({"scheme": "rk4"}, "scheme"),
        ({"solver": ["galerkin"]}, "solver"),
        ({"initial_guess": "zero"}, "initial_guess"),
        ({"u0": "zero"}, "'u0'"),
        ({"emit": {"energy": 1}}, "emit.energy"),
        ({"profile": {"kind": "custom"}}, "expr"),
        ({"u0": {"kind": "custom"}}, "expr"),
        ({"u0": {"kind": "sawtooth"}}, "velocity kind"),
        ({"profile": {"kind": "custom", "expr": "x*(1-x)*(x-0.5)**2"}}, "height profile"),
        ({"u0": {"kind": "custom", "expr": "E(1)"}}, "expr"),
        ({"u0": {"kind": "custom", "expr": "x(x)"}}, "expr"),
        ({"schema_version": 2}, "schema_version"),
        ({"schema_version": "x"}, "schema_version"),
        ({"schema_version": True}, "schema_version"),
        ({"schema_version": 1.0}, "schema_version"),
        # poles that floats see only as 1/6.1e-17 and 1/1.2e-16 at x = 1
        ({"profile": {"kind": "custom", "expr": "x*(1-x)*(2 + 1/cos(pi*x/2))"}}, "expr"),
        ({"profile": {"kind": "custom", "expr": "x*(1-x)*(2 + 1/sin(pi*(x+1)/2))"}}, "expr"),
    ])
    def test_bad_field_type_is_3_and_named(self, tmp_path, monkeypatch, capsys, patch, field):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {**SMALL, **patch})
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["verify"], ["sweep", "T=0.002:0.004:2"]])
    def test_bad_profile_makes_no_out_dir(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {**SMALL, "profile": {"kind": "sine", "amplitude": -1}})
        assert main([*argv, "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("expr", ["1/(x-x)", "log(x-x)", "(x-x)**-1"])
    def test_not_finite_expr_quotes_the_config_text(self, tmp_path, monkeypatch, capsys, expr):
        # sympy reduces all three to zoo before any derivative is taken
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {**SMALL, "u0": {"kind": "custom", "expr": expr}})
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert f"'expr' {expr!r} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["simulate"], ["verify"], ["sweep", "T=0.002:0.004:2"]])
    @pytest.mark.parametrize("inside", [False, True])
    def test_out_dir_that_cannot_be_made_is_3(self, tmp_path, monkeypatch, capsys, argv, inside):
        # a regular file where the directory, or one of its parents, should be
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("SVFREE_OUT", str(blocker / "out" if inside else blocker))
        cfg = _write_config(tmp_path, SMALL)
        assert main([*argv, "--config", str(cfg)]) == 3
        assert "'out_dir'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("expr", [
        "x*(1-x)*(1 + x**11.5)",  # its derivative of order 13 is infinite at x = 0
        "x*(1-x)*(2 + sqrt((x-0.5)**2)**5)",  # numpy has no DiracDelta for order 2
    ])
    def test_profile_the_monitor_cannot_read_is_3_before_out_dir(
        self, tmp_path, monkeypatch, capsys, command, expr
    ):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {
            "profile": {"kind": "custom", "expr": expr},
            "n_nodes": 101, "n_modes": 8, "dt": 1e-3, "t_final": 0.005,
        })
        assert main([command, "--config", str(cfg)]) == 3
        assert "'expr'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_ok_is_0(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_steep_custom_profile_runs(self, tmp_path, monkeypatch):
        # rho0 = x(1-x)e^(10x): its endpoint derivatives reach 1e17 by order
        # 17, and the slopes 1 and e^10 survive into the boundary report
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {
            "profile": {"kind": "custom", "expr": "x*(1-x)*exp(10*x)"},
            "u0": {"kind": "zero"},
            "n_nodes": 101, "n_modes": 8, "dt": 1e-4, "t_final": 0.001,
            "emit": {"energy": True, "contraction": True, "snapshots": 0, "boundary": True},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "boundary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert float(rows[0]["soundspeed_slope_left"]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[0]["soundspeed_slope_right"]) == pytest.approx(math.exp(10.0), rel=1e-12)

    def test_breakdown_is_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(
            tmp_path,
            {**SMALL, "t_final": 10.0, "dt": 0.01, "max_iter": 6},
        )
        assert main(["simulate", "--config", str(cfg)]) == 2
        # partial summary still written
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["converged"] is False

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-nodes", "abc"], ["simulate", "--bogus"], ["simulate", "--n-nodes", "101"],
    ])
    def test_usage_error_is_3(self, tmp_path, monkeypatch, capsys, argv):
        # --config is the only flag; config fields have no command-line spelling
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error:" in err
        assert f"unrecognized arguments: {argv[1]}" in err

    def test_help_is_0(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_sweep_flag_is_gone(self, tmp_path, monkeypatch, capsys):
        # the range is the positional spec; a second spelling was silently ignored
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        assert main(["sweep", "T=0.002:0.004:2", "--sweep", "T=1:2:1", "--config", str(cfg)]) == 3
        assert "unrecognized arguments: --sweep" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_needs_spec(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        assert main(["sweep", "--config", str(cfg)]) == 3

    def test_oversized_sweep_point_is_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        assert main(["sweep", "T=0.01:1e300:2", "--config", str(cfg)]) == 3
        assert "t_final" in capsys.readouterr().err

    def test_sweep_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        assert main(["sweep", "T=0.002:0.004:2", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["verify"], ["sweep", "T=0.002:0.004:2"]])
    @pytest.mark.parametrize("content", ["directory", b"\xff{}", b"[" * 100_000 + b"]" * 100_000, ""],
                             ids=["directory", "not-utf8", "nested-100000-deep", "empty-path"])
    def test_unreadable_config_is_3_before_out_dir(self, tmp_path, monkeypatch, capsys, argv, content):
        # "" is the empty path: a file name to read, not "use the defaults"
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        path = tmp_path / "config.json"
        if content == "directory":
            path.mkdir()
        elif content == "":
            path = ""
        else:
            path.write_bytes(content)
        assert main([*argv, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{path}'" in err
        assert not (tmp_path / "out").exists()

    def test_config_without_read_permission_is_3(self, tmp_path, monkeypatch, capsys):
        # open raises as it does for a file of mode 0, which root could still read
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, SMALL)
        denied = mock.Mock(side_effect=PermissionError(13, "Permission denied", str(cfg)))
        with mock.patch("svfree.cli.open", denied, create=True):
            assert main(["simulate", "--config", str(cfg)]) == 3
        assert denied.call_count == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{cfg}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["verify"], ["sweep", "T=0.002:0.004:2"]])
    @pytest.mark.parametrize("profile, power", [
        ({"kind": "parabolic", "amplitude": 1e300}, 2),
        ({"kind": "sine", "amplitude": 1e200}, 2),
        ({"kind": "parabolic", "amplitude": 1e60}, 6),  # only rho0**6 overflows
    ])
    def test_overflowing_profile_weight_is_3_before_out_dir(
        self, tmp_path, monkeypatch, capsys, argv, profile, power
    ):
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {**SMALL, "profile": profile})
        assert main([*argv, "--config", str(cfg)]) == 3
        assert f"config field 'profile': its weight rho0**{power} overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["verify"], ["sweep", "T=0.002:0.004:2"]])
    def test_overflowing_profile_slope_is_3_before_out_dir(self, tmp_path, monkeypatch, capsys, argv):
        # 2a overflows, so the slope a - 2a*x is inf*0 at x = 0: a nan, not a
        # numpy warning, which filterwarnings = error would raise
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {**SMALL, "profile": {"kind": "parabolic", "amplitude": 1e308}})
        assert main([*argv, "--config", str(cfg)]) == 3
        assert "is not finite: its derivative of order 1 at a grid node" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_sweep_spec_is_a_usage_error(self, capsys):
        assert main(["sweep"]) == 3
        assert "the following arguments are required: sweep_spec" in capsys.readouterr().err


class TestFdOracleSolverPath:
    def test_fd_only_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SVFREE_OUT", raising=False)
        cfg = config_from_dict(
            {**SMALL, "solver": "fd-oracle",
             "emit": {"energy": False, "contraction": False, "snapshots": 2, "boundary": True},
             "out_dir": str(tmp_path / "out")}
        )
        summary = run_simulation(cfg)
        assert summary.converged
        out = tmp_path / "out"
        assert (out / "trajectory.csv").exists()
        assert (out / "boundary.csv").exists()
        assert (out / "snapshot_001.csv").exists()

    def test_t_final_just_off_the_step_grid_finds_its_snapshots(self, tmp_path, monkeypatch):
        # 0.5000000004/0.01 is 4e-8 steps off 50, inside the step-count slack;
        # the last snapshot is looked up at 50*dt, 4e-10 before the stored time
        monkeypatch.setenv("SVFREE_OUT", str(tmp_path / "out"))
        cfg = _write_config(tmp_path, {
            "dt": 0.01, "t_final": 0.5000000004, "solver": "fd-oracle",
            "n_nodes": 21, "n_modes": 4, "emit": {"snapshots": 2},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0
        snapshots = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.csv"))
        assert snapshots == ["snapshot_000.csv", "snapshot_001.csv"]

    def test_time_off_the_stored_grid_still_raises(self):
        times = np.linspace(0.0, 0.5000000004, 51)
        assert stored_index(times, 0.01, 0.5) == 50
        assert stored_index(times, 0.01, times[50]) == 50
        for t in (0.505, 0.5 + 1e-6, 0.25 - 1e-8, -0.01, 0.51):
            with pytest.raises(ConfigurationError, match="not a stored time"):
                stored_index(times, 0.01, t)


@pytest.mark.parametrize("patch, field", [
    ({"t_final": 1e300, "dt": 1e290}, "t_final"),
    ({"t_final": 1e300, "dt": 1e-10}, "dt"),  # t_final/dt overflows to inf
    ({"n_nodes": 10**12 + 1}, "n_nodes"),
])
def test_oversized_run_rejected_at_validation(patch, field):
    # validation allocates nothing, so these sizes are safe to ask for
    with pytest.raises(ConfigurationError, match=field):
        config_from_dict({**SMALL, **patch})


@pytest.mark.parametrize("patch, table", [
    ({"n_nodes": 10001, "n_modes": 5000}, "gradient products"),
    ({"n_nodes": 33554433, "n_modes": 1}, "half-norm table"),
])
def test_oversized_tables_rejected_at_validation(tmp_path, capsys, patch, table):
    data = {**patch, "t_final": 1e-4, "dt": 1e-4, "out_dir": str(tmp_path / "out")}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=f"'n_nodes'/'n_modes'.*{table}"):
            config_from_dict(data)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert main(["simulate", "--config", str(_write_config(tmp_path, data))]) == 3
    assert "'n_nodes'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_weight_check_is_where_rho0_to_the_sixth_overflows():
    # rho0 peaks at a/4 on the 101-node grid: rho0**6 is about 2.4e302 at a = 1e51
    cfg = config_from_dict({**SMALL, "profile": {"kind": "parabolic", "amplitude": 1e51}})
    _, profile, _ = build_problem(cfg)
    assert np.isfinite(profile.weight_values(6)).all()
    with pytest.raises(ConfigurationError, match=r"'profile'.*rho0\*\*6"):
        build_problem(dataclasses.replace(cfg, profile={"kind": "parabolic", "amplitude": 1e53}))


class _FirstPoint(Exception):
    pass


def _stop_at_first_march(profile, u0, eta_x, t_final, *args, **kwargs):
    raise _FirstPoint(t_final)


def test_sweep_holds_one_point_at_a_time(tmp_path, monkeypatch):
    # stop at the first march, which runs to the longest point: what a
    # 10^5-point sweep allocated before it is its 0.8 MB of final times and
    # one entry per step count, not settings for every point
    monkeypatch.setattr(picard, "solve_linearized", _stop_at_first_march)
    cfg = config_from_dict({**SMALL, "out_dir": str(tmp_path / "out")})
    tracemalloc.start()
    try:
        with pytest.raises(_FirstPoint) as stopped:
            cli.run_sweep(cfg, "T=0.001:0.002:100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stopped.value.args == (0.002,)
    assert peak < 2 * 2**20


def test_sweep_size_check_reads_its_last_point_in_whole_steps(tmp_path, monkeypatch):
    # 2^27 values at 101 nodes hold 1,328,888 stored times, 1,328,887 steps of
    # 1e-3: T = 1328.88745 rounds down to that and fits, T = 1328.8885 does not
    monkeypatch.setattr(picard, "solve_linearized", _stop_at_first_march)
    cfg = config_from_dict({**SMALL, "dt": 1e-3, "t_final": 1e-3, "out_dir": str(tmp_path / "out")})
    with pytest.raises(ConfigurationError, match="t_final"):
        cli.run_sweep(cfg, "T=0.001:1328.8885:2")
    assert not (tmp_path / "out").exists()
    with pytest.raises(_FirstPoint) as stopped:
        cli.run_sweep(cfg, "T=1328.88745:1328.88745:1")
    assert stopped.value.args == (1328887 * 1e-3,)


def test_complete_sweep_holds_one_row_per_step_count(tmp_path):
    # 10^5 points on the 11 step counts 10..20 of dt = 1e-4: the sweep solves
    # 11 horizons and writes every point's row as it goes
    cfg = config_from_dict({**SMALL, "dt": 1e-4, "out_dir": str(tmp_path / "out")})
    tracemalloc.start()
    try:
        rows = cli.run_sweep(cfg, "T=0.001:0.002:100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert next(rows)[:3] == (10 * 1e-4, True, 2)
    with open(tmp_path / "out" / "sweep.csv") as fh:
        header = next(fh)
        t_finals = [line.split(",", 1)[0] for line in fh]
    assert header.startswith("t_final,converged")
    assert len(t_finals) == 100000 and len(set(t_finals)) == 11
    assert t_finals == sorted(t_finals, key=float)


def _sweep_outcome(cfg, spec, caplog):
    """sweep.csv's rows and the WARNING lines a sweep logged."""
    caplog.clear()
    with caplog.at_level("WARNING", logger="svfree.cli"):
        list(cli.run_sweep(cfg, spec))
    with open(Path(cfg.out_dir) / "sweep.csv") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return rows, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]


def _one_solve_per_point(cfg, spec):
    """The rows and warnings of a sweep that calls solve_nonlinear once per point."""
    _, profile, u0 = build_problem(cfg)
    rows, warnings = [], []
    for t in parse_sweep_range(spec):
        t_final = max(1.0, np.rint(float(t) / cfg.dt)) * cfg.dt
        try:
            sol = picard.solve_nonlinear(profile, u0, dataclasses.replace(cfg, t_final=t_final))
            sample = sol.times[:: max(1, len(sol.times) // 10)]
            within_all = all(r.within_apriori for r in jet.energy_reports(sol, sample))
        except SvfreeError as exc:
            warnings.append(f"sweep point T={t_final:g} failed: {exc}")
            rows.append((t_final, False, 0, math.nan, math.nan, math.nan, False))
            continue
        if not within_all:
            warnings.append(f"a-priori ceiling violated in sweep run at T={t_final:g}")
        rows.append((t_final, True, sol.iterations, sol.history[-1].ratio,
                     sol.eta_x_min, sol.eta_x_max, within_all))
    return [[_fmt_rule(v) for v in row] for row in rows], warnings


@pytest.mark.parametrize("spec", ["T=10:60:3", "T=1:10:7"])
def test_sweep_fails_each_point_as_its_own_solve_does(tmp_path, caplog, spec):
    # breakdown_probe: on T=10:60:3 the points T=10 and T=35 leave the band
    # (0.5, 1.5) and T=60 fails inside the march (eta_x reaches 10); a march
    # that fails must fail only the horizons its own solve fails, with its
    # own message (min/max over its first bad block, cut at its own n)
    probe = Path(__file__).resolve().parents[1] / "configs" / "breakdown_probe.json"
    cfg = dataclasses.replace(load_config(probe), out_dir=str(tmp_path))
    rows, warnings = _sweep_outcome(cfg, spec, caplog)
    ref_rows, ref_warnings = _one_solve_per_point(cfg, spec)
    assert warnings == ref_warnings
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        assert row[:3] + row[4:] == ref[:3] + ref[4:]
        assert float(row[3]) == pytest.approx(float(ref[3]), rel=1e-3, nan_ok=True)
    if spec == "T=10:60:3":
        assert ["admissible band (0.5, 1.5)" in w for w in warnings] == [True, True, False]
        assert "admissible range (0.1, 10.0): min=1, max=10.3" in warnings[2]


def _simulate_as_module(tmp_path, module):
    """python -m <module> simulate on SMALL, importing svfree from src, with SVFREE_OUT under tmp_path."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "SVFREE_OUT": str(tmp_path / "out"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", module, "simulate", "--config", str(_write_config(tmp_path, SMALL))],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_module_entry_point_loads_cli_once(tmp_path):
    # python -m svfree runs cli.main from svfree/__main__.py: runpy does not
    # execute cli a second time as __main__, so no RuntimeWarning, and the
    # log lines name svfree.cli
    done = _simulate_as_module(tmp_path, "svfree")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "WARNING svfree.cli: energy summands carry vacuum-boundary poles" in done.stderr
    assert "__main__" not in done.stderr
    assert done.stdout.startswith("converged=True")


def test_cli_module_run_as_a_script_names_the_entry_point(tmp_path):
    # python -m svfree.cli runs a second copy of cli as __main__: it runs
    # nothing, names python -m svfree and exits 3
    done = _simulate_as_module(tmp_path, "svfree.cli")
    assert done.returncode == cli.EXIT_CONFIG
    assert done.stderr.splitlines()[-1] == "svfree.cli is not a script; run it as python -m svfree"
    assert done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_set_up_evaluates_every_profile_order_a_run_reads(monkeypatch):
    # (field id, x0 or None for the nodes) -> highest order asked for
    asked = {}

    def note(field, where, order):
        asked[id(field), where] = max(asked.get((id(field), where), -1), order)

    nodal, endpoint = AnalyticField.derivative_values, AnalyticField.endpoint_derivatives

    def derivative_values(self, order):
        note(self, None, order)
        return nodal(self, order)

    def endpoint_derivatives(self, x0, n=N_TERMS):
        note(self, x0, n - 1)
        return endpoint(self, x0, n)

    monkeypatch.setattr(AnalyticField, "derivative_values", derivative_values)
    monkeypatch.setattr(AnalyticField, "endpoint_derivatives", endpoint_derivatives)
    cfg = config_from_dict({"t_final": 1e-3})
    _, profile, u0 = build_problem(cfg)
    set_up = {where: order for (key, where), order in asked.items() if key == id(profile)}
    asked.clear()
    sol = picard.solve_nonlinear(profile, u0, cfg)
    jet.energy_reports(sol, list(sol.times))
    run = {where: order for (key, where), order in asked.items() if key == id(profile)}
    assert set(run) == {None, 0.0, 1.0}
    for where, order in run.items():
        assert order <= set_up.get(where, -1), (where, order)


def test_unknown_emit_flag_rejected():
    with pytest.raises(ConfigurationError, match="emit"):
        config_from_dict({"emit": {"energy": True, "plots": True}})


# --- config fuzzer: any JSON object of RunConfig fields ends in an exit code

_WRONG = st.sampled_from([True, False, "x", None, [], [1], -1, -0.5, 0, 2.5, {}])

# field -> (well-formed values, malformed values besides _WRONG)
_PROFILE_EXPRS = ["x*(1-x)", "sin(pi*x)", "x*(1-x)*(2-x)", "x*(1-x)*exp(10*x)"]
_VELOCITY_EXPRS = ["0", "cos(pi*x)", "0.3*cos(2*pi*x)", "0.5*cos(pi*x)**2"]
_BROKEN_PROFILE_EXPRS = ["x*(1-x", "1/x", "log(x)", "x", "x**2*(1-x)", "foo(x)", "10**10**10",
                         "x*(1-x)*(2 + sqrt((x-0.5)**2)**5)"]
_BROKEN_VELOCITY_EXPRS = ["x", "sin(pi*x)", "cos(pi*x", "1/(x-x)", "__import__('os')"]
_FIELDS = {
    "profile": (
        st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["parabolic", "sine"])},
                                  optional={"amplitude": st.floats(0.1, 3.0)}),
            st.fixed_dictionaries({"kind": st.just("custom"),
                                   "expr": st.sampled_from(_PROFILE_EXPRS)}),
        ),
        st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["parabolic", "sine", "distance", "cone"])},
                                  optional={"amplitude": _WRONG, "amp": st.just(1.0)}),
            st.fixed_dictionaries({"kind": st.just("custom")}, optional={"expr": st.one_of(
                st.sampled_from(_BROKEN_PROFILE_EXPRS), _WRONG,
            )}),
        ),
    ),
    "u0": (
        st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["zero", "cosine"])},
                                  optional={"amplitude": st.floats(-2.0, 2.0), "mode": st.integers(1, 4)}),
            st.fixed_dictionaries({"kind": st.just("custom"),
                                   "expr": st.sampled_from(_VELOCITY_EXPRS)}),
        ),
        st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["cosine", "sine"])},
                                  optional={"amplitude": _WRONG, "mode": _WRONG}),
            st.fixed_dictionaries({"kind": st.just("custom")}, optional={"expr": st.one_of(
                st.sampled_from(_BROKEN_VELOCITY_EXPRS), _WRONG,
            )}),
        ),
    ),
    "picard_tol": (st.sampled_from([1e-10, 1e-6, 1e-30]), st.just(float("inf"))),
    "max_iter": (st.integers(2, 8), st.just(3.0)),
    "scheme": (st.sampled_from(["implicit-euler", "crank-nicolson"]), st.just("rk4")),
    "solver": (st.sampled_from(["galerkin", "fd-oracle", "both"]), st.just("spectral")),
    "initial_guess": (st.sampled_from(["u0", "identity"]), st.just("zero")),
    "out_dir": (st.nothing(), st.just(5)),
    "emit": (
        st.fixed_dictionaries({}, optional={
            "energy": st.booleans(), "contraction": st.booleans(),
            "boundary": st.booleans(), "snapshots": st.integers(0, 3),
        }),
        st.fixed_dictionaries({}, optional={
            "energy": _WRONG, "snapshots": st.sampled_from([-1, 1.5, True]), "plots": st.booleans(),
        }),
    ),
    "schema_version": (st.just(1), st.sampled_from([0, 2, 1.0, "1"])),
    "bogus": (st.nothing(), st.just(1)),
}


@st.composite
def _configs(draw):
    # the size fields are always present: their defaults are the 401-node,
    # 32-mode, 500-step canonical run; well-formed draws keep n_nodes <= 41
    # and <= 50 steps
    n_nodes = draw(st.integers(2, 20)) * 2 + 1
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    fields = {
        "n_nodes": (st.just(n_nodes), st.sampled_from([n_nodes + 1, 3, float(n_nodes)])),
        "n_modes": (st.integers(1, (n_nodes - 1) // 2), st.sampled_from([4.0, n_nodes])),
        "dt": (st.just(dt), st.just(0.7 * dt)),
        "t_final": (st.integers(1, 50).map(lambda k: k * dt), st.just(0.0)),
        **_FIELDS,
    }
    present = [k for k in fields if k in ("n_nodes", "n_modes", "dt", "t_final") or draw(st.booleans())]
    # most draws are well formed, so the solver and the reports run too
    broken = draw(st.sets(st.sampled_from(present), max_size=2)) if draw(st.booleans()) else set()
    data = {}
    for key in present:
        good, bad = fields[key]
        strategy = st.one_of(bad, _WRONG) if key in broken else good
        if key in broken or not good.is_empty:
            data[key] = draw(strategy)
    return data


def _each_broken_expr(test):
    """An explicit example per broken expression the fuzzer samples, so each runs every time."""
    small = {"n_nodes": 21, "n_modes": 4, "dt": 1e-3, "t_final": 2e-3}
    for key, exprs in (("profile", _BROKEN_PROFILE_EXPRS), ("u0", _BROKEN_VELOCITY_EXPRS)):
        for expr in exprs:
            test = example(data={**small, key: {"kind": "custom", "expr": expr}})(test)
    return test


@settings(max_examples=40)
@given(data=_configs())
@_each_broken_expr
def test_any_config_ends_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        data = {"out_dir": str(Path(tmp) / "out"), **data}
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path)]) in (0, 1, 2, 3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_CONFIG_KEYS = st.sampled_from([f.name for f in dataclasses.fields(RunConfig)] + ["schema_version", "x"])


@settings(max_examples=200)
@given(raw=st.one_of(
    st.binary(max_size=64),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(_CONFIG_KEYS, _JSON_VALUES, max_size=5).map(lambda d: json.dumps(d).encode()),
))
def test_any_file_bytes_load_or_raise_a_configuration_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(raw)
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigurationError:
            pass
