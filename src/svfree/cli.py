"""Run orchestration: simulate / verify / sweep subcommands and report emission.

JSON config in, CSV/JSON reports out. Exit codes: 0 success, 1 verification
failure, 2 solver non-convergence or flow-map degeneracy, 3 config or
command-line error.
Identical configs produce byte-identical CSV outputs (the summary JSON also
carries a wall-time field, which naturally varies).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, eulerian, jet, picard, weighted_calculus as wc
from .errors import ConfigurationError, SvfreeError, ValidationError
from .fd_oracle import fd_oracle_solve
from .galerkin import GalerkinBasis, assemble_stiffness, n_steps_for  # perfbench's tracing test wraps cli.assemble_stiffness
from .jet import E_SUMMAND_WEIGHTS, LOW_SUMMAND_WEIGHTS
from .profile import _DEPTH, _ENDPOINT_ORDERS, _is_int, _is_real, build_grid, sample_height_profile, sample_velocity
from .weighted_calculus import _HS_MODES

__all__ = [
    "RunConfig",
    "RunSummary",
    "load_config",
    "run_simulation",
    "run_verification_suite",
    "emit_report",
    "main",
]

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SVFREE_OUT"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

_SCHEMES = ("implicit-euler", "crank-nicolson")
_SOLVERS = ("galerkin", "fd-oracle", "both")
_EMIT_DEFAULTS = {"energy": True, "contraction": True, "snapshots": 5, "boundary": True}

# the largest array one run may allocate, in float64 values: 1 GiB, about
# 167 times the nodal stack of the largest run of the shipped sweep
MAX_STACK_VALUES = 2**27


@dataclass(frozen=True)
class RunConfig(picard.PicardSettings):
    profile: dict = field(default_factory=lambda: {"kind": "parabolic", "amplitude": 1.0})
    u0: dict = field(default_factory=lambda: {"kind": "zero"})
    n_nodes: int = 401
    solver: str = "galerkin"
    out_dir: str = "out"
    emit: dict = field(default_factory=lambda: dict(_EMIT_DEFAULTS))

    def n_steps(self) -> int:
        return n_steps_for(self.t_final, self.dt)


@dataclass(frozen=True)
class RunSummary:
    converged: bool
    iterations: int
    final_contraction_ratio: float
    eta_x_min: float
    eta_x_max: float
    max_energy_gap: float
    wall_time_s: float


def _check_run_size(t_final: float, dt: float, n_nodes: int, n_modes: int) -> None:
    """Reject a run with an array of more than MAX_STACK_VALUES values.

    Those a config sizes: the nodal stack, the basis gradient products and
    verify's half-norm table; the last also bounds the energy monitor's
    one-stored-time interior pass, about 63 values per node (svfree.jet).
    """
    rows = t_final / dt + 1.0
    if rows * n_nodes > MAX_STACK_VALUES:
        raise ConfigurationError(
            f"config fields 't_final'/'dt'/'n_nodes' ask for {rows:.3g} stored times of "
            f"{n_nodes} nodes, more than {MAX_STACK_VALUES} nodal values per stack"
        )
    for name, size in (("basis gradient products", n_nodes * (n_modes * (n_modes + 1) // 2)),
                       ("half-norm table", n_nodes * min((n_nodes - 1) // 2, _HS_MODES))):
        if size > MAX_STACK_VALUES:
            raise ConfigurationError(
                f"config fields 'n_nodes'/'n_modes' ask for {size:.3g} values in the {name}, "
                f"more than {MAX_STACK_VALUES}"
            )


def _validate_config(cfg: RunConfig) -> RunConfig:
    if not _is_int(cfg.n_nodes) or cfg.n_nodes < 5 or cfg.n_nodes % 2 == 0:
        raise ConfigurationError(f"config field 'n_nodes' must be an odd integer >= 5, got {cfg.n_nodes!r}")
    # max_iter >= 2: a contraction report compares two Picard iterates
    for key, least in (("n_modes", 1), ("max_iter", 2)):
        value = getattr(cfg, key)
        if not _is_int(value) or value < least:
            raise ConfigurationError(f"config field '{key}' must be an integer >= {least}, got {value!r}")
    if cfg.n_modes > (cfg.n_nodes - 1) // 2:
        raise ConfigurationError(
            f"config field 'n_modes' must be <= (n_nodes-1)//2 = {(cfg.n_nodes - 1) // 2} "
            f"so the grid resolves every mode, got {cfg.n_modes}"
        )
    for key in ("dt", "t_final", "picard_tol"):
        value = getattr(cfg, key)
        if not _is_real(value) or value <= 0:
            raise ConfigurationError(f"config field '{key}' must be a positive number, got {value!r}")
    if not isinstance(cfg.out_dir, str):
        raise ConfigurationError(f"config field 'out_dir' must be a string, got {cfg.out_dir!r}")
    _check_run_size(cfg.t_final, cfg.dt, cfg.n_nodes, cfg.n_modes)
    n_steps_for(cfg.t_final, cfg.dt)
    for key, allowed in (("scheme", _SCHEMES), ("solver", _SOLVERS), ("initial_guess", ("u0", "identity"))):
        value = getattr(cfg, key)
        if value not in allowed:
            raise ConfigurationError(f"config field '{key}' must be one of {allowed}, got {value!r}")
    if not isinstance(cfg.profile, dict) or "kind" not in cfg.profile:
        raise ConfigurationError("config field 'profile' must be an object with a 'kind'")
    if cfg.profile["kind"] == "distance":
        raise ConfigurationError("config field 'profile': the distance weight is not a solver profile")
    if not isinstance(cfg.u0, dict) or "kind" not in cfg.u0:
        raise ConfigurationError("config field 'u0' must be an object with a 'kind'")
    mode = cfg.u0.get("mode", 1)
    if cfg.u0["kind"] == "cosine" and _is_int(mode) and mode >= cfg.n_modes:
        raise ConfigurationError(
            f"config field 'u0': cosine mode {mode} needs n_modes > {mode}, got n_modes = {cfg.n_modes}"
        )
    if not isinstance(cfg.emit, dict):
        raise ConfigurationError("config field 'emit' must be an object")
    unknown = set(cfg.emit) - set(_EMIT_DEFAULTS)
    if unknown:
        raise ConfigurationError(f"unknown emit flag(s): {sorted(unknown)}")
    emit = {**_EMIT_DEFAULTS, **cfg.emit}
    for key in ("energy", "contraction", "boundary"):
        if not isinstance(emit[key], bool):
            raise ConfigurationError(f"config field 'emit.{key}' must be boolean")
    if not _is_int(emit["snapshots"]) or emit["snapshots"] < 0:
        raise ConfigurationError("config field 'emit.snapshots' must be a nonnegative integer")
    return dataclasses.replace(cfg, emit=emit)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)} | {"schema_version"}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config field(s): {sorted(unknown)}")
    data = {k: v for k, v in data.items() if k != "schema_version"}
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc
    return _validate_config(cfg)


def load_config(path) -> RunConfig:
    """The RunConfig of a UTF-8 JSON file; failing to read or decode it is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: '{path}'") from None
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config file '{path}' cannot be read as JSON: {exc}") from None
    return config_from_dict(data)


def _out_dir(cfg: RunConfig) -> Path:
    """The report directory, $SVFREE_OUT or the config's out_dir, created if missing."""
    out = Path(os.environ.get(OUT_DIR_ENV, cfg.out_dir))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"config field 'out_dir' (or ${OUT_DIR_ENV}) names {str(out)!r}, "
            f"which cannot be made a directory: {exc.strerror}"
        ) from None
    return out


def build_problem(cfg: RunConfig):
    """The grid, profile and u0 of a config, each checked finite at the nodes and both ends.

    Every profile derivative a run reads is evaluated here and stays cached
    for the energy monitor, as is every weight rho0**k, k = 1..6, of the mass,
    forcing and monitor; a run reads only u0's nodal values.
    """
    grid = build_grid(cfg.n_nodes)
    pparams = {k: v for k, v in cfg.profile.items() if k != "kind"}
    profile = sample_height_profile(cfg.profile["kind"], pparams, grid)
    with np.errstate(over="ignore"):
        overflow = [k for k in range(1, 7) if not np.isfinite(profile.weight_values(k)).all()]
    if overflow:
        raise ConfigurationError(f"config field 'profile': its weight rho0**{overflow[0]} overflows")
    uparams = {k: v for k, v in cfg.u0.items() if k != "kind"}
    u0 = sample_velocity(cfg.u0["kind"], uparams, grid)
    for k in range(_DEPTH):
        profile.derivative_values(k)
    for x0 in (0.0, 1.0):
        profile.endpoint_derivatives(x0, _ENDPOINT_ORDERS)
        u0.endpoint_derivatives(x0)
    return grid, profile, u0


# ---------------------------------------------------------------------------
# report emission


ENERGY_COLUMNS = ["t"] + list(E_SUMMAND_WEIGHTS) + list(LOW_SUMMAND_WEIGHTS) + [
    "E_total", "lowE_total", "within_apriori",
]
# stress_* is identically zero (the height vanishes on the moving boundary);
# the columns stay for schema-1 stability
BOUNDARY_COLUMNS = [
    "t", "vx_left", "vx_right", "ux_left", "ux_right", "stress_left", "stress_right",
    "soundspeed_slope_left", "soundspeed_slope_right",
]
SWEEP_COLUMNS = [
    "t_final", "converged", "iterations", "final_ratio", "eta_x_min", "eta_x_max",
    "within_apriori_all",
]
# the flag columns: each row builder gives them as text
_FLAG_COLUMNS = {"within_apriori", "converged", "within_apriori_all"}
_FLAG_TEXT = {True: "true", False: "false"}


def _csv(columns, rows):
    """A CSV table in pieces: the header, then each row tuple through one row format.

    Numbers print at %.17g, which prints an integer of magnitude up to 2**53
    as str(int) does; a flag column prints the text its row builder gives.
    """
    yield ",".join(columns) + "\n"
    row_fmt = ",".join("%s" if c in _FLAG_COLUMNS else "%.17g" for c in columns) + "\n"
    yield from map(row_fmt.__mod__, rows)  # each row tuple is freed once formatted


def _json(payload: dict, sort_keys: bool = True) -> list[str]:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return [json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"]


def _energy_row(rep) -> tuple:
    summands = [rep.summands[k] for k in (*E_SUMMAND_WEIGHTS, *LOW_SUMMAND_WEIGHTS)]
    return (rep.t, *summands, rep.E_total, rep.lowE_total, _FLAG_TEXT[rep.within_apriori])


def _boundary_row(rep) -> tuple:
    return (rep.t, *rep.vx_at_boundary, *rep.ux_at_boundary,
            *rep.stress_at_boundary, *rep.soundspeed_slope)


# report kind -> writer returning the file text in pieces; verification.json
# keeps its check order (unsorted keys)
_WRITERS = {
    "energy": lambda reps: _csv(ENERGY_COLUMNS, map(_energy_row, reps)),
    "contraction": lambda reps: _csv(
        ["iteration", "sup_diff", "grad_diff", "ratio"],
        ((r.iteration, r.sup_diff, r.grad_diff, r.ratio) for r in reps),
    ),
    "snapshot": lambda snap: _csv(["y", "rho", "u"], zip(snap.y, snap.rho, snap.u)),
    "snapshot-header": lambda snap: _json({
        "t": snap.t,
        "boundary": list(snap.boundary),
        "boundary_velocity": list(snap.boundary_velocity),
    }),
    "boundary": lambda reps: _csv(BOUNDARY_COLUMNS, map(_boundary_row, reps)),
    # row by row: one tolist() of the whole table adds about 3 MB of peak memory
    "trajectory": lambda data: _csv(
        ["t"] + [f"v{i}" for i in range(data[1].shape[1])],
        ((float(t), *row.tolist()) for t, row in zip(*data)),
    ),
    "summary": lambda summary: _json(dataclasses.asdict(summary)),
    "diff": _json,
    "verification": lambda rows: _json({
        "passed": all(c.passed for c in rows),
        "checks": [dataclasses.asdict(c) for c in rows],
    }, sort_keys=False),
    "sweep": lambda rows: _csv(SWEEP_COLUMNS, (
        (t, _FLAG_TEXT[ok], n, ratio, lo, hi, _FLAG_TEXT[within]) for t, ok, n, ratio, lo, hi, within in rows
    )),
}


def emit_report(kind: str, data, path) -> Path:
    """Write one report file, piece by piece; CSV for time series, JSON for summaries."""
    writer = _WRITERS.get(kind)
    if writer is None:
        raise ConfigurationError(f"unknown report kind {kind!r}")
    path = Path(path)
    try:
        with path.open("w") as fh:
            fh.writelines(writer(data))
    except OSError as exc:
        raise SvfreeError(f"failed to write report {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# simulate


def _snapshot_times(cfg: RunConfig) -> list[float]:
    count = cfg.emit["snapshots"]
    if count <= 0:
        return []
    steps = cfg.n_steps()
    idx = np.unique(np.round(np.linspace(0, steps, min(count, steps + 1))).astype(int))
    return [i * cfg.dt for i in idx]


def _emit_energy(out: Path, sol) -> float:
    reports = jet.energy_reports(sol, list(sol.times))
    emit_report("energy", reports, out / "energy.csv")
    if any(r.boundary_pole for r in reports):
        log.warning(
            "energy summands carry vacuum-boundary poles (incompatible "
            "initial data); endpoint values are Hadamard finite parts"
        )
    violations = [r.t for r in reports if not r.within_apriori]
    if violations:
        log.warning(
            "a-priori energy ceiling E <= 2*M0 violated at %d stored times "
            "(first at t=%g)", len(violations), violations[0],
        )
    return max(abs(r.E_total - r.lowE_total) for r in reports)


def _emit_summary(out: Path, t0: float, history, primary=None, max_gap: float = math.nan) -> RunSummary:
    """Write summary.json of a run begun at perf_counter() t0; a failed run has no primary solution."""
    history = history or []
    summary = RunSummary(
        converged=primary is not None,
        iterations=len(history),
        final_contraction_ratio=history[-1].ratio if history else math.nan,
        eta_x_min=primary.eta_x_min if primary is not None else math.nan,
        eta_x_max=primary.eta_x_max if primary is not None else math.nan,
        max_energy_gap=max_gap,
        wall_time_s=time.perf_counter() - t0,
    )
    emit_report("summary", summary, out / "summary.json")
    return summary


def run_simulation(cfg: RunConfig) -> RunSummary:
    """Solve per the configured solver(s) and emit the requested reports.

    Solver failures still write the partial reports (contraction history,
    summary with converged=false) before propagating.
    """
    t0 = time.perf_counter()
    grid, profile, u0 = build_problem(cfg)
    out = _out_dir(cfg)

    sol = fd = None
    try:
        if cfg.solver in ("galerkin", "both"):
            sol = picard.solve_nonlinear(profile, u0, cfg)
        if cfg.solver in ("fd-oracle", "both"):
            fd = fd_oracle_solve(profile, u0, cfg.t_final, cfg.dt)
    except SvfreeError as exc:
        history = getattr(exc, "history", None)
        if history and cfg.emit["contraction"]:
            emit_report("contraction", history, out / "contraction.csv")
        _emit_summary(out, t0, history)
        raise

    max_gap = float("nan")
    if sol is not None:
        if cfg.emit["contraction"]:
            emit_report("contraction", sol.history, out / "contraction.csv")
        if cfg.emit["energy"]:
            max_gap = _emit_energy(out, sol)
    elif cfg.emit["energy"]:
        log.info(
            "energy monitoring needs the spectral solution; skipped for "
            "the finite-difference oracle"
        )
    # boundary and snapshot reports follow the spectral solution when there is one
    primary = sol if sol is not None else fd
    if cfg.emit["boundary"]:
        reps = eulerian.boundary_reports(profile, primary, primary.times)
        emit_report("boundary", reps, out / "boundary.csv")
    for k, t in enumerate(_snapshot_times(cfg)):
        snap = eulerian.eulerian_fields(profile, primary, t, n_samples=401)
        emit_report("snapshot", snap, out / f"snapshot_{k:03d}.csv")
        emit_report("snapshot-header", snap, out / f"snapshot_{k:03d}.json")
    if sol is not None:
        emit_report(
            "trajectory",
            (sol.times, sol.coeffs @ sol.basis.table(0)),
            out / ("trajectory_galerkin.csv" if cfg.solver == "both" else "trajectory.csv"),
        )
    if fd is not None:
        emit_report(
            "trajectory",
            (fd.times, fd.v),
            out / ("trajectory_fd.csv" if cfg.solver == "both" else "trajectory.csv"),
        )
    if sol is not None and fd is not None:
        sampled = list(sol.times[:: max(1, len(sol.times) // 50)]) + [sol.times[-1]]
        # weighted L2 gap of the two velocities at T, then at the sampled times
        gaps = [wc.weighted_l2_norm(sol.velocity(t) - fd.velocity(t), 1, profile)
                for t in (cfg.t_final, *sampled)]
        diffs = {"final_weighted_l2_diff": gaps[0], "max_weighted_l2_diff": max(gaps[1:])}
        emit_report("diff", diffs, out / "diff.json")

    return _emit_summary(out, t0, sol.history if sol is not None else None, primary, max_gap)


# ---------------------------------------------------------------------------
# verification suite


def run_verification_suite(cfg: RunConfig) -> list[checks.CheckResult]:
    """The checks of svfree.checks in order; if the small nonlinear run fails,
    the rows before it stay and a failing 'nonlinear-run' row ends the list.
    """
    grid, profile, u0 = build_problem(cfg)
    basis = GalerkinBasis(min(cfg.n_modes, 16), grid)
    rows = [
        checks.grid_uniformity(grid),
        checks.physical_vacuum(profile),
        checks.quadrature_cubic_exactness(profile),
        checks.spectral_derivative_consistency(basis),
        checks.basis_orthonormality(basis),
        *checks.closed_form_assembly(),
        *checks.weighted_families(grid),
        *checks.interpolation_identities(),
        checks.norm_homogeneity(profile),
        checks.energy_identity(),
    ]
    # small nonlinear run: contraction, flow-map bound, mass, round trip,
    # ceiling; 16 modes for zero data, and every configured mode for a
    # velocity, whose content the run must not project away
    modes = cfg.n_modes if np.any(u0.values != 0.0) else min(cfg.n_modes, 16)
    settings = picard.PicardSettings(
        t_final=0.0125, dt=1e-4, n_modes=modes, picard_tol=1e-10, max_iter=50
    )
    try:
        sol = picard.solve_nonlinear(profile, u0, settings)
        rows.append(checks.contraction_monotonicity(sol.history))
        rows.append(checks.eta_bound(sol))
        t_end = settings.t_final
        rows.append(checks.mass_conservation(profile, sol, (0.0, sol.times[len(sol.times) // 2], t_end)))
        rows.append(checks.roundtrip_inverse_map(sol, t_end))
        rows.append(checks.boundary_neumann_spectral(profile, sol, t_end))
        # every 5th of the 126 stored times: the sample ends at T
        reports = jet.energy_reports(sol, sol.times[:: max(1, len(sol.times) // 25)])
        rows.append(checks.apriori_ceiling(reports))
        rows.append(checks.embedding_constants(profile, sol, reports))
    except SvfreeError as exc:
        rows.append(checks.CheckResult("nonlinear-run", False, f"small nonlinear run failed: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# sweep


def parse_sweep_range(spec: str):
    """Parse 'T=a:b:n' into n evenly spaced final times."""
    try:
        name, rng = spec.split("=", 1)
        if name.strip() != "T":
            raise ValueError("only T sweeps are supported")
        a, b, n = rng.split(":")
        a, b, n = float(a), float(b), int(n)
        if n < 1 or not 0 < a <= b < math.inf:
            raise ValueError("need 0 < a <= b < inf and n >= 1")
        if n > MAX_STACK_VALUES:
            raise ValueError(f"more than {MAX_STACK_VALUES} points")
    except ValueError as exc:
        raise ConfigurationError(f"bad sweep spec {spec!r}: {exc}") from exc
    return np.linspace(a, b, n)


def _sweep_row(settled: tuple) -> tuple:
    """(t_final, (row, warning)) of one settled horizon (t_final, outcome of picard.solve_horizons).

    The row is its sweep.csv row; the warning (or None) is logged once for
    each point of that horizon. Nothing of the solution is kept.
    """
    t_final, sol = settled
    failed = (t_final, False, 0, float("nan"), float("nan"), float("nan"), False)
    try:
        if isinstance(sol, SvfreeError):
            raise sol  # the error its own solve raised: the same row as a failed energy pass
        sample = sol.times[:: max(1, len(sol.times) // 10)]
        within_all = all(r.within_apriori for r in jet.energy_reports(sol, sample))
    except SvfreeError as exc:
        return t_final, (failed, f"sweep point T={t_final:g} failed: {exc}")
    ratio = sol.history[-1].ratio if sol.history else float("nan")
    row = (t_final, True, sol.iterations, ratio, sol.eta_x_min, sol.eta_x_max, within_all)
    return t_final, (row, None if within_all else f"a-priori ceiling violated in sweep run at T={t_final:g}")


def run_sweep(cfg: RunConfig, spec: str):
    """Solve the nonlinear problem across a t_final range, write sweep.csv, and return its rows.

    Each point solves to its t_final rounded to whole steps (at least one);
    the nodal stack grows with t_final, so the last point's size check covers
    every point. Points of one step count share a horizon, and every horizon
    settles in one call of picard.solve_horizons, whose passes march only to
    the longest horizon still open: a shorter horizon's iterates are prefixes
    of the longest's. The sweep holds one row per horizon and no list of its
    points, which it reads off the spec again to write sweep.csv in spec order
    (logging each point's warning) and to build the returned row iterator.
    """
    def whole_steps():
        """The spec's final times, each rounded to whole steps (at least one), in spec order."""
        return (max(1.0, np.rint(float(t) / cfg.dt)) * cfg.dt for t in parse_sweep_range(spec))

    horizons = set(whole_steps())
    _check_run_size(max(horizons), cfg.dt, cfg.n_nodes, cfg.n_modes)
    grid, profile, u0 = build_problem(cfg)
    out = _out_dir(cfg)
    settled = dict(map(_sweep_row, picard.solve_horizons(profile, u0, cfg, horizons)))

    def logged():
        for t in whole_steps():
            row, warning = settled[t]
            if warning is not None:
                log.warning("%s", warning)
            yield row

    emit_report("sweep", logged(), out / "sweep.csv")
    return (settled[t][0] for t in whole_steps())


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="svfree",
        description="Vacuum free-boundary shallow-water solver and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run the nonlinear solve and emit reports"),
        ("verify", "run every runtime-checkable invariant"),
        ("sweep", "rerun across a T range (chart contraction region)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=str, default=None, help="JSON config file (default: the canonical run)")
        if name == "sweep":
            p.add_argument("sweep_spec", help="range spec T=a:b:n")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        cfg = config_from_dict({}) if args.config is None else load_config(args.config)
        if args.command == "simulate":
            summary = run_simulation(cfg)
            print(
                f"converged={summary.converged} iterations={summary.iterations} "
                f"eta_x in [{summary.eta_x_min:.4f}, {summary.eta_x_max:.4f}] "
                f"wall={summary.wall_time_s:.2f}s"
            )
            return EXIT_OK
        if args.command == "verify":
            rows = run_verification_suite(cfg)
            emit_report("verification", rows, _out_dir(cfg) / "verification.json")
            width = max(len(c.name) for c in rows)
            for c in rows:
                print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
            failed = [c.name for c in rows if not c.passed]
            if not failed:
                print(f"all {len(rows)} checks passed")
                return EXIT_OK
            print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
            return EXIT_VERIFICATION
        rows = run_sweep(cfg, args.sweep_spec)  # the third command
        for row in rows:
            print(
                f"T={row[0]:g} converged={row[1]} iterations={row[2]} "
                f"final_ratio={row[3]:.3g} eta_x=[{row[4]:.4g}, {row[5]:.4g}]"
            )
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SvfreeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":  # python -m svfree.cli: runpy runs a second copy of this module
    print("svfree.cli is not a script; run it as python -m svfree", file=sys.stderr)
    sys.exit(EXIT_CONFIG)
