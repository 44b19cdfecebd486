"""In-memory span recorder and the wrappers that time svfree's public calls.

The wrappers are installed on module attributes from outside the package:
every ``svfree.*`` module attribute that is bound to a target function is
replaced, so a call reaches the wrapper whichever module it was imported
into (``picard.solve_linearized`` and ``galerkin.solve_linearized`` are the
same function under two names). Nothing under ``src/`` is edited.

Spans carry a name, start, end, parent index and optional attributes taken
from the call's result. Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

WRAPPER_MARK = "__perfbench_wrapper__"

# span name -> layer group; the span name is "<module>.<function>"
TARGETS = {
    "jet.initial_jet": "jet.initial_jet",
    "jet.energy_high": "jet.energy",
    "jet.energy_low": "jet.energy",
    "galerkin.assemble_mass": "galerkin.assemble",
    "galerkin.assemble_stiffness": "galerkin.assemble",
    "galerkin.assemble_forcing": "galerkin.assemble",
    "galerkin.solve_linearized": "galerkin.march",
    "picard.solve_nonlinear": "picard.solve",
    "picard.contraction_metrics": "picard.contraction",
    "eulerian.eulerian_fields": "eulerian.snapshot",
    "eulerian.boundary_diagnostics": "eulerian.boundary",
    "fd_oracle.fd_oracle_solve": "fd_oracle.solve",
    "weighted_calculus.check_weighted_sobolev": "weighted_calculus.check",
    "weighted_calculus.check_h_half_weighted": "weighted_calculus.check",
    "weighted_calculus.check_interpolation_identity": "weighted_calculus.check",
    "weighted_calculus.check_sobolev_embedding": "weighted_calculus.check",
    "weighted_calculus.check_interpolation_inequality": "weighted_calculus.check",
    "profile.build_grid": "profile.build",
    "profile.sample_height_profile": "profile.build",
    "profile.sample_velocity": "profile.build",
    "cli.emit_report": "cli.emit",
}

# every per-layer metric a traced run reports, in BENCHMARK.json order
LAYER_METRICS = {
    "jet.energy_s": "s",
    "jet.energy_calls": "count",
    "jet.energy_step_ms": "ms",
    "jet.pole_steps": "count",
    "jet.ceiling_violations": "count",
    "jet.derive_s": "s",
    "galerkin.assemble_s": "s",
    "galerkin.assemble_calls": "count",
    "galerkin.march_s": "s",
    "galerkin.march_calls": "count",
    "galerkin.steps": "count",
    "picard.solve_s": "s",
    "picard.self_s": "s",
    "picard.iterations": "count",
    "picard.solves": "count",
    "picard.converged_ratio": "ratio",
    "picard.contraction_s": "s",
    "picard.contraction_calls": "count",
    "eulerian.snapshot_s": "s",
    "eulerian.snapshot_calls": "count",
    "eulerian.boundary_s": "s",
    "eulerian.boundary_calls": "count",
    "fd_oracle.solve_s": "s",
    "fd_oracle.calls": "count",
    "weighted_calculus.check_s": "s",
    "weighted_calculus.check_calls": "count",
    "profile.build_s": "s",
    "cli.emit_s": "s",
    "cli.emit_calls": "count",
    "cli.emit_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.run_s": "s",
    "trace.self_sum_s": "s",
    "harness.error_rate": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; a stack of open spans gives each its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, name: str, fn):
        on_result = _RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                self.spans[idx].attrs["error"] = type(exc).__name__
                raise
            self.close(idx)
            if on_result is not None:
                self.spans[idx].attrs.update(on_result(result))
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper


def _energy_attrs(report) -> dict:
    return {"pole": bool(report.boundary_pole), "within": bool(report.within_apriori)}


_RESULT_ATTRS = {
    "jet.energy_high": _energy_attrs,
    "jet.energy_low": _energy_attrs,
    "galerkin.solve_linearized": lambda r: {"steps": len(r.times) - 1},
    "picard.solve_nonlinear": lambda r: {"iterations": int(r.iterations)},
    "cli.emit_report": lambda r: {"bytes": Path(r).stat().st_size},
}


def _svfree_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "svfree" or name.startswith("svfree."))]


def install(tracer: Tracer) -> list:
    """Wrap every binding of every target; returns the undo list for uninstall."""
    modules = _svfree_modules()
    undo = []
    for span_name in TARGETS:
        mod_name, attr = span_name.split(".", 1)
        original = getattr(sys.modules[f"svfree.{mod_name}"], attr)
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


def leftover_wrappers() -> list[str]:
    """Names of svfree module attributes that are still perfbench wrappers."""
    return [f"{m.__name__}.{key}" for m in _svfree_modules()
            for key, value in vars(m).items() if getattr(value, WRAPPER_MARK, False)]


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _under(spans: list[Span], root: int) -> list[int]:
    """Indices of the spans that descend from root (root excluded)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def _outermost(spans: list[Span], indices: list[int], group: str) -> list[int]:
    """Spans of one layer group that are not nested inside the same group."""
    keep = []
    for i in indices:
        p = spans[i].parent
        nested = False
        while p >= 0:
            if TARGETS.get(spans[p].name) == group:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            keep.append(i)
    return keep


def layer_metrics(spans: list[Span], setup_root: int, run_root: int) -> dict:
    """Per-layer totals over the spans under the run root (jet.derive_s: setup)."""
    run = _under(spans, run_root)
    by_group: dict[str, list[int]] = {}
    for i in run:
        group = TARGETS.get(spans[i].name)
        if group is not None:
            by_group.setdefault(group, []).append(i)
    groups = {g: _outermost(spans, idx, g) for g, idx in by_group.items()}

    def total(group):
        return sum((spans[i].duration for i in groups.get(group, [])), 0.0)

    def calls(group):
        return len(groups.get(group, []))

    def attr_sum(group, key, pred=None):
        vals = [spans[i].attrs.get(key) for i in groups.get(group, [])]
        if pred is None:
            return sum(v for v in vals if v is not None)
        return sum(1 for v in vals if v is not None and pred(v))

    own = self_times(spans)
    energy_calls = calls("jet.energy")
    solves = calls("picard.solve")
    converged = sum(1 for i in groups.get("picard.solve", []) if "error" not in spans[i].attrs)
    derive = [spans[i].duration for i in _under(spans, setup_root)
              if spans[i].name == "jet.initial_jet"]
    return {
        "jet.energy_s": total("jet.energy"),
        "jet.energy_calls": energy_calls,
        "jet.energy_step_ms": 1e3 * total("jet.energy") / energy_calls if energy_calls else 0.0,
        "jet.pole_steps": attr_sum("jet.energy", "pole", bool),
        "jet.ceiling_violations": attr_sum("jet.energy", "within", lambda v: not v),
        "jet.derive_s": sum(derive),
        "galerkin.assemble_s": total("galerkin.assemble"),
        "galerkin.assemble_calls": calls("galerkin.assemble"),
        "galerkin.march_s": total("galerkin.march"),
        "galerkin.march_calls": calls("galerkin.march"),
        "galerkin.steps": attr_sum("galerkin.march", "steps"),
        "picard.solve_s": total("picard.solve"),
        "picard.self_s": sum(own[i] for i in groups.get("picard.solve", [])),
        "picard.iterations": attr_sum("picard.solve", "iterations"),
        "picard.solves": solves,
        "picard.converged_ratio": converged / solves if solves else 0.0,
        "picard.contraction_s": total("picard.contraction"),
        "picard.contraction_calls": calls("picard.contraction"),
        "eulerian.snapshot_s": total("eulerian.snapshot"),
        "eulerian.snapshot_calls": calls("eulerian.snapshot"),
        "eulerian.boundary_s": total("eulerian.boundary"),
        "eulerian.boundary_calls": calls("eulerian.boundary"),
        "fd_oracle.solve_s": total("fd_oracle.solve"),
        "fd_oracle.calls": calls("fd_oracle.solve"),
        "weighted_calculus.check_s": total("weighted_calculus.check"),
        "weighted_calculus.check_calls": calls("weighted_calculus.check"),
        "profile.build_s": total("profile.build"),
        "cli.emit_s": total("cli.emit"),
        "cli.emit_calls": calls("cli.emit"),
        "cli.emit_bytes": attr_sum("cli.emit", "bytes"),
        "trace.run_s": spans[run_root].duration,
        "trace.self_sum_s": sum(own[i] for i in run),
    }
