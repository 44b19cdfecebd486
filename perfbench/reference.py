"""Compact record of a run's outputs, and its comparison against a stored one.

A record holds the CSV tables ``energy``, ``contraction``, ``boundary`` and
``sweep`` in full, a sample of rows from each trajectory CSV, ``summary.json``
without its wall time, ``diff.json``, the passing and failing check names of
``verification.json``, the WARNING lines the CLI logged (they carry the
boundary-pole and energy-ceiling flags), the exit code and the list of files
written. sha256 digests of every file ride along as information only.

Comparison: exit code, file list, WARNING lines, check names, booleans,
iteration counts and table shapes must match exactly. A float passes when
``|got - ref| <= rtol * |ref| + SCALE_FLOOR * scale``, where ``scale`` is the
largest finite ``|ref|`` in the same table column (in the whole table for a
trajectory, whose columns are nodes of one field; the value itself for a
JSON field) and NaN matches only NaN. ``rtol`` is ``RTOL``, except
``RATIO_RTOL`` for the contraction differences and ratios, which are measured
on iterates that already agree to about 1e-11 and so carry the rounding of
the whole solve. The tolerances are set to hold across CPUs whose BLAS
kernels round differently: forcing OpenBLAS's non-FMA Nehalem kernels moved
energy summands by up to 1.6e-9 relative and last-iteration contraction
ratios by up to 8e-4 relative, with every flag and count unchanged. The
1e-12 per-summand equality of a same-machine refactor is a test of that
refactor, not of this check.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-7
RATIO_RTOL = 1e-2
SCALE_FLOOR = 1e-9
RATIO_FIELDS = ("sup_diff", "grad_diff", "ratio", "final_ratio", "final_contraction_ratio")

FULL_TABLES = ("energy.csv", "contraction.csv", "boundary.csv", "sweep.csv")
SAMPLED_TABLES = ("trajectory.csv", "trajectory_galerkin.csv", "trajectory_fd.csv")
EXACT_INT_COLUMNS = ("iteration", "iterations")
SAMPLE_ROWS = 10


def _cell(column: str, text: str):
    if text in ("true", "false"):
        return text == "true"
    if column in EXACT_INT_COLUMNS:
        return int(text)
    return float(text)


def read_table(path: Path, sample: bool = False) -> dict:
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    body = lines[1:]
    indices = list(range(len(body)))
    if sample and len(body) > SAMPLE_ROWS:
        step = len(body) // SAMPLE_ROWS
        indices = sorted(set(range(0, len(body), step)) | {len(body) - 1})
    rows = [[_cell(c, v) for c, v in zip(columns, body[i].split(","))] for i in indices]
    return {"columns": columns, "n_rows": len(body), "row_indices": indices, "rows": rows}


def capture(out_dir: Path, exit_code: int, stderr_text: str) -> dict:
    out_dir = Path(out_dir)
    files = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    record = {
        "exit_code": exit_code,
        "files": files,
        "warnings": [ln for ln in stderr_text.splitlines() if ln.startswith("WARNING")],
        "tables": {},
    }
    for name in FULL_TABLES + SAMPLED_TABLES:
        if name in files:
            record["tables"][name] = read_table(out_dir / name, sample=name in SAMPLED_TABLES)
    if "summary.json" in files:
        summary = json.loads((out_dir / "summary.json").read_text())
        summary.pop("wall_time_s", None)
        record["summary"] = summary
    if "diff.json" in files:
        record["diff"] = json.loads((out_dir / "diff.json").read_text())
    if "verification.json" in files:
        ver = json.loads((out_dir / "verification.json").read_text())
        record["verification"] = {
            "passed": ver["passed"],
            "passing": [c["name"] for c in ver["checks"] if c["passed"]],
            "failing": [c["name"] for c in ver["checks"] if not c["passed"]],
        }
    record["sha256"] = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in files
    }
    return record


def _scalar(ref, got, path: str, rtol: float, scale: float) -> list[str]:
    same = type(ref) is type(got) and ref == got
    if isinstance(ref, float) and isinstance(got, float):
        if math.isnan(ref) or math.isnan(got) or math.isinf(ref) or math.isinf(got):
            same = same or (math.isnan(ref) and math.isnan(got))
        else:
            same = abs(got - ref) <= rtol * abs(ref) + SCALE_FLOOR * scale
    return [] if same else [f"{path}: {got!r} != {ref!r}"]


def _finite_abs(values) -> float:
    return max((abs(v) for v in values if isinstance(v, float) and math.isfinite(v)), default=0.0)


def _table(ref: dict, got: dict, path: str) -> list[str]:
    table_scale = _finite_abs(v for row in ref["rows"] for v in row)
    errors = []
    for key in ("columns", "n_rows", "row_indices"):
        if ref[key] != got.get(key):
            errors.append(f"{path}/{key}: {got.get(key)!r} != {ref[key]!r}")
    width = len(ref["columns"])
    if errors or len(got["rows"]) != len(ref["rows"]) or any(len(r) != width for r in got["rows"]):
        return errors or [f"{path}: row count or width differs"]
    for j, column in enumerate(ref["columns"]):
        rtol = RATIO_RTOL if column in RATIO_FIELDS else RTOL
        scale = (table_scale if path in SAMPLED_TABLES
                 else _finite_abs(row[j] for row in ref["rows"]))
        for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
            errors += _scalar(r[j], g[j], f"{path}[{ref['row_indices'][i]}].{column}", rtol, scale)
    return errors


def _fields(ref: dict, got: dict, path: str) -> list[str]:
    if set(ref) != set(got):
        return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
    errors = []
    for key, r in ref.items():
        rtol = RATIO_RTOL if key in RATIO_FIELDS else RTOL
        errors += _scalar(r, got[key], f"{path}/{key}", rtol, _finite_abs([r]))
    return errors


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches of a record against the reference, each as 'path: detail'."""
    errors = []
    for key in ("exit_code", "files", "warnings", "verification"):
        if ref.get(key) != got.get(key):
            errors.append(f"{key}: {got.get(key)!r} != {ref.get(key)!r}")
    for key in ("summary", "diff"):
        if (key in ref) != (key in got):
            errors.append(f"{key}: present in only one record")
        elif key in ref:
            errors += _fields(ref[key], got[key], key)
    if sorted(ref["tables"]) != sorted(got["tables"]):
        errors.append(f"tables: {sorted(got['tables'])} != {sorted(ref['tables'])}")
    else:
        for name, table in ref["tables"].items():
            errors += _table(table, got["tables"][name], name)
    return errors


def digest_changes(ref: dict, got: dict) -> list[str]:
    """Files whose sha256 differs from the reference (information only)."""
    a, b = ref.get("sha256", {}), got.get("sha256", {})
    return sorted(k for k in a if b.get(k) != a[k])


def load(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save(record: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the gzip bytes a function of the record alone
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(record, indent=0, sort_keys=True) + "\n").encode())
