"""Every exported name resolves, and so does every call the benchmark tracer wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import svfree

MODULES = sorted(
    f"svfree.{m.name}" for m in pkgutil.iter_modules(svfree.__path__) if not m.name.startswith("_")
)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["svfree", *MODULES])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    missing = [
        target for target in tracing.TARGETS
        if not hasattr(importlib.import_module("svfree." + target.split(".")[0]),
                       target.split(".", 1)[1])
    ]
    assert missing == []
