"""Each module imports on its own, and loads only what it needs.

The package's `__init__` imports nothing, so a module that leans on another
having been imported first would fail only in a process that happens to
import it alone. Each check runs in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajrules

PACKAGE = Path(trajrules.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def loaded_after(module):
    """Names in sys.modules after a fresh interpreter imports `module`."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert f"trajrules.{module}" in loaded_after(f"trajrules.{module}")


@pytest.mark.parametrize("module,unwanted", [
    # only a request loads urllib.request
    ("trajrules.cli", lambda m: m in ("requests", "urllib.request", "http.client", "ssl")),
    # evaluate's metrics count labels; they need neither numpy nor the pipeline
    ("trajrules.metrics", lambda m: m == "numpy" or (
        m.startswith("trajrules.") and m not in ("trajrules.errors", "trajrules.metrics"))),
], ids=["cli_loads_no_http_stack", "metrics_loads_no_numpy_and_no_pipeline"])
def test_an_import_loads_only_what_it_needs(module, unwanted):
    assert [m for m in loaded_after(module) if unwanted(m)] == []
