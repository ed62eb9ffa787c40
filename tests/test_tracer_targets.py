"""Every name the perfbench tracer patches must exist in trajrules.

perfbench/spans.py wraps module-level names listed in its TARGETS; a name
deleted or renamed in src/ would otherwise fail only the traced benchmark run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module_name, attribute, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{attribute}")
                break
    assert missing == []
