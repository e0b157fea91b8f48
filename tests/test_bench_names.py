"""The names bench/tracing.py rebinds must exist in the package.

The tracer wraps module attributes by name; a refactor that drops one of
those imports would otherwise surface only when a traced benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer,targets", sorted(
    (layer, targets) for layer, (targets, _) in _layers().items()))
def test_tracer_targets_resolve(layer, targets):
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}: {module_name}.{attr}"
