"""The benchmark's layer tracer patches olp functions by name; each name
it lists must still resolve, or ``perfbench/run.py --trace 1`` crashes."""

import importlib
import importlib.util

from .conftest import ROOT


def test_every_traced_layer_name_is_an_olp_attribute():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not hasattr(importlib.import_module(f"olp.{layer}"), name)
    ]
    assert not missing
