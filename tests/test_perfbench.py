"""The benchmark's tracer names baerkit functions by dotted path; a rename
or deletion in the package must fail here rather than at trace time."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves_in_baerkit():
    tracer = _load_tracer()
    names = [name for names in tracer.LAYERS.values() for name in names]
    assert names
    for name in names:
        modname, _, qual = name.partition(".")
        owner = importlib.import_module(f"baerkit.{modname}")
        for part in qual.split("."):
            assert hasattr(owner, part), f"{name}: no {part!r} in {owner!r}"
            owner = getattr(owner, part)
        assert callable(owner), name
