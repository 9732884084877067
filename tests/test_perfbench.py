"""The benchmark's tracer names baerkit functions by dotted path; a rename
or deletion in the package must fail here rather than at trace time."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from baerkit.core import Subgroup
from baerkit.verify import build_group, class3_p_group_presentation

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_tracer_counts_one_cyclic_defect_miss_per_cyclic_subgroup(tmp_path):
    # analyze asks the defect of <rep> once per class representative, and
    # representatives generating one cyclic subgroup share a memo entry:
    # each other call must be a hit, or the benchmark's hit_ratio drifts.
    text = class3_p_group_presentation(2)
    path = tmp_path / "class3-p2.txt"
    path.write_text(text)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*command):
        return subprocess.run([sys.executable, *command, "analyze", str(path)],
                              capture_output=True, text=True, env=env,
                              check=True).stdout

    assert run(str(TRACER), str(spans), "--") == run("-m", "baerkit")
    traced = json.loads(spans.read_text())
    group = build_group(text)
    cyclic = {Subgroup.generated(group, [r]).elements
              for r in group.class_reps()}
    calls = traced["functions"]["subnormal.cyclic_defect"]["calls"]
    assert traced["cyclic_defect_misses"] == len(cyclic) < calls
