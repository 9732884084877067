"""Run one baerkit command with timing spans around public functions.

    python3 perfbench/tracer.py SPANS.json -- ARGS...

behaves like `python -m baerkit ARGS...` (same stdout, same exit code) and
also writes, per wrapped function, its call count, total span time and
self time (span time minus the time of wrapped calls made inside it) to
SPANS.json.  The wrappers are installed from here, replacing every
reference the baerkit modules hold; no file of the package is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer -> public functions wrapped, as `module.qualname` under baerkit.
LAYERS = {
    "parse": ["presentation.parse_presentation"],
    "enumerate": ["coset.enumerate_cosets", "coset.to_group",
                  "core.ConcreteGroup.__init__"],
    "closure": ["core.Subgroup.generated", "core.normal_closure"],
    "structure": ["core.ConcreteGroup.conjugacy_classes",
                  "core.lower_central_series", "core.derived_series",
                  "core.upper_central_series", "core.center",
                  "core.frattini_p_group", "core.quotient",
                  "core.direct_product", "core.sylow_decomposition"],
    "defect": ["subnormal.cyclic_defect", "subnormal.defect",
               "subnormal.t_n_subgroup", "subnormal.t_n_within",
               "subnormal.classify", "subnormal.brute_force_defect"],
    "engel": ["engel.is_left_n_engel", "engel.is_n_engel_group",
              "engel.check_metabelian_identities",
              "engel.check_expansion_formula"],
    "checks": [f"verify.check_{name}" for name in (
        "expected_invariants", "congruence_subnormality",
        "frattini_t2_structure", "cyclic_closure_class",
        "generated_subgroup_class", "metabelian_identity_suite",
        "expansion", "odd_p_metabelian_class", "solubility_and_engel",
        "quotient_two_baer", "subgroup_inheritance",
        "product_decomposition")],
    "render": ["cli.main"],
}
TRACED = [name for names in LAYERS.values() for name in names]

# A `defect` span directly inside a `cyclic_defect` span is a cache miss.
MISS_EDGE = ("subnormal.cyclic_defect", "subnormal.defect")


class Recorder:
    """Aggregates spans in memory: per name [calls, total_s, self_s]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self.misses = 0
        self._stack: list[list] = []  # [name, time of child spans]

    def wrap(self, name: str, fn):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    if (parent[0], name) == MISS_EDGE:
                        self.misses += 1

        return traced

    def to_json(self) -> dict:
        return {"functions": {name: {"calls": c, "total_s": t, "self_s": s}
                              for name, (c, t, s) in self.stats.items()},
                "cyclic_defect_misses": self.misses}


def install(recorder, names: list[str] = TRACED) -> None:
    """Replace each named function with `recorder.wrap(name, function)` in
    every baerkit module that refers to it, and each named method on its
    class."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "baerkit" or n.startswith("baerkit.")]
    for name in names:
        modname, _, qual = name.partition(".")
        owner = importlib.import_module(f"baerkit.{modname}")
        *outer, attr = qual.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(recorder.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, recorder.wrap(name, raw))
            continue
        original = getattr(owner, attr)
        traced = recorder.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- ARGS...", file=sys.stderr)
        return 1
    spans_path, args = argv[0], argv[2:]
    import baerkit.cli

    recorder = Recorder()
    install(recorder)
    try:
        code = baerkit.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
