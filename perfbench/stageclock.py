"""Run one baerkit command and note when each of its stages ends.

    python3 perfbench/stageclock.py MARKS.json -- ARGS...

behaves like `python -m baerkit ARGS...` (same stdout, same exit code) and
also writes to MARKS.json a list of [name, wall, cpu] marks: the
`time.perf_counter()` and `time.process_time()` readings at the start and
the end of every outermost call of a boundary function (the public
`verify.check_*` functions, `coset.enumerate_cosets` and
`subnormal.classify`).  The marks cut the command into stages: building a
group, each check, the final classification, and the gaps between them.
Only the outermost calls are marked, so a command makes a few hundred
marks of two clock reads each.

run.py times every sample this way and sums, stage by stage, the median
over the samples of a run; see README.md.  A command that calls no
boundary function writes no marks and is timed as one stage.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from tracer import LAYERS, install

BOUNDARIES = LAYERS["checks"] + ["coset.enumerate_cosets",
                                 "subnormal.classify"]


class StageClock:
    def __init__(self):
        self.marks: list[tuple[str, float, float]] = []
        self._depth = 0

    def wrap(self, name: str, fn):
        marks = self.marks
        wall, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self._depth == 0:
                marks.append((name, wall(), cpu()))
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    marks.append((name, wall(), cpu()))

        return marked


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: stageclock.py MARKS.json -- ARGS...", file=sys.stderr)
        return 1
    marks_path, args = argv[0], argv[2:]
    import baerkit.cli

    clock = StageClock()
    install(clock, BOUNDARIES)
    try:
        code = baerkit.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(clock.marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
