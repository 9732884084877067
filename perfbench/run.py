"""baerkit benchmark: whole-command timings, output oracles and per-layer
spans for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  Each timed command is a fresh process
that runs baerkit's CLI on the checkout's `src/` under stageclock.py, which
notes where the command's stages (group builds, checks) begin and end;
commands are started one at a time (a closed loop with one client) until
S seconds have passed.  The last stdout line is a JSON object
{correct, attempted, failed, metrics}: with --trace 0 the end-to-end
metrics (medians over the run; wall and CPU time summed stage by stage),
with --trace 1 the per-layer metrics of one extra traced command.  --all runs every
workload traced and prints both kinds as a table.  Inputs, stdout and a
full record of each run go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import TRACED
from workloads import WORKLOADS, Prepared, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPS = 11
OVERRUN = 1.25  # the timed loop ends within OVERRUN * --seconds
RUN_LIMIT_S = 165.0  # every child is killed so that a run ends before 180 s
COVERAGE_MIN = 0.75  # summed span self times / traced wall time

_SETUP_CODE = (
    "import baerkit.cli, json, sys, numpy;"
    "sys.stdout.write(json.dumps({'baerkit': baerkit.cli.__file__,"
    " 'numpy': numpy.__version__}) + '\\n'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per process: the machine has few cores and the program
    # is single-threaded by design, so BLAS pools would only add noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _read_steal() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> list[float] | None:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def _reap(proc: subprocess.Popen) -> None:
    """Kill a child the benchmark is leaving behind and wait for it."""
    proc.kill()
    proc.wait()


def _measure_setup(env: dict, deadline: Deadline) -> tuple[list[float], dict]:
    """Seconds from spawning the interpreter until `import baerkit.cli`
    returns, SETUP_REPS times after one untimed warm-up import."""
    times, info = [], {}
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE], env=env,
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=max(1.0, deadline.left()))
        except BaseException:
            _reap(proc)
            raise
        if code != 0 or not line:
            raise BenchError(f"`import baerkit.cli` failed with exit code {code}")
        info = json.loads(line)
        if Path(info["baerkit"]).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"baerkit imported from {info['baerkit']}, "
                             f"not from {SRC}")
        if rep:
            times.append(elapsed)
    return times, info


def _run_child(argv: list[str], env: dict, stdout_path: Path,
               deadline: Deadline, marks_path: Path | None = None) -> dict:
    """Run one command to completion; wall, CPU and peak RSS from wait4.
    With `marks_path` (a command run under stageclock.py), also the wall
    and CPU time of each of its stages."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline.left()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        except BaseException:
            _reap(proc)
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = stdout_path.read_bytes()
    cpu = usage.ru_utime + usage.ru_stime
    sample = {"wall_s": t1 - t0, "cpu_s": cpu,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit_code": proc.returncode,
              "sha256": hashlib.sha256(data).hexdigest(), "stdout": data}
    if marks_path is not None:
        marks = json.loads(marks_path.read_text()) \
            if marks_path.is_file() else []
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        walls = [t0] + [m[1] for m in marks] + [t1]
        cpus = [0.0] + [m[2] for m in marks] + [cpu]
        sample["stages"] = [m[0] for m in marks]
        sample["stage_wall_s"] = [b - a for a, b in zip(walls, walls[1:])]
        sample["stage_cpu_s"] = [b - a for a, b in zip(cpus, cpus[1:])]
    return sample


def _staged_median(samples: list[dict], key: str) -> float:
    """Sum over the stages of the command of the stage's median time over
    the samples.  A burst of host interference slows the stages it falls
    in for one sample only, and the medians drop it; the median of whole
    commands keeps every burst that hits the middle sample.  If the
    samples did not pass the same stages, the median of whole commands."""
    if any(s["stages"] != samples[0]["stages"] for s in samples):
        return statistics.median(s[key] for s in samples)
    per_stage = zip(*(s[f"stage_{key}"] for s in samples))
    return sum(statistics.median(times) for times in per_stage)


def _judge(sample: dict, workload: Workload, prep: Prepared,
           first_sha: str) -> list[str]:
    errors = []
    if sample["exit_code"] != 0:
        errors.append(f"exit code {sample['exit_code']}")
    if sample["sha256"] != first_sha:
        errors.append("stdout differs from the first run of the set")
    return errors + workload.check(sample["stdout"], prep)


def _layer_metrics(spans: dict, traced_wall: float,
                   wall_median: float) -> dict:
    funcs = spans["functions"]
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = (funcs[name]["self_s"], "s")
        metrics[f"{name}.calls"] = (funcs[name]["calls"], "count")
    calls = funcs["subnormal.cyclic_defect"]["calls"]
    misses = spans["cyclic_defect_misses"]
    metrics["subnormal.cyclic_defect.misses"] = (misses, "count")
    metrics["subnormal.cyclic_defect.hit_ratio"] = (
        1.0 - misses / calls if calls else 0.0, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall_median, "s")
    covered = sum(f["self_s"] for f in funcs.values())
    metrics["trace.coverage"] = (covered / traced_wall, "ratio")
    return metrics


def _another_sample(samples: list[dict], start: float, seconds: float) -> bool:
    """Start another command while the run is shorter than `seconds`,
    unless one as long as the median so far would end more than
    OVERRUN * `seconds` after the run began (the time budget of all runs)."""
    elapsed = time.perf_counter() - start
    typical = statistics.median(s["wall_s"] for s in samples)
    return elapsed < seconds and elapsed + typical <= OVERRUN * seconds


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    if not (SRC / "baerkit" / "cli.py").is_file():
        raise BenchError(f"no baerkit sources under {SRC}")
    deadline = Deadline(RUN_LIMIT_S)
    outdir = OUT / workload.name / f"seed-{seed}-trace-{int(trace)}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    context = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "git_commit": _git_commit(), "loadavg_before": _loadavg(),
               "steal_ticks_before": _read_steal()}

    prep = workload.prepare(seed, outdir)
    setup_times, info = _measure_setup(env, deadline)
    context["numpy"] = info["numpy"]

    marks_path = outdir / "marks.json"
    argv = [sys.executable, str(BENCH_DIR / "stageclock.py"), str(marks_path),
            "--", *prep.args]
    samples: list[dict] = []
    failures: list[str] = []
    first_sha = None
    start = time.perf_counter()
    while not samples or _another_sample(samples, start, seconds):
        steal = _read_steal()
        marks_path.unlink(missing_ok=True)
        sample = _run_child(argv, env, outdir / f"stdout-{len(samples)}.txt",
                            deadline, marks_path)
        if steal is not None:
            sample["steal_ticks"] = _read_steal() - steal
        first_sha = first_sha or sample["sha256"]
        errors = _judge(sample, workload, prep, first_sha)
        failures += [f"run {len(samples)}: {e}" for e in errors]
        sample["ok"] = not errors
        samples.append(sample)
        if deadline.left() < 1.0:
            break

    median = {key: statistics.median(s[key] for s in samples)
              for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    staged = {key: _staged_median(samples, key) for key in ("wall_s", "cpu_s")}
    setup = statistics.median(setup_times)
    e2e = {"wall_s": (staged["wall_s"], "s"), "cpu_s": (staged["cpu_s"], "s"),
           "peak_rss_mb": (median["peak_rss_mb"], "MB"),
           "setup_s": (setup, "s")}
    attempted, failed = len(samples), sum(not s["ok"] for s in samples)

    layers, traced = None, None
    if trace:
        spans_path = outdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced = _run_child(
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
             "--", *prep.args], env, outdir / "stdout-traced.txt", deadline)
        errors = _judge(traced, workload, prep, first_sha)
        spans = json.loads(spans_path.read_text()) if spans_path.is_file() \
            else None
        if spans is not None:
            layers = _layer_metrics(spans, traced["wall_s"], median["wall_s"])
            coverage = layers["trace.coverage"][0]
            if not COVERAGE_MIN <= coverage <= 1.0:
                errors.append(f"span self times cover {coverage:.3f} of the "
                              f"traced wall time, outside [{COVERAGE_MIN}, 1]")
        else:
            errors.append("tracer wrote no spans")
        failures += [f"traced run: {e}" for e in errors]
        attempted += 1
        failed += bool(errors)

    context.update(loadavg_after=_loadavg(), steal_ticks_after=_read_steal())
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": trace, "argv": prep.args,
        "inputs": sorted(prep.files), "expected": prep.expected,
        "context": context,
        "setup_s_samples": setup_times,
        "whole_command_median": median,
        "samples": [{k: v for k, v in s.items() if k != "stdout"}
                    for s in samples],
        "traced": traced and {k: v for k, v in traced.items()
                              if k != "stdout"},
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures,
        "end_to_end": _as_json(e2e),
        "per_layer": layers and _as_json(layers),
    }
    (outdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return {"record": record, "e2e": e2e, "layers": layers,
            "samples": len(samples)}


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(result: dict) -> None:
    rec = result["record"]
    print(f"== {rec['workload']} (seed {rec['seed']}, {result['samples']} "
          f"runs, failed {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed_ratio']:.3g})")
    for name, (value, unit) in result["e2e"].items():
        print(f"  {name:<48} {_fmt(value):>12} {unit}")
    for failure in rec["failures"]:
        print(f"  FAIL {failure}")
    layers = result["layers"]
    if layers:
        print("  per layer (traced run; functions never called omitted):")
        for name in TRACED:
            calls = layers[f"{name}.calls"][0]
            if calls:
                print(f"    {name + '.self_s':<46} "
                      f"{_fmt(layers[name + '.self_s'][0]):>12} s"
                      f"  ({calls} calls)")
        for name, (value, unit) in layers.items():
            if not name.endswith((".self_s", ".calls")):
                print(f"    {name:<46} {_fmt(value):>12} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running child is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for workload in WORKLOADS.values():
                _print_report(run_workload(workload, args.seed, args.seconds,
                                           trace=True))
            return 0
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, trace=bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_report(result)
    rec = result["record"]
    chosen = result["layers"] if args.trace else result["e2e"]
    if chosen is None:
        print("benchmark error: the traced run produced no spans",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": rec["failed"] == 0, "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": _as_json(chosen),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
