"""Benchmark of fltaudit: closed-loop workloads, each operation in fresh processes.

    python3 perfbench/run.py --workload search-cube --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

One client runs operations back to back until ``--seconds`` would be
exceeded.  Every operation runs in its own temporary directory under
``.perfbench_tmp/`` and is checked against the reference outputs after its
processes exit; a failed check counts in ``failed`` and ``error_rate``.

With ``--trace 0`` the end-to-end metrics are the medians over operations of
spawn-to-exit wall time, child CPU time and maximum RSS (both from
``os.wait4``, per child), bytes written, and ``setup_s``, the median wall
time of a fresh ``python -c "import fltaudit.cli"``.  The benchmark and its
children run pinned to one CPU, and ``wall_s``, ``cpu_s`` and ``setup_s`` are
in reference seconds: each time is scaled by the speed ``speed.py`` sampled
on that CPU while it was measured (the raw times are printed beside them).
With ``--trace 1``
operations alternate untraced and traced; the traced ones run the steps in
process under ``child.py --trace`` and give the per-layer metrics, and
``trace.overhead_s`` is traced minus untraced wall time.

The program is imported from ``src/`` next to this directory.  Each run
prints one line per metric, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
from tracer import layer_metrics
from workloads import WORKLOADS, Step, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_SAMPLES = 9
STEP_TIMEOUT_S = 150
MB = 1e6

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s"}
# Printed beside the metrics but left out of the JSON line: unscaled times and
# the sampled speed factor.
INFORMATIONAL = ("raw.", "speed_ratio")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_mb", ".mb")):
        return "MB"
    return "ratio" if name.endswith("_ratio") else "count"


@dataclass
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mb: float
    output_mb: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    # The CPU's sampled speed over the reference speed; 1.0 when not sampled.
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


class SpeedSampler:
    """Runs ``speed.py`` beside the processes timed inside the ``with`` block."""

    def __enter__(self) -> "SpeedSampler":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("speed.py did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate("\n", timeout=STEP_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed.py exited {self.proc.returncode}")
        self.factor = speed.factor(float(out.split()[0]))


def pin_to_one_cpu() -> None:
    """Keep this process, its children and the sampler on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(argv: list[str], cwd: Path) -> Usage:
    """Run one child to completion; time it from spawn to exit, account it with wait4."""
    started = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=sys.stderr.fileno())
    watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / MB,
    )


def step_argv(step: Step, spans: Path | None = None, run_id: str = "") -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "child.py"), "--trace", str(spans), "--run-id", run_id,
                step.kind, *step.args]
    if step.kind == "cli":
        return [sys.executable, "-m", "fltaudit", *step.args]
    return [sys.executable, str(HERE / "child.py"), step.kind, *step.args]


def run_step(step: Step, cwd: Path) -> int:
    return spawn(step_argv(step), cwd).code


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


def run_op(
    workload: Workload, ctx: dict, seed: int, op_dir: Path, traced: bool = False,
    sampled: bool = False,
) -> Op:
    """One operation: stage, run every step, then gate its outputs (untimed).

    With ``sampled`` the CPU's speed is sampled while the steps run.
    """
    out = op_dir / "out"
    out.mkdir(parents=True)
    workload.stage(out, ctx)
    before = snapshot(out)
    steps = workload.steps(seed)
    usages, dumps = [], []
    sampler = SpeedSampler() if sampled else contextlib.nullcontext()
    with sampler:
        for index, step in enumerate(steps):
            spans = op_dir / f"spans-{index}.json" if traced else None
            usages.append(spawn(step_argv(step, spans, f"{op_dir.name}/{index}"), out))
    for index in range(len(steps) if traced else 0):
        spans = op_dir / f"spans-{index}.json"
        if spans.is_file():
            dumps.append(json.loads(spans.read_text(encoding="utf-8")))
    written = sum(size for name, (size, mtime) in snapshot(out).items()
                  if before.get(name) != (size, mtime))
    problems = workload.check(out, [u.code for u in usages], ctx, seed)
    wall = sum(u.wall_s for u in usages)
    layers = {}
    if traced:
        if len(dumps) != len(steps):
            problems.append(f"spans written by {len(dumps)} of {len(steps)} traced steps")
        layers = layer_metrics(dumps, wall)
    return Op(
        wall_s=wall,
        cpu_s=sum(u.cpu_s for u in usages),
        rss_mb=max(u.rss_mb for u in usages),
        output_mb=written / MB,
        problems=problems,
        layers=layers,
        speed=sampler.factor if sampled else 1.0,
    )


def setup_samples(cwd: Path) -> tuple[list[float], float]:
    """Wall times of fresh interpreters importing the CLI, after one warm-up import.

    Returns the raw times and the CPU's speed factor sampled while they ran.
    """
    argv = [sys.executable, "-c", "import fltaudit.cli"]
    samples = []
    with SpeedSampler() as sampler:
        for index in range(SETUP_SAMPLES + 1):
            usage = spawn(argv, cwd)
            if usage.code != 0:
                raise RuntimeError(f"importing fltaudit.cli exited {usage.code}")
            if index:
                samples.append(usage.wall_s)
    return samples, sampler.factor


@dataclass
class Run:
    ops: list[Op]
    traced: list[Op]
    overheads: list[float]
    setup: list[float]
    setup_speed: float = 1.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP))
    run = Run(ops=[], traced=[], overheads=[], setup=[])
    try:
        if not trace:
            run.setup, run.setup_speed = setup_samples(run_dir)
        ctx = workload.prepare(run_dir, run_step)
        started = perf_counter()
        count = 0
        while True:
            count += 1
            if trace:
                # Alternate which side of the pair runs first.
                sides = (False, True) if count % 2 else (True, False)
                pair = {}
                for traced in sides:
                    op_dir = run_dir / f"op{count}{'t' if traced else 'u'}"
                    pair[traced] = run_op(workload, ctx, seed, op_dir, traced)
                    shutil.rmtree(op_dir)
                run.ops.append(pair[False])
                run.traced.append(pair[True])
                run.overheads.append(pair[True].wall_s - pair[False].wall_s)
            else:
                op_dir = run_dir / f"op{count}"
                run.ops.append(run_op(workload, ctx, seed, op_dir, sampled=True))
                shutil.rmtree(op_dir)
            elapsed = perf_counter() - started
            if elapsed + elapsed / count > seconds:
                return run
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(run: Run, trace: bool) -> dict[str, list[float]]:
    if trace:
        values = {name: [op.layers[name] for op in run.traced] for name in run.traced[0].layers}
        values["trace.overhead_s"] = run.overheads
        return values
    return {
        "wall_s": [op.wall_s * op.speed for op in run.ops],
        "cpu_s": [op.cpu_s * op.speed for op in run.ops],
        "peak_rss_mb": [op.rss_mb for op in run.ops],
        "output_mb": [op.output_mb for op in run.ops],
        "setup_s": [t * run.setup_speed for t in run.setup],
        "raw.wall_s": [op.wall_s for op in run.ops],
        "raw.cpu_s": [op.cpu_s for op in run.ops],
        "raw.setup_s": run.setup,
        "speed_ratio": [op.speed for op in run.ops],
    }


def report(name: str, seed: int, run: Run, trace: bool) -> dict:
    """Print the human-readable block for one run and return its result object."""
    everything = run.ops + run.traced
    failed = sum(not op.ok for op in everything)
    for op in everything:
        for problem in op.problems:
            print(f"perfbench: {name}: gate failed: {problem}", file=sys.stderr)
    print(f"{name} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"{len(everything)} operations, {failed} failed")
    metrics = {}
    for metric, values in metric_values(run, trace).items():
        unit = END_TO_END.get(metric) or unit_of(metric)
        q1, median, q3 = quartiles(values)
        print(f"  {metric:<30} {median:>14.6g} {unit:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        if not metric.startswith(INFORMATIONAL):
            metrics[metric] = {"value": median, "unit": unit}
    print(f"  {'error_rate':<30} {failed / len(everything):>14.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fltaudit" / "cli.py").is_file():
        print(f"perfbench: no fltaudit source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, run, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
