"""Benchmark for genlab: end-to-end command timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py            # every workload, each in a fresh process

A run is one process and a closed loop with one caller. It sets its inputs up
several times (importing genlab afresh each time), then issues the workload's
command chain through `genlab.cli.main` pass after pass for `--seconds`, with
stdout captured and every output checked. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. A traced run spends half its time on untraced passes so the
tracing overhead can be reported. Spans and run metadata go to
`.perfbench-out/` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_PASSES = 3
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from workloads import SEED_INVARIANT, WORKLOADS, Step  # noqa: E402


def fresh_cli() -> Any:
    """Import genlab from scratch and return its CLI module."""
    for name in [m for m in sys.modules if m == "genlab" or m.startswith("genlab.")]:
        del sys.modules[name]
    return importlib.import_module("genlab.cli")


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checker:
    """Checks each command's exit code, printed line and output bytes.

    Output bytes must repeat exactly from pass to pass and, where `use_pins`,
    equal the pinned hashes. The printed dimension and cover size must equal
    the pinned ones on every seed."""

    def __init__(self, pins: dict[str, Any], use_pins: bool) -> None:
        self.pins = pins
        self.use_pins = use_pins
        self.first: dict[str, dict[str, str]] = {}

    def check(self, step: Step, code: int | None, stdout: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        found = re.search(step.expect, stdout)
        if found is None:
            problems.append(f"printed {stdout.strip()!r}, expected /{step.expect}/")
        else:
            for key, value in found.groupdict().items():
                if int(value) != self.pins[key]:
                    problems.append(f"{key}={value}, pinned {self.pins[key]}")
        hashes = {}
        for path in step.outputs:
            hashes[Path(path).name] = sha256(path) if Path(path).is_file() else "missing"
        if hashes:
            earlier = self.first.setdefault(step.name, hashes)
            if hashes != earlier:
                problems.append(f"output bytes changed between passes: {hashes}")
            pinned = self.pins["sha256"].get(step.name)
            if self.use_pins and hashes != pinned:
                problems.append(f"output bytes {hashes} differ from pins {pinned}")
        return problems


def reference() -> int:
    """A fixed pure-Python load in genlab's style: Fraction arithmetic,
    comparisons and tuple building."""
    total = Fraction(0)
    kept = []
    for i in range(1, 3000):
        f = Fraction(i % 13 + 1, i % 29 + 7)
        total += f
        if f < total / i:
            kept.append((i, f))
    return len(kept)


class Clock:
    """Wall time scaled to a nominal speed of the cores it ran on.

    On a shared machine one core's speed swings by up to a factor of two
    within a fraction of a second, independently of the other core and with
    no steal time to show for it. Every timed block is therefore bracketed by
    REFERENCE_RUNS runs of `reference()` on as many threads as the block
    uses, and its wall time is scaled by the nominal over the mean measured
    reference time around it: seconds at the speed where one reference run
    takes REFERENCE_S per thread. Raw wall times are kept as well."""

    REFERENCE_S = 0.015  # reference() on an idle core of a 2-core shared VM, Python 3.11
    REFERENCE_RUNS = 4

    def __init__(self) -> None:
        self.last: dict[int, float] = {}

    def _reference(self, threads: int) -> float:
        start = time.perf_counter()
        if threads == 1:
            for _ in range(self.REFERENCE_RUNS):
                reference()
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in pool.map(lambda _: reference(), range(self.REFERENCE_RUNS * threads)):
                    pass
        return (time.perf_counter() - start) / self.REFERENCE_RUNS

    def time(self, fn: Any, *args: Any, threads: int = 1) -> tuple[Any, float, float]:
        """(result, scaled seconds, wall seconds) of fn(*args) on `threads` threads."""
        before = self.last.get(threads) or self._reference(threads)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            after = self.last[threads] = self._reference(threads)
        return result, wall * threads * self.REFERENCE_S / ((before + after) / 2), wall


def call_cli(cli: Any, argv: list[str]) -> int | None:
    try:
        return cli.main(argv)
    except Exception:  # a crash is counted as a failed command
        traceback.print_exc()
        return None


def run_pass(cli: Any, steps: list[Step], checker: Checker, clock: Clock) -> tuple[dict[str, float], float, int]:
    """Run the chain once: scaled seconds per step, wall seconds, failures."""
    times: dict[str, float] = {}
    wall_total = 0.0
    failed = 0
    for step in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code, times[step.name], wall = clock.time(
                call_cli, cli, list(step.argv), threads=step.threads)
        wall_total += wall
        problems = checker.check(step, code, out.getvalue())
        if problems:
            failed += 1
            print(f"FAILED {step.name}: {'; '.join(problems)}\n{out.getvalue()}",
                  file=sys.stderr)
    return times, wall_total, failed


def run_passes(cli: Any, steps: list[Step], checker: Checker, clock: Clock,
               seconds: float, minimum: int) -> tuple[list[dict[str, float]], list[float], int]:
    passes: list[dict[str, float]] = []
    walls: list[float] = []
    failed = 0
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        times, wall, bad = run_pass(cli, steps, checker, clock)
        passes.append(times)
        walls.append(wall)
        failed += bad
    return passes, walls, failed


def role_times(steps: list[Step], passes: list[dict[str, float]], role: str) -> list[float]:
    (step,) = [s for s in steps if s.role == role]
    return [p[step.name] for p in passes]


def read_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def metadata() -> dict[str, Any]:
    import genlab

    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "genlab_version": genlab.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": read_commit(),
        "src_lines": lines,
    }


def emit(correct: bool, attempted: int, failed: int, values: dict[str, float],
         spec: list[dict[str, Any]]) -> None:
    missing = {m["name"] for m in spec} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def traced_run(cli: Any, steps: list[Step], checker: Checker, clock: Clock,
               seconds: float, label: str, meta: dict[str, Any]) -> tuple[dict[str, float], int, int]:
    """Untraced passes for half the time, traced passes for the other half."""
    from tracer import Tracer

    plain, plain_walls, failed = run_passes(cli, steps, checker, clock, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_walls, bad = run_passes(cli, steps, checker, clock, seconds / 2, 1)
    finally:
        tracer.restore()
    values = tracer.metrics(len(traced))
    plain_s = statistics.median(sum(p.values()) for p in plain)
    traced_s = statistics.median(sum(p.values()) for p in traced)
    values["trace.overhead_s"] = traced_s - plain_s
    spans = OUT / f"spans-{meta['workload']}-{label}.jsonl"
    tracer.write(spans)
    meta.update(untraced_passes=len(plain), traced_passes=len(traced),
                untraced_pass_s=plain_s, traced_pass_s=traced_s,
                untraced_pass_wall_s=statistics.median(plain_walls),
                traced_pass_wall_s=statistics.median(traced_walls),
                tracing_overhead_s=traced_s - plain_s, spans=str(spans.relative_to(ROOT)))
    print("per-layer, per traced pass (self times in unscaled wall seconds; busy "
          "time summed over worker threads can exceed wall time):")
    for name, value in sorted(values.items()):
        print(f"  {name:45s} {value:.6g}")
    return values, (len(plain) + len(traced)) * len(steps), failed + bad


def timed_run(cli: Any, steps: list[Step], checker: Checker, clock: Clock,
              seconds: float, setup_s: float, meta: dict[str, Any]) -> tuple[dict[str, float], int, int]:
    passes, walls, failed = run_passes(cli, steps, checker, clock, seconds, MIN_PASSES)
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(sum(p.values()) for p in passes),
        "primary_s": statistics.median(role_times(steps, passes, "primary")),
        "secondary_s": statistics.median(role_times(steps, passes, "secondary")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(passes) * len(steps)
    by_command = {
        f"{s.name.replace('-', '_')}_s": statistics.median(p[s.name] for p in passes)
        for s in steps
    }
    meta.update(passes=len(passes), commands_s=by_command,
                pass_wall_s=statistics.median(walls))
    print(f"{meta['workload']} seed={meta['seed']}: medians of {len(passes)} passes "
          f"and {SETUP_REPEATS} set-ups")
    for name, value in {**by_command, **values}.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:22s} {value:.6g} {unit}")
    return values, attempted, failed


def run_workload(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    sys.path.insert(0, str(SRC))
    setup = WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[args.workload]
    label = "default" if args.seed is None else str(args.seed)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"

    def set_up(i: int) -> tuple[Any, list[Step]]:
        cli = fresh_cli()
        return cli, setup(cli, work / f"setup-{i}", args.seed)

    try:
        clock = Clock()
        setup_times = []
        for i in range(SETUP_REPEATS):
            (cli, steps), scaled, _ = clock.time(set_up, i)
            setup_times.append(scaled)
        checker = Checker(pins, args.seed is None or args.workload in SEED_INVARIANT)
        pinned_attempted = pinned_failed = 0
        if not checker.use_pins:
            # experiment bytes are pinned at the default seeds only: run and
            # check one untimed pass there as well, at the same thread counts
            pinned_steps = setup(cli, work / "pinned", None)
            _, _, pinned_failed = run_pass(cli, pinned_steps, Checker(pins, True), clock)
            pinned_attempted = len(pinned_steps)
        meta = {"workload": args.workload, "seed": label, "trace": args.trace,
                **metadata()}
        if args.trace:
            values, attempted, failed = traced_run(
                cli, steps, checker, clock, args.seconds, label, meta)
            spec = bench["per_layer"]
        else:
            values, attempted, failed = timed_run(
                cli, steps, checker, clock, args.seconds,
                statistics.median(setup_times), meta)
            spec = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted += pinned_attempted
    failed += pinned_failed
    meta.update(attempted=attempted, failed=failed, pinned_pass=pinned_attempted > 0)
    print(f"failed_ratio={failed}/{attempted} commands"
          + (", one untimed pass at the pinned seeds included" if pinned_attempted else ""))
    OUT.mkdir(exist_ok=True)
    meta_path = OUT / f"run-{args.workload}-{label}-trace{args.trace}.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(f"metadata: {meta_path.relative_to(ROOT)}")
    emit(failed == 0, attempted, failed, values, spec)
    return 0


def run_all(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    """Run every workload in its own fresh process and print one table."""
    rows = []
    for w in bench["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{w['name']}: exited {done.returncode}", file=sys.stderr)
            return 1
        rows.append((w["name"], json.loads(lines[-1])))
    print()
    for name, result in rows:
        values = " ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:15s} failed_ratio={result['failed']}/{result['attempted']} {values}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; the pinned default seeds when absent")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "genlab" / "__init__.py").is_file():
        print(f"error: no genlab sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is None:
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
