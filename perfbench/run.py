#!/usr/bin/env python3
"""Benchmark runner for mplq.

Run from the repository root:

    python3 perfbench/run.py --workload solve-mid --seed 0 --seconds 35 --trace 0

``--trace 0`` times the end-to-end metrics with no wrappers installed, each
timing restated at a fixed reference host speed (see meter.py).
``--trace 1`` makes one pass over the workload's inputs, running each input
untraced and then with every layer's entry points wrapped, and prints the
per-layer metrics. Each metric is printed on
its own line with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy is imported, so that no BLAS or OpenMP pool starts more
# threads than there are cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up rounds before and again after the measured passes, so that the
# set-up median samples the host at two moments.
SETUP_ROUNDS = 3

import harness  # noqa: E402  (benchmark-local modules, found next to this file)
import layers  # noqa: E402
import meter  # noqa: E402
from workloads import WORKLOADS, OpFailed, result_fields  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import():
    """Import mplq from the checkout's sources, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "mplq" or n.startswith("mplq.")]:
        del sys.modules[name]
    cli = importlib.import_module("mplq.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mplq was imported from {cli.__file__}, not from {SRC}")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    numpy = importlib.import_module("numpy")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


class Run:
    """Operations attempted in one benchmark run and the failures among them."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.wall_s: list[float] = []
        self.probe_ms: list[float] = []
        self.failures: list[str] = []

    def op(self, item: dict, out_dir: Path, reference=None, op_id=None):
        """Run, time and check one operation; returns (seconds, outcome) or None.

        ``reference`` is an earlier outcome of the same input and seed, which
        this one must repeat exactly. With a tracer installed, the operation
        (but not its checks) is recorded under ``op_id`` and its seconds are
        wall seconds; without one, they are reference seconds.
        """
        self.attempted += 1
        speed = meter.SpeedMeter() if self.tracer is None else None
        try:
            if self.tracer is not None:
                self.tracer.op = op_id
            try:
                with speed or contextlib.nullcontext():
                    start = time.perf_counter()
                    outcome = self.workload.run(item, out_dir)
                    seconds = time.perf_counter() - start
            finally:
                if self.tracer is not None:
                    self.tracer.op = None
            if speed is not None:
                self.wall_s.append(seconds)
                self.probe_ms.append(speed.probe_s() * 1e3)
                seconds = speed.reference_seconds(seconds)
            self.workload.check(item, outcome, out_dir)
            if reference is not None and outcome.signature != reference.signature:
                raise OpFailed("a repeat with the same seed gave a different result: "
                               f"{reference.signature[:200]!r} then {outcome.signature[:200]!r}")
        except Exception as exc:  # any failure counts against this operation only
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return seconds, outcome


def measure(run: Run, items: list, seconds: float) -> tuple[list[float], dict]:
    """Closed loop of whole passes over ``items``, one operation at a time.

    The first pass always runs; another starts only if the previous pass's
    duration still fits before the deadline, so a run lasts about ``seconds``. Returns the mean seconds per operation of each
    pass and the first outcome of each input.
    """
    pass_means: list[float] = []
    first: dict = {}
    deadline = time.perf_counter() + seconds
    last_pass = 0.0
    while not pass_means or time.perf_counter() + last_pass <= deadline:
        durations = []
        for idx, item in enumerate(items):
            done = run.op(item, run.workdir / f"op{idx}", first.get(idx))
            if done is not None:
                durations.append(done[0])
                first.setdefault(idx, done[1])
        if len(durations) < len(items):
            break
        pass_means.append(sum(durations) / len(durations))
        last_pass = sum(durations)
    return pass_means, first


def set_up(workload, selection, workdir: Path, setup_times: list) -> list:
    """SETUP_ROUNDS rounds of importing mplq and writing the inputs, in reference seconds."""
    for _ in range(SETUP_ROUNDS):
        round_dir = Path(tempfile.mkdtemp(prefix="setup", dir=workdir))
        with meter.SpeedMeter() as speed:
            start = time.perf_counter()
            fresh_import()
            items = workload.setup(selection, round_dir)
            wall = time.perf_counter() - start
        setup_times.append(speed.reference_seconds(wall))
    return items


def untraced(run: Run, items: list, seconds: float, selection, setup_times: list) -> dict:
    pass_means, first = measure(run, items, seconds)
    set_up(run.workload, selection, run.workdir, setup_times)
    if not pass_means:
        return {}
    rewards = [r for outcome in first.values() for r in outcome.rewards]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    describe("op_s: mean reference seconds per operation, per pass", pass_means)
    describe("op_wall_s: wall seconds per operation (not a metric)", run.wall_s)
    describe("probe_ms: mean probe milliseconds per operation (not a metric)", run.probe_ms)
    describe("setup_s: reference seconds per set-up round", setup_times)
    return {
        "op_s": (harness.median(pass_means), "s"),
        "reward_mean": (sum(rewards) / len(rewards), "1/cost"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (harness.median(setup_times), "s"),
    }


def describe(what: str, samples: list) -> None:
    """Print a sample set with its size, median and quartiles."""
    quartiles = [harness.percentile(samples, q) for q in (25, 50, 75)]
    print(f"{what}: n={len(samples)} q1={quartiles[0]:.4f} median={quartiles[1]:.4f} "
          f"q3={quartiles[2]:.4f} samples=" + ",".join(f"{x:.4f}" for x in samples))


def traced(run: Run, items: list) -> dict:
    """One traced pass over ``items``, each operation paired with an untraced twin.

    The untraced twin runs first with every wrapper removed; the traced one
    must repeat its result exactly. Their summed times give the overhead.
    """
    tracer = run.tracer = harness.Tracer()
    untraced_s = traced_s = 0.0
    for idx, item in enumerate(items):
        reference = run.op(item, run.workdir / f"untraced{idx}")
        undo = layers.install(tracer)
        try:
            done = run.op(item, run.workdir / f"op{idx}",
                          reference[1] if reference else None, op_id=idx)
        finally:
            undo()
        if reference is None or done is None:
            return {}
        untraced_s += reference[0]
        traced_s += done[0]
        if idx == 0 and getattr(run.workload, "reconcile", False):
            reconcile(run, tracer, done[1])
    found = layers.metrics(tracer, range(len(items)))
    found["trace.overhead_ratio"] = traced_s / untraced_s
    return {name: (found[name], unit) for name, unit in layers.UNITS.items()}


def reconcile(run: Run, tracer: harness.Tracer, outcome) -> None:
    """Operation 0 of solve-mid is the ROADMAP baseline solve; its counts must match."""
    got = layers.counts(tracer, [0])
    reward = result_fields(outcome.signature)["reward"]
    print("reconcile " + " ".join(f"{k}={v}" for k, v in got.items()) + f" reward={reward}")
    bad = {k: (got[k], v) for k, v in layers.RECONCILE.items() if got[k] != v}
    if reward != layers.RECONCILE_REWARD:
        bad["reward"] = (reward, layers.RECONCILE_REWARD)
    if bad:
        run.failures.append(f"baseline reconciliation, (got, expected): {bad}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mplq" / "__init__.py").is_file():
        print(f"error: no mplq sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        fresh_import()
        selection = workload.select()
        setup_times: list[float] = []
        items = set_up(workload, selection, workdir, setup_times)
        print("env " + json.dumps(environment(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        run = Run(workload, workdir)
        found = traced(run, items) if args.trace else \
            untraced(run, items, args.seconds, selection, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / max(run.attempted, 1):g}")
    for name, (value, unit) in found.items():
        print(f"{name:32s} {value!r} {unit}")
    correct = bool(found) and not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
