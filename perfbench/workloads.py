"""The benchmark workloads: fixed inputs, one operation, and its output checks.

Every operation goes through ``mplq.cli.run_cli`` in this process, exactly as
``mplq <command> ...`` would run it. Set-up writes the workload's instance
files; operations then only read them. The inputs do not depend on the
workload seed (see README.md for why).
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Exact optima of the oracle-tiny instance family, keyed by generator seed,
# with the generator settings and policy they were found under; written by
# record_optima.py. They do not depend on the oracle's algorithm.
ORACLE_TABLE = json.loads((Path(__file__).resolve().parent / "optima.json").read_text())
OPTIMA = {int(k): v for k, v in ORACLE_TABLE["optima"].items()}


def mplq_module(name: str):
    """The current ``mplq.<name>`` module.

    Looked up at each use: set-up imports mplq afresh several times, and a
    traced run wraps attributes of whichever module objects are current.
    """
    return importlib.import_module(f"mplq.{name}")


class OpFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


@dataclass
class Outcome:
    """What one operation produced: its RESULT line(s) and best reward(s)."""

    signature: str
    rewards: list[float]


def run_cli(argv: list[str]) -> str:
    """Run one mplq command in-process and return its stdout; non-zero exit fails.

    ``run_cli`` is looked up at call time, so a traced run calls it through
    the tracer's wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mplq_module("cli").run_cli(argv)
    if code != 0:
        raise OpFailed(f"mplq {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def result_line(stdout: str) -> str:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise OpFailed("no RESULT line")
    return lines[-1]


def result_fields(line: str) -> dict[str, str]:
    return dict(pair.split("=", 1) for pair in line.split()[1:])


def _positive_finite(value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise OpFailed(f"reward {value!r} is not a positive finite number")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class SolveWorkload:
    """``mplq solve --solver hqm --policy hcps`` on a fixed family of one cell's instances.

    The family holds one instance per pool-size bin: the first generator seed,
    counting from 0, whose pool falls in the bin. Instances with a task whose
    demand exceeds the locker capacity are skipped, because no plan can serve
    such a task and ``mplq solve`` rightly exits 1 on them. Each instance is
    solved with its generator seed as solver seed. Solve time varies by up to
    a third between instances and between solver seeds (early convergence),
    so seeded instances or solver seeds would swamp any code change.
    """

    name: str
    spaces: int
    locations: int
    agents: int
    iters: int
    size_bins: tuple[tuple[int, int], ...]
    reconcile: bool = False

    def select(self) -> list[int]:
        """Generator seeds of the family, one per size bin, smallest pool first."""
        inst_mod, taskgen = mplq_module("instance"), mplq_module("taskgen")
        chosen: dict[tuple[int, int], int] = {}
        gen_seed = -1
        while len(chosen) < len(self.size_bins):
            gen_seed += 1
            instance = inst_mod.generate_instance(self._config(gen_seed))
            pool = taskgen.build_tasks(instance, inst_mod.assign_customers(instance))
            if max(task.demand for task in pool.tasks) > instance.fleet.capacity:
                continue
            for b in self.size_bins:
                if b not in chosen and b[0] <= len(pool) <= b[1]:
                    chosen[b] = gen_seed
                    break
        return [chosen[b] for b in self.size_bins]

    def _config(self, gen_seed: int):
        return mplq_module("instance").GeneratorConfig(
            num_spaces=self.spaces, locations_per_space=self.locations, seed=gen_seed)

    def setup(self, selection: list[int], workdir: Path) -> list[dict]:
        """Generate and write the instance files."""
        inst_mod = mplq_module("instance")
        items = []
        for gen_seed in selection:
            path = workdir / f"{self.name}-{gen_seed}.json"
            inst_mod.save_instance(inst_mod.generate_instance(self._config(gen_seed)), path)
            items.append({"path": str(path), "seed": gen_seed})
        return items

    def run(self, item: dict, out_dir: Path) -> Outcome:
        stdout = run_cli([
            "solve", "--instance", item["path"], "--solver", "hqm", "--policy", "hcps",
            "--agents", str(self.agents), "--iters", str(self.iters),
            "--seed", str(item["seed"]), "--out-dir", str(out_dir)])
        line = result_line(stdout)
        return Outcome(signature=line, rewards=[float(result_fields(line)["reward"])])

    def check(self, item: dict, outcome: Outcome, out_dir: Path) -> None:
        fields = result_fields(outcome.signature)
        if fields["hard_violations"] != "0":
            raise OpFailed(f"solve reported {fields['hard_violations']} hard violations")
        _positive_finite(float(fields["reward"]))
        stdout = run_cli(["validate", "--instance", item["path"],
                          "--solution", str(out_dir / "solution.json")])
        audit = result_fields(result_line(stdout))
        if audit["hard_violations"] != "0":
            raise OpFailed(f"validate found {audit['hard_violations']} hard violations")
        if audit["reward"] != fields["reward"]:
            raise OpFailed(f"re-evaluated reward {audit['reward']} != {fields['reward']}")


@dataclass
class GridWorkload:
    """One ``mplq bench`` pass at a fixed bench seed; the grid makes its own instances.

    The bench seed sets both the grid's instances and its solver seeds, so a
    varying bench seed would vary the instances, whose difficulty swamps any
    code change.
    """

    name: str
    argv: tuple[str, ...]
    rows: int

    def select(self) -> None:
        return None

    def setup(self, selection: None, workdir: Path) -> list[dict]:
        return [{}]

    def run(self, item: dict, out_dir: Path) -> Outcome:
        stdout = run_cli(["bench", *self.argv, "--out-dir", str(out_dir)])
        with open(out_dir / "grid.csv", newline="", encoding="utf-8") as fh:
            records = [r for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))
                       if r["kind"] == "rep"]
        rows = "\n".join(",".join(r.values()) for r in records)
        # The output path differs between repeats; everything else must not.
        line = " ".join(p for p in result_line(stdout).split() if not p.startswith("out="))
        return Outcome(signature=line + "\n" + rows,
                       rewards=[float(r["reward"]) for r in records])

    def check(self, item: dict, outcome: Outcome, out_dir: Path) -> None:
        if len(outcome.rewards) != self.rows:
            raise OpFailed(f"grid.csv holds {len(outcome.rewards)} rows, expected {self.rows}")
        for reward in outcome.rewards:
            _positive_finite(reward)


@dataclass
class OracleWorkload:
    """``mplq oracle --policy hcps`` over a fixed family of tiny instances.

    The family holds the first ``per_size[n]`` generator seeds of the recorded
    table whose pools have n tasks. The oracle takes no seed, and optima
    differ widely between tiny instances.
    """

    name: str
    per_size: dict[int, int]

    def select(self) -> list[int]:
        chosen = []
        for tasks, count in sorted(self.per_size.items()):
            matching = sorted(g for g in OPTIMA if OPTIMA[g]["tasks"] == tasks)
            if len(matching) < count:
                raise OpFailed(f"the optima table holds too few {tasks}-task instances")
            chosen.extend(matching[:count])
        return chosen

    def setup(self, selection: list[int], workdir: Path) -> list[dict]:
        inst_mod = mplq_module("instance")
        instances = []
        for gen_seed in selection:
            path = workdir / f"{self.name}-{gen_seed}.json"
            inst_mod.save_instance(inst_mod.generate_instance(inst_mod.GeneratorConfig(
                **ORACLE_TABLE["generator"], seed=gen_seed)), path)
            instances.append({"path": str(path), "seed": gen_seed})
        return [{"instances": instances}]

    def run(self, item: dict, out_dir: Path) -> Outcome:
        lines = []
        for inst in item["instances"]:
            stdout = run_cli(["oracle", "--instance", inst["path"],
                              "--policy", ORACLE_TABLE["policy"]])
            lines.append(result_line(stdout))
        return Outcome(signature="\n".join(lines),
                       rewards=[float(result_fields(ln)["reward"]) for ln in lines])

    def check(self, item: dict, outcome: Outcome, out_dir: Path) -> None:
        for inst, line in zip(item["instances"], outcome.signature.splitlines()):
            fields = result_fields(line)
            expected = OPTIMA[inst["seed"]]
            if int(fields["tasks"]) != expected["tasks"]:
                raise OpFailed(f"instance {inst['seed']}: {fields['tasks']} tasks, "
                               f"recorded {expected['tasks']}")
            if fields["reward"] != expected["reward"]:
                raise OpFailed(f"instance {inst['seed']}: oracle reward {fields['reward']} "
                               f"!= recorded optimum {expected['reward']}")


WORKLOADS = {
    w.name: w for w in (
        SolveWorkload("solve-mid", spaces=10, locations=20, agents=20, iters=200,
                      size_bins=((15, 15), (17, 17), (19, 19)), reconcile=True),
        GridWorkload("grid-desk", argv=("--spaces", "5,6", "--locations", "5,10",
                                        "--replications", "2", "--budget", "desk",
                                        "--jobs", "1", "--seed", "0"),
                     rows=2 * 2 * 2 * 2 * 2),  # spaces x locations x reps x solvers x policies
        OracleWorkload("oracle-tiny", per_size={3: 2, 4: 2, 5: 2}),
    )
}
