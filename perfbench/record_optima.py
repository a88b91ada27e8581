#!/usr/bin/env python3
"""Write optima.json: exact optima of the oracle-tiny instance family.

The family is 3 parking spaces x 5 locations with max_lockers 3, generator
seeds 0..39, keeping pools of 3 to 5 tasks (at most 3^5 * 5! = 29,160
states each). The table records the generator settings and the policy too,
so the benchmark builds exactly the instances that were solved here. The optimum of an instance does not depend on the algorithm
that finds it, so any later oracle must reproduce these rewards bit for bit.

Run from the repository root:  python3 perfbench/record_optima.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from mplq.cli import run_cli  # noqa: E402
from mplq.instance import (GeneratorConfig, assign_customers,  # noqa: E402
                           generate_instance, save_instance)
from mplq.taskgen import build_tasks  # noqa: E402

GENERATOR = {"num_spaces": 3, "locations_per_space": 5, "max_lockers": 3}
POLICY = "hcps"
SEEDS = range(40)
SIZES = (3, 4, 5)


def main() -> int:
    optima = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            instance = generate_instance(GeneratorConfig(**GENERATOR, seed=seed))
            if len(build_tasks(instance, assign_customers(instance))) not in SIZES:
                continue
            path = Path(tmp) / f"{seed}.json"
            save_instance(instance, path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_cli(["oracle", "--instance", str(path), "--policy", POLICY])
            if code != 0:
                raise SystemExit(f"oracle failed on seed {seed} with exit code {code}")
            fields = dict(p.split("=", 1) for p in out.getvalue().split("RESULT ")[-1].split())
            optima[str(seed)] = {"tasks": int(fields["tasks"]), "reward": fields["reward"]}
    record = {"generator": GENERATOR, "policy": POLICY, "optima": optima}
    target = Path(__file__).resolve().parent / "optima.json"
    target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(optima)} optima to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
