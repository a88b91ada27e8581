"""Property test: no single-field corruption of an instance file crashes the CLI."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mplq.cli import run_cli
from mplq.instance import GeneratorConfig, generate_instance, instance_to_dict

# A valid 2-space instance with a 3-task pool, small enough for the oracle.
TINY = instance_to_dict(generate_instance(
    GeneratorConfig(num_spaces=2, locations_per_space=3, seed=3)))

DELETE = object()
VALUES = (0, -1, 1e308, 1e-300, math.nan, math.inf, -math.inf, 10 ** 400, "x", [1, 2], None, DELETE)
VALUE_IDS = ("0", "-1", "1e308", "1e-300", "nan", "inf", "-inf", "10**400", "str", "list",
             "null", "delete")


def _paths(node, prefix=()):
    """Every key or index path into ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(TINY))


def _mutated(path, value):
    doc = json.loads(json.dumps(TINY))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli_survives(path, value):
    """``solve`` and ``oracle`` on TINY with one field replaced: a result or a clean error."""
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        instance.write_text(json.dumps(_mutated(path, value)))
        for argv in (["solve", "--agents", "2", "--iters", "2", "--out-dir", f"{tmp}/out"],
                     ["oracle"]):
            code, out, err = _run([*argv, "--instance", str(instance)])
            assert code in (0, 1, 2)
            if code:
                assert any(line.startswith(("error:", "refused:"))
                           for line in err.splitlines()), (argv[0], code, out, err)
            else:
                result = [ln for ln in out.splitlines() if ln.startswith("RESULT ")][-1]
                reward = float(dict(p.split("=", 1) for p in result.split()[1:])["reward"])
                assert math.isfinite(reward) and reward > 0, (argv[0], result)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(VALUES))
def test_cli_survives_any_single_field_corruption(path, value):
    _check_cli_survives(path, value)


# The fields the slice bound guards: every value at each space's service time and window ends.
SLICE_FIELDS = [("spaces", i, *field) for i in range(len(TINY["spaces"]))
                for field in (("service_time",), ("window", 0), ("window", 1))]


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("path", SLICE_FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_cli_survives_every_value_in_a_slice_field(path, value):
    _check_cli_survives(path, value)


# A valid solver config small enough to solve TINY in well under a second.
SOLVER_CONFIG = {"agents": 2, "timesteps": 2, "gamma": 0.9, "tol": 1e-8, "seed": 0,
                 "policy": "hcps"}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(key=st.sampled_from(sorted(SOLVER_CONFIG)), value=st.sampled_from(VALUES))
def test_solve_survives_any_single_solver_config_corruption(key, value):
    config = dict(SOLVER_CONFIG)
    if value is DELETE:
        del config[key]
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        instance, solver_config = Path(tmp) / "instance.json", Path(tmp) / "solver.json"
        instance.write_text(json.dumps(TINY))
        solver_config.write_text(json.dumps(config))
        code, out, err = _run(["solve", "--instance", str(instance), "--config",
                               str(solver_config), "--out-dir", f"{tmp}/out"])
        assert code in (0, 1, 2)
        if code:
            assert any(line.startswith("error:") for line in err.splitlines()), \
                (key, value, code, out, err)
        else:
            assert "RESULT " in out
