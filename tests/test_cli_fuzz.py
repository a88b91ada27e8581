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
VALUES = (0, -1, 1e308, 1e-300, math.nan, math.inf, -math.inf, 10 ** 400, True, 2.5, "x", [1, 2],
          None, DELETE)
VALUE_IDS = ("0", "-1", "1e308", "1e-300", "nan", "inf", "-inf", "10**400", "true", "2.5", "str",
             "list", "null", "delete")
# The integer fields of an instance, which take no fraction.
INTEGER_FIELDS = {"id", "demand", "max_lockers"}


def _paths(node, prefix=()):
    """Every key or index path into ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(TINY))


def _dotted(path):
    return ".".join(map(str, path))


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
    """``solve`` and ``oracle`` on TINY with one field replaced: a result or a clean error.

    A bool in any field, or a fraction in an integer field, is a parse error
    (exit 2), never read as a number or truncated.
    """
    parse_error = value is True or (value == 2.5 and path[-1] in INTEGER_FIELDS)
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        instance.write_text(json.dumps(_mutated(path, value)))
        for argv in (["solve", "--agents", "2", "--iters", "2", "--out-dir", f"{tmp}/out"],
                     ["oracle"]):
            code, out, err = _run([*argv, "--instance", str(instance)])
            assert code in ((2,) if parse_error else (0, 1, 2)), (argv[0], code, out, err)
            if code:
                assert any(line.startswith("error:" if parse_error else ("error:", "refused:"))
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
@pytest.mark.parametrize("path", SLICE_FIELDS, ids=_dotted)
def test_cli_survives_every_value_in_a_slice_field(path, value):
    _check_cli_survives(path, value)


# Every field set to a bool, and every integer field to a fraction.
TYPE_CONFUSIONS = [(path, True) for path in PATHS] + \
    [(path, 2.5) for path in PATHS if path[-1] in INTEGER_FIELDS]


@pytest.mark.parametrize("path, value", TYPE_CONFUSIONS,
                         ids=[f"{_dotted(path)}-{value}" for path, value in TYPE_CONFUSIONS])
def test_cli_refuses_a_bool_or_fraction_in_any_field(path, value):
    _check_cli_survives(path, value)
