"""The exit-code contract of `qshannon` under fuzzed configs: 0 success, 1 a
check failed with its report on stdout, 2 a usage error with nothing on
stdout and one `error:` line on stderr.  No exception may escape `main`."""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qshannon import cli

WILD = st.one_of(st.integers(-2, 3), st.floats(-1.5, 2.5), st.booleans(),
                 st.sampled_from(["", "x", "0.2", "old"]),
                 st.lists(st.integers(-1, 2), max_size=2), st.none())
PROBS = st.sampled_from([[0.5, 0.5], [1.0], [0.2, 0.8], [-0.1, 1.1], [0.5, 0.6], []])
STATE = st.just([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])

# each command's keys with small valid values: (values, always present); a key
# left out takes its default, so a key whose default is costly is always drawn
VALID = {
    "entropy": {"probs": (PROBS, False), "ref_probs": (PROBS, False), "state": (STATE, False)},
    "capacity": {"family": (st.sampled_from(["erasure", "depolarizing"]), True),
                 "grid": (st.lists(st.floats(0.0, 1.0), min_size=1, max_size=1), True),
                 "which": (st.lists(st.sampled_from(["C1", "CE", "Q1"]), max_size=2), True),
                 "restarts": (st.just(1), True)},
    "compress": {"example": (st.just("schumacher3qubit"), False), "probs": (PROBS, False),
                 "states": (STATE, False), "n": (st.integers(1, 4), False),
                 "delta": (st.floats(0.05, 1.0), False), "rate": (st.floats(0.0, 1.5), False)},
    "concentrate": {"p": (st.floats(0.0, 1.0), False), "n": (st.integers(1, 6), True)},
    "measure": {"example": (st.sampled_from(["trine", "peres_wootters", "haar_gain"]), False),
                "d": (st.integers(2, 5), False)},
    "decouple": {"dims": (st.fixed_dictionaries({"A1": st.integers(1, 4),
                                                 "A2": st.integers(1, 4)}), True),
                 "e_dim": (st.integers(1, 4), False)},
    "blackhole": {"n": (st.integers(1, 6), True), "k": (st.integers(0, 3), False),
                  "c": (st.one_of(st.integers(0, 3),
                                  st.lists(st.integers(0, 3), min_size=1, max_size=3)), False),
                  "age": (st.sampled_from(["old", "young"]), False)},
    # no suite name: each suite takes a second or more
    "suite": {"name": (WILD, True)},
}
COMMON = {"seed": (st.integers(0, 50), False), "format": (st.sampled_from(["json", "csv"]), False),
          "out": (st.just(""), False)}
TAKES_TRIALS = ("concentrate", "measure", "decouple", "blackhole")


@st.composite
def invocations(draw, command):
    """A small valid config for the command with up to two keys, its own or a
    common one, set to any value, and `--trials` up to 4."""
    cfg = {"command": command}
    fields = {**VALID[command], **COMMON}
    for key, (values, always) in fields.items():
        if always or draw(st.booleans()):
            cfg[key] = draw(values)
    for key in draw(st.lists(st.sampled_from([*fields, "trials"]), max_size=2, unique=True)):
        # a path would take the report off stdout
        cfg[key] = draw(WILD.filter(lambda v: key != "out" or not v))
    flags = []
    if command in TAKES_TRIALS or draw(st.booleans()):
        flags = ["--trials", str(draw(st.integers(1, 4)))]
    return cfg, flags


# a RuntimeWarning marks a NaN or inf on its way into a report
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract(tmp_path_factory, command, data):
    cfg, flags = data.draw(invocations(command))
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(path), *flags])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        return
    if out.startswith("{"):
        jsonschema.validate(json.loads(out), cli.load_schema())
    else:
        assert cfg["format"] == "csv" and "," in out.splitlines()[0]
