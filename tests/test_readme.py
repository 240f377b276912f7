"""Every JSON config in the README runs through the `qshannon` command, with
`--trials 2` where the command takes trials, and exits 0 or 1."""

import json
import pathlib
import re

import pytest

from qshannon import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_configs():
    assert len(CONFIGS) >= 5


@pytest.mark.parametrize("text", CONFIGS, ids=[f"config{i}" for i in range(len(CONFIGS))])
def test_readme_config_runs(tmp_path, text):
    config = json.loads(text)
    params = {**config.get("params", {}),
              **{k: v for k, v in config.items() if k not in cli.RESERVED_KEYS}}
    argv = ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "report")]
    if cli.resolve(config["command"], params, None, None, None)["trials"] is not None:
        argv += ["--trials", "2"]
    (tmp_path / "c.json").write_text(text)
    assert cli.main(argv) in (0, 1)
