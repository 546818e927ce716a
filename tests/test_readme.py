"""The README's examples run as written."""

import math
import os
import re
import shlex

import pytest

from gapdims.cli import build_parser, main

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _blocks(lang: str) -> list[str]:
    with open(README) as fh:
        text = fh.read()
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def _commands() -> list[list[str]]:
    (block,) = [b for b in _blocks("sh") if "gapdims dims" in b]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("gapdims ")]


def test_readme_python_block_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert float(printed[0]) == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-9)
    assert 0.0 < float(printed[1]) <= 1.0


def test_readme_commands_parse_and_run(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    commands = _commands()
    assert [c[0] for c in commands] == ["dims", "sample", "estimate", "experiment", "tailcheck"]
    for argv in commands:
        build_parser().parse_args(argv)
        if argv[0] != "experiment":   # the full manifest run is criterion 6
            assert main(argv) == 0, argv
