"""Every ``betapar`` command of the README's CLI quick start runs and exits 0.

The command list is the one ``tools/bench.py`` times, read by its own
``readme_cli_commands``, so a stale README line fails here rather than as a
silently failing timing.  Each line runs in-process through
:func:`betapar.cli.main`.
"""

import importlib.util
import shlex
from pathlib import Path

import pytest

from betapar.cli import main

_BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("tools_bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMMANDS = _load_bench().readme_cli_commands()


@pytest.mark.parametrize("line", _COMMANDS, ids=_COMMANDS)
def test_readme_command_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr()
