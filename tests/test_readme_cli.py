"""Both README quick starts run as written.

Every ``betapar`` command of the CLI quick start exits 0.  The command list
is the one ``tools/bench.py`` times, read by its own
``readme_cli_commands``, so a stale README line fails here rather than as a
silently failing timing.  Each line runs in-process through
:func:`betapar.cli.main`.  Every option of every command, but ``--help``,
is set by at least one of those lines.  The library quick start prints,
line by line, what the comments of its ``print`` lines say, up to the
first two-space gap of each comment.
"""

import argparse
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from betapar.cli import build_parser, main

_ROOT = Path(__file__).resolve().parent.parent
_BENCH = _ROOT / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("tools_bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMMANDS = _load_bench().readme_cli_commands()


@pytest.mark.parametrize("line", _COMMANDS, ids=_COMMANDS)
def test_readme_command_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr()


def test_every_option_has_a_readme_caller():
    # an option stays only if a caller outside the tests sets it
    used = {token.split("=", 1)[0] for line in _COMMANDS for token in shlex.split(line)}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    unused = sorted({"%s %s" % (name, option)
                     for name, command in subparsers.choices.items()
                     for action in command._actions for option in action.option_strings
                     if option not in ("-h", "--help") and option not in used})
    assert not unused, "options that no README command sets: %s" % ", ".join(unused)


def test_readme_library_quick_start_prints_its_comments(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Quick start \(library\)\n+```python\n(.*?)```", readme, re.S).group(1)
    want = [line.split("#", 1)[1].strip().split("  ")[0]
            for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert want and capsys.readouterr().out.splitlines() == want
