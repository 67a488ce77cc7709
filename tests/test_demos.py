"""Every demo runs to completion; their own asserts check every sum they print.

Each takes about 1 s or less on an Intel Xeon with Python 3.11;
demos/tribonacci_block_addition.py certifies s exactly and sweeps
estimate_s only through words of 6 digits.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["quadratic_gde_tour.py", "expansions_and_bounds.py",
                                  "tribonacci_block_addition.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out
