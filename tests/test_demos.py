"""The fast demos run to completion; their own asserts check every sum they print.

demos/tribonacci_block_addition.py is left out: it takes about 17 s, nearly
all of it in estimate_s over the Tribonacci beta-integers, and criterion 5 of
the acceptance suite already covers that path.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["quadratic_gde_tour.py", "expansions_and_bounds.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out
