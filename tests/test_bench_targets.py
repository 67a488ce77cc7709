"""The benchmark's interface to betapar: every name and argument it uses must still work.

``perfbench/spans.py`` lists each wrapped target as (span, module,
attribute, work).  A target that no longer resolves would break
``perfbench/run.py --trace 1``, so a rename in ``src/`` fails here first.
The benchmark also uses betapar outside the traced names: every ``sweep``
set-up runs ``workloads.negative_control``, which rebuilds a rule as an
untabulated ``LocalRule``, and ``spans._rule_windows`` reads
``conversion.TABULATE_THRESHOLD``.  Both run here on one small rule.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from betapar.quadratic import gde_rule

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  _PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load("spans")
_TARGETS = _spans.CONSTRUCTION_TARGETS + _spans.LAYER_TARGETS


@pytest.mark.parametrize("modname,attr", [t[1:3] for t in _TARGETS],
                         ids=[t[0] for t in _TARGETS])
def test_target_resolves(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_both_target_lists_are_filled():
    assert _spans.CONSTRUCTION_TARGETS and _spans.LAYER_TARGETS


def test_negative_control_and_rule_windows_run(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))  # workloads imports valuecheck by name
    workloads = _load("workloads")
    rule = gde_rule("minus", 3, 1)
    assert workloads.negative_control(rule, workloads.vc.family_poly("minus", 3, 1), 2) == []
    windows = len(rule.input_alphabet) ** rule.p
    assert _spans._rule_windows((rule,), {}, rule) == windows > 0
    assert _spans._rule_windows((rule,), {"tabulate_threshold": 0}, rule) == 0
