"""The benchmark's traced run wraps betapar functions by name; every name must resolve.

``perfbench/spans.py`` lists each wrapped target as (span, module,
attribute, work).  A target that no longer resolves would break
``perfbench/run.py --trace 1``, so a rename in ``src/`` fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
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
