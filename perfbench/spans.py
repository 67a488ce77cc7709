"""In-memory spans around the public functions of betapar's layers.

A :class:`Tracer` replaces each target with a wrapper that records one span
per call: name, start, end, the index of the enclosing span, the operation
it belongs to, and an optional work figure taken from the call's arguments
or result.  Nothing is written while the benchmark runs; spans are written
once at the end.

A wrapper must replace a name wherever callers look it up: a function that
another module imported by name is replaced in that module too, and a
method is replaced on its class.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def _rule_windows(args, kwargs, result):
    """|A|^p of a LocalRule whose constructor tabulated its window space."""
    from betapar import conversion

    rule = args[0]
    threshold = kwargs.get("tabulate_threshold", conversion.TABULATE_THRESHOLD)
    windows = len(rule.input_alphabet) ** rule.p
    return windows if threshold and windows <= threshold else 0


# (span name, module, attribute, work(args, kwargs, result) or None)
#
# Construction targets are called a handful of times per run and are traced
# during set-up as well.  Layer targets are the hot calls; they are traced
# only in the traced pass of operations, because estimate_s alone makes
# millions of sign and floor calls during set-up.
CONSTRUCTION_TARGETS = [
    ("quadratic.gde_plus", "betapar.quadratic", "gde_plus", None),
    ("quadratic.gde_plus_special", "betapar.quadratic", "gde_plus_special", None),
    ("quadratic.gde_minus", "betapar.quadratic", "gde_minus", None),
    ("quadratic.quadratic_adder", "betapar.quadratic", "quadratic_adder", None),
    ("quadratic.shifted_adder", "betapar.quadratic", "shifted_adder", None),
    ("conversion.LocalRule", "betapar.conversion", "LocalRule.__init__", _rule_windows),
    ("conversion.verify_conversion", "betapar.conversion", "verify_conversion",
     lambda a, k, r: r.checked_count),
    ("blocks.estimate_s_report", "betapar.blocks", "estimate_s_report",
     lambda a, k, r: r.pairs_checked),
    ("blocks.SignedBlockAdder", "betapar.blocks", "SignedBlockAdder.__init__", None),
]

LAYER_TARGETS = [
    ("conversion.apply_local", "betapar.conversion", "apply_local",
     lambda a, k, r: len(a[1].digits)),
    ("conversion.ChainAdder.add", "betapar.conversion", "ChainAdder.add",
     lambda a, k, r: len(a[1].digits) + len(a[2].digits)),
    ("digits.add", "betapar.digits", "DigitString.__add__", None),
    ("digits.from_pairs", "betapar.digits", "DigitString.from_pairs", None),
    ("algebraic.eval_digit_string", "betapar.algebraic", "eval_digit_string",
     lambda a, k, r: len(a[0].digits)),
    ("algebraic.values_equal", "betapar.algebraic", "values_equal", None),
    ("algebraic.sign", "betapar.algebraic", "BetaBase.sign_of_vector", None),
    ("algebraic.floor", "betapar.algebraic", "BetaBase.floor_of_vector", None),
    ("numeration.greedy_vector_digits", "betapar.numeration", "greedy_vector_digits", None),
    ("blocks.decompose", "betapar.blocks", "BlockAdder.decompose",
     lambda a, k, r: (id(a[0]), tuple(a[1]))),
    ("blocks.phi", "betapar.blocks", "BlockAdder.phi", None),
]


class Tracer:
    """Records spans of wrapped calls; ``op`` labels the spans that follow.

    The label is "setup" during set-up, the operation's number during a
    traced operation, and "check" while its output is being checked.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op, work)
        self._stack = []
        self.op = "setup"

    def wrap(self, name, fn, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op,
                              work(args, kwargs, result) if done and work else None)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace every target by its wrapper; restore the originals on exit."""
        undo = []
        try:
            for name, modname, attr, work in targets:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self.wrap(name, original.__func__, work))
                    else:
                        wrapped = self.wrap(name, original, work)
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, original))
                else:
                    original = getattr(module, attr)
                    wrapped = self.wrap(name, original, work)
                    for modname2, mod in list(sys.modules.items()):
                        if modname2.split(".")[0] == "betapar" and getattr(mod, attr, None) is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_table(self, keep=lambda op: True):
        """Per span name: calls, total and self seconds, summed work, distinct work.

        Self time is a span's duration minus the durations of its child
        spans.  Only spans whose ``op`` label passes ``keep`` are counted.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op, work in spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, parent, op, work) in enumerate(spans):
            if not keep(op):
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "work": 0, "distinct": set()})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            if isinstance(work, tuple):
                row["distinct"].add(work)
            elif work is not None:
                row["work"] += work
        for row in table.values():
            row["distinct"] = len(row["distinct"])
        return table

    def outermost(self, prefix):
        """Total seconds in spans named prefix* that no such span encloses."""
        spans = self.spans
        total = 0.0
        for name, start, end, parent, op, work in spans:
            if not name.startswith(prefix):
                continue
            p = parent
            while p >= 0 and not spans[p][0].startswith(prefix):
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def write(self, spans_path, table_path):
        """Write every span as a JSON line and the per-layer table as text."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(spans_path, "w") as fh:
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "op": op,
                                     "start_us": round((start - t0) * 1e6, 3),
                                     "end_us": round((end - t0) * 1e6, 3)}) + "\n")
        table = self.layer_table()
        with open(table_path, "w") as fh:
            fh.write("%-34s %10s %12s %12s %12s\n" % ("span", "calls", "total_s", "self_s", "work"))
            for name in sorted(table):
                row = table[name]
                fh.write("%-34s %10d %12.6f %12.6f %12d\n" % (
                    name, row["calls"], row["total_s"], row["self_s"], row["work"]))
