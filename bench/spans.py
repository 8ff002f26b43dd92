"""Per-layer tracing of superdraw, installed from outside the package.

`Tracer.active()` replaces the public functions of each superdraw module
(and the few methods the hot paths go through) with timing wrappers, in
every module namespace that holds a reference to them, and restores the
originals on exit. Each wrapper keeps a call count, inclusive time and the
time covered by nested wrapped calls, so a layer's self time is inclusive
minus child time. Spans are aggregated in memory by name; nothing is
written while a command runs.

`autodiff.as_tensor` is left unwrapped: every tape operator calls it, so a
wrapper there would mostly time itself. Tensor operators are not module
functions either; their cost lands in the self time of the nearest wrapped
caller (for example the pension rules or the rollout loop).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import types
from time import perf_counter

MODULES = ("esg", "mortality", "account", "utility", "policy", "autodiff",
           "trainer", "baselines", "evaluator", "cli")

# Public functions outside `__all__` that the hot paths call by name.
EXTRA_FUNCTIONS = {"policy": ("normalized_inputs",),
                   "trainer": ("batch_objective",),
                   "cli": ("main", "build_parser", "build_train_config",
                           "cmd_calibrate", "cmd_simulate", "cmd_train",
                           "cmd_evaluate", "cmd_demo_path")}
SKIP = {("autodiff", "as_tensor")}
# (module, class, method, span name)
METHODS = (("autodiff", "Tensor", "backward", "autodiff.backward"),
           ("esg", "ScenarioPanel", "take", "esg.panel_take"),
           ("trainer", "TrainConfig", "curve", "trainer.curve"),
           ("trainer", "TrainConfig", "training_panel",
            "trainer.training_panel"),
           ("trainer", "TrainConfig", "initial_econ_state",
            "trainer.initial_econ_state"),
           ("trainer", "TrainReport", "to_csv", "trainer.report_to_csv"))
WRITERS = ("write_utilities_csv", "write_outperformance_csv",
           "write_kde_csv", "write_medians_csv")


def _tape_size(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Aggregated spans and counters for the commands run while active."""

    def __init__(self):
        self.spans = {}      # name -> [calls, inclusive s, child s]
        self.counters = {"esg.simulate.path_years": 0,
                         "esg.panel_to_csv.bytes": 0,
                         "evaluator.write_csv.bytes": 0,
                         "autodiff.tape_nodes": 0}
        self._stack = []

    def _wrap(self, name: str, fn, after=None, before=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _hooks(self, module: str, name: str):
        c = self.counters
        if (module, name) == ("esg", "simulate"):
            def after(args, kwargs):
                M = kwargs.get("M", args[2] if len(args) > 2 else None)
                T = kwargs.get("T", args[3] if len(args) > 3 else None)
                c["esg.simulate.path_years"] += int(M) * int(T)
            return None, after
        if (module, name) == ("esg", "panel_to_csv"):
            def after(args, kwargs):
                c["esg.panel_to_csv.bytes"] += os.path.getsize(args[1])
            return None, after
        if module == "evaluator" and name in WRITERS:
            def after(args, kwargs):
                c["evaluator.write_csv.bytes"] += os.path.getsize(args[1])
            return None, after
        if (module, name) == ("autodiff", "backward"):
            def before(args, kwargs):
                if not c["autodiff.tape_nodes"]:
                    c["autodiff.tape_nodes"] = _tape_size(args[0])
            return before, None
        return None, None

    @contextlib.contextmanager
    def active(self):
        mods = {m: sys.modules[f"superdraw.{m}"] for m in MODULES}
        wrapped = {}        # original function -> wrapper
        restore = []        # (owner, attribute, original)
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + \
                list(EXTRA_FUNCTIONS.get(short, ()))
            for name in names:
                fn = getattr(mod, name)
                if (short, name) in SKIP or not isinstance(
                        fn, types.FunctionType) or \
                        fn.__module__ != mod.__name__:
                    continue
                before, after = self._hooks(short, name)
                wrapped[fn] = self._wrap(f"{short}.{name}", fn, after, before)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            before, after = self._hooks(short, meth)
            restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(span, fn, after, before))
        # Rebind every module-level reference, including names imported
        # into other modules (`from .account import age_pension`).
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- report

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        calls, total, child = self.spans.get(name, [0, 0.0, 0.0])
        return total - child

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def module_self(self, module: str) -> float:
        return sum(total - child for name, (_, total, child)
                   in self.spans.items() if name.split(".")[0] == module)

    def total_self(self) -> float:
        return sum(total - child for _, total, child in self.spans.values())
