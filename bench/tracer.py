"""In-memory tracing of valadj's public functions, from outside the package.

``Tracer.install`` replaces every public name where its caller looks it
up: a function in the namespace of each module that refers to it (so
``valadj.engine.collateral_value`` and ``valadj.oracle.collateral_value``
are separate entries, ``instruments.collateral_value@engine`` and
``instruments.collateral_value@oracle``), and every public method on the
class that defines it (``curves.TermCurve.cumulative``).  Module
functions record one span each (name, start, end, parent span, call
id); methods, which run thousands of times per call, only add to a
count and a total.  Every entry keeps its self time, its duration minus
the time of the wrapped calls made inside it, in integer nanoseconds,
so the self times of all entries sum exactly to the root spans.

Private helpers are not wrapped; their time is self time of the public
function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

#: package modules, in layer order; their short names label the layers
LAYERS = ("cli", "engine", "instruments", "curves", "measure", "credit", "oracle")

# entries reported together as one per-layer metric
TERM_CURVE = ("curves.TermCurve.value", "curves.TermCurve.value_left", "curves.TermCurve.cumulative")
FTD = ("credit.JointDefaultModel.ftd_intensity", "credit.JointDefaultModel.log_joint_survival")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work done by one call, counted at the boundary: name -> fn(args, kwargs, result)
WORK = {
    "instruments.collateral_value": lambda a, k, r: {
        "points": _size(_arg(a, k, 2, "t")),
        "point_flows": _size(_arg(a, k, 2, "t")) * len(_arg(a, k, 0, "schedule").times),
    },
    "engine.solve_linear_adjustment": lambda a, k, r: {"panels": len(r.grid) - 1},
    "oracle.mc_value_riskfree_cpty": lambda a, k, r: {"paths": r.paths},
    "oracle.mc_value_independent": lambda a, k, r: {"paths": r.paths},
    "oracle.mc_value_correlated": lambda a, k, r: {"paths": r.paths},
    "credit.CreditCurve.inverse_survival": lambda a, k, r: {"draws": _size(_arg(a, k, 1, "w"))},
}


class Entry:
    """Totals of one wrapped name."""

    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = {}


class Tracer:
    def __init__(self):
        self.entries: dict[str, Entry] = {}
        self.spans: list[tuple] = []  # (call id, span id, parent span id, name, start ns, end ns)
        self.call_id = 0
        # open frames: [time of wrapped children in ns, span id or None];
        # the bottom frame stands for the benchmark itself
        self._stack = [[0, None]]
        self._next_span = 0
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, span: bool):
        entry = self.entries.setdefault(name, Entry())
        work = WORK.get(name.split("@")[0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = parent = None
            if span:
                span_id = self._next_span
                self._next_span += 1
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                entry.calls += 1
                entry.total_ns += d
                entry.self_ns += d - frame[0]
                if span:
                    self.spans.append((self.call_id, span_id, parent, name, t0, t1))
            if work is not None:
                for key, n in work(args, kwargs, result).items():
                    entry.work[key] = entry.work.get(key, 0) + n
            return result

        return wrapper

    def install(self, package: str, modules) -> None:
        """Wrap the public functions and methods seen by ``modules``,
        which all belong to ``package``."""
        prefix = package + "."
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    name = f"{obj.__module__[len(prefix):]}.{obj.__name__}@{layer}"
                    self._patch(mod, attr, obj, self._wrap(obj, name, span=True))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{obj.__qualname__}.{meth}"
                        if inspect.isfunction(fn):
                            self._patch(obj, meth, fn, self._wrap(fn, name, span=False))
                        elif isinstance(fn, (classmethod, staticmethod)):
                            inner = self._wrap(fn.__func__, name, span=False)
                            self._patch(obj, meth, fn, type(fn)(inner))

    def _patch(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay."""
        for entry in self.entries.values():
            entry.__init__()
        self.spans.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for call, span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"call": call, "id": span, "parent": parent, "name": name,
                         "start_ns": t0, "end_ns": t1}
                    )
                    + "\n"
                )

    # -- per-layer metrics -------------------------------------------------

    def _pick(self, test) -> list:
        return [
            e for name, e in self.entries.items()
            if test(name.partition("@")[0], name.partition("@")[2])
        ]

    def self_time_gap_ns(self) -> int:
        """Sum of all self times minus the root ``cli.run_scenario`` spans;
        zero when every wrapped call happened inside a root span."""
        roots = self._pick(lambda base, caller: base == "cli.run_scenario")
        return sum(e.self_ns for e in self.entries.values()) - sum(e.total_ns for e in roots)

    def per_call(self, calls: int) -> dict:
        """Per-layer metrics per root call: name -> (value, unit)."""
        pick = self._pick

        def ms(es):
            return sum(e.total_ns for e in es) / calls / 1e6

        def self_ms(es):
            return sum(e.self_ns for e in es) / calls / 1e6

        def count(es):
            return sum(e.calls for e in es) / calls

        def work(es, key):
            return sum(e.work.get(key, 0) for e in es)

        def ns_per(es, units):
            return sum(e.total_ns for e in es) / units if units else 0.0

        root = pick(lambda b, c: b == "cli.run_scenario")
        adjust = pick(lambda b, c: b.startswith("engine.adjustment_"))
        solve = pick(lambda b, c: b == "engine.solve_linear_adjustment")
        cv = {
            caller: pick(lambda b, c, caller=caller: b == "instruments.collateral_value" and c == caller)
            for caller in ("engine", "oracle")
        }
        amount_at = pick(lambda b, c: b == "instruments.CashflowSchedule.amount_at")
        closeout = pick(lambda b, c: b == "instruments.closeout_values")
        term = pick(lambda b, c: b in TERM_CURVE)
        internal = pick(lambda b, c: b == "measure.internal_rate")
        ftd = pick(lambda b, c: b in FTD)
        inverse = pick(lambda b, c: b == "credit.CreditCurve.inverse_survival")
        mc = pick(lambda b, c: b.startswith("oracle.mc_value_"))
        panels = work(solve, "panels")
        paths = work(mc, "paths")

        out = {
            "cli.run_scenario.ms": (ms(root), "ms"),
            "cli.run_scenario.self_ms": (self_ms(root), "ms"),
            "engine.adjustment.ms": (ms(adjust), "ms"),
            "engine.solve_linear_adjustment.self_ms": (self_ms(solve), "ms"),
            "engine.panels": (panels / calls, "count"),
            "engine.ns_per_panel": (ns_per(adjust, panels), "ns"),
        }
        for caller, es in cv.items():
            out[f"instruments.collateral_value.{caller}.ms"] = (ms(es), "ms")
            out[f"instruments.collateral_value.{caller}.calls"] = (count(es), "count")
            out[f"instruments.collateral_value.{caller}.point_flows"] = (
                work(es, "point_flows") / calls, "count")
        all_cv = cv["engine"] + cv["oracle"]
        out["instruments.collateral_value.ns_per_point_flow"] = (
            ns_per(all_cv, work(all_cv, "point_flows")), "ns")
        out.update({
            "instruments.amount_at.calls": (count(amount_at), "count"),
            "instruments.amount_at.ms": (ms(amount_at), "ms"),
            "instruments.closeout_values.ms": (ms(closeout), "ms"),
            "curves.term_curve.calls": (count(term), "count"),
            "curves.term_curve.ms": (ms(term), "ms"),
            "measure.internal_rate.calls": (count(internal), "count"),
            "measure.internal_rate.ms": (ms(internal), "ms"),
            "credit.ftd.calls": (count(ftd), "count"),
            "credit.ftd.ms": (ms(ftd), "ms"),
            "credit.inverse_survival.draws": (work(inverse, "draws") / calls, "count"),
            "credit.inverse_survival.ms": (ms(inverse), "ms"),
            "oracle.mc_value.ms": (ms(mc), "ms"),
            "oracle.mc_value.self_ms": (self_ms(mc), "ms"),
            "oracle.paths": (paths / calls, "count"),
            "oracle.ns_per_path": (ns_per(mc, paths), "ns"),
            "oracle.hit_ratio": (work(cv["oracle"], "points") / paths if paths else 0.0, "ratio"),
        })
        for layer in LAYERS[1:]:
            es = pick(lambda b, c, layer=layer: b.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = (self_ms(es), "ms")
        return out
