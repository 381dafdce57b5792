"""Traced runs: spans around the calls into each layeredit module.

Hooks replace a function under the name its caller module binds, e.g.
``layeredit.branching.find_p3``, so the wrapper sees every call the solver
makes.  Targets are looked up by name when the hooks are installed; a
binding that no longer exists is skipped, and a metric whose bindings are
all gone is reported as absent rather than as zero.

Each wrapped call is a span (name, start, end, parent, op id).  Aggregates
per name (calls, total ms, self ms) are exact for every call; the span
records themselves are kept in memory up to ``MAX_SPANS`` and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Only calls made while an op is active are recorded, so
the benchmark's own checks never show up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

# metric name -> bindings that callers use to reach the function
SPAN_HOOKS: dict[str, tuple[str, ...]] = {
    "cli.run": ("layeredit.cli.run",),
    "fileio.parse_instance": ("layeredit.cli.parse_instance",),
    "fileio.parse_solution": ("layeredit.cli.parse_solution",),
    "fileio.serialize_instance": ("layeredit.cli.serialize_instance",),
    "fileio.serialize_solution": ("layeredit.cli.serialize_solution",),
    "fileio.generate": ("layeredit.cli.generate_planted_logged",
                        "layeredit.cli.generate_sat_reduction"),
    "core.find_p3": ("layeredit.core.find_p3", "layeredit.branching.find_p3"),
    "core.apply_edits": ("layeredit.core.apply_edits", "layeredit.branching.apply_edits",
                         "layeredit.tcepath.apply_edits"),
    "core.is_cluster_graph": ("layeredit.tcepath.is_cluster_graph",
                              "layeredit.twolayer.is_cluster_graph"),
    "core.verify": ("layeredit.branching.verify", "layeredit.tcepath.verify",
                    "layeredit.cli.verify"),
    "branching.solve_mlce": ("layeredit.solve_mlce", "layeredit.cli.solve_mlce"),
    "branching.min_marked_completion": ("layeredit.branching.min_marked_completion",),
    "branching.kernel_k": ("layeredit.branching.kernel_k",),
    "tcepath.solve_tce_xp": ("layeredit.solve_tce_xp", "layeredit.cli.solve_tce_xp"),
    "tcepath.enumerate": ("layeredit.tcepath.enumerate_cluster_editing_sets",),
    "twolayer.check": ("layeredit.tcepath.solve_two_layer_zero_edit",),
    "twolayer.max_weight_matching": ("layeredit.twolayer.max_weight_matching",),
    "twolayer.linear_sum_assignment": ("layeredit.twolayer.linear_sum_assignment",),
    "kernelize": ("layeredit.cli.kernelize",),
}

MAX_SPANS = 100_000  # span records kept per run; aggregates cover every call

# counters from the solve_mlce ``trace=`` callback: third token of each line
TRACE_RULES = {"rule0": "branching.rule0_rejects", "rule1": "branching.rule1",
               "rule2": "branching.rule2", "rule3": "branching.rule3",
               "accept": "branching.accepts"}


def _resolve(binding: str):
    module_name, _, attr = binding.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    fn = getattr(module, attr, None)
    return (module, fn) if callable(fn) else (None, None)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.dropped = 0
        self.hooked: set[str] = set()
        self.absent_counts: set[str] = set()
        self._stack: list[list] = []
        self._op = ""
        self._active = False
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ ops
    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._active = True

    def end_op(self) -> None:
        self._active = False
        self._stack.clear()

    # ------------------------------------------------------------ spans
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < MAX_SPANS:
            sid = len(self.spans)
            self.spans.append(None)  # filled on exit
        else:
            sid = -1
        frame = [name, 0.0, 0.0, sid, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, sid, parent = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if sid >= 0:
            self.spans[sid] = (name, start, end, parent, self._op)
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if before is not None:
                before(kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ hooks
    def install(self) -> None:
        for name, bindings in SPAN_HOOKS.items():
            for binding in bindings:
                module, fn = _resolve(binding)
                if module is None:
                    continue
                before, after = self._extras(name, fn)
                attr = binding.rpartition(".")[2]
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, before, after))
                self.hooked.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _extras(self, name: str, fn):
        counts = self.counts
        if name == "branching.solve_mlce":
            return self._solve_mlce_extras(fn)
        if name == "tcepath.enumerate":
            def after(args, kwargs, result):
                counts["tcepath.part_size.sum"] += len(result)
                counts["tcepath.part_size.max"] = max(counts["tcepath.part_size.max"],
                                                      len(result))
            return None, after
        if name == "twolayer.check":
            def after(args, kwargs, result):
                counts["twolayer.check.accepts"] += result is not None
            return None, after
        if name == "kernelize":
            def after(args, kwargs, result):
                log = getattr(result, "rule_log", None)
                reduced = getattr(result, "reduced", None)
                if log is not None:
                    counts["kernelize.rules_applied"] += len(log)
                if reduced is not None:
                    counts["kernelize.vertices_in"] += args[0].n
                    counts["kernelize.vertices_out"] += reduced.n
            return None, after
        return None, None

    def _solve_mlce_extras(self, fn):
        """Read nodes and depth from a ``stats=`` object and count rule
        applications through the ``trace=`` callback, injecting either
        when the caller passed none."""
        counts = self.counts
        params = inspect.signature(fn).parameters
        stats_cls = getattr(importlib.import_module("layeredit.branching"), "SearchStats", None)
        use_stats = "stats" in params and stats_cls is not None
        use_trace = "trace" in params
        if not use_stats:
            self.absent_counts |= {"branching.nodes", "branching.max_depth"}
        if not use_trace:
            self.absent_counts |= set(TRACE_RULES.values())

        def count_line(line: str) -> None:
            parts = str(line).split()
            key = TRACE_RULES.get(parts[2]) if len(parts) > 2 else None
            if key is not None:
                counts[key] += 1
                counts["branching.trace_lines_parsed"] += 1

        def before(kwargs):
            if use_stats and kwargs.get("stats") is None:
                kwargs["stats"] = stats_cls()
            if use_trace:
                caller = kwargs.get("trace")
                if caller is None:
                    kwargs["trace"] = count_line
                else:
                    kwargs["trace"] = lambda line: (count_line(line), caller(line))

        def after(args, kwargs, result):
            counts["branching.solves"] += 1
            stats = kwargs.get("stats")
            if use_stats and stats is not None:
                counts["branching.nodes"] += getattr(stats, "nodes", 0)
                counts["branching.max_depth"] = max(counts["branching.max_depth"],
                                                    getattr(stats, "max_depth", 0))

        return before, after

    # ------------------------------------------------------------ results
    def metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics as name -> (value, unit), and the absent names."""
        out: dict[str, tuple[float, str]] = {}
        absent: list[str] = []
        for name in SPAN_HOOKS:
            if name == "twolayer.linear_sum_assignment":
                continue  # reported as twolayer.assignment_solves below
            keys = (f"{name}.calls", f"{name}.ms", f"{name}.self_ms")
            if name not in self.hooked:
                absent += keys
                continue
            out[keys[0]] = (self.calls[name], "count")
            out[keys[1]] = (self.total[name] * 1000.0, "ms")
            out[keys[2]] = (self.self_time[name] * 1000.0, "ms")

        c = self.counts
        ran_mlce = c["branching.solves"] > 0
        rule_counts_missing = ran_mlce and c["branching.trace_lines_parsed"] == 0
        for key in ("branching.nodes", "branching.max_depth"):
            if key in self.absent_counts or "branching.solve_mlce" not in self.hooked:
                absent.append(key)
            else:
                out[key] = (c[key], "count")
        for key in TRACE_RULES.values():
            if key in self.absent_counts or rule_counts_missing \
                    or "branching.solve_mlce" not in self.hooked:
                absent.append(key)
            else:
                out[key] = (c[key], "count")
        if "branching.nodes" in out and "branching.rule0_rejects" in out:
            out["branching.reject_ratio"] = (_ratio(c["branching.rule0_rejects"],
                                                    c["branching.nodes"]), "ratio")
        else:
            absent.append("branching.reject_ratio")

        if "tcepath.enumerate" in self.hooked:
            out["tcepath.part_size.sum"] = (c["tcepath.part_size.sum"], "count")
            out["tcepath.part_size.max"] = (c["tcepath.part_size.max"], "count")
        else:
            absent += ["tcepath.part_size.sum", "tcepath.part_size.max"]

        checks = self.calls["twolayer.check"]
        solves = self.calls["twolayer.linear_sum_assignment"]
        if "twolayer.check" in self.hooked:
            out["twolayer.accept_ratio"] = (_ratio(c["twolayer.check.accepts"], checks), "ratio")
        else:
            absent.append("twolayer.accept_ratio")
        if "twolayer.linear_sum_assignment" in self.hooked:
            out["twolayer.assignment_solves"] = (solves, "count")
        else:
            absent.append("twolayer.assignment_solves")
        if "twolayer.check" in self.hooked and "twolayer.linear_sum_assignment" in self.hooked:
            out["twolayer.solves_per_check"] = (_ratio(solves, checks), "ratio")
        else:
            absent.append("twolayer.solves_per_check")

        if "kernelize" in self.hooked:
            out["kernelize.rules_applied"] = (c["kernelize.rules_applied"], "count")
            out["kernelize.vertices_out_ratio"] = (_ratio(c["kernelize.vertices_out"],
                                                          c["kernelize.vertices_in"]), "ratio")
        else:
            absent += ["kernelize.rules_applied", "kernelize.vertices_out_ratio"]
        return out, absent

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
