"""Span recorder for the traced run, and the analysis of its spans.

The recorder wraps each layer's boundary functions where the caller binds
them, i.e. the module attribute (or dispatch-table entry) the call resolves
through, and restores every binding afterwards.  Each span records its
name, start, end, parent, op id and thread id; spans stay in memory until
the run ends.  The analysis side uses only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

ROOT = "cli.main"
MAP = "parallel.deterministic_map"
ITEM = "parallel.item"


# Attribute hooks: (args, kwargs, result) -> dict of counts for the span.

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _field_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    rows = 2 * cfg.n_modes + 1
    return {"flops": 2 * (cfg.n_time + 1) * rows * cfg.n_nodes * cfg.dim}


def _marginal_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    n_replicas = _arg(args, kwargs, 2, "n_replicas")
    nodes = _arg(args, kwargs, 4, "nodes")
    n_nodes = cfg.n_nodes if nodes is None else len(nodes)
    return {"flops": 2 * n_replicas * (2 * cfg.n_modes + 1) * n_nodes * cfg.dim}


def _cov_attrs(args, kwargs, result):
    import numpy as np

    return {"points": int(np.broadcast(*(np.asarray(a) for a in args[:4])).size)}


def _besov_attrs(args, kwargs, result):
    import math

    parts = (result.initial_value, result.level1, result.level2)
    return {"nonfinite": sum(not math.isfinite(p) for p in parts)}


def _cov_name(args, kwargs):
    return "covariance.cov." + _arg(args, kwargs, 4, "method", "theta")


# (module, attribute, span name, attrs hook)
BINDINGS = (
    ("heatlift.cli", "run", "cli.run", None),
    ("heatlift.cli", "sample_field", "sampler.sample_field", _field_attrs),
    ("heatlift.dyadic", "sample_field", "sampler.sample_field", _field_attrs),
    ("heatlift.ldp", "sample_field", "sampler.sample_field", _field_attrs),
    ("heatlift.sampler", "basis_matrix", "sampler.basis_matrix", None),
    ("heatlift.ldp", "sample_slice_marginal", "sampler.sample_slice_marginal", _marginal_attrs),
    ("heatlift.cli", "save_field", "sampler.save_field", None),
    ("heatlift.cli", "convergence_study", "dyadic.convergence_study", None),
    ("heatlift.cli", "lift_level", "dyadic.lift_level", None),
    ("heatlift.dyadic", "lift_level", "dyadic.lift_level", None),
    ("heatlift.ldp", "lift_level", "dyadic.lift_level", None),
    ("heatlift.cli", "level2_telescope", "dyadic.level2_telescope", None),
    ("heatlift.dyadic", "spacetime_besov_norm", "sheets.spacetime_besov_norm", _besov_attrs),
    ("heatlift.ldp", "dist_infty", "sheets.dist_infty", None),
    ("heatlift.ldp", "_increment_tables", "sheets.increment_tables", None),
    ("heatlift.cli", "increment", "sheets.increment", None),
    ("heatlift.cli", "save_sheet", "sheets.save_sheet", None),
    ("heatlift.covariance", "cov", _cov_name, _cov_attrs),
    ("heatlift.ldp", "cov", _cov_name, _cov_attrs),
    ("heatlift.cli", "cov", _cov_name, _cov_attrs),
    ("heatlift.cli", "dual_method_check", "covariance.dual_method_check", None),
    ("heatlift.cli", "bound_scan", "covariance.bound_scan", None),
    ("heatlift.cli", "tail_probability", "ldp.tail_probability", None),
    ("heatlift.cli", "chaos_moment_ratio", "ldp.chaos_moment_ratio", None),
    ("heatlift.cli", "cameron_martin_path", "ldp.cameron_martin_path", None),
    ("heatlift.cli", "cm_regularity_check", "ldp.cm_regularity_check", None),
    ("heatlift.cli", "cm_lift_uniform_convergence", "ldp.cm_lift_uniform_convergence", None),
    ("heatlift.cli", "schilder_point_check", "ldp.schilder_point_check", None),
    ("heatlift.dyadic", "deterministic_map", MAP, None),
    ("heatlift.ldp", "deterministic_map", MAP, None),
    ("heatlift.sheets", "deterministic_map", MAP, None),
)


def bound_objects() -> list:
    """Every object the recorder patches, read from where callers bind it."""
    bodies = importlib.import_module("heatlift.cli")._BODIES
    return [
        getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _name, _attrs in BINDINGS
    ] + [bodies[experiment] for experiment in sorted(bodies)]


class Recorder:
    """Collects spans as (id, name, start, end, parent, op, thread, attrs)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []  # (container, key, original)

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        """Run fn inside a span; parent defaults to this thread's open span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        if callable(name):
            name = name(args, kwargs)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = attrs(args, kwargs, result) if attrs else None
        self.spans.append(
            (sid, name, start, end, parent, self.op, threading.get_ident(), counts)
        )
        return result

    def _wrap(self, fn, name, attrs):
        if name == MAP:
            return self._wrap_map(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def _wrap_map(self, fn):
        # Items may run on pool threads, whose span stacks are empty, so each
        # item span names the map span as its parent explicitly.
        def traced_map(item_fn, items, *args, **kwargs):
            map_id = self.current()

            def item(x):
                return self.call(ITEM, item_fn, (x,), {}, parent=map_id)

            return fn(item, items, *args, **kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(MAP, traced_map, args, kwargs)

        return traced

    def _patch(self, container, key, name, attrs, is_dict):
        original = container[key] if is_dict else getattr(container, key)
        wrapped = self._wrap(original, name, attrs)
        if is_dict:
            container[key] = wrapped
        else:
            setattr(container, key, wrapped)
        self._patched.append((container, key, original))

    def install(self):
        for module_name, attr, name, attrs in BINDINGS:
            self._patch(importlib.import_module(module_name), attr, name, attrs, False)
        # cli.run dispatches through this table.
        bodies = importlib.import_module("heatlift.cli")._BODIES
        for experiment in list(bodies):
            self._patch(bodies, experiment, f"cli.{experiment}", None, True)

    def uninstall(self) -> list[str]:
        """Restores every binding; returns those that did not come back."""
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        left = []
        for container, key, original in self._patched:
            now = container[key] if isinstance(container, dict) else getattr(container, key)
            if now is not original:
                left.append(f"{getattr(container, '__name__', 'dict')}.{key}")
        self._patched = []
        return left


# ---------------------------------------------------------------------------
# Analysis


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyze(spans) -> dict:
    """Totals over all ops.

    A span's self time is its duration minus the part of its interval its
    children cover.  An item span's self time (the mapped function's own
    work, e.g. the sup reductions) is credited to the span that called the
    map, so `dyadic.convergence_study.self_s` holds it.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    calls = defaultdict(int)
    dur = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    counts = defaultdict(float)
    root_s = 0.0
    for sid, name, start, end, parent, _op, _thread, attrs in spans:
        own = (end - start) - _union_length(children.get(sid, ()), start, end)
        calls[name] += 1
        dur[name] += end - start
        owner = name
        if name == ITEM:
            map_parent = by_id[parent][4] if parent in by_id else None
            owner = by_id[map_parent][1] if map_parent in by_id else name
        self_time[owner] += own
        layer_self[owner.split(".")[0]] += own
        if name == ROOT:
            root_s += end - start
        for key, value in (attrs or {}).items():
            counts[f"{name}.{key}"] += value
    return {
        "root_s": root_s,
        "calls": dict(calls),
        "s": dict(dur),
        "self_s": dict(self_time),
        "layer_self_s": dict(layer_self),
        "counts": dict(counts),
    }
