"""Spans and counters around sectorlap's layers, installed from outside the package.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with tracer.installed():`` block and puts every original object back
when the block exits, so untraced runs measure the unmodified program.

Names are wrapped where each module imported them, so a call keeps the
identity of the module that made it: ``sectorlap.laplace.integrate_ray`` is
the inner (transform) quadrature, ``sectorlap.inversion.integrate_ray`` the
outer (contour) one.  Catalog entries are wrapped field by field with
``dataclasses.replace``; they are called millions of times per run, so they
feed aggregate counters with accumulated time instead of one span per call.

A span's self time is its duration minus its child spans and minus the
catalog time accumulated inside it, so each layer's ``self_s`` counts only
the Python work done in that layer.
"""

import contextlib
import dataclasses
import json
from time import perf_counter_ns

import numpy as np

import sectorlap.catalog as catalog
import sectorlap.cli as cli
import sectorlap.indicator as indicator
import sectorlap.inversion as inversion
import sectorlap.laplace as laplace
import sectorlap.probe as probe

LAYERS = ("quadrature", "catalog", "indicator", "laplace", "inversion", "probe", "cli")

# (module, attribute, layer): every binding the tracer replaces
WRAPPED = (
    (laplace, "integrate_ray", "quadrature"),
    (inversion, "integrate_ray", "quadrature"),
    (probe, "integrate_ray", "quadrature"),
    (probe, "integrate_segment", "quadrature"),
    (indicator, "estimate_indicator", "indicator"),
    (laplace, "estimate_indicator", "indicator"),
    (cli, "estimate_indicator", "indicator"),
    (laplace, "indicator_value", "indicator"),
    (inversion, "indicator_value", "indicator"),
    (probe, "indicator_value", "indicator"),
    (cli, "indicator_value", "indicator"),
    (laplace, "_ray_transform", "laplace"),
    (inversion, "_ray_transform", "laplace"),
    (probe, "_ray_transform", "laplace"),
    (laplace, "select_direction", "laplace"),
    (cli, "select_direction", "laplace"),
    (cli, "directional_transform", "laplace"),
    (cli, "concatenated_transform", "laplace"),
    (laplace, "gamma_bound_check", "laplace"),
    (cli, "gamma_bound_check", "laplace"),
    (inversion, "reconstruct", "inversion"),
    (cli, "reconstruct", "inversion"),
    (cli, "roundtrip_report", "inversion"),
    (probe, "blowup_scan", "probe"),
    (probe, "radius_scan", "probe"),
    (probe, "gamma_prime_diagnostics", "probe"),
    (probe, "_g_values", "probe"),
    (cli, "probe_report", "probe"),
    (cli, "main", "cli"),
    (catalog, "resolve", "catalog"),
    (cli, "resolve", "catalog"),
)

_ORACLE_FIELDS = ("indicator_oracle", "transform_oracle", "type_oracle")
_EVAL_FIELDS = ("evaluate", "weighted_eval")


class _Frame:
    __slots__ = ("sid", "child_ns", "child_cat_ns")

    def __init__(self, sid):
        self.sid = sid
        self.child_ns = 0
        self.child_cat_ns = 0


class Tracer:
    """In-memory spans plus per-layer counters for one traced pass."""

    def __init__(self):
        self.spans = []  # (op, span id, parent id, name, start ns, end ns)
        self.op = 0
        self._stack = []
        self._next_id = 1
        self._originals = {}  # id(wrapped entry) -> (wrapped, original)
        self.calls = {}  # span name -> count
        self.total_ns = {}  # span name -> inclusive ns
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.cat_ns = 0
        self.eval_calls = 0
        self.eval_points = 0
        self.oracle_calls = 0
        self.panels = 0
        self.outer_panels = 0
        self.inner_transforms = 0  # ray transforms made inside reconstruct
        self.scan_g_points = 0  # g evaluations made inside blowup/radius scans
        self.max_ray_err_over_est = 0.0
        self.max_inv_rel_residual = 0.0
        self.max_inv_err_over_est = 0.0
        self._depth = {"reconstruct": 0, "scan": 0}  # open spans whose inner work is attributed

    # -- entries -------------------------------------------------------
    def original(self, fn):
        """The unwrapped catalog entry behind ``fn`` (``fn`` itself if unwrapped)."""
        pair = self._originals.get(id(fn))
        return pair[1] if pair is not None else fn

    def wrap_entry(self, fn):
        changes = {}
        for name in _EVAL_FIELDS:
            changes[name] = self._catalog_callable(getattr(fn, name), oracle=False)
        for name in _ORACLE_FIELDS:
            value = getattr(fn, name)
            if value is not None:
                changes[name] = self._catalog_callable(value, oracle=True)
        wrapped = dataclasses.replace(fn, **changes)
        self._originals[id(wrapped)] = (wrapped, fn)
        return wrapped

    def _catalog_callable(self, func, oracle):
        def counted(*args):
            start = perf_counter_ns()
            out = func(*args)
            self.cat_ns += perf_counter_ns() - start
            if oracle:
                self.oracle_calls += 1
            else:
                self.eval_calls += 1
                self.eval_points += np.size(args[0])
            return out

        return counted

    # -- spans ---------------------------------------------------------
    def _span(self, name, layer, func, after=None):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = _Frame(sid)
            stack.append(frame)
            cat_start = self.cat_ns
            start = perf_counter_ns()
            try:
                out = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                cat = self.cat_ns - cat_start
                self.self_ns[layer] += dur - frame.child_ns - (cat - frame.child_cat_ns)
                if parent is not None:
                    parent.child_ns += dur
                    parent.child_cat_ns += cat
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + dur
                self.spans.append((self.op, sid, parent.sid if parent else 0, name, start, end))
            if after is not None:
                # bookkeeping is charged to no layer: it counts as a child of the caller
                hook_start = perf_counter_ns()
                after(out, args, kwargs)
                if parent is not None:
                    parent.child_ns += perf_counter_ns() - hook_start
            return out

        return traced

    def _nested(self, scope, func):
        """Mark the dynamic extent of ``func`` so inner work can be attributed to it."""

        def scoped(*args, **kwargs):
            self._depth[scope] += 1
            try:
                return func(*args, **kwargs)
            finally:
                self._depth[scope] -= 1

        return scoped

    # -- hooks ---------------------------------------------------------
    def _after_integral(self, outer):
        def hook(res, args, kwargs):
            self.panels += res.panels_used
            if outer:
                self.outer_panels += res.panels_used

        return hook

    def _after_ray_transform(self, res, args, kwargs):
        if self._depth["reconstruct"]:
            self.inner_transforms += 1
        fn, omega = self.original(args[0]), args[2]
        if fn.transform_oracle is not None and res.est_error > 0:
            err = abs(res.value - fn.transform_oracle(omega))
            self.max_ray_err_over_est = max(self.max_ray_err_over_est, err / res.est_error)

    def _after_reconstruct(self, res, args, kwargs):
        q = args[0]
        expected = complex(self.original(q.fn).evaluate(q.z))
        err = abs(res.value - expected)
        self.max_inv_rel_residual = max(self.max_inv_rel_residual, err / abs(expected) if expected else err)
        if res.est_error > 0:
            self.max_inv_err_over_est = max(self.max_inv_err_over_est, err / res.est_error)

    def _after_g_values(self, out, args, kwargs):
        if self._depth["scan"]:
            self.scan_g_points += len(args[2])

    def _wrapper(self, module, attr, layer):
        func = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if attr == "resolve":
            return lambda *a, **k: self.wrap_entry(func(*a, **k))
        if layer == "quadrature":
            return self._span(name, layer, func, self._after_integral(module is inversion))
        if attr == "_ray_transform":
            return self._span(name, layer, func, self._after_ray_transform)
        if attr == "reconstruct":
            return self._nested("reconstruct", self._span(name, layer, func, self._after_reconstruct))
        if attr in ("blowup_scan", "radius_scan"):
            return self._nested("scan", self._span(name, layer, func))
        if attr == "_g_values":
            return self._span(name, layer, func, self._after_g_values)
        return self._span(name, layer, func)

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding in WRAPPED for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for module, attr, layer in WRAPPED:
                setattr(module, attr, self._wrapper(module, attr, layer))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- results -------------------------------------------------------
    def _count(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def _seconds(self, *names):
        return sum(self.total_ns.get(n, 0) for n in names) / 1e9

    def metrics(self) -> dict:
        """Per-layer figures as name -> (value, unit): counts, self time, accuracy ratios."""
        quad_calls = self._count(
            "laplace.integrate_ray", "inversion.integrate_ray", "probe.integrate_ray", "probe.integrate_segment"
        )
        points = self._count("inversion.reconstruct", "cli.reconstruct")
        scans = self._count("probe.blowup_scan", "probe.radius_scan")
        ray_names = ("laplace._ray_transform", "inversion._ray_transform", "probe._ray_transform")
        select_names = ("laplace.select_direction", "cli.select_direction")
        return {
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.panels": (self.panels, "count"),
            "quadrature.panels_per_call": (_ratio(self.panels, quad_calls), "count/call"),
            "quadrature.self_s": (self.self_ns["quadrature"] / 1e9, "s"),
            "catalog.eval_calls": (self.eval_calls, "count"),
            "catalog.eval_points": (self.eval_points, "count"),
            "catalog.points_per_call": (_ratio(self.eval_points, self.eval_calls), "count/call"),
            "catalog.oracle_calls": (self.oracle_calls, "count"),
            "catalog.self_s": (self.cat_ns / 1e9, "s"),
            "indicator.estimates": (
                self._count("indicator.estimate_indicator", "laplace.estimate_indicator", "cli.estimate_indicator"),
                "count",
            ),
            "indicator.self_s": (self.self_ns["indicator"] / 1e9, "s"),
            "laplace.ray_transforms": (self._count(*ray_names), "count"),
            "laplace.ray_transform_s": (self._seconds(*ray_names), "s"),
            "laplace.select_direction_calls": (self._count(*select_names), "count"),
            "laplace.select_direction_s": (self._seconds(*select_names), "s"),
            "laplace.max_err_over_est": (self.max_ray_err_over_est, "ratio"),
            "inversion.points": (points, "count"),
            "inversion.inner_transforms_per_point": (_ratio(self.inner_transforms, points), "count/point"),
            "inversion.outer_panels_per_point": (_ratio(self.outer_panels, points), "count/point"),
            "inversion.self_s": (self.self_ns["inversion"] / 1e9, "s"),
            "inversion.max_rel_residual": (self.max_inv_rel_residual, "ratio"),
            "inversion.max_err_over_est": (self.max_inv_err_over_est, "ratio"),
            "probe.scans": (scans, "count"),
            "probe.g_points_per_scan": (_ratio(self.scan_g_points, scans), "count/scan"),
            "probe.self_s": (self.self_ns["probe"] / 1e9, "s"),
            "cli.invocations": (self._count("cli.main"), "count"),
            "cli.self_s": (self.self_ns["cli"] / 1e9, "s"),
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: op, span id, parent id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
