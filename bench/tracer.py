"""Spans around the calls into each layer of the program.

The wrappers live here, in the benchmark, and are installed from outside
the program: each wrapped name is rebound in every ``curvebetti`` module
that holds it by value (``from .catalog import grassmannian`` copies the
reference), and the ``IntPoly`` operator aliases are wrapped separately,
because ``__rmul__ = __mul__`` keeps the original function.  ``restore``
puts every original back.

A span is ``[name, start, end, parent]``.  The spans of one op are held
in memory and folded into per-name totals when the op ends, so memory
stays bounded over a long run.  A call whose direct parent span has the
same name is not a new span: ``a - b`` runs ``a + (-b)`` inside, and
counts as one ``polyring.add``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_NAMES = (
    "polyring.mul",
    "polyring.exact_div",
    "polyring.add",
    "catalog.grassmannian",
    "surgery.run_pipeline_traced",
    "pipelines.space_poly.closed",
    "pipelines.space_poly.pipeline",
    "pipelines.verify_pair",
    "pipelines.verify_suite",
    "dsl.parse",
    "dsl.eval_expr",
    "cli.main",
)
POLYRING_SPANS = ("polyring.mul", "polyring.exact_div", "polyring.add")
HIT_RATIO_CACHES = (
    "catalog.grassmannian",
    "catalog.fano_lines",
    "catalog.lines_through_point",
    "catalog.stable_maps_gr",
)


def _bits(coeffs: tuple[int, ...]) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length() if coeffs else 0


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.verify_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def wrap(self, name, fn, on_exit=None):
        """Return fn wrapped in a span; ``name`` may be a function of the
        call's arguments."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if stack and spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            record = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(result, *args)
            return result

        wrapper.bench_original = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def op(self, fn, *args):
        """Run one op under a root span, then fold its spans."""
        wrapped = self.wrap("op", fn)
        try:
            return wrapped(*args)
        finally:
            self.fold()

    def fold(self) -> None:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[i]
        self.counters["verify_pair.distinct"] += len(self.verify_keys)
        self.verify_keys.clear()
        spans.clear()

    # --------------------------------------------------------- counters

    def _on_mul(self, result, a, b):
        c = self.counters
        c["mul.coeff_products"] += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
        c["mul.max_len"] = max(c["mul.max_len"], len(result.coeffs))
        c["max_coeff_bits"] = max(c["max_coeff_bits"], _bits(result.coeffs))

    def _on_div(self, result, num, den):
        c = self.counters
        c["exact_div.coeff_steps"] += len(result.coeffs) * len(den.coeffs)
        c["exact_div.max_den_degree"] = max(c["exact_div.max_den_degree"], den.degree)
        c["max_coeff_bits"] = max(c["max_coeff_bits"], _bits(result.coeffs))

    def _on_pipeline(self, result, pipeline):
        self.counters["surgery.steps"] += len(pipeline.steps)

    def _on_verify_pair(self, result, key):
        self.verify_keys.add(key)

    # ------------------------------------------------ install / restore

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every module-level reference to original at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "curvebetti" and not mod_name.startswith("curvebetti."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        from curvebetti import catalog, cli, dsl, pipelines, polyring, surgery

        if self._saved:
            raise RuntimeError("tracer already installed")
        poly = polyring.IntPoly
        for attr, name, hook in (
            ("__mul__", "polyring.mul", self._on_mul),
            ("__rmul__", "polyring.mul", self._on_mul),
            ("__add__", "polyring.add", None),
            ("__radd__", "polyring.add", None),
            ("__sub__", "polyring.add", None),
            ("__rsub__", "polyring.add", None),
        ):
            self._set(poly, attr, self.wrap(name, poly.__dict__[attr], hook))

        def space_poly_name(key, mode="closed"):
            return f"pipelines.space_poly.{mode}"

        for original, name, hook in (
            (polyring.exact_div, "polyring.exact_div", self._on_div),
            (catalog.grassmannian, "catalog.grassmannian", None),
            (surgery.run_pipeline_traced, "surgery.run_pipeline_traced", self._on_pipeline),
            (pipelines.space_poly, space_poly_name, None),
            (pipelines.verify_pair, "pipelines.verify_pair", self._on_verify_pair),
            (pipelines.verify_suite, "pipelines.verify_suite", None),
            (dsl.parse, "dsl.parse", None),
            (dsl.eval_expr, "dsl.eval_expr", None),
            (cli.main, "cli.main", None),
        ):
            self._rebind(original, self.wrap(name, original, hook))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- export

    def summary(self) -> dict:
        """Totals over every folded op, as plain JSON data."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several processes; maxima stay maxima."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float),
           "self_s": defaultdict(float), "counters": defaultdict(int)}
    for s in summaries:
        for part in ("calls", "total_s", "self_s"):
            for name, value in s[part].items():
                out[part][name] += value
        for name, value in s["counters"].items():
            if "max" in name:
                out["counters"][name] = max(out["counters"][name], value)
            else:
                out["counters"][name] += value
    return {part: dict(values) for part, values in out.items()}


def layer_metrics(summary: dict, ops: int, wall_s: float, hit_ratios: dict) -> dict:
    """Per-layer metrics from a traced phase of ``ops`` ops.

    Calls, times and work counts are per op; maxima and ratios are over
    the whole phase.  ``wall_s`` is the phase's summed wall time, the
    clock of the spans.
    """
    calls, total, own, cnt = (
        summary["calls"], summary["total_s"], summary["self_s"], summary["counters"]
    )

    def per_op(value):
        return value / ops

    m: dict[str, tuple[float, str]] = {}
    for name in POLYRING_SPANS + ("catalog.grassmannian", "surgery.run_pipeline_traced"):
        m[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count/op")
        m[f"{name}.self_s"] = (per_op(own.get(name, 0.0)), "s/op")
    m["polyring.mul.coeff_products"] = (per_op(cnt.get("mul.coeff_products", 0)), "count/op")
    m["polyring.mul.max_len"] = (cnt.get("mul.max_len", 0), "coeffs")
    m["polyring.exact_div.coeff_steps"] = (per_op(cnt.get("exact_div.coeff_steps", 0)), "count/op")
    m["polyring.exact_div.max_den_degree"] = (cnt.get("exact_div.max_den_degree", 0), "degree")
    m["polyring.max_coeff_bits"] = (cnt.get("max_coeff_bits", 0), "bit")
    m["polyring.self_share"] = (
        sum(own.get(n, 0.0) for n in POLYRING_SPANS) / wall_s if wall_s else 0.0, "ratio"
    )
    for cache in HIT_RATIO_CACHES:
        m[f"{cache}.hit_ratio"] = (hit_ratios.get(cache, 0.0), "ratio")
    m["surgery.steps"] = (per_op(cnt.get("surgery.steps", 0)), "count/op")
    for mode in ("closed", "pipeline"):
        name = f"pipelines.space_poly.{mode}"
        m[f"{name}.total_s"] = (per_op(total.get(name, 0.0)), "s/op")
    pair_calls = calls.get("pipelines.verify_pair", 0)
    m["pipelines.verify_pair.calls"] = (per_op(pair_calls), "count/op")
    m["pipelines.verify_pair.unique_ratio"] = (
        cnt.get("verify_pair.distinct", 0) / pair_calls if pair_calls else 0.0, "ratio"
    )
    m["pipelines.verify_suite.total_s"] = (per_op(total.get("pipelines.verify_suite", 0.0)), "s/op")
    m["dsl.parse.calls"] = (per_op(calls.get("dsl.parse", 0)), "count/op")
    m["dsl.parse.self_s"] = (per_op(own.get("dsl.parse", 0.0)), "s/op")
    m["dsl.eval_expr.self_s"] = (per_op(own.get("dsl.eval_expr", 0.0)), "s/op")
    m["cli.main.self_s"] = (per_op(own.get("cli.main", 0.0)), "s/op")
    return m
