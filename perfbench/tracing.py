"""Spans and counters around the public functions of each polyfil layer.

The tracer wraps a function at every place a polyfil module binds it
(``cli.theta_sequence``, ``rotor.theta_sequence``, ``gauss.theta_sequence``
and so on), because that is where callers look it up at call time.  The
package itself is not changed.  Each call records a span

    (span id, name, start ns, end ns, parent span id, operation id)

kept in memory and written out when the run ends.  An operation is one
``cli.main`` invocation; the benchmark opens its span with :meth:`Tracer.op`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter_ns

# (layer, function) pairs to wrap.  Missing functions are skipped, so a
# later version that retires one reports zeros for it instead of failing.
TARGETS = (
    ("gauss", "theta_sequence"),
    ("gauss", "gauss_sum"),
    ("gauss", "quadratic_phase"),
    ("gauss", "max_phase_defect"),
    ("sums", "sum_report"),
    ("rotor", "certify_rotation_angle"),
    ("rotor", "rotation_product"),
    ("rotor", "trace_identity_eval"),
    ("vfe", "initial_tangent"),
    ("vfe", "evolve"),
    ("vfe", "rk4_step"),
    ("vfe", "flow_rhs"),
    ("vfe", "analyze_polygon"),
    ("vfe", "detect_sides"),
    ("vfe", "plateau_quality"),
    ("vfe", "reconstruct_curve"),
)
# Generators: counted (calls and items yielded), no span, because their
# time interleaves with the consumer's.
COUNTED_GENERATORS = (("arith", "enumerate_index_vectors", "arith.tuples"),)

ROOT = "cli.main"

# Per-layer metrics the traced run reports: name -> unit, better.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "gauss.theta_sequence.calls": ("count", "lower"),
    "gauss.theta_sequence.busy_s": ("s", "lower"),
    "gauss.theta_sequence.distinct_ratio": ("ratio", "higher"),
    "gauss.quadratic_phase.busy_s": ("s", "lower"),
    "gauss.max_phase_defect.busy_s": ("s", "lower"),
    "gauss.evals": ("count", "lower"),
    "sums.sum_report.calls": ("count", "lower"),
    "sums.sum_report.busy_s": ("s", "lower"),
    "sums.terms": ("count", "lower"),
    "sums.terms_per_s": ("1/s", "higher"),
    "rotor.certify_rotation_angle.busy_s": ("s", "lower"),
    "rotor.rotation_product.calls": ("count", "lower"),
    "rotor.rotation_product.busy_s": ("s", "lower"),
    "rotor.factors": ("count", "lower"),
    "rotor.trace_identity_eval.busy_s": ("s", "lower"),
    "arith.enumerate_index_vectors.calls": ("count", "lower"),
    "arith.tuples": ("count", "lower"),
    "vfe.evolve.busy_s": ("s", "lower"),
    "vfe.evolve.self_s": ("s", "lower"),
    "vfe.rk4_step.calls": ("count", "lower"),
    "vfe.rk4_step.busy_s": ("s", "lower"),
    "vfe.rk4_step.p50_us": ("us", "lower"),
    "vfe.rk4_step.p99_us": ("us", "lower"),
    "vfe.flow_rhs.calls": ("count", "lower"),
    "vfe.flow_rhs.busy_s": ("s", "lower"),
    "vfe.cell_steps": ("count", "lower"),
    "vfe.rk4_step.peak_alloc_bytes": ("bytes", "lower"),
    "vfe.analyze_polygon.busy_s": ("s", "lower"),
    "vfe.detect_sides.busy_s": ("s", "lower"),
    "vfe.plateau_quality.calls": ("count", "lower"),
    "vfe.reconstruct_curve.busy_s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# Counts that must repeat exactly between passes and between runs.
EXACT_COUNTS = (
    "sums.terms",
    "gauss.evals",
    "rotor.factors",
    "arith.tuples",
    "vfe.rk4_step.calls",
    "vfe.cell_steps",
    "vfe.rk4_step.peak_alloc_bytes",
)


class Tracer:
    """Installs the wrappers, records spans and counters for one pass at
    a time, and restores the package on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.theta_keys: set = set()
        self.rk4_samples: dict = {}  # shape -> (function, args, kwargs)
        self._stack: list[int] = []
        self._next_id = 0
        self._op_id = -1
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- install

    def install(self, package: str = "polyfil") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        hooks = {
            "gauss.theta_sequence": self._on_theta,
            "gauss.gauss_sum": self._on_gauss_sum,
            "sums.sum_report": self._on_sum_report,
            "rotor.rotation_product": self._on_rotation_product,
            "vfe.rk4_step": self._on_rk4,
        }
        for layer, fname in TARGETS:
            original = getattr(sys.modules.get(f"{package}.{layer}"), fname, None)
            if original is not None:
                name = f"{layer}.{fname}"
                self._patch(modules, original, self._span_wrapper(name, original, hooks.get(name)))
        for layer, fname, counter in COUNTED_GENERATORS:
            original = getattr(sys.modules.get(f"{package}.{layer}"), fname, None)
            if original is not None:
                self._patch(modules, original,
                            self._generator_wrapper(f"{layer}.{fname}", counter, original))

    def _patch(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- recording

    def reset(self) -> None:
        """Start a new pass: drop spans and counters of the previous one."""
        self.spans = []
        self.counters = Counter()
        self.theta_keys = set()
        self._next_id = 0

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Span for one ``cli.main`` invocation; the root of its spans."""
        self._op_id = op_id
        sid = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, ROOT, start)
            self._op_id = -1

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, start, end, parent, self._op_id))

    def _span_wrapper(self, name, func, hook):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = self._open()
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if hook is not None:
                hook(func, args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, name, counter, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            for item in func(*args, **kwargs):
                self.counters[counter] += 1
                yield item

        return wrapper

    # ----------------------------------------------------------------- hooks

    def _on_theta(self, func, args, kwargs, result) -> None:
        entries = getattr(result, "entries", ())
        self.counters["gauss.evals"] += len(entries)
        self.theta_keys.add((getattr(result, "p", None), getattr(result, "q", None)))

    def _on_gauss_sum(self, func, args, kwargs, result) -> None:
        self.counters["gauss.evals"] += 1

    def _on_sum_report(self, func, args, kwargs, result) -> None:
        self.counters["sums.terms"] += getattr(result, "term_count", 0)

    def _on_rotation_product(self, func, args, kwargs, result) -> None:
        theta = args[0] if args else kwargs.get("theta")
        entries = getattr(theta, "entries", ())
        self.counters["rotor.factors"] += sum(
            1 for e in entries if not getattr(e, "vanishing", False))

    def _on_rk4(self, func, args, kwargs, result) -> None:
        shape = getattr(args[0], "shape", None) if args else None
        if shape is None:
            return
        self.counters["vfe.cell_steps"] += shape[0]
        if shape not in self.rk4_samples:
            copied = tuple(a.copy() if hasattr(a, "copy") else a for a in args)
            self.rk4_samples[shape] = (func, copied, dict(kwargs))


def rk4_peak_alloc(samples: dict) -> int:
    """Largest tracemalloc peak over one RK4 step, replaying the first
    captured step at each grid size after three warm-up calls."""
    peak = 0
    for func, args, kwargs in samples.values():
        for _ in range(3):
            func(*args, **kwargs)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            func(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak


# ------------------------------------------------------------------ analysis


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        children[parent].append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _op in spans:
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def busy_ns(spans) -> dict[str, int]:
    """Name -> total duration of its spans that are not nested inside a
    span of the same name (so recursion is not counted twice)."""
    by_id = {s[0]: s for s in spans}
    totals: Counter = Counter()
    for sid, name, start, end, parent, _op in spans:
        p = parent
        while p in by_id and by_id[p][1] != name:
            p = by_id[p][4]
        if p not in by_id:
            totals[name] += end - start
    return totals


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def root_ns(spans) -> int:
    """Total duration of the ``cli.main`` spans."""
    return sum(s[3] - s[2] for s in spans if s[1] == ROOT)


def layer_shares(spans) -> dict[str, dict[str, float]]:
    """Per layer: busy (outermost spans of the layer) and self time, each
    as a share of the total ``cli.main`` time."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    busy: Counter = Counter()
    selft: Counter = Counter()
    for sid, name, start, end, parent, _op in spans:
        layer = layer_of(name)
        selft[layer] += own[sid]
        p = parent
        while p in by_id and layer_of(by_id[p][1]) != layer:
            p = by_id[p][4]
        if p not in by_id:
            busy[layer] += end - start
    total = root_ns(spans)
    return {layer: {"busy": busy[layer] / total, "self": selft[layer] / total}
            for layer in sorted(busy)}


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank
    return ordered[int(rank) - 1]


def pass_metrics(spans, counters: Counter, theta_keys: set) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except the ones the
    runner adds (cli.out_bytes, peak_alloc_bytes, trace_overhead_frac)."""
    calls = Counter(s[1] for s in spans)
    busy = busy_ns(spans)
    own = self_times(spans)
    self_by_name: Counter = Counter()
    for s in spans:
        self_by_name[s[1]] += own[s[0]]
    rk4_us = [(s[3] - s[2]) / 1e3 for s in spans if s[1] == "vfe.rk4_step"]
    theta_calls = calls["gauss.theta_sequence"]
    sums_busy = busy["sums.sum_report"] / 1e9
    m = {
        "cli.self_s": self_by_name[ROOT] / 1e9,
        "gauss.theta_sequence.calls": theta_calls,
        "gauss.theta_sequence.distinct_ratio": len(theta_keys) / theta_calls if theta_calls else 0.0,
        "gauss.evals": counters["gauss.evals"],
        "sums.sum_report.calls": calls["sums.sum_report"],
        "sums.terms": counters["sums.terms"],
        "sums.terms_per_s": counters["sums.terms"] / sums_busy if sums_busy else 0.0,
        "rotor.rotation_product.calls": calls["rotor.rotation_product"],
        "rotor.factors": counters["rotor.factors"],
        "arith.enumerate_index_vectors.calls": counters["arith.enumerate_index_vectors.calls"],
        "arith.tuples": counters["arith.tuples"],
        "vfe.evolve.self_s": self_by_name["vfe.evolve"] / 1e9,
        "vfe.rk4_step.calls": calls["vfe.rk4_step"],
        "vfe.rk4_step.p50_us": statistics.median(rk4_us) if rk4_us else 0.0,
        "vfe.rk4_step.p99_us": _percentile(rk4_us, 99),
        "vfe.flow_rhs.calls": calls["vfe.flow_rhs"],
        "vfe.cell_steps": counters["vfe.cell_steps"],
        "vfe.plateau_quality.calls": calls["vfe.plateau_quality"],
    }
    for name in LAYER_METRICS:
        if name.endswith(".busy_s"):
            m[name] = busy[name[: -len(".busy_s")]] / 1e9
    return m


def write_spans(path, passes) -> None:
    """One CSV line per span: pass, id, name, start_ns, end_ns, parent, op."""
    with open(path, "w") as handle:
        handle.write("pass,span,name,start_ns,end_ns,parent,op\n")
        for index, spans in enumerate(passes):
            for sid, name, start, end, parent, op in spans:
                handle.write(f"{index},{sid},{name},{start},{end},{parent},{op}\n")
