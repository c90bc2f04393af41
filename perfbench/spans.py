"""Runtime span tracing of the amplasso layers, from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``amplasso`` module that binds it (the defining module and each module
that imported it by name), and ``Tracer.restore`` puts the originals back.
No source file is edited.  Spans are kept in memory and reduced into
per-layer metrics after the traced phase.
"""

from __future__ import annotations

import sys
import threading
from collections import namedtuple
from time import perf_counter

PROTOCOL = "harness.protocol"
POOL = "harness.pool"
CELL = "harness.cell"
HARNESS_SPANS = (PROTOCOL, POOL, CELL)


def _instance_bytes(inst, per_element=8):
    return per_element * inst.m * inst.n


def _gen_facts(args, kwargs, res):
    return (("instances.gen_bytes", _instance_bytes(res)),)


def _amp_step_facts(args, kwargs, res):
    inst = args[1] if len(args) > 1 else kwargs["instance"]
    return (("amp.matvec_bytes", 2 * _instance_bytes(inst)),)


def _amp_run_facts(args, kwargs, res):
    return (("amp.iterations", res.iterations),
            ("amp.converged", int(res.converged)))


def _ist_facts(args, kwargs, res):
    inst = args[0] if args else kwargs["instance"]
    return (("amp.ist_iterations", res.iterations),
            ("amp.matvec_bytes", 2 * _instance_bytes(inst) * res.iterations))


# (module, attribute, span name, facts hook).  The three protocol entry
# points share one span name; the C4 composition opens it from the benchmark.
TARGETS = (
    ("amplasso.instances", "gen_instance", "instances.gen", _gen_facts),
    ("amplasso.instances", "gen_planted_instance", "instances.gen", _gen_facts),
    ("amplasso.amp", "amp_run", "amp.amp_run", _amp_run_facts),
    ("amplasso.amp", "amp_step", "amp.amp_step", _amp_step_facts),
    ("amplasso.amp", "operator_norm", "amp.operator_norm", None),
    ("amplasso.amp", "ist_solve_lasso", "amp.ist_solve", _ist_facts),
    ("amplasso.amp", "ist_run", "amp.ist_run", _ist_facts),
    ("amplasso.amp", "lasso_kkt_gap", "amp.kkt", None),
    ("amplasso.scalar_risk", "soft_threshold", "scalar_risk.soft_threshold", None),
    ("amplasso.state_evolution", "lasso_risk", "state_evolution.lasso_risk", None),
    ("amplasso.state_evolution", "alpha_of_lambda",
     "state_evolution.alpha_of_lambda", None),
    ("amplasso.state_evolution", "se_run", "state_evolution.se_run", None),
    ("amplasso.harness", "run_mse_vs_lambda", PROTOCOL, None),
    ("amplasso.harness", "run_noise_histogram", PROTOCOL, None),
    ("amplasso.harness", "run_resampled_oracle", PROTOCOL, None),
)
# The harness's thread-pool helper: its span is time the caller waits, and
# each task it runs becomes a cell span on the thread that runs it.
POOL_TARGET = ("amplasso.harness", "_parallel_map")

# Deliberately not traced: message_passing is a desk-scale oracle that no
# protocol runs at scale, and cli is a thin layer over the same calls.
UNTRACED_MODULES = {
    "amplasso.message_passing": "desk-scale oracle; no protocol runs it at scale",
    "amplasso.cli": "thin layer over the traced calls",
}


# outer: no enclosing layer (non-harness) span on this thread;
# nested: inside a span of the same name on this thread.
Span = namedtuple("Span", "name thread start end outer nested")


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "amplasso" or name.startswith("amplasso."))]


def bindings() -> dict:
    """Every (module, attribute) -> object binding of the loaded package."""
    return {(mod.__name__, attr): value for mod in package_modules()
            for attr, value in vars(mod).items()}


class Tracer:
    """Collects spans and facts; patches and restores the package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.facts: list[tuple[str, float]] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def call(self, name, func, args, kwargs, facts=None):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.layers = 0
        outer = local.layers == 0
        nested = name in stack
        layer = name not in HARNESS_SPANS
        stack.append(name)
        local.layers += layer
        start = perf_counter()
        try:
            res = func(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            local.layers -= layer
            self.spans.append(Span(name, threading.get_ident(), start, end,
                                   outer, nested))
        if facts is not None:
            self.facts.extend(facts(args, kwargs, res))
        return res

    def wrap(self, func, name, facts=None):
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, facts)
        traced.__wrapped__ = func
        return traced

    def _wrap_pool(self, pool):
        def traced_pool(fn, items, jobs):
            cell = self.wrap(fn, CELL)
            return self.call(POOL, pool, (cell, items, jobs), {})
        traced_pool.__wrapped__ = pool
        return traced_pool

    def _replace_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every target in every amplasso module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers = {}
        for modname, attr, name, facts in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
            elif original not in wrappers:
                wrappers[original] = self.wrap(original, name, facts)
        pool = getattr(sys.modules.get(POOL_TARGET[0]), POOL_TARGET[1], None)
        if pool is None:
            self.missing.append(".".join(POOL_TARGET))
        else:
            wrappers[pool] = self._wrap_pool(pool)
        for original, wrapper in wrappers.items():
            self._replace_everywhere(original, wrapper, modules)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals, windows):
    out = []
    for start, end in intervals:
        for w_start, w_end in windows:
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                out.append((lo, hi))
    return out


def _subtract(windows, holes):
    """Parts of ``windows`` (disjoint, sorted) not covered by ``holes``."""
    out = []
    for w_start, w_end in windows:
        cur = w_start
        for h_start, h_end in sorted(holes):
            if h_end <= cur or h_start >= w_end:
                continue
            if h_start > cur:
                out.append((cur, h_start))
            cur = max(cur, h_end)
        if cur < w_end:
            out.append((cur, w_end))
    return out


def busy_windows(spans: list[Span], main_thread: int) -> dict[int, list]:
    """Per thread, the intervals in which it worked for a protocol.

    The calling thread works inside protocol spans except while it waits on
    the pool; a pool thread works inside its cell spans.  A thread with
    layer spans but no cell spans (no pool helper found) works inside them.
    """
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append(s)
    windows = {}
    for thread, own in by_thread.items():
        cells = [(s.start, s.end) for s in own if s.name == CELL]
        if thread == main_thread:
            protocol = sorted((s.start, s.end) for s in own if s.name == PROTOCOL)
            pools = [(s.start, s.end) for s in own if s.name == POOL]
            base = _subtract(protocol, pools) + _clip(cells, protocol)
        else:
            base = cells or [(s.start, s.end) for s in own if s.outer]
        windows[thread] = sorted(base)
    return windows


def reduce_spans(tracer: Tracer, main_thread: int) -> dict[str, float]:
    """Per-layer totals: inclusive busy seconds, call counts, harness self time."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for s in spans:
        if s.name in HARNESS_SPANS:
            continue
        out[s.name + "_calls"] = out.get(s.name + "_calls", 0) + 1
        if not s.nested:
            out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + (s.end - s.start)
    for key, value in tracer.facts:
        out[key] = out.get(key, 0) + value
        if key == "amp.iterations":
            out["amp.iterations_max"] = max(out.get("amp.iterations_max", 0), value)
    runs = out.get("amp.amp_run_calls", 0)
    out["amp.nonconverged"] = runs - out.get("amp.converged", 0)
    out["amp.converged_ratio"] = out.get("amp.converged", 0) / runs if runs else 0.0

    protocol_wall = sum(s.end - s.start for s in spans
                        if s.name == PROTOCOL and s.thread == main_thread)
    busy_total = self_total = 0.0
    attribution_err = 0.0
    for thread, windows in busy_windows(spans, main_thread).items():
        busy = _union_length(windows)
        outer = [(s.start, s.end) for s in spans
                 if s.thread == thread and s.outer and s.name not in HARNESS_SPANS]
        children = _clip(outer, windows)
        child_sum = sum(end - start for start, end in children)
        self_time = busy - _union_length(children)
        busy_total += busy
        self_total += self_time
        # Children that overlap each other, or lie outside the thread's
        # protocol work, would make the sum disagree with the span.
        outside = sum(end - start for start, end in outer) - child_sum
        if busy > 0:
            attribution_err = max(attribution_err,
                                  (abs(child_sum + self_time - busy) + outside) / busy)
    out["harness.protocol_s"] = protocol_wall
    out["harness.busy_s"] = busy_total
    out["harness.self_s"] = self_total
    out["harness.parallelism"] = busy_total / protocol_wall if protocol_wall else 0.0
    out["trace.attribution_err"] = attribution_err
    return out
