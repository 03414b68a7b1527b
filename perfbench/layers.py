"""Per-layer self time of the synthesis pipeline, measured from outside.

The program has no internal span for most of these layers, so the
benchmark wraps the public function of each layer in a timer.  A
function is usually reachable under several names -- ``expand`` is
``repro.csc.insertion.expand`` but the pipeline calls it as
``repro.csc.synthesis.expand`` and ``repro.csc.polish.expand`` -- so
:func:`install` rebinds *every* module-level name in ``repro.*`` that
holds the function, and methods are replaced on their class.
:func:`restore` puts every original back and then proves that no
wrapper is left anywhere.

Self time follows the usual rule: a span's duration minus the part its
child spans cover.  Spans nest on a per-thread stack, so the self times
of all layers plus the uncovered remainder add up to the wall time of
the traced region exactly (:meth:`LayerTracer.attribution`).

The service's request handler is a coroutine; handlers of concurrent
requests interleave on one event loop, so it is recorded as one
duration per request (:meth:`LayerTracer.record`), never on the stack.
Worker processes trace themselves and the parent absorbs their totals
(:meth:`LayerTracer.absorb`); their busy time is then part of the time
the layers must add up to.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

#: Layer name -> the ``module:qualname`` of each public function timed
#: as that layer.  Layers are named after the repository's modules.
LAYERS = (
    ("stategraph.build", ("repro.stategraph.build:build_state_graph",)),
    ("stategraph.quotient", (
        "repro.stategraph.quotient:quotient",
        "repro.stategraph.quotient:refine",
        "repro.perf.projection:ProjectionCache.project",
    )),
    ("stategraph.csc", (
        "repro.stategraph.csc:csc_conflicts",
        "repro.stategraph.csc:csc_conflicts_and_bound",
        "repro.stategraph.csc:persistence_violations",
    )),
    ("csc.input_set", ("repro.csc.input_set:determine_input_set",)),
    ("csc.modular", ("repro.csc.modular:partition_sat",)),
    ("csc.solve", ("repro.csc.solve:solve_state_signals",)),
    ("sat", (
        "repro.sat:solve_with",
        "repro.sat.incremental:IncrementalSolver.solve",
    )),
    ("csc.propagate", ("repro.csc.propagate:propagate",)),
    ("csc.insertion", ("repro.csc.insertion:expand",)),
    ("csc.polish", ("repro.csc.polish:polish_assignment",)),
    ("logic", ("repro.logic.extract:synthesize_logic",)),
    ("verify", ("repro.verify.checker:verify_result",)),
    ("perf.result_cache.get", ("repro.perf.result_cache:ResultCache.get",)),
    ("perf.result_cache.put", ("repro.perf.result_cache:ResultCache.put",)),
    ("api", (
        "repro.service:parse_request",
        "repro.api:SynthesisRequest.fingerprint",
        "repro.api:to_json_bytes",
    )),
)

#: Coroutines timed per call (``record``), not on the span stack.
ASYNC_SPANS = (
    ("service.handler", "repro.service:SynthesisService.synthesize"),
)

_MARK = "__perfbench_layer__"


class LayerTracer:
    """Accumulates self time, call counts and work counts per layer."""

    def __init__(self):
        self._local = threading.local()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.covered_s = 0.0
        #: Busy seconds of other processes whose spans were absorbed.
        self.absorbed_s = 0.0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, args, kwargs):
        """Run ``fn`` as one span of ``layer``."""
        stack = self._stack()
        outer = [frame[0] for frame in stack]
        if layer == "csc.insertion" and "csc.polish" in outer:
            self.counts["csc.polish.accept_checks"] += 1
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[1]
            self.calls[layer] += 1
            if layer not in outer:
                self.total_s[layer] += elapsed
            if stack:
                stack[-1][1] += elapsed
            else:
                self.covered_s += elapsed
        self._observe(layer, result)
        return result

    def _observe(self, layer, result):
        if layer == "stategraph.build":
            self.counts["stategraph.build.states"] += result.num_states
        elif layer == "verify":
            self.counts["verify.states"] += result.states_explored
        elif layer == "perf.result_cache.get":
            hit = "hits" if result is not None else "misses"
            self.counts[f"perf.result_cache.{hit}"] += 1

    def record(self, span, seconds):
        """One duration of a span that is not on the stack."""
        self.durations[span].append(seconds)

    def state(self):
        """The totals as plain data, for another process to absorb."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
            "busy_s": sum(self.durations["worker.busy"]),
        }

    def absorb(self, after, before=None):
        """Add what another process's tracer accrued between two
        :meth:`state` snapshots.  Its busy time joins the traced time
        that :meth:`attribution` accounts for."""
        before = before or {}
        for field in ("self_s", "total_s", "calls", "counts"):
            mine = getattr(self, field)
            old = before.get(field, {})
            for key, value in after[field].items():
                mine[key] += value - old.get(key, 0)
        self.covered_s += after["covered_s"] - before.get("covered_s", 0.0)
        self.absorbed_s += after["busy_s"] - before.get("busy_s", 0.0)

    def attribution(self, wall):
        """``(unattributed_s, problem)`` for a traced region of ``wall``
        seconds plus the absorbed busy time of other processes: layer
        self times plus the unattributed remainder must equal that
        time, and no time may be counted twice."""
        traced = wall + self.absorbed_s
        layer_sum = sum(self.self_s.values())
        unattributed = traced - self.covered_s
        slack = 1e-9 * max(1.0, traced) * max(1, sum(self.calls.values()))
        if abs(layer_sum + unattributed - traced) > slack:
            return unattributed, (
                f"layer self times {layer_sum!r} + unattributed "
                f"{unattributed!r} != traced time {traced!r}"
            )
        if unattributed < -slack:
            return unattributed, (
                f"layers cover {self.covered_s!r}s of {traced!r}s traced"
            )
        return unattributed, None


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _sync_wrapper(tracer, layer, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, original, args, kwargs)

    setattr(wrapper, _MARK, layer)
    return wrapper


def _async_wrapper(tracer, span, original):
    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.record(span, time.perf_counter() - start)

    setattr(wrapper, _MARK, span)
    return wrapper


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


class Installation:
    """The bindings one :func:`install` replaced."""

    def __init__(self):
        self.bindings = []  # (owner, attribute, original)
        self.classes = []

    def replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.bindings.append((owner, attr, original))


def install(tracer):
    """Wrap every layer function at every binding; returns the
    :class:`Installation` that :func:`restore` undoes.

    Import every module the pipeline uses before calling this: a module
    first imported while the wrappers are in place binds the wrapper,
    which :func:`restore` then has to find by sweeping.
    """
    done = Installation()
    by_id = {}
    for wrap, specs in (
        (_sync_wrapper, [(layer, t) for layer, ts in LAYERS for t in ts]),
        (_async_wrapper, ASYNC_SPANS),
    ):
        for layer, target in specs:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                done.replace(owner, attr, original,
                             wrap(tracer, layer, original))
                done.classes.append(owner)
            else:
                original = getattr(owner, attr)
                by_id[id(original)] = (original, wrap(tracer, layer, original))
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                done.replace(module, attr, value, entry[1])
    return done


def _leftovers(classes):
    found = []
    for owner in _repro_modules() + list(classes):
        for attr, value in list(vars(owner).items()):
            if hasattr(value, _MARK) and callable(value):
                found.append((owner, attr, value))
    return found


def restore(done):
    """Put every original back; returns the number of bindings restored.

    Raises ``RuntimeError`` if a wrapper is still reachable afterwards.
    """
    for owner, attr, original in reversed(done.bindings):
        setattr(owner, attr, original)
    restored = len(done.bindings)
    for owner, attr, wrapper in _leftovers(done.classes):
        setattr(owner, attr, wrapper.__wrapped__)
        restored += 1
    remaining = _leftovers(done.classes)
    if remaining:
        names = ", ".join(
            f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in remaining
        )
        raise RuntimeError(f"wrapped bindings left in place: {names}")
    done.bindings.clear()
    return restored


#: The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("stategraph.build.self_s", "s"),
    ("stategraph.build.calls", "count"),
    ("stategraph.build.states", "count"),
    ("stategraph.quotient.self_s", "s"),
    ("stategraph.quotient.calls", "count"),
    ("stategraph.csc.self_s", "s"),
    ("stategraph.csc.calls", "count"),
    ("csc.input_set.self_s", "s"),
    ("csc.input_set.calls", "count"),
    ("csc.modular.self_s", "s"),
    ("csc.modular.calls", "count"),
    ("csc.solve.self_s", "s"),
    ("csc.solve.calls", "count"),
    ("csc.solve.clauses", "count"),
    ("csc.solve.vars", "count"),
    ("sat.self_s", "s"),
    ("sat.calls", "count"),
    ("csc.propagate.self_s", "s"),
    ("csc.propagate.calls", "count"),
    ("csc.insertion.self_s", "s"),
    ("csc.insertion.calls", "count"),
    ("csc.polish.self_s", "s"),
    ("csc.polish.total_s", "s"),
    ("csc.polish.calls", "count"),
    ("csc.polish.accept_checks", "count"),
    ("logic.self_s", "s"),
    ("logic.calls", "count"),
    ("verify.self_s", "s"),
    ("verify.calls", "count"),
    ("verify.states", "count"),
    ("perf.result_cache.get_s", "s"),
    ("perf.result_cache.put_s", "s"),
    ("perf.result_cache.hit_ratio", "ratio"),
    ("api.self_s", "s"),
    ("service.handler_s", "s"),
    ("service.dispatch_wait_s", "s"),
    ("service.dedup", "count"),
    ("unattributed.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


def snapshot(tracer, unattributed):
    """The :data:`PER_LAYER` values of one traced pass, except
    ``trace_overhead_ratio``, which compares passes."""
    values = {}
    for layer, _targets in LAYERS:
        if layer.startswith("perf.result_cache."):
            values[f"{layer}_s"] = tracer.self_s[layer]
            continue
        values[f"{layer}.self_s"] = tracer.self_s[layer]
        if layer != "api":
            values[f"{layer}.calls"] = tracer.calls[layer]
    values["csc.polish.total_s"] = tracer.total_s["csc.polish"]
    hits = tracer.counts["perf.result_cache.hits"]
    lookups = hits + tracer.counts["perf.result_cache.misses"]
    values["perf.result_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for name in ("stategraph.build.states", "csc.solve.clauses",
                 "csc.solve.vars", "csc.polish.accept_checks",
                 "verify.states", "service.dedup"):
        values[name] = tracer.counts[name]
    values["service.handler_s"] = sum(tracer.durations["service.handler"])
    values["service.dispatch_wait_s"] = sum(
        tracer.durations["service.dispatch"]
    )
    values["unattributed.self_s"] = unattributed
    return values
