"""The repository's benchmark: one command, three workloads, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 \
        --seconds 20 --trace 0

``--workload`` is ``table1-cold``, ``generated-sweep`` or
``service-replay`` (see ``workloads.py`` for why each exists).  The
program is imported from the checkout's ``src/``; a directory without
it is refused with exit code 2.

A run sets the workload up ``SETUP_REPEATS`` times (import in a fresh
interpreter, input preparation, server boot and pool warm-up) and
reports the median as ``setup_s``.  It then makes passes over the
inputs until ``--seconds`` have gone by, at least ``MIN_PASSES`` of
them, and until the 90th latency percentile has ten samples beyond it.
Every output is checked (``workloads.py``), and every circuit's quality
must repeat exactly from pass to pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes and prints the per-layer metrics of the traced
pass with the median wall (``layers.py``), after checking that layer
self times plus ``unattributed.self_s`` equal that pass's traced time
(its wall, plus the busy time of self-tracing service workers) and that
every wrapped binding was restored.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
MIN_PASSES = 2
#: Beyond this many seconds of measuring, stop even if a sample floor
#: is not met, so that a run always ends well inside three minutes.
MEASURE_LIMIT_S = 120.0
MIN_BEYOND_P90 = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("literals", "count"),
    ("final_states", "count"),
    ("state_signals", "count"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def quantile(values, q):
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values, q):
    """How many samples lie above the ``q`` quantile."""
    cut = quantile(values, q)
    return sum(1 for value in values if value > cut)


def environment(src):
    """nproc, python, commit (when the checkout has git metadata) and a
    digest of the program's sources, which identifies the code either
    way."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(src, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".g")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="ascii") as handle:
                    commit = handle.read().strip()
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def set_up(workload, src):
    """Set the workload up ``SETUP_REPEATS`` times; median seconds."""
    from workloads import import_seconds

    totals = []
    for _ in range(SETUP_REPEATS):
        workload.close()  # tear the previous set-up down, untimed
        seconds = import_seconds(src)
        began = time.perf_counter()
        workload.prepare()
        workload.boot()
        totals.append(seconds + time.perf_counter() - began)
    return statistics.median(totals)


class Ledger:
    """Outcomes of all passes: failures, quality, determinism."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # name -> quality of the first pass
        self.totals = None

    def add(self, outcomes):
        qualities = {o.name: o.quality for o in outcomes if o.quality}
        if self.reference is None:
            self.reference = qualities
            self.totals = [sum(q[i] for q in qualities.values())
                           for i in range(3)]
        for outcome in outcomes:
            self.attempted += 1
            problem = outcome.problem
            if problem is None and outcome.quality is not None:
                expected = self.reference.get(outcome.name, outcome.quality)
                if expected != outcome.quality:
                    problem = (f"quality {outcome.quality} differs from "
                               f"the first pass's {expected}")
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{outcome.name}: {problem}")


def measure(workload, seconds, trace):
    """Make the passes; returns ``(ledger, plain, traced, rows)`` where
    ``plain`` is ``[(wall, latencies)]`` and ``traced``
    ``[(wall, values, problem)]``."""
    from layers import LayerTracer, install, restore, snapshot

    ledger = Ledger()
    plain, traced = [], []
    rows = None
    tracer = LayerTracer() if trace else None
    started = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            tracer.reset()
            installed = install(tracer)
            try:
                wall, outcomes = workload.run_pass(tracer)
            finally:
                restored = restore(installed)
            unattributed, problem = tracer.attribution(wall)
            if restored == 0:
                problem = "no binding was wrapped"
            traced.append((wall, snapshot(tracer, unattributed), problem))
        else:
            wall, outcomes = workload.run_pass()
            plain.append((wall, [o.seconds for o in outcomes]))
        ledger.add(outcomes)
        if rows is None and outcomes and outcomes[0].row is not None:
            rows = [o.row for o in outcomes]
        latencies = [s for _wall, samples in plain for s in samples]
        passes = len(plain) + len(traced)
        done = (
            time.perf_counter() - started >= seconds
            and passes >= MIN_PASSES
            and (traced if trace else
                 beyond(latencies, 0.9) >= MIN_BEYOND_P90)
        )
        if done or (time.perf_counter() - started >= MEASURE_LIMIT_S
                    and plain and (traced or not trace)):
            return ledger, plain, traced, rows


def end_to_end(setup_s, ledger, plain):
    walls = [wall for wall, _samples in plain]
    latencies = [s for _wall, samples in plain for s in samples]
    wall = statistics.median(walls)
    per_pass = len(plain[0][1])
    literals, final_states, state_signals = ledger.totals
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_per_s": per_pass / wall,
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.5),
        "latency_p90_ms": 1000.0 * quantile(latencies, 0.9),
        "literals": literals,
        "final_states": final_states,
        "state_signals": state_signals,
        "ok_ratio": 1.0 - ledger.failed / max(1, ledger.attempted),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced):
    ordered = sorted(traced, key=lambda entry: entry[0])
    wall, values, _problem = ordered[(len(ordered) - 1) // 2]
    values = dict(values)
    values["trace_overhead_ratio"] = wall / statistics.median(
        w for w, _samples in plain
    )
    return values


def run(args, src, work):
    from layers import PER_LAYER
    from workloads import make

    env = environment(src)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = make(args.workload, args.seed, os.cpu_count() or 1, work,
                    bool(args.trace))
    try:
        setup_s = set_up(workload, src)
        ledger, plain, traced, rows = measure(
            workload, args.seconds, args.trace
        )
    finally:
        workload.close()

    if rows:
        from workloads import format_table1

        print("Table 1, modular method (paper/ours); formula sizes are ours:")
        for line in format_table1(rows):
            print("  " + line)
    latencies = [s for _wall, samples in plain for s in samples]
    walls = " ".join(f"{wall:.3f}" for wall, _samples in plain)
    if traced:
        walls += "; traced " + " ".join(f"{wall:.3f}" for wall, *_ in traced)
    print(f"passes: {len(plain)} plain, {len(traced)} traced; "
          f"{len(plain[0][1])} operations per pass; walls (s): plain {walls}")
    correct = ledger.failed == 0
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    if args.trace:
        units = dict(PER_LAYER)
        values = per_layer(plain, traced)
        for _wall, _values, problem in traced:
            if problem is not None:
                correct = False
                print(f"FAILED attribution: {problem}")
        if not any(problem for *_rest, problem in traced):
            print("attribution: layer self times + unattributed == traced "
                  "time on every traced pass; all bindings restored")
    else:
        units = dict(END_TO_END)
        values = end_to_end(setup_s, ledger, plain)
        print(f"latency: p50 and p90 over {len(latencies)} samples, "
              f"{beyond(latencies, 0.9)} beyond p90")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}/repro",
              file=sys.stderr)
        return 2
    # Everything the run writes stays inside the checkout.
    work = os.path.join(ROOT, ".perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    try:
        return run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
