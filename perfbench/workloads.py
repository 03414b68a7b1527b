"""The benchmark's three workloads and their correctness checks.

* ``table1-cold`` -- the 23 packaged Table-1 STGs of the paper, modular
  method, hazard-level verification, no cache, one process.  This is
  the paper's own traffic and where polish (the ROADMAP's hot layer)
  dominates: a few large graphs (mmu0, mr0, mr1) take most of a pass.
  The seed only shuffles the order of the circuits.
* ``generated-sweep`` -- a seeded :mod:`repro.stg.generate` corpus over
  signals 4-12, width 1-3 and csc_density {0, 0.25, 0.5, 1}, same
  options.  Many small graphs, so per-call front-end cost (reachability,
  input sets, quotients) dominates; a share of the circuits needs no
  state signal and skips polish and SAT.  Nets with more than
  ``MAX_SWEEP_STATES`` reachable markings are redrawn: synthesis time of
  those varies twenty-fold between circuits of the same knobs, so a
  handful of them would decide the whole pass and make one seed's
  figures incomparable with the next.  Large graphs are
  ``table1-cold``'s job.
* ``service-replay`` -- an in-process :mod:`repro.service` server on a
  worker pool ``nproc`` wide, driven over loopback HTTP by one client
  process holding a closed loop over ``nproc`` connections (callers
  wait for each reply).  Every circuit of a seeded sweep is uploaded
  ``UPLOADS`` times in shuffled order, so about two thirds of requests
  are cache hits, running beside misses and single-flight dedup.

The program only ever receives generated ``.g`` text; the seed is the
benchmark's argument.  Seed 0 is kept back for checking claims: tune
and develop on other seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import random
import shutil
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP_SIGNALS = tuple(range(4, 13))
SWEEP_WIDTHS = (1, 2, 3)
SWEEP_DENSITIES = (0.0, 0.25, 0.5, 1.0)
MAX_SWEEP_STATES = 48
#: Draws per sweep cell before giving up; a cell accepts about one
#: draw in three at worst.
MAX_DRAWS = 64
SWEEP_PER_CELL = 4
SERVICE_PER_CELL = 3
UPLOADS = 3

#: Modules imported by every workload; ``setup_s`` includes importing
#: them in a fresh interpreter.
IMPORTS = (
    "repro", "repro.runtime.run", "repro.csc.polish",
    "repro.verify.checker", "repro.logic.extract", "repro.stg.generate",
    "repro.service",
)


def import_seconds(src):
    """Wall time of importing :data:`IMPORTS` in a fresh interpreter."""
    import subprocess

    code = (
        "import time\nstart = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in IMPORTS)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.split()[-1])


def options():
    from repro.runtime.options import SynthesisOptions

    return SynthesisOptions(verify_level="hazards")


# -- inputs ----------------------------------------------------------------


def table1_inputs(seed):
    """The packaged Table-1 sources in a seeded order."""
    from importlib import resources

    from repro.bench.suite import benchmark_names
    from repro.stg import parse_g

    items = []
    for name in benchmark_names():
        text = resources.files("repro.data").joinpath(f"{name}.g").read_text(
            encoding="utf-8"
        )
        parse_g(text)  # a broken data file fails set-up, not a pass
        items.append((name, text))
    random.Random(seed).shuffle(items)
    return items


def sweep_inputs(seed, per_cell):
    """``per_cell`` generated circuits for every sweep cell.

    Circuit seeds are drawn from one stream derived from ``seed``;
    draws with more than :data:`MAX_SWEEP_STATES` reachable markings
    are replaced by the next draw.  Returns ``[(name, g_text)]`` in a
    seeded order.
    """
    from repro.petrinet.errors import UnboundedNetError
    from repro.petrinet.reachability import reachability_graph
    from repro.stg.generate import generate_stg

    stream = itertools.count(seed * 1_000_003)
    items = []
    for signals, width, density in itertools.product(
        SWEEP_SIGNALS, SWEEP_WIDTHS, SWEEP_DENSITIES
    ):
        for _ in range(per_cell):
            for _draw in range(MAX_DRAWS):
                circuit_seed = next(stream)
                knobs = dict(signals=signals, width=width,
                             csc_density=density, seed=circuit_seed)
                # Size first, unvalidated; only a kept draw pays for the
                # generator's full live/safe/free-choice validation.
                try:
                    reachability_graph(
                        generate_stg(validate=False, **knobs).stg.net,
                        marking_limit=MAX_SWEEP_STATES,
                    )
                except UnboundedNetError:  # more markings than the limit
                    continue
                circuit = generate_stg(**knobs)
                break
            else:
                raise RuntimeError(
                    f"no circuit of at most {MAX_SWEEP_STATES} states in "
                    f"{MAX_DRAWS} draws (signals={signals}, width={width}, "
                    f"csc_density={density})"
                )
            items.append((
                f"s{signals}w{width}d{density}-{circuit_seed}",
                circuit.g_text,
            ))
    random.Random(seed).shuffle(items)
    return items


# -- batch workloads ---------------------------------------------------------


class Outcome:
    """One circuit's result as the checks and metrics see it."""

    __slots__ = ("name", "seconds", "problem", "quality", "row")

    def __init__(self, name, seconds, problem, quality, row=None):
        self.name = name
        self.seconds = seconds
        #: ``None``, or why this operation failed
        self.problem = problem
        #: ``(literals, final_states, state_signals)``
        self.quality = quality
        self.row = row

    @property
    def ok(self):
        return self.problem is None


class BatchWorkload:
    """Serial ``repro.synthesize`` over a list of ``.g`` sources."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.items = None

    def prepare(self):
        if self.name == "table1-cold":
            self.items = table1_inputs(self.seed)
        else:
            self.items = sweep_inputs(self.seed, SWEEP_PER_CELL)

    def boot(self):
        # Import the checker's reference before any tracer is installed:
        # the benchmark's own checks must not be timed as a layer.
        from repro.stategraph.csc import csc_conflicts

        self._csc_conflicts = csc_conflicts
        self._options = options()
        # One synthesis of the smallest input runs the pipeline's lazy
        # imports here rather than in the first measured pass.
        import repro

        smallest = min(self.items, key=lambda item: len(item[1]))[1]
        repro.synthesize(smallest, options=self._options)

    def run_pass(self, tracer=None):
        """One pass; returns ``(wall_s, [Outcome])``."""
        import repro

        opts = self._options
        reports = []
        start = time.perf_counter()
        for name, text in self.items:
            began = time.perf_counter()
            try:
                report = repro.synthesize(text, options=opts)
            except Exception as exc:  # a bug in the program: one failure
                traceback.print_exc()
                report = exc
            reports.append((name, report, time.perf_counter() - began))
        wall = time.perf_counter() - start
        return wall, [self._check(n, r, s, tracer) for n, r, s in reports]

    def _check(self, name, report, seconds, tracer):
        if isinstance(report, Exception):
            return Outcome(name, seconds,
                           f"raised {type(report).__name__}: {report}", None)
        result = report.result
        verdict = getattr(report.verify, "verdict", None)
        if report.status != "ok" or result is None:
            problem = f"status {report.status}"
        elif verdict is not True:
            problem = f"hazards verdict {verdict!r}"
        elif self._csc_conflicts(result.expanded):
            problem = "csc conflicts in the expanded graph"
        else:
            problem = None
        if result is None:
            return Outcome(name, seconds, problem, None)
        quality = (result.literals, result.final_states, result.state_signals)
        sizes = result.formula_sizes()
        if tracer is not None:
            tracer.counts["csc.solve.clauses"] += sum(c for c, _ in sizes)
            tracer.counts["csc.solve.vars"] += sum(v for _, v in sizes)
        row = None
        if self.name == "table1-cold":
            row = table1_row(name, result, sizes)
        return Outcome(name, seconds, problem, quality, row)

    def close(self):
        pass


def table1_row(name, result, sizes):
    """Paper's Table-1 entry (modular column) beside ours."""
    from repro.bench.suite import BENCHMARKS

    paper = BENCHMARKS[name].ours
    return {
        "name": name,
        "paper_states": paper.final_states,
        "states": result.final_states,
        "paper_signals": paper.final_signals,
        "signals": result.final_signals,
        "paper_area": paper.area,
        "area": result.literals,
        "formulas": len(sizes),
        "clauses": sum(c for c, _ in sizes),
        "vars": sum(v for _, v in sizes),
    }


def format_table1(rows):
    widths = (16, 11, 9, 9, 10, 9, 7)
    keys = ("states", "signals", "area")

    def line(cells):
        return cells[0].ljust(widths[0]) + "".join(
            str(cell).rjust(width)
            for cell, width in zip(cells[1:], widths[1:])
        )

    lines = [line(("circuit",) + keys + ("formulas", "clauses", "vars"))]
    for row in sorted(rows, key=lambda r: -r["paper_states"]):
        lines.append(line(
            (row["name"],)
            + tuple(f"{row['paper_' + key]}/{row[key]}" for key in keys)
            + (row["formulas"], row["clauses"], row["vars"])
        ))
    return lines


# -- service workload --------------------------------------------------------


def warm_worker():
    """Pool initializer: import the pipeline before the first request."""
    for name in IMPORTS:
        __import__(name)


def trace_worker(trace_dir):
    """Initializer of the pool that serves traced passes.

    Wraps every layer in this worker for good, and after each synthesis
    writes the worker's totals to ``trace_dir/<pid>.json``.  The file is
    replaced before the reply leaves the worker, so once every reply is
    in, the parent reads complete totals.
    """
    warm_worker()
    import repro.runtime.run as run_module
    from layers import LayerTracer, install

    tracer = LayerTracer()
    install(tracer)
    original = run_module.run_synthesis
    path = os.path.join(trace_dir, f"{os.getpid()}.json")

    def run_synthesis(*args, **kwargs):
        start = time.perf_counter()
        report = original(*args, **kwargs)
        tracer.record("worker.busy", time.perf_counter() - start)
        if report.result is not None:
            sizes = report.result.formula_sizes()
            tracer.counts["csc.solve.clauses"] += sum(c for c, _ in sizes)
            tracer.counts["csc.solve.vars"] += sum(v for _, v in sizes)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(tracer.state(), handle)
        os.replace(path + ".tmp", path)
        return report

    run_module.run_synthesis = run_synthesis


class TimedPool(ProcessPoolExecutor):
    """The service's worker pool.  While ``tracer`` is set, each task's
    time from submission to result is recorded as ``service.dispatch``:
    the wait a miss spends queued for and running on a worker."""

    tracer = None

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        tracer = self.tracer
        if tracer is not None:
            start = time.perf_counter()
            future.add_done_callback(
                lambda _f: tracer.record(
                    "service.dispatch", time.perf_counter() - start
                )
            )
        return future


class ServiceWorkload:
    """``service-replay``: see the module docstring."""

    name = "service-replay"

    def __init__(self, seed, nproc, work, trace=False):
        self.seed = seed
        self.nproc = nproc
        self.work = work
        self.trace = trace
        self.trace_dir = os.path.join(work, "worker-trace")
        self.pool = None
        self.traced_pool = None
        self.loop = None
        self.passes = 0
        self._seen = {}

    def prepare(self):
        items = sweep_inputs(self.seed + 7_919, SERVICE_PER_CELL)
        self.corpus = [text for _name, text in items]
        self.names = [name for name, _text in items]
        schedule = [i for i in range(len(items)) for _ in range(UPLOADS)]
        random.Random(self.seed).shuffle(schedule)
        self.schedule = schedule
        os.makedirs(self.work, exist_ok=True)
        self.job_file = os.path.join(self.work, "service-job.json")
        with open(self.job_file, "w", encoding="utf-8") as handle:
            json.dump({"corpus": self.corpus, "schedule": schedule}, handle)

    def boot(self):
        """Start the pool nproc wide, wait until every worker has
        imported the pipeline, and serve one request through a server.
        A traced run also starts the pool of self-tracing workers that
        serves its traced passes."""
        self.loop = asyncio.new_event_loop()
        self.pool = self._start_pool(warm_worker)
        self.loop.run_until_complete(self._probe(self.pool))
        if self.trace:
            os.makedirs(self.trace_dir, exist_ok=True)
            self.traced_pool = self._start_pool(trace_worker, self.trace_dir)
            self.loop.run_until_complete(self._probe(self.traced_pool))
            self._seen = self._worker_states()

    def _start_pool(self, initializer, *initargs):
        import multiprocessing

        pool = TimedPool(
            max_workers=self.nproc,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=initializer, initargs=initargs,
        )
        # Submitting nproc tasks at once starts nproc workers.
        for future in [pool.submit(os.getpid) for _ in range(self.nproc)]:
            future.result(timeout=120)
        return pool

    async def _probe(self, pool):
        from repro.service import start_server

        service = self._service("probe", pool)
        server = await start_server(service, port=0)
        server.close()
        await server.wait_closed()
        # One request through the handler runs the lazy imports here
        # rather than in the first measured pass.
        smallest = min(self.corpus, key=len)
        await service.synthesize(smallest.encode("utf-8"))
        shutil.rmtree(service.cache_dir, ignore_errors=True)

    def _worker_states(self):
        states = {}
        for name in os.listdir(self.trace_dir):
            if name.endswith(".json"):
                path = os.path.join(self.trace_dir, name)
                with open(path, encoding="utf-8") as handle:
                    states[path] = json.load(handle)
        return states

    def _service(self, tag, pool):
        from repro.service import SynthesisService

        cache_dir = os.path.join(self.work, f"cache-{tag}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return SynthesisService(
            cache_dir=cache_dir, jobs=self.nproc, verify=True,
            executor=lambda: pool,
        )

    def run_pass(self, tracer=None):
        """One pass against a fresh cache; returns ``(wall_s, [Outcome])``."""
        self.passes += 1
        pool = self.pool if tracer is None else self.traced_pool
        pool.tracer = tracer
        try:
            records, wall, dedup = self.loop.run_until_complete(
                self._drive(f"pass{self.passes}", pool)
            )
        finally:
            pool.tracer = None
        if tracer is not None:
            tracer.counts["service.dedup"] += dedup
            seen, self._seen = self._seen, self._worker_states()
            for path, state in self._seen.items():
                tracer.absorb(state, seen.get(path))
        return wall, self._check(records)

    async def _drive(self, tag, pool):
        from repro.service import start_server

        service = self._service(tag, pool)
        server = await start_server(service, port=0)
        port = server.sockets[0].getsockname()[1]
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "client.py"),
            "--port", str(port), "--connections", str(self.nproc),
            "--job", self.job_file,
            stdout=asyncio.subprocess.PIPE,
        )
        try:
            out, _ = await proc.communicate()
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
            server.close()
            await server.wait_closed()
            shutil.rmtree(service.cache_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"client exited with {proc.returncode}")
        done = json.loads(out)
        for error in done["errors"]:
            print(f"client connection failed: {error}", file=sys.stderr)
        dedup = service.counters.as_dict().get("service_inflight_dedup", 0)
        return done["records"], done["wall_s"], dedup

    def _check(self, records):
        first_hit = {}
        outcomes = []
        for index in range(len(self.schedule) - len(records)):
            outcomes.append(Outcome("unanswered", 0.0,
                                    "no reply (client connection failed)",
                                    None))
        for index, status, seconds, payload in records:
            name = self.names[index]
            if status != 200:
                outcomes.append(Outcome(name, seconds, f"http {status}",
                                        None))
                continue
            doc = json.loads(payload)
            verdict = (doc.get("verify") or {}).get("verdict")
            problem = None
            if doc.get("status") != "ok":
                problem = f"status {doc.get('status')}"
            elif verdict is not True or doc.get("verified") is not True:
                problem = f"hazards verdict {verdict!r}"
            elif doc.get("cache") == "hit":
                digest = hashlib.sha256(payload.encode("utf-8")).digest()
                if first_hit.setdefault(index, digest) != digest:
                    problem = "replayed bytes differ from the first hit"
            quality = None
            if doc.get("cache") == "miss":
                quality = (doc["literals"], doc["final_states"],
                           len(doc["state_signals"]))
            outcomes.append(Outcome(name, seconds, problem, quality))
        return outcomes

    def close(self):
        for pool in (self.pool, self.traced_pool):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        self.pool = self.traced_pool = None
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        # The spawn context started a resource-tracker process for the
        # pool's semaphores; stop it and wait for it to exit.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def make(name, seed, nproc, work, trace):
    if name == "service-replay":
        return ServiceWorkload(seed, nproc, work, trace)
    return BatchWorkload(name, seed)


WORKLOADS = ("table1-cold", "generated-sweep", "service-replay")
