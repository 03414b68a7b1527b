"""Self-tests of the benchmark, at a small size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _wrapped_bindings():
    import repro  # noqa: F401  (loads the package before scanning)

    return layers._leftovers([])


def _traced_synthesis(name):
    import repro
    from repro.bench.suite import load_benchmark

    stg = load_benchmark(name)
    tracer = layers.LayerTracer()
    installed = layers.install(tracer)
    try:
        report = repro.synthesize(stg, options=workloads.options())
    finally:
        restored = layers.restore(installed)
    return tracer, report, restored


def test_install_wraps_every_binding_and_restore_removes_them():
    import repro.csc.insertion
    import repro.csc.polish
    import repro.csc.synthesis

    original = repro.csc.insertion.expand
    tracer = layers.LayerTracer()
    installed = layers.install(tracer)
    try:
        for module in (repro.csc.insertion, repro.csc.polish,
                       repro.csc.synthesis):
            assert getattr(module.expand, "__wrapped__", None) is original
    finally:
        layers.restore(installed)
    for module in (repro.csc.insertion, repro.csc.polish,
                   repro.csc.synthesis):
        assert module.expand is original
    assert _wrapped_bindings() == []


def test_restore_sweeps_a_binding_made_while_installed():
    import types

    import repro.csc.insertion

    original = repro.csc.insertion.expand
    late = types.ModuleType("repro._late_binder")
    installed = layers.install(layers.LayerTracer())
    try:
        sys.modules[late.__name__] = late
        late.expand = repro.csc.insertion.expand  # binds the wrapper
        assert late.expand is not original
        layers.restore(installed)
        assert late.expand is original
    finally:
        sys.modules.pop(late.__name__, None)


def test_traced_synthesis_attributes_every_second():
    tracer, report, restored = _traced_synthesis("pa")
    assert report.status == "ok"
    assert restored > 0
    wall = tracer.covered_s + 0.001
    unattributed, problem = tracer.attribution(wall)
    assert problem is None
    assert unattributed == pytest.approx(0.001)
    for layer in ("stategraph.build", "csc.input_set", "csc.solve", "sat",
                  "csc.insertion", "csc.polish", "logic", "verify"):
        assert tracer.calls[layer] >= 1, layer
        assert tracer.self_s[layer] > 0, layer
    result = report.result
    assert tracer.counts["stategraph.build.states"] == result.initial_states
    assert tracer.counts["verify.states"] == report.verify.states_explored
    # polish re-expands the graph to check each flip it tries
    assert 1 <= tracer.counts["csc.polish.accept_checks"] <= \
        tracer.calls["csc.insertion"]
    assert tracer.total_s["csc.polish"] >= tracer.self_s["csc.polish"]
    values = layers.snapshot(tracer, unattributed)
    names = {name for name, _unit in layers.PER_LAYER}
    assert set(values) == names - {"trace_overhead_ratio"}


def test_attribution_flags_time_counted_twice():
    tracer = layers.LayerTracer()
    tracer.self_s["logic"] = 2.0
    tracer.covered_s = 2.0
    _unattributed, problem = tracer.attribution(1.0)
    assert problem is not None


def test_absorbed_worker_time_joins_the_attribution():
    worker = layers.LayerTracer()
    worker.self_s["logic"] = 0.5
    worker.calls["logic"] = 2
    worker.covered_s = 0.5
    worker.record("worker.busy", 0.75)
    before = worker.state()
    worker.self_s["logic"] += 0.25
    worker.calls["logic"] += 1
    worker.covered_s += 0.25
    worker.record("worker.busy", 0.5)
    parent = layers.LayerTracer()
    parent.self_s["api"] = 0.1
    parent.covered_s = 0.1
    parent.absorb(worker.state(), before)
    assert parent.self_s["logic"] == pytest.approx(0.25)
    assert parent.calls["logic"] == 1
    unattributed, problem = parent.attribution(1.0)
    assert problem is None
    assert unattributed == pytest.approx(1.0 + 0.5 - 0.35)


def test_quantile_and_samples_beyond():
    values = list(range(1, 101))
    assert run.quantile(values, 0.5) == pytest.approx(50.5)
    assert run.quantile(values, 0.9) == pytest.approx(90.1)
    assert run.beyond(values, 0.9) == 10


def test_ledger_fails_a_circuit_whose_quality_changes():
    first = [workloads.Outcome("a", 0.1, None, (5, 10, 1)),
             workloads.Outcome("b", 0.1, None, (7, 12, 0))]
    second = [workloads.Outcome("a", 0.1, None, (5, 10, 1)),
              workloads.Outcome("b", 0.1, None, (8, 12, 0))]
    ledger = run.Ledger()
    ledger.add(first)
    ledger.add(second)
    assert ledger.attempted == 4
    assert ledger.failed == 1
    assert ledger.totals == [12, 22, 1]
    assert "differs" in ledger.problems[0]


def test_a_pass_counts_a_raising_synthesis_as_one_failure(monkeypatch):
    import repro

    def broken(stg, method="modular", options=None):
        raise RuntimeError("bug")

    batch = workloads.BatchWorkload("generated-sweep", 1)
    batch.items = [("x", "unused")]
    batch._options = None
    monkeypatch.setattr(repro, "synthesize", broken)
    _wall, outcomes = batch.run_pass()
    assert [o.problem for o in outcomes] == ["raised RuntimeError: bug"]


def _response(cache, verdict=True, status="ok", seconds=0.5):
    return json.dumps({
        "status": status, "verified": verdict,
        "verify": {"verdict": verdict}, "cache": cache, "literals": 9,
        "final_states": 20, "state_signals": ["csc0"], "seconds": seconds,
    }, sort_keys=True)


def test_service_check_counts_every_kind_of_failure():
    service = workloads.ServiceWorkload(1, 1, "unused")
    service.names = ["c0", "c1", "c2"]
    service.schedule = [0, 0, 0, 1, 2, 2]
    records = [
        [0, 200, 0.2, _response("miss")],
        [0, 200, 0.01, _response("hit")],
        [0, 200, 0.01, _response("hit", seconds=0.6)],  # bytes differ
        [1, 500, 0.01, "{}"],
        [2, 200, 0.2, _response("miss", verdict=False)],
    ]  # one scheduled request got no reply at all
    outcomes = service._check(records)
    problems = [o.problem for o in outcomes if not o.ok]
    assert len(outcomes) == 6
    assert len(problems) == 4
    assert any("replayed bytes" in p for p in problems)
    assert any("http 500" in p for p in problems)
    assert any("verdict" in p for p in problems)
    assert any("no reply" in p for p in problems)
    assert outcomes[1].quality == (9, 20, 1)  # the miss carries quality


def test_sweep_inputs_are_seeded_and_small():
    from repro.stategraph.build import build_state_graph
    from repro.stg import parse_g

    first = workloads.sweep_inputs(3, 1)
    assert first == workloads.sweep_inputs(3, 1)
    assert first != workloads.sweep_inputs(4, 1)
    cells = (len(workloads.SWEEP_SIGNALS) * len(workloads.SWEEP_WIDTHS)
             * len(workloads.SWEEP_DENSITIES))
    assert len(first) == cells
    for _name, text in first[:20]:
        states = build_state_graph(parse_g(text)).num_states
        assert states <= workloads.MAX_SWEEP_STATES


def test_table1_inputs_are_the_paper_suite_in_seeded_order():
    from repro.bench.suite import benchmark_names

    items = workloads.table1_inputs(5)
    assert sorted(n for n, _ in items) == sorted(benchmark_names())
    assert items == workloads.table1_inputs(5)
    assert [n for n, _ in items] != [n for n, _ in workloads.table1_inputs(6)]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_matches_what_a_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert dict((m["name"], m["unit"]) for m in spec["end_to_end"]) == \
        dict(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
