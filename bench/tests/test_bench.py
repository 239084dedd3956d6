"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import os
import types

import pytest

import run
import tracing
import worker
import workloads


@pytest.fixture(scope="module")
def mods():
    return worker.import_package()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(workload):
    first = workloads.generate(workload, 7, 3)
    assert first == workloads.generate(workload, 7, 3)
    assert workloads.argv_digest(first) == workloads.argv_digest(workloads.generate(workload, 7, 3))
    assert first != workloads.generate(workload, 8, 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_pool_operation_has_a_recorded_output(workload):
    with open(worker.EXPECTED_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)[workload]
    assert {workloads.op_key(op) for op in workloads.pool_ops(workload)} <= recorded.keys()


def _records(mods, argv):
    code, elapsed, output = worker.run_op(mods["cli"], argv)
    kept = output if workloads.needs_independent_check(argv) else None
    return code, elapsed, output, kept


def _recursion(mods):
    return lambda coeffs, n: mods["exact"].denumerant(coeffs, n).value


def test_gate_passes_a_good_output_and_flags_a_corrupted_one(mods):
    argv = next(op for op in workloads.pool_ops("frobenius-large") if op[2].count(",") == 1)
    with open(worker.EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)["frobenius-large"]
    code, elapsed, output, kept = _records(mods, argv)
    good = (argv, code, elapsed, workloads.output_digest(argv, output), kept)
    assert worker.check([good], expected, _recursion(mods))[0] == []

    corrupted = output.replace('"g": ', '"g": 1')
    bad = (argv, code, elapsed, workloads.output_digest(argv, corrupted), corrupted)
    failures = worker.check([bad], expected, _recursion(mods))[0]
    assert len(failures) == 1 and "differs from the recorded one" in failures[0]

    crashed = (argv, 3, elapsed, good[3], kept)
    assert "exit code 3" in worker.check([crashed], expected, _recursion(mods))[0][0]


def test_independent_checks_need_no_recorded_output():
    pair = ("frobenius", "--coeffs", "3,5", "--format", "json")
    assert workloads.independent_check(pair, '{"coeffs": [3, 5], "g": 7}\n', None) is None
    assert "Sylvester" in workloads.independent_check(pair, '{"coeffs": [3, 5], "g": 8}\n', None)

    closed = ("count", "--coeffs", "3,5", "--n", "8", "--method", "popoviciu", "--format", "json")
    row = '{"coeffs": [3, 5], "n": 8, "value": 1, "method": "popoviciu"}\n'
    assert workloads.independent_check(closed, row, lambda coeffs, n: 1) is None
    assert "recursion" in workloads.independent_check(closed, row, lambda coeffs, n: 2)

    verify = workloads.pool_ops("verify-acceptance")[0]
    want = workloads.expected_instances(verify)
    report = {"failures": [], "instances": want}
    assert workloads.independent_check(verify, json.dumps(report), None) is None
    assert "instances" in workloads.independent_check(
        verify, json.dumps(dict(report, instances=want - 1)), None
    )
    assert "failures" in workloads.independent_check(
        verify, json.dumps(dict(report, failures=[{}])), None
    )


def test_verify_digest_ignores_wall_time():
    argv = ("verify", "--suite", "powersum")
    one = '{\n  "instances": 3,\n  "wall_time_s": 1.5\n}'
    two = '{\n  "instances": 3,\n  "wall_time_s": 2.25\n}'
    assert workloads.output_digest(argv, one) == workloads.output_digest(argv, two)


def _span(parent, start, end, name="f"):
    return tracing.Span(parent, 0, name, start, end, None, False)


def test_self_time_of_nested_spans():
    spans = [
        _span(-1, 0, 100),  # root
        _span(0, 10, 40),  # child, overlaps the next one
        _span(0, 30, 60),  # child
        _span(1, 15, 20),  # grandchild, inside the first child
        _span(0, 90, 120),  # child running past its parent is clipped
    ]
    # Root: children cover 10..60 and 90..100, so 100 - 60.
    assert tracing.self_times(spans) == [40, 25, 30, 5, 30]
    assert tracing.in_span(spans, 3, "f")
    assert not tracing.in_span(spans, 0, "f")


def test_function_bound_in_two_namespaces_counts_once_per_call():
    home = types.ModuleType("home")
    exec("def f(x):\n    return x + 1\n", home.__dict__)
    other = types.ModuleType("other")
    other.f = home.f
    exec("def g(x):\n    return f(x) * 2\n", other.__dict__)
    original = home.f

    tracer = tracing.Tracer()
    targets = [("home.f", home, "f"), ("other.g", other, "g"), ("home.f", home, "f")]
    tracer.install([home, other], targets)
    assert home.f is other.f
    assert home.f(1) == 2 and other.f(2) == 3 and other.g(3) == 8
    assert [s.name for s in tracer.spans] == ["home.f", "home.f", "other.g", "home.f"]
    assert tracer.spans[3].parent == 2

    tracer.uninstall()
    assert home.f is original and other.f is original


def test_exception_escaping_nested_spans_counts_at_its_origin():
    ns = types.ModuleType("ns")
    exec(
        "def inner():\n    raise KeyError('x')\n"
        "def outer():\n    return inner()\n",
        ns.__dict__,
    )
    tracer = tracing.Tracer()
    tracer.install([ns], [("ns.inner", ns, "inner"), ("ns.outer", ns, "outer")])
    with pytest.raises(KeyError):
        ns.outer()
    tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["ns.inner"].error == by_name["ns.outer"].error == "KeyError"
    assert by_name["ns.inner"].origin and not by_name["ns.outer"].origin


def test_every_per_layer_counter_is_reported_even_when_zero(mods):
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = {m["name"] for m in json.load(handle)["per_layer"]}
    tracer = tracing.Tracer()
    tracer.install(list(mods.values()), worker.traced_targets(mods))
    tracer.uninstall()
    assert tracer.absent == []
    metrics, _ = worker.layer_metrics(tracer, mods)
    reported_elsewhere = {"sweep.instances", "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.slowdown"}
    assert names - reported_elsewhere <= metrics.keys()
    assert metrics["sweep.shrink_failure.calls"] == 0


def test_tail_latency_keeps_ten_samples_beyond_it():
    assert run.tail_latency(list(range(10))) is None
    value, percentile = run.tail_latency([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0


def test_times_are_scaled_by_the_reference_samples_around_them():
    slow, fast = 2 * worker.REFERENCE_S, worker.REFERENCE_S / 2
    # Two ops before the second sample, one between a slow and a fast one.
    scaled = worker.scaled_latencies([1.0, 2.0, 3.0], [0, 0, 1], [slow, slow, fast])
    assert scaled == pytest.approx([0.5, 1.0, 3.0 / 1.25])
