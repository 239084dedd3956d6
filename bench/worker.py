"""One benchmark worker: a fresh process, one client, no threads.

It imports the package from ``src/`` beside ``bench/``, generates the
workload's argv lists, loads the recorded expected outputs and prints
``ready``.  In ``setup`` mode it stops there.  Otherwise it calls
``denumerant.cli.main(argv)`` for each operation in turn (a closed loop: the
next call starts when the previous one returns; between calls, now and then,
a reference loop is timed), then checks every output and prints one JSON line
with what it measured.  In ``trace`` mode the calls run with ``tracing.Tracer`` installed
and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(BENCH, "expected.json")
# The host's speed can change while a run goes on: on the shared 2-core host
# where the benchmark was defined, by about 40%, every few minutes.  So a
# fixed loop is timed before the first operation and again after every
# REFERENCE_EVERY_S of operations, and each operation's time is scaled as if
# the loop had taken REFERENCE_S around it (see ``scaled_latencies``).
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.5

MODULES = ("core", "exact", "bfnum", "bounds", "frobenius", "powersum", "sweep", "cli")
TRACED = (
    ("cli", "main"),
    ("core", "gcd_chain"),
    ("core", "format_rational"),
    ("exact", "denumerant"),
    ("exact", "extended_count"),
    ("exact", "oracle_count"),
    ("exact", "popoviciu"),
    ("bfnum", "bf_explicit"),
    ("bfnum", "bf_recursive"),
    ("bounds", "bound_sequences"),
    ("bounds", "inequality_a"),
    ("bounds", "inequality_b_lower"),
    ("bounds", "relaxed_count_chain"),
    ("bounds", "prefix_sum_count"),
    ("frobenius", "frobenius_exact"),
    ("frobenius", "bound_frobenius"),
    ("powersum", "power_sum"),
    ("powersum", "check_sum_bounds"),
    ("powersum", "refined_upper_bound"),
    ("sweep", "run_verify"),
    ("sweep", "SplitMix64.next_u64"),
    ("sweep", "shrink_failure"),
)
# The exceptions a sweep treats as "instance out of scope" and skips.
SKIPPABLE = (
    "NotCoprimeError",
    "NotApplicableError",
    "TooShortTupleError",
    "IndexRangeError",
    "BudgetExceededError",
)


def import_package() -> dict:
    sys.path.insert(0, SRC)
    package = importlib.import_module("denumerant")
    home = os.path.join(SRC, "denumerant")
    if os.path.dirname(os.path.abspath(package.__file__)) != home:
        raise ImportError(f"denumerant was imported from {package.__file__}, not {home}")
    mods = {name: importlib.import_module(f"denumerant.{name}") for name in MODULES}
    mods["__init__"] = package
    return mods


def load_expected(workload: str, passes) -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)[workload]
    missing = {workloads.op_key(op) for ops in passes for op in ops} - recorded.keys()
    if missing:
        raise KeyError(
            f"{len(missing)} operations have no recorded output, e.g. {sorted(missing)[0]!r}; "
            "re-run bench/record.py at the commit that defined the benchmark"
        )
    return recorded


def reference_s() -> float:
    """The median of three timings of a fixed pure-Python loop, in seconds."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def scaled_latencies(raw, segment_of, samples) -> list[float]:
    """Scale each operation's time by REFERENCE_S over the mean of the two
    reference samples around its segment (``samples[j]`` and ``[j + 1]``)."""
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
    return [t * scales[j] for t, j in zip(raw, segment_of)]


def run_op(cli, argv) -> tuple[int | str, float, str]:
    """Call the CLI once with stdout and stderr captured; returns
    (exit code or crash message, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def check(records, expected: dict[str, str], recursion) -> tuple[list[str], int, float]:
    """Check each ``(argv, code, seconds, digest, kept output)`` record: exit
    code 0, the recorded digest, and the independent check where one applies.
    Returns the failures, and the verify instances and the seconds they took."""
    failures = []
    verify_instances = 0
    verify_seconds = 0.0
    for argv, code, elapsed, digest, kept in records:
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif digest != expected[workloads.op_key(argv)]:
            problem = "output differs from the recorded one"
        elif kept is not None:
            problem = workloads.independent_check(argv, kept, recursion)
        if problem:
            failures.append(f"{workloads.op_key(argv)}: {problem}")
        elif argv[0] == "verify":
            verify_instances += json.loads(kept)["instances"]
            verify_seconds += elapsed
    return failures, verify_instances, verify_seconds


def traced_targets(mods):
    for module, qual in TRACED:
        owner_name, _, attr = qual.rpartition(".")
        owner = mods[module]
        if owner_name:
            owner = getattr(owner, owner_name, None)
        yield f"{module}.{qual}", owner, attr


def layer_metrics(tracer: tracing.Tracer, mods) -> tuple[dict, list[str]]:
    """Per-layer counters from the spans, with every named counter present."""
    metrics: dict[str, float] = {}
    for module, qual in TRACED:
        metrics[f"{module}.{qual}.calls"] = 0
        metrics[f"{module}.{qual}.self_s"] = 0
    for module in MODULES:
        metrics[f"{module}.self_s"] = 0
        metrics[f"{module}.errors"] = 0
    metrics["exact.oracle_count.budget_exceeded"] = 0
    for name in SKIPPABLE:
        metrics[f"sweep.skipped.{name}"] = 0
    spans = tracer.spans
    for index, (span, self_ns) in enumerate(zip(spans, tracing.self_times(spans))):
        module = span.name.split(".", 1)[0]
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += self_ns
        metrics[f"{module}.self_s"] += self_ns
        if span.error is None:
            continue
        metrics[f"{module}.errors"] += 1
        if span.name == "exact.oracle_count" and span.error == "BudgetExceededError":
            metrics["exact.oracle_count.budget_exceeded"] += 1
        if span.origin and span.error in SKIPPABLE and tracing.in_span(spans, index, "sweep.run_verify"):
            metrics[f"sweep.skipped.{span.error}"] += 1
    for key in metrics:
        if key.endswith("self_s"):
            metrics[key] /= 1e9

    notes = [f"{name}: not found in the package, reported as 0 calls" for name in tracer.absent]
    cache = getattr(getattr(mods["exact"], "_prefix_counts", None), "cache_info", None)
    if cache is not None:
        info = cache()
        lookups = info.hits + info.misses
        metrics["exact.prefix_cache.lookups"] = lookups
        metrics["exact.prefix_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        if not lookups:
            notes.append("exact.prefix_cache.hit_ratio: no lookups, reported as 0")
    else:
        notes.append("exact.prefix_cache: _prefix_counts.cache_info is absent, hit ratio not reported")

    cells = 0
    for index, args in tracer.args.items():
        if spans[index].error is not None or not args:
            continue
        coeffs = tuple(args[0])
        if 1 in coeffs or math.gcd(*coeffs) != 1:
            continue
        top = mods["bounds"].bound_sequences(coeffs).lower_shifts[-1]
        cells += max(0, int(top) + 1)
    metrics["frobenius.sieve_cells"] = cells
    notes.append("frobenius.sieve_cells: computed as brauer_upper + 1 per sieve run, not counted in the sieve")
    if metrics["sweep.shrink_failure.calls"] == 0:
        notes.append("sweep.shrink_failure: 0 calls; no sweep failed, so shrinking goes unmeasured")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    mods = import_package()
    passes = workloads.generate(args.workload, args.seed, args.passes)
    expected = load_expected(args.workload, passes)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        namespaces = list(mods.values())
        tracer.install(namespaces, traced_targets(mods), keep_args={"frobenius.frobenius_exact"})

    cli = mods["cli"]
    raw: list[float] = []
    segment_of: list[int] = []
    outcomes = []
    samples = [reference_s()]
    since_sample = 0.0
    for ops in passes:
        for argv in ops:
            if since_sample >= REFERENCE_EVERY_S:
                samples.append(reference_s())
                since_sample = 0.0
            if tracer is not None:
                tracer.op = len(outcomes)
            code, elapsed, output = run_op(cli, argv)
            since_sample += elapsed
            raw.append(elapsed)
            segment_of.append(len(samples) - 1)
            kept = output if workloads.needs_independent_check(argv) else None
            outcomes.append((argv, code, workloads.output_digest(argv, output), kept))
    samples.append(reference_s())
    latencies = scaled_latencies(raw, segment_of, samples)
    records = [(argv, code, t, digest, kept) for (argv, code, digest, kept), t in zip(outcomes, latencies)]
    pass_rates, raw_rates, start = [], [], 0
    for ops in passes:
        end = start + len(ops)
        pass_rates.append(len(ops) / sum(latencies[start:end]))
        raw_rates.append(len(ops) / sum(raw[start:end]))
        start = end
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        # Before the checks below, which call into the package again.
        layers, notes = layer_metrics(tracer, mods)

    def recursion(coeffs, n):
        return mods["exact"].denumerant(coeffs, n).value

    failures, verify_instances, verify_seconds = check(records, expected, recursion)
    result = {
        "ops": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "latencies_s": latencies,
        "pass_ops_per_s": pass_rates,
        "raw_latencies_s": raw,
        "raw_pass_ops_per_s": raw_rates,
        "reference_samples_s": samples,
        "peak_rss_mb": peak_rss_mb,
        "verify_instances": verify_instances,
        "verify_seconds": verify_seconds,
        "argv_sha256": workloads.argv_digest(passes),
    }
    if tracer is not None:
        layers["sweep.instances"] = verify_instances
        layers["trace.ops_per_s"] = statistics.median(pass_rates)
        result["layers"] = layers
        result["notes"] = notes
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans, {"workload": args.workload, "seed": args.seed, "layers": layers})
        result["spans"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
