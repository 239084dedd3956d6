"""Benchmark for the denumerant package: one command for every workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the package from ``src/`` there.
Each workload runs in fresh single-process workers (``worker.py``), as a
closed loop with one client and no threads: every operation is one
in-process call of ``denumerant.cli.main(argv)``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  The
worker is started several times; ``setup_s`` is the median time from start to
ready (import, input generation, loading the expected outputs), and one of
the starts then runs ``--seconds`` worth of passes.  ``--seconds`` sets the
number of passes (``workloads.passes_for``), so every commit runs the same
operations.  Times are scaled to the host's speed as a fixed reference loop
measures it next to them (``worker.REFERENCE_S``); the unscaled ones are
printed too, as ``raw_*``.

``--trace 1`` runs the first pass twice, untraced and then traced, and prints
the per-layer metrics; the ratio of the two rates is the tracing overhead.
Spans go to ``.bench_out/``.

Every output is checked (see ``workloads.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Only the benchmark's own processes are measured: no CPU
pinning, no cache dropping, no system-wide tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402
import workloads  # noqa: E402
from worker import OUT, ROOT, SRC  # noqa: E402

SETUPS = 7
# A reference loop that ends the run this much faster or slower than it
# started means the host changed speed during the run.
SPEED_SHIFT = 0.15
# A run must end within 180 s; stop waiting on workers well before that.
DEADLINE_S = 170
MEASURED = "only the benchmark's own processes; no CPU pinning, cache dropping or system-wide tracing"


class WorkerError(RuntimeError):
    pass


def _read_until(proc, deadline: float, *, line: bool) -> bytes:
    """Read the worker's stdout up to a newline (``line``) or to its end."""
    fd = proc.stdout.fileno()
    data = b""
    while not (line and data.endswith(b"\n")):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise WorkerError("worker did not finish before the deadline")
        chunk = os.read(fd, 65536)
        if not chunk:
            if line:
                raise WorkerError("worker exited before it was ready")
            break
        data += chunk
    return data


def run_worker(workload, seed, passes, mode, deadline):
    """Start one worker; returns (seconds from start to ready, its result)."""
    env = {k: v for k, v in os.environ.items() if k != "DENUM_MAX_ORACLE"}
    argv = [
        sys.executable, "-I", worker.__file__, "--workload", workload, "--seed", str(seed),
        "--passes", str(passes), "--mode", mode,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0)
    try:
        if _read_until(proc, deadline, line=True) != b"ready\n":
            raise WorkerError("worker did not report ready")
        ready = time.perf_counter() - started
        rest = _read_until(proc, deadline, line=False)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        result = json.loads(rest.decode().strip().splitlines()[-1]) if mode != "setup" else None
        return ready, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def tail_latency(latencies: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile), or None with fewer than eleven samples."""
    if len(latencies) < 11:
        return None
    ranked = sorted(latencies)
    index = len(ranked) - 11
    return ranked[index], 100.0 * (index + 1) / len(ranked)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "reference_loop_ms_start": 1000 * worker.reference_s(),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    passes = workloads.passes_for(workload, seconds)
    setups, raw_setups = [], []
    for mode in ["setup"] * (SETUPS - 1) + ["run"]:
        reference = worker.reference_s()
        ready, result = run_worker(workload, seed, passes, mode, deadline)
        raw_setups.append(ready)
        setups.append(ready * worker.REFERENCE_S / reference)
    latencies = result["latencies_s"]
    samples = result["reference_samples_s"]
    metrics = {
        "ops_per_s": statistics.median(result["pass_ops_per_s"]),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "failed_ratio": result["failed"] / result["ops"],
        "raw_ops_per_s": statistics.median(result["raw_pass_ops_per_s"]),
        "raw_op_p50_ms": 1000 * statistics.median(result["raw_latencies_s"]),
        "raw_setup_s": statistics.median(raw_setups),
    }
    details = {
        "passes": passes,
        "ops_per_s": "median over passes of ops / summed op latency",
        "times": f"scaled to a reference loop of {1000 * worker.REFERENCE_S:g} ms; "
        f"it took {1000 * min(samples):.1f}-{1000 * max(samples):.1f} ms "
        f"in {len(samples)} samples",
        "setup_s_samples": setups,
        "pass_ops_per_s": result["pass_ops_per_s"],
    }
    tail = tail_latency(latencies)
    if tail is not None:
        metrics["op_tail_ms"] = 1000 * tail[0]
        details["op_tail_ms"] = f"p{tail[1]:.1f} of {len(latencies)} operations, 10 beyond it"
    if result["verify_seconds"]:
        metrics["verify_instances_per_s"] = result["verify_instances"] / result["verify_seconds"]
    return {"metrics": metrics, "details": details, "results": [result]}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    _, plain = run_worker(workload, seed, 1, "run", deadline)
    _, traced = run_worker(workload, seed, 1, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.untraced_ops_per_s"] = statistics.median(plain["pass_ops_per_s"])
    metrics["trace.slowdown"] = metrics["trace.untraced_ops_per_s"] / metrics["trace.ops_per_s"]
    details = {"passes": 1, "spans": traced["spans"], "notes": traced["notes"]}
    return {"metrics": metrics, "details": details, "results": [plain, traced]}


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(workload: str, seed: int, trace: int, measured: dict, spec: dict, env: dict) -> dict:
    """Print the human-readable block and return the result object."""
    results = measured["results"]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    metrics = measured["metrics"]
    print(f"== {workload}  seed {seed}  trace {trace}  passes {measured['details']['passes']}")
    print(f"argv_sha256  {results[0]['argv_sha256']}")
    if trace:
        for name in sorted(metrics):
            print(f"  {name:<44} {_fmt(metrics[name])} {units.get(name, '')}")
        print(
            f"  sweep.instances {metrics['sweep.instances']} next to "
            f"bounds.inequality_b_lower.calls {metrics['bounds.inequality_b_lower.calls']}"
        )
        for note in measured["details"]["notes"]:
            print(f"  note: {note}")
    else:
        extra = {
            "failed_ratio": ("ratio", f"{failed} of {attempted} operations"),
            "verify_instances_per_s": ("1/s", "instances checked per second, summed over reports"),
            "raw_ops_per_s": ("1/s", "not scaled"),
            "raw_op_p50_ms": ("ms", "not scaled"),
            "raw_setup_s": ("s", "not scaled"),
        }
        for name in [m["name"] for m in names] + list(extra):
            if name not in metrics:
                continue
            unit, note = extra.get(name, (units.get(name, ""), ""))
            note = note or measured["details"].get(name, "")
            print(f"  {name:<24} {_fmt(metrics[name])} {unit}  {note}".rstrip())
        print(f"  times {measured['details']['times']}")
    for problem in [p for r in results for p in r["failures"]]:
        print(f"  FAILED {problem}")
    env = dict(env, loadavg_end=list(os.getloadavg()), reference_loop_ms_end=1000 * worker.reference_s())
    shift = env["reference_loop_ms_end"] / env["reference_loop_ms_start"] - 1
    env["speed_shifted"] = abs(shift) > SPEED_SHIFT
    if env["speed_shifted"]:
        measured["details"]["speed_shifted"] = (
            f"the reference loop changed by {100 * shift:+.0f}% during the run; "
            "its raw times are not comparable"
        )
    print(
        f"environment  python {env['python']}  nproc {env['nproc']}  loadavg "
        f"{env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}  reference loop "
        f"{env['reference_loop_ms_start']:.1f} -> {env['reference_loop_ms_end']:.1f} ms"
        + (f"  SPEED SHIFTED {100 * shift:+.0f}%" if env["speed_shifted"] else "")
    )
    print(f"measured     {MEASURED}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as handle:
        json.dump(
            dict(result, workload=workload, seed=seed, environment=env, measured=MEASURED,
                 argv_sha256=results[0]["argv_sha256"], details=measured["details"],
                 all_metrics=metrics, failures=[p for r in results for p in r["failures"]]),
            handle, indent=1,
        )
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "denumerant", "__init__.py")):
        print(f"error: no package source at {SRC}/denumerant; run from a checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        env = environment()
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                measured = measure_traced(workload, args.seed, deadline)
            else:
                measured = measure(workload, args.seed, args.seconds, deadline)
        except WorkerError as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 1
        results[workload] = report(workload, args.seed, args.trace, measured, spec, env)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
