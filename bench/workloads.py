"""The three workloads: the argv lists each one feeds to ``denumerant.cli.main``.

The program under test receives only these argv lists.  Each workload has a
fixed *pool* of operations, generated from ``POOL_SEED``, whose expected
outputs were recorded once (``record.py`` writes ``expected.json``).  The
workload seed picks operations from the pool and orders them, one *pass* at a
time, so every seed runs different inputs that all have a recorded answer.

A pass has a fixed composition (so many operations of each kind and size
class), which keeps the work per pass nearly equal across seeds; that is what
lets ten seeds agree within the benchmark's bounds.

This module imports nothing from the package: generating inputs must not
depend on the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

DEFAULT_SEED = 1
# Used only to confirm a claim made on other seeds, never while tuning.
HELD_OUT_SEED = 20221
POOL_SEED = 0x5EED

# ---------------------------------------------------------------------------
# Random helpers.  Only ``Random.random()`` is guaranteed to give the same
# stream for the same seed on every Python version, so everything is built on
# it.  String seeds are hashed by a seeder that is also stable.
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    return min(n - 1, int(rng.random() * n))


def _pick(rng: random.Random, items):
    return items[_below(rng, len(items))]


def _shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + rng.random() * (math.log(hi) - math.log(lo)))))


def _csv(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


# ---------------------------------------------------------------------------
# count-stream: count, bounds and dhat rows on a few tuples in several orders.
# The exact DP and its 32-row cache do most of the work.  The DP table for a
# target n has the next power of two above n rows, so the target bins are
# [2^j, 2^(j+1)): within a bin every operation builds the same table size.
# Targets stay below 2^18: one cached row at 1e6 is about 63 MB, and 32 of
# them would not fit a shared machine.
# ---------------------------------------------------------------------------

COUNT_TUPLES = (
    (3, 5, 7),
    (6, 10, 15),
    (5, 8, 12, 27),
    (7, 11, 13, 40),
    (6, 9, 20, 25, 38),
    (3, 7, 10, 19, 29),
    (4, 11, 17, 23, 30, 36),
    (12, 15, 20, 30, 33, 40),
)
POPOVICIU_PAIRS = ((11, 37), (8, 39))
TARGET_BITS = range(10, 18)  # bins [2^10, 2^11) ... [2^17, 2^18)
RANGE_WIDTH = 50
ORACLE_N = (100, 500)
POOL_PER_CELL = 2
# One pass: per target bin these kinds, plus a few oracle and closed-form
# counts.  "count n" appears twice because single counts are the common case.
COUNT_KINDS = (
    ("count", "n"),
    ("count", "n"),
    ("bounds", "n"),
    ("dhat", "n"),
    ("count", "range"),
    ("bounds", "range"),
    ("dhat", "range"),
)
ORACLE_PER_PASS = 3
POPOVICIU_PER_PASS = 3


def _orders(coeffs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The same tuple in three coefficient orders; the count ignores order,
    the bounds (through the running gcds) do not."""
    return [coeffs, coeffs[::-1], coeffs[1::2] + coeffs[0::2]]


def _count_pool() -> dict[str, list[tuple[str, ...]]]:
    rng = random.Random(f"count-stream-pool:{POOL_SEED}")
    pool: dict[str, list[tuple[str, ...]]] = {}
    for command, mode in sorted(set(COUNT_KINDS)):
        for bits in TARGET_BITS:
            for t, coeffs in enumerate(COUNT_TUPLES):
                cell = pool.setdefault(f"{command}-{mode}-{bits}-{t}", [])
                top = (1 << (bits + 1)) - (1 if mode == "n" else RANGE_WIDTH)
                for _ in range(POOL_PER_CELL):
                    n = _log_uniform(rng, 1 << bits, top)
                    target = ["--n", str(n)] if mode == "n" else [
                        "--n-range", f"{n}:{n + RANGE_WIDTH - 1}"
                    ]
                    order = _csv(_pick(rng, _orders(coeffs)))
                    cell.append((command, "--coeffs", order, *target, "--format", "json"))
    orders = [o for t in COUNT_TUPLES for o in _orders(t)]
    pool["oracle"] = [
        ("count", "--coeffs", _csv(_pick(rng, orders)),
         "--n", str(_log_uniform(rng, *ORACLE_N)), "--method", "oracle", "--format", "json")
        for _ in range(16)
    ]
    pairs = [p for pair in POPOVICIU_PAIRS for p in (pair, pair[::-1])]
    pool["popoviciu"] = [
        ("count", "--coeffs", _csv(_pick(rng, pairs)),
         "--n", str(_log_uniform(rng, 1 << TARGET_BITS[0], 1 << (TARGET_BITS[-1] + 1))),
         "--method", "popoviciu", "--format", "json")
        for _ in range(16)
    ]
    return pool


def _count_pass(pool, rng: random.Random) -> list[tuple[str, ...]]:
    """Rounds of one operation per target bin, bins in a seeded order, so the
    cache always holds a similar mix of table sizes.  In each bin three tuples
    get two operations in consecutive rounds (often in different coefficient
    orders, which a cache keyed on the order misses) and a fourth gets one,
    which keeps the work per bin nearly fixed."""
    slots = {}
    for bits in TARGET_BITS:
        t = _shuffled(rng, list(range(len(COUNT_TUPLES))))
        kinds = _shuffled(rng, list(COUNT_KINDS))
        slots[bits] = [
            _pick(rng, pool[f"{command}-{mode}-{bits}-{tuple_index}"])
            for (command, mode), tuple_index in zip(kinds, (t[0], t[0], t[1], t[1], t[2], t[2], t[3]))
        ]
    ops = [
        slots[bits][r]
        for r in range(len(COUNT_KINDS))
        for bits in _shuffled(rng, list(TARGET_BITS))
    ]
    extras = [_pick(rng, pool["oracle"]) for _ in range(ORACLE_PER_PASS)]
    extras += [_pick(rng, pool["popoviciu"]) for _ in range(POPOVICIU_PER_PASS)]
    for op in extras:
        ops.insert(_below(rng, len(ops) + 1), op)
    return ops


# ---------------------------------------------------------------------------
# verify-acceptance: the nine suites at the acceptance-criterion configs
# (criteria 1, 3-9) and the CLI defaults for popoviciu.  The seed only orders
# the suites within each pass, so the work per pass is fixed.
# ---------------------------------------------------------------------------

ACCEPTANCE_CONFIGS = (
    # suite, seed, trials, k_range, max_coeff, n_max, expected instances
    ("oracle-eq", 1, 500, "2:4", 12, 120, 500),
    ("popoviciu", 1, 200, "2:4", 12, 120, 200),
    ("inequality-a", 2, 500, "2:5", 15, 400, 500),
    ("inequality-b", 2, 500, "2:5", 15, 400, 500),
    ("bf-identities", 3, 200, "2:8", 15, 120, 200),
    ("powersum", 1, 1, "2:4", 12, 120, 7 * 5 * 321 + 7 * 5 * 21),
    ("frobenius", 4, 200, "2:4", 25, 120, 200),
    ("dhat", 5, 200, "1:4", 12, 120, 200),
    ("asymptotic", 6, 50, "2:5", 15, 120, 50),
)


def _verify_argv(suite, seed, trials, k_range, max_coeff, n_max) -> tuple[str, ...]:
    return (
        "verify", "--suite", suite, "--seed", str(seed), "--trials", str(trials),
        "--k-range", k_range, "--max-coeff", str(max_coeff), "--n-max", str(n_max),
    )


def _verify_pool() -> dict[str, list[tuple[str, ...]]]:
    return {"suites": [_verify_argv(*cfg[:6]) for cfg in ACCEPTANCE_CONFIGS]}


def _verify_pass(pool, rng: random.Random) -> list[tuple[str, ...]]:
    return _shuffled(rng, pool["suites"])


def expected_instances(argv) -> int:
    suite = argv[argv.index("--suite") + 1]
    return next(cfg[6] for cfg in ACCEPTANCE_CONFIGS if cfg[0] == suite)


# ---------------------------------------------------------------------------
# frobenius-large: the sieve and its one large allocation.  The sieve length
# is about a_1 * a_2 when the first two coefficients are coprime, so each
# stratum fixes k and a narrow band for a_1, and a pass takes a fixed number
# of tuples from each stratum.
# ---------------------------------------------------------------------------

FROBENIUS_STRATA = (
    # name, k, a_1 band, spread of the other coefficients above a_1, per pass
    ("k3-1000", 3, (1000, 1100), 60, 4),
    ("pair-1000", 2, (1000, 1200), 400, 2),
    ("k4-2000", 4, (2000, 2100), 100, 2),
    ("k3-3000", 3, (3000, 3100), 100, 1),
    ("k4-4900", 4, (4900, 4960), 40, 1),
)
FROBENIUS_POOL_PER_STRATUM = 8


def _frobenius_tuple(rng: random.Random, k: int, band, spread: int) -> tuple[int, ...]:
    while True:
        a1 = band[0] + _below(rng, band[1] - band[0] + 1)
        rest = sorted({a1 + 1 + _below(rng, spread) for _ in range(k - 1)})
        coeffs = (a1, *rest)
        if len(coeffs) == k and math.gcd(a1, coeffs[1]) == 1:
            return coeffs


def _frobenius_pool() -> dict[str, list[tuple[str, ...]]]:
    rng = random.Random(f"frobenius-large-pool:{POOL_SEED}")
    return {
        name: [
            ("frobenius", "--coeffs", _csv(_frobenius_tuple(rng, k, band, spread)),
             "--format", "json")
            for _ in range(FROBENIUS_POOL_PER_STRATUM)
        ]
        for name, k, band, spread, _ in FROBENIUS_STRATA
    }


def _frobenius_pass(pool, rng: random.Random) -> list[tuple[str, ...]]:
    ops = [
        _pick(rng, pool[name])
        for name, _, _, _, per_pass in FROBENIUS_STRATA
        for _ in range(per_pass)
    ]
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# The registry.  ``passes_per_30s`` turns ``--seconds`` into a whole number of
# passes, so every commit runs the same operations and their latency
# percentiles stay comparable.  A 30 s run of each workload took 29-38 s on
# the 2-core x86-64 container (Python 3.11) where the benchmark was defined.
# Seven verify passes put both the median and the tail percentile in the
# middle of a group of same-suite latencies rather than at its edge.
# ---------------------------------------------------------------------------

WORKLOADS = {
    "count-stream": {"pool": _count_pool, "pass": _count_pass, "passes_per_30s": 12},
    "verify-acceptance": {"pool": _verify_pool, "pass": _verify_pass, "passes_per_30s": 7},
    "frobenius-large": {"pool": _frobenius_pool, "pass": _frobenius_pass, "passes_per_30s": 4},
}


def pool_ops(workload: str) -> list[tuple[str, ...]]:
    """Every distinct operation the workload can run, in a fixed order."""
    pool = WORKLOADS[workload]["pool"]()
    return sorted({op for ops in pool.values() for op in ops})


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * WORKLOADS[workload]["passes_per_30s"] / 30))


def generate(workload: str, seed: int, passes: int) -> list[list[tuple[str, ...]]]:
    """The operations of ``passes`` passes; the same seed gives the same list."""
    spec = WORKLOADS[workload]
    pool = spec["pool"]()
    rng = random.Random(f"{workload}:{seed}")
    return [spec["pass"](pool, rng) for _ in range(passes)]


def argv_digest(passes: list[list[tuple[str, ...]]]) -> str:
    """SHA-256 of the argv lists, proving two runs fed the program the same inputs."""
    return hashlib.sha256(json.dumps(passes).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def op_key(argv) -> str:
    return " ".join(argv)


def normalize(argv, output: str) -> str:
    """A verify report carries its wall time, which differs on every run."""
    if argv[0] == "verify":
        return "".join(
            line for line in output.splitlines(keepends=True) if "wall_time_s" not in line
        )
    return output


def output_digest(argv, output: str) -> str:
    return hashlib.sha256(normalize(argv, output).encode()).hexdigest()


def needs_independent_check(argv) -> bool:
    return (
        argv[0] == "verify"
        or "popoviciu" in argv
        or (argv[0] == "frobenius" and argv[2].count(",") == 1)
    )


def independent_check(argv, output: str, recursion_count) -> str | None:
    """A check that needs no recorded output; returns a message on failure.

    * verify: the report lists no failures and the expected instance count.
    * frobenius on a pair: Sylvester's g = ab - a - b.
    * count --method popoviciu: the closed form equals ``recursion_count``,
      the package's recursion route.
    """
    try:
        if argv[0] == "verify":
            report = json.loads(output)
            if report["failures"]:
                return f"{len(report['failures'])} failures reported"
            want = expected_instances(argv)
            if report["instances"] != want:
                return f"{report['instances']} instances, expected {want}"
            return None
        row = json.loads(output.splitlines()[0])
        if argv[0] == "frobenius":
            a, b = row["coeffs"]
            if row["g"] != a * b - a - b:
                return f"g = {row['g']}, Sylvester gives {a * b - a - b}"
            return None
        value = recursion_count(tuple(row["coeffs"]), row["n"])
        if row["value"] != value:
            return f"popoviciu gives {row['value']}, the recursion {value}"
        return None
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {err!r}"
