"""Record the expected output of every pool operation into ``expected.json``.

Run it once, at the commit that defines the benchmark; later commits are
checked against what it wrote:

    python3 bench/record.py

Each output is stored as the SHA-256 of its bytes (a verify report without
its ``wall_time_s`` line).  An operation that exits nonzero or fails its
independent check stops the recording.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, mods) -> dict[str, str]:
    def recursion(coeffs, n):
        return mods["exact"].denumerant(coeffs, n).value

    digests = {}
    for argv in workloads.pool_ops(workload):
        code, _, output = worker.run_op(mods["cli"], argv)
        problem = f"exit code {code}" if code != 0 else None
        if problem is None and workloads.needs_independent_check(argv):
            problem = workloads.independent_check(argv, output, recursion)
        if problem:
            raise SystemExit(f"{workloads.op_key(argv)}: {problem}")
        digests[workloads.op_key(argv)] = workloads.output_digest(argv, output)
    return digests


def main() -> int:
    mods = worker.import_package()
    recorded = {}
    for workload in sorted(workloads.WORKLOADS):
        recorded[workload] = record(workload, mods)
        print(f"{workload}: {len(recorded[workload])} operations recorded", file=sys.stderr)
    with open(worker.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
