"""Every public function lies on the path of an acceptance run, or says why not.

The nine acceptance configs recorded in ``bench/expected.json`` run through
``cli.main`` under ``sys.setprofile``, and each public function (a function
in ``denumerant.__all__``, or a non-dunder method of an exported class) must
be among the code they call.  A public function that no run reaches is
checked by unit tests alone, so it may break while every suite passes; it
is listed below with the reason it stays, or it goes.
"""

import inspect
import json
import sys
from pathlib import Path

import denumerant
from denumerant import bounds, cli
from denumerant.exact import _prefix_counts

_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"

# The public functions no acceptance run reaches, each with what it waits
# for.  The benchmark's trace (``TRACED`` in bench/worker.py) counts calls
# to the first five, and its tests require every traced name to exist.
UNREACHED = {
    "format_rational": "traced by the benchmark; goes when the trace drops it",
    "inequality_b_lower": "traced by the benchmark; reached or removed when the trace drops it",
    "power_sum": "traced by the benchmark; reached once the grid reads the power sum in closed form",
    "check_sum_bounds": "traced by the benchmark; reached or removed when the trace drops it",
    "refined_upper_bound": "traced by the benchmark; reached or removed when the trace drops it",
    "shrink_failure": "runs only on a failing instance, and a clean acceptance run has none",
}


def _public_code() -> dict:
    """Each public function's code object, by its name in ``__all__`` or as
    Class.method."""
    code = {}
    for name in denumerant.__all__:
        obj = getattr(denumerant, name)
        if inspect.isfunction(obj):
            code[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("__"):
                    continue
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    code[member.__code__] = f"{name}.{attr}"
    return code


def test_every_public_function_is_reached_by_an_acceptance_run(tmp_path):
    configs = json.loads(_EXPECTED.read_text())["verify-acceptance"]
    assert len(configs) == 9
    called = set()
    # A fresh process prepares every tuple and builds every row, so nothing
    # kept by an earlier test may stand in for a call.
    _prefix_counts.cache_clear()
    bounds._sandwiches.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for argv in configs:
        sys.setprofile(profile)
        try:
            status = cli.main(argv.split() + ["--out", str(tmp_path / "report.json")])
        finally:
            sys.setprofile(None)
        assert status == 0, argv
    public = _public_code()
    # Functions, methods and properties are all mapped.
    assert {"bf_recursive", "SplitMix64.next_u64", "VerificationReport.passed"} <= set(
        public.values()
    )
    unreached = {name for code, name in public.items() if code not in called}
    assert unreached == UNREACHED.keys()
