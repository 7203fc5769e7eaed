"""The benchmark's traced runs wrap library functions by name.

A renamed or deleted target would only surface when the slow benchmark
suite runs; this reads bench/workloads.py without running anything and
checks that every hooked `owner.attr` still exists and is callable.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_hook_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    hooks = [hook for w in workloads.WORKLOADS.values() for hook in w.hooks()]
    assert hooks
    missing = [h.name for h in hooks if not callable(getattr(h.owner, h.attr, None))]
    assert missing == []


def test_the_bench_cap_record_reads_exactly_the_six_accessors():
    # bench/worker.py calls every config attribute ending in _cap with no
    # arguments and records the result; bench/compare.py refuses runs
    # whose records differ
    from gapbench import config

    names = sorted(k for k in dir(config) if k.endswith("_cap"))
    assert names == ["brute_cap", "dist_cap", "eval_cap", "naive_cap", "ryser_cap",
                     "sim_cap"]
    assert all(type(getattr(config, k)()) is int for k in names)
