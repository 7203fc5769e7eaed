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
