"""One workload in one process: set up, run the timed loop, check, report.

    python3 bench/worker.py --workload count --seed 1 --seconds 25 --trace 0

run.py starts this with the checkout's src/ on PYTHONPATH and the
numeric libraries limited to one thread. The loop is closed: the next
item starts only after the previous one returned. It walks the input
pool in whole passes until --seconds have gone by and at least
MIN_ITEMS items are done, so every pool entry weighs the same in
every percentile and every counter. Prints one JSON record.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass

from spans import Tracer

MIN_ITEMS = 100  # at least 10 items beyond p90


@dataclass
class Item:
    index: int  # position in the input pool
    seconds: float
    result: object
    error: str | None


def measure(wl, state, pool, seconds, min_items, tracer=None):
    """Run whole passes over the pool; return the items and the loop time."""
    items: list[Item] = []
    start = time.perf_counter()
    while True:
        for j, inp in enumerate(pool):
            if tracer is not None:
                tracer.item = len(items)
            t0 = time.perf_counter()
            try:
                out, err = wl.call(state, inp), None
            except Exception as exc:  # a raising item is a failed item
                out, err = None, f"{type(exc).__name__}: {exc}"
            items.append(Item(j, time.perf_counter() - t0, out, err))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(items) >= min_items:
            return items, elapsed


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def verify(wl, pool, items):
    """Mark each item ok or failed; return the failures and their reasons.

    The first completed result of each pool entry is checked by the
    workload's independent route; every repeat must equal it exactly,
    since the library is deterministic.
    """
    first = {}
    for it in items:
        if it.error is None:
            first.setdefault(it.index, it.result)
    entry_ok, reasons = {}, []
    for j, res in first.items():
        try:
            entry_ok[j] = bool(wl.check(pool[j], res))
        except Exception as exc:  # a check that cannot run does not pass
            entry_ok[j] = False
            reasons.append(f"entry {j}: check raised {type(exc).__name__}: {exc}")
            continue
        if not entry_ok[j]:
            reasons.append(f"entry {j}: result disagrees with the independent route")
    failed = 0
    for it in items:
        if it.error is not None:
            reasons.append(f"item on entry {it.index} raised {it.error}")
            failed += 1
        elif not (entry_ok[it.index] and _same(it.result, first[it.index])):
            failed += 1
    return failed, reasons[:10], first


def run(name, seed, seconds, trace, min_items=MIN_ITEMS, setup_only=False):
    """Set up, measure and check one workload; return the JSON record."""
    start = time.perf_counter()
    import numpy as np  # set-up time covers the import of gapbench and numpy
    import workloads
    from gapbench import config

    wl = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    with tracer.patch(wl.hooks()) if tracer else nullcontext():
        state = wl.setup()
        setup_s = time.perf_counter() - start
        if setup_only:
            return {"setup_s": setup_s}
        pool = wl.inputs(seed)
        items, loop_s = measure(wl, state, pool, seconds, min_items, tracer)
    failed, reasons, first = verify(wl, pool, items)
    record = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "pool": len(pool),
        "attempted": len(items),
        "failed": failed,
        "failures": reasons,
        "latencies_ms": [1e3 * it.seconds for it in items if it.error is None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "caps": {k: getattr(config, k)() for k in sorted(dir(config)) if k.endswith("_cap")},
    }
    if name == "sample":
        record["digest"] = workloads.stream_digest(first[j] for j in sorted(first))
    if tracer is not None:
        record["layers"] = {
            metric: {"value": fn(tracer, len(items)), "unit": unit}
            for metric, (unit, fn) in workloads.LAYER_METRICS.items()
        }
        record["layers"]["trace.items_per_s"] = {"value": len(items) / loop_s, "unit": "1/s"}
        record["layers_used"] = [*wl.LAYERS, "trace.items_per_s"]
        record["counts"] = dict(sorted(tracer.counts.items()))
        t0 = min((s.start for s in tracer.spans), default=0.0)
        record["spans"] = [
            [s.item, s.name, s.parent, round(s.start - t0, 9), round(s.seconds, 9)]
            for s in tracer.spans
        ]
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the import and set-up, then stop")
    a = ap.parse_args()
    record = run(a.workload, a.seed, a.seconds, a.trace, setup_only=a.setup_only)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
