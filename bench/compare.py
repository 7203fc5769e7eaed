"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py bench/results/<base-commit> bench/results/<new-commit>

Each directory holds the records run.py saved; traced records are
skipped. For every workload present on both sides it prints each
end-to-end metric's median per side and how far the new median is worse
than the base median, as a share of the base median, against the
metric's bound. It refuses (exit 2) to compare records whose caps,
GAPBENCH_* overrides, machine or run length differ, because their
numbers would not measure the same work on the same hardware, and
records with failed items, because wrong or raising items still count
in the timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(Path(directory).glob("*.json"))
        if not p.stem.endswith("-trace")
    ]


def conditions(full: dict) -> str:
    """What must agree between two records for their numbers to compare."""
    m = full["machine"]
    return json.dumps({
        "caps": full["record"]["caps"],
        "overrides": m["overrides"],
        "machine": [m["nproc"], m["cpu"], m["caches"], m["mem_gib"]],
        "seconds": full["seconds"],
    }, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    a = ap.parse_args(argv)
    base, new = load(a.base), load(a.new)
    if not base or not new:
        print("error: each side needs at least one untraced record", file=sys.stderr)
        return 2
    failed = [(side, r["record"]["workload"], r["record"].get("seed"), r["record"]["failed"])
              for side, records in (("base", base), ("new", new)) for r in records
              if r["record"]["failed"]]
    if failed:
        print("refusing to compare: results with failed items:", file=sys.stderr)
        for side, wl, seed, k in failed:
            print(f"  {side} {wl} seed {seed}: {k} failed", file=sys.stderr)
        return 2
    seen = {conditions(r) for r in base + new}
    if len(seen) > 1:
        print("refusing to compare: caps, overrides, machine or run length differ:",
              file=sys.stderr)
        for c in sorted(seen):
            print("  " + c, file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = sorted({r["record"]["workload"] for r in base}
                       & {r["record"]["workload"] for r in new})
    for wl in workloads:
        for m in spec:
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in base if r["record"]["workload"] == wl)
            n = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in new if r["record"]["workload"] == wl)
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "worse than bound" if worse > m["bound"] else "within bound"
            print(f"{wl:<10} {m['name']:<12} base {b:12.6g} new {n:12.6g} {m['unit']:<4} "
                  f"worse by {worse:+.3f} (bound {m['bound']}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
