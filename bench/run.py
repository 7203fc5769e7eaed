"""gapbench benchmark: seeded workloads, each in its own process.

    python3 bench/run.py --workload count --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all   # count, sample, simulate, permanent

Run from anywhere inside a checkout; the library is imported from the
checkout's src/. Each workload runs in a fresh worker process (worker.py)
with OMP, OpenBLAS and MKL limited to one thread, one worker at a time,
so peak_rss_mb is that workload's alone and no more workers run than
there are cores. Set-up is timed in the worker and in SETUP_PROBES more
fresh processes; setup_s is their median.

Prints the machine, the caps in force, one line per metric with its unit
and sample count, and as the last line one JSON object: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The full
record, spans included, goes to bench/results/<commit>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("count", "sample", "simulate", "permanent")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def describe_machine(root: Path) -> dict:
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(idx / "type") != "Instruction":
            caches[f"L{_read(idx / 'level')}"] = _read(idx / "size")
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "mem_gib": round(mem / 2**30, 2),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "overrides": {k: v for k, v in sorted(os.environ.items()) if k.startswith("GAPBENCH_")},
    }


def worker(env: dict, *args: str) -> dict:
    """Run worker.py to completion and return its JSON record."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"worker printed no record: {proc.stdout[-2000:]!r}") from None


def end_to_end(record: dict, setups: list[float]) -> dict:
    lat = record["latencies_ms"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / record["loop_s"],
        "item_ms_p50": deciles[4],
        "item_ms_p90": deciles[8],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def report(name: str, record: dict, metrics: dict, setups: list[float]) -> None:
    lat = record["latencies_ms"]
    n, att = len(lat), record["attempted"]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "items_per_s": f"{n} items in {record['loop_s']:.3f} s",
        "item_ms_p50": f"n={n}",
        "item_ms_p90": f"n={n}, {sum(x > metrics['item_ms_p90']['value'] for x in lat)} beyond"
        if "item_ms_p90" in metrics else "",
    }
    for key in set(metrics) - set(record.get("layers_used", metrics)):
        notes[key] = "not used by this workload"
    print(f"{name:<10} seed={record['seed']} pool={record['pool']} "
          f"passes={att // record['pool']} attempted={att}")
    for key, m in metrics.items():
        print(f"{name:<10} {key:<38} {m['value']:>14.6g} {m['unit']:<6} {notes.get(key, '')}")
    print(f"{name:<10} {'fail_frac':<38} {record['failed'] / att:>14.6g} {'':<6} "
          f"{record['failed']} of {att} failed")
    for reason in record["failures"]:
        print(f"{name:<10} failure: {reason}")
    if "digest" in record:
        print(f"{name:<10} gap stream digest {record['digest']}")


def save(machine: dict, record: dict, metrics: dict, setups: list[float], seconds: float) -> None:
    out = BENCH / "results" / (machine["commit"] or "unknown")[:12]
    out.mkdir(parents=True, exist_ok=True)
    trace = "-trace" if "layers" in record else ""
    path = out / f"{record['workload']}-seed{record['seed']}{trace}.json"
    full = {"machine": machine, "seconds": seconds, "setups_s": setups,
            "metrics": metrics, "record": record}
    path.write_text(json.dumps(full, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    src = ROOT / "src"
    if not (src / "gapbench" / "__init__.py").is_file():
        print(f"error: no gapbench sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    machine = describe_machine(ROOT)

    names = WORKLOADS if a.workload == "all" else (a.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            args = ["--workload", name, "--seed", str(a.seed), "--seconds", str(a.seconds),
                    "--trace", str(a.trace)]
            record = worker(env, *args)
            if a.trace:
                setups, metrics = [record["setup_s"]], record["layers"]
            else:
                setups = [record["setup_s"]] + [
                    worker(env, "--workload", name, "--seed", str(a.seed), "--setup-only")["setup_s"]
                    for _ in range(SETUP_PROBES)
                ]
                metrics = end_to_end(record, setups)
            machine["numpy"] = record["numpy"]
            if name == names[0]:
                print("machine   ", json.dumps(machine))
                print("caps      ", json.dumps(record["caps"]))
            report(name, record, metrics, setups)
            save(machine, record, metrics, setups, a.seconds)
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
