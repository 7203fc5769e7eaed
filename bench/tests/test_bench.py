"""Self-tests of the benchmark: run with `python3 -m pytest bench/tests -q`.

They drive the workloads in-process on one pass of the input pool, so
they check the benchmark's own logic, not the library's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gapbench import circuits, fastcount, gapdist, permanents, poly3  # noqa: E402


def one_pass(name, seed=1, trace=0, min_items=1):
    return worker.run(name, seed, seconds=0, trace=trace, min_items=min_items)


def test_every_workload_passes_its_checks():
    for name in workloads.WORKLOADS:
        record = one_pass(name)
        assert record["attempted"] == record["pool"] > 0
        assert record["failed"] == 0, record["failures"]


def _shift(fn, delta):
    return lambda *a, **k: fn(*a, **k) + delta


@pytest.mark.parametrize("name, owner, attr, delta", [
    ("count", poly3, "gap_bruteforce", 2),
    ("sample", gapdist.GapSampler, "gaps", 2),
    ("simulate", circuits, "iqp_gap_amplitude", 1e-3),
    ("permanent", permanents, "permanent_ryser", 2),
])
def test_corrupted_result_raises_fail_frac(monkeypatch, name, owner, attr, delta):
    monkeypatch.setattr(owner, attr, _shift(getattr(owner, attr), delta))
    record = one_pass(name)
    assert record["failed"] > 0
    assert record["failures"]


def test_raising_item_counts_as_failed(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(circuits, "qaoa_acceptance", boom)
    record = one_pass("simulate")
    qaoa = sum(kind == "qaoa" for kind, _ in workloads.WORKLOADS["simulate"].inputs(1))
    assert record["failed"] == qaoa > 0
    assert len(record["latencies_ms"]) == record["attempted"] - record["failed"]


COUNTERS = {
    "count": ("poly3.points", "fastcount.blocks"),
    "sample": (),
    "simulate": ("statevector.gates",),
    "permanent": ("permanents.subsets",),
}


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_traced_counters_repeat_exactly(name):
    a = one_pass(name, seed=5, trace=1)
    b = one_pass(name, seed=5, trace=1, min_items=2 * a["pool"])  # two passes
    assert b["attempted"] == 2 * a["attempted"]
    assert b["counts"] == {k: 2 * v for k, v in a["counts"].items()}
    for metric in COUNTERS[name]:
        assert a["layers"][metric]["value"] > 0
        assert a["layers"][metric]["value"] == b["layers"][metric]["value"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_measures_exactly_its_own_layers(name):
    record = one_pass(name, trace=1)
    assert set(record["layers"]) == set(json_layer_names())
    used = set(record["layers_used"])
    assert used == {*workloads.WORKLOADS[name].LAYERS, "trace.items_per_s"}
    for metric, m in record["layers"].items():
        assert (m["value"] > 0) == (metric in used), metric


def test_workload_layers_cover_every_per_layer_metric():
    owned = [m for wl in workloads.WORKLOADS.values() for m in wl.LAYERS]
    assert len(owned) == len(set(owned))
    assert {*owned, "trace.items_per_s"} == set(json_layer_names())


def test_traced_run_fails_when_a_layer_is_gone(monkeypatch):
    monkeypatch.delattr(fastcount, "r_poly")
    with pytest.raises(AttributeError, match="fastcount.r_poly"):
        one_pass("count", trace=1)


def test_sample_digest_is_stable_and_follows_the_seed():
    first = one_pass("sample", seed=7)["digest"]
    assert one_pass("sample", seed=7)["digest"] == first
    assert one_pass("sample", seed=8)["digest"] != first


def json_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def json_layer_names():
    return [m["name"] for m in json_spec()["per_layer"]]


def test_benchmark_json_names_what_the_code_reports():
    spec = json_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (unit, _) in workloads.LAYER_METRICS.items()}
    layers["trace.items_per_s"] = "1/s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _saved(directory, caps, failed=0):
    directory.mkdir()
    full = {
        "machine": {"overrides": {}, "nproc": 2, "cpu": "x", "caches": {}, "mem_gib": 1.0},
        "seconds": 20.0,
        "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                    for m in json_spec()["end_to_end"]},
        "record": {"workload": "count", "seed": 1, "caps": caps, "failed": failed},
    }
    (directory / "count-seed1.json").write_text(json.dumps(full))
    return str(directory)


def test_compare_refuses_results_with_different_caps(tmp_path):
    base = _saved(tmp_path / "base", {"brute_cap": 28})
    same = _saved(tmp_path / "same", {"brute_cap": 28})
    other = _saved(tmp_path / "other", {"brute_cap": 20})
    wrong = _saved(tmp_path / "wrong", {"brute_cap": 28}, failed=3)
    assert compare.main([base, same]) == 0
    assert compare.main([base, other]) == 2
    assert compare.main([base, wrong]) == 2
    assert compare.main([wrong, base]) == 2
