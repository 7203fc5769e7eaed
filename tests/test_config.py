"""The one cap check, and the import layering it makes possible."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gapbench import avgcase, circuits, fastcount, permanents, poly3, statevector
from gapbench.config import CapExceeded

SRC = Path(__file__).resolve().parents[1] / "src" / "gapbench"


@pytest.mark.parametrize("env, call, message", [
    ("BRUTE_CAP=12", lambda: poly3.gap_bruteforce(poly3.Poly3(n=20)),
     "gap_bruteforce: n = 20 exceeds cap 12"),
    ("EVAL_CAP=9", lambda: fastcount.eval_all(fastcount.from_values(10, 2, np.zeros(1 << 10))),
     "eval_all: m = 10 exceeds cap 9"),
    ("SIM_CAP=6", lambda: statevector.run(statevector.Circuit(q=8)),
     "run: q = 8 exceeds cap 6"),
    ("DIST_CAP=4", lambda: statevector.full_distribution(statevector.zero_state(6)),
     "full_distribution: q = 6 exceeds cap 4"),
    ("DIST_CAP=6", lambda: circuits.class_distribution(poly3.Poly3(n=7)),
     "class_distribution: n = 7 exceeds cap 6"),
    ("NAIVE_CAP=3", lambda: permanents.permanent_naive(np.zeros((4, 4), dtype=np.int64)),
     "permanent_naive: d = 4 exceeds cap 3"),
    ("RYSER_CAP=7", lambda: permanents.permanent_ryser(np.zeros((8, 8), dtype=np.int64)),
     "permanent_ryser: d = 8 exceeds cap 7"),
    ("DIST_CAP=1", lambda: avgcase.find_certificate(poly3.Poly3.from_terms(2, [(0,)])),
     "find_certificate: n = 2 exceeds cap 1"),
    ("DIST_CAP=6", lambda: poly3.truth_table(poly3.Poly3(n=7)),
     "truth_table: n = 7 exceeds cap 6"),
])
def test_every_capped_routine_reads_its_cap_from_the_environment(monkeypatch, env, call,
                                                                 message):
    name, value = env.split("=")
    monkeypatch.setenv("GAPBENCH_" + name, value)
    with pytest.raises(CapExceeded) as info:
        call()
    assert str(info.value) == message


def _import_parts(path):
    """Every dotted part of every module and name that `path` imports."""
    parts = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(p for a in node.names for p in a.name.split("."))
    return parts


@pytest.mark.parametrize("module", ["statevector", "permanents"])
def test_simulator_and_permanents_stay_independent_of_the_gap_kernels(module):
    # they are the independent routes that the property tests compare with
    # brute force, so they must not reach the truth-table code
    assert not {"poly3", "transform"} & _import_parts(SRC / f"{module}.py")
