"""The four benchmark workloads and the per-layer metrics of a traced run.

A workload generates a pool of inputs from its seed, makes one library
call chain per item (`call`, the timed part), and checks a result by an
independent route (`check`, run after the timed loop). `LAYERS` names
the per-layer metrics the workload exercises. Importing this
module imports numpy and gapbench, so the worker times the import as
part of set-up.

Each layer does most of the work in one workload and almost none in the
others; README.md in this directory tabulates that coupling.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gapbench import circuits, cyclecover, fastcount, gapdist, permanents, poly3
from spans import Hook


class Count:
    """Brute-force gap and LPTWY count of one dense cubic per item."""

    name = "count"
    SIZES = (14, 16, 18)
    FREE = (1, 2, 3, 4)
    CYCLES = 2  # every (n, t) pair twice per pool
    # the per-layer metrics this workload exercises; the others read 0
    LAYERS = ("poly3.gap_bruteforce.s", "poly3.points", "poly3.points_per_s",
              "fastcount.count_ones_lptwy.s", "fastcount.r_poly.s", "fastcount.eval_all.s",
              "fastcount.blocks")

    def setup(self):
        return None

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        size = len(self.SIZES) * len(self.FREE) * self.CYCLES
        return [
            (poly3.random_poly(self.SIZES[i % len(self.SIZES)], rng),
             self.FREE[i % len(self.FREE)])
            for i in range(size)
        ]

    def call(self, state, inp):
        f, t = inp
        return poly3.gap_bruteforce(f), fastcount.count_ones_lptwy(f, t)

    def check(self, inp, result) -> bool:
        f, _ = inp
        gap, ones = result
        return 2 * ones == (1 << f.n) - gap

    def hooks(self) -> list[Hook]:
        return [
            Hook(poly3, "gap_bruteforce", "poly3.gap_bruteforce",
                 lambda f, *a, **k: {"poly3.points": 1 << f.n}),
            Hook(fastcount, "count_ones_lptwy", "fastcount.count_ones_lptwy",
                 lambda f, t, *a, **k: {"fastcount.blocks": 1 << t}),
            Hook(fastcount, "r_poly", "fastcount.r_poly"),
            Hook(fastcount, "eval_all", "fastcount.eval_all"),
        ]


def _seed_contract_masks(seed: int, samples: int, term_count: int) -> np.ndarray:
    # GapSampler.gaps draws each shard of up to 4096 samples from its own
    # SeedSequence child, one uniform 0/1 row per sample over all monomials
    shards = -(-samples // 4096)
    rows = [
        np.random.default_rng(child).integers(
            0, 2, size=(min(4096, samples - 4096 * i), term_count), dtype=np.uint8)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(shards))
    ]
    return np.concatenate(rows).astype(bool)


class Sample:
    """One batch of 250 sampled gaps at n=16 per item, one sampler per process."""

    name = "sample"
    N = 16
    BATCH = 250
    POOL = 8
    SUBSAMPLE = (0, 83, 166, 249)  # samples per batch checked by brute force
    LAYERS = ("gapdist.GapSampler.init_s", "gapdist.gaps.s", "gapdist.samples_per_s")

    def setup(self):
        return gapdist.GapSampler(self.N)

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**63, size=self.POOL)]

    def call(self, sampler, seed):
        return sampler.gaps(self.BATCH, seed)

    def check(self, seed, gaps) -> bool:
        if gaps.shape != (self.BATCH,):
            return False
        terms = poly3.all_terms(self.N)
        masks = _seed_contract_masks(seed, self.BATCH, len(terms))
        for i in self.SUBSAMPLE:
            f = poly3.Poly3.from_terms(self.N, [t for t, k in zip(terms, masks[i]) if k])
            if poly3.gap_bruteforce(f) != gaps[i]:
                return False
        return True

    def hooks(self) -> list[Hook]:
        return [
            Hook(gapdist.GapSampler, "__init__", "gapdist.GapSampler"),
            Hook(gapdist.GapSampler, "gaps", "gapdist.gaps",
                 lambda self, samples, seed: {"gapdist.samples": samples}),
        ]


def stream_digest(gap_batches) -> str:
    """Hex digest of the gap stream, batches in pool order."""
    h = hashlib.sha256()
    for gaps in gap_batches:
        h.update(np.asarray(gaps, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


class Simulate:
    """IQP gap amplitude or QAOA acceptance probability of one dense cubic."""

    name = "simulate"
    # qaoa: q = 2n. IQP at n=16 comes twice so that the median item falls
    # inside one shape's group of latencies, not between two groups.
    SHAPES = (("iqp", 16), ("iqp", 16), ("iqp", 18), ("qaoa", 8), ("qaoa", 9))
    CYCLES = 2
    LAYERS = ("circuits.build_iqp.s", "circuits.build_qaoa.s", "statevector.run.iqp.s",
              "statevector.run.qaoa.s", "statevector.gates", "statevector.amp_visits_per_s")

    def setup(self):
        return None

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [(kind, poly3.random_poly(n, rng)) for kind, n in self.SHAPES * self.CYCLES]

    def call(self, state, inp):
        kind, f = inp
        if kind == "iqp":
            return circuits.iqp_gap_amplitude(f)
        return circuits.qaoa_acceptance(f)

    def check(self, inp, result) -> bool:
        kind, f = inp
        gap = poly3.gap_bruteforce(f)
        if kind == "iqp":
            return abs(result * 2**f.n - gap) <= 1e-6
        return abs(result * 8**f.n - gap**2) <= 1e-6 * max(1, gap**2)

    def hooks(self) -> list[Hook]:
        return [
            Hook(circuits, "iqp_gap_amplitude", "circuits.iqp_gap_amplitude"),
            Hook(circuits, "qaoa_acceptance", "circuits.qaoa_acceptance"),
            Hook(circuits, "build_iqp", "circuits.build_iqp"),
            Hook(circuits, "build_qaoa", "circuits.build_qaoa"),
            Hook(circuits, "qaoa_to_circuit", "circuits.qaoa_to_circuit"),
            Hook(circuits, "run", "statevector.run",
                 lambda c, *a, **k: {"statevector.gates": len(c.gates),
                                     "statevector.amp_visits": len(c.gates) << c.q}),
        ]


def laplace_permanent(a: np.ndarray) -> tuple[complex, float]:
    """Per(A) by expansion along row 0, minors by Ryser.

    Also returns the sum of the absolute values of the terms, the scale
    against which rounding error is judged.
    """
    d = a.shape[0]
    total, scale = 0j, 0.0
    for j in range(d):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        term = a[0, j] * permanents.permanent_ryser(minor)
        total += term
        scale += abs(term)
    return total, scale


class Permanent:
    """Cycle-cover reduction (integer Ryser) or a complex Ryser permanent."""

    name = "permanent"
    # one reduction of each size, each followed by a complex d=16 and d=18
    SHAPES = tuple(
        shape for n in (1, 2, 3, 4)
        for shape in (("reduce", n), ("ryser", 16), ("ryser", 18))
    )
    LAYERS = ("cyclecover.build_graph.s", "permanents.permanent_ryser.int.s",
              "permanents.permanent_ryser.complex.s", "permanents.subsets",
              "permanents.subsets_per_s")

    def setup(self):
        return None

    def inputs(self, seed: int) -> list:
        """(kind, input, checked): complex entries with checked=True are
        verified by Laplace expansion, the first one of each size."""
        rng = np.random.default_rng(seed)
        pool, seen = [], set()
        for kind, size in self.SHAPES:
            if kind == "reduce":
                terms = poly3.all_terms(size)
                term = terms[rng.integers(len(terms))]
                pool.append((kind, poly3.Poly3.from_terms(size, [term]), True))
            else:
                g = rng.standard_normal((size, size, 2)) / math.sqrt(2)
                pool.append((kind, g[..., 0] + 1j * g[..., 1], size not in seen))
                seen.add(size)
        return pool

    def call(self, state, inp):
        kind, x, _ = inp
        if kind == "reduce":
            return cyclecover.verify_reduction(x)
        return permanents.permanent_ryser(x)

    def check(self, inp, result) -> bool:
        kind, x, checked = inp
        if kind == "reduce":
            return bool(result.ok)
        if not checked:
            return bool(np.isfinite(result))
        value, scale = laplace_permanent(x)
        return abs(result - value) <= 1e-9 * scale

    def hooks(self) -> list[Hook]:
        subsets = lambda a, *args, **k: {"permanents.subsets": 1 << len(a)}  # noqa: E731
        return [
            Hook(cyclecover, "verify_reduction", "cyclecover.verify_reduction"),
            Hook(cyclecover, "build_graph", "cyclecover.build_graph"),
            # the reduction's matrices are int64, the direct calls complex
            Hook(cyclecover, "permanent_ryser", "permanents.permanent_ryser.int", subsets),
            Hook(permanents, "permanent_ryser", "permanents.permanent_ryser.complex", subsets),
        ]


WORKLOADS = {w.name: w for w in (Count(), Sample(), Simulate(), Permanent())}


def _rate(tr, counter: str, *spans: str) -> float:
    busy = sum(tr.total_s(s) for s in spans)
    return tr.counts.get(counter, 0) / busy if busy else 0.0


def _per_item(tr, counter: str, items: int) -> float:
    return tr.counts.get(counter, 0) / items


# name: (unit, value from the tracer and the item count). Every traced run
# reports all of them; a layer outside the workload's LAYERS reads 0.
LAYER_METRICS = {
    "poly3.gap_bruteforce.s": ("s", lambda tr, n: tr.mean_s("poly3.gap_bruteforce")),
    "poly3.points": ("count", lambda tr, n: _per_item(tr, "poly3.points", n)),
    "poly3.points_per_s": ("1/s", lambda tr, n: _rate(tr, "poly3.points", "poly3.gap_bruteforce")),
    "fastcount.count_ones_lptwy.s": ("s", lambda tr, n: tr.mean_s("fastcount.count_ones_lptwy")),
    "fastcount.r_poly.s": ("s", lambda tr, n: tr.mean_s("fastcount.r_poly")),
    "fastcount.eval_all.s": ("s", lambda tr, n: tr.mean_s("fastcount.eval_all")),
    "fastcount.blocks": ("count", lambda tr, n: _per_item(tr, "fastcount.blocks", n)),
    "gapdist.GapSampler.init_s": ("s", lambda tr, n: tr.mean_s("gapdist.GapSampler")),
    "gapdist.gaps.s": ("s", lambda tr, n: tr.mean_s("gapdist.gaps")),
    "gapdist.samples_per_s": ("1/s", lambda tr, n: _rate(tr, "gapdist.samples", "gapdist.gaps")),
    "circuits.build_iqp.s": ("s", lambda tr, n: tr.mean_s("circuits.build_iqp")),
    "circuits.build_qaoa.s": ("s", lambda tr, n: (
        tr.mean_s("circuits.build_qaoa") + tr.mean_s("circuits.qaoa_to_circuit"))),
    "statevector.run.iqp.s": ("s", lambda tr, n: tr.mean_s(
        "statevector.run", parent="circuits.iqp_gap_amplitude")),
    "statevector.run.qaoa.s": ("s", lambda tr, n: tr.mean_s(
        "statevector.run", parent="circuits.qaoa_acceptance")),
    "statevector.gates": ("count", lambda tr, n: _per_item(tr, "statevector.gates", n)),
    "statevector.amp_visits_per_s": ("1/s", lambda tr, n: _rate(
        tr, "statevector.amp_visits", "statevector.run")),
    "cyclecover.build_graph.s": ("s", lambda tr, n: tr.mean_s("cyclecover.build_graph")),
    "permanents.permanent_ryser.int.s": ("s", lambda tr, n: tr.mean_s(
        "permanents.permanent_ryser.int")),
    "permanents.permanent_ryser.complex.s": ("s", lambda tr, n: tr.mean_s(
        "permanents.permanent_ryser.complex")),
    "permanents.subsets": ("count", lambda tr, n: _per_item(tr, "permanents.subsets", n)),
    "permanents.subsets_per_s": ("1/s", lambda tr, n: _rate(
        tr, "permanents.subsets", "permanents.permanent_ryser.int",
        "permanents.permanent_ryser.complex")),
}
