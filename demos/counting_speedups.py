#!/usr/bin/env python3
"""Counting ones of a degree-3 polynomial faster than brute force."""

import time

import numpy as np

from gapbench import fastcount, poly3

rng = np.random.default_rng(1)
n = 16
f = poly3.random_poly(n, rng)

t0 = time.perf_counter()
brute = ((1 << n) - poly3.gap_bruteforce(f)) // 2
t_brute = time.perf_counter() - t0

# the speedup trades t free variables against a degree-3t interpolation;
# the count is exact either way
for t in (1, 2, 3, 4):
    t0 = time.perf_counter()
    ones = fastcount.count_ones_lptwy(f, t)
    dt = time.perf_counter() - t0
    assert ones == brute
    print(f"t={t}: ones = {ones}  ({dt * 1e3:.1f} ms)")
print(f"brute force: ones = {brute}  ({t_brute * 1e3:.1f} ms)")
print("gap =", 2 ** n - 2 * brute)

# the evaluation-domain polynomial behind the speedup
r = fastcount.r_poly(f, 2)
print("r_poly over", n - 2, "remaining variables, degree <=", 6)

# monomial budget: the interpolation stays cheap only when delta is small
# relative to n, so desk-scale n fails the check and large n passes it
for nn, d in ((16, 0.1), (100_000, 0.001)):
    check = fastcount.monomial_bound_check(nn, delta=d)
    print(f"n={nn} delta={d}: bound holds = {check.holds}"
          f"  (log2 m = {check.m_log2:.1f},"
          f" threshold = {check.threshold_log2:.1f})")
