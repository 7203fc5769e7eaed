#!/usr/bin/env python3
"""How many qubits put a sampling experiment beyond a century of classical
compute, assuming the fine-grained hardness constants."""

from gapbench import estimator as es

print("century of 1e18 FLOPS, default constants:")
for model in es.MODELS:
    e = es.estimate(es.EstimateParams(model))
    print(f"  {model:10s} q = {e.q:3d}  elements = "
          f"{es.display_rounded(e.gates):>9s}  log2 bound = {e.log2_bound:.1f}")

print("linear-time simulators, one year per 5 circuit elements:")
for model in es.MODELS:
    e = es.estimate(es.EstimateParams(model, per_element=True))
    print(f"  {model:10s} q = {e.q:3d}  elements = {es.display_rounded(e.gates)}")

# how fragile are the counts? halving the constant doubles the qubits,
# three orders of magnitude of hardware only add a handful
w = es.conjecture_weakening(es.EstimateParams("iqp-mult"), 2, "divide-constant")
print(f"constant / 2: q {w.base.q} -> {w.weakened.q} (+{w.delta_q})")
w = es.conjecture_weakening(es.EstimateParams("iqp-mult"), 1024, "divide-prefactor")
print(f"flops * 1024: q {w.base.q} -> {w.weakened.q} (+{w.delta_q})")
w = es.conjecture_weakening(es.EstimateParams("qaoa-mult"), 1024, "divide-prefactor")
print(f"qaoa flops * 1024: q {w.base.q} -> {w.weakened.q} (+{w.delta_q})")
