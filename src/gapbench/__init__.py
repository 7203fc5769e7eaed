"""Gap statistics of degree-3 GF(2) polynomials, quantum circuit
encodings of the gap problem, and fine-grained qubit estimates.

Submodules
----------
poly3        polynomial type, evaluation, exact gap
transform    subset-sum (zeta) and Moebius transforms, integer and GF(2)
fastcount    mod-2^l polynomial counting of satisfying assignments
statevector  dense little-endian state vector simulator
circuits     diagonal-gate and constraint-style circuit encodings
permanents   matrix permanents, unitary dilation, photonic amplitudes
cyclecover   gap-to-permanent graph reduction
gapdist      moments and promise statistics of the gap distribution
avgcase      linear-part randomization, recursion, query harnesses
estimator    qubit counts needed to outrun a classical FLOP budget
reproduce    the headline tables regenerated and checked (import it by name)
jsoninput    the one type rule for JSON input files
cli          command-line front end
"""

from . import (
    avgcase,
    circuits,
    config,
    cyclecover,
    estimator,
    fastcount,
    gapdist,
    jsoninput,
    permanents,
    poly3,
    statevector,
    transform,
)

__all__ = [
    "avgcase",
    "circuits",
    "config",
    "cyclecover",
    "estimator",
    "fastcount",
    "gapdist",
    "jsoninput",
    "permanents",
    "poly3",
    "statevector",
    "transform",
]

__version__ = "0.1.0"
