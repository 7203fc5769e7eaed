"""Runtime caps, environment overrides, and the one cap check.

Every exponential-cost routine in the package refuses work beyond a cap
instead of thrashing the machine, by calling `check` with its cap's
name.  Caps are read from GAPBENCH_<NAME> environment variables and
clamped to hard ceilings.  A cap bounds a size (a qubit, variable or
draw count, a dimension), not bytes, and the ceilings do not keep memory
within a desktop budget: at SIM_CAP's ceiling of 30 qubits,
`circuits.iqp_gap_amplitude` needs 24 GiB (a float64 state and its
complex128 copy, 24 B per amplitude).  An allocation that fails anyway
raises MemoryError, which the CLI turns into one error record (exit 1).
Every routine that draws a caller-given number of samples refuses it up
front with `check_sample_size`.
"""

import functools
import os


class CapExceeded(ValueError):
    """An exponential-cost routine was asked to exceed its size cap."""


_CAPS = {  # name: (default, hard ceiling)
    "BRUTE_CAP": (28, 32),  # gap_bruteforce variable count
    "EVAL_CAP": (26, 30),   # eval_all / counting variable count
    "SIM_CAP": (26, 30),    # statevector qubit count
    "DIST_CAP": (24, 28),   # 2^n-entry outputs and draw counts: distributions, samplers,
                            # certificates
    "NAIVE_CAP": (10, 12),  # permanent_naive dimension
    "RYSER_CAP": (30, 34),  # permanent_ryser dimension
}


def cap(name: str) -> int:
    """The cap `name` in force: GAPBENCH_<name> clamped to its ceiling,
    or the default when the variable is unset."""
    default, hard = _CAPS[name]
    raw = os.environ.get("GAPBENCH_" + name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GAPBENCH_{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"GAPBENCH_{name} must be positive, got {value}")
    return min(value, hard)


def check(name: str, value: int, label: str) -> None:
    """Refuse `value` above the cap `name`; `label` names the routine and quantity."""
    limit = cap(name)
    if value > limit:
        raise CapExceeded(f"{label} = {value} exceeds cap {limit}")


def check_sample_size(size: int, label: str) -> None:
    """Refuse more draws than a 2^n-entry output may hold under the
    distribution cap, before anything is allocated for them."""
    limit = cap("DIST_CAP")
    if size > 1 << limit:
        raise CapExceeded(f"{label} = {size} exceeds cap 2^{limit}")


# bench/worker.py records the caps in force by calling every attribute
# whose name ends in _cap, so each cap keeps one such alias: brute_cap, ...
for _name in _CAPS:
    globals()[_name.lower()] = functools.partial(cap, _name)
del _name
