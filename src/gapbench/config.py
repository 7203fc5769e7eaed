"""Runtime caps, environment overrides, and the one cap check.

Every exponential-cost routine in the package refuses work beyond a cap
instead of thrashing the machine, by calling `check` with its cap's
name.  Caps are read from GAPBENCH_<NAME> environment variables and
clamped to hard ceilings chosen so memory use stays within a desktop
budget.
"""

import os


class CapExceeded(ValueError):
    """An exponential-cost routine was asked to exceed its size cap."""


_HARD = {
    "BRUTE_CAP": 32,   # gap_bruteforce variable count
    "EVAL_CAP": 30,    # eval_all / counting variable count
    "SIM_CAP": 30,     # statevector qubit count
    "DIST_CAP": 28,    # 2^n-entry outputs: distributions, samplers, certificates
    "NAIVE_CAP": 12,   # permanent_naive dimension
    "RYSER_CAP": 34,   # permanent_ryser dimension
}

_DEFAULT = {
    "BRUTE_CAP": 28,
    "EVAL_CAP": 26,
    "SIM_CAP": 26,
    "DIST_CAP": 24,
    "NAIVE_CAP": 10,
    "RYSER_CAP": 30,
}


def _read(name):
    raw = os.environ.get("GAPBENCH_" + name)
    if raw is None:
        return _DEFAULT[name]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GAPBENCH_{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"GAPBENCH_{name} must be positive, got {value}")
    return min(value, _HARD[name])


def check(name: str, value: int, label: str) -> None:
    """Refuse `value` above the cap `name`; `label` names the routine and quantity."""
    limit = _read(name)
    if value > limit:
        raise CapExceeded(f"{label} = {value} exceeds cap {limit}")


def brute_cap() -> int:
    return _read("BRUTE_CAP")


def eval_cap() -> int:
    return _read("EVAL_CAP")


def sim_cap() -> int:
    return _read("SIM_CAP")


def dist_cap() -> int:
    return _read("DIST_CAP")


def naive_cap() -> int:
    return _read("NAIVE_CAP")


def ryser_cap() -> int:
    return _read("RYSER_CAP")

