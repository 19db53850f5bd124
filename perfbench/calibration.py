"""Machine speed, measured in the run by kernels that never call bulkio.

The machine the benchmark was tuned on shares its cores with other
tenants, and the speed of its fast phase drifts by 10-20% from one minute
to the next. A run's raw rates move with that drift, the per-event paths
most. So the run also times three program-free kernels, interleaved with
the read paths and the writer, and states each end-to-end rate at a fixed
reference speed: raw rate over :func:`speed`.

- ``py``: a Python loop turning numpy float32 elements into floats and
  adding them (interpreter dispatch, as in the per-event scalar paths);
- ``py-np``: a Python loop calling ``np.sum(a, dtype=f8)`` on arrays of 0
  to 7 int32 elements (as the per-event var-array paths do);
- ``np``: byteswap of 32 KiB of big-endian float32 into a new native array
  and a float64 sum (as the bulk paths do per basket).

``speed`` is the geometric mean of each kernel's rate over its reference
rate, the median rate on the tuning machine (2 vCPU, Python 3.11.7, numpy
2.4.6). No program change can move it.
"""

from __future__ import annotations

import math

import numpy as np

PY_ITEMS = 4096
PY_NP_ITEMS = 1024
NP_VALUES = 8192
PIECES = 2
NP_PIECES = 8
# Reference rates: items/s, items/s, blocks/s.
REFERENCE = {"py": 1.0e7, "py-np": 3.75e5, "np": 9.0e4}


def kernels(seed: int):
    """One calibration pass, shaped like the writer's: yields ``None``, then
    ``(kernel, units)`` after each timed piece; returns ``(total, {})``."""
    rng = np.random.default_rng(seed)
    items = rng.integers(0, 1 << 24, PY_ITEMS).astype("f4")
    arrays = [rng.integers(0, 1 << 24, k).astype("i4")
              for k in rng.integers(0, 8, PY_NP_ITEMS)]
    block = rng.integers(0, 1 << 24, NP_VALUES).astype(">f4").tobytes()
    npsum, f8 = np.sum, np.float64
    yield None
    total = 0.0
    for _ in range(PIECES):
        for i in range(PY_ITEMS):
            total += float(items[i])
        yield "py", PY_ITEMS
    for _ in range(PIECES):
        for a in arrays:
            total += float(npsum(a, dtype=f8))
        yield "py-np", PY_NP_ITEMS
    for _ in range(NP_PIECES):
        values = np.frombuffer(block, dtype=">f4").astype("f4")
        total += float(npsum(values, dtype=f8))
        yield "np", 1
    return total, {}


def speed(rates: dict) -> float:
    """Geometric mean of ``rates[kernel] / REFERENCE[kernel]``; 0.0 when a
    kernel has no rate."""
    if any(rates.get(k, 0.0) <= 0 for k in REFERENCE):
        return 0.0
    return math.prod(rates[k] / ref for k, ref in REFERENCE.items()) ** (1 / len(REFERENCE))
