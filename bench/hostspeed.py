"""How fast the host runs right now, measured by a fixed probe.

The benchmark shares a host whose speed swings by up to 2x for tens of
seconds at a time, with nothing of it visible from inside (no steal
time, no other load), so a run's median follows the host.  Each op is
therefore timed between two runs of ``probe``, a fixed mix of the kinds
of work the program does (an arithmetic loop, small objects, dicts and
arrays, many 8 x 8 ``eigh`` calls, a few 64 x 64 ones) that shares no
code with specscale, and its time is scaled to the reference speed, at
which the probe takes ``REFERENCE_S``.  Set-up is a cold start in a
fresh interpreter, so each set-up is timed between two runs of
``cold_probe``, a fresh interpreter that imports numpy, and scaled to the
speed at which that takes ``COLD_REFERENCE_S``.

On a 2-vCPU Intel Xeon VM, ten 32 s runs per workload with ten seeds
(spread = quartile distance over median): the median pass time spread
0.13-0.17 raw and 0.02-0.05 scaled, the per-command times 0.09-0.25 raw
and 0.04-0.11 scaled.  34 set-ups in 100 s spread 0.19 raw and 0.14
scaled; medians of five consecutive ones ranged over 1.15-1.58 s raw and
within 11% scaled.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Probe times on a 2-vCPU Intel Xeon VM at 2.1 GHz when the host is quiet.
REFERENCE_S = 0.0045
COLD_REFERENCE_S = 0.17

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 8))
_SMALL = _SMALL + _SMALL.T
_LARGE = _rng.standard_normal((64, 64))
_LARGE = _LARGE + _LARGE.T
# Bound now, so the tracer's patch of numpy.linalg.eigh never sees the probe.
_eigh = np.linalg.eigh


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def total(self):
        return self.a + self.b


def probe():
    """Seconds one run of the fixed probe takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    table = {}
    for i in range(3000):
        pair = _Pair(i, float(i))
        table[i % 97] = pair.total()
        row = np.zeros(2)
        row[0] = pair.a
    for _ in range(100):
        _eigh(_SMALL)
    for _ in range(2):
        _eigh(_LARGE)
    return time.perf_counter() - start


def cold_probe():
    """Seconds a fresh interpreter takes to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - start


def scaled(seconds, probe_before, probe_after, reference=REFERENCE_S):
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * reference / (0.5 * (probe_before + probe_after))
