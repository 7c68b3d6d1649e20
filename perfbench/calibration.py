"""Calibration kernels: fixed tasks that do not touch resoforge and whose
time tracks the host's speed for one workload's kind of work.

The speed of a small shared machine drifts by 15-30% over seconds, and
interpreter-bound and array-bound code respond to it differently.  Each
workload therefore has a kernel shaped like its own work: interpreter dict
and tuple work for the Lie-series and standard-form workloads, complex
exponentials on a 2^14-point grid followed by scalar evaluations (the shape
of critical_points, where certify spends most of its time) for certify, and
array products and masks (the shape of classify_batch) for cover.
"""

from __future__ import annotations

import time

import numpy as np

_TH = np.arange(16384) * (2.0 * np.pi / 16384)
_JS = np.arange(1.0, 7.0)
_CS = (0.3 + 0.1j) / _JS
_Y = np.random.default_rng(0).standard_normal((8192, 3)) * 0.4
_G = np.random.default_rng(1).standard_normal((3, 16))


def _interpreter() -> None:
    d: dict = {}
    for i in range(6000):
        key = (i & 63, i >> 6)
        d[key] = d.get(key, 0) + i * i
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(12):
        x = np.cos(x) * 0.5 + np.sqrt(x + 1.0)


def _grid() -> None:
    values = 2.0 * np.real(_CS @ np.exp(1j * np.outer(_JS, _TH)))
    t = float(values[7])
    for _ in range(30):
        val = 0j
        for j, c in zip(_JS, _CS):
            val += c * np.exp(1j * j * t)
        t += 1e-3 * val.real


def _array() -> None:
    P = np.abs(_Y @ _G)
    near = P[:, 0] < 0.2
    Q = np.abs(_Y[near] @ _G)
    Q[:, 0] = np.inf
    _ = np.all(P > 0.05, axis=1) | (Q.min(axis=1).sum() > 0)


# workload -> (kernel, its time in seconds at reference speed); "setup" is
# interpreter start and imports
KERNELS = {
    "certify": (_grid, 2.85e-3),
    "averaging": (_interpreter, 2.3e-3),
    "reduction": (_interpreter, 2.3e-3),
    "cover": (_array, 1.45e-3),
    "setup": (_interpreter, 2.3e-3),
}


def slowness(kind: str) -> float:
    """One kernel run: its time over its reference-speed time."""
    kernel, ref = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / ref
