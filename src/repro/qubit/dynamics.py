"""Pulse-envelope to unitary integration.

In the qubit rotating frame the drive Hamiltonian during one 1 ns sample
with complex drive d is ``H = (kappa/2) * (Re(d) X + Im(d) Y) + pi*delta*Z``
(delta the drive-qubit detuning), so the per-sample propagator is a
closed-form SU(2) rotation; the pulse unitary is their ordered product.

The absolute trigger time enters only through the constant SSB carrier
phase (see :func:`repro.pulse.modulation.ssb_phase`), so unitaries are
cached per (waveform, phase, detuning) — with a 50 MHz SSB and 5 ns cycle
there are only four distinct phases, making million-round experiments
cheap.
"""

from __future__ import annotations

import numpy as np

from repro.pulse.waveform import Waveform


def integrate_envelope(samples: np.ndarray, kappa: float, phase0: float = 0.0,
                       detuning_hz: float = 0.0) -> np.ndarray:
    """Ordered product of per-sample SU(2) rotations (dt = 1 ns).

    ``kappa`` is the drive strength in rad/ns per unit amplitude;
    ``phase0`` the constant carrier phase (rad); ``detuning_hz`` the
    drive-qubit frequency mismatch.

    All per-sample rotations are built in one numpy pass (a stack of
    2x2 matrices) and reduced with a log-depth pairwise product instead
    of a per-sample Python loop — ~3x faster on a 20 ns gaussian pulse
    (see bench_microbenchmarks.py::test_perf_integrate_envelope).
    """
    drive = np.asarray(samples, dtype=complex) * np.exp(1j * phase0)
    wz = 2.0 * np.pi * detuning_hz * 1e-9  # rad per ns about z
    wx = kappa * drive.real
    wy = kappa * drive.imag
    theta = np.sqrt(wx * wx + wy * wy + wz * wz)
    active = theta != 0.0
    if not active.any():
        return np.eye(2, dtype=complex)
    wx, wy, theta = wx[active], wy[active], theta[active]
    nx, ny, nz = wx / theta, wy / theta, wz / theta
    # Renormalize the axis exactly as the scalar su2_rotation helper does,
    # so each per-sample matrix matches the loop version bit-for-bit (the
    # pairwise reduction below still reassociates the product, changing
    # the result at the ~1e-16 level).
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    mats = np.empty((len(theta), 2, 2), dtype=complex)
    mats[:, 0, 0] = c - 1j * nz * s
    mats[:, 0, 1] = (-1j * nx - ny) * s
    mats[:, 1, 0] = (-1j * nx + ny) * s
    mats[:, 1, 1] = c + 1j * nz * s
    # Ordered product U = M[n-1] @ ... @ M[1] @ M[0], reduced pairwise:
    # each pass multiplies adjacent pairs (later @ earlier), halving the
    # stack; an odd trailing matrix (the latest in time) stays at the end.
    while len(mats) > 1:
        paired = mats[1::2] @ mats[0:len(mats) - 1:2]
        if len(mats) % 2:
            mats = np.concatenate([paired, mats[-1:]])
        else:
            mats = paired
    return mats[0]


class PulseUnitaryCache:
    """Memoizes :func:`integrate_envelope` keyed on waveform + phase.

    Keys use the waveform object identity plus a content hash, so a
    re-uploaded LUT entry with different samples never aliases a stale
    unitary.
    """

    def __init__(self, kappa: float, detuning_hz: float = 0.0,
                 enabled: bool = True):
        self.kappa = kappa
        self.detuning_hz = detuning_hz
        self.enabled = enabled  #: set False to measure uncached cost
        self._cache: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def unitary(self, waveform: Waveform, phase0: float) -> np.ndarray:
        if not self.enabled:
            self.misses += 1
            return integrate_envelope(waveform.samples, self.kappa, phase0,
                                      self.detuning_hz)
        key = (id(waveform), waveform.content_hash,
               round(phase0, 12), self.kappa, self.detuning_hz)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        u = integrate_envelope(waveform.samples, self.kappa, phase0, self.detuning_hz)
        self._cache[key] = u
        return u

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0
