"""Dispersive readout signal model.

The readout resonator's transmission depends on the qubit state
(Section 2.2): we synthesize the post-demodulation feedline signal at the
40 MHz intermediate frequency with state-dependent amplitude and phase, an
exponential ring-up, and additive Gaussian noise.  Absolute time keeps the
IF phase coherent with the global clock, as the hardware local oscillator
does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class ReadoutParams:
    """Parameters of one qubit's readout chain."""

    #: Intermediate frequency after demodulation (Hz).  Paper: 40 MHz.
    f_if_hz: float = 40e6
    #: Transmission amplitude with the qubit in |0> / |1> (ADC full-scale units).
    amp_ground: float = 0.30
    amp_excited: float = 0.36
    #: Transmission phase with the qubit in |0> / |1> (rad).
    phase_ground: float = 0.55
    phase_excited: float = -0.55
    #: Resonator ring-up time constant (ns).
    ringup_ns: float = 120.0
    #: Per-sample additive Gaussian noise (ADC full-scale units).
    noise_std: float = 0.06

    def __post_init__(self):
        if self.f_if_hz <= 0:
            raise ConfigurationError("IF frequency must be positive")
        if self.ringup_ns <= 0:
            raise ConfigurationError("ring-up time must be positive")
        if self.noise_std < 0:
            raise ConfigurationError("noise std must be non-negative")


def transmitted_signal(params: ReadoutParams, outcome: int, duration_ns: int,
                       t0_ns: int) -> np.ndarray:
    """Deterministic (noise-free) part of the feedline record.

    Shared by the per-shot and batched trace synthesizers so both produce
    bit-identical signal samples.  The record is a pure function of its
    arguments, so it is memoized process-wide: every measurement of a
    run, the readout calibration and replay-plan builds share one array
    per content key instead of re-evaluating the window each shot.  The
    returned array is shared and read-only; callers build their own
    record from it (``signal + noise``, ``signal + 0.0``, ``np.stack``).
    """
    excited = outcome == 1
    return _signal(params.f_if_hz,
                   params.amp_excited if excited else params.amp_ground,
                   params.phase_excited if excited else params.phase_ground,
                   params.ringup_ns, int(duration_ns), float(t0_ns))


@functools.lru_cache(maxsize=64)
def _signal(f_if_hz: float, amp: float, phase: float, ringup_ns: float,
            duration_ns: int, t0_ns: float) -> np.ndarray:
    t = np.arange(duration_ns, dtype=float)
    envelope = 1.0 - np.exp(-(t + 0.5) / ringup_ns)
    carrier = np.cos(2.0 * np.pi * f_if_hz * (t + t0_ns) * 1e-9 + phase)
    signal = amp * envelope * carrier
    signal.setflags(write=False)
    return signal


def transmitted_trace(params: ReadoutParams, outcome: int, duration_ns: int,
                      t0_ns: int, rng: np.random.Generator,
                      pulse_on: bool = True) -> np.ndarray:
    """Synthesize the IF-domain feedline record for one measurement.

    ``outcome`` is the projected qubit state (0/1).  With ``pulse_on``
    False only noise is produced — the signal seen by an MD issued without
    a matching MPG.
    """
    duration_ns = int(duration_ns)
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    noise = rng.normal(0.0, params.noise_std, duration_ns) if params.noise_std else 0.0
    if not pulse_on:
        return np.zeros(duration_ns) + noise
    return transmitted_signal(params, outcome, duration_ns, t0_ns) + noise


def synthesize_trace_batch(signal_table: np.ndarray, indices: np.ndarray,
                           noise_std: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Noisy feedline records from a precomputed signal table.

    ``signal_table`` holds one deterministic record per possible signal
    index (per outcome for plain readout, per joint-outcome word for
    multiplexed readout); row ``i`` of the result is
    ``signal_table[indices[i]]`` plus one per-record noise realization.
    Noise is drawn as one ``(n_shots, duration_ns)`` block from ``rng``;
    because numpy Generators fill arrays in row-major stream order, row
    ``i`` is bit-identical to the ``i``-th sequential per-shot synthesis
    on the same generator — the property the round-replay engine's
    exact-parity guarantee rests on (IEEE addition is commutative, so
    ``noise + signal`` equals the event kernel's ``signal + noise``
    bit-for-bit).
    """
    signal_table = np.asarray(signal_table, dtype=float)
    indices = np.asarray(indices, dtype=np.intp)
    if not noise_std:
        return signal_table[indices]
    # standard_normal + in-place scale draws the identical value stream as
    # rng.normal(0, std, ...) (loc=0 fast path) with one fewer pass.
    traces = rng.standard_normal((len(indices), signal_table.shape[1]))
    traces *= noise_std
    traces += signal_table[indices]
    return traces


def transmitted_trace_batch(params: ReadoutParams, outcomes: np.ndarray,
                            duration_ns: int, t0_ns: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Synthesize feedline records for a batch of measurements at once.

    Returns an ``(n_shots, duration_ns)`` array where row ``i`` is
    bit-identical to the ``i``-th sequential :func:`transmitted_trace`
    call on the same generator (see :func:`synthesize_trace_batch`).
    """
    duration_ns = int(duration_ns)
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    signal = np.stack([transmitted_signal(params, o, duration_ns, t0_ns)
                       for o in (0, 1)])
    return synthesize_trace_batch(signal, outcomes, params.noise_std, rng)


def mean_trace(params: ReadoutParams, outcome: int, duration_ns: int,
               t0_ns: int) -> np.ndarray:
    """Noise-free expected record (used by weight-function calibration)."""
    duration_ns = int(duration_ns)
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    return transmitted_signal(params, outcome, duration_ns, t0_ns) + 0.0
