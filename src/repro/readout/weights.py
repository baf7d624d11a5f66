"""Weight functions and weighted integration (Section 4.2.1).

The discrimination statistic is ``S_q = sum_t V_a(t) * W_q(t)`` with a
calibrated weight function; the matched filter (difference of the two
state-conditioned mean traces) is optimal for Gaussian noise.
"""

from __future__ import annotations

import numpy as np


def matched_filter_weights(mean_trace_0: np.ndarray,
                           mean_trace_1: np.ndarray) -> np.ndarray:
    """Matched-filter weight function, normalized to unit peak."""
    w = np.asarray(mean_trace_1, dtype=float) - np.asarray(mean_trace_0, dtype=float)
    peak = np.max(np.abs(w))
    if peak == 0:
        raise ValueError("readout traces are identical; cannot build weights")
    return w / peak


def demodulation_weights(f_if_hz: float, duration_ns: int,
                         phase: float = 0.0) -> np.ndarray:
    """Plain cosine demodulation weights at the intermediate frequency.

    The simple alternative to the matched filter: uniform-envelope
    demodulation.  It ignores the resonator ring-up and the optimal
    quadrature, so its assignment fidelity is never better than the
    matched filter's (compared in ``tests/test_readout_chain_extra.py``).
    """
    t = np.arange(int(duration_ns), dtype=float)
    return np.cos(2.0 * np.pi * f_if_hz * t * 1e-9 + phase)


def prepare_weights(weights: np.ndarray,
                    n_samples: int | None = None) -> np.ndarray:
    """Convert a weight function to a contiguous float array once.

    The batched replay kernels integrate one weight function against
    millions of rows; converting (and optionally trimming to the common
    ``n_samples`` length, as :func:`integrate` would per call) once per
    plan keeps the hot loop free of per-trace conversions.
    ``integrate``/``integrate_batch`` on the prepared array are
    bit-identical to the unprepared calls — same ``np.dot`` kernel over
    the same common length.
    """
    w = np.ascontiguousarray(weights, dtype=float)
    if n_samples is not None:
        w = w[:min(len(w), int(n_samples))]
    return w


def integrate(trace: np.ndarray, weights: np.ndarray) -> float:
    """Weighted integration S = sum V(t) W(t) over the common length."""
    trace = np.asarray(trace, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = min(len(trace), len(weights))
    return float(np.dot(trace[:n], weights[:n]))


def integrate_batch(traces: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted integration of a ``(n_shots, n_samples)`` trace block.

    Row ``i`` equals ``integrate(traces[i], weights)`` *bit-for-bit*:
    ``np.vecdot`` runs numpy's float64 ``dot`` kernel (BLAS ``ddot``,
    the one ``np.dot`` of two vectors uses) once per row from one C
    loop, rather than one BLAS matrix-vector product, whose different
    accumulation order drifts at the 1e-16 level.  Bit-identity is what
    lets replayed and fully-simulated rounds (and the serial and process
    service backends, which mix the two) produce byte-equal averages.
    """
    traces = np.asarray(traces, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = min(traces.shape[1], len(weights))
    return np.vecdot(traces[:, :n], weights[:n])
