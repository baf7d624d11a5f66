"""Readout calibration: weight function, threshold, assignment fidelity.

Mirrors the experimental procedure: record reference traces with the
qubit prepared in |0> and |1>, build the matched-filter weight function,
and place the threshold at the midpoint of the two integration-statistic
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.readout.adc import adc_quantize
from repro.readout.resonator import (ReadoutParams, mean_trace,
                                     transmitted_trace_batch)
from repro.readout.weights import (integrate_batch, matched_filter_weights,
                                   prepare_weights)
from repro.utils.errors import CalibrationError
from repro.utils.rng import derive_rng

#: Shots per synthesized trace block: small blocks keep peak memory level.
SHOT_BLOCK = 16


@dataclass(frozen=True)
class ReadoutCalibration:
    """Calibrated discrimination parameters for one qubit."""

    weights: np.ndarray
    threshold: float
    s_ground: float  #: mean integration statistic, qubit in |0>
    s_excited: float  #: mean integration statistic, qubit in |1>
    assignment_fidelity: float  #: estimated P(correct assignment)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def calibrate_readout(params: ReadoutParams, duration_ns: int,
                      n_shots: int = 200, adc_bits: int = 8,
                      seed: int | None = 0,
                      qubit: int | None = None) -> ReadoutCalibration:
    """Calibrate weights and threshold for the given readout chain.

    The weight function comes from noise-free mean traces (in hardware:
    heavily averaged references); the threshold and fidelity estimate from
    ``n_shots`` noisy shots per state.  ``qubit`` namespaces the noise
    stream so each wired qubit of a multi-qubit machine calibrates
    independently; None keeps the historical shared stream (the machine
    uses it for its first wired qubit, so single-qubit runs stay
    bit-identical across versions).
    """
    if n_shots < 2:
        raise CalibrationError("need at least 2 shots per state")
    if qubit is None:
        rng = derive_rng(seed, "readout_calibration")
    else:
        rng = derive_rng(seed, "readout_calibration", f"q{qubit}")
    w = matched_filter_weights(
        mean_trace(params, 0, duration_ns, t0_ns=0),
        mean_trace(params, 1, duration_ns, t0_ns=0),
    )
    w_run = prepare_weights(w, duration_ns)
    # Blocks fill in stream order and integrate_batch keeps the per-row
    # dot: statistics are bit-identical to a one-trace-per-shot loop's.
    stats = np.empty((2, n_shots))
    for outcome in (0, 1):
        for start in range(0, n_shots, SHOT_BLOCK):
            stop = min(start + SHOT_BLOCK, n_shots)
            traces = transmitted_trace_batch(
                params, np.full(stop - start, outcome), duration_ns, 0, rng)
            stats[outcome, start:stop] = integrate_batch(
                adc_quantize(traces, adc_bits, overwrite=True), w_run)
    s0 = float(np.mean(stats[0]))
    s1 = float(np.mean(stats[1]))
    if not s1 > s0:
        raise CalibrationError("excited-state statistic not above ground state")
    threshold = 0.5 * (s0 + s1)
    correct = int(np.count_nonzero(stats[0] <= threshold))
    correct += int(np.count_nonzero(stats[1] > threshold))
    fidelity = correct / (2.0 * n_shots)
    return ReadoutCalibration(weights=w, threshold=threshold, s_ground=s0,
                              s_excited=s1, assignment_fidelity=fidelity)


def joint_outcome_counts(statistics: np.ndarray,
                         thresholds: np.ndarray) -> np.ndarray:
    """Joint-outcome histogram of a correlated measurement stream.

    ``statistics`` holds one integration statistic per register qubit per
    round, shape ``(n_rounds, m)`` with columns in register order;
    ``thresholds`` are the matching per-qubit calibration thresholds.
    Each statistic discriminates exactly as the MDU does (``s >
    threshold``), and each round's bits pack into an outcome index with
    the first register qubit as the least significant bit.  Returns the
    length-``2**m`` count vector — the primitive the entangling
    experiments' parity and fidelity estimators reduce.
    """
    stats = np.asarray(statistics, dtype=float)
    if stats.ndim != 2:
        raise CalibrationError(
            f"statistics must be (n_rounds, m), got shape {stats.shape}")
    m = stats.shape[1]
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (m,):
        raise CalibrationError(
            f"need one threshold per register qubit ({m}), "
            f"got shape {thresholds.shape}")
    bits = (stats > thresholds).astype(np.int64)
    indices = (bits << np.arange(m, dtype=np.int64)).sum(axis=1)
    return np.bincount(indices, minlength=1 << m).astype(np.int64)
