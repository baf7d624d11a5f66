"""Crosstalk-aware readout-error mitigation: confusion matrix + inverse.

At small IF separations the multiplexed matched filters stop being
orthogonal (:func:`~repro.readout.multiplex.crosstalk_matrix` quantifies
the overlap) and the per-qubit thresholds misassign *joint* outcomes:
qubit i's statistic shifts with qubit j's state, so the measured
joint-outcome histogram is a linear image ``q = R p`` of the true
outcome probabilities under a ``2^w × 2^w`` response (confusion) matrix
``R`` whose column ``j`` is the outcome distribution of calibration
shots prepared in word ``j``.

:func:`confusion_matrix` pushes ``cal_shots`` simulated calibration
shots per prepared word through the measurement path's multiplexed
signal synthesis, ADC quantization and weighted integration, and
thresholds them with the executing machine's own calibration records
(:func:`~repro.core.quma.readout_calibrations`).  :func:`correct_counts`
inverts ``q = R p`` by ridge-regularized least squares with
nonnegativity clipping and renormalization, which keeps near-singular
responses (degenerate IFs) well-behaved while recovering the measured
distribution exactly when crosstalk is zero and the regularizer is off.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MachineConfig
from repro.core.quma import readout_calibrations
# calibrate_readout: unused, but perfbench patches it on this module.
from repro.readout.calibration import calibrate_readout  # noqa: F401
from repro.readout.multiplex import multiplexed_signal_table
from repro.readout.pipeline import readout_statistics
from repro.readout.weights import prepare_weights
from repro.utils.errors import CalibrationError
from repro.utils.rng import derive_rng
from repro.utils.units import cycles_to_ns

#: Default Tikhonov (ridge) regularizer for the least-squares inversion:
#: negligible against a well-conditioned response, but caps the blow-up
#: of near-singular ones (overlapping IFs) at ~1/sqrt(ridge).
DEFAULT_RIDGE = 1e-6

#: Registers wider than this would need a dense 2^w x 2^w response —
#: the same bound the joint replay path enforces.
MAX_REGISTER_WIDTH = 8


def confusion_matrix(config: MachineConfig, targets: tuple[int, ...],
                     cal_shots: int | None = None,
                     seed: int | None = None) -> np.ndarray:
    """Estimate the ``2^w × 2^w`` joint-readout response matrix.

    ``targets`` is the register in DCU stream order (ascending, matching
    ``JobSpec.cal_targets``): histogram bit ``j`` is ``targets[j]``.
    Column ``j`` of the result is the measured outcome distribution of
    ``cal_shots`` calibration shots prepared in word ``j``, pushed
    through the exact discrimination chain the measurement path runs —
    the deterministic multiplexed signal row for that word, one shared
    output-line noise realization per shot, 8-bit ADC quantization, each
    qubit's matched filter, each qubit's calibrated threshold — in the
    readout block pipeline, whose per-record integration is the MDU's
    bit-for-bit.  Columns sum to 1.  ``cal_shots`` defaults to
    ``config.calibration_shots``; ``seed`` namespaces the calibration
    noise stream and defaults to the config seed (deterministic, and
    independent of every run stream).
    """
    targets = tuple(int(q) for q in targets)
    width = len(targets)
    if not 1 <= width <= MAX_REGISTER_WIDTH:
        raise CalibrationError(
            f"confusion matrix supports registers of width 1..."
            f"{MAX_REGISTER_WIDTH}, got {width}")
    shots = int(cal_shots) if cal_shots is not None \
        else int(config.calibration_shots)
    if shots < 1:
        raise CalibrationError(
            f"need at least 1 calibration shot per prepared word "
            f"(got {shots})")
    msmt_ns = cycles_to_ns(config.msmt_cycles)
    cals = readout_calibrations(config, targets)
    table, noise_std = multiplexed_signal_table(
        {q: config.readout_for(q) for q in targets}, msmt_ns)
    weights = tuple(prepare_weights(cals[q].weights, msmt_ns)
                    for q in targets)
    thresholds = np.asarray([cals[q].threshold for q in targets])
    rng = derive_rng(seed if seed is not None else config.seed,
                     "mitigation", "confusion")
    n_words = 1 << width
    # Word 0's shots, then word 1's, ... in one noise stream.
    statistics = readout_statistics(
        table, np.repeat(np.arange(n_words), shots), noise_std, rng,
        weights, (8,) * width)
    bits = (statistics > thresholds).astype(np.int64)
    outcomes = (bits << np.arange(width, dtype=np.int64)).sum(axis=1)
    response = np.zeros((n_words, n_words))
    for word, prepared in enumerate(outcomes.reshape(n_words, shots)):
        column = np.bincount(prepared, minlength=n_words).astype(float)
        total = column.sum()
        if total == 0:
            raise CalibrationError(
                f"calibration word {word:0{width}b} produced zero counts; "
                "cannot normalize a confusion column")
        response[:, word] = column / total
    return response


def correct_probabilities(response: np.ndarray, probabilities: np.ndarray,
                          ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """Invert ``q = R p`` for the true outcome distribution ``p``.

    Ridge-regularized least squares ``p = (RᵀR + ridge·I)⁻¹ Rᵀ q``
    (plain least squares when ``ridge`` is 0), then clip negative
    entries and renormalize to a probability vector.  With ``R = I``
    and ``ridge = 0`` this recovers ``q`` exactly; with a near-singular
    ``R`` the regularizer bounds the solution instead of letting the
    inverse explode.
    """
    q = np.asarray(probabilities, dtype=float)
    n = len(q)
    response = np.asarray(response, dtype=float)
    if response.shape != (n, n):
        raise CalibrationError(
            f"response matrix shape {response.shape} does not match "
            f"{n} outcome words")
    if ridge < 0:
        raise CalibrationError(f"ridge must be >= 0 (got {ridge})")
    if ridge:
        normal = response.T @ response + float(ridge) * np.eye(n)
        p = np.linalg.solve(normal, response.T @ q)
    else:
        p, *_ = np.linalg.lstsq(response, q, rcond=None)
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise CalibrationError(
            "readout inversion clipped away all probability mass; the "
            "response matrix does not explain the measured distribution")
    return p / total


def correct_counts(response: np.ndarray, counts: np.ndarray,
                   ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """:func:`correct_probabilities` on a raw joint-outcome histogram.

    Guards the zero-count normalization explicitly: a calibration or
    measurement stream that produced no complete rounds raises a
    :class:`CalibrationError` instead of propagating NaNs into the
    parity estimators.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise CalibrationError(
            "joint-outcome histogram has zero total counts; cannot "
            "normalize probabilities for readout mitigation")
    return correct_probabilities(response, counts / total, ridge=ridge)
