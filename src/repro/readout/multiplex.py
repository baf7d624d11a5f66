"""Frequency-multiplexed readout (Section 5.1.2 scalability note).

"Recent experiments have also demonstrated combining the measurement
result of multiple qubits into one analog signal" — each qubit's readout
resonator responds at its own intermediate frequency; one feedline record
carries all of them, and each MDU's matched filter picks out its qubit.
Crosstalk falls off as the IF separation grows against the integration
window (the filters become orthogonal).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.readout.resonator import ReadoutParams, transmitted_signal
from repro.utils.errors import ConfigurationError

#: Default IF spacing between neighboring qubits on one feedline (Hz):
#: wide enough that matched filters stay near-orthogonal over the
#: standard 1500 ns integration window.  Auto-built session configs and
#: the GHZ chain helper stagger per-qubit readouts by this step.
DEFAULT_IF_STEP_HZ = 12e6


def staggered_readouts(n: int, step_hz: float | None = None,
                       base: ReadoutParams | None = None
                       ) -> tuple[ReadoutParams, ...]:
    """Per-qubit readout parameters with frequency-staggered IFs.

    The wiring one multiplexed feedline needs: qubit ``i`` reads out at
    ``base.f_if_hz + i * step_hz`` so each MDU's matched filter can pick
    its own signal out of the shared record.  Used by the session's
    auto-built register configs and :func:`~repro.experiments.entangling.
    ghz_width_config`, so both stagger identically.
    """
    if base is None:
        base = ReadoutParams()
    if step_hz is None:
        step_hz = DEFAULT_IF_STEP_HZ
    return tuple(replace(base, f_if_hz=base.f_if_hz + i * step_hz)
                 for i in range(int(n)))


def multiplexed_trace(params_by_qubit: dict[int, ReadoutParams],
                      outcomes: dict[int, int], duration_ns: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One feedline record carrying every qubit's readout signal.

    Per-qubit signals are synthesized noise-free and summed; a single
    additive noise realization models the shared output line, with the
    standard deviation taken as the largest configured per-qubit value.
    """
    if not params_by_qubit:
        raise ConfigurationError("no qubits to multiplex")
    if set(outcomes) != set(params_by_qubit):
        raise ConfigurationError("outcomes must cover exactly the qubits")
    duration_ns = int(duration_ns)
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    total = np.zeros(duration_ns)
    noise_std = 0.0
    for qubit, params in params_by_qubit.items():
        # ``+ 0.0`` as in multiplexed_signal_table, so its rows stay
        # bit-identical to this sum.
        total = total + (transmitted_signal(params, outcomes[qubit],
                                            duration_ns, 0) + 0.0)
        noise_std = max(noise_std, params.noise_std)
    if noise_std:
        total = total + rng.normal(0.0, noise_std, duration_ns)
    return total


def multiplexed_signal_table(params_by_qubit: dict[int, ReadoutParams],
                             duration_ns: int) -> tuple[np.ndarray, float]:
    """Deterministic summed record for every joint-outcome word.

    Returns ``(table, noise_std)`` where ``table`` has ``2**w`` rows:
    row ``word`` is the noise-free part of :func:`multiplexed_trace` for
    the outcome assignment whose bit ``j`` (LSB first, in the dict's
    iteration order) is qubit ``j``'s outcome.  Per-qubit signals are
    summed in the identical order and grouping as the per-shot path —
    including the quiet trace's ``signal + 0.0`` step — so adding one
    shared-line noise realization to a row reproduces the event kernel's
    record bit-for-bit.  ``noise_std`` is the shared output line's value
    (the largest configured per-qubit std), as in the per-shot path.
    """
    if not params_by_qubit:
        raise ConfigurationError("no qubits to multiplex")
    duration = int(duration_ns)
    signals: list[tuple[np.ndarray, np.ndarray]] = []
    noise_std = 0.0
    for params in params_by_qubit.values():
        signals.append(tuple(
            transmitted_signal(params, outcome, duration, 0) + 0.0
            for outcome in (0, 1)))
        noise_std = max(noise_std, params.noise_std)
    table = np.zeros((1 << len(signals), duration))
    for word in range(table.shape[0]):
        total = np.zeros(duration)
        for j, pair in enumerate(signals):
            total = total + pair[(word >> j) & 1]
        table[word] = total
    return table, noise_std


def crosstalk_matrix(params_by_qubit: dict[int, ReadoutParams],
                     weights_by_qubit: dict[int, np.ndarray],
                     duration_ns: int) -> np.ndarray:
    """Normalized response of each qubit's filter to each qubit's signal.

    Entry [i, j] is qubit i's integration response to qubit j's
    state-difference signal, normalized so the diagonal is 1.  Off-diagonal
    magnitudes quantify readout crosstalk.
    """
    from repro.readout.resonator import mean_trace
    from repro.readout.weights import integrate

    qubits = sorted(params_by_qubit)
    n = len(qubits)
    matrix = np.zeros((n, n))
    for j, qj in enumerate(qubits):
        diff = (mean_trace(params_by_qubit[qj], 1, duration_ns, 0)
                - mean_trace(params_by_qubit[qj], 0, duration_ns, 0))
        for i, qi in enumerate(qubits):
            matrix[i, j] = integrate(diff, weights_by_qubit[qi])
    diag = np.diag(matrix).copy()
    if np.any(diag == 0):
        raise ConfigurationError("degenerate filter: zero self-response")
    return matrix / diag[:, None]
