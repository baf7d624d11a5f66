"""Time-ordered quantum device: the simulated chip behind the channels.

The device advances a shared density matrix chronologically.  Decoherence
accrues whenever time advances; drive waveforms apply their unitary at the
trigger instant (the 20 ns of intra-pulse decoherence is accounted as idle
decay, an error that is second-order for pulses that are ~10^-3 of T1).
Overlapping drives on the *same* qubit are rejected — the CTPG never
produces them, and a sum-of-drives model would hide sequencing bugs.

A one-qubit device memoizes its exact state transitions (DESIGN.md,
"The exact-state memo"): projective measurement leaves the qubit in a
bit-exact basis state, so every round of an averaging program applies
the same steps to the same matrices, and each is computed once.
"""

from __future__ import annotations

import numpy as np

from repro.pulse.modulation import ssb_phase
from repro.pulse.waveform import Waveform
from repro.qubit.dynamics import PulseUnitaryCache
from repro.qubit.gates import CZ
from repro.qubit.noise import decoherence_kraus, decoherence_superop
from repro.qubit.state import DensityMatrix
from repro.sim.tracing import ScheduleRecorder
from repro.qubit.transmon import TransmonParams
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_rng


class QuantumDevice:
    """The simulated quantum chip seen by the analog-digital interface."""

    #: Entries of the exact-state memo, ~500 bytes each with their keys
    #: (~2 MB full); the memo is cleared when it grows past this.
    MEMO_MAX_ENTRIES = 4096

    def __init__(self, qubits: list[TransmonParams], f_ssb_hz: float = -50e6,
                 drive_detuning_hz: float = 0.0, cz_phase_error_rad: float = 0.0,
                 seed: int | None = 0):
        if not qubits:
            raise ConfigurationError("device needs at least one qubit")
        self.params = list(qubits)
        self.n_qubits = len(qubits)
        self.f_ssb_hz = f_ssb_hz
        self.drive_detuning_hz = drive_detuning_hz
        self.cz_phase_error_rad = cz_phase_error_rad
        self.state = DensityMatrix.ground(self.n_qubits)
        self.now_ns: int = 0
        self._busy_until = [0] * self.n_qubits
        self._caches = [
            PulseUnitaryCache(p.kappa, drive_detuning_hz) for p in qubits
        ]
        self._rng = derive_rng(seed, "device")
        #: optional schedule recorder (round-replay engine); observes ops only
        self.recorder: ScheduleRecorder | None = None
        #: (input matrix bytes, step) -> read-only output matrix; None
        #: for registers, which stay on the computed path.
        self._memo: dict[tuple, np.ndarray] | None = (
            {} if self.n_qubits == 1 else None)
        self.memo_hits = 0
        self.memo_misses = 0

    # -- time --------------------------------------------------------------

    def apply_idle(self, state: DensityMatrix, dt_ns: int) -> None:
        """Apply ``dt_ns`` of idle decoherence on every qubit of ``state``.

        One-qubit states go through the memoized 4x4 superoperator (one
        matmul); larger registers loop per-qubit Kraus channels.  The
        replay engine calls this on scratch states with recorded
        intervals, so recorded and replayed rounds share one code path
        (and therefore identical floating-point results).
        """
        if dt_ns == 0:
            return
        if state.n_qubits == 1:
            p = self.params[0]
            state.apply_superop(decoherence_superop(dt_ns, p.t1_ns, p.t2_ns))
            return
        for q, p in enumerate(self.params):
            state.apply_kraus(decoherence_kraus(dt_ns, p.t1_ns, p.t2_ns), q)

    def advance_to(self, t_ns: int) -> None:
        """Advance device time, applying idle decoherence on every qubit."""
        t_ns = int(t_ns)
        if t_ns < self.now_ns:
            raise ValueError(f"time moved backwards: {t_ns} < {self.now_ns}")
        dt = t_ns - self.now_ns
        if dt == 0:
            return
        self._step(dt, lambda: self.apply_idle(self.state, dt))
        if self.recorder is not None:
            self.recorder.idle(dt)
        self.now_ns = t_ns

    def _step(self, step, compute) -> None:
        """Move the state through ``step``, computing it only once per input.

        ``step`` identifies the transition, given the device's fixed
        parameters: an idle interval, a unitary's bytes or a (qubit,
        outcome) projection.  A hit rebinds ``state.data`` to the stored
        result of ``compute()`` on the bit-identical input, so it is
        byte-equal to computing it again.  Stored matrices are read-only:
        operations rebind ``data`` and never write into it.  A raising
        ``compute`` stores nothing.
        """
        memo = self._memo
        if memo is None:
            compute()
            return
        key = (self.state.data.tobytes(), step)
        data = memo.get(key)
        if data is not None:
            self.memo_hits += 1
            self.state.data = data
            return
        self.memo_misses += 1
        compute()
        data = self.state.data
        data.flags.writeable = False
        memo[key] = data
        if len(memo) > self.MEMO_MAX_ENTRIES:
            memo.clear()

    def reset(self) -> None:
        """Hard reset to the ground state (the simulator's |0...0>)."""
        self.state = DensityMatrix.ground(self.n_qubits)
        self._busy_until = [0] * self.n_qubits

    def restart(self, seed: int | np.random.Generator | None = 0) -> None:
        """Return to the just-constructed state: ground, t = 0, fresh RNG.

        With the construction seed this reproduces a newly-built device
        bit-for-bit; the pulse-unitary caches and the exact-state memo
        are kept (they memoize pure functions of their keys and the
        device's fixed parameters).
        """
        self.reset()
        self.now_ns = 0
        self._rng = derive_rng(seed, "device")
        self.recorder = None

    # -- drive -------------------------------------------------------------

    def play_waveform(self, qubits: tuple[int, ...], waveform: Waveform,
                      start_ns: int) -> None:
        """A CTPG output pulse arriving at the chip at ``start_ns``.

        Single-qubit entries use the envelope integration (with the SSB
        carrier phase implied by the absolute start time); a waveform
        tagged ``meta["kind"] == "cz"`` on a qubit pair applies the CZ
        primitive (flux pulses are baseband: no carrier phase).
        """
        start_ns = int(start_ns)
        self.advance_to(start_ns)
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
            if start_ns < self._busy_until[q]:
                raise ConfigurationError(
                    f"overlapping drive on qubit {q} at {start_ns} ns "
                    f"(busy until {self._busy_until[q]} ns)")
            self._busy_until[q] = start_ns + waveform.duration_ns

        if waveform.meta.get("kind") == "cz":
            if len(qubits) != 2:
                raise ConfigurationError("CZ waveform needs exactly two qubits")
            u = np.diag([1, 1, 1, np.exp(1j * (np.pi + self.cz_phase_error_rad))])
            # Up to the injected phase error this is the ideal CZ.
            if self.cz_phase_error_rad == 0.0:
                u = CZ
            self.state.apply_unitary(u, qubits)
            if self.recorder is not None:
                self.recorder.unitary(qubits, u)
            return
        if waveform.is_zero():
            return
        # A detuned drive carrier advances its phase relative to the qubit
        # frame between pulses; folding the detuning into the trigger-time
        # phase captures the Ramsey-fringe physics.
        phase = ssb_phase(self.f_ssb_hz - self.drive_detuning_hz, start_ns)
        for q in qubits:
            u = self._caches[q].unitary(waveform, phase)
            self._step(u.tobytes(),
                       lambda: self.state.apply_unitary(u, (q,)))
            if self.recorder is not None:
                self.recorder.unitary((q,), u)

    # -- measurement -------------------------------------------------------

    def measure_project(self, qubit: int, t_ns: int) -> int:
        """Projective measurement of ``qubit`` at ``t_ns``.

        Returns the *physical* outcome; readout imperfections (assignment
        noise) are layered on by the readout chain, not here.
        """
        self.advance_to(t_ns)
        p1 = self.state.prob_one(qubit)
        outcome = 1 if self._rng.random() < p1 else 0
        self._step((qubit, outcome),
                   lambda: self.state.project(qubit, outcome))
        if self.recorder is not None:
            self.recorder.measure(qubit, p1, outcome, int(t_ns),
                                  self.state.basis_index())
        return outcome

    def prob_one(self, qubit: int, t_ns: int | None = None) -> float:
        """P(|1>) of ``qubit``, optionally advancing to ``t_ns`` first."""
        if t_ns is not None:
            self.advance_to(t_ns)
        return self.state.prob_one(qubit)

    def cache_stats(self) -> dict[str, int]:
        """Pulse-unitary cache statistics summed across qubits, and the
        exact-state memo's."""
        return {
            "hits": sum(c.hits for c in self._caches),
            "misses": sum(c.misses for c in self._caches),
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_entries": len(self._memo or ()),
        }
