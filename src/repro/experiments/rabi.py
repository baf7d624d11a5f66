"""Rabi amplitude calibration through the full stack.

Sweeps the drive amplitude of a fixed-duration pulse and fits the
resulting population oscillation, the standard calibration that fixes the
X180 amplitude.  Each amplitude point is realized by uploading a custom
waveform into the CTPG lookup table under a scratch codeword — the exact
mechanism the control box uses for calibration sweeps.

Points execute through the orchestration service: one job per amplitude,
sharing a pooled machine and the cached assembly of the (amplitude-
independent) sequence program.  :class:`RabiExperiment` is the
declarative form (``session.run("rabi", ...)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.experiments.analysis import fit_parameters
from repro.experiments.base import Experiment, Target, register_experiment
from repro.pulse.envelopes import gaussian
from repro.service import JobSpec, LUTUpload

#: Scratch operation name for the swept pulse.
RABI_OP = "RABI"


@dataclass
class RabiResult:
    amplitudes: np.ndarray
    population: np.ndarray        #: rescaled P(|1>) per amplitude
    pi_amplitude: float           #: fitted amplitude of a pi rotation
    expected_pi_amplitude: float  #: analytic value from the calibration

    def amplitude_error(self) -> float:
        return abs(self.pi_amplitude - self.expected_pi_amplitude)


def _point_asm(qubit: int, n_rounds: int) -> str:
    """The per-point sequence; identical across amplitudes (cache-friendly)."""
    return f"""
        mov r15, 40000
        mov r1, 0
        mov r2, {n_rounds}
    Outer_Loop:
        QNopReg r15
        Pulse {{q{qubit}}}, {RABI_OP}
        Wait 4
        MPG {{q{qubit}}}, 300
        MD {{q{qubit}}}
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
        halt
    """


def rabi_job(config: MachineConfig, qubit: int, amplitude: float,
             n_rounds: int, replay: bool = True) -> JobSpec:
    """One amplitude point as a service job: upload the pulse, run, average.

    Declaring ``n_rounds`` on the raw-asm spec opts the job into the
    round-replay fast path (the uploaded samples are part of the replay
    cache key, so every amplitude gets its own verified channel).
    """
    cal = config.calibration
    samples = gaussian(cal.duration_ns, cal.sigma_ns, float(amplitude))
    return JobSpec(
        config=config,
        asm=_point_asm(qubit, n_rounds),
        n_rounds=n_rounds,
        uploads=(LUTUpload.from_array(qubit, RABI_OP, samples),),
        params={"amplitude": float(amplitude)},
        label=f"rabi a={amplitude:.4f}",
        replay=replay,
        cal_qubit=qubit,
    )


def _fit_oscillation(amplitudes: np.ndarray, populations: np.ndarray,
                     expected_pi: float) -> dict:
    """Fit P(|1>) = offset + visibility * (1 - cos(pi a / a_pi)) / 2."""
    def model(a, a_pi, visibility, offset):
        return offset + visibility * (1 - np.cos(np.pi * a / a_pi)) / 2.0

    popt = fit_parameters(model, amplitudes, populations,
                          p0=[expected_pi, 1.0, 0.0], maxfev=20000)
    return {"pi_amplitude": float(abs(popt[0])),
            "visibility": float(popt[1]),
            "offset": float(popt[2]),
            "expected_pi_amplitude": float(expected_pi)}


@register_experiment
class RabiExperiment(Experiment):
    """Amplitude-Rabi calibration: fitted pi amplitude per qubit."""

    name = "rabi"
    target_arity = 1
    defaults = {"amplitudes": None, "n_rounds": 64, "replay": True}

    def resolve(self) -> None:
        self.expected_pi = float(self.config.calibration.amplitude_for(np.pi))
        if self.params["amplitudes"] is None:
            self.params["amplitudes"] = np.linspace(
                0.0, min(2.2 * self.expected_pi, 0.999), 21)

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        (qubit,) = target
        return [rabi_job(self.config, qubit, amp, self.params["n_rounds"],
                         replay=self.params["replay"])
                for amp in self.params["amplitudes"]]

    def analyze_target(self, jobs, target: Target) -> RabiResult:
        amplitudes = self.params["amplitudes"]
        populations = np.asarray([job.normalized[0] for job in jobs])
        fit = _fit_oscillation(np.asarray(amplitudes, dtype=float),
                               populations, self.expected_pi)
        return RabiResult(amplitudes=np.asarray(amplitudes),
                          population=populations,
                          pi_amplitude=fit["pi_amplitude"],
                          expected_pi_amplitude=self.expected_pi)

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        # Mid-sweep, wait for more points than the 3 fitted parameters (an
        # exact fit passes through the noise); a complete sweep fits as
        # analyze does.
        n = len(indexed_jobs)
        if n < 3 or (n == 3 and n < len(self.params["amplitudes"])):
            return None
        amps = np.asarray([job.params["amplitude"]
                           for _, job in indexed_jobs], dtype=float)
        pops = np.asarray([job.normalized[0] for _, job in indexed_jobs])
        return _fit_oscillation(amps, pops, self.expected_pi)

    def summarize_target(self, result: RabiResult, target: Target) -> str:
        return (f"pi amplitude {result.pi_amplitude:.4f} "
                f"(expected {result.expected_pi_amplitude:.4f}, "
                f"error {result.amplitude_error():.2e})")

