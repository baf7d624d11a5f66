"""The AllXY experiment (Sections 4.1 and 8, Figure 9).

21 pairs of single-qubit gates applied back-to-back to a qubit initialized
in |0>: ideally the first 5 pairs return it to |0>, the next 12 leave it
on the equator, and the final 4 drive it to |1>.  Each pair is measured
twice (K = 42) and averaged over N rounds; calibration points from the
0th and 18th/19th combinations rescale the signal into a |1>-state
fidelity, compared against the ideal staircase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.codegen import CompilerOptions
from repro.compiler.program import QuantumProgram
from repro.core.config import MachineConfig
from repro.experiments.base import (Experiment, ExperimentRun, Target,
                                    register_experiment)
from repro.service import JobSpec

#: Algorithm 1's gate table: 21 pairs over {I, X180, Y180, X90, Y90}.
ALLXY_PAIRS: list[tuple[str, str]] = [
    ("i", "i"),
    ("x", "x"),
    ("y", "y"),
    ("x", "y"),
    ("y", "x"),
    ("x90", "i"),
    ("y90", "i"),
    ("x90", "y90"),
    ("y90", "x90"),
    ("x90", "y"),
    ("y90", "x"),
    ("x", "y90"),
    ("y", "x90"),
    ("x90", "x"),
    ("x", "x90"),
    ("y90", "y"),
    ("y", "y90"),
    ("x", "i"),
    ("y", "i"),
    ("x90", "x90"),
    ("y90", "y90"),
]

#: Display labels in the style of Figure 9 (X/Y = pi, x/y = pi/2).
_LABEL = {"i": "I", "x": "X", "y": "Y", "x90": "x", "y90": "y"}


def allxy_labels() -> list[str]:
    """Pair labels as printed under Figure 9."""
    return [f"{_LABEL[a]}{_LABEL[b]}" for a, b in ALLXY_PAIRS]


def allxy_ideal_staircase(points_per_pair: int = 2) -> np.ndarray:
    """Ideal |1>-state fidelity per measured point (the red staircase)."""
    per_pair = [0.0] * 5 + [0.5] * 12 + [1.0] * 4
    return np.repeat(per_pair, points_per_pair).astype(float)


def build_allxy_program(qubit: int, repeats_per_pair: int = 2) -> QuantumProgram:
    """The OpenQL-like AllXY program: one kernel per measured point."""
    program = QuantumProgram("allxy", qubits=(qubit,))
    for index, (g1, g2) in enumerate(ALLXY_PAIRS):
        for rep in range(repeats_per_pair):
            kernel = program.new_kernel(f"pair{index}_{rep}")
            kernel.prepz(qubit)
            kernel.gate(g1, qubit)
            kernel.gate(g2, qubit)
            kernel.measure(qubit)
    return program


@dataclass
class AllXYResult:
    """Figure 9's data: per-point fidelity and the deviation metric."""

    labels: list[str]
    averages: np.ndarray       #: raw S-bar per point (length 42)
    fidelity: np.ndarray       #: rescaled F_|1> per point
    ideal: np.ndarray          #: the staircase
    deviation: float           #: mean |measured - ideal|
    run: ExperimentRun

    def max_error(self) -> float:
        return float(np.max(np.abs(self.fidelity - self.ideal)))


def rescale_with_calibration_points(averages: np.ndarray,
                                    points_per_pair: int = 2) -> np.ndarray:
    """Figure 9's rescaling: F = (S - S_|0>) / (S_|1> - S_|0>).

    S_|0> comes from combination 0 (I-I); S_|1> from combinations 18 and
    19 (X180-I, Y180-I).
    """
    averages = np.asarray(averages, dtype=float)
    p = points_per_pair
    s0 = averages[0 * p:(0 + 1) * p].mean()
    s1 = averages[18 * p:(19 + 1) * p].mean()
    if s1 == s0:
        raise ValueError("degenerate calibration points")
    return (averages - s0) / (s1 - s0)


def allxy_job(config: MachineConfig, qubit: int, n_rounds: int,
              replay: bool = True) -> JobSpec:
    """The full AllXY run as one service job."""
    return JobSpec(config=config, program=build_allxy_program(qubit),
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   params={"qubit": qubit, "n_rounds": n_rounds},
                   label=f"allxy q{qubit} N={n_rounds}", replay=replay,
                   cal_qubit=qubit)


@register_experiment
class AllXYExperiment(Experiment):
    """Figure 9's AllXY staircase: per-point fidelity and deviation.

    One job per qubit (all 42 points as K-points of a single program);
    the round-replay fast path additionally needs
    ``config.trace_enabled=False`` (the `MachineConfig` default is True)
    — traced runs always take the full event-driven path.
    """

    name = "allxy"
    target_arity = 1
    defaults = {"n_rounds": 128, "replay": True}

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        (qubit,) = target
        return [allxy_job(self.config, qubit, self.params["n_rounds"],
                          replay=self.params["replay"])]

    def analyze_target(self, jobs, target: Target) -> AllXYResult:
        job = jobs[0]
        run = ExperimentRun(machine=None, result=job.run,
                            averages=job.averages,
                            s_ground=job.s_ground, s_excited=job.s_excited)
        fidelity = rescale_with_calibration_points(run.averages)
        ideal = allxy_ideal_staircase()
        deviation = float(np.mean(np.abs(fidelity - ideal)))
        labels = [lbl for lbl in allxy_labels() for _ in range(2)]
        return AllXYResult(labels=labels, averages=run.averages,
                           fidelity=fidelity, ideal=ideal,
                           deviation=deviation, run=run)

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        _, job = indexed_jobs[0]
        fidelity = rescale_with_calibration_points(job.averages)
        ideal = allxy_ideal_staircase()
        return {"deviation": float(np.mean(np.abs(fidelity - ideal)))}

    def summarize_target(self, result: AllXYResult, target: Target) -> str:
        return (f"deviation {result.deviation:.4f} "
                f"(max error {result.max_error():.4f})")

