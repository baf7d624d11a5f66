"""Single-qubit randomized benchmarking (Section 8, reference [60]).

For each sequence length m, random Cliffords are applied followed by the
recovery Clifford; surviving ground-state population decays as
A * p^m + B, giving the error per Clifford r = (1 - p)/2.  Sequences are
compiled to QuMIS and executed through the complete QuMA stack.

:class:`RBExperiment` is the declarative form (``session.run("rb", ...)``,
multi-qubit capable: the same random sequence set is applied to every
requested qubit so decay curves are directly comparable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.experiments.analysis import RBFit, fit_rb_decay
from repro.experiments.base import Experiment, Target, register_experiment
from repro.experiments.cliffords import clifford_group
from repro.service import JobSpec
from repro.utils.rng import derive_rng


@dataclass
class RBResult:
    lengths: np.ndarray
    survival: np.ndarray     #: ground-state probability per length
    fit: RBFit
    pulses_per_clifford: float

    @property
    def error_per_clifford(self) -> float:
        return self.fit.error_per_clifford


def _sequence_asm(qubit: int, pulse_names: list[str], n_rounds: int) -> str:
    """Assembly for one RB sequence, averaged over ``n_rounds``."""
    lines = [
        "    mov r15, 40000",
        "    mov r1, 0",
        f"    mov r2, {n_rounds}",
        "Outer_Loop:",
        "    QNopReg r15",
    ]
    for name in pulse_names:
        lines.append(f"    Pulse {{q{qubit}}}, {name}")
        lines.append("    Wait 4")
    lines.append(f"    MPG {{q{qubit}}}, 300")
    lines.append(f"    MD {{q{qubit}}}")
    lines.append("    addi r1, r1, 1")
    lines.append("    bne r1, r2, Outer_Loop")
    lines.append("    halt")
    return "\n".join(lines)


def rb_sequence_job(config: MachineConfig, qubit: int,
                    pulse_names: list[str], n_rounds: int,
                    length: int, replay: bool = True) -> JobSpec:
    """One RB sequence as a service job (pooled machine, dcu K = 1).

    Declaring ``n_rounds`` opts the raw-asm spec into the round-replay
    fast path: each random sequence records two rounds and vectorizes
    the rest.
    """
    return JobSpec(
        config=config,
        asm=_sequence_asm(qubit, pulse_names, n_rounds),
        n_rounds=n_rounds,
        params={"length": length, "pulses": len(pulse_names)},
        label=f"rb m={length}",
        replay=replay,
        cal_qubit=qubit,
    )


def draw_sequences(seed: int, lengths: list[int], sequences_per_length: int
                   ) -> list[tuple[int, list[str]]]:
    """The sweep's random Clifford sequences as (length, pulses) pairs.

    Drawn once per experiment from ``derive_rng(seed, "rb_sequences")``
    (the historical stream), so results are reproducible and the same
    circuits can be applied to every qubit of a multi-qubit run.
    """
    group = clifford_group()
    rng = derive_rng(seed, "rb_sequences")
    sequences = []
    for m in lengths:
        for _ in range(sequences_per_length):
            indices = [int(rng.integers(len(group))) for _ in range(m)]
            recovery = group.recovery(indices)
            pulses: list[str] = []
            for idx in indices:
                pulses.extend(group[idx].pulses)
            pulses.extend(group[recovery].pulses)
            if not pulses:
                pulses = ["I"]
            sequences.append((m, pulses))
    return sequences


@register_experiment
class RBExperiment(Experiment):
    """Randomized benchmarking: fitted error per Clifford per qubit."""

    name = "rb"
    target_arity = 1
    defaults = {"lengths": None, "sequences_per_length": 3, "n_rounds": 32,
                "seed": 0, "fixed_offset": 0.5, "replay": True}

    def resolve(self) -> None:
        if self.params["lengths"] is None:
            self.params["lengths"] = [1, 4, 10, 20, 40, 70]
        self.params["lengths"] = [int(m) for m in self.params["lengths"]]
        self._sequences = draw_sequences(self.params["seed"],
                                         self.params["lengths"],
                                         self.params["sequences_per_length"])

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        (qubit,) = target
        return [rb_sequence_job(self.config, qubit, pulses,
                                self.params["n_rounds"], m,
                                replay=self.params["replay"])
                for m, pulses in self._sequences]

    def _fit(self, lengths: list[int], survival: list[float]) -> tuple:
        lengths_arr = np.asarray(lengths, dtype=float)
        survival_arr = np.asarray(survival)
        fit = fit_rb_decay(lengths_arr, survival_arr,
                           fixed_offset=self.params["fixed_offset"])
        return lengths_arr, survival_arr, fit

    def analyze_target(self, jobs, target: Target) -> RBResult:
        spl = self.params["sequences_per_length"]
        survival = []
        per_length = [jobs[i:i + spl] for i in range(0, len(jobs), spl)]
        for group_jobs in per_length:
            # survival of |0> = 1 - P(|1>)
            survival.append(float(np.mean([1.0 - job.normalized[0]
                                           for job in group_jobs])))
        lengths_arr, survival_arr, fit = self._fit(self.params["lengths"],
                                                   survival)
        return RBResult(lengths=lengths_arr, survival=survival_arr, fit=fit,
                        pulses_per_clifford=(
                            clifford_group().average_pulses_per_clifford()))

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        # Group arrived sequences by their length-group position in the
        # sweep (index // sequences_per_length), so a complete slice
        # reproduces analyze_target's per-length means exactly.
        spl = self.params["sequences_per_length"]
        groups: dict[int, list] = {}
        for index, job in indexed_jobs:
            groups.setdefault(index // spl, []).append(job)
        lengths = [self.params["lengths"][g] for g in sorted(groups)]
        survival = [float(np.mean([1.0 - job.normalized[0]
                                   for job in groups[g]]))
                    for g in sorted(groups)]
        # fit_rb_decay needs three lengths.  Mid-sweep, a free offset makes
        # 3 parameters, so wait for a fourth (a pinned one leaves 2); a
        # complete sweep fits as analyze does.
        free = 2 if self.params["fixed_offset"] is not None else 3
        if len(lengths) < 3 or (len(lengths) <= free
                                and len(indexed_jobs) < len(self._sequences)):
            return None
        _, _, fit = self._fit(lengths, survival)
        return {"error_per_clifford": fit.error_per_clifford,
                "p": fit.p, "amplitude": fit.amplitude, "offset": fit.offset}

    def summarize_target(self, result: RBResult, target: Target) -> str:
        return (f"error per Clifford {result.error_per_clifford:.2e} "
                f"(p = {result.fit.p:.5f}, "
                f"{result.pulses_per_clifford:.2f} pulses/Clifford)")

