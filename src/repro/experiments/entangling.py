"""Entangling experiments: CZ calibration, Bell pairs, GHZ registers.

The flux/CZ workload class of the paper's two-qubit path (Section 7's
flux-channel CTPGs; DiCarlo et al. and Mariantoni et al. center the same
scenarios): every experiment here addresses a multi-qubit *target
register* and analyzes **correlated** outcomes — each round discriminates
every register qubit (multiplexed readout, one statistic per qubit in
stream order), and jobs carry the joint-outcome histogram
(:attr:`~repro.service.job.JobResult.joint_counts`) built against each
qubit's own readout calibration.

* ``cz_calibration`` — conditional-oscillation tune-up: a recovery pulse
  of swept phase on the target qubit, with the control prepared in |0>
  or |1>, maps the CZ conditional phase as the offset between the two
  fitted oscillations (ideally pi).
* ``bell`` — prepare |Phi+> with Y90 + CNOT (mY90 / CZ / Y90), measure
  in the ZZ/XX/YY product bases, and estimate parity correlations and
  the fidelity lower bound (1 + <ZZ> + <XX> - <YY>) / 4.
* ``ghz`` — the chained-CNOT GHZ ladder over an arbitrary-width
  register; the joint histogram gives the population term
  P(0...0) + P(1...1) and the all-agree fraction.

Register jobs take the round-replay fast path by default
(``repro.core.replay.ReplayPlan``, one width-w register read once per
round): rounds 1-2 run through the full event kernel while the
joint-outcome Markov chain is recorded and verified, the rest replay as
vectorized multiplexed-readout batches, and a cached plan replays every
round — bit-identical with replay off, so serial/process/fleet backends
stay interchangeable through the usual pure-function-of-the-spec
contract.  Pass ``replay=False`` (a shared
experiment param) to force the full event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.experiments.base import (Experiment, Target, register_experiment,
                                    target_label)
from repro.pulse.envelopes import gaussian
from repro.service import JobSpec, LUTUpload
from repro.service.job import JobResult, derive_job_seed
from repro.utils.errors import CalibrationError, ConfigurationError

#: Scratch operation name for the swept-phase recovery pulse.
CZ_RECOVERY_OP = "CZREC"

#: Product bases the Bell experiment measures, with the single-qubit
#: rotation that maps each onto the computational (Z) readout: measuring
#: Z after mY90 measures X, after X90 measures Y.
BASIS_ROTATIONS = {"ZZ": None, "XX": "mY90", "YY": "X90"}


def _register_set(target: Target) -> str:
    return "{" + ", ".join(f"q{q}" for q in target) + "}"


def _cnot_lines(control: int, target: int) -> list[str]:
    """The CNOT expansion of the flux path: mY90 - CZ - Y90 on the target."""
    return [
        f"    Pulse {{q{target}}}, mY90",
        "    Wait 4",
        f"    Pulse {{q{control}, q{target}}}, CZ",
        "    Wait 8",
        f"    Pulse {{q{target}}}, Y90",
        "    Wait 4",
    ]


def _register_asm(body_lines: list[str], target: Target,
                  n_rounds: int) -> str:
    """The shared averaging scaffold around one round's gate sequence.

    Mirrors the single-qubit experiments' loop: a ~200 us passive-reset
    idle (40000 cycles >> T1) starts each round, the round ends with one
    multiplexed measurement of the whole register (every pulse slot stays
    on the 4-cycle SSB grid so rounds are phase-periodic), and a counted
    branch closes the loop.
    """
    register = _register_set(target)
    lines = [
        "    mov r15, 40000",
        "    mov r1, 0",
        f"    mov r2, {n_rounds}",
        "Outer_Loop:",
        "    QNopReg r15",
        *body_lines,
        f"    MPG {register}, 300",
        f"    MD {register}",
        "    addi r1, r1, 1",
        "    bne r1, r2, Outer_Loop",
        "    halt",
    ]
    return "\n".join(lines)


def stream_position(target: Target, qubit: int) -> int:
    """A register qubit's position in the measurement stream (and its
    bit in the joint histogram): the assembler sorts multiplexed ``MD``
    sets ascending, so stream order is ascending-qubit order."""
    return sorted(target).index(qubit)


def _joint_total(counts: np.ndarray) -> float:
    """A joint histogram's total, guarded against empty streams.

    A calibration or measurement stream with zero complete rounds must
    surface as a clear :class:`CalibrationError`, not as NaN marginals
    silently poisoning the parity estimators downstream.
    """
    total = float(counts.sum())
    if total <= 0:
        raise CalibrationError(
            "joint-outcome histogram has zero total counts; cannot "
            "normalize outcome probabilities")
    return total


def _marginal_one(counts: np.ndarray, position: int) -> float:
    """P(register qubit at ``position`` read 1) from a joint histogram."""
    counts = np.asarray(counts, dtype=float)
    total = _joint_total(counts)
    indices = np.arange(len(counts))
    return float(counts[(indices >> position) & 1 == 1].sum() / total)


def _correlation(counts: np.ndarray) -> float:
    """Two-qubit parity correlator <AB> = P(even) - P(odd)."""
    counts = np.asarray(counts, dtype=float)
    total = _joint_total(counts)
    indices = np.arange(len(counts))
    parity = ((indices & 1) ^ ((indices >> 1) & 1))
    return float((counts[parity == 0].sum() - counts[parity == 1].sum())
                 / total)


class EntanglingExperiment(Experiment):
    """Shared shape of the register experiments: flux-aware defaults.

    Defaults to the config's first wired flux pair (or the first
    ``target_arity`` wired qubits when the config wires no flux lines —
    the auto-built session config adds them from the requested targets);
    validates that multiplexed readout of each target can be frequency-
    discriminated (pairwise-distinct per-qubit IFs).
    """

    def default_targets(self) -> tuple[Target, ...]:
        if self.config.flux_pairs:
            return (tuple(self.config.flux_pairs[0]),)
        width = self.target_arity or 2
        return (tuple(self.config.qubits[:width]),)

    @classmethod
    def default_session_targets(cls, params=None) -> tuple[Target, ...]:
        """A canonical register so ``session.run("bell")`` just works:
        the session wires qubits 0..width-1 with their flux chain."""
        width = cls.target_arity or 3
        return (tuple(range(width)),)

    def validate_target(self, target: Target) -> None:
        super().validate_target(target)
        ifs = [self.config.readout_for(q).f_if_hz for q in target]
        if len(set(ifs)) != len(ifs):
            raise ConfigurationError(
                f"multiplexed readout of target {target} needs pairwise-"
                f"distinct per-qubit IF frequencies, got {ifs}; wire "
                "config.readouts with staggered f_if_hz (Session does this "
                "automatically for register targets)")

    def _spec(self, target: Target, body_lines: list[str], *,
              label: str, params: dict, seed: int | None = None,
              uploads: tuple[LUTUpload, ...] = ()) -> JobSpec:
        """One correlated register job around the shared loop scaffold.

        ``cal_targets`` is declared in DCU *stream* order: the assembler
        sorts a multiplexed ``MD`` qubit set ascending, so one register
        measurement streams statistics in ascending-qubit order whatever
        the target's own ordering (use :func:`stream_position` to find a
        register qubit's histogram bit).
        """
        n_rounds = int(self.params["n_rounds"])
        return JobSpec(
            config=self.config,
            asm=_register_asm(body_lines, target, n_rounds),
            k_points=len(target),
            n_rounds=n_rounds,
            uploads=uploads,
            params=params,
            label=label,
            replay=bool(self.params.get("replay", True)),
            cal_targets=tuple(sorted(target)),
            seed=seed,
        )


# -- CZ conditional-oscillation calibration ----------------------------------


@dataclass
class CZCalibrationResult:
    """Conditional-oscillation tune-up of one flux pair."""

    target: Target
    phases: np.ndarray             #: recovery-pulse phases (rad)
    population: np.ndarray         #: target P(|1>), shape (2, n_phases)
    conditional_phase_rad: float   #: fitted oscillation offset (ideal: pi)
    visibility: float              #: mean fitted oscillation amplitude * 2
    control_fidelity: float        #: P(control read back as prepared)

    def phase_error_rad(self) -> float:
        return abs(float(np.angle(np.exp(1j * (self.conditional_phase_rad
                                               - np.pi)))))


def _fit_oscillation_phase(phases: np.ndarray,
                           population: np.ndarray) -> tuple[float, float, float]:
    """Closed-form least squares of P = a cos(phi) + b sin(phi) + c.

    Returns (phase offset, amplitude, offset); deterministic (no
    iterative optimizer), and exact for the evenly-spaced default sweep.
    """
    phases = np.asarray(phases, dtype=float)
    design = np.column_stack([np.cos(phases), np.sin(phases),
                              np.ones_like(phases)])
    (a, b, c), *_ = np.linalg.lstsq(design, np.asarray(population, dtype=float),
                                    rcond=None)
    return float(np.arctan2(b, a)), float(np.hypot(a, b)), float(c)


@register_experiment
class CZCalibrationExperiment(EntanglingExperiment):
    """CZ conditional oscillation: recovery-phase sweep per control state.

    One job per (control state, recovery phase): prepare the control in
    |0> or |1> (an ``I`` pulse keeps the timing grid identical), put the
    target on the equator, apply the flux CZ, rotate the target back with
    a recovery pulse of swept I/Q phase, and read the register jointly.
    The target's oscillation acquires the CZ conditional phase when the
    control is excited; the fitted offset between the two branches is the
    calibration readout (ideally pi).
    """

    name = "cz_calibration"
    target_arity = 2
    defaults = {"phases": None, "n_rounds": 48, "replay": True}

    def resolve(self) -> None:
        if self.params["phases"] is None:
            self.params["phases"] = np.linspace(0.0, 2.0 * np.pi, 9,
                                                endpoint=False)
        self.params["phases"] = np.asarray(self.params["phases"], dtype=float)
        if len(self.params["phases"]) < 3:
            raise ConfigurationError(
                "the oscillation fit needs at least 3 recovery phases")

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        control, tgt = target
        amp90 = float(self.config.calibration.amplitude_for(np.pi / 2))
        cal = self.config.calibration
        specs = []
        for state in (0, 1):
            prep = "X180" if state else "I"
            for phase in self.params["phases"]:
                samples = gaussian(cal.duration_ns, cal.sigma_ns, amp90,
                                   phase=float(phase))
                body = [
                    f"    Pulse {{q{control}}}, {prep}",
                    "    Wait 4",
                    f"    Pulse {{q{tgt}}}, Y90",
                    "    Wait 4",
                    f"    Pulse {{q{control}, q{tgt}}}, CZ",
                    "    Wait 8",
                    f"    Pulse {{q{tgt}}}, {CZ_RECOVERY_OP}",
                    "    Wait 4",
                ]
                specs.append(self._spec(
                    target, body,
                    label=(f"cz {target_label(target)} "
                           f"ctrl={state} phi={phase:.3f}"),
                    params={"control": state, "phase": float(phase)},
                    uploads=(LUTUpload.from_array(tgt, CZ_RECOVERY_OP,
                                                  samples),),
                ))
        return specs

    def _branch_populations(self, indexed_jobs,
                            target: Target) -> dict[int, list]:
        pos_target = stream_position(target, target[1])
        branches: dict[int, list] = {0: [], 1: []}
        for _, job in indexed_jobs:
            p_target = _marginal_one(job.joint_counts, pos_target)
            branches[job.params["control"]].append(
                (job.params["phase"], p_target, job))
        return branches

    def _fit(self, indexed_jobs, target: Target) -> dict | None:
        branches = self._branch_populations(indexed_jobs, target)
        if any(len(branch) < 3 for branch in branches.values()):
            return None
        pos_control = stream_position(target, target[0])
        fits = {}
        control_ok = []
        for state, points in branches.items():
            phases = np.asarray([p for p, _, _ in points])
            pops = np.asarray([pop for _, pop, _ in points])
            fits[state] = _fit_oscillation_phase(phases, pops)
            for _, _, job in points:
                p_ctrl = _marginal_one(job.joint_counts, pos_control)
                control_ok.append(p_ctrl if state else 1.0 - p_ctrl)
        delta = fits[1][0] - fits[0][0]
        conditional = float(np.mod(delta, 2.0 * np.pi))
        return {
            "conditional_phase_rad": conditional,
            "phase_offset_0": fits[0][0],
            "phase_offset_1": fits[1][0],
            "visibility": float(fits[0][1] + fits[1][1]),
            "control_fidelity": float(np.mean(control_ok)),
        }

    def analyze_target(self, jobs: list[JobResult],
                       target: Target) -> CZCalibrationResult:
        fit = self._fit(list(enumerate(jobs)), target)
        phases = self.params["phases"]
        n = len(phases)
        pos_target = stream_position(target, target[1])
        population = np.asarray(
            [[_marginal_one(job.joint_counts, pos_target)
              for job in jobs[:n]],
             [_marginal_one(job.joint_counts, pos_target)
              for job in jobs[n:]]])
        return CZCalibrationResult(
            target=target,
            phases=np.asarray(phases),
            population=population,
            conditional_phase_rad=fit["conditional_phase_rad"],
            visibility=fit["visibility"],
            control_fidelity=fit["control_fidelity"],
        )

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        return self._fit(indexed_jobs, target)

    def summarize_target(self, result: CZCalibrationResult,
                         target: Target) -> str:
        return (f"conditional phase {result.conditional_phase_rad:.3f} rad "
                f"(error {result.phase_error_rad():.3f} rad, "
                f"visibility {result.visibility:.2f}, "
                f"control fidelity {result.control_fidelity:.3f})")


# -- Bell parity / correlation ------------------------------------------------


@dataclass
class BellResult:
    """Joint-readout tomographic slice of one prepared |Phi+> pair."""

    target: Target
    bases: tuple[str, ...]
    counts: dict[str, np.ndarray]     #: per-basis joint histogram (len 4)
    correlations: dict[str, float]    #: per-basis parity correlator
    fidelity: float | None            #: (1 + ZZ + XX - YY) / 4 when complete
    n_shots: int                      #: rounds aggregated per basis


@register_experiment
class BellExperiment(EntanglingExperiment):
    """Bell-state preparation with parity readout in product bases.

    Prepares |Phi+> = (|00> + |11>)/sqrt(2) via Y90 on the first register
    qubit and the mY90/CZ/Y90 CNOT expansion onto the second, rotates
    both qubits into the requested product basis, and reads the register
    jointly.  <ZZ>/<XX> approach +1 and <YY> approaches -1, giving the
    standard fidelity lower bound (1 + <ZZ> + <XX> - <YY>) / 4.
    """

    name = "bell"
    target_arity = 2
    defaults = {"bases": ("ZZ", "XX", "YY"), "n_rounds": 64, "repeats": 1,
                "replay": True}

    def resolve(self) -> None:
        bases = tuple(str(b).upper() for b in self.params["bases"])
        unknown = set(bases) - set(BASIS_ROTATIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown Bell bases {sorted(unknown)}; choose from "
                f"{sorted(BASIS_ROTATIONS)}")
        if len(set(bases)) != len(bases):
            raise ConfigurationError(f"duplicate Bell bases in {bases}")
        self.params["bases"] = bases
        if int(self.params["repeats"]) < 1:
            raise ConfigurationError("repeats must be at least 1")

    def _prep_lines(self, target: Target) -> list[str]:
        first, second = target
        return [
            f"    Pulse {{q{first}}}, Y90",
            "    Wait 4",
            *_cnot_lines(first, second),
        ]

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        specs = []
        for basis in self.params["bases"]:
            rotation = BASIS_ROTATIONS[basis]
            for repeat in range(int(self.params["repeats"])):
                body = list(self._prep_lines(target))
                if rotation is not None:
                    body += [
                        f"    Pulse {_register_set(target)}, {rotation}",
                        "    Wait 4",
                    ]
                specs.append(self._spec(
                    target, body,
                    label=f"bell {target_label(target)} {basis}#{repeat}",
                    params={"basis": basis, "repeat": repeat},
                    seed=derive_job_seed(self.config.seed, repeat),
                ))
        return specs

    def _reduce(self, indexed_jobs) -> dict:
        counts = {basis: np.zeros(4, dtype=np.int64)
                  for basis in self.params["bases"]}
        arrived = {basis: 0 for basis in self.params["bases"]}
        for _, job in indexed_jobs:
            basis = job.params["basis"]
            counts[basis] = counts[basis] + np.asarray(job.joint_counts,
                                                       dtype=np.int64)
            arrived[basis] += 1
        correlations = {basis: _correlation(c)
                        for basis, c in counts.items() if c.sum() > 0}
        repeats = int(self.params["repeats"])
        complete = (set(self.params["bases"]) >= {"ZZ", "XX", "YY"}
                    and all(arrived[b] == repeats
                            for b in ("ZZ", "XX", "YY")))
        fidelity = None
        if complete:
            fidelity = float((1.0 + correlations["ZZ"] + correlations["XX"]
                              - correlations["YY"]) / 4.0)
        return {"counts": counts, "correlations": correlations,
                "fidelity": fidelity}

    def analyze_target(self, jobs: list[JobResult],
                       target: Target) -> BellResult:
        reduced = self._reduce(list(enumerate(jobs)))
        n_shots = int(self.params["n_rounds"]) * int(self.params["repeats"])
        return BellResult(
            target=target,
            bases=self.params["bases"],
            counts=reduced["counts"],
            correlations=reduced["correlations"],
            fidelity=reduced["fidelity"],
            n_shots=n_shots,
        )

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        if not indexed_jobs:
            return None
        reduced = self._reduce(indexed_jobs)
        return {"correlations": reduced["correlations"],
                "fidelity": reduced["fidelity"]}

    def stderr_target(self, indexed_jobs, target: Target) -> dict | None:
        """Binomial error bars on the parity correlators and fidelity.

        A parity correlator over N rounds has variance (1 - <AB>^2)/N;
        the fidelity bound combines the three independent bases as
        sqrt(var_ZZ + var_XX + var_YY)/4.
        """
        if not indexed_jobs:
            return None
        reduced = self._reduce(indexed_jobs)
        errors: dict[str, float] = {}
        variances: dict[str, float] = {}
        for basis, histogram in reduced["counts"].items():
            total = float(np.asarray(histogram).sum())
            if total <= 0:
                continue
            corr = reduced["correlations"][basis]
            variance = max(1.0 - corr * corr, 0.0) / total
            variances[basis] = variance
            errors[f"corr_{basis}"] = float(np.sqrt(variance))
        if not errors:
            return None
        if reduced["fidelity"] is not None:
            errors["fidelity"] = float(np.sqrt(sum(
                variances[b] for b in ("ZZ", "XX", "YY"))) / 4.0)
        return errors

    def summarize_target(self, result: BellResult, target: Target) -> str:
        correlations = ", ".join(f"<{b}> = {result.correlations[b]:+.3f}"
                                 for b in result.bases)
        fidelity = ("n/a" if result.fidelity is None
                    else f"{result.fidelity:.3f}")
        return f"fidelity >= {fidelity} ({correlations})"


# -- GHZ register -------------------------------------------------------------


@dataclass
class GHZResult:
    """Joint-outcome statistics of one GHZ ladder."""

    target: Target
    counts: np.ndarray        #: joint histogram, length 2**width
    n_shots: int
    p_all_zero: float
    p_all_one: float

    @property
    def population(self) -> float:
        """The GHZ population term P(0...0) + P(1...1) (ideal: 1)."""
        return self.p_all_zero + self.p_all_one


@register_experiment
class GHZExperiment(EntanglingExperiment):
    """GHZ ladder over an arbitrary-width register.

    Y90 on the head qubit, then a CNOT chain down the register (each link
    rides its flux pair), then one multiplexed readout of everything.
    ``repeats`` independent jobs (derived per-repeat run seeds) aggregate
    into a single joint histogram whose P(0...0) + P(1...1) population
    term witnesses the two-branch structure.
    """

    name = "ghz"
    target_arity = None  #: any width >= 2 (validated below)
    defaults = {"n_rounds": 32, "repeats": 2, "replay": True}

    def default_targets(self) -> tuple[Target, ...]:
        if self.config.flux_pairs:
            chain = [self.config.flux_pairs[0][0]]
            for pair in self.config.flux_pairs:
                if pair[0] == chain[-1]:
                    chain.append(pair[1])
            if len(chain) > 1:
                return (tuple(chain),)
        return (tuple(self.config.qubits[:3]),)

    def validate_target(self, target: Target) -> None:
        if len(target) < 2:
            raise ConfigurationError(
                f"a GHZ register needs at least 2 qubits, got {target}")
        super().validate_target(target)

    def resolve(self) -> None:
        if int(self.params["repeats"]) < 1:
            raise ConfigurationError("repeats must be at least 1")

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        body = [f"    Pulse {{q{target[0]}}}, Y90", "    Wait 4"]
        for control, tgt in zip(target, target[1:]):
            body += _cnot_lines(control, tgt)
        return [self._spec(
            target, body,
            label=f"ghz {target_label(target)} #{repeat}",
            params={"repeat": repeat, "width": len(target)},
            seed=derive_job_seed(self.config.seed, repeat),
        ) for repeat in range(int(self.params["repeats"]))]

    def _reduce(self, indexed_jobs, target: Target) -> dict:
        width = len(target)
        counts = np.zeros(1 << width, dtype=np.int64)
        for _, job in indexed_jobs:
            counts = counts + np.asarray(job.joint_counts, dtype=np.int64)
        total = int(counts.sum())
        p0 = float(counts[0] / total) if total else 0.0
        p1 = float(counts[-1] / total) if total else 0.0
        return {"counts": counts, "n_shots": total,
                "p_all_zero": p0, "p_all_one": p1}

    def analyze_target(self, jobs: list[JobResult],
                       target: Target) -> GHZResult:
        reduced = self._reduce(list(enumerate(jobs)), target)
        return GHZResult(target=target, **reduced)

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        if not indexed_jobs:
            return None
        reduced = self._reduce(indexed_jobs, target)
        return {"population": reduced["p_all_zero"] + reduced["p_all_one"],
                "p_all_zero": reduced["p_all_zero"],
                "p_all_one": reduced["p_all_one"]}

    def stderr_target(self, indexed_jobs, target: Target) -> dict | None:
        """Binomial error bar on the population term P(0..0) + P(1..1)."""
        if not indexed_jobs:
            return None
        reduced = self._reduce(indexed_jobs, target)
        total = float(reduced["n_shots"])
        if total <= 0:
            return None
        population = reduced["p_all_zero"] + reduced["p_all_one"]
        variance = max(population * (1.0 - population), 0.0) / total
        return {"population": float(np.sqrt(variance))}

    def summarize_target(self, result: GHZResult, target: Target) -> str:
        return (f"population P(0..0)+P(1..1) = {result.population:.3f} "
                f"(P0 = {result.p_all_zero:.3f}, "
                f"P1 = {result.p_all_one:.3f}, {result.n_shots} shots)")


def ghz_width_config(width: int, seed: int = 0,
                     if_step_hz: float | None = None) -> MachineConfig:
    """A chain-wired machine config for an N-qubit GHZ ladder.

    Convenience for benchmarks and scripts that bypass the session's
    auto-wiring: qubits 0..width-1, nearest-neighbor flux pairs, and
    the same staggered-IF multiplexed readouts the session builds.
    """
    from repro.readout.multiplex import staggered_readouts

    if width < 2:
        raise ConfigurationError("a GHZ chain needs at least 2 qubits")
    return MachineConfig(
        qubits=tuple(range(width)),
        flux_pairs=tuple((q, q + 1) for q in range(width - 1)),
        readouts=staggered_readouts(width, if_step_hz),
        seed=seed,
        trace_enabled=False,
    )
