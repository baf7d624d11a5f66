"""Job model: one compiled-program execution and its collected results.

A :class:`JobSpec` is a self-contained, picklable description of one run —
program (high-level or raw assembly), machine configuration, scratch LUT
uploads, Q-control-store microprograms, and the per-job run seed.  An
executor backend turns specs into :class:`JobResult`\\ s, handed back
through :class:`JobFuture`\\ s; a batch of results aggregates into a
:class:`SweepResult`.

Specs also carry their *route*: ``executor="quma"`` (the default) runs
through the full QuMA event-kernel stack, while ``executor="baseline"``
evaluates the spec's :class:`~repro.baseline.spec.ExperimentSpec` against
the APS2 cost model (see ``repro.baseline.jobs``).  The dispatcher keys
off this field, so one batch can interleave both.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.compiler.codegen import CompilerOptions
from repro.compiler.program import QuantumProgram
from repro.core.config import MachineConfig
from repro.core.quma import RunResult
from repro.obs.metrics import summarize_values
from repro.obs.spans import JobTelemetry, rebase_job_spans
from repro.service.policy import RetryPolicy
from repro.utils.errors import ConfigurationError, JobCancelled

if TYPE_CHECKING:  # avoid a runtime service <-> baseline import cycle
    from repro.baseline.spec import ExperimentSpec

#: Known values of :attr:`JobSpec.executor` (dispatch route keys).
EXECUTORS = ("quma", "baseline")


def derive_job_seed(root: int, index: int) -> int:
    """Deterministic, well-mixed per-job seed from a sweep root seed.

    Stable across processes and platforms (numpy's SeedSequence entropy
    mixing), so worker-pool and serial execution hand every job the same
    seed regardless of scheduling order.
    """
    return int(np.random.SeedSequence([int(root), int(index)])
               .generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class LUTUpload:
    """A scratch waveform uploaded to one qubit's drive CTPG before a run.

    The mechanism calibration sweeps use on the control box: the operation
    name is defined in the machine's table (idempotently) and the samples
    land in the LUT under the resulting codeword.  Samples are stored as a
    plain tuple so specs stay picklable and content-hashable.
    """

    qubit: int
    op_name: str
    samples: tuple[complex, ...]

    @classmethod
    def from_array(cls, qubit: int, op_name: str,
                   samples: np.ndarray) -> "LUTUpload":
        return cls(qubit=qubit, op_name=op_name,
                   samples=tuple(np.asarray(samples).tolist()))


@dataclass
class JobSpec:
    """Everything needed to execute one program on one machine setup.

    For QuMA jobs exactly one of ``program`` (lowered through the
    compiler) or ``asm`` (raw QIS+QuMIS text) must be given.  ``seed`` is
    the *run* seed for the stochastic streams (device projection, readout
    noise, classical jitter); the machine's construction artifacts
    (readout calibration) always derive from ``config.seed``, so jobs with
    different run seeds still share pooled machines.

    Baseline jobs (``executor="baseline"``) instead carry a ``baseline``
    cost-model spec and no program — see :func:`repro.baseline.jobs.baseline_job`.
    """

    config: MachineConfig | None = None
    program: QuantumProgram | None = None
    asm: str | None = None
    compiler_options: CompilerOptions = field(default_factory=CompilerOptions)
    #: Run seed; None means ``config.seed`` (legacy single-run behavior).
    seed: int | None = None
    #: Measurements per round for raw-``asm`` jobs (program jobs derive K).
    k_points: int = 1
    #: Averaging rounds for raw-``asm`` jobs (program jobs derive N from
    #: ``compiler_options``).  Declaring it enables the replay fast path.
    n_rounds: int | None = None
    uploads: tuple[LUTUpload, ...] = ()
    #: Q-control-store microprograms installed before the run, as
    #: ``(name, n_params, body_asm)`` tuples.  Their names become callable
    #: mnemonics in raw ``asm`` (assembled to ``QCall``), and both names
    #: and bodies are part of the compile-cache fingerprint.
    microprograms: tuple[tuple[str, int, str], ...] = ()
    #: Sweep-point coordinates, carried through to the result.
    params: dict = field(default_factory=dict)
    label: str = ""
    #: Allow the round-replay fast path (ineligible programs fall back to
    #: full simulation automatically; results are bit-identical either way).
    replay: bool = True
    #: Qubit whose readout calibration points (``s_ground``/``s_excited``)
    #: accompany this job's averages; None keeps the config's first wired
    #: qubit (the single-qubit legacy behavior).  Multi-qubit experiments
    #: set it per spec so each qubit normalizes against its own readout.
    cal_qubit: int | None = None
    #: Target register for correlated readout: the qubits measured each
    #: round, in DCU stream order (so ``k_points`` must equal the register
    #: width).  When set, the result carries every listed qubit's
    #: calibration points plus the joint-outcome histogram over rounds
    #: (``JobResult.joint_counts``); ``cal_qubit`` defaults to the first
    #: entry.  None keeps the scalar single-qubit calibration behavior.
    cal_targets: tuple[int, ...] | None = None
    #: Dispatch route: ``"quma"`` (event-kernel simulation) or
    #: ``"baseline"`` (APS2 cost model).
    executor: str = "quma"
    #: Cost-model workload for ``executor="baseline"`` jobs.
    baseline: "ExperimentSpec | None" = None
    #: Collect per-stage lifecycle spans (and, when the machine runs with
    #: tracing enabled, the simulator trace) on the result's
    #: :class:`~repro.obs.spans.JobTelemetry`.  Off by default: the
    #: disabled path costs two extra clock reads per job and allocates
    #: nothing.  Turning it on never changes ``averages`` — the RNG
    #: streams are untouched (the telemetry parity suite pins this down).
    telemetry: bool = False
    #: Retry policy for transient failures; None falls back to the
    #: service default (or no retry).  Retries re-run the *same* spec —
    #: job execution is a pure function of the spec, so a retried job's
    #: result is bit-identical to a clean first attempt.
    retry: RetryPolicy | None = None
    #: Per-attempt wall-clock budget (seconds); None means unbounded.
    #: Enforced cooperatively at lifecycle-stage boundaries in-process
    #: (a :class:`~repro.utils.errors.JobTimeout` is retryable), and by
    #: the process backend, which kills and replaces a local worker
    #: whose job overstays its whole attempt budget.
    timeout: float | None = None

    def __post_init__(self):
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; choose from {EXECUTORS}")
        if self.executor == "baseline":
            if self.baseline is None:
                raise ConfigurationError(
                    "baseline jobs need baseline= (an ExperimentSpec)")
            if self.program is not None or self.asm is not None:
                raise ConfigurationError(
                    "baseline jobs carry a cost-model spec, not a program")
        else:
            if self.config is None:
                raise ConfigurationError("QuMA jobs need config=")
            if (self.program is None) == (self.asm is None):
                raise ConfigurationError(
                    "JobSpec needs exactly one of program= or asm=")
        if self.k_points < 1:
            raise ConfigurationError("k_points must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive (or None)")
        if (self.cal_qubit is not None and self.config is not None
                and self.cal_qubit not in self.config.qubits):
            raise ConfigurationError(
                f"cal_qubit {self.cal_qubit} is not wired "
                f"(wired: {self.config.qubits})")
        if self.cal_targets is not None:
            self.cal_targets = tuple(int(q) for q in self.cal_targets)
            if not self.cal_targets:
                raise ConfigurationError(
                    "cal_targets must name at least one qubit")
            if len(set(self.cal_targets)) != len(self.cal_targets):
                raise ConfigurationError(
                    f"duplicate qubits in cal_targets {self.cal_targets}")
            if self.config is not None:
                for q in self.cal_targets:
                    if q not in self.config.qubits:
                        raise ConfigurationError(
                            f"cal_targets qubit {q} is not wired "
                            f"(wired: {self.config.qubits})")
            if self.asm is not None and self.k_points != len(self.cal_targets):
                # Program jobs derive K at compile time; the executor
                # re-checks the resolved K against the register width.
                raise ConfigurationError(
                    f"correlated jobs collect one statistic per register "
                    f"qubit per round: k_points={self.k_points} does not "
                    f"match {len(self.cal_targets)}-qubit cal_targets")
        self.microprograms = tuple(
            (str(name), int(n_params), str(body))
            for name, n_params, body in self.microprograms)

    @property
    def run_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return self.config.seed if self.config is not None else 0


class JobFuture:
    """Handle to one submitted job, resolved when its backend finishes.

    A deliberately small, dependency-free future: thread-safe, resolvable
    exactly once, with completion callbacks (used by the service's
    ``iter_completed`` stream).  Callbacks run on whatever thread resolves
    the future — the submitting thread for the serial backend, a worker
    connection's reader thread otherwise — so they must be cheap and
    non-blocking.
    """

    def __init__(self, spec: JobSpec, index: int | None = None):
        self.spec = spec
        #: Submission index within the owning service (None for direct
        #: backend submissions).
        self.index = index
        #: Submitter-clock stamp (``perf_counter``) of job creation —
        #: the anchor for queue-wait latency and span rebasing.
        self.submitted_at = time.perf_counter()
        #: Internal exactly-once bookkeeping: set by the owning service's
        #: result streams when this future has been yielded by one, so no
        #: other stream (scoped or service-wide) yields it again.
        self.stream_collected = False
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["JobFuture"], None]] = []
        self._lock = threading.Lock()
        self._cancelled = False

    # -- resolution (backend side) ------------------------------------------

    def set_result(self, result: "JobResult") -> None:
        self._resolve(result, None)

    def set_exception(self, exception: BaseException) -> None:
        self._resolve(None, exception)

    def _resolve(self, result, exception) -> None:
        with self._lock:
            if self._done.is_set():
                if self._cancelled:
                    # The backend finished (or failed) a job whose future
                    # was already cancelled: the late outcome is dropped,
                    # the cancellation stands.
                    return
                raise RuntimeError("JobFuture already resolved")
            if result is not None:
                # Stamp queue-wait and rebase worker spans *before* the
                # event is set, so no consumer ever observes a result
                # with unanchored telemetry.
                self._finalize(result)
            self._result = result
            self._exception = exception
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for callback in callbacks:
            callback(self)

    def _finalize(self, result: "JobResult") -> None:
        """Anchor worker-side timings on this (submitting) process's clock.

        ``submitted_at`` and ``resolved_at`` are stamps on the submitter's
        monotonic clock; ``result.total_s`` is the job's worker-side wall
        time.  Their difference is the submit-to-start latency (queue
        wait + dispatch + pickling) — the number that is otherwise
        invisible for the worker backends.

        Duck-typed: futures carrying non-JobResult payloads (tests,
        ad-hoc uses of set_result) pass through untouched.
        """
        if not hasattr(result, "total_s"):
            return
        resolved_at = time.perf_counter()
        elapsed = resolved_at - self.submitted_at
        result.queue_wait_s = max(0.0, elapsed - result.total_s)
        telemetry = result.telemetry
        if telemetry is not None and not telemetry.rebased:
            telemetry.spans = rebase_job_spans(
                telemetry.spans, self.submitted_at, resolved_at,
                result.total_s)
            telemetry.rebased = True

    def cancel(self) -> bool:
        """Resolve this future with :class:`JobCancelled` if still pending.

        Returns True when the cancellation won the race.  Semantics per
        backend: the worker backends (process, fleet) never ship a job
        cancelled while held client-side; one already on a worker may
        still run there, but its late result is discarded (the future
        stays cancelled).  The serial backend resolves futures eagerly,
        so cancel always returns False there.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._cancelled = True
            self._result = None
            self._exception = JobCancelled(
                f"job {self.spec.label or self.spec.run_seed} cancelled")
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for callback in callbacks:
            callback(self)
        return True

    # -- consumption (caller side) ------------------------------------------

    def cancelled(self) -> bool:
        return self._cancelled

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved; True if it resolved within ``timeout``."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> "JobResult":
        """The job's result, blocking until available.

        Re-raises the job's exception if it failed; raises
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._done.wait(timeout):
            raise TimeoutError("job did not complete in time")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._done.wait(timeout):
            raise TimeoutError("job did not complete in time")
        return self._exception

    def add_done_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Call ``fn(self)`` once resolved (immediately if already done)."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)


@dataclass
class JobResult:
    """One job's collected statistics plus execution metadata."""

    averages: np.ndarray   #: data collection unit output, length K
    run: RunResult | None  #: None for results loaded from a sweep artifact
    s_ground: float        #: readout calibration point for |0>
    s_excited: float       #: readout calibration point for |1>
    seed: int
    params: dict
    label: str
    cache_hit: bool        #: assembled program came from the compile cache
    machine_reused: bool   #: machine came warm from the pool
    compile_s: float
    execute_s: float
    #: Worker-side wall time for the whole job (compile through collect).
    total_s: float = 0.0
    #: Submit-to-start latency on the submitter's clock, filled in when
    #: the job's future resolves (~0 for the serial backend; the queue +
    #: dispatch + pickling overhead on the worker backends).
    queue_wait_s: float = 0.0
    #: Spans / simulator trace / worker metrics snapshot, when the spec
    #: ran with ``telemetry=True`` (None otherwise — and for artifacts).
    telemetry: JobTelemetry | None = None
    replayed_rounds: int = 0   #: rounds served by the replay fast path
    replay_plan_hit: bool = False  #: replay plan came from the replay cache
    #: Why the job did NOT take the replay fast path (None when it did):
    #: an eligibility reason, a verify-mismatch reason, or "replay
    #: disabled by spec".  Surfaces silent fallbacks that would otherwise
    #: look like cache misses.
    replay_fallback_reason: str | None = None
    executor: str = "quma"     #: which dispatch route produced this result
    #: Total execution attempts this result cost (1 = first try clean).
    #: Retried attempts re-derive the identical job seed, so the payload
    #: is bit-identical whatever this counts.
    attempts: int = 1
    #: Correlated-readout register (mirrors ``JobSpec.cal_targets``).
    cal_targets: tuple[int, ...] | None = None
    #: Per-register-qubit calibration points, parallel to ``cal_targets``.
    s_grounds: tuple[float, ...] | None = None
    s_exciteds: tuple[float, ...] | None = None
    #: Joint-outcome histogram over full rounds: ``joint_counts[i]`` is
    #: the number of rounds whose discriminated bits encode ``i`` with
    #: ``cal_targets[j]`` as bit ``j`` (first register qubit = LSB).
    joint_counts: np.ndarray | None = None

    @property
    def normalized(self) -> np.ndarray:
        """Averages rescaled by the readout calibration points."""
        return (self.averages - self.s_ground) / (self.s_excited - self.s_ground)

    @property
    def register_normalized(self) -> np.ndarray:
        """Averages rescaled per register qubit (correlated jobs only).

        Position ``j`` normalizes against ``cal_targets[j]``'s own
        calibration points, so a multi-qubit round's statistics become
        per-qubit P(|1>) estimates.
        """
        if self.cal_targets is None:
            raise ConfigurationError(
                "register_normalized needs a correlated job (cal_targets)")
        grounds = np.asarray(self.s_grounds, dtype=float)
        exciteds = np.asarray(self.s_exciteds, dtype=float)
        return (self.averages - grounds) / (exciteds - grounds)

    @property
    def joint_probabilities(self) -> np.ndarray:
        """``joint_counts`` normalized to a probability vector."""
        if self.joint_counts is None:
            raise ConfigurationError(
                "joint_probabilities needs a correlated job (cal_targets)")
        counts = np.asarray(self.joint_counts, dtype=float)
        total = counts.sum()
        if total == 0:
            raise ConfigurationError("no complete round in joint_counts")
        return counts / total


#: Per-job timing fields aggregated into :attr:`SweepResult.stage_stats`.
STAGE_FIELDS = ("queue_wait_s", "compile_s", "execute_s", "total_s")


def stage_rollup(jobs: list["JobResult"], elapsed_s: float = 0.0) -> dict:
    """Per-stage latency rollups for a batch of jobs.

    Turns the per-job timings (which previously vanished from sweep
    artifacts) into ``{stage: {count, total, mean, p50, p95, max}}``
    plus the batch throughput, so "where did this sweep's wall-clock
    go?" is answerable from the artifact alone.
    """
    if not jobs:
        return {}
    stats = {name: summarize_values([getattr(job, name) for job in jobs])
             for name in STAGE_FIELDS}
    stats["throughput_jobs_per_s"] = (
        len(jobs) / elapsed_s if elapsed_s > 0 else 0.0)
    return stats


#: Artifact format tag written by :meth:`SweepResult.save`.
SWEEP_ARTIFACT_FORMAT = "repro.sweep/v1"

#: Per-job fields a sweep artifact records: every :class:`JobResult`
#: field but the simulator internals and the telemetry payload.
_PERSISTED = tuple(f for f in fields(JobResult)
                   if f.name not in ("run", "telemetry"))

#: JSON value -> field value, for fields JSON cannot carry natively.
_FROM_JSON = {
    "averages": lambda v: np.asarray(v, dtype=float),
    "joint_counts": lambda v: np.asarray(v, dtype=np.int64),
    "cal_targets": tuple,
    "s_grounds": tuple,
    "s_exciteds": tuple,
}


def _to_json(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _job_from_json(entry: dict) -> JobResult:
    """A loaded job; a field the artifact predates takes its default."""
    kwargs = {}
    for f in _PERSISTED:
        if f.name not in entry and f.default is not MISSING:
            continue
        value = entry[f.name]
        if value is not None and f.name in _FROM_JSON:
            value = _FROM_JSON[f.name](value)
        kwargs[f.name] = value
    return JobResult(run=None, **kwargs)


@dataclass
class SweepResult:
    """An ordered batch of job results with aggregate statistics."""

    jobs: list[JobResult]
    elapsed_s: float
    backend: str
    cache_stats: dict = field(default_factory=dict)
    pool_stats: dict = field(default_factory=dict)
    #: Per-stage latency rollups over the jobs (total/mean/p50/p95/max
    #: per stage, plus batch throughput) — see :func:`stage_rollup`.
    stage_stats: dict = field(default_factory=dict)
    #: JSON-ready snapshot of the experiment's final incremental fit
    #: (per-target values and error bars) — see
    #: :func:`repro.experiments.base.estimate_artifact`.  None for raw
    #: batch sweeps that never went through an experiment.
    estimate: dict | None = None

    @classmethod
    def from_jobs(cls, jobs: list[JobResult], elapsed_s: float,
                  backend: str) -> "SweepResult":
        """Assemble a sweep with batch aggregates derived from the jobs.

        The single construction path that `run_batch`,
        `ExperimentFuture.result` and the CLI's streamed batch share, so
        their results stay identical by construction: worker-local pools
        and caches never report back, hence the aggregates come from the
        job flags themselves.
        """
        reuses = sum(1 for job in jobs if job.machine_reused)
        hits = sum(1 for job in jobs if job.cache_hit)
        return cls(
            jobs=jobs,
            elapsed_s=elapsed_s,
            backend=backend,
            cache_stats={"hits": hits, "misses": len(jobs) - hits},
            pool_stats={"builds": len(jobs) - reuses, "reuses": reuses},
            stage_stats=stage_rollup(jobs, elapsed_s),
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def __getitem__(self, index: int) -> JobResult:
        return self.jobs[index]

    def averages(self) -> np.ndarray:
        """Job-major matrix of raw averages, shape (n_jobs, K)."""
        return np.stack([job.averages for job in self.jobs])

    def normalized(self) -> np.ndarray:
        """Job-major matrix of calibration-rescaled averages."""
        return np.stack([job.normalized for job in self.jobs])

    def param_values(self, key: str) -> list:
        """One sweep coordinate across jobs, in submission order."""
        return [job.params[key] for job in self.jobs]

    @property
    def jobs_per_second(self) -> float:
        return len(self.jobs) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.cache_hit) / len(self.jobs)

    @property
    def machine_reuse_rate(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.machine_reused) / len(self.jobs)

    @property
    def replay_rate(self) -> float:
        """Fraction of jobs that took the round-replay fast path."""
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.replayed_rounds > 0) / len(self.jobs)

    @property
    def replay_plan_hit_rate(self) -> float:
        """Fraction of jobs served by a cached (warm) replay plan."""
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.replay_plan_hit) / len(self.jobs)

    @property
    def total_retries(self) -> int:
        """Extra execution attempts spent recovering transient failures."""
        return sum(job.attempts - 1 for job in self.jobs)

    # -- artifacts -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the sweep as a shareable JSON artifact.

        Records every per-job :class:`JobResult` field (params, averages,
        calibration points, timings, hit flags) and the batch-level
        cache/pool/replay hit rates — the companion format to
        ``repro.core.config_io``'s machine configurations.  Simulator
        internals (the :class:`RunResult`) and telemetry payloads are
        deliberately not persisted; a loaded sweep supports all the
        array/aggregate accessors.
        """
        data = {
            "format": SWEEP_ARTIFACT_FORMAT,
            "backend": self.backend,
            "elapsed_s": self.elapsed_s,
            "cache_stats": dict(self.cache_stats),
            "pool_stats": dict(self.pool_stats),
            "stage_stats": dict(self.stage_stats),
            "estimate": self.estimate,
            "rates": {
                "cache_hit": self.cache_hit_rate,
                "machine_reuse": self.machine_reuse_rate,
                "replay": self.replay_rate,
                "replay_plan_hit": self.replay_plan_hit_rate,
            },
            "jobs": [{f.name: _to_json(getattr(job, f.name))
                      for f in _PERSISTED} for job in self.jobs],
        }
        with open(path, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        """Read an artifact written by :meth:`save`.

        Loaded jobs carry ``run=None`` (simulator internals are not part
        of the artifact); everything else — averages, normalization,
        params, timings, hit flags — round-trips exactly.
        """
        with open(path) as f:
            data = json.load(f)
        if data.get("format") != SWEEP_ARTIFACT_FORMAT:
            raise ConfigurationError(
                f"{path!r} is not a {SWEEP_ARTIFACT_FORMAT} artifact")
        jobs = [_job_from_json(entry) for entry in data["jobs"]]
        return cls(jobs=jobs, elapsed_s=data["elapsed_s"],
                   backend=data["backend"],
                   cache_stats=data.get("cache_stats", {}),
                   pool_stats=data.get("pool_stats", {}),
                   estimate=data.get("estimate"),
                   # Pre-telemetry artifacts carry no stage_stats block;
                   # rebuild it from the per-job timings they do carry.
                   stage_stats=data.get(
                       "stage_stats",
                       stage_rollup(jobs, data["elapsed_s"])))
