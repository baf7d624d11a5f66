"""Declarative experiment protocol and registry.

An :class:`Experiment` separates the three phases a lab stack keeps
distinct — *definition* (:meth:`~Experiment.build_specs` turns parameters
into :class:`~repro.service.job.JobSpec`\\ s), *execution* (owned by
:class:`repro.session.Session` over the orchestration service), and
*analysis* (:meth:`~Experiment.analyze` fits the finished sweep, while
:meth:`~Experiment.update` refines an incremental :class:`Estimate` as
results stream back in completion order).

Experiments address *target registers*: a target is a tuple of chip
qubits operated on together — ``(2,)`` for a single-qubit calibration,
``(0, 1)`` for a CZ/Bell pair, ``(0, 1, 2)`` for a GHZ chain.  Every
experiment implements the per-target trio ``build_target_specs`` /
``analyze_target`` (both abstract) / ``estimate_target``: each sees one
target's slice of the sweep, and the base class fans a ``targets`` tuple
out into concatenated spec groups, so every experiment batches over
registers for free (``session.run("bell", targets=((0, 1), (1, 2)))``
returns a ``{target: result}`` mapping).

A single-qubit experiment is the 1-tuple case: it unpacks
``(qubit,) = target``, and ``session.run("rabi", qubits=(0, 1))`` means
two single-qubit targets.

The module-level :data:`REGISTRY` maps names to classes; experiment
modules self-register via :func:`register_experiment`, and the generic
``repro exp <name>`` CLI subcommand and :meth:`Session.run` both resolve
names through it.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping

import numpy as np

from repro.core.config import MachineConfig
from repro.core.quma import QuMA, RunResult
from repro.service.job import JobResult, JobSpec, SweepResult
from repro.utils.errors import CalibrationError, ConfigurationError

#: A target register: the tuple of chip qubits one experiment instance
#: operates on together (length 1 = the single-qubit special case).
Target = tuple[int, ...]

#: Exceptions an incremental fit may raise on a not-yet-constrained
#: partial sweep; :meth:`Experiment.update` maps them to a None estimate.
FIT_ERRORS = (CalibrationError, RuntimeError, TypeError, ValueError)


def normalize_qubits(qubits) -> tuple[int, ...] | None:
    """Accept an int, an iterable of ints, or None."""
    if qubits is None:
        return None
    if isinstance(qubits, int):
        return (qubits,)
    qubits = tuple(int(q) for q in qubits)
    if not qubits:
        raise ConfigurationError("qubits must name at least one qubit")
    if len(set(qubits)) != len(qubits):
        raise ConfigurationError(f"duplicate qubit labels in {qubits}")
    return qubits


def normalize_targets(targets=None, qubits=None) -> tuple[Target, ...] | None:
    """Canonical target tuple from either addressing style.

    ``qubits`` is the legacy spelling: an int or a flat iterable of ints,
    each becoming its own single-qubit target.  ``targets`` is the
    register spelling: an iterable whose elements are ints (1-tuple
    targets) or qubit tuples.  Exactly one may be given; both None means
    "experiment default".  A qubit may appear in several targets (pair
    sweeps share chain qubits), but not twice within one target, and no
    target may repeat verbatim.
    """
    if targets is not None and qubits is not None:
        raise ConfigurationError("pass either targets= or qubits=, not both")
    if targets is None:
        flat = normalize_qubits(qubits)
        if flat is None:
            return None
        return tuple((q,) for q in flat)
    if isinstance(targets, int):
        return ((int(targets),),)
    normalized: list[Target] = []
    for entry in targets:
        if isinstance(entry, int):
            target = (int(entry),)
        else:
            target = tuple(int(q) for q in entry)
        if not target:
            raise ConfigurationError("a target must name at least one qubit")
        if len(set(target)) != len(target):
            raise ConfigurationError(
                f"duplicate qubit labels within target {target}")
        normalized.append(target)
    if not normalized:
        raise ConfigurationError("targets must name at least one register")
    if len(set(normalized)) != len(normalized):
        raise ConfigurationError(f"duplicate targets in {tuple(normalized)}")
    return tuple(normalized)


def target_key(target: Target):
    """Mapping key for one target's result.

    Single-qubit targets collapse to their bare int label — the historic
    ``{qubit: result}`` shape of multi-qubit runs — while wider registers
    key by the full tuple.
    """
    return target[0] if len(target) == 1 else target


def target_label(target: Target) -> str:
    """Human-readable register label: ``q2`` or ``q0-1``."""
    return "q" + "-".join(str(q) for q in target)


@dataclass
class ExperimentRun:
    """The raw run behind a one-job result (AllXY, coherence sweeps).

    ``machine`` is None for every run that came through the service:
    pooled machines never leave the pool (a worker process's machines
    never leave the worker), so the readout calibration points travel
    as the ``s_ground``/``s_excited`` scalars instead.  perfbench's
    analysis digest hashes this type's name and field names.
    """

    machine: QuMA | None
    result: RunResult
    averages: np.ndarray  #: data collection unit output, length K
    s_ground: float | None = None
    s_excited: float | None = None


@dataclass
class Estimate:
    """A live fit over the results streamed in so far.

    ``per_target`` maps each target register to its current fitted
    parameters (a plain dict of scalars, experiment-specific) or None
    while the partial sweep cannot constrain a fit yet.  Once
    ``complete`` is True the values agree with the one-shot
    :meth:`Experiment.analyze` fit on the same sweep — the convergence
    contract the tests pin.
    """

    n_results: int                       #: results observed so far
    n_specs: int                         #: sweep size
    per_target: dict[Target, dict | None] = field(default_factory=dict)
    #: Optional per-target standard errors on the fitted values (same
    #: keys as the target's ``per_target`` dict, or None when the
    #: experiment provides no error model) — see
    #: :meth:`Experiment.stderr_target`.
    stderr: dict[Target, dict | None] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.n_results >= self.n_specs

    @property
    def values(self) -> dict | None:
        """The *single-target* convenience view.

        Returns the lone target's fitted parameters (or None while
        unconstrained).  A multi-target estimate raises instead of
        silently returning an arbitrary entry — index ``per_target``
        explicitly when several registers are in flight.
        """
        if not self.per_target:
            return None
        if len(self.per_target) > 1:
            raise ConfigurationError(
                "Estimate.values is only defined for single-target runs; "
                f"this estimate holds {tuple(self.per_target)} — use "
                "per_target[target]")
        return next(iter(self.per_target.values()))


class ExperimentState:
    """Accumulates streamed results for incremental fitting.

    Results are keyed by their submission index within the experiment's
    sweep, so completion-order arrival reconstructs submission order and
    the final incremental fit sees exactly the arrays ``analyze`` sees.
    """

    def __init__(self, experiment: "Experiment"):
        self.experiment = experiment
        self.n_specs = len(experiment.build_specs())
        self.results: dict[int, JobResult] = {}
        #: Last computed fit per target (carried forward between updates).
        self.estimates: dict[Target, dict | None] = {
            target: None for target in experiment.targets}
        #: Last computed error bars per target (same carry-forward rule).
        self.stderrs: dict[Target, dict | None] = {
            target: None for target in experiment.targets}

    def add(self, index: int, result: JobResult) -> int:
        """Record one result; returns its resolved submission index."""
        if index is None:
            index = len(self.results)  # serial arrival fallback
        if not 0 <= index < self.n_specs:
            raise ConfigurationError(
                f"result index {index} outside sweep of {self.n_specs}")
        self.results[index] = result
        return index

    def target_results(self, target: Target) -> list[tuple[int, JobResult]]:
        """This target's arrived results as (local index, result), ordered."""
        start, stop = self.experiment.target_slice(target)
        return [(i - start, self.results[i])
                for i in range(start, stop) if i in self.results]

    def __len__(self) -> int:
        return len(self.results)


class Experiment(abc.ABC):
    """One declarative experiment: parameters in, specs out, fits back.

    Subclasses set :attr:`name` (the registry key), :attr:`defaults`
    (every accepted parameter with its default — unknown keyword
    parameters are rejected at construction), and :attr:`target_arity`
    (qubits per target register: 1 for the single-qubit calibrations, 2
    for pair experiments, None for variable-width registers), then
    implement the per-target trio: ``build_target_specs`` and
    ``analyze_target`` (abstract; a single-qubit experiment unpacks
    ``(qubit,) = target``) and, for live fits, ``estimate_target``.
    ``config`` defaults to a fresh :class:`MachineConfig`;
    ``targets`` defaults to the config's first wired qubit, and every
    requested qubit must be wired (with every required flux pair wired
    for multi-qubit targets).
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = "?"
    #: Accepted parameters and their defaults; subclasses override.
    defaults: ClassVar[Mapping[str, object]] = {}
    #: Qubits per target register (None = variable width, validated by
    #: :meth:`validate_target`).
    target_arity: ClassVar[int | None] = 1

    def __init__(self, config: MachineConfig | None = None,
                 qubits: Iterable[int] | int | None = None,
                 params: Mapping | None = None,
                 targets: Iterable | None = None):
        self.config = config if config is not None else MachineConfig()
        targets = normalize_targets(targets, qubits)
        self.targets = (targets if targets is not None
                        else self.default_targets())
        for target in self.targets:
            self.validate_target(target)
        params = dict(params or {})
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for experiment "
                f"{self.name!r}; accepted: {sorted(self.defaults)}")
        self.params = {**self.defaults, **params}
        self._specs: list[JobSpec] | None = None
        self._slices: dict[Target, tuple[int, int]] = {}
        self.resolve()

    @property
    def qubits(self) -> tuple[int, ...]:
        """Every addressed qubit, in first-appearance order across targets."""
        seen: dict[int, None] = {}
        for target in self.targets:
            for q in target:
                seen.setdefault(q)
        return tuple(seen)

    # -- target validation ---------------------------------------------------

    def default_targets(self) -> tuple[Target, ...]:
        """Targets used when the caller names none (config in hand).

        The single-qubit default is the config's first wired qubit;
        entangling experiments override (e.g. the first wired flux pair).
        """
        return ((self.config.qubits[0],),)

    @classmethod
    def default_session_targets(cls, params=None
                                ) -> tuple[Target, ...] | None:
        """Targets a session assumes when auto-building a config.

        Called *before* any config exists, so it cannot inspect wiring:
        None (the single-qubit default) lets the fresh config keep its
        historic first-wired-qubit shape; entangling experiments return
        a canonical register (e.g. ``((0, 1),)``) so the session wires
        the flux topology and multiplexed readout it needs.  ``params``
        are the run's keyword parameters, for wrappers whose shape
        depends on one (the mitigated wrapper's inner experiment); the
        other experiments ignore them.
        """
        return None

    @classmethod
    def flux_pairs_for(cls, target: Target) -> tuple[tuple[int, int], ...]:
        """Flux (CZ) lines one target register needs: the linear chain.

        Entangling experiments act along the register order, so the
        default requirement is every consecutive pair.  Single-qubit
        targets need none.  Subclasses with other topologies override.
        """
        return tuple(zip(target, target[1:]))

    def validate_target(self, target: Target) -> None:
        """Reject targets the experiment or the machine cannot serve."""
        arity = self.target_arity
        if arity is not None and len(target) != arity:
            raise ConfigurationError(
                f"experiment {self.name!r} takes {arity}-qubit targets, "
                f"got {target}")
        for qubit in target:
            if qubit not in self.config.qubits:
                raise ConfigurationError(
                    f"qubit {qubit} is not wired in the config "
                    f"(wired: {self.config.qubits})")
        wired = {frozenset(pair) for pair in self.config.flux_pairs}
        for pair in self.flux_pairs_for(target):
            if frozenset(pair) not in wired:
                raise ConfigurationError(
                    f"target {target} needs a flux (CZ) line for qubit pair "
                    f"{tuple(pair)}, but the config wires "
                    f"{self.config.flux_pairs or 'none'}")

    # -- definition ----------------------------------------------------------

    def resolve(self) -> None:
        """Fill parameter defaults that depend on the config (hook)."""

    @abc.abstractmethod
    def build_target_specs(self, target: Target) -> list[JobSpec]:
        """The sweep's jobs for one target register, in submission order."""

    def build_specs(self) -> list[JobSpec]:
        """All targets' specs concatenated, cached on first call."""
        if self._specs is None:
            specs: list[JobSpec] = []
            for target in self.targets:
                start = len(specs)
                specs.extend(self.build_target_specs(target))
                self._slices[target] = (start, len(specs))
            self._specs = specs
        return list(self._specs)

    def target_slice(self, target: Target) -> tuple[int, int]:
        """This target's (start, stop) index range within the sweep."""
        self.build_specs()
        return self._slices[target]

    def target_of(self, index: int) -> Target:
        """The target whose spec group contains this submission index."""
        self.build_specs()
        for target, (start, stop) in self._slices.items():
            if start <= index < stop:
                return target
        raise ConfigurationError(
            f"index {index} outside the sweep of {len(self._specs)}")

    # -- analysis ------------------------------------------------------------

    @abc.abstractmethod
    def analyze_target(self, jobs: list[JobResult], target: Target):
        """One target's full result from its submission-ordered jobs."""

    def estimate_target(self, indexed_jobs: list[tuple[int, JobResult]],
                        target: Target) -> dict | None:
        """Fit parameters from a *partial* target slice (``(index,
        result)`` pairs in submission order); None when unconstrained.
        On a complete slice this must agree with :meth:`analyze_target`'s
        fit.  The default provides no live fit.
        """
        return None

    def stderr_target(self, indexed_jobs: list[tuple[int, JobResult]],
                      target: Target) -> dict | None:
        """Optional standard errors for :meth:`estimate_target`'s values.

        Same call shape as ``estimate_target``; keys should match the
        fitted dict's (a subset is fine).  None — the default — means
        the experiment provides no error model; experiments with simple
        shot-noise statistics (Bell correlations, GHZ populations)
        override.
        """
        return None

    def analyze(self, sweep: SweepResult):
        """The experiment's result from a finished sweep.

        Returns the bare per-target result for a single-target run and a
        mapping when several registers were swept — keyed by the bare
        qubit label for 1-tuple targets (the historic shape) and by the
        register tuple otherwise (see :func:`target_key`).
        """
        jobs = list(sweep.jobs)
        results = {}
        for target in self.targets:
            start, stop = self.target_slice(target)
            results[target_key(target)] = self.analyze_target(
                jobs[start:stop], target)
        if len(self.targets) == 1:
            return results[target_key(self.targets[0])]
        return results

    # -- incremental fitting -------------------------------------------------

    def new_state(self) -> ExperimentState:
        return ExperimentState(self)

    def update(self, state: ExperimentState, job_result: JobResult,
               index: int | None = None) -> Estimate:
        """Fold one streamed result into ``state``; return the live fit.

        ``index`` is the result's submission index within the sweep (the
        :class:`~repro.session.ExperimentFuture` supplies it); without it
        results are assumed to arrive in submission order.  Only the
        arriving result's own target is refitted — the other targets'
        estimates carry forward, so a wide machine doesn't pay one
        curve fit per register per arrival.
        """
        index = state.add(index, job_result)
        target = self.target_of(index)
        state.estimates[target] = self._fit_target_state(state, target)
        state.stderrs[target] = self._fit_target_state(state, target,
                                                       self.stderr_target)
        return Estimate(n_results=len(state), n_specs=state.n_specs,
                        per_target=dict(state.estimates),
                        stderr=dict(state.stderrs))

    def estimate_state(self, state: ExperimentState) -> Estimate:
        """The current :class:`Estimate`, refitting every target."""
        for target in self.targets:
            state.estimates[target] = self._fit_target_state(state, target)
            state.stderrs[target] = self._fit_target_state(
                state, target, self.stderr_target)
        return Estimate(n_results=len(state), n_specs=state.n_specs,
                        per_target=dict(state.estimates),
                        stderr=dict(state.stderrs))

    def _fit_target_state(self, state: ExperimentState, target: Target,
                          fit=None) -> dict | None:
        arrived = state.target_results(target)
        if not arrived:
            return None
        try:
            with warnings.catch_warnings():
                # Partial sweeps routinely trip optimizer warnings
                # (e.g. unconstrained covariance); the estimate is
                # advisory, so keep the stream quiet.
                warnings.simplefilter("ignore")
                return (fit if fit is not None
                        else self.estimate_target)(arrived, target)
        except FIT_ERRORS:
            return None

    # -- presentation --------------------------------------------------------

    def summarize_target(self, result, target: Target) -> str:
        """One line describing one target's result (CLI output)."""
        return repr(result)

    def summary(self, result) -> str:
        """Human-readable lines for :meth:`analyze`'s return value."""
        if len(self.targets) == 1:
            return self.summarize_target(result, self.targets[0])
        return "\n".join(
            f"{target_label(target)}: "
            f"{self.summarize_target(result[target_key(target)], target)}"
            for target in self.targets)


def _jsonable(value):
    """Recursively strip numpy types so a fit dict JSON-serializes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def estimate_artifact(estimate: Estimate) -> dict:
    """An :class:`Estimate` as a plain JSON-serializable dict.

    The shape :meth:`~repro.service.job.SweepResult.save` embeds under
    the artifact's ``estimate`` key: per-target fitted values plus their
    optional standard errors, with targets spelled as qubit lists.
    """
    return {
        "n_results": estimate.n_results,
        "n_specs": estimate.n_specs,
        "complete": estimate.complete,
        "per_target": [{
            "target": [int(q) for q in target],
            "fit": _jsonable(fit),
            "stderr": _jsonable(estimate.stderr.get(target)),
        } for target, fit in estimate.per_target.items()],
    }


class ExperimentRegistry:
    """Name -> :class:`Experiment` class mapping with decorator support."""

    def __init__(self):
        self._classes: dict[str, type[Experiment]] = {}

    def register(self, cls: type[Experiment]) -> type[Experiment]:
        """Register a class under its :attr:`~Experiment.name` (decorator)."""
        name = cls.name
        if not name or name == "?":
            raise ConfigurationError(
                f"{cls.__name__} needs a class-level name to register")
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"experiment {name!r} already registered to "
                f"{existing.__name__}")
        self._classes[name] = cls
        return cls

    def get(self, name: str) -> type[Experiment]:
        try:
            return self._classes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown experiment {name!r}; registered: "
                f"{self.names()}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._classes))

    def create(self, name: str, config: MachineConfig | None = None,
               qubits=None, params: Mapping | None = None,
               targets=None) -> Experiment:
        """Instantiate a registered experiment."""
        return self.get(name)(config=config, qubits=qubits, params=params,
                              targets=targets)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self):
        return iter(self.names())


#: The process-wide default registry (the CLI and Session resolve here).
REGISTRY = ExperimentRegistry()

#: Decorator registering an experiment class in :data:`REGISTRY`.
register_experiment: Callable[[type[Experiment]], type[Experiment]]
register_experiment = REGISTRY.register
