"""The Session facade: one object that runs declarative experiments.

A :class:`Session` owns (or wraps) an
:class:`~repro.service.scheduler.ExperimentService` and resolves
experiment names through the :data:`~repro.experiments.base.REGISTRY`,
handling config, seed, and backend plumbing in one place::

    from repro.session import Session

    with Session(backend="process", workers=4) as session:
        result = session.run("rabi", qubits=(0, 1), n_rounds=32)

    # Register targets: entangling experiments address qubit tuples, and
    # the session auto-wires the flux (CZ) topology they need.
    with Session() as session:
        bell = session.run("bell", targets=((0, 1),), n_rounds=64)

    # Non-blocking: submit now, stream incremental fits as points land.
    future = session.submit_experiment("rabi", amplitudes=amps)
    for job, estimate in future.stream(fit=True):
        print(job.label, estimate.values)
    result = future.result()

``run`` executes synchronously; ``submit_experiment`` returns an
:class:`ExperimentFuture` whose ``stream`` drives the experiment's
incremental :meth:`~repro.experiments.base.Experiment.update` in
*completion* order — long sweeps refine their fit live instead of
fitting once at the end — while ``result`` always analyzes the
submission-ordered sweep, so outputs stay bit-identical across backends.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Iterator

import repro.experiments  # noqa: F401 — populates the experiment registry
from repro.core.config import MachineConfig
from repro.experiments.base import (
    REGISTRY,
    Estimate,
    Experiment,
    estimate_artifact,
    normalize_targets,
)
from repro.readout.multiplex import DEFAULT_IF_STEP_HZ, staggered_readouts
from repro.service.faults import FaultPlan
from repro.service.job import JobFuture, JobResult, SweepResult
from repro.service.policy import RetryPolicy
from repro.service.scheduler import ExperimentService
from repro.utils.errors import ConfigurationError


def merge_flux_pairs(targets, pairs_for=None) -> tuple[tuple[int, int], ...]:
    """Union of the flux (CZ) lines a set of targets needs.

    ``pairs_for`` maps one target to its required pairs and defaults to
    :meth:`Experiment.flux_pairs_for` (the register's linear chain);
    pairs are deduplicated orientation-insensitively, matching the
    machine's frozenset-keyed flux-channel routing.
    """
    if pairs_for is None:
        pairs_for = Experiment.flux_pairs_for
    pairs: dict[frozenset, tuple[int, int]] = {}
    for target in targets:
        for pair in pairs_for(target):
            pairs.setdefault(frozenset(pair), tuple(pair))
    return tuple(pairs.values())


class ExperimentFuture:
    """Handle to one submitted experiment: stream, estimate, result.

    Wraps the sweep's :class:`~repro.service.job.JobFuture`\\ s plus the
    experiment's incremental-fit state.  Designed for a single consumer:
    ``stream`` (or ``result``, which drains the stream) should be driven
    from one thread.
    """

    def __init__(self, experiment: Experiment, futures: list[JobFuture],
                 service: ExperimentService, t0: float | None = None):
        self.experiment = experiment
        self.futures = list(futures)
        self.service = service
        self._t0 = t0 if t0 is not None else time.perf_counter()
        self._index = {id(f): i for i, f in enumerate(self.futures)}
        self._consumed: set[int] = set()
        self.state = experiment.new_state()
        self.sweep: SweepResult | None = None
        self._result = None
        self._analyzed = False

    def done(self) -> bool:
        return all(future.done() for future in self.futures)

    def stream(self, on_result: Callable[[JobResult], None] | None = None,
               on_estimate: Callable[[Estimate], None] | None = None,
               fit: bool | None = None,
               timeout: float | None = None
               ) -> Iterator[tuple[JobResult, Estimate | None]]:
        """Yield ``(job_result, estimate)`` in completion order.

        Drains only this experiment's submissions (scoped, so concurrent
        experiments on one service don't steal each other's results).
        ``fit`` controls whether each arrival refines the incremental
        fit; it defaults to True exactly when ``on_estimate`` is given,
        since per-point fits cost real time on long sweeps.  Each job is
        yielded at most once across all ``stream``/``result`` calls, so
        resuming after a partially consumed stream drains only the
        remainder.  Failed jobs re-raise here.
        """
        fit = fit if fit is not None else on_estimate is not None
        remaining = [f for f in self.futures if id(f) not in self._consumed]
        for future in self.service.iter_futures(remaining, timeout=timeout):
            self._consumed.add(id(future))
            result = future.result()
            index = self._index[id(future)]
            if fit:
                estimate = self.experiment.update(self.state, result,
                                                  index=index)
            else:
                self.state.add(index, result)
                estimate = None
            if on_result is not None:
                on_result(result)
            if on_estimate is not None and estimate is not None:
                on_estimate(estimate)
            yield result, estimate

    def estimate(self) -> Estimate:
        """The current incremental fit over everything streamed so far."""
        return self.experiment.estimate_state(self.state)

    def result(self, on_result: Callable[[JobResult], None] | None = None,
               on_estimate: Callable[[Estimate], None] | None = None,
               timeout: float | None = None):
        """Block for the sweep and return the experiment's analysis.

        Streams any not-yet-consumed completions first (firing the hooks),
        then fits the submission-ordered sweep exactly once.
        """
        if not self._analyzed:
            for _ in self.stream(on_result=on_result,
                                 on_estimate=on_estimate, timeout=timeout):
                pass
            jobs = [future.result() for future in self.futures]
            self.sweep = SweepResult.from_jobs(
                jobs, time.perf_counter() - self._t0, self.service.backend)
            self._result = self.experiment.analyze(self.sweep)
            # Persist the final fit (values + error bars) on the sweep so
            # ``SweepResult.save`` artifacts carry the estimate alongside
            # the raw jobs.
            self.sweep.estimate = estimate_artifact(
                self.experiment.estimate_state(self.state))
            self._analyzed = True
        return self._result

    def summary(self) -> str:
        """Human-readable lines for the (blocking) result."""
        return self.experiment.summary(self.result())

    def stage_stats(self) -> dict:
        """Per-stage latency rollup of the (blocking) result's sweep.

        Maps each lifecycle stage field (queue-wait, compile, execute,
        total) to count/total/mean/p50/p95/max over the sweep's jobs —
        see :func:`repro.service.job.stage_rollup`.
        """
        self.result()
        return self.sweep.stage_stats


class Session:
    """Config/seed/backend plumbing in one place, experiments by name.

    ``service`` wraps an existing
    :class:`~repro.service.scheduler.ExperimentService` (it stays the
    caller's to close); otherwise the session builds and owns one from
    ``backend``/``workers``.  ``config`` pins one machine configuration
    for every run; without it the session builds a
    :class:`MachineConfig` wiring the requested ``qubits`` (traces off,
    ``seed`` applied) and reuses it for later runs of those qubits.
    """

    def __init__(self, config: MachineConfig | None = None, *,
                 backend: str = "serial", workers: int | None = None,
                 seed: int | None = None,
                 service: ExperimentService | None = None,
                 telemetry: bool = False, sim_trace: bool = False,
                 retry: RetryPolicy | None = None,
                 faults: FaultPlan | None = None,
                 job_timeout: float | None = None,
                 fleet_workers=None):
        self._own_service = service is None
        if service is not None and (retry is not None or faults is not None
                                    or job_timeout is not None
                                    or fleet_workers is not None):
            # A wrapped service already armed its engine; failure
            # semantics must be configured where the engine is built.
            raise ConfigurationError(
                "pass retry=/faults=/job_timeout=/fleet_workers= to the "
                "ExperimentService itself when wrapping one with service=")
        self.service = (service if service is not None
                        else ExperimentService(backend=backend,
                                               workers=workers,
                                               retry=retry, faults=faults,
                                               job_timeout=job_timeout,
                                               fleet_workers=fleet_workers))
        self.config = config
        self.seed = seed
        # ``telemetry`` marks every submitted spec so results carry
        # lifecycle spans and their worker's name; ``sim_trace``
        # additionally enables the machine's TraceRecorder on auto-built
        # configs so exported traces include simulation-time events.
        # Neither touches the RNG streams: averages stay bit-identical.
        self.telemetry = telemetry
        self.sim_trace = sim_trace
        self._configs: dict[tuple, MachineConfig] = {}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the session's own service (wrapped ones stay up)."""
        if self._own_service:
            self.service.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- experiment plumbing -------------------------------------------------

    @property
    def backend(self) -> str:
        return self.service.backend

    def experiments(self) -> tuple[str, ...]:
        """Registered experiment names."""
        return REGISTRY.names()

    #: IF spacing between neighboring wired qubits on an auto-built
    #: multiplexed config (Hz).
    MUX_IF_STEP_HZ = DEFAULT_IF_STEP_HZ

    #: Auto-built configs a session keeps; past this they are dropped.
    MAX_CONFIGS = 64

    def config_for(self, qubits=None, *, targets=None,
                   flux_pairs=None) -> MachineConfig:
        """The machine config a run will use (session-pinned or built).

        Without a pinned config the session builds one wiring every
        requested qubit (traces off, ``seed`` applied), and is
        flux-topology-aware for register targets: each multi-qubit
        target's linear chain of flux (CZ) lines is wired (``flux_pairs``
        overrides the chain default), and per-qubit readout parameters
        get staggered intermediate frequencies so multiplexed readout of
        a register can be frequency-discriminated.  Single-qubit-target
        runs keep the historic shared-readout config bit-for-bit.  A
        built config is kept and returned again for the same targets,
        flux pairs, ``seed`` and ``sim_trace``: configs are frozen, so
        every sweep of a target shares one object and its key.
        """
        if self.config is not None:
            return self.config
        targets = normalize_targets(targets, qubits)
        if targets is None:
            flux_pairs = None
        elif flux_pairs is None:
            flux_pairs = merge_flux_pairs(targets)
        else:
            flux_pairs = tuple(tuple(pair) for pair in flux_pairs)
        key = (targets, flux_pairs, self.seed, self.sim_trace)
        config = self._configs.get(key)
        if config is None:
            if len(self._configs) >= self.MAX_CONFIGS:
                self._configs.clear()
            config = self._configs[key] = self._build_config(targets,
                                                             flux_pairs)
        return config

    def _build_config(self, targets, flux_pairs) -> MachineConfig:
        kwargs: dict = {"trace_enabled": self.sim_trace}
        if targets is not None:
            wired: dict[int, None] = {}
            for target in targets:
                for q in target:
                    wired.setdefault(q)
            kwargs["qubits"] = tuple(wired)
            if flux_pairs:
                kwargs["flux_pairs"] = flux_pairs
            if any(len(target) > 1 for target in targets):
                kwargs["readouts"] = staggered_readouts(
                    len(kwargs["qubits"]), self.MUX_IF_STEP_HZ)
        if self.seed is not None:
            kwargs["seed"] = int(self.seed)
        return MachineConfig(**kwargs)

    def create(self, name: str, *, qubits=None, targets=None,
               **params) -> Experiment:
        """Instantiate a registered experiment bound to this session's config.

        With neither ``targets`` nor ``qubits`` named, the experiment
        class's canonical default register (if any) drives the
        auto-built config, so ``session.run("bell")`` wires a flux pair
        without the caller spelling one out.  A session-pinned config
        instead lets the experiment pick defaults from the wiring.
        """
        cls = REGISTRY.get(name)
        normalized = normalize_targets(targets, qubits)
        if normalized is None and self.config is None:
            normalized = cls.default_session_targets(params)
        flux_pairs = None
        if normalized is not None:
            flux_pairs = merge_flux_pairs(normalized, cls.flux_pairs_for)
        config = self.config_for(targets=normalized, flux_pairs=flux_pairs)
        return cls(config=config, targets=normalized, params=params)

    # -- execution -----------------------------------------------------------

    def submit_experiment(self, name: str, *, qubits=None, targets=None,
                          **params) -> ExperimentFuture:
        """Build the experiment's specs and fan them out; non-blocking."""
        return self.submit(self.create(name, qubits=qubits, targets=targets,
                                       **params))

    def submit(self, experiment: Experiment) -> ExperimentFuture:
        """Submit an already-built experiment instance.

        Specs are submitted outside the service-wide stream
        (``stream=False``): the returned future owns its jobs, so a
        concurrent ``service.iter_completed()`` consumer never sees them.
        The session's ``telemetry`` flag lands on copies: the experiment
        keeps its own specs as built.
        """
        specs = experiment.build_specs()
        if self.telemetry:
            specs = [spec if spec.telemetry
                     else dataclasses.replace(spec, telemetry=True)
                     for spec in specs]
        t0 = time.perf_counter()
        futures = [self.service.submit(spec, stream=False) for spec in specs]
        return ExperimentFuture(experiment, futures, self.service, t0)

    def run(self, name: str, *, qubits=None, targets=None,
            on_result: Callable[[JobResult], None] | None = None,
            on_estimate: Callable[[Estimate], None] | None = None,
            **params):
        """Run one experiment to completion and return its analysis.

        ``targets`` names register targets (``((0, 1),)`` runs one
        two-qubit experiment on the 0-1 pair); ``qubits`` is the legacy
        single-qubit spelling (``(0, 1)`` runs two single-qubit
        targets).  ``on_result`` observes each job in completion order;
        ``on_estimate`` additionally turns on per-point incremental
        fitting and observes each refined :class:`Estimate`.
        """
        future = self.submit_experiment(name, qubits=qubits, targets=targets,
                                        **params)
        return future.result(on_result=on_result, on_estimate=on_estimate)

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        return self.service.stats()
