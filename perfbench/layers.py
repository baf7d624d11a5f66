"""Per-layer accounting by wrapping each layer's public functions.

The traced run replaces, for its duration only, the names listed in
:data:`PATCHES` *where their callers look them up* (``repro.core.replay``
imports ``adc_quantize`` into its own namespace, so that is the name
patched) with wrappers that time each call.  A call's self time is its
duration minus the time of the wrapped calls made inside it, so the
layers partition the time they cover.  Spans are kept in memory (up to
:data:`MAX_SPANS`; aggregates keep counting past the cap) and written
as one Chrome trace at the end.

The wrappers only observe: they call through with the same arguments,
so a traced sweep must produce byte-identical outputs, which the run
checks.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager

from stats import median

#: Spans retained for the Chrome trace; later calls are aggregated only.
MAX_SPANS = 50_000

#: Phases of a traced session: set-up covers session build and warm-up
#: sweeps, timed covers the measured sweeps.
SETUP, TIMED = "setup", "timed"


def _replay_kind(machine, n_rounds, plan=None):
    return "core.plan_build" if plan is None else "core.replay_draw"


#: ``(module, attribute path, span name)``; a callable span name picks
#: the name from the call's arguments, and a name ending in ``#`` is
#: counted but not timed (it runs too often for a span each).
PATCHES = (
    ("repro.core.config", "MachineConfig.fingerprint", "service.fingerprint"),
    ("repro.service.cache", "CompileCache.resolve", "service.resolve"),
    ("repro.service.pool", "MachinePool.acquire", "service.acquire"),
    ("repro.service.pool", "MachinePool.release", "service.release"),
    ("repro.core.quma", "QuMA.reset", "service.reset"),
    ("repro.experiments.base", "Experiment.build_specs",
     "experiments.build_specs"),
    ("repro.experiments.base", "Experiment.analyze", "experiments.analyze"),
    ("repro.mitigation.base", "confusion_matrix", "mitigation.confusion"),
    ("repro.service.cache", "compile_program", "compiler.codegen"),
    ("repro.service.cache", "assemble", "isa.assemble"),
    ("repro.core.quma", "QuMA.run", "core.run"),
    ("repro.service.backends.base", "run_with_replay", _replay_kind),
    ("repro.sim.kernel", "Simulator.at", "sim.at#"),
    ("repro.qubit.device", "QuantumDevice.play_waveform", "qubit.pulse"),
    ("repro.qubit.device", "QuantumDevice.measure_project", "qubit.measure"),
    ("repro.qubit.device", "QuantumDevice.advance_to", "qubit.advance"),
    ("repro.core.measurement", "transmitted_trace", "readout.synth"),
    ("repro.core.measurement", "multiplexed_trace", "readout.synth"),
    ("repro.core.replay", "transmitted_trace_batch", "readout.synth"),
    ("repro.core.replay", "synthesize_trace_batch", "readout.synth"),
    ("repro.readout.mdu", "adc_quantize", "readout.adc"),
    ("repro.core.replay", "adc_quantize", "readout.adc"),
    ("repro.readout.mdu", "integrate", "readout.integrate"),
    ("repro.core.replay", "integrate_batch", "readout.integrate"),
    ("repro.core.quma", "calibrate_readout", "readout.calibrate"),
    ("repro.mitigation.readout", "calibrate_readout", "readout.calibrate"),
)


def _resolve_owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with per-(phase, name) aggregates."""

    def __init__(self):
        self.phase = SETUP
        #: ``(phase, name) -> [calls, inclusive_s, self_s]``
        self.totals: dict[tuple[str, str], list] = {}
        #: ``(name, start_s, end_s, thread)`` in completion order.
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, elapsed: float, self_s: float) -> None:
        with self._lock:
            entry = self.totals.setdefault((self.phase, name), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_s

    def _timed(self, fn, name):
        tracer = self

        def timed(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                tracer._add(label, elapsed, elapsed - children[0])
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((label, start, end,
                                         threading.get_ident()))
                else:
                    tracer.dropped += 1
        return timed

    def _counted(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            tracer._add(name, 0.0, 0.0)
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def span(self, name: str):
        """A harness-level span (a whole sweep) around the wrapped calls."""
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, threading.get_ident()))

    # -- patching ------------------------------------------------------------

    def install(self, patches=PATCHES) -> None:
        for module, path, name in patches:
            owner, attr = _resolve_owner(module, path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            fn = getattr(owner, attr)
            if isinstance(name, str) and name.endswith("#"):
                wrapper = self._counted(fn, name[:-1])
            else:
                wrapper = self._timed(fn, name)
            wrapper.__wrapped__ = fn
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, patches=PATCHES):
        self.install(patches)
        try:
            yield self
        finally:
            self.restore()

    # -- queries -------------------------------------------------------------

    def calls(self, phase: str, *names: str) -> int:
        return sum(self.totals.get((phase, n), (0, 0.0, 0.0))[0]
                   for n in names)

    def self_s(self, phase: str, *names: str) -> float:
        return sum(self.totals.get((phase, n), (0, 0.0, 0.0))[2]
                   for n in names)

    def inclusive_s(self, phase: str, *names: str) -> float:
        return sum(self.totals.get((phase, n), (0, 0.0, 0.0))[1]
                   for n in names)

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        threads: dict[int, int] = {}
        events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                   "args": {"name": label}}]
        for name, start, end, ident in self.spans:
            tid = threads.setdefault(ident, len(threads) + 1)
            events.append({"ph": "X", "name": name,
                           "cat": name.split(".")[0], "pid": pid, "tid": tid,
                           "ts": (start - self.origin) * 1e6,
                           "dur": (end - start) * 1e6})
        return events


def write_chrome_trace(path, tracers: dict[str, Tracer], meta: dict) -> int:
    """One Chrome trace for every tracer of a run; returns the event count."""
    from repro.obs.export import validate_chrome_trace

    events: list[dict] = []
    for pid, (label, tracer) in enumerate(tracers.items(), start=1):
        events.extend(tracer.chrome_events(pid, label))
    data = {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": {**meta, "dropped_spans": {
                label: t.dropped for label, t in tracers.items()}}}
    count = validate_chrome_trace(data)
    with open(path, "w") as f:
        json.dump(data, f)
    return count


# -- per-layer metrics ---------------------------------------------------------

#: Metrics measured in the process that submits the sweeps; everything
#: else is measured where jobs execute (the traced serial replica of
#: the same specs, for the worker workload).
CLIENT_SIDE = frozenset({
    "service.compile_hit_ratio", "service.machine_reuse_ratio",
    "service.replay_plan_hit_ratio", "service.queue_wait_ms_p50",
    "service.transport_ms_per_job", "service.worker_busy_ratio",
    "service.retries", "service.failures",
    "experiments.build_specs_ms", "experiments.analyze_ms",
    "mitigation.confusion_ms", "mitigation.confusion_calls_per_sweep",
    "readout.calibrate_ms_per_sweep",
    "sim.sim_ns_per_round", "core.instructions_per_round",
})

_COLD = ("compiler.codegen", "isa.assemble", "core.plan_build")

#: Unit of every per-layer metric, in the order they are printed.
LAYER_UNITS = (
    ("service.fingerprint_calls_per_job", "count"),
    ("service.fingerprint_ms_per_job", "ms"),
    ("service.resolve_ms_per_job", "ms"),
    ("service.compile_hit_ratio", "ratio"),
    ("service.acquire_ms_per_job", "ms"),
    ("service.machine_reuse_ratio", "ratio"),
    ("service.replay_plan_hit_ratio", "ratio"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.transport_ms_per_job", "ms"),
    ("service.worker_busy_ratio", "ratio"),
    ("service.retries", "count"),
    ("service.failures", "count"),
    ("experiments.build_specs_ms", "ms"),
    ("experiments.analyze_ms", "ms"),
    ("mitigation.confusion_ms", "ms"),
    ("mitigation.confusion_calls_per_sweep", "count"),
    ("compiler.codegen_ms", "ms"),
    ("isa.assemble_ms", "ms"),
    ("core.plan_build_ms", "ms"),
    ("core.cold_calls_in_timed_sweeps", "count"),
    ("core.run_ms_per_round", "ms"),
    ("core.control_self_ms_per_round", "ms"),
    ("core.replay_draw_ms_per_round", "ms"),
    ("sim.events_per_round", "count"),
    ("sim.sim_ns_per_round", "ns"),
    ("core.instructions_per_round", "count"),
    ("qubit.pulse_ms_per_round", "ms"),
    ("qubit.measure_ms_per_round", "ms"),
    ("readout.synth_ms_per_round", "ms"),
    ("readout.adc_ms_per_round", "ms"),
    ("readout.integrate_ms_per_round", "ms"),
    ("readout.calibrate_ms", "ms"),
    ("readout.calibrate_ms_per_sweep", "ms"),
    ("trace_overhead_ratio", "ratio"),
    ("trace.sweeps", "count"),
    ("trace.jobs", "count"),
    ("trace.rounds", "count"),
    ("trace.replica_rounds", "count"),
)


def job_rounds(job) -> int:
    """Averaging rounds a job ran: measurements per DCU point."""
    return job.run.measurements // max(1, len(job.averages))


def _per(value: float, base: int) -> float:
    return value / base if base else 0.0


def layer_metrics(tracer: Tracer, jobs, sweeps: int, wall_s: float,
                  workers: int, counters: dict) -> dict[str, float]:
    """Every per-layer metric from one traced session.

    ``jobs`` are the timed sweeps' results, ``sweeps`` how many sweeps
    (or spec passes) produced them and ``wall_s`` their summed wall time;
    ``counters`` is the service's own metrics counter map.
    """
    T = TIMED
    n_jobs = len(jobs)
    rounds = sum(job_rounds(job) for job in jobs)
    ms = 1e3
    waits = [job.queue_wait_s * ms for job in jobs]
    return {
        "service.fingerprint_calls_per_job":
            _per(tracer.calls(T, "service.fingerprint"), n_jobs),
        "service.fingerprint_ms_per_job":
            _per(tracer.self_s(T, "service.fingerprint") * ms, n_jobs),
        "service.resolve_ms_per_job":
            _per(tracer.self_s(T, "service.resolve") * ms, n_jobs),
        "service.compile_hit_ratio":
            _per(sum(job.cache_hit for job in jobs), n_jobs),
        "service.acquire_ms_per_job": _per(tracer.self_s(
            T, "service.acquire", "service.release", "service.reset") * ms,
            n_jobs),
        "service.machine_reuse_ratio":
            _per(sum(job.machine_reused for job in jobs), n_jobs),
        "service.replay_plan_hit_ratio":
            _per(sum(job.replay_plan_hit for job in jobs), n_jobs),
        "service.queue_wait_ms_p50": median(waits) if waits else 0.0,
        "service.transport_ms_per_job": _per(sum(waits), n_jobs),
        "service.worker_busy_ratio": (
            sum(job.total_s for job in jobs) / (workers * wall_s)
            if wall_s else 0.0),
        "service.retries": float(counters.get("service.retries", 0)),
        "service.failures": float(counters.get("service.failures", 0)),
        "experiments.build_specs_ms":
            _per(tracer.self_s(T, "experiments.build_specs") * ms, sweeps),
        "experiments.analyze_ms":
            _per(tracer.self_s(T, "experiments.analyze") * ms, sweeps),
        "mitigation.confusion_ms":
            _per(tracer.self_s(T, "mitigation.confusion") * ms, sweeps),
        "mitigation.confusion_calls_per_sweep":
            _per(tracer.calls(T, "mitigation.confusion"), sweeps),
        "compiler.codegen_ms":
            tracer.self_s(SETUP, "compiler.codegen") * ms,
        "isa.assemble_ms": tracer.self_s(SETUP, "isa.assemble") * ms,
        "core.plan_build_ms":
            tracer.inclusive_s(SETUP, "core.plan_build") * ms,
        "core.cold_calls_in_timed_sweeps": float(tracer.calls(T, *_COLD)),
        "core.run_ms_per_round":
            _per(tracer.inclusive_s(T, "core.run") * ms, rounds),
        "core.control_self_ms_per_round":
            _per(tracer.self_s(T, "core.run") * ms, rounds),
        "core.replay_draw_ms_per_round":
            _per(tracer.self_s(T, "core.replay_draw") * ms, rounds),
        "sim.events_per_round": _per(tracer.calls(T, "sim.at"), rounds),
        "sim.sim_ns_per_round":
            _per(sum(job.run.duration_ns for job in jobs), rounds),
        "core.instructions_per_round":
            _per(sum(job.run.instructions_executed for job in jobs), rounds),
        "qubit.pulse_ms_per_round":
            _per(tracer.self_s(T, "qubit.pulse") * ms, rounds),
        "qubit.measure_ms_per_round": _per(tracer.self_s(
            T, "qubit.measure", "qubit.advance") * ms, rounds),
        "readout.synth_ms_per_round":
            _per(tracer.self_s(T, "readout.synth") * ms, rounds),
        "readout.adc_ms_per_round":
            _per(tracer.self_s(T, "readout.adc") * ms, rounds),
        "readout.integrate_ms_per_round":
            _per(tracer.self_s(T, "readout.integrate") * ms, rounds),
        "readout.calibrate_ms":
            tracer.self_s(SETUP, "readout.calibrate") * ms,
        "readout.calibrate_ms_per_sweep":
            _per(tracer.self_s(T, "readout.calibrate") * ms, sweeps),
    }
