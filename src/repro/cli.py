"""Command-line interface: assemble, disassemble, run, and experiments.

Usage::

    python -m repro assemble prog.qasm -o prog.bin
    python -m repro disassemble prog.bin
    python -m repro run prog.qasm --qubits 2 --trace
    python -m repro allxy --rounds 256
    python -m repro exp --list
    python -m repro exp rabi --qubits 2 --param n_rounds=16 --stream
    python -m repro exp bell --qubits 0-1 --param n_rounds=64
    python -m repro exp bell --qubits 0-1 --mitigation zne,readout
    python -m repro exp bell --qubits 0-1 --trace-out trace.json
    python -m repro batch --experiment rabi --points 8 --backend process
    python -m repro exp rabi --retries 3 --job-timeout 30
    REPRO_FAULT_SEED=7 python -m repro exp rabi --retries 3 --backend process
    python -m repro stats metrics.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import MachineConfig
from repro.core.quma import QuMA
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_program
from repro.isa.program import Program
from repro.utils.errors import JobError, ReproError


def _parse_qubits(text: str) -> tuple[int, ...]:
    return tuple(int(q.strip()) for q in text.split(",") if q.strip())


def _parse_targets(text: str) -> tuple[tuple[int, ...], ...]:
    """Register syntax for ``repro exp --qubits``.

    Comma-separated targets; each target is a single qubit or a
    ``-``-joined register: ``"0,1"`` = two single-qubit targets,
    ``"0-1,1-2"`` = two pair targets, ``"0-1-2"`` = one GHZ chain.
    """
    targets = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        targets.append(tuple(int(q.strip()) for q in chunk.split("-")))
    return tuple(targets)


def _arity_label(cls) -> str:
    """One word describing an experiment class's target width."""
    arity = getattr(cls, "target_arity", 1)
    if arity is None:
        return "register (2+ qubits)"
    return f"{arity} qubit" + ("s (pair)" if arity == 2 else "")


def cmd_assemble(args: argparse.Namespace) -> int:
    with open(args.source) as f:
        program = assemble(f.read())
    blob = program.to_binary()
    out = args.output or (args.source.rsplit(".", 1)[0] + ".bin")
    with open(out, "wb") as f:
        f.write(blob)
    print(f"{len(program)} instructions -> {len(blob)} bytes -> {out}")
    return 0


def cmd_disassemble(args: argparse.Namespace) -> int:
    with open(args.binary, "rb") as f:
        program = Program.from_binary(f.read())
    sys.stdout.write(disassemble_program(program))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        from repro.core.config_io import load_config

        config = load_config(args.config)
        config.trace_enabled = args.trace or config.trace_enabled
    else:
        config = MachineConfig(qubits=_parse_qubits(args.qubits),
                               seed=args.seed,
                               trace_enabled=args.trace)
    machine = QuMA(config)
    if args.program.endswith(".bin"):
        with open(args.program, "rb") as f:
            machine.load(f.read())
    elif args.program.endswith(".qpkg"):
        from repro.isa.package import load_package

        program, microprograms = load_package(args.program)
        for name, (n_params, body) in microprograms.items():
            machine.define_microprogram(name, n_params, body)
        # Instructions carry operation *names*; the machine resolves them
        # against its own table (which must define them — standard Table 1
        # names always do).
        machine.exec_ctrl.load(program)
    else:
        with open(args.program) as f:
            machine.load(f.read())
    result = machine.run()
    print(f"completed:            {result.completed}")
    print(f"simulated time:       {result.duration_ns} ns")
    print(f"instructions:         {result.instructions_executed}")
    print(f"measurements:         {result.measurements}")
    print(f"timing violations:    {len(result.timing_violations)}")
    nonzero = {f"r{i}": v for i, v in enumerate(result.registers) if v}
    print(f"non-zero registers:   {nonzero}")
    if args.trace:
        print("\ntrace:")
        for record in machine.trace:
            print("  ", record)
    return 0 if result.completed else 1


def cmd_allxy(args: argparse.Namespace) -> int:
    from repro.reporting.tables import sparkline
    from repro.session import Session

    with Session(MachineConfig(qubits=(2,), trace_enabled=False,
                               seed=args.seed)) as session:
        result = session.run("allxy", n_rounds=args.rounds)
    print("ideal   :", sparkline(result.ideal, 0, 1))
    print("measured:", sparkline(result.fidelity, 0, 1))
    print(f"deviation: {result.deviation:.4f} "
          f"(paper: 0.012 at N = 25600; this run N = {args.rounds})")
    return 0


def _parse_params(pairs: list[str]) -> dict:
    """Parse repeated ``--param key=value`` into experiment parameters.

    Values go through ``ast.literal_eval`` (``16``, ``0.5``, ``None``,
    ``[1, 4, 10]``); the JSON spellings ``true``/``false`` become
    booleans (a bare string ``"false"`` is truthy, which would make
    flags like ``replay=false`` silently mean the opposite); anything
    else that doesn't parse stays a string.
    """
    import ast

    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--param needs key=value, got {pair!r}")
        try:
            params[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            lowered = value.lower()
            if lowered in ("true", "false"):
                params[key] = lowered == "true"
            else:
                params[key] = value
    return params


def _print_experiment_list() -> None:
    from repro.experiments import REGISTRY

    width = max(len(name) for name in REGISTRY.names())
    for name in REGISTRY.names():
        cls = REGISTRY.get(name)
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        pad = " " * (width + 1)
        print(f"{name:<{width}} {doc}")
        print(f"{pad}target: {_arity_label(cls)}")
        defaults = ", ".join(f"{k}={v!r}" for k, v in cls.defaults.items())
        print(f"{pad}params: {defaults}")


def _retry_policy(args):
    """The :class:`RetryPolicy` a ``--retries N`` flag asks for (or None).

    ``N`` counts *retries* beyond the first attempt, so ``--retries 3``
    allows four executions total.
    """
    if not getattr(args, "retries", 0):
        return None
    from repro.service import RetryPolicy

    return RetryPolicy(max_attempts=args.retries + 1)


def _print_job_failure(exc: JobError, stats) -> None:
    """One readable line per terminal failure, plus the quarantine roster."""
    print(f"error: {exc}", file=sys.stderr)
    entries = stats["engine"]["quarantine"]
    if not entries:
        return
    print(f"quarantined jobs ({len(entries)}):", file=sys.stderr)
    for entry in entries:
        print(f"  {entry['label'] or entry['seed']}: "
              f"{entry['exc_type']} after {entry['attempts']} attempt(s)",
              file=sys.stderr)


def _parse_fleet_workers(value) -> tuple[str, ...] | None:
    """``--fleet-workers host:port,host:port`` -> address tuple (or None)."""
    if not value:
        return None
    return tuple(part.strip() for part in value.split(",") if part.strip())


def cmd_worker(args: argparse.Namespace) -> int:
    """Host a fleet worker daemon until interrupted."""
    from repro.service.fleet.worker import run_worker

    return run_worker(args.listen, name=args.name)


def cmd_exp(args: argparse.Namespace) -> int:
    """Run any registered experiment through the Session facade."""
    from repro.session import Session

    from repro.experiments.base import target_label

    if args.list or args.name is None:
        _print_experiment_list()
        return 0
    params = _parse_params(args.param)
    targets = _parse_targets(args.qubits) if args.qubits else None
    name = args.name
    if args.mitigation and name != "mitigated":
        # `repro exp bell --mitigation zne,readout` wraps the named
        # experiment in the registered mitigated wrapper; its own params
        # keep flowing to the wrapped experiment untouched.
        params = {"experiment": name, "mitigation": args.mitigation, **params}
        name = "mitigated"

    def announce(job):
        note = ""
        if job.replay_fallback_reason is not None:
            note = f"  [no replay: {job.replay_fallback_reason}]"
        print(f"  done [{job.executor}] {job.label or job.seed}"
              f"  ({job.execute_s:.3f} s){note}")

    def announce_estimate(estimate):
        fitted = {target_label(t): v for t, v in estimate.per_target.items()
                  if v is not None}
        errors = {target_label(t): v for t, v in estimate.stderr.items()
                  if v}
        note = f"  ±{errors}" if errors else ""
        print(f"  fit {estimate.n_results}/{estimate.n_specs}: "
              f"{fitted if fitted else '(unconstrained)'}{note}")

    # Telemetry rides on the requested artifacts: spans + metrics
    # snapshots whenever either output is wanted, the simulator trace
    # only when a Chrome trace is (its records are the bulky part).
    telemetry = bool(args.trace_out or args.metrics_out)
    with Session(backend=args.backend, workers=args.workers, seed=args.seed,
                 telemetry=telemetry, sim_trace=bool(args.trace_out),
                 retry=_retry_policy(args),
                 job_timeout=args.job_timeout,
                 fleet_workers=_parse_fleet_workers(args.fleet_workers)
                 ) as session:
        future = session.submit_experiment(name, targets=targets, **params)
        try:
            result = future.result(
                on_result=announce if args.stream else None,
                on_estimate=announce_estimate if args.stream else None)
        except JobError as exc:
            _print_job_failure(exc, session.stats())
            return 1
        print(future.experiment.summary(result))
        _print_sweep_stats(future.sweep)
        if args.save:
            future.sweep.save(args.save)
            print(f"sweep artifact -> {args.save}")
        if args.trace_out:
            from repro.obs import write_chrome_trace

            n = write_chrome_trace(args.trace_out, future.sweep.jobs)
            print(f"chrome trace ({n} events) -> {args.trace_out}  "
                  f"(open at https://ui.perfetto.dev)")
        if args.metrics_out:
            from repro.obs import write_metrics_artifact

            write_metrics_artifact(
                args.metrics_out, session.service.metrics_summary(),
                stage_stats=future.sweep.stage_stats,
                context={"command": "exp", "experiment": name,
                         "backend": session.backend,
                         "jobs": len(future.sweep)})
            print(f"metrics artifact -> {args.metrics_out}")
    return 0


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value * 1e3:8.2f} ms"


def _print_stage_stats(stage_stats: dict, indent: str = "  ") -> None:
    for field in ("queue_wait_s", "compile_s", "execute_s", "total_s"):
        stats = stage_stats.get(field)
        if not stats or not stats.get("count"):
            continue
        print(f"{indent}{field:<13} p50={_fmt_seconds(stats['p50'])}  "
              f"p95={_fmt_seconds(stats['p95'])}  "
              f"max={_fmt_seconds(stats['max'])}")


def _print_sweep_stats(sweep) -> None:
    print(f"{len(sweep)} jobs | backend={sweep.backend} | "
          f"{sweep.elapsed_s:.2f} s | {sweep.jobs_per_second:.1f} jobs/s")
    print(f"compile cache hit rate:  {sweep.cache_hit_rate:.0%}")
    print(f"machine reuse rate:      {sweep.machine_reuse_rate:.0%}")
    retries = getattr(sweep, "total_retries", 0)
    if retries:
        print(f"retries recovered:       {retries}")
    stage_stats = getattr(sweep, "stage_stats", None)
    if stage_stats:
        print("per-stage latency:")
        _print_stage_stats(stage_stats)


def _run_specs(svc, specs, stream: bool):
    """Execute a batch; with ``stream``, print results as they finish.

    The returned sweep lists jobs in submission order either way.
    """
    from repro.service import SweepResult

    if not stream:
        return svc.run_batch(specs)
    t0 = time.perf_counter()
    futures = [svc.submit(spec, stream=False) for spec in specs]
    for future in svc.iter_futures(futures):
        job = future.result()
        note = ""
        if job.replay_fallback_reason is not None:
            note = f"  [no replay: {job.replay_fallback_reason}]"
        print(f"  done [{job.executor}] {job.label or job.seed}"
              f"  ({job.execute_s:.3f} s){note}")
    return SweepResult.from_jobs([future.result() for future in futures],
                                 time.perf_counter() - t0, svc.backend)


def cmd_batch(args: argparse.Namespace) -> int:
    """Batched execution through the orchestration service."""
    import numpy as np

    from repro.service import ExperimentService, JobSpec, derive_job_seed

    config = MachineConfig(qubits=_parse_qubits(args.qubits), seed=args.seed,
                           trace_enabled=False)
    with ExperimentService(backend=args.backend, workers=args.workers,
                           retry=_retry_policy(args),
                           job_timeout=args.job_timeout,
                           fleet_workers=_parse_fleet_workers(
                               args.fleet_workers)) as svc:
        try:
            if args.program:
                with open(args.program) as f:
                    asm = f.read()
                specs = [JobSpec(config=config, asm=asm,
                                 k_points=args.k_points,
                                 seed=derive_job_seed(args.seed, i),
                                 params={"job": i}, label=f"job{i}",
                                 replay=args.replay)
                         for i in range(args.repeat)]
                sweep = _run_specs(svc, specs, args.stream)
                for job in sweep:
                    values = " ".join(f"{v:8.3f}" for v in job.averages)
                    print(f"{job.label:>8}  seed={job.seed:<12} S = {values}")
            elif args.experiment == "rabi":
                from repro.experiments.rabi import rabi_job

                expected_pi = config.calibration.amplitude_for(np.pi)
                amplitudes = np.linspace(0.0, min(2.2 * expected_pi, 0.999),
                                         args.points)
                qubit = config.qubits[0]
                sweep = _run_specs(
                    svc,
                    [rabi_job(config, qubit, amp, args.rounds,
                              replay=args.replay)
                     for amp in amplitudes],
                    args.stream)
                print("amplitude   P(|1>)")
                for job in sweep:
                    print(f"{job.params['amplitude']:9.4f}   "
                          f"{float(job.normalized[0]):.3f}")
            else:  # allxy repeats with derived per-job seeds
                from repro.experiments.allxy import (
                    allxy_job,
                    rescale_with_calibration_points,
                )

                specs = []
                for i in range(args.repeat):
                    spec = allxy_job(config, config.qubits[0], args.rounds,
                                     replay=args.replay)
                    spec.seed = derive_job_seed(args.seed, i)
                    spec.label = f"allxy#{i}"
                    specs.append(spec)
                sweep = _run_specs(svc, specs, args.stream)
                from repro.experiments.allxy import allxy_ideal_staircase

                ideal = allxy_ideal_staircase()
                for job in sweep:
                    fidelity = rescale_with_calibration_points(job.averages)
                    deviation = float(np.mean(np.abs(fidelity - ideal)))
                    print(f"{job.label:>10}  seed={job.seed:<12} "
                          f"deviation={deviation:.4f}")
        except JobError as exc:
            _print_job_failure(exc, svc.stats())
            return 1
        _print_sweep_stats(sweep)
        if args.save:
            sweep.save(args.save)
            print(f"sweep artifact -> {args.save}")
        if args.metrics_out:
            from repro.obs import write_metrics_artifact

            write_metrics_artifact(
                args.metrics_out, svc.metrics_summary(),
                stage_stats=sweep.stage_stats,
                context={"command": "batch", "backend": args.backend,
                         "jobs": len(sweep)})
            print(f"metrics artifact -> {args.metrics_out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Render a metrics artifact written by ``--metrics-out``."""
    from repro.obs import load_metrics_artifact

    try:
        data = load_metrics_artifact(args.artifact)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = data.get("context") or {}
    if context:
        print(" | ".join(f"{k}={v}" for k, v in sorted(context.items())))
    stage_stats = data.get("stage_stats") or {}
    if stage_stats:
        print("per-stage latency:")
        _print_stage_stats(stage_stats)
    metrics = data.get("metrics") or {}
    for scope in ("service", "workers_merged"):
        block = metrics.get(scope)
        if not block:
            continue
        print(f"{scope}:")
        for name, value in sorted(block.get("counters", {}).items()):
            print(f"  {name:<26} {value}")
        for name, value in sorted(block.get("gauges", {}).items()):
            print(f"  {name:<26} {value:g}")
        for name, hist in sorted(block.get("histograms", {}).items()):
            print(f"  {name:<26} n={hist['count']}  "
                  f"p50={_fmt_seconds(hist['p50'])}  "
                  f"p95={_fmt_seconds(hist['p95'])}")
    workers = metrics.get("workers") or {}
    if workers:
        print(f"workers: {len(workers)} ({', '.join(sorted(workers))})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QuMA reproduction toolchain (Fu et al., MICRO 2017)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble QIS+QuMIS source to binary")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("disassemble", help="disassemble a binary")
    p.add_argument("binary")
    p.set_defaults(func=cmd_disassemble)

    p = sub.add_parser("run", help="run a program on the simulated machine")
    p.add_argument("program", help=".qasm text or .bin binary")
    p.add_argument("--qubits", default="2", help="comma-separated chip labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print the trace")
    p.add_argument("--config", default=None,
                   help="JSON machine configuration (see docs)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("allxy", help="run the Figure 9 AllXY experiment")
    p.add_argument("--rounds", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_allxy)

    p = sub.add_parser(
        "exp",
        help="run a registered experiment through the Session facade")
    p.add_argument("name", nargs="?", default=None,
                   help="experiment name (omit or use --list to enumerate)")
    p.add_argument("--list", action="store_true",
                   help="list registered experiments and their parameters")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="experiment parameter (repeatable), e.g. "
                        "--param n_rounds=16 --param 'lengths=[1, 4, 10]'")
    p.add_argument("--mitigation", default=None, metavar="TECHNIQUES",
                   help="run the experiment error-mitigated: a comma-"
                        "separated subset of 'zne,readout' (zero-noise "
                        "extrapolation via gate folding, confusion-matrix "
                        "readout inversion); tune with --param scales=... "
                        "--param extrapolator=... --param ridge=...")
    p.add_argument("--qubits", default=None,
                   help="comma-separated targets: single qubits sweep one "
                        "result per qubit ('0,1'); '-'-joined registers "
                        "address entangling experiments ('0-1,1-2' sweeps "
                        "two pairs, '0-1-2' one GHZ chain)")
    p.add_argument("--backend",
                   choices=("serial", "process", "fleet"),
                   default="serial")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the process backend")
    p.add_argument("--fleet-workers", default=None, dest="fleet_workers",
                   metavar="HOST:PORT,...",
                   help="worker daemon addresses for --backend fleet "
                        "(default: $REPRO_FLEET_WORKERS)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", action="store_true",
                   help="print each job and the refined incremental fit "
                        "as results stream in completion order")
    p.add_argument("--save", default=None,
                   help="write the sweep as a JSON artifact to this path")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="write a Chrome trace-event JSON of the sweep "
                        "(service spans + simulator trace; open at "
                        "https://ui.perfetto.dev)")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write the merged metrics registry + per-stage "
                        "rollups as JSON (render with 'repro stats')")
    p.add_argument("--retries", type=int, default=0,
                   help="retry transiently failed jobs up to N times "
                        "(deterministic: a recovered retry's result is "
                        "bit-identical to a clean run)")
    p.add_argument("--job-timeout", type=float, default=None,
                   dest="job_timeout", metavar="SECONDS",
                   help="per-attempt wall-clock budget per job; overstaying "
                        "attempts fail (and retry, with --retries)")
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser(
        "batch",
        help="batched execution through the orchestration service")
    p.add_argument("--experiment", choices=("rabi", "allxy"), default="rabi",
                   help="built-in experiment to batch (ignored with --program)")
    p.add_argument("--program", default=None,
                   help="raw .qasm to run --repeat times with derived seeds")
    p.add_argument("--repeat", type=int, default=4,
                   help="jobs for --program / allxy repeats")
    p.add_argument("--points", type=int, default=8,
                   help="sweep points for the rabi experiment")
    p.add_argument("--rounds", type=int, default=16,
                   help="averaging rounds per job")
    p.add_argument("--k-points", type=int, default=1, dest="k_points",
                   help="measurements per round for --program jobs")
    p.add_argument("--no-replay", dest="replay", action="store_false",
                   help="disable the round-replay fast path "
                        "(full event-driven simulation of every round)")
    p.add_argument("--backend",
                   choices=("serial", "process", "fleet"),
                   default="serial")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the process backend")
    p.add_argument("--fleet-workers", default=None, dest="fleet_workers",
                   metavar="HOST:PORT,...",
                   help="worker daemon addresses for --backend fleet "
                        "(default: $REPRO_FLEET_WORKERS)")
    p.add_argument("--stream", action="store_true",
                   help="print jobs as they complete (futures API) instead "
                        "of waiting for the whole batch")
    p.add_argument("--save", default=None,
                   help="write the sweep as a JSON artifact to this path")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   help="write the merged metrics registry + per-stage "
                        "rollups as JSON (render with 'repro stats')")
    p.add_argument("--retries", type=int, default=0,
                   help="retry transiently failed jobs up to N times "
                        "(deterministic: a recovered retry's result is "
                        "bit-identical to a clean run)")
    p.add_argument("--job-timeout", type=float, default=None,
                   dest="job_timeout", metavar="SECONDS",
                   help="per-attempt wall-clock budget per job; overstaying "
                        "attempts fail (and retry, with --retries)")
    p.add_argument("--qubits", default="2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "stats",
        help="render a metrics artifact written by --metrics-out")
    p.add_argument("artifact", help="metrics JSON path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "worker",
        help="host a fleet worker daemon (serves jobs to --backend fleet)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address; port 0 picks a free port and the "
                        "chosen one is announced on stdout")
    p.add_argument("--name", default=None,
                   help="worker name reported in job telemetry "
                        "(default worker:HOST:PORT)")
    p.set_defaults(func=cmd_worker)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
