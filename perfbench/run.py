#!/usr/bin/env python3
"""Sweep-time benchmark: end-to-end sweep cost and its per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload rabi_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` times closed-loop sweeps with nothing patched and prints
the end-to-end metrics; ``--trace 1`` runs the same workload untraced
and then traced, and prints the per-layer metrics.  ``--workload all``
runs every workload in turn.  A table goes to standard output first; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is nonzero when any output digest differs
from its reference.  Metric names, units and the reasons behind each
workload are in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed from start to their first warm-up sweep.
SETUP_PROBES = 5
#: A timed run stops once it has this many sweeps and its time budget
#: is spent: enough that ten sweeps lie beyond the reported p90.
MIN_TIMED_SWEEPS = stats.min_samples(0.9)
#: To reach that count a timed loop may overrun its budget by this
#: factor; the whole process has a hard deadline besides.
MAX_TIMED_FACTOR = 1.5
RUN_DEADLINE_S = 150.0
#: A failed sweep replaces the service; a run gives up after this many.
MAX_RESTARTS = 3
PROBE_TIMEOUT_S = 60.0


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no source tree at {SRC}; run from a full "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def monotonic() -> float:
    """A clock shared by every process on the host (for set-up probes)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "git_rev": git_rev()}


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the client loop -------------------------------------------------------------


class Client:
    """One closed-loop client: a session, its checks and its failure tally."""

    def __init__(self, workload, seed: int, expected: dict | None):
        from workloads import open_session

        self.workload = workload
        self.seed = seed
        #: ``{"jobs", "analysis"}`` digests every sweep must reproduce;
        #: from the committed references, else from this run's first sweep.
        self.expected = expected
        self.listed = expected is not None
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.restarts = 0
        self.last = None
        self.wall_s = 0.0
        self.session = open_session(workload, seed)

    def sweep(self, tracer=None):
        """One sweep, then its check; None when it failed (jobs counted).

        Only the sweep itself is timed (``self.wall_s``), not the check.
        """
        from digest import analysis_digest, failed_jobs, sweep_digests
        from workloads import SweepFailed, run_sweep

        t0 = time.perf_counter()
        try:
            if tracer is None:
                future = run_sweep(self.session, self.workload)
            else:
                with tracer.span("sweep"):
                    future = run_sweep(self.session, self.workload)
        except SweepFailed as exc:
            print(f"# sweep failed: {exc}", file=sys.stderr)
            self.attempted += exc.n_jobs
            self.failed += exc.n_jobs
            return None
        self.wall_s = time.perf_counter() - t0
        jobs = future.sweep.jobs
        got = {"jobs": sweep_digests(jobs),
               "analysis": analysis_digest(future.result(),
                                           future.sweep.estimate)}
        if self.expected is None:
            self.expected = got
        bad = failed_jobs(got, self.expected)
        if bad:
            print(f"# {bad} of {len(jobs)} jobs differ from the expected "
                  "outputs", file=sys.stderr)
        self.attempted += len(jobs)
        self.failed += bad
        self.mismatched += bad
        self.last = future
        return future

    def restart(self) -> None:
        from workloads import close_session, open_session

        self.restarts += 1
        if self.restarts > MAX_RESTARTS:
            raise RuntimeError(f"gave up after {MAX_RESTARTS} replaced "
                               "services")
        close_session(self.session)
        self.session = open_session(self.workload, self.seed)

    def warm_up(self):
        """Sweep until one passes the warm-up gate (at least two sweeps).

        On a worker backend a sweep that hit every cache is not enough:
        the next one may land a job on the other worker.  Warm-up sweeps
        therefore carry telemetry, which names the worker of each job,
        and the gate also waits until every worker has run every job of
        the sweep.
        """
        from workloads import MAX_WARMUP_SWEEPS, gate_passed

        workers = self.workload.workers or 0
        seen: dict[str, set[int]] = {}
        try:
            for count in range(1, MAX_WARMUP_SWEEPS + 1):
                self.session.telemetry = workers > 0
                future = self.sweep()
                if future is None:
                    self.restart()
                    seen.clear()
                    continue
                jobs = future.sweep.jobs
                for index, job in enumerate(jobs):
                    if job.telemetry is not None:
                        seen.setdefault(job.telemetry.worker, set()).add(index)
                complete = sum(len(done) == len(jobs) for done in seen.values())
                if (count >= 2 and complete >= workers
                        and gate_passed(self.workload, jobs)):
                    return future
        finally:
            self.session.telemetry = False
        raise RuntimeError(f"{self.workload.name}: warm-up gate not passed "
                           f"in {MAX_WARMUP_SWEEPS} sweeps")

    def timed(self, budget_s: float, min_sweeps: int, deadline: float,
              tracer=None, keep_jobs: bool = False) -> dict:
        """Closed-loop timed sweeps.

        Returns raw ``walls``, the same rescaled to the nominal host speed
        (``scaled``, see ``hostref``), the shot count and, with
        ``keep_jobs``, the sweeps' job results.
        """
        from hostref import HostClock
        from layers import SETUP, TIMED

        walls: list[float] = []
        scaled: list[float] = []
        jobs: list = []
        shots = 0
        cap = MAX_TIMED_FACTOR * budget_s
        clock = HostClock(self.workload.streaming)
        while True:
            spent = sum(walls)
            if (spent >= budget_s and len(walls) >= min_sweeps) \
                    or spent >= cap or time.monotonic() >= deadline:
                break
            future = self.sweep(tracer)
            if future is None:
                # Rebuilding and warming a service is set-up work.
                if tracer is not None:
                    tracer.phase = SETUP
                self.restart()
                self.warm_up()
                if tracer is not None:
                    tracer.phase = TIMED
                clock.mark()
                continue
            walls.append(self.wall_s)
            scaled.append(clock.rescale(self.wall_s))
            shots += sum(job.run.measurements for job in future.sweep.jobs)
            if keep_jobs:
                jobs.extend(future.sweep.jobs)
        if not walls:
            raise RuntimeError("no timed sweep completed")
        return {"walls": walls, "scaled": scaled, "shots": shots,
                "jobs": jobs}

    def oracle_check(self) -> int:
        """For an unlisted seed, recompute the sweep independently.

        Every job is re-run fully simulated on a fresh serial service and
        analysed; returns the jobs that differ from what the sweeps gave.
        A listed seed was already checked against committed references.
        """
        from digest import failed_jobs, oracle_reference

        if self.listed:
            return 0
        oracle = oracle_reference(self.last.experiment)
        bad = failed_jobs(oracle, self.expected)
        self.attempted += len(oracle["jobs"])
        self.failed += bad
        self.mismatched += bad
        if bad:
            print(f"# oracle: {bad} jobs differ", file=sys.stderr)
        return bad

    def counters(self) -> dict:
        return self.session.stats()["metrics"]["service"]["counters"]

    def close(self) -> None:
        from workloads import close_session

        close_session(self.session)


# -- set-up probes ----------------------------------------------------------------


def probe_main(workload_name: str, seed: int) -> None:
    """Child side of a set-up probe: set up, sweep once, report the time.

    Right after the sweep the child also measures the host's speed, on
    the core and in the moment its set-up ran.
    """
    from hostref import SETUP_REPEATS, reference_time
    from workloads import WORKLOADS, close_session, open_session, run_sweep

    session = open_session(WORKLOADS[workload_name], seed)
    run_sweep(session, WORKLOADS[workload_name])
    ready = monotonic()
    print(f"ready {ready:.9f} {reference_time(SETUP_REPEATS)!r}",
          flush=True)
    close_session(session)


def setup_probe(workload_name: str, seed: int) -> tuple[float, float]:
    """Seconds from launching a fresh process to its first sweep's return,
    and the reference kernel's time the process measured just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload_name, "--seed", str(seed), "--probe"]
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    ready = [line for line in out.splitlines() if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    _, at, ref = ready[0].split()
    return float(at) - start, float(ref)


# -- the two kinds of run ---------------------------------------------------------


def peak_rss_mb() -> tuple[float, float]:
    """Own and largest-reaped-child ``ru_maxrss`` in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, child


def end_to_end(workload, seed: int, seconds: float, expected) -> dict:
    """The end-to-end metrics; times are rescaled to the nominal host."""
    from hostref import nominal
    from stats import median, percentile, samples_beyond

    deadline = time.monotonic() + RUN_DEADLINE_S
    client = Client(workload, seed, expected)
    client.warm_up()
    timed = client.timed(seconds, MIN_TIMED_SWEEPS, deadline)
    own_rss, _ = peak_rss_mb()
    client.close()
    # Only the workload's pool workers have been reaped so far; the
    # probes below are children too, so read the child peak first.
    worker_rss = peak_rss_mb()[1] if workload.workers else 0.0
    client.oracle_check()
    raw_setups = []
    setups = []
    for _ in range(SETUP_PROBES):
        raw, ref = setup_probe(workload.name, seed)
        raw_setups.append(raw)
        setups.append(nominal(raw, ref))
    walls, scaled = timed["walls"], timed["scaled"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "sweep_s_p50": (median(scaled), "s"),
        "sweep_s_p90": (percentile(scaled, 0.9), "s"),
        "shots_per_s": (timed["shots"] / sum(scaled), "1/s"),
        "peak_rss_mb": (own_rss + worker_rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; raw "
                   + " ".join(f"{s:.3f}" for s in raw_setups),
        "sweep_s_p50": f"{len(walls)} timed sweeps; raw {median(walls):.4f}",
        "sweep_s_p90": f"{samples_beyond(len(walls), 0.9)} sweeps beyond; "
                       f"raw {percentile(walls, 0.9):.4f}",
        "shots_per_s": f"{timed['shots']} shots; raw "
                       f"{timed['shots'] / sum(walls):.1f}",
        "peak_rss_mb": f"client {own_rss:.1f} + largest worker "
                       f"{worker_rss:.1f}",
    }
    return {"attempted": client.attempted, "failed": client.failed,
            "mismatched": client.mismatched, "metrics": metrics,
            "notes": notes, "samples": len(walls)}


def traced(workload, seed: int, seconds: float, expected) -> dict:
    """Untraced sweeps, then traced ones; per-layer metrics of the latter."""
    from layers import (CLIENT_SIDE, LAYER_UNITS, TIMED, Tracer, job_rounds,
                        layer_metrics, write_chrome_trace)
    from stats import median

    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = Client(workload, seed, expected)
    plain.warm_up()
    untraced = plain.timed(seconds / 2, 5, deadline)
    plain.close()

    tracer = Tracer()
    tracers = {"client": tracer}
    serial = workload.backend == "serial"
    # Machines capture bound methods (the CTPG's pulse sink) when they are
    # built, so on the serial backend the patches go in before the session
    # exists.  Pool workers fork at the first sweep; patching only after
    # warm-up keeps them unwrapped, so there only the client is traced.
    try:
        if serial:
            tracer.install()
        client = Client(workload, seed, plain.expected)
        client.warm_up()
        if not serial:
            tracer.install()
        tracer.phase = TIMED
        run = client.timed(seconds * (0.5 if serial else 0.3), 5, deadline,
                           tracer=tracer, keep_jobs=True)
        counters = client.counters()
    finally:
        tracer.restore()
    client.close()
    walls = run["walls"]
    metrics = layer_metrics(tracer, run["jobs"], len(walls), sum(walls),
                            workload.workers or 1, counters)
    replica_rounds = replica_attempted = replica_mismatched = 0
    if not serial:
        replica = Tracer()
        tracers["replica"] = replica
        specs = client.last.experiment.build_specs()
        inner = replica_run(replica, specs, plain.expected["jobs"],
                            seconds * 0.2, deadline)
        replica_attempted = inner["attempted"]
        replica_mismatched = inner["mismatched"]
        replica_rounds = sum(job_rounds(job) for job in inner["jobs"])
        in_job = layer_metrics(replica, inner["jobs"], inner["passes"],
                               inner["wall"], 1, {})
        metrics.update({name: value for name, value in in_job.items()
                        if name not in CLIENT_SIDE})
    metrics["trace_overhead_ratio"] = (median(run["scaled"])
                                       / median(untraced["scaled"]))
    metrics["trace.sweeps"] = float(len(walls))
    metrics["trace.jobs"] = float(len(run["jobs"]))
    metrics["trace.rounds"] = float(sum(job_rounds(j) for j in run["jobs"]))
    metrics["trace.replica_rounds"] = float(replica_rounds)

    plain.oracle_check()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    events = write_chrome_trace(path, tracers, {"workload": workload.name,
                                                "seed": seed,
                                                **host_info()})
    return {"attempted": plain.attempted + client.attempted
                         + replica_attempted,
            "failed": plain.failed + client.failed + replica_mismatched,
            "mismatched": plain.mismatched + client.mismatched
                          + replica_mismatched,
            "metrics": {name: (metrics[name], unit)
                        for name, unit in LAYER_UNITS},
            "notes": {"trace_overhead_ratio":
                      f"{len(walls)} traced vs {len(untraced['walls'])} "
                      f"untraced sweeps; {events} trace events in {path.name}"},
            "samples": len(walls)}


def replica_run(tracer, specs, expected, budget_s: float,
                deadline: float) -> dict:
    """The worker workload's specs on a traced in-process serial service.

    Gives the in-job layer split the client cannot see: pass one is cold
    (set-up), passes repeat until every job hits every cache, then timed
    passes run for ``budget_s``.
    """
    from digest import mismatches, sweep_digests
    from layers import TIMED
    from repro.service.scheduler import ExperimentService

    attempted = mismatched = 0
    with tracer.installed(), ExperimentService(backend="serial") as service:
        def one_pass():
            nonlocal attempted, mismatched
            jobs = [service.submit(spec, stream=False).result()
                    for spec in specs]
            attempted += len(jobs)
            mismatched += mismatches(sweep_digests(jobs), expected)
            return jobs

        for _ in range(10):
            jobs = one_pass()
            if all(j.cache_hit and j.machine_reused and j.replay_plan_hit
                   for j in jobs):
                break
        tracer.phase = TIMED
        kept: list = []
        wall = 0.0
        passes = 0
        while (wall < budget_s or passes < 3) and time.monotonic() < deadline:
            t0 = time.perf_counter()
            with tracer.span("replica-pass"):
                kept.extend(one_pass())
            wall += time.perf_counter() - t0
            passes += 1
    return {"jobs": kept, "passes": passes, "wall": wall,
            "attempted": attempted, "mismatched": mismatched}


# -- output -----------------------------------------------------------------------


def report(workload_name: str, seed: int, trace: int, result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    ratio = failed / attempted if attempted else 0.0
    host = host_info()
    print(f"# perfbench {workload_name} seed={seed} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in host.items()))
    notes = result["notes"]
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:16.6g} {unit:6s} {notes.get(name, '')}")
    print(f"{'failed_ratio':40s} {ratio:16.6g} {'ratio':6s} "
          f"{failed} of {attempted} jobs "
          f"({result['mismatched']} digest mismatches)")
    line = {"correct": result["mismatched"] == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit)
                        in result["metrics"].items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload_name}-seed{seed}-trace{trace}.json",
              "w") as f:
        json.dump({**line, "workload": workload_name, "seed": seed,
                   "failed_ratio": ratio, "sweeps": result["samples"],
                   "notes": notes, "host": host}, f, indent=1)
    print(json.dumps(line))
    return line


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}/{metric}": value for metric, value
                                    in part["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_repro()
    from digest import reference_for
    from workloads import WORKLOADS, kill_children

    if args.probe:
        probe_main(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    expected = reference_for(workload.name, args.seed)
    try:
        measure = traced if args.trace else end_to_end
        result = measure(workload, args.seed, args.seconds, expected)
    finally:
        kill_children()
    line = report(workload.name, args.seed, args.trace, result)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
