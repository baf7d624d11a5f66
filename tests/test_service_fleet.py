"""Distributed executor fleet: remote workers behind ExecutorBackend.

The acceptance contract of the fleet subsystem (DESIGN.md "Fleet"):

* the wire protocol is length-prefixed, magic-tagged, and version
  checked in both directions — a mismatched peer is refused with a
  ``REJECT`` frame (worker side) or :class:`ProtocolError` (client
  side), never half-spoken to;
* a sweep through ``backend="fleet"`` (and a single-address
  :class:`FleetBackend` that re-dials on loss) is bit-identical to the
  serial backend,
  including failing jobs, which surface the same ``JobError`` type and
  message;
* a SIGKILLed worker daemon maps to :class:`WorkerLost`: retryable
  specs resubmit to a surviving worker and the sweep still lands
  bit-identical, non-retryable specs fail their futures without ever
  hanging ``drain()``;
* a silent (SIGSTOPped) worker is detected by missed heartbeats, not
  just socket death;
* a peer that speaks garbage after the handshake loses its connection,
  and the worker counts it in ``protocol_errors``.

Set ``REPRO_FLEET_WORKERS=host:port,host:port`` to aim the fleet at
already-running daemons (the CI loopback job does); these tests launch
their own, in-process or as subprocesses, and never rely on the env.
"""

import os
import signal
import socket
import sys
import time

import numpy as np
import pytest

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.pulse import PulseCalibration
from repro.service import (
    ExperimentService,
    FaultPlan,
    JobSpec,
    RetryPolicy,
)
from repro.service.fleet import (
    FLEET_WORKERS_ENV,
    FleetBackend,
    PROTOCOL_VERSION,
    WorkerClient,
    WorkerServer,
    fleet_addresses_from_env,
)
from repro.service.fleet import protocol
from repro.service.fleet.launch import launch_worker, stop_worker
from repro.service.fleet.protocol import parse_address, recv_frame, send_frame
from repro.utils.errors import (
    ConfigurationError,
    JobError,
    ProtocolError,
    WorkerLost,
)

RETRY = RetryPolicy(max_attempts=3, backoff_s=0.001, max_backoff_s=0.01)


def fast_config(**kwargs):
    kwargs.setdefault("qubits", (2,))
    kwargs.setdefault("trace_enabled", False)
    kwargs.setdefault("calibration", PulseCalibration(kappa=0.7))
    return MachineConfig(**kwargs)


def flip_program():
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return p


def flip_spec(seed=None, retry=None, label=None, n_rounds=2, replay=True,
              telemetry=False):
    return JobSpec(config=fast_config(), program=flip_program(),
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   seed=seed, retry=retry, label=label, replay=replay,
                   telemetry=telemetry)


def slow_spec(seed, label=None, n_rounds=400, retry=None):
    """Deliberately slow: no replay fast path, so a mid-sweep kill
    reliably catches jobs in flight."""
    return flip_spec(seed=seed, retry=retry, label=label,
                     n_rounds=n_rounds, replay=False)


def addr_of(worker: WorkerServer) -> str:
    return "%s:%d" % worker.address


@pytest.fixture(scope="module")
def worker_pair():
    """Two in-process worker daemons shared across this module's tests."""
    workers = [WorkerServer().start(), WorkerServer().start()]
    yield workers
    for w in workers:
        w.stop()


@pytest.fixture(scope="module")
def fleet_addrs(worker_pair):
    return [addr_of(w) for w in worker_pair]


# -- address parsing and configuration ----------------------------------------


class TestAddresses:
    def test_parse_address_and_listen(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_address("0.0.0.0:0") == ("0.0.0.0", 0)
        for bad in ("no-port", ":1234", "host:", "host:abc"):
            with pytest.raises(ProtocolError):
                parse_address(bad)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(FLEET_WORKERS_ENV,
                           " 127.0.0.1:9001, 127.0.0.1:9002 ,")
        assert fleet_addresses_from_env() == ("127.0.0.1:9001",
                                              "127.0.0.1:9002")
        monkeypatch.delenv(FLEET_WORKERS_ENV)
        assert fleet_addresses_from_env() == ()

    def test_no_addresses_is_a_configuration_error(self, monkeypatch):
        monkeypatch.delenv(FLEET_WORKERS_ENV, raising=False)
        with pytest.raises(ConfigurationError, match="worker"):
            FleetBackend().submit(flip_spec(seed=1))

    def test_unreachable_worker_is_a_configuration_error(self, monkeypatch):
        # A port nothing listens on: bind-then-close guarantees it's free.
        probe = socket.create_server(("127.0.0.1", 0))
        dead = "%s:%d" % probe.getsockname()[:2]
        probe.close()
        monkeypatch.setattr(WorkerClient, "CONNECT_TIMEOUT_S", 2.0)
        backend = FleetBackend([dead])
        with pytest.raises(ConfigurationError, match="connect"):
            backend.submit(flip_spec(seed=1))


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, protocol.PING, {"rid": 7})
            assert recv_frame(b) == (protocol.PING, {"rid": 7})
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"XXXX" + bytes(4))
            with pytest.raises(ProtocolError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_frame_rejected_before_send(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="refusing"):
                send_frame(a, protocol.SUBMIT,
                           {"blob": bytes(protocol.MAX_FRAME_BYTES + 1)})
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_frame_boundary_is_eof_not_protocol_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    @pytest.mark.parametrize("skew", [-1, 1], ids=["older", "newer"])
    def test_worker_rejects_version_mismatch(self, worker_pair, skew):
        host, port = worker_pair[0].address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            send_frame(sock, protocol.HELLO,
                       {"version": PROTOCOL_VERSION + skew,
                        "client": "test"})
            kind, body = recv_frame(sock)
        assert kind == protocol.REJECT
        assert body["version"] == PROTOCOL_VERSION

    def test_worker_rejects_non_hello_opening(self, worker_pair):
        host, port = worker_pair[0].address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            send_frame(sock, protocol.PING, {"rid": 0})
            kind, _ = recv_frame(sock)
        assert kind == protocol.REJECT

    def test_unknown_frame_kind_is_a_counted_protocol_error(self):
        # "cache-list" is a kind this protocol version does not define.
        worker = WorkerServer().start()
        try:
            with socket.create_connection(worker.address,
                                          timeout=5.0) as sock:
                send_frame(sock, protocol.HELLO,
                           {"version": PROTOCOL_VERSION, "client": "test"})
                assert recv_frame(sock)[0] == protocol.WELCOME
                send_frame(sock, "cache-list", {"rid": 0})
                with pytest.raises(EOFError):
                    recv_frame(sock)
            assert worker.stats()["protocol_errors"] == 1
        finally:
            worker.stop()

    @pytest.mark.parametrize("skew", [-1, 1], ids=["older", "newer"])
    def test_client_rejects_version_mismatch(self, skew):
        # A fake worker speaking an older or a future protocol: the
        # client must refuse its welcome.  (Patching PROTOCOL_VERSION
        # in-process would change both sides at once — they share the
        # module.)
        import threading

        listener = socket.create_server(("127.0.0.1", 0))
        addr = "%s:%d" % listener.getsockname()[:2]

        def fake_worker():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)  # the client's hello
                send_frame(conn, protocol.WELCOME,
                           {"version": PROTOCOL_VERSION + skew,
                            "worker": "fake"})

        thread = threading.Thread(target=fake_worker, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="protocol"):
                WorkerClient(addr).connect()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_ping_and_stats_requests(self, worker_pair):
        client = WorkerClient(addr_of(worker_pair[0])).connect()
        try:
            assert client.ping(timeout=10.0)["active"] >= 0
            stats = client.stats(timeout=10.0)
            assert stats["worker"] == worker_pair[0].name
            assert "pool" in stats and "cache" in stats
        finally:
            client.close()

    def test_cancel_that_dequeues_a_job_is_answered(self):
        # Token 1 queues behind token 0's hang on the worker's one job
        # thread; the CANCEL dequeues it, and the worker says so at once,
        # so the client stops counting the worker busy with token 1.
        replies = []

        def record(client, token, outcome):
            replies.append((token, type(outcome).__name__))

        worker = WorkerServer().start()
        client = WorkerClient(addr_of(worker), on_reply=record).connect()
        hang = FaultPlan(seed=0, rate=1.0, kinds=("hang",), hang_s=2.0,
                         sites=("execute",))
        try:
            client.submit(0, flip_spec(seed=1), faults=hang)
            client.submit(1, flip_spec(seed=2))
            client.cancel(1)
            wait_for(lambda: len(replies) == 2, timeout=60.0)
            assert worker.stats()["jobs_cancelled"] == 1
        finally:
            client.close()
            worker.stop()
        assert replies == [(1, "JobCancelled"), (0, "JobResult")]

    def test_deliberate_close_is_not_a_loss(self, worker_pair):
        losses = []
        client = WorkerClient(addr_of(worker_pair[0]),
                              on_lost=lambda c, r: losses.append(r))
        client.connect()
        client.close()
        time.sleep(0.1)
        assert losses == [] and client.lost_reason is None


# -- bit-identical sweeps through the fleet -----------------------------------


class TestFleetParity:
    def _reference(self, specs):
        with ExperimentService(backend="serial") as svc:
            return svc.run_batch(specs)

    def test_two_worker_sweep_matches_serial(self, fleet_addrs):
        specs = [flip_spec(seed=i + 1, label=f"j{i}") for i in range(8)]
        ref = self._reference(specs)
        with ExperimentService(backend="fleet",
                               fleet_workers=fleet_addrs) as svc:
            got = svc.run_batch(specs)
            stats = svc.stats()["engine"]
        for a, b in zip(ref, got):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.averages, b.averages)
        assert stats["backend"] == "fleet"
        assert sum(w["shipped"] for w in stats["workers"]) == len(specs)

    def test_remote_backend_single_worker_matches_serial(self, worker_pair):
        specs = [flip_spec(seed=i + 1) for i in range(4)]
        ref = self._reference(specs)
        backend = FleetBackend([addr_of(worker_pair[0])],
                               reconnect_lost=True)
        try:
            futures = [backend.submit(s) for s in specs]
            got = [f.result(timeout=60.0) for f in futures]
        finally:
            backend.close()
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a.averages, b.averages)

    def test_failing_spec_same_error_as_serial(self, fleet_addrs):
        bad = JobSpec(config=fast_config(), asm="bogus q0\n", seed=3,
                      label="bad")
        with ExperimentService(backend="serial") as svc:
            with pytest.raises(JobError) as serial_exc:
                svc.submit(bad).result(timeout=60.0)
        with ExperimentService(backend="fleet",
                               fleet_workers=fleet_addrs) as svc:
            with pytest.raises(JobError) as fleet_exc:
                svc.submit(bad).result(timeout=60.0)
        assert str(fleet_exc.value) == str(serial_exc.value)
        assert fleet_exc.value.exc_type == serial_exc.value.exc_type

    def test_results_carry_worker_telemetry(self, fleet_addrs,
                                            worker_pair):
        with ExperimentService(backend="fleet",
                               fleet_workers=fleet_addrs) as svc:
            sweep = svc.run_batch([flip_spec(seed=i + 1, telemetry=True)
                                   for i in range(4)])
        names = {job.telemetry.worker for job in sweep
                 if job.telemetry is not None}
        assert names <= {w.name for w in worker_pair}
        assert names  # at least one job reported which daemon ran it


# -- dispatch -----------------------------------------------------------------


class TestDispatch:
    """One executor: dispatch and loss on local (``process``) workers."""

    def test_burst_keeps_one_job_in_flight_per_worker(self):
        # Every job hangs, so the snapshot below cannot race completions.
        hang = FaultPlan(seed=0, rate=1.0, kinds=("hang",), hang_s=60.0,
                         sites=("execute",))
        with ExperimentService(backend="process", workers=2,
                               faults=hang) as svc:
            futures = [svc.submit(flip_spec(seed=i + 1), stream=False)
                       for i in range(6)]
            stats = svc.stats()["engine"]
            for future in futures:
                future.cancel()  # close drains; don't wait out the hangs
        assert [w["outstanding"] for w in stats["workers"]] == [1, 1]
        assert stats["queued"] == 4

    def test_cancelled_running_job_holds_its_slot(self):
        # Only the first seed hangs.  Were its slot freed at cancel, the
        # second job would queue behind the hang on the one worker, and
        # its overstay budget (1 s timeout + 1 s grace) would run out
        # there: a healthy worker SIGKILLed, the job lost.
        plan = FaultPlan(seed=3, rate=0.5, kinds=("hang",), hang_s=3.0,
                         sites=("execute",))
        hangs = [plan.fault_for("execute", s, 0) == "hang"
                 for s in range(64)]
        hung = flip_spec(seed=hangs.index(True))
        timed = flip_spec(seed=hangs.index(False))
        timed.timeout = 1.0
        with ExperimentService(backend="process", workers=1,
                               faults=plan) as svc:
            backend = svc.engine
            head = svc.submit(hung, stream=False)

            def hanging():
                remote = backend.stats()["workers"][0]["remote"]
                return remote["metrics"]["counters"].get(
                    "faults.execute.hang", 0) == 1

            wait_for(hanging, timeout=60.0)
            assert head.cancel()
            result = svc.submit(timed, stream=False).result(timeout=60.0)
            stats = backend.stats()
        assert result.seed == timed.seed
        assert stats["hang_kills"] == 0 and stats["worker_losses"] == 0

    def test_close_runs_every_submitted_job(self):
        specs = [flip_spec(seed=i + 1) for i in range(4)]
        with ExperimentService(backend="serial") as svc:
            ref = svc.run_batch(specs)
        svc = ExperimentService(backend="process", workers=2)
        futures = [svc.submit(spec, stream=False) for spec in specs]
        svc.close()  # no drain first: close runs them all
        got = [future.result(timeout=0) for future in futures]
        np.testing.assert_array_equal(
            ref.averages(), np.stack([r.averages for r in got]))

    def test_single_submits_alternate_between_idle_workers(self):
        with ExperimentService(backend="process", workers=2) as svc:
            names = [svc.submit(flip_spec(seed=1, telemetry=True))
                     .result(timeout=60.0).telemetry.worker
                     for _ in range(4)]
        assert all(name.startswith("pid:") for name in names)
        assert names[0] != names[1]
        assert names == names[:2] * 2

    def test_accounting_stays_exact_under_contention(self):
        # More workers than cores and a tiny switch interval: a lost
        # update to the per-worker loads would strand jobs or leave a
        # slot counted busy.
        specs = [flip_spec(seed=i + 1) for i in range(40)]
        with ExperimentService(backend="serial") as svc:
            ref = svc.run_batch(specs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ExperimentService(backend="process", workers=4) as svc:
                got = svc.run_batch(specs)
                stats = svc.stats()["engine"]
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(ref.averages(), got.averages())
        assert sum(w["shipped"] for w in stats["workers"]) == len(specs)
        assert [w["outstanding"] for w in stats["workers"]] == [0] * 4
        assert stats["queued"] == 0 and stats["pending"] == 0

    def test_idle_worker_loss_is_replaced(self):
        specs = [flip_spec(seed=i + 1) for i in range(6)]
        with ExperimentService(backend="serial") as svc:
            ref = svc.run_batch(specs)
        with ExperimentService(backend="process", workers=2) as svc:
            svc.submit(flip_spec(seed=99)).result(timeout=60.0)
            backend = svc.engine
            os.kill(backend.stats()["workers"][1]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while backend.worker_losses < 1:
                assert time.monotonic() < deadline, "loss never detected"
                time.sleep(0.01)
            got = svc.run_batch(specs)
            stats = backend.stats()
        np.testing.assert_array_equal(ref.averages(), got.averages())
        assert stats["worker_losses"] == 1
        assert stats["failed"] == 0


# -- worker loss --------------------------------------------------------------


class TestWorkerLoss:
    def test_sigkill_mid_sweep_recovers_bit_identical(self):
        specs = [slow_spec(i + 1, label=f"r{i}", retry=RETRY)
                 for i in range(8)]
        with ExperimentService(backend="serial") as svc:
            ref = svc.run_batch(specs)
        p1, a1 = launch_worker()
        p2, a2 = launch_worker()
        try:
            with ExperimentService(backend="fleet",
                                   fleet_workers=[a1, a2]) as svc:
                futures = [svc.submit(s) for s in specs]
                time.sleep(0.6)
                os.kill(p1.pid, signal.SIGKILL)
                got = [f.result(timeout=120.0) for f in futures]
                stats = svc.stats()["engine"]
        finally:
            stop_worker(p1)
            stop_worker(p2)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a.averages, b.averages)
        assert stats["worker_losses"] >= 1
        assert stats["failed"] == 0

    def test_no_retry_death_fails_futures_and_drains(self):
        proc, addr = launch_worker()
        # NO_RETRY semantics under test: every job hangs at execute (a
        # client plan overrides the daemons' ambient env), so none can
        # finish before the SIGKILL and the only failure mode in play is
        # the worker's death.
        hang = FaultPlan(seed=0, rate=1.0, kinds=("hang",), hang_s=60.0,
                         sites=("execute",))
        backend = FleetBackend([addr], faults=hang)
        try:
            futures = [backend.submit(flip_spec(i + 1)) for i in range(3)]
            os.kill(proc.pid, signal.SIGKILL)
            outcomes = []
            for f in futures:
                try:
                    f.result(timeout=60.0)
                    outcomes.append("ok")
                except JobError as exc:
                    outcomes.append(exc.exc_type)
            backend.drain(timeout=30.0)
            stats = backend.stats()
        finally:
            backend.close()
            stop_worker(proc)
        assert outcomes == ["WorkerLost"] * 3
        assert stats["pending"] == 0
        assert stats["failed"] == outcomes.count("WorkerLost")
        # NO_RETRY losses are terminal, not "transiently recoverable":
        # they land in the quarantine report un-exhausted.
        assert all(not entry["exhausted"] for entry in stats["quarantine"])

    def test_heartbeat_detects_silent_worker(self, monkeypatch):
        from repro.service import FaultPlan

        monkeypatch.setattr(WorkerClient, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(WorkerClient, "HEARTBEAT_MISSES", 3)
        proc, addr = launch_worker()
        try:
            backend = FleetBackend([addr],
                                   faults=FaultPlan(seed=0, rate=0.0))
            future = backend.submit(slow_spec(1, n_rounds=3000))
            time.sleep(0.3)
            os.kill(proc.pid, signal.SIGSTOP)  # alive but silent
            with pytest.raises(JobError) as exc:
                future.result(timeout=30.0)
            assert exc.value.exc_type == "WorkerLost"
            assert "silent" in str(exc.value)
            backend.close()
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            stop_worker(proc)

    def test_remote_backend_reconnects_to_restarted_address(self,
                                                            worker_pair):
        # With reconnect_lost a loss re-dials the same address before
        # resolving victims, so a still-listening daemon picks the work
        # straight back up.
        backend = FleetBackend([addr_of(worker_pair[0])],
                               reconnect_lost=True)
        try:
            first = backend.submit(flip_spec(seed=1, retry=RETRY))
            first.result(timeout=60.0)
            backend._clients[0].mark_lost("synthetic loss for test")
            second = backend.submit(flip_spec(seed=2, retry=RETRY))
            assert second.result(timeout=60.0) is not None
            assert backend.stats()["reconnects"] >= 1
        finally:
            backend.close()


# -- failures recorded, not dropped --------------------------------------------


def wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestRecordedFailures:
    def test_failed_cancel_send_is_counted(self, worker_pair):
        client = WorkerClient(addr_of(worker_pair[0])).connect()
        client.close()
        client.cancel(1)
        assert client.cancel_failures == 1

    def test_undeliverable_result_is_counted(self):
        worker = WorkerServer().start()
        try:
            client = WorkerClient(addr_of(worker)).connect()
            hang = FaultPlan(seed=0, rate=1.0, kinds=("hang",), hang_s=0.3,
                             sites=("execute",))
            client.submit(0, flip_spec(seed=1), faults=hang)
            client.close()  # gone before the result can ship
            wait_for(lambda: worker.stats()["results_undelivered"] == 1)
        finally:
            worker.stop()

    def test_failed_reconnect_is_counted(self, monkeypatch):
        monkeypatch.setattr(WorkerClient, "CONNECT_TIMEOUT_S", 2.0)
        worker = WorkerServer().start()
        backend = FleetBackend([addr_of(worker)], reconnect_lost=True)
        try:
            backend.submit(flip_spec(seed=1)).result(timeout=60.0)
            worker.stop()  # the re-dial after the loss finds no listener
            wait_for(lambda: backend.stats()["reconnect_failures"] == 1)
            assert backend.stats()["worker_losses"] == 1
        finally:
            backend.close()

    def test_failed_stats_request_is_counted(self, fleet_addrs):
        backend = FleetBackend(fleet_addrs)
        try:
            backend.submit(flip_spec(seed=1)).result(timeout=60.0)

            def refuse(timeout=None):
                raise TimeoutError("no STATS_REPLY within 5.0 s")

            backend._clients[0].stats = refuse
            stats = backend.stats()
        finally:
            backend.close()
        assert stats["stats_failures"] == 1
        first, second = stats["workers"]
        assert first["stats_error"] == \
            "TimeoutError: no STATS_REPLY within 5.0 s"
        assert "remote" not in first
        assert "stats_error" not in second and "remote" in second


# -- daemon lifecycle and CLI -------------------------------------------------


class TestDaemon:
    def test_launch_worker_announces_bound_address(self):
        proc, addr = launch_worker()
        try:
            host, port = parse_address(addr)
            assert host == "127.0.0.1" and port > 0
            client = WorkerClient(addr).connect()
            assert client.welcome["pid"] == proc.pid
            client.close()
        finally:
            stop_worker(proc)

    def test_launch_times_out_on_a_silent_daemon(self, tmp_path):
        # A stand-in ``repro`` package first on the path: its daemon
        # sleeps without ever announcing an address.
        import repro

        fake = tmp_path / "repro"
        fake.mkdir()
        (fake / "__init__.py").write_text("")
        (fake / "__main__.py").write_text("import time\ntime.sleep(60)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
        t0 = time.monotonic()
        with pytest.raises(ConfigurationError, match="did not announce"):
            launch_worker(env=env, timeout=1.0)
        assert time.monotonic() - t0 < 10.0

    def test_shutdown_frame_stops_daemon(self):
        proc, addr = launch_worker()
        try:
            client = WorkerClient(addr).connect()
            client.request_shutdown(timeout=10.0)
            client.close()
            assert proc.wait(timeout=15.0) == 0
        finally:
            stop_worker(proc)

    def test_cli_exp_fleet_backend(self, capsys):
        from repro.cli import main

        proc, addr = launch_worker()
        try:
            rc = main(["exp", "rabi", "--backend", "fleet",
                       "--fleet-workers", addr,
                       "--param", "n_rounds=8", "--param",
                       "amplitudes=[0.2, 0.5, 0.8]", "--seed", "7"])
        finally:
            stop_worker(proc)
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend=fleet" in out

    def test_service_stats_roll_up_remote_workers(self, fleet_addrs):
        with ExperimentService(backend="fleet",
                               fleet_workers=fleet_addrs) as svc:
            svc.run_batch([flip_spec(seed=i + 1) for i in range(4)])
            workers = svc.stats()["engine"]["workers"]
        assert len(workers) == 2
        for entry in workers:
            assert entry["alive"]
            remote = entry["remote"]
            assert remote["worker"].startswith("worker:")
            assert "pool" in remote and "cache" in remote

    def test_service_stats_asks_each_worker_once(self, fleet_addrs,
                                                 monkeypatch):
        """The engine block and the metrics summary share one STATS
        round trip per live worker."""
        asked = []
        stats = WorkerClient.stats

        def counted(client, timeout=None):
            asked.append(client.address)
            return stats(client, timeout)

        monkeypatch.setattr(WorkerClient, "stats", counted)
        with ExperimentService(backend="fleet",
                               fleet_workers=fleet_addrs) as svc:
            svc.run_batch([flip_spec(seed=i + 1) for i in range(2)])
            workers = svc.stats()["metrics"]["workers"]
        assert sorted(asked) == sorted(fleet_addrs)
        assert sorted(workers) == sorted(f"worker:{a}" for a in fleet_addrs)
