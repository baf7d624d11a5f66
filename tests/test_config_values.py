"""Configs are values.

``MachineConfig`` is frozen and keeps its key: ``fingerprint`` hashes a
config once per ``exclude``, a pickled config carries the digest, and
every spec of a target shares the experiment's one config object, so a
warm sweep hashes its config once, not once per job.
"""

import pickle
import socket
import threading
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import repro.core.config as config_module
from repro import MachineConfig, Session
from repro.service import Worker, pool_key
from repro.service.fleet import protocol
from repro.service.fleet.client import WorkerClient
from repro.service.fleet.protocol import recv_frame, send_frame


@pytest.fixture
def asdict_calls(monkeypatch):
    """Every ``asdict`` call ``fingerprint`` makes, i.e. every real hash."""
    calls = []
    original = config_module.asdict

    def counted(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(config_module, "asdict", counted)
    return calls


@pytest.mark.parametrize("name", [f.name for f in fields(MachineConfig)])
def test_every_field_is_frozen(name):
    config = MachineConfig()
    with pytest.raises(FrozenInstanceError):
        setattr(config, name, getattr(config, name))


class TestKeyedOnce:
    def test_a_second_key_is_a_lookup(self, asdict_calls):
        config = MachineConfig(seed=5, trace_enabled=False)
        key = pool_key(config)
        assert pool_key(config) == key
        assert len(asdict_calls) == 1
        # Each exclude set is keyed once on its own.
        full = config.fingerprint()
        assert config.fingerprint() == full != key
        assert len(asdict_calls) == 2

    def test_a_pickled_config_carries_its_key(self, asdict_calls):
        config = MachineConfig(seed=6, trace_enabled=False)
        key = pool_key(config)
        loaded = pickle.loads(pickle.dumps(config))
        asdict_calls.clear()
        assert loaded is not config
        assert pool_key(loaded) == key
        assert asdict_calls == []

    def test_a_replaced_config_is_keyed_afresh(self, asdict_calls):
        config = MachineConfig(seed=7, trace_enabled=False)
        key = pool_key(config)
        assert pool_key(replace(config, seed=8)) != key
        assert pool_key(replace(config)) == key
        assert len(asdict_calls) == 3

    def test_the_kept_key_is_not_content(self):
        config = MachineConfig(seed=9)
        keyed = MachineConfig(seed=9)
        pool_key(keyed)
        assert keyed == config
        assert repr(keyed) == repr(config)
        assert keyed.fingerprint() == config.fingerprint()


@pytest.mark.parametrize("name,params", [
    ("rabi", {}),
    ("rb", {"lengths": [1, 4, 10]}),
    ("bell", {}),
], ids=["rabi", "rb", "bell"])
def test_specs_of_a_target_share_one_config(name, params):
    with Session(seed=11) as session:
        experiment = session.create(name, **params)
        specs = experiment.build_specs()
    assert len(specs) > 1
    assert all(spec.config is experiment.config for spec in specs)


def test_a_warm_rabi_sweep_hashes_its_config_once(asdict_calls):
    worker = Worker()
    with Session(seed=12) as session:
        cold = session.create("rabi", n_rounds=4).build_specs()
    # A second session builds a new config equal to the first.
    with Session(seed=12) as session:
        warm = session.create("rabi", n_rounds=4).build_specs()
    assert len(warm) == 21 and warm[0].config is not cold[0].config
    for spec in cold:
        worker.run(spec)
    asdict_calls.clear()
    jobs = [worker.run(spec) for spec in warm]
    assert all(job.machine_reused and job.replay_plan_hit for job in jobs)
    assert len(asdict_calls) == 1


def test_a_session_reuses_the_configs_it_builds():
    with Session(seed=14) as session:
        first = session.create("rabi", n_rounds=4).config
        assert session.create("allxy", n_rounds=4).config is first
        pinned = session.create("rabi", qubits=(0,)).config
        assert session.config_for(qubits=0) is pinned is not first
        bell = session.create("bell").config
        assert session.create("bell").config is bell is not first
        session.seed = 15
        reseeded = session.create("rabi", n_rounds=4).config
        assert reseeded is not first and reseeded.seed == 15
        session.sim_trace = True
        traced = session.create("rabi", n_rounds=4).config
        assert traced is not reseeded and traced.trace_enabled
        session.seed, session.sim_trace = 14, False
        assert session.create("rabi", n_rounds=4).config is first


def test_the_fleet_client_ships_a_keyed_config(asdict_calls):
    """The worker loads a config that already carries its key."""
    near, far = socket.socketpair()
    frames = []

    def fake_worker():
        recv_frame(far)  # the client's hello
        send_frame(far, protocol.WELCOME,
                   {"version": protocol.PROTOCOL_VERSION, "worker": "fake"})
        frames.append(recv_frame(far))

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    client = WorkerClient("fake").connect(near)
    try:
        with Session(seed=13) as session:
            spec = session.create("rabi", n_rounds=4).build_specs()[0]
        client.submit(0, spec)
        thread.join(timeout=10.0)
    finally:
        client.close()
        far.close()
    kind, body = frames[0]
    shipped = body["spec"].config
    assert kind == protocol.SUBMIT and shipped is not spec.config
    asdict_calls.clear()
    assert pool_key(shipped) == pool_key(spec.config)
    assert asdict_calls == []
