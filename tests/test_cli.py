"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

PROGRAM = """
    mov r1, 42
    Wait 4
    Pulse {q2}, X180
    Wait 4
    MPG {q2}, 300
    MD {q2}, r7
    halt
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.qasm"
    path.write_text(PROGRAM)
    return path


def test_assemble_writes_binary(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    rc = main(["assemble", str(source_file), "-o", str(out)])
    assert rc == 0
    blob = out.read_bytes()
    assert len(blob) == 4 * 7
    assert "7 instructions" in capsys.readouterr().out


def test_assemble_default_output_name(source_file, tmp_path):
    rc = main(["assemble", str(source_file)])
    assert rc == 0
    assert (tmp_path / "prog.bin").exists()


def test_disassemble_roundtrip(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    main(["assemble", str(source_file), "-o", str(out)])
    capsys.readouterr()
    rc = main(["disassemble", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mov r1, 42" in text
    assert "Pulse {q2}, X180" in text
    assert "MD {q2}, r7" in text


def test_run_from_source(source_file, capsys):
    rc = main(["run", str(source_file), "--qubits", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed:            True" in out
    assert "'r7': 1" in out
    assert "'r1': 42" in out


def test_run_from_binary(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    main(["assemble", str(source_file), "-o", str(out)])
    capsys.readouterr()
    rc = main(["run", str(out)])
    assert rc == 0
    assert "'r7': 1" in capsys.readouterr().out


def test_run_with_trace(source_file, capsys):
    rc = main(["run", str(source_file), "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pulse_start" in out


def test_run_with_config_file(source_file, tmp_path, capsys):
    from repro.core.config import MachineConfig
    from repro.core.config_io import save_config

    config = tmp_path / "machine.json"
    save_config(MachineConfig(qubits=(2,), trace_enabled=False), str(config))
    args = ["run", str(source_file), "--config", str(config)]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--trace"]) == 0
    traced = capsys.readouterr().out
    for out in (plain, traced):
        assert "completed:            True" in out
        assert "'r7': 1" in out
    assert "trace:" not in plain
    # --trace turns tracing on over the file's trace_enabled=False.
    assert "\ntrace:" in traced and "pulse_start" in traced


def test_missing_file_error(capsys):
    rc = main(["run", "/nonexistent/prog.qasm"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_assembly_error(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    path.write_text("frobnicate r1")
    rc = main(["assemble", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_allxy_command(capsys):
    rc = main(["exp", "allxy", "--param", "n_rounds=8"])
    assert rc == 0
    out = capsys.readouterr().out
    # Figure 9 on q2 at N = 8, seed 0, tracing off.
    assert "deviation 0.0724" in out


def test_exp_list(capsys):
    rc = main(["exp", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("rabi", "rb", "allxy", "t1", "ramsey", "echo",
                 "cz_calibration", "bell", "ghz"):
        assert name in out
    assert "params:" in out
    # --list shows each experiment's target arity.
    assert "target: 1 qubit" in out
    assert "target: 2 qubits (pair)" in out
    assert "target: register (2+ qubits)" in out


def test_exp_without_name_lists(capsys):
    rc = main(["exp"])
    assert rc == 0
    assert "rabi" in capsys.readouterr().out


def test_exp_runs_registered_experiment(capsys):
    rc = main(["exp", "rabi", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.25, 0.5, 0.75, 0.999]"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pi amplitude" in out
    assert "5 jobs | backend=serial" in out


def test_exp_stream_prints_jobs_and_fits(capsys):
    rc = main(["exp", "rabi", "--stream", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.25, 0.5, 0.75, 0.999]"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "done [quma]" in out
    assert "fit 5/5" in out


def test_exp_stream_rabi_fits_only_overdetermined_prefixes(capsys):
    # Three points determine the 3-parameter model exactly, so the
    # stream waits for a fourth before it prints a fit.
    rc = main(["exp", "rabi", "--stream", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.25, 0.5, 0.75, 0.999]"])
    assert rc == 0
    fits = [line.strip() for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("fit ")]
    assert fits[:3] == [f"fit {n}/5: (unconstrained)" for n in (1, 2, 3)]
    assert fits[3:] == [
        "fit 4/5: {'q2': {'pi_amplitude': 0.8050091625784592, "
        "'visibility': 1.126707065176635, 'offset': -0.0947306352768506, "
        "'expected_pi_amplitude': 0.9166028010225036}}",
        "fit 5/5: {'q2': {'pi_amplitude': 0.8490508078117046, "
        "'visibility': 1.16384590084854, 'offset': -0.08383953348913263, "
        "'expected_pi_amplitude': 0.9166028010225036}}",
    ]


def test_exp_multi_qubit(capsys):
    rc = main(["exp", "allxy", "--qubits", "0,1", "--param", "n_rounds=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "q0:" in out and "q1:" in out


def test_parse_targets_register_syntax():
    from repro.cli import _parse_targets

    assert _parse_targets("0,1") == ((0,), (1,))
    assert _parse_targets("0-1,1-2") == ((0, 1), (1, 2))
    assert _parse_targets("0-1-2") == ((0, 1, 2),)
    assert _parse_targets("2, 0-1") == ((2,), (0, 1))


def test_parse_params_json_bool_spellings():
    from repro.cli import _parse_params

    # `replay=false` must not become the (truthy) string "false".
    assert _parse_params(["replay=false"]) == {"replay": False}
    assert _parse_params(["replay=True", "stream=true"]) == \
        {"replay": True, "stream": True}
    assert _parse_params(["bases=('ZZ',)", "label=falsey"]) == \
        {"bases": ("ZZ",), "label": "falsey"}


def test_exp_stream_reports_replay_fallback(capsys):
    rc = main(["exp", "ghz", "--qubits", "0-1", "--stream",
               "--param", "n_rounds=4", "--param", "repeats=1",
               "--param", "replay=false"])
    assert rc == 0
    assert "[no replay: replay disabled by spec]" in capsys.readouterr().out


def test_exp_bell_pair(capsys):
    rc = main(["exp", "bell", "--qubits", "0-1", "--param", "n_rounds=6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fidelity >=" in out
    assert "3 jobs | backend=serial" in out


def test_exp_pair_sweep(capsys):
    rc = main(["exp", "bell", "--qubits", "0-1,1-2", "--stream",
               "--param", "n_rounds=4", "--param", "bases=('ZZ',)"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "q0-1:" in out and "q1-2:" in out
    assert "fit 2/2" in out


def test_exp_ghz_chain(capsys):
    rc = main(["exp", "ghz", "--qubits", "0-1-2",
               "--param", "n_rounds=4", "--param", "repeats=1"])
    assert rc == 0
    assert "population" in capsys.readouterr().out


def test_exp_unknown_name_errors(capsys):
    rc = main(["exp", "nope"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_exp_bad_param_errors(capsys):
    rc = main(["exp", "rabi", "--param", "norounds"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_exp_save_artifact(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    rc = main(["exp", "t1", "--param", "n_rounds=2",
               "--param", "delays_cycles=[4, 8, 16, 24]",
               "--save", str(out_path)])
    assert rc == 0
    assert out_path.exists()
    assert "sweep artifact" in capsys.readouterr().out


def test_batch_rabi_sweep(tmp_path, capsys):
    """A three-point Rabi sweep on q2 at seed 0: its per-job averages and
    calibration points are pinned."""
    out_path = tmp_path / "sweep.json"
    rc = main(["exp", "rabi", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.4995, 0.999]",
               "--save", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pi amplitude" in out
    assert "3 jobs | backend=serial" in out
    assert "compile cache hit rate:" in out
    assert "machine reuse rate:" in out
    jobs = json.loads(out_path.read_text())["jobs"]
    assert [job["averages"] for job in jobs] == [
        [-77.73275535247772], [95.01539013494711], [152.5658886254508]]
    assert {(job["s_ground"], job["s_excited"]) for job in jobs} == {
        (-77.92850621597353, 152.1827167490983)}


def test_batch_stream_prints_each_job_and_the_same_results(source_file,
                                                           capsys):
    args = ["batch", "--program", str(source_file), "--repeat", "2"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--stream"]) == 0
    streamed = capsys.readouterr().out

    def results(out):
        return [line for line in out.splitlines() if " S = " in line]

    done = [line for line in streamed.splitlines()
            if line.strip().startswith("done [quma]")]
    assert len(done) == 2
    assert all("[no replay: n_rounds not declared]" in line for line in done)
    assert len(results(plain)) == 2
    assert results(streamed) == results(plain)


def test_batch_raw_program(source_file, capsys):
    rc = main(["batch", "--program", str(source_file), "--repeat", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "job0" in out and "job1" in out
    assert "2 jobs | backend=serial" in out


@pytest.mark.parametrize("argv", [
    ["allxy"],
    ["allxy", "--rounds", "8"],
    ["batch", "--experiment", "rabi"],
    ["batch", "--program", "p.qasm", "--experiment", "rabi"],
    ["batch", "--program", "p.qasm", "--points", "3"],
    ["batch", "--program", "p.qasm", "--rounds", "4"],
    ["batch", "--program", "p.qasm", "--no-replay"],
], ids=" ".join)
def test_removed_commands_and_flags_fail_argument_parsing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


SHARED_FLAGS = ("backend", "workers", "fleet_workers", "seed", "stream",
                "save", "metrics_out", "retries", "job_timeout")


def test_exp_and_batch_parse_the_shared_flags_alike():
    parser = build_parser()

    def shared(argv):
        args = vars(parser.parse_args(argv))
        return {name: args[name] for name in SHARED_FLAGS}

    defaults = {"backend": "serial", "workers": None, "fleet_workers": None,
                "seed": 0, "stream": False, "save": None,
                "metrics_out": None, "retries": 0, "job_timeout": None}
    assert shared(["exp", "rabi"]) == defaults
    assert shared(["batch", "--program", "p.qasm"]) == defaults
    flags = ["--backend", "process", "--workers", "2",
             "--fleet-workers", "127.0.0.1:7301", "--seed", "7", "--stream",
             "--save", "s.json", "--metrics-out", "m.json",
             "--retries", "3", "--job-timeout", "1.5"]
    assert shared(["exp", "rabi", *flags]) == \
        shared(["batch", "--program", "p.qasm", *flags])
