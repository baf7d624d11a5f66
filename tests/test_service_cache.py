"""Compile cache and fingerprint determinism."""

import pytest

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.service import CompileCache, program_fingerprint


def flip_program(name="flip"):
    p = QuantumProgram(name, qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return p


class TestConfigFingerprint:
    def test_equal_configs_equal_digests(self):
        assert MachineConfig(qubits=(2,)).fingerprint() == \
            MachineConfig(qubits=(2,)).fingerprint()

    def test_any_field_changes_the_digest(self):
        base = MachineConfig(qubits=(2,)).fingerprint()
        assert MachineConfig(qubits=(2,), seed=1).fingerprint() != base
        assert MachineConfig(qubits=(2,), msmt_cycles=200).fingerprint() != base
        assert MachineConfig(qubits=(2, 5)).fingerprint() != base

    def test_nested_dataclasses_participate(self):
        from repro.pulse import PulseCalibration

        base = MachineConfig(qubits=(2,)).fingerprint()
        tweaked = MachineConfig(
            qubits=(2,),
            calibration=PulseCalibration(kappa=0.7)).fingerprint()
        assert tweaked != base

    def test_exclude_drops_fields(self):
        a = MachineConfig(qubits=(2,), dcu_points=1)
        b = MachineConfig(qubits=(2,), dcu_points=42)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint(exclude=("dcu_points",)) == \
            b.fingerprint(exclude=("dcu_points",))


class TestProgramFingerprint:
    def test_stable_for_equal_structure(self):
        assert program_fingerprint(flip_program()) == \
            program_fingerprint(flip_program())

    def test_differs_on_gate_change(self):
        p = QuantumProgram("flip", qubits=(2,))
        p.new_kernel("k").prepz(2).y(2).measure(2)
        assert program_fingerprint(p) != program_fingerprint(flip_program())

    def test_differs_on_kernel_order(self):
        a = QuantumProgram("p", qubits=(2,))
        a.new_kernel("k1").x(2).measure(2)
        a.new_kernel("k2").y(2).measure(2)
        b = QuantumProgram("p", qubits=(2,))
        b.new_kernel("k2").y(2).measure(2)
        b.new_kernel("k1").x(2).measure(2)
        assert program_fingerprint(a) != program_fingerprint(b)


class TestCompileCache:
    def test_codegen_miss_then_hit(self):
        cache = CompileCache()
        opts = CompilerOptions(n_rounds=2)
        asm1, k1 = cache.compiled_for(flip_program(), opts)
        asm2, k2 = cache.compiled_for(flip_program(), opts)
        assert (asm1, k1) == (asm2, k2)
        assert cache.codegen_misses == 1
        assert cache.codegen_hits == 1

    def test_options_change_is_a_miss(self):
        cache = CompileCache()
        cache.compiled_for(flip_program(), CompilerOptions(n_rounds=2))
        cache.compiled_for(flip_program(), CompilerOptions(n_rounds=3))
        assert cache.codegen_misses == 2

    def test_assembly_hit_returns_same_program_object(self):
        cache = CompileCache()
        asm = "    Wait 4\n    Pulse {q2}, X180\n    halt\n"
        prog1, hit1 = cache.assembled_for(asm)
        prog2, hit2 = cache.assembled_for(asm)
        assert not hit1 and hit2
        assert prog1 is prog2

    def test_extra_ops_change_the_key(self):
        cache = CompileCache()
        asm = "    Wait 4\n    Pulse {q2}, SCRATCH\n    halt\n"
        prog, hit = cache.assembled_for(asm, extra_ops=("SCRATCH",))
        assert not hit
        # Same text without the scratch op cannot assemble: distinct key.
        with pytest.raises(Exception):
            cache.assembled_for(asm)

    def test_eviction_bounds_entries(self, monkeypatch):
        monkeypatch.setattr(CompileCache, "MAX_ENTRIES", 2)
        cache = CompileCache()
        for i in range(5):
            cache.assembled_for(f"    Wait {i + 1}\n    halt\n")
        assert cache.stats()["entries"] <= 4  # 2 per level


class TestResolve:
    def test_program_spec_resolves_with_k(self):
        from repro.service import JobSpec

        cache = CompileCache()
        spec = JobSpec(config=MachineConfig(qubits=(2,)),
                       program=flip_program(),
                       compiler_options=CompilerOptions(n_rounds=2))
        r1 = cache.resolve(spec)
        r2 = cache.resolve(spec)
        assert r1.k_points == 1
        assert not r1.cache_hit and r2.cache_hit
        assert r1.program is r2.program
