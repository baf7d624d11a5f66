"""Tests for the round-replay fast path (repro.core.replay)."""

import numpy as np
import pytest

from repro.core import MachineConfig
from repro.core.quma import QuMA
from repro.core.replay import (
    ReplayPlan,
    _chain_words,
    _static_loop_rounds,
    replay_ineligibility,
    run_with_replay,
)
from repro.compiler.codegen import CompilerOptions
from repro.experiments.allxy import build_allxy_program
from repro.service.cache import CompileCache


def fast_config(**overrides):
    defaults = dict(qubits=(2,), trace_enabled=False, calibration_shots=20)
    defaults.update(overrides)
    return MachineConfig(**defaults)


def loop_asm(n_rounds, body="    Pulse {q2}, X90\n    Wait 4", rd=""):
    return f"""
        mov r15, 40000
        mov r1, 0
        mov r2, {n_rounds}
    Outer_Loop:
        QNopReg r15
    {body}
        MPG {{q2}}, 300
        MD {{q2}}{rd}
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
        halt
    """


def run_pair(asm, n_rounds, config=None, plan=None):
    """The same program with replay off and on, on identical machines."""
    config = config if config is not None else fast_config(dcu_points=1)
    m_off = QuMA(config)
    m_off.load(asm)
    r_off = m_off.run()
    m_on = QuMA(config)
    m_on.load(asm)
    r_on, new_plan, report = run_with_replay(m_on, n_rounds, plan=plan)
    return r_off, r_on, new_plan, report


class TestReplayParity:
    def test_cold_replay_bitwise_identical(self):
        r_off, r_on, plan, report = run_pair(loop_asm(40), 40)
        assert report.fallback_reason is None
        assert report.replayed_rounds == 38
        assert plan is not None
        assert np.array_equal(r_off.averages, r_on.averages)
        assert r_on.completed
        assert r_on.measurements == r_off.measurements
        assert r_on.duration_ns == r_off.duration_ns
        assert r_on.instructions_executed == r_off.instructions_executed

    def test_warm_replay_bitwise_identical(self):
        asm = loop_asm(40)
        r_off, _, plan, _ = run_pair(asm, 40)
        r_off2, r_warm, _, report = run_pair(asm, 40, plan=plan)
        assert report.plan_hit
        assert report.replayed_rounds == 40
        assert np.array_equal(r_off.averages, r_warm.averages)
        assert r_warm.duration_ns == r_off2.duration_ns

    def test_plan_reusable_across_seeds(self):
        asm = loop_asm(24)
        _, _, plan, _ = run_pair(asm, 24)
        config = fast_config(dcu_points=1, seed=99)
        r_off, r_warm, _, report = run_pair(asm, 24, config=config, plan=plan)
        assert report.plan_hit
        assert np.array_equal(r_off.averages, r_warm.averages)

    def test_allxy_parity(self):
        cache = CompileCache()
        asm, k = cache.compiled_for(build_allxy_program(2),
                                    CompilerOptions(n_rounds=8))
        config = fast_config(dcu_points=k)
        r_off, r_on, plan, report = run_pair(asm, 8, config=config)
        assert report.fallback_reason is None
        assert r_on.replayed_rounds == 6
        assert np.array_equal(r_off.averages, r_on.averages)
        assert plan.k_points == 42

    def test_noise_free_readout_parity(self):
        from repro.readout.resonator import ReadoutParams

        config = fast_config(dcu_points=1,
                             readout=ReadoutParams(noise_std=0.0))
        r_off, r_on, _, report = run_pair(loop_asm(16), 16, config=config)
        assert report.fallback_reason is None
        assert np.array_equal(r_off.averages, r_on.averages)


class TestIneligibility:
    def test_feedback_program_takes_full_path(self):
        """A register-file-feedback program must run the full simulation
        and produce results identical to pre-replay behavior."""
        asm = loop_asm(12, rd=", r3")
        config = fast_config(dcu_points=1)
        baseline = QuMA(config)
        baseline.load(asm)
        r_base = baseline.run()

        machine = QuMA(config)
        machine.load(asm)
        r_replay, plan, report = run_with_replay(machine, 12)
        assert plan is None
        assert "feedback" in report.fallback_reason
        assert r_replay.replayed_rounds == 0
        assert np.array_equal(r_base.averages, r_replay.averages)
        assert r_base.registers == r_replay.registers
        assert r_base.duration_ns == r_replay.duration_ns
        assert r_base.instructions_executed == r_replay.instructions_executed

    def test_static_reasons(self):
        config = fast_config(dcu_points=1)
        machine = QuMA(config)
        machine.load(loop_asm(8))
        assert replay_ineligibility(machine, 8) is None
        assert "rounds" in replay_ineligibility(machine, 2)
        assert "rounds" in replay_ineligibility(machine, None)

        machine.load(loop_asm(8, rd=", r4"))
        assert "feedback" in replay_ineligibility(machine, 8)

        traced = QuMA(fast_config(dcu_points=1, trace_enabled=True))
        traced.load(loop_asm(8))
        assert "tracing" in replay_ineligibility(traced, 8)

        jittery = QuMA(fast_config(dcu_points=1, classical_jitter_ns=3))
        jittery.load(loop_asm(8))
        assert "jitter" in replay_ineligibility(jittery, 8) or \
            "timing" in replay_ineligibility(jittery, 8)

    def test_misdeclared_rounds_fall_back(self):
        """A declared n_rounds that contradicts the program's own loop
        bound must not silently replay the wrong number of rounds."""
        asm = loop_asm(16)
        config = fast_config(dcu_points=1)
        machine = QuMA(config)
        machine.load(asm)
        assert "loop bound" in replay_ineligibility(machine, 8)

        result, plan, report = run_with_replay(machine, 8)
        assert plan is None and "loop bound" in report.fallback_reason
        baseline = QuMA(config)
        baseline.load(asm)
        assert np.array_equal(baseline.run().averages, result.averages)
        assert result.measurements == 16  # the program's true round count

    def test_microprogram_call_falls_back(self):
        config = fast_config(dcu_points=1)
        machine = QuMA(config)
        machine.define_microprogram("flip", 1, "Pulse {q0}, X180\nWait 4")
        asm = loop_asm(8, body="    flip q2")
        machine.load(asm)
        assert "microprogram" in replay_ineligibility(machine, 8)

    def test_branch_to_undefined_label_is_not_a_loop(self):
        from repro.isa.instructions import Bne, Halt, Movi
        from repro.isa.program import Program

        program = Program(instructions=[Movi(1, 0), Movi(2, 8),
                                        Bne(1, 2, "Nowhere"), Halt()])
        assert _static_loop_rounds(program) is None

    def test_register_wider_than_cap_falls_back(self):
        qubits = tuple(range(9))
        config = MachineConfig(qubits=qubits, trace_enabled=False,
                               calibration_shots=20, dcu_points=9)
        machine = QuMA(config)
        register = ", ".join(f"q{q}" for q in qubits)
        machine.load(f"""
            mov r1, 0
            mov r2, 8
        Outer_Loop:
            Wait 4
            MPG {{{register}}}, 300
            MD {{{register}}}
            addi r1, r1, 1
            bne r1, r2, Outer_Loop
            halt
        """)
        assert "8-qubit" in replay_ineligibility(machine, 8)

    def test_fallback_and_full_run_agree_for_entangled_states(self):
        """A CZ program collapses to non-basis states: the engine must
        detect it mid-recording and continue to the correct full result."""
        config = MachineConfig(qubits=(1, 2), flux_pairs=((1, 2),),
                               trace_enabled=False, calibration_shots=20,
                               dcu_points=1)
        asm = """
            mov r15, 40000
            mov r1, 0
            mov r2, 6
        Outer_Loop:
            QNopReg r15
            Pulse {q1}, Y90
            Pulse {q2}, Y90
            Wait 4
            Pulse {q1, q2}, CZ
            Wait 8
            MPG {q1}, 300
            MD {q1}
            addi r1, r1, 1
            bne r1, r2, Outer_Loop
            halt
        """
        baseline = QuMA(config)
        baseline.load(asm)
        r_base = baseline.run()

        machine = QuMA(config)
        machine.load(asm)
        r_replay, plan, report = run_with_replay(machine, 6)
        assert plan is None
        assert report.fallback_reason is not None
        assert np.array_equal(r_base.averages, r_replay.averages)


def register_config(**overrides):
    from repro.readout.multiplex import staggered_readouts

    defaults = dict(qubits=(1, 2), flux_pairs=((1, 2),),
                    trace_enabled=False, calibration_shots=20,
                    dcu_points=2, readouts=staggered_readouts(2))
    defaults.update(overrides)
    return MachineConfig(**defaults)


def register_asm(n_rounds):
    """A CZ-entangled two-qubit register measured through one record."""
    return f"""
        mov r15, 40000
        mov r1, 0
        mov r2, {n_rounds}
    Outer_Loop:
        QNopReg r15
        Pulse {{q1}}, Y90
        Wait 4
        Pulse {{q1, q2}}, CZ
        Wait 8
        MPG {{q1, q2}}, 300
        MD {{q1, q2}}
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
        halt
    """


class TestJointReplay:
    """Joint-outcome Markov replay for multiplexed register readout."""

    def test_cold_joint_replay_bitwise_identical(self):
        config = register_config()
        m_off = QuMA(config)
        m_off.load(register_asm(12))
        r_off = m_off.run()
        m_on = QuMA(config)
        m_on.load(register_asm(12))
        r_on, plan, report = run_with_replay(m_on, 12)
        assert report.fallback_reason is None
        assert report.replayed_rounds == 10
        # One width-2 register read once per round.
        assert plan.chip_qubits == (1, 2)
        assert plan.p1_tree.shape[0] == 1
        # The DCU stream — every per-qubit statistic of every round — is
        # bit-identical, not just the per-point means.
        assert m_off.dcu.raw().tolist() == m_on.dcu.raw().tolist()
        assert np.array_equal(r_off.averages, r_on.averages)
        assert r_on.measurements == r_off.measurements == 24
        assert r_on.duration_ns == r_off.duration_ns
        assert r_on.instructions_executed == r_off.instructions_executed

    def test_warm_joint_replay_and_cross_seed_reuse(self):
        asm = register_asm(12)
        m_cold = QuMA(register_config())
        m_cold.load(asm)
        _, plan, _ = run_with_replay(m_cold, 12)
        for seed in (None, 1234):
            config = (register_config() if seed is None
                      else register_config(seed=seed))
            m_off = QuMA(config)
            m_off.load(asm)
            m_off.run()
            m_warm = QuMA(config)
            m_warm.load(asm)
            r_warm, _, report = run_with_replay(m_warm, 12, plan=plan)
            assert report.plan_hit and report.replayed_rounds == 12
            assert m_off.dcu.raw().tolist() == m_warm.dcu.raw().tolist()

    def test_cold_build_on_nondefault_seed(self):
        asm = register_asm(8)
        config = register_config(seed=77)
        m_off = QuMA(config)
        m_off.load(asm)
        m_off.run()
        m_on = QuMA(config)
        m_on.load(asm)
        _, plan, report = run_with_replay(m_on, 8)
        assert report.fallback_reason is None
        assert plan.chip_qubits == (1, 2)
        assert plan.p1_tree.shape[0] == 1
        assert m_off.dcu.raw().tolist() == m_on.dcu.raw().tolist()

    @pytest.mark.parametrize("n_rounds", [12, 23])
    def test_mixed_adc_depths_bitwise_identical(self, n_rounds):
        """q2 digitizes at 6 bits, q1 at 8: the readout block pipeline
        quantizes each record at both depths, and the warm run's record
        count leaves a partial last block."""
        from repro.readout.pipeline import BLOCK_FLOATS

        def machine():
            m = QuMA(register_config())
            m.mdus[2].adc_bits = 6
            m.load(register_asm(n_rounds))
            return m

        m_off = machine()
        m_off.run()
        m_cold = machine()
        _, plan, report = run_with_replay(m_cold, n_rounds)
        assert report.fallback_reason is None
        assert plan.adc_bits == (8, 6)
        m_warm = machine()
        _, _, report = run_with_replay(m_warm, n_rounds, plan=plan)
        assert report.plan_hit
        assert n_rounds % (BLOCK_FLOATS // plan.duration_ns)
        raw = m_off.dcu.raw().tolist()
        assert m_cold.dcu.raw().tolist() == raw
        assert m_warm.dcu.raw().tolist() == raw


def double_read_asm(n_rounds, first="q1, q2"):
    """``first`` then the register ``{q1, q2}``, each through one record."""
    return f"""
        mov r15, 40000
        mov r1, 0
        mov r2, {n_rounds}
    Outer_Loop:
        QNopReg r15
        Pulse {{q1}}, Y90
        Wait 4
        Pulse {{q1, q2}}, CZ
        Wait 8
        MPG {{{first}}}, 300
        MD {{{first}}}
        Wait 400
        Pulse {{q2}}, X90
        Wait 4
        MPG {{q1, q2}}, 300
        MD {{q1, q2}}
        addi r1, r1, 1
        bne r1, r2, Outer_Loop
        halt
    """


class TestRegisterReadTwice:
    """A round of several register records replays through the one plan
    when every record reads the same register."""

    @pytest.mark.parametrize(("first", "points", "fallback"), (
        ("q1, q2", 4, None),
        ("q1", 3, "non-uniform measurement records"),
    ), ids=("same-register", "mixed-width"))
    def test_replay_on_off_parity(self, first, points, fallback):
        config = register_config(dcu_points=points)
        asm = double_read_asm(12, first)
        m_off = QuMA(config)
        m_off.load(asm)
        r_off = m_off.run()
        plan = None
        for warm in (False, True):
            m_on = QuMA(config)
            m_on.load(asm)
            r_on, new_plan, report = run_with_replay(m_on, 12, plan=plan)
            assert report.fallback_reason == fallback
            assert report.plan_hit == (warm and fallback is None)
            assert m_off.dcu.raw().tolist() == m_on.dcu.raw().tolist()
            assert r_on.duration_ns == r_off.duration_ns
            assert r_on.instructions_executed == r_off.instructions_executed
            plan = new_plan
        if fallback is None:
            assert plan.p1_tree.shape[0] == 2  # two readouts per round
            assert r_on.replayed_rounds == 12


def sequential_words(p1_tree, next_pos, uniforms, pos0):
    """Reference walk: one readout at a time from the current state."""
    m = p1_tree.shape[0]
    pos, words = pos0, []
    for i, row in enumerate(uniforms):
        r, prefix = i % m, 0
        for j, u in enumerate(row):
            prefix |= int(u < p1_tree[r, pos, (1 << j) - 1 + prefix]) << j
        words.append(prefix)
        pos = next_pos[r, prefix]
    return words


def random_chain(rng, m, n_states, w):
    p1_tree = rng.random((m, n_states, (1 << w) - 1))
    next_pos = rng.integers(0, n_states, size=(m, 1 << w))
    return p1_tree, next_pos


#: (readouts per round m, states, register width w)
CHAINS = ((7, 2, 1), (3, 4, 2))
CHAIN_IDS = ("w1-2states", "w2-4states")


class TestChainWords:
    @pytest.mark.parametrize(("m", "n_states", "w"), CHAINS, ids=CHAIN_IDS)
    def test_memoryless_positions(self, m, n_states, w):
        """Every state shares one tree: the start state cannot matter."""
        rng = np.random.default_rng(3)
        p1_tree, next_pos = random_chain(rng, m, n_states, w)
        p1_tree[:] = p1_tree[:, :1]
        uniforms = rng.random((5 * m, w))
        ref = sequential_words(p1_tree, next_pos, uniforms, 0)
        for pos0 in range(n_states):
            assert _chain_words(p1_tree, next_pos, uniforms,
                                pos0).tolist() == ref

    @pytest.mark.parametrize(("m", "n_states", "w"), CHAINS, ids=CHAIN_IDS)
    def test_dependent_positions_follow_previous_word(self, m, n_states, w):
        # State s always yields word s % 2**w, and word x leads to state
        # (x + 1) % n_states: readout 0 depends on pos0, each later
        # readout on the word before it.
        n_words = 1 << w
        p1_tree = np.zeros((m, n_states, n_words - 1))
        for s in range(n_states):
            word = s % n_words
            for j in range(w):
                prefix = word & ((1 << j) - 1)
                p1_tree[:, s, (1 << j) - 1 + prefix] = (word >> j) & 1
        next_pos = np.tile((np.arange(n_words) + 1) % n_states, (m, 1))
        uniforms = np.full((2 * m, w), 0.5)
        for pos0 in range(n_states):
            words = _chain_words(p1_tree, next_pos, uniforms, pos0).tolist()
            assert words[0] == pos0 % n_words
            for prev, word in zip(words, words[1:]):
                assert word == ((prev + 1) % n_states) % n_words
            assert len(set(words)) > 1

    @pytest.mark.parametrize(("m", "n_states", "w"), CHAINS, ids=CHAIN_IDS)
    def test_matches_sequential_reference(self, m, n_states, w):
        rng = np.random.default_rng(5)
        p1_tree, next_pos = random_chain(rng, m, n_states, w)
        uniforms = rng.random((30 * m, w))
        for pos0 in range(n_states):
            fast = _chain_words(p1_tree, next_pos, uniforms, pos0)
            assert fast.tolist() == sequential_words(p1_tree, next_pos,
                                                     uniforms, pos0)


class TestRunReplayed:
    def test_quma_hook(self):
        config = fast_config(dcu_points=1)
        machine = QuMA(config)
        machine.load(loop_asm(20))
        result = machine.run_replayed(20)
        assert result.completed
        assert result.replayed_rounds == 18

        full = QuMA(config)
        full.load(loop_asm(20))
        assert np.array_equal(full.run().averages, result.averages)

    def test_plan_contents(self):
        _, _, plan, _ = run_pair(loop_asm(16), 16)
        assert isinstance(plan, ReplayPlan)
        assert plan.k_points == 1
        assert plan.duration_ns == 1500
        # One width-1 register (chip qubit 2, device index 0) read once
        # per round; the chain states are its two basis states.
        assert plan.chip_qubits == (2,) and plan.measure_qubits == (0,)
        assert plan.states == (0, 1)
        assert plan.p1_tree.shape == (1, 2, 1)
        assert plan.next_pos.tolist() == [[0, 1]]
        assert 0.0 <= plan.p1_tree.min() and plan.p1_tree.max() <= 1.0
        assert plan.round_period_ns > 0
